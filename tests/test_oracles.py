import numpy as np
import pytest

import tensorgeo.homogeneous as hq
from conftest import rel_err
from tensorgeo import CpShape, cp_random_horizontal, cp_random_point
from tensorgeo.oracles import (contract_cp, contract_tt, contract_tucker,
                               dense_geodesic, mexp_dense, mpmath_columns,
                               mpmath_geodesic, psi1_series,
                               series_tail_bound)


def test_series_basics():
    assert np.array_equal(psi1_series(np.zeros((3, 3))).astype(float), np.eye(3))
    got = float(psi1_series(np.array([[0.5]]))[0, 0])
    assert got == pytest.approx(1.2974425414002564, abs=1e-16)
    with pytest.raises(ValueError):
        psi1_series(10 * np.eye(2))


def test_series_tail_bound():
    assert series_tail_bound(0.5, 60) < 1e-60
    assert series_tail_bound(4.0, 60) < 1e-45


def test_series_batched():
    rng = np.random.default_rng(0)
    ms = rng.standard_normal((7, 3, 3)) * 0.1
    batched = psi1_series(ms)
    for i in range(7):
        single = psi1_series(ms[i])
        assert np.abs(batched[i] - single).max() == 0.0


def test_mexp_dense():
    assert np.array_equal(mexp_dense(np.zeros((2, 2))), np.eye(2))
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.abs(mexp_dense(nil) - np.array([[1, 1], [0, 1]])).max() < 1e-15


def test_dense_geodesic_scalar_and_t0():
    a, v = 1.4, 0.9
    out = dense_geodesic([[[a]]], [[[v]]], 0.7)[0]
    assert out[0, 0] == pytest.approx(np.exp(0.7 * v / a) * a, rel=1e-13)
    rng = np.random.default_rng(1)
    g = [rng.standard_normal((4, 4)) + 2 * np.eye(4)]
    x = [rng.standard_normal((4, 4))]
    assert np.abs(dense_geodesic(g, x, 0.0)[0] - g[0]).max() < 1e-15
    # every mode is stepped, or none
    with pytest.raises(ValueError, match="dimension profiles do not match"):
        dense_geodesic(g + g, x, 0.7)


def test_mpmath_geodesic_matches_the_dense_one_where_both_hold():
    a, v = 1.4, 0.9
    out = mpmath_geodesic([[[a]]], [[[v]]], 0.7)[0]
    assert out[0, 0] == pytest.approx(np.exp(0.7 * v / a) * a, rel=1e-15)
    rng = np.random.default_rng(3)
    g = [rng.standard_normal((n, n)) + 2 * np.eye(n) for n in (3, 6)]
    x = [0.3 * rng.standard_normal((n, n)) for n in (3, 6)]
    for got, want in zip(mpmath_geodesic(g, x, 0.7),
                         dense_geodesic(g, x, 0.7)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    with pytest.raises(ValueError, match="dimension profiles do not match"):
        mpmath_geodesic(g + g, x, 0.7)
    with pytest.raises(ValueError, match="n <= 6"):
        mpmath_geodesic([np.eye(7)], [np.zeros((7, 7))])


def test_mpmath_columns_match_the_dense_reference_at_moderate_t():
    # at a moderate t the float64 lift's rounding does not show, and the
    # exact-input columns agree with the densified geodesic's leading ones
    rng = np.random.default_rng(4)
    shape = CpShape((4, 5, 3), 2)
    p = cp_random_point(shape, rng)
    x = cp_random_horizontal(p, rng)
    ref = mpmath_geodesic(hq.densify(p), hq.lift_tangent(p, x), 0.6)
    for cols, f, k in zip(mpmath_columns(p, x, 0.6), ref, shape.ks):
        assert rel_err(cols, f[:, :k]) <= 1e-14
    with pytest.raises(ValueError, match="n <= 6"):
        big = cp_random_point(CpShape((7, 3, 3), 2), rng)
        mpmath_columns(big, cp_random_horizontal(big, rng))
    with pytest.raises(ValueError, match="^mode 0: tangent blocks"):
        mpmath_columns(p, hq.ManifoldTangent(x.modes[::-1]))


def test_contract_cp_outer_product():
    rng = np.random.default_rng(2)
    vs = [rng.standard_normal((n, 1)) for n in (3, 4, 2)]
    got = contract_cp(vs)
    want = np.einsum("i,j,k->ijk", vs[0][:, 0], vs[1][:, 0], vs[2][:, 0])
    assert np.abs(got - want).max() < 1e-14


def test_contract_tucker_identity_core():
    core = np.eye(4).reshape(4, 2, 2)
    gs = [np.eye(4), np.eye(2), np.eye(2)]
    got = contract_tucker(core, gs)
    assert np.array_equal(got, core)


def test_contract_tt_identity_cores():
    e1 = np.eye(2)                       # (n1=2, s1=2) boundary matrix
    e2 = np.eye(4).reshape(4, 2, 2).transpose(1, 0, 2)
    e3 = np.eye(2)                       # (s2=2, n3=2)
    t = contract_tt([e1, e2, e3])
    # matches the reference construction of the TT manifold
    from tensorgeo import TtShape
    assert np.array_equal(t, TtShape((2, 4, 2), (2, 2)).reference_tensor())


def test_contractions_cross_check_random():
    rng = np.random.default_rng(3)
    vs = [rng.standard_normal((n, 2)) for n in (3, 3, 2)]
    want = sum(np.einsum("i,j,k->ijk", vs[0][:, j], vs[1][:, j], vs[2][:, j])
               for j in range(2))
    assert np.abs(contract_cp(vs) - want).max() < 1e-13
