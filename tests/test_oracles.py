import numpy as np
import pytest

from tensorgeo.oracles import (contract_cp, contract_tt, contract_tucker,
                               dense_geodesic, mexp_dense, psi1_series,
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
