from functools import reduce

import numpy as np
import pytest

import tensorgeo.homogeneous as hq
from conftest import dense_geodesic_embed, rel_err
from tensorgeo import (TuckerShape, mode_apply, multilinear_rank, t1_window,
                       tucker_geodesic, tucker_m_membership,
                       tucker_point_from_decomposition,
                       tucker_random_horizontal, tucker_random_point)
from tensorgeo.dense import mode_product
from tensorgeo.group import AlgebraElement
from tensorgeo.oracles import contract_tucker
from tensorgeo.tucker import tucker_partial_trace, tucker_random_decomposition


def test_rank_window_constant():
    assert t1_window((10, 10)) == (98, 100)


def test_shape_validation_cites_window():
    with pytest.raises(ValueError, match=r"\[98, 100\]"):
        TuckerShape((100, 10, 10), (99, 10, 10))
    with pytest.raises(ValueError):
        TuckerShape((3, 2, 2), (4, 2, 2))   # t1 > n1
    TuckerShape((4, 2, 2), (4, 2, 2))       # boundary case is fine


def test_reference_tensor():
    shape = TuckerShape((4, 2, 2), (4, 2, 2))
    t = shape.reference_tensor()
    assert np.array_equal(t.reshape(4, 4), np.eye(4))
    shape = TuckerShape((6, 3, 3), (4, 2, 2))
    t = shape.reference_tensor()
    assert multilinear_rank(t) == (4, 2, 2)
    assert np.abs(t[4:, :, :]).max() == 0.0
    assert np.abs(t[:, 2:, :]).max() == 0.0


def test_point_from_decomposition():
    shape = TuckerShape((5, 3, 3), (4, 2, 2))
    rng = np.random.default_rng(0)
    core, factors = tucker_random_decomposition(shape, rng)
    p = tucker_point_from_decomposition(core, factors)
    assert rel_err(hq.embed(p), contract_tucker(core, factors)) <= 1e-12
    # identity decomposition gives the reference tensor
    eye_core = shape.core_identity()
    eye_factors = [np.eye(n)[:, :t] for n, t in zip(shape.dims, shape.ranks)]
    q = tucker_point_from_decomposition(eye_core, eye_factors)
    assert np.array_equal(hq.embed(q), shape.reference_tensor())


def test_point_from_decomposition_singular_core():
    shape = TuckerShape((5, 3, 3), (4, 2, 2))
    rng = np.random.default_rng(1)
    _, factors = tucker_random_decomposition(shape, rng)
    core = np.zeros(shape.ranks)
    core[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        tucker_point_from_decomposition(core, factors)


def test_stabilizer_diag_case():
    shape = TuckerShape((4, 2, 2), (4, 2, 2))
    ref = shape.reference_tensor()
    free = (tuple(np.zeros((k, 0)) for k in shape.ks),
            tuple(np.eye(0) for _ in range(3)))
    # identity element
    s = hq.StabilizerSample((np.eye(4), np.eye(2), np.eye(2)), *free)
    assert np.array_equal(mode_apply(s.group_element(), ref), ref)
    # a diagonal block in mode 1, compensated in mode 0
    a2 = np.diag([2.0, 1.0])
    s = hq.StabilizerSample((np.kron(np.linalg.inv(a2).T, np.eye(2)), a2,
                             np.eye(2)), *free)
    assert np.abs(mode_apply(s.group_element(), ref) - ref).max() == 0.0
    # sampled leading blocks: mode 0 is the Kronecker chain of the trailing
    # modes' inverse transposes
    shape = TuckerShape((9, 4, 3, 3), (6, 3, 2, 1))
    for seed in range(10):
        s = shape.stabilizer_sample(np.random.default_rng(seed))
        assert type(s) is hq.StabilizerSample
        assert [ul.shape[0] for ul in s.leading] == list(shape.ks)
        want = reduce(np.kron, [np.linalg.inv(a).T for a in s.leading[1:]])
        assert np.array_equal(s.leading[0], want)


def test_partial_trace_identities():
    trest = (2, 2)
    assert np.array_equal(tucker_partial_trace(np.eye(4), trest, 0), 2 * np.eye(2))
    rng = np.random.default_rng(3)
    a2, a3 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    l1 = np.kron(a2.T, a3.T)
    assert np.abs(tucker_partial_trace(l1, trest, 0)
                  - np.trace(a3) * a2).max() < 1e-14
    assert np.abs(tucker_partial_trace(l1, trest, 1)
                  - np.trace(a2) * a3).max() < 1e-14


def test_m_membership():
    shape = TuckerShape((6, 4, 4), (4, 2, 2))
    rng = np.random.default_rng(4)
    x = hq.sample_m(shape, rng)
    assert tucker_m_membership(shape, x)
    # identity leading block needs (t1/ti)-scaled identities downstream
    factors = [np.zeros((n, n)) for n in shape.dims]
    factors[0][:4, :4] = np.eye(4)
    factors[1][:2, :2] = 2 * np.eye(2)
    factors[2][:2, :2] = 2 * np.eye(2)
    assert tucker_m_membership(shape, AlgebraElement(factors))
    factors[1][:2, :2] = np.eye(2)
    assert not tucker_m_membership(shape, AlgebraElement(factors))
    # violating the block pattern
    y = hq.sample_m(shape, rng)
    bad = [f.copy() for f in y.factors]
    bad[0][0, 5] = 1.0
    assert not tucker_m_membership(shape, AlgebraElement(bad))


def test_trace_condition_transport():
    # square shape: conjugation by stabilizer blocks preserves membership
    shape = TuckerShape((4, 2, 2), (4, 2, 2))
    rng = np.random.default_rng(5)
    from tensorgeo.group import adjoint
    for _ in range(10):
        h = shape.stabilizer_sample(rng).group_element()
        x = hq.sample_m(shape, rng)
        assert tucker_m_membership(shape, adjoint(h, x), tol=1e-11)


def test_uniqueness_transport():
    # the embedding is invariant under the basis-change gauge action
    # (C, G_i) -> (C x_i U_i^-1, G_i U_i)
    shape = TuckerShape((5, 3, 3), (4, 2, 2))
    rng = np.random.default_rng(6)
    core, factors = tucker_random_decomposition(shape, rng)
    us = [np.eye(t) + 0.4 * rng.standard_normal((t, t)) for t in shape.ranks]
    factors2 = [g @ u for g, u in zip(factors, us)]
    core2 = mode_product([np.linalg.inv(u) for u in us], core)
    assert rel_err(contract_tucker(core2, factors2),
                   contract_tucker(core, factors)) <= 1e-11
    p1 = tucker_point_from_decomposition(core, factors)
    p2 = tucker_point_from_decomposition(core2, factors2)
    assert rel_err(hq.embed(p2), hq.embed(p1)) <= 1e-11


def test_four_mode_shape():
    # d = 4 exercises the three-slot Kronecker coupling in mode 0
    shape = TuckerShape((9, 3, 3, 3), (8, 2, 2, 2))
    rng = np.random.default_rng(10)
    p = tucker_random_point(shape, rng)
    assert multilinear_rank(hq.embed(p)) == (8, 2, 2, 2)
    h = shape.stabilizer_sample(np.random.default_rng(0)).group_element()
    ref = shape.reference_tensor()
    assert np.abs(mode_apply(h, ref) - ref).max() <= 1e-12
    assert tucker_m_membership(shape, hq.sample_m(shape, rng))
    x = tucker_random_horizontal(p, rng)
    q = tucker_geodesic(p, x, 0.8)
    assert rel_err(hq.embed(q), dense_geodesic_embed(p, x, 0.8)) <= 1e-10
