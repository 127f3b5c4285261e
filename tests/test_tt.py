import numpy as np
import pytest

import tensorgeo.homogeneous as hq
from conftest import rel_err
from tensorgeo import (TtShape, mode_apply, multilinear_rank, tt_geodesic,
                       tt_m_membership, tt_point_from_cores,
                       tt_random_horizontal, tt_random_point, tt_rank)
from tensorgeo.group import AlgebraElement, adjoint
from tensorgeo.oracles import contract_tt
from tensorgeo.tt import tt_random_cores, tt_trace_first, tt_trace_second


def test_shape_validation():
    with pytest.raises(ValueError):
        TtShape((2, 3, 2), (2, 2))      # middle mode too small for s1*s2
    with pytest.raises(ValueError):
        TtShape((2, 4, 2), (3, 2))      # s1 > n1
    TtShape((2, 4, 2), (2, 2))


def test_reference_tensor_rank_one_case():
    shape = TtShape((2, 2, 2), (1, 1))
    t = shape.reference_tensor()
    want = np.zeros((2, 2, 2))
    want[0, 0, 0] = 1.0
    assert np.array_equal(t, want)


def test_reference_tensor_ranks():
    shape = TtShape((2, 4, 2), (2, 2))
    t = shape.reference_tensor()
    assert tt_rank(t) == (2, 2)
    assert multilinear_rank(t) == (2, 4, 2)


def test_point_from_cores():
    rng = np.random.default_rng(0)
    shape = TtShape((3, 5, 3), (2, 2))
    cores = tt_random_cores(shape, rng)
    p = tt_point_from_cores(cores)
    assert rel_err(hq.embed(p), contract_tt(cores)) <= 1e-12
    # identity cores give the reference point
    q = tt_point_from_cores(shape.reference_cores())
    assert np.array_equal(hq.embed(q), shape.reference_tensor())


def test_point_from_cores_rank_deficient():
    rng = np.random.default_rng(1)
    shape = TtShape((3, 5, 3), (2, 2))
    cores = tt_random_cores(shape, rng)
    bad = np.asarray(cores[1]).copy()
    bad[:, :, 1] = bad[:, :, 0]
    with pytest.raises(ValueError):
        tt_point_from_cores([cores[0], bad, cores[2]])


def test_stabilizer_chain_structure():
    shape = TtShape((2, 4, 2), (2, 2))
    ref = shape.reference_tensor()
    free = (tuple(np.zeros((k, 0)) for k in shape.ks),
            tuple(np.eye(0) for _ in range(3)))
    # identity element
    s = hq.StabilizerSample((np.eye(2), np.eye(4), np.eye(2)), *free)
    assert np.array_equal(mode_apply(s.group_element(), ref), ref)
    # a diagonal chain matrix A_1, compensated in mode 1
    a1 = np.diag([2.0, 1.0])
    s = hq.StabilizerSample((a1, np.kron(np.linalg.inv(a1).T, np.eye(2)),
                             np.eye(2)), *free)
    assert np.abs(mode_apply(s.group_element(), ref) - ref).max() == 0.0
    # sampled leading blocks: mode i is A_{i-1}^-T (x) A_i with unit boundary
    # factors, so mode 0 is A_1 itself and the last mode A_{d-1}^-T; each
    # A_{i+1} is read off mode i's leading s_{i+1} x s_{i+1} block
    shape = TtShape((4, 7, 6, 4), (2, 3, 2))
    for seed in range(10):
        s = shape.stabilizer_sample(np.random.default_rng(seed))
        assert type(s) is hq.StabilizerSample
        assert [ul.shape[0] for ul in s.leading] == list(shape.ks)
        a = s.leading[0]
        for i, ul in enumerate(s.leading[1:-1], start=1):
            b = np.linalg.inv(a).T
            sz = shape.ranks[i]
            a = ul[:sz, :sz] / b[0, 0]
            assert rel_err(ul, np.kron(b, a)) <= 1e-12
        assert rel_err(s.leading[-1], np.linalg.inv(a).T) <= 1e-12


def test_partial_traces():
    s1, s2 = 2, 3
    assert np.array_equal(tt_trace_second(np.eye(6), s1, s2), 3 * np.eye(2))
    assert np.array_equal(tt_trace_first(np.eye(6), s1, s2), 2 * np.eye(3))
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 2)), rng.standard_normal((3, 3))
    l = np.kron(a, b)
    assert np.abs(tt_trace_first(l, s1, s2) - np.trace(a) * b).max() < 1e-14
    assert np.abs(tt_trace_second(l, s1, s2) - np.trace(b) * a.T).max() < 1e-14


def test_m_membership_chain():
    shape = TtShape((3, 5, 3), (2, 2))
    rng = np.random.default_rng(4)
    x = hq.sample_m(shape, rng)
    assert tt_m_membership(shape, x)
    # identity middle block forces s2*I and s1*I at the edges; the chain is
    # invariant under transposition there since the blocks are symmetric
    factors = [np.zeros((n, n)) for n in shape.dims]
    factors[1][:4, :4] = np.eye(4)
    factors[0][:2, :2] = 2 * np.eye(2)
    factors[2][:2, :2] = 2 * np.eye(2)
    assert tt_m_membership(shape, AlgebraElement(factors))
    # pure tensor middle block: edges are (tr b) a^T and (tr a) b^T
    a, b = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    factors = [np.zeros((n, n)) for n in shape.dims]
    factors[1][:4, :4] = np.kron(a, b)
    factors[0][:2, :2] = np.trace(b) * a.T
    factors[2][:2, :2] = np.trace(a) * b.T
    assert tt_m_membership(shape, AlgebraElement(factors))
    factors[2][:2, :2] = np.trace(a) * b
    if np.abs(b - b.T).max() > 1e-12:
        assert not tt_m_membership(shape, AlgebraElement(factors))
    # random violation
    y = hq.sample_m(shape, rng)
    bad = [f.copy() for f in y.factors]
    bad[0][0, 0] += 1.0
    assert not tt_m_membership(shape, AlgebraElement(bad))


def test_trace_chain_transport():
    shape = TtShape((2, 4, 2), (2, 2))
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = shape.stabilizer_sample(rng).group_element()
        x = hq.sample_m(shape, rng)
        assert tt_m_membership(shape, adjoint(h, x), tol=1e-11)


def test_uniqueness_transport():
    # bond gauge transformations F_i -> U_{i-1}^-1 F_i U_i leave the
    # contraction unchanged
    rng = np.random.default_rng(6)
    shape = TtShape((3, 5, 3), (2, 2))
    cores = [np.asarray(c) for c in tt_random_cores(shape, rng)]
    us = [np.eye(s) + 0.4 * rng.standard_normal((s, s)) for s in shape.ranks]
    c1 = np.einsum("anb,bc->anc", cores[0], us[0])
    c2 = np.einsum("ab,bnc,cd->and", np.linalg.inv(us[0]), cores[1], us[1])
    c3 = np.einsum("ab,bnc->anc", np.linalg.inv(us[1]), cores[2])
    assert rel_err(contract_tt([c1, c2, c3]), contract_tt(cores)) <= 1e-11
    p1 = tt_point_from_cores(cores)
    p2 = tt_point_from_cores([c1, c2, c3])
    assert rel_err(hq.embed(p2), hq.embed(p1)) <= 1e-11


def test_rank_preserved_along_geodesics():
    rng = np.random.default_rng(8)
    shape = TtShape((4, 7, 4), (2, 2))
    p = tt_random_point(shape, rng)
    x = tt_random_horizontal(p, rng).scale(0.5)
    for t in (0.5, 1.0, 5.0):
        q = tt_geodesic(p, x, t)
        assert tt_rank(hq.embed(q)) == shape.ranks


def test_four_mode_chain():
    # d = 4 exercises the middle-mode coupling
    shape = TtShape((2, 6, 6, 2), (2, 3, 2))
    assert shape.ks == (2, 6, 6, 2)
    rng = np.random.default_rng(11)
    p = tt_random_point(shape, rng)
    assert tt_rank(hq.embed(p)) == (2, 3, 2)
    x = hq.sample_m(shape, rng)
    assert tt_m_membership(shape, x)
    h = shape.stabilizer_sample(np.random.default_rng(1)).group_element()
    ref = shape.reference_tensor()
    assert np.abs(mode_apply(h, ref) - ref).max() <= 1e-12
