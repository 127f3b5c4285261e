import itertools

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from tensorgeo import dense
from tensorgeo.dense import (DEFAULT_RANK_TOL, basis_completion, mode_apply,
                             mode_product, multilinear_rank, perm_inverse,
                             refold, select_submatrix, tt_rank, unfold)
from tensorgeo.group import GroupElement
from tensorgeo.oracles import select_submatrix_reference


def test_unfold_two_entry_tensor():
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = 1.0
    t[1, 1, 1] = 1.0
    assert np.array_equal(unfold(t, 0), [[1, 0, 0, 0], [0, 0, 0, 1]])


def test_unfold_preserves_norm_and_roundtrips():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 5))
    for mode in range(3):
        m = unfold(t, mode)
        assert np.linalg.norm(m) == pytest.approx(np.linalg.norm(t), rel=0)
        assert np.array_equal(refold(m, mode, t.shape), t)


def test_unfold_rows_are_slices():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((3, 4, 5))
    m = unfold(t, 1)
    # oracle: walk every entry and place it by the row-major rule
    want = np.zeros_like(m)
    for a in range(3):
        for b in range(4):
            for c in range(5):
                want[b, a * 5 + c] = t[a, b, c]
    assert np.array_equal(m, want)
    for r in range(4):
        assert np.array_equal(m[r], t[:, r, :].ravel())


def test_unfold_mode_out_of_range():
    with pytest.raises(ValueError):
        unfold(np.zeros((2, 2, 2)), 3)


def test_multilinear_rank_basics():
    assert multilinear_rank(np.zeros((3, 3, 3))) == (0, 0, 0)
    rng = np.random.default_rng(2)
    a, b, c = rng.standard_normal(4), rng.standard_normal(3), rng.standard_normal(5)
    rank1 = np.einsum("i,j,k->ijk", a, b, c)
    assert multilinear_rank(rank1) == (1, 1, 1)


def test_multilinear_rank_of_diagonal_reference():
    t = np.zeros((3, 3, 3))
    t[0, 0, 0] = t[1, 1, 1] = 1.0
    assert multilinear_rank(t) == (2, 2, 2)


def test_tt_rank_constructed_cores():
    rng = np.random.default_rng(3)
    # cores with inner dimensions (2, 3)
    c1 = rng.standard_normal((4, 2))
    c2 = rng.standard_normal((2, 5, 3))
    c3 = rng.standard_normal((3, 4))
    t = np.einsum("ia,ajb,bk->ijk", c1, c2, c3)
    assert tt_rank(t) == (2, 3)
    rank1 = np.einsum("i,j,k->ijk", *[rng.standard_normal(3) for _ in range(3)])
    assert tt_rank(rank1) == (1, 1)


def test_mode_apply_identity_and_composition():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 4, 2))
    eye = GroupElement([np.eye(n) for n in t.shape])
    assert np.array_equal(mode_apply(eye, t), t)
    g = GroupElement([rng.standard_normal((n, n)) + 2 * np.eye(n) for n in t.shape])
    h = GroupElement([rng.standard_normal((n, n)) + 2 * np.eye(n) for n in t.shape])
    gh = GroupElement([a @ b for a, b in zip(g.factors, h.factors)])
    lhs = mode_apply(g, mode_apply(h, t))
    rhs = mode_apply(gh, t)
    assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(rhs).max()


def test_mode_apply_diagonal_scaling():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((2, 3, 2))
    ds = [np.diag(rng.uniform(0.5, 2.0, n)) for n in t.shape]
    out = mode_apply(GroupElement(ds), t)
    want = np.empty_like(t)
    for a in range(2):
        for b in range(3):
            for c in range(2):
                want[a, b, c] = t[a, b, c] * ds[0][a, a] * ds[1][b, b] * ds[2][c, c]
    assert np.abs(out - want).max() < 1e-14


def test_mode_apply_inverse_inverts():
    rng = np.random.default_rng(6)
    t = rng.standard_normal((4, 3, 3))
    g = GroupElement([rng.standard_normal((n, n)) + 2 * np.eye(n) for n in t.shape])
    ginv = GroupElement([np.linalg.inv(f) for f in g.factors])
    back = mode_apply(ginv, mode_apply(g, t))
    assert np.linalg.norm(back - t) / np.linalg.norm(t) < 1e-12


def test_mode_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        mode_apply([np.eye(2), np.eye(2), np.eye(3)], np.zeros((2, 2, 2)))


def test_mode_product_rectangular():
    rng = np.random.default_rng(7)
    core = rng.standard_normal((2, 3, 2))
    mats = [rng.standard_normal((5, 2)), rng.standard_normal((4, 3)),
            rng.standard_normal((6, 2))]
    out = mode_product(mats, core)
    want = np.einsum("ia,jb,kc,abc->ijk", *mats, core)
    assert np.abs(out - want).max() < 1e-13


# ---------------------------------------------------------------------------

def test_select_submatrix_swapped_identity():
    p = select_submatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    m = np.array([[0.0, 1.0], [1.0, 0.0]])[p]
    assert abs(np.linalg.det(m[:2])) > 0


def test_select_submatrix_keeps_dominant_leading_block():
    # worked by hand: rook pivots land on (0,0) then (1,1)
    m = np.array([[10.0, 0.0], [0.0, 9.0], [1.0, 1.0]])
    assert np.array_equal(select_submatrix(m), [0, 1, 2])


def test_select_submatrix_postcondition_random():
    rng = np.random.default_rng(8)
    for _ in range(25):
        m = rng.standard_normal((9, 4))
        p = select_submatrix(m)
        assert sorted(p) == list(range(9))
        assert abs(np.linalg.det(m[p][:4])) > 0


def test_select_submatrix_rank_deficient():
    m = np.ones((5, 2))
    with pytest.raises(ValueError):
        select_submatrix(m)


def test_select_submatrix_scaled_identity_rows_optimal():
    # rows are c * e_j^T: brute force over all r-subsets confirms greedy
    # finds a maximal-|det| selection
    rng = np.random.default_rng(9)
    for _ in range(20):
        n, r = 7, 3
        cols = np.concatenate([np.arange(r), rng.integers(0, r, n - r)])
        rng.shuffle(cols)
        scales = rng.uniform(0.1, 5.0, n) * rng.choice([-1.0, 1.0], n)
        m = np.zeros((n, r))
        m[np.arange(n), cols] = scales
        p = select_submatrix(m)
        got = abs(np.linalg.det(m[p][:r]))
        best = max(abs(np.linalg.det(m[list(rows)]))
                   for rows in itertools.combinations(range(n), r))
        assert got == pytest.approx(best, rel=1e-12)


def test_select_submatrix_deterministic():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((8, 3))
    assert np.array_equal(select_submatrix(m), select_submatrix(m.copy()))


@st.composite
def _pivot_inputs(draw):
    """Matrices rich in exact ties and rank deficiency, plus tall ones."""
    kind = draw(st.sampled_from(["random", "integer", "sign", "one_hot",
                                 "duplicated", "zero", "nonfinite", "tall"]))
    n = draw(st.integers(1, 2000 if kind == "tall" else 12))
    r = draw(st.integers(1, min(n, 16)))
    if kind in ("random", "integer", "sign"):
        elements = {"random": st.floats(-1e3, 1e3, allow_nan=False),
                    "integer": st.integers(-3, 3).map(float),
                    "sign": st.sampled_from([-1.0, 1.0])}[kind]
        return draw(hnp.arrays(float, (n, r), elements=elements))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "one_hot":
        m = np.zeros((n, r))
        m[np.arange(n), rng.integers(0, r, n)] = 1.0
        return m
    if kind == "duplicated":
        base = rng.integers(-2, 3, (n, r)).astype(float)
        return base[:, rng.integers(0, r, r)]
    if kind == "zero":
        return np.zeros((n, r))
    if kind == "nonfinite":
        m = rng.integers(-1, 2, (n, r)) * 10.0 ** rng.choice([0, 308], (n, r))
        return np.where(rng.random((n, r)) < 0.2,
                        rng.choice([np.nan, np.inf, -np.inf], (n, r)), m)
    return rng.standard_normal((n, r)) * rng.uniform(0.1, 10.0, r)


def _outcome(select, m, tol):
    try:
        with np.errstate(all="ignore"):
            return select(m, tol).tolist()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(_pivot_inputs())
def test_select_submatrix_matches_reference(m):
    for tol in (DEFAULT_RANK_TOL, 0.0):
        assert (_outcome(select_submatrix, m, tol)
                == _outcome(select_submatrix_reference, m, tol))


@settings(max_examples=200, deadline=None)
@given(_pivot_inputs())
def test_select_submatrix_ignores_the_memory_layout(m):
    # one matrix as C-ordered, F-ordered and strided views
    n, r = m.shape
    padded = np.zeros((2 * n, 3 * r))
    padded[::2, ::3] = m
    views = (np.ascontiguousarray(m), np.asfortranarray(m), padded[::2, ::3])
    for tol in (DEFAULT_RANK_TOL, 0.0):
        c_ordered, f_ordered, strided = (_outcome(select_submatrix, v, tol)
                                         for v in views)
        assert f_ordered == c_ordered
        assert strided == c_ordered


def _tie_rich_matrices(rng, n, r):
    """Inputs on which the pivot order hinges on exact ties or non-finites."""
    yield rng.standard_normal((n, r))
    yield rng.integers(-3, 4, (n, r)).astype(float)
    yield rng.choice([-1.0, 1.0], (n, r))
    one_hot = np.zeros((n, r))
    one_hot[np.arange(n), rng.integers(0, r, n)] = 1.0
    yield one_hot
    yield rng.integers(-2, 3, (n, r)).astype(float)[:, rng.integers(0, r, r)]
    big = rng.integers(-1, 2, (n, r)) * 10.0 ** rng.choice([0, 308], (n, r))
    yield np.where(rng.random((n, r)) < 0.2,
                   rng.choice([np.nan, np.inf, -np.inf], (n, r)), big)


@pytest.mark.parametrize("cols_per_call", [1, 2, 3])
def test_select_submatrix_sweep_groups_match_reference(monkeypatch,
                                                       cols_per_call):
    # a lowered cache budget makes small inputs take the sweep's grouped
    # path, as tall ones do at the real budget
    rng = np.random.default_rng(13)
    for n, r in ((1, 1), (4, 3), (7, 5), (9, 9), (30, 8), (60, 16)):
        monkeypatch.setattr(dense, "_SWEEP_ENTRIES", cols_per_call * n)
        for _ in range(6):
            for m in _tie_rich_matrices(rng, n, r):
                for tol in (DEFAULT_RANK_TOL, 0.0):
                    assert (_outcome(select_submatrix, m, tol)
                            == _outcome(select_submatrix_reference, m, tol))


def test_basis_completion_identity_columns():
    f = np.eye(5)[:, :2]
    c = basis_completion(f)
    assert np.abs(np.abs(c) - np.eye(5)[:, 2:]).max() < 1e-14


def test_basis_completion_random():
    rng = np.random.default_rng(11)
    f = rng.standard_normal((6, 2))
    c = basis_completion(f)
    assert abs(np.linalg.det(np.hstack([f, c]))) > 1e-8
    assert np.abs(f.T @ c).max() < 1e-12


def test_basis_completion_rank_deficient():
    f = np.ones((4, 2))
    with pytest.raises(ValueError):
        basis_completion(f)


def test_perm_helpers():
    rng = np.random.default_rng(12)
    p1 = rng.permutation(6)
    v = rng.standard_normal(6)
    assert np.array_equal(v[p1][perm_inverse(p1)], v)
