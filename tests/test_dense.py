import itertools
import math
import pathlib
import subprocess
import sys

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import tensorgeo
from tensorgeo.dense import (DEFAULT_RANK_TOL, identity, mode_apply,
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
    # worked by hand: column 0 pivots on row 0 (10 > 1), and column 1 of the
    # Schur complement, (9, 0.9), on row 1
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
    """(kind, matrix): rich in exact ties and rank deficiency, or tall."""
    kind = draw(st.sampled_from(["random", "integer", "sign", "one_hot",
                                 "duplicated", "zero", "nonfinite", "tall"]))
    n = draw(st.integers(1, 2000 if kind == "tall" else 12))
    r = draw(st.integers(1, min(n, 16)))
    if kind in ("random", "integer", "sign"):
        elements = {"random": st.floats(-1e3, 1e3, allow_nan=False),
                    "integer": st.integers(-3, 3).map(float),
                    "sign": st.sampled_from([-1.0, 1.0])}[kind]
        return kind, draw(hnp.arrays(float, (n, r), elements=elements))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "one_hot":
        m = np.zeros((n, r))
        m[np.arange(n), rng.integers(0, r, n)] = 1.0
        return kind, m
    if kind == "duplicated":
        base = rng.integers(-2, 3, (n, r)).astype(float)
        return kind, base[:, rng.integers(0, r, r)]
    if kind == "zero":
        return kind, np.zeros((n, r))
    if kind == "nonfinite":
        m = rng.integers(-1, 2, (n, r)) * 10.0 ** rng.choice([0, 308], (n, r))
        return kind, np.where(rng.random((n, r)) < 0.2,
                              rng.choice([np.nan, np.inf, -np.inf], (n, r)),
                              m)
    return kind, rng.standard_normal((n, r)) * rng.uniform(0.1, 10.0, r)


def _outcome(select, m, tol):
    try:
        with np.errstate(all="ignore"):
            return select(m, tol).tolist()
    except ValueError as exc:
        return str(exc)


def _assert_partial_pivoting(m, perm, tol):
    """An unpivoted LU of m[perm] meets no entry larger than its pivot.

    Every multiplier is at most 1 + 1e-12 in size, and every pivot passes
    the gate, in the same power-of-two scaling as the selection.
    """
    n, r = m.shape
    assert sorted(perm) == list(range(n))
    c = np.ldexp(m[perm], -math.frexp(np.abs(m).max())[1])
    gate = tol * np.abs(c).max()
    for j in range(r):
        piv = c[j, j]
        assert abs(piv) > gate and abs(piv) >= np.finfo(float).tiny
        lower = c[j + 1:, j] / piv
        assert np.all(np.abs(lower) <= 1.0 + 1e-12)
        c[j + 1:, j + 1:] -= np.outer(lower, c[j, j + 1:])


NO_PIVOT = "rank-deficient input: no acceptable pivot"


def _assert_agrees_with_reference(m):
    """The selection against the loop reference, where ties may round apart.

    Both raise the same error, or the selection's order has the partial
    pivoting property.  The pivots do not depend on tol, so tol = 0 returns
    the default gate's order where that succeeds.  On an input the default
    gate rejects, a pivot that is exactly zero in one rounding can be a
    rounding-level nonzero in the other, so at tol = 0 each side either
    rejects a pivot or returns a permutation.
    """
    default = _outcome(select_submatrix, m, DEFAULT_RANK_TOL)
    for tol in (DEFAULT_RANK_TOL, 0.0):
        ours = _outcome(select_submatrix, m, tol)
        ref = _outcome(select_submatrix_reference, m, tol)
        if isinstance(ours, str) and isinstance(ref, str):
            assert ours == ref
        elif isinstance(default, list):
            assert ours == default
            _assert_partial_pivoting(m, np.array(ours), tol)
        else:
            assert tol == 0.0 and default == NO_PIVOT
            for out in (ours, ref):
                assert out == NO_PIVOT or sorted(out) == list(range(len(m)))


@settings(max_examples=400, deadline=None)
@given(_pivot_inputs())
def test_select_submatrix_matches_reference(case):
    # bit-equal orders where no exact tie can arise; elsewhere the blocked
    # LU and the loop may round a tie apart (hypothesis' float arrays repeat
    # a fill value, so "random" is tie-rich too)
    kind, m = case
    if kind == "tall":
        for tol in (DEFAULT_RANK_TOL, 0.0):
            assert (_outcome(select_submatrix, m, tol)
                    == _outcome(select_submatrix_reference, m, tol))
    else:
        _assert_agrees_with_reference(m)


@settings(max_examples=200, deadline=None)
@given(_pivot_inputs())
def test_select_submatrix_ignores_the_memory_layout(case):
    # one matrix as C-ordered, F-ordered and strided views
    _, m = case
    n, r = m.shape
    padded = np.zeros((2 * n, 3 * r))
    padded[::2, ::3] = m
    views = (np.ascontiguousarray(m), np.asfortranarray(m), padded[::2, ::3])
    for tol in (DEFAULT_RANK_TOL, 0.0):
        c_ordered, f_ordered, strided = (_outcome(select_submatrix, v, tol)
                                         for v in views)
        assert f_ordered == c_ordered
        assert strided == c_ordered


@settings(max_examples=200, deadline=None)
@given(_pivot_inputs())
def test_select_submatrix_moves_only_the_swapped_rows(case):
    # r row swaps move only the first r positions and the positions the
    # selected rows came from, which is all the re-pivot writes back
    _, m = case
    p = _outcome(select_submatrix, m, 0.0)
    if isinstance(p, list):
        r = m.shape[1]
        moved = np.flatnonzero(np.array(p) != np.arange(len(p)))
        assert set(moved.tolist()) <= set(range(r)) | set(p[:r])


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


def test_select_submatrix_tie_rich_matrices_agree_with_reference():
    rng = np.random.default_rng(13)
    for n, r in ((1, 1), (4, 3), (7, 5), (9, 9), (30, 8), (60, 16)):
        for _ in range(6):
            for m in _tie_rich_matrices(rng, n, r):
                _assert_agrees_with_reference(m)


def test_select_submatrix_rejects_non_finite_input():
    # a NaN is not taken for the largest pivot: the selection says why
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(4)[:, :2].copy()
        m[3, 1] = bad
        for tol in (DEFAULT_RANK_TOL, 0.0):
            with pytest.raises(ValueError, match="^non-finite input$"):
                select_submatrix(m, tol)


def test_select_submatrix_rejects_subnormal_pivots():
    # rank one at a subnormal scale: the prescale lifts it into [1/2, 1),
    # where the second pivot is exactly zero
    d = 2.2e-309
    with pytest.raises(ValueError, match="no acceptable pivot"):
        select_submatrix(np.full((2, 2), d), 0.0)
    # a pivot that stays subnormal after the prescale is rejected at tol = 0
    # although it is nonzero
    with pytest.raises(ValueError, match="no acceptable pivot"):
        select_submatrix(np.diag([1.0, 1e-310]), 0.0)
    assert select_submatrix(np.diag([1.0, 1e-300]), 0.0).tolist() == [0, 1]
    assert select_submatrix(np.diag([d, d / 4]), 0.0).tolist() == [0, 1]


def test_import_loads_no_scipy_linalg():
    # LAPACK is imported on first use: a bare import of the package stays
    # free of scipy.linalg's import time
    src = str(pathlib.Path(tensorgeo.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tensorgeo; "
            "sys.exit('scipy.linalg' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code, src]).returncode == 0


def test_identity_is_shared_and_read_only():
    eye = identity(3)
    assert eye is identity(3) and np.array_equal(eye, np.eye(3))
    with pytest.raises(ValueError):
        eye[0, 1] = 1.0


def test_perm_helpers():
    rng = np.random.default_rng(12)
    p1 = rng.permutation(6)
    v = rng.standard_normal(6)
    assert np.array_equal(v[p1][perm_inverse(p1)], v)
