"""Dense tensor and matrix primitives.

Tensors are plain C-ordered (row-major) ``numpy.ndarray`` objects with
``ndim >= 3``; matrices are 2-d arrays.  Mode indices are 0-based throughout
the Python API.  The mode-i unfolding puts mode i on the rows and enumerates
the remaining modes in their original order, row-major, on the columns; this
convention is fixed so that tests and serialized data are reproducible.

Permutations are int arrays ``p`` acting on rows as ``(P m)[i] = m[p[i]]``,
so ``m[p]`` applies the permutation and ``p`` is its own description.
"""

import math

import numpy as np

DEFAULT_RANK_TOL = 1e-10


# ---------------------------------------------------------------------------
# unfoldings and ranks

def unfold(t, mode):
    """Mode unfolding: n_mode rows, remaining modes row-major on columns."""
    t = np.asarray(t)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for a {t.ndim}-way tensor")
    return np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1)


def refold(m, mode, shape):
    """Inverse of :func:`unfold`; bit-identical round trip."""
    shape = tuple(shape)
    rest = shape[:mode] + shape[mode + 1:]
    return np.moveaxis(np.asarray(m).reshape((shape[mode],) + rest), 0, mode)


def _numerical_rank(m, tol):
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def multilinear_rank(t, tol=DEFAULT_RANK_TOL):
    """Tuple of numerical ranks of all mode unfoldings."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    t = np.asarray(t)
    return tuple(_numerical_rank(unfold(t, i), tol) for i in range(t.ndim))


def tt_rank(t, tol=DEFAULT_RANK_TOL):
    """Tuple of numerical ranks of the d-1 sequential split flattenings."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    t = np.asarray(t)
    ranks = []
    for i in range(1, t.ndim):
        left = int(np.prod(t.shape[:i]))
        ranks.append(_numerical_rank(t.reshape(left, -1), tol))
    return tuple(ranks)


# ---------------------------------------------------------------------------
# the mode-wise group action

def mode_product(mats, t):
    """Multiply ``t`` by the (possibly rectangular) matrix ``mats[i]`` in mode i.

    ``mats[i]`` has shape (m_i, n_i) against a tensor with n_i in mode i.
    """
    out = np.asarray(t)
    for i, a in enumerate(mats):
        out = np.moveaxis(np.tensordot(np.asarray(a), out, axes=([1], [i])), 0, i)
    return out


def mode_apply(g, t):
    """Action of a tuple of square invertible matrices on a dense tensor."""
    t = np.asarray(t)
    factors = getattr(g, "factors", g)
    if len(factors) != t.ndim:
        raise ValueError("group element order does not match tensor order")
    for i, a in enumerate(factors):
        a = np.asarray(a)
        if a.shape != (t.shape[i], t.shape[i]):
            raise ValueError(f"factor {i} has shape {a.shape}, expected "
                             f"({t.shape[i]}, {t.shape[i]})")
    return mode_product(factors, t)


# ---------------------------------------------------------------------------
# permutations

def perm_inverse(p):
    p = np.asarray(p)
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p))
    return inv

def is_permutation(p):
    p = np.asarray(p)
    return p.ndim == 1 and np.array_equal(np.sort(p), np.arange(len(p)))


# ---------------------------------------------------------------------------
# representative selection

# Budget of one numpy call of the pivot sweep, in float64 entries: each call
# updates max(1, _SWEEP_ENTRIES // n) free columns, so a tall block is swept
# one core-cache-resident column at a time while a short one takes all its
# free columns in one call.
_SWEEP_ENTRIES = 1 << 15


def _fold_row_max(a, rowmax, first):
    """Fold the row maxima of the |entries| ``a`` (g x n) into rowmax.

    ``first`` starts the fold afresh.  NaN propagates, so a row holding one
    reads NaN, which the pivot search takes as the largest entry.
    """
    if first:
        np.maximum.reduce(a, 0, None, rowmax)
    else:
        np.maximum(rowmax, a[0] if len(a) == 1 else np.maximum.reduce(a),
                   out=rowmax)


def select_submatrix(m, tol=DEFAULT_RANK_TOL):
    """Row permutation making the leading r x r block of ``m[p]`` invertible.

    Gaussian elimination with complete pivoting: each step takes the largest
    remaining entry in absolute value over all free rows and columns, then
    eliminates its column.  Ties resolve to the lowest row, then the lowest
    column, in the original order (a NaN counts as the largest entry).  The
    selected rows come first, in pivot order, then the other rows in
    ascending order.  Raises if the numerical column rank of ``m`` is below
    r; ``tol = 0`` accepts any strictly nonzero pivot.

    The free columns are held as rows, contiguous for a column-major input:
    the input's transpose at first, then one new array, which the first
    step writes and the later ones update in place.  The sweep that updates
    them also folds every row's largest |entry| into an n-vector, which the
    next pivot search reads; the tolerance is relative to the largest of
    the first sweep's row maxima.  One numpy call of a sweep covers
    max(1, B // n) columns for a fixed budget of B entries, so at large n
    each column is updated, measured and folded while it sits in the core's
    cache, and at small n a step is one call per operation.  Each Schur
    entry is rounded as c - (x / piv) * y.  O(n r^2) in all.
    """
    m = np.asarray(m, dtype=float)
    n, r = m.shape
    if r > n:
        raise ValueError("more columns than rows")
    # c[q, i] is row i's entry in the q-th free column, the free columns in
    # their original order: the input itself until the first step writes
    # the remaining ones into a new array, which later steps update in
    # place.  Eliminated rows are not dropped: after a finite pivot the
    # update leaves them exactly zero (all of c is finite then, as the pivot
    # is its largest entry), so they win no search a free row could win,
    # and an all-zero search fails either way.
    c = m.T
    g = max(1, _SWEEP_ENTRIES // max(n, 1))
    work = np.empty((min(g, r), n))
    rowmax = np.empty(n)
    # r = 0 folds one empty block, which raises numpy's zero-size error
    for p in range(0, max(r, 1), g):
        _fold_row_max(np.abs(c[p:p + g], work[:min(g, r - p)]), rowmax,
                      p == 0)
    scale = float(rowmax.max())
    if scale == 0.0:
        raise ValueError("rank-deficient input: zero matrix")
    t = np.empty(n)
    selected = np.empty(r, dtype=np.intp)
    for step in range(r):
        f = r - step - 1                         # free columns after the step
        i = rowmax.argmax()
        # a step whose free columns took one call finds them measured in work
        j = (work[:f + 1, i] if g > f else np.abs(c[:f + 1, i])).argmax()
        piv = c.item(j, i)
        if abs(piv) <= tol * scale or piv == 0.0:
            raise ValueError("rank-deficient input: no acceptable pivot")
        selected[step] = i
        y = np.concatenate((c[:j, i], c[j + 1:f + 1, i]))
        np.divide(c[j], piv, t)
        # the first step's output has a spare row, so that once freed it can
        # hold an n x r array, such as the re-pivot's gather that follows
        out = np.empty((r, n))[:f] if step == 0 else c
        # the columns past j move up one place as they are updated, so the
        # free columns stay contiguous and in their original order
        for p in range(0, f, g):
            e = p + g if p + g < f else f
            q = p if j < p else (e if j > e else j)      # j clamped to [p, e]
            tmp = np.multiply(y[p:e, None], t, work[:e - p])
            np.subtract(c[p:q], tmp[:q - p], out[p:q])
            np.subtract(c[q + 1:e + 1], tmp[q - p:], out[q:e])
            _fold_row_max(np.abs(out[p:e], tmp), rowmax, p == 0)
        c = out
        if not math.isfinite(piv):
            # 0 * inf is NaN: restore the zeros of the eliminated rows; their
            # stale measurements in work matter only to a search that lands
            # on one of them, which happens only when every free entry is
            # zero, so that search fails whichever column it picks
            c[:, selected[:step + 1]] = 0.0
            rowmax[selected[:step + 1]] = 0.0
    free = np.ones(n, dtype=bool)
    free[selected] = False
    return np.concatenate((selected, np.flatnonzero(free)))


def basis_completion(f, tol=DEFAULT_RANK_TOL):
    """Orthonormal completion of the column space of a full-rank n x k matrix.

    The returned n x (n-k) block is orthogonal to the columns of ``f`` and
    together with them spans R^n.
    """
    import scipy.linalg
    f = np.asarray(f, dtype=float)
    n, k = f.shape
    if k > n:
        raise ValueError("more columns than rows")
    q, r = scipy.linalg.qr(f, mode="full")
    diag = np.abs(np.diag(r)[:k])
    if diag.size == 0 or diag.max() == 0 or diag.min() <= tol * diag.max():
        raise ValueError("rank-deficient input")
    return q[:, k:]
