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

def select_submatrix(m, tol=DEFAULT_RANK_TOL):
    """Row permutation making the leading r x r block of ``m[p]`` invertible.

    Greedy rook-pivoted Gaussian elimination: each step takes the largest
    remaining entry in absolute value, which is maximal in both its row and
    its column, then eliminates.  Ties resolve to the lowest row, then the
    lowest column, in the original order (a NaN counts as the largest
    entry).  The selected rows come first, in pivot order, then the other
    rows in ascending order.  Cost O(n r^2) in r whole-array passes.  Raises
    if the numerical column rank of ``m`` is below r; ``tol = 0`` accepts any
    strictly nonzero pivot.
    """
    m = np.asarray(m, dtype=float)
    n, r = m.shape
    if r > n:
        raise ValueError("more columns than rows")
    scale = float(np.abs(m).max())
    if scale == 0.0:
        raise ValueError("rank-deficient input: zero matrix")
    # c[q, i] is row i's entry in the q-th free column, the free columns in
    # their original order.  Eliminated rows are not dropped: after a finite
    # pivot the update leaves them exactly zero (all of c is finite then, as
    # the pivot is its largest entry), so they win no search a free row
    # could win, and an all-zero search fails either way.
    c = m.T.copy()
    spare = np.empty_like(c)
    selected = np.empty(r, dtype=np.intp)
    for step in range(r):
        a = np.abs(c, out=spare[:r - step])
        i = a.max(axis=0).argmax()
        j = a[:, i].argmax()
        piv = c.item(j, i)
        if abs(piv) <= tol * scale or piv == 0.0:
            raise ValueError("rank-deficient input: no acceptable pivot")
        selected[step] = i
        prow = np.concatenate((c[:j, i], c[j + 1:, i]))
        nxt = np.multiply.outer(prow, c[j] / piv, out=spare[:r - step - 1])
        np.subtract(c[:j], nxt[:j], out=nxt[:j])
        np.subtract(c[j + 1:], nxt[j:], out=nxt[j:])
        if not math.isfinite(piv):
            # 0 * inf is NaN: restore the zeros of the eliminated rows
            nxt[:, selected[:step + 1]] = 0.0
        c, spare = nxt, c
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
