"""Dense tensor and matrix primitives.

Tensors are plain C-ordered (row-major) ``numpy.ndarray`` objects with
``ndim >= 3``; matrices are 2-d arrays.  Mode indices are 0-based throughout
the Python API.  The mode-i unfolding puts mode i on the rows and enumerates
the remaining modes in their original order, row-major, on the columns; this
convention is fixed so that tests and serialized data are reproducible.

Permutations are int arrays ``p`` acting on rows as ``(P m)[i] = m[p[i]]``,
so ``m[p]`` applies the permutation and ``p`` is its own description.
"""

import functools
import math

import numpy as np

DEFAULT_RANK_TOL = 1e-10
_TINY = np.finfo(float).tiny


@functools.cache
def lapack():
    """``scipy.linalg.lapack``, imported on first use.

    ``import tensorgeo`` stays free of scipy.linalg's import time; after the
    first call a LAPACK routine is one attribute read away.
    """
    from scipy.linalg import lapack
    return lapack


def lu_solve(a, b):
    """a^-1 b by ``dgesv``, the LU solve np.linalg.solve calls, without its
    wrapper's cost; a zero pivot raises numpy's "Singular matrix"."""
    _, _, x, info = lapack().dgesv(a, b)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return x


@functools.lru_cache(maxsize=64)
def identity(k):
    """The k x k identity, read-only and shared by every caller."""
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


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

def is_permutation(p):
    p = np.asarray(p)
    return p.ndim == 1 and np.array_equal(np.sort(p), np.arange(len(p)))


# ---------------------------------------------------------------------------
# representative selection

def select_submatrix(m, tol=DEFAULT_RANK_TOL):
    """Row permutation making the leading r x r block of ``m[p]`` invertible.

    Gaussian elimination with partial pivoting, by LAPACK's ``dgetrf``: step
    j takes, in column j of the current Schur complement, the largest
    |entry| among the rows not yet selected, the first in the current row
    order on a tie (a tie that rounding creates resolves as the blocked
    update rounds it), and swaps that row into position j.  The selected
    rows come first, in pivot order, then the other rows as the r swaps
    leave them: a row displaced from position j takes the place of the row
    that replaced it.  So only the positions below r and the selected rows'
    own positions differ from the identity.

    Raises if the numerical column rank of ``m`` is below r: a pivot is
    rejected when it is at most ``tol`` times the largest |entry| of ``m``;
    ``tol = 0`` accepts any pivot that is neither zero nor subnormal once the
    input is scaled into [1/2, 1).  Non-finite entries raise their own
    error.  O(n r^2); the n x r column-major copy that LU overwrites is the
    only n-sized workspace.
    """
    m = np.asarray(m, dtype=float)
    n, r = m.shape
    if r > n:
        raise ValueError("more columns than rows")
    hi, lo = float(m.max()), float(m.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError("non-finite input")
    scale = max(hi, -lo)
    if scale == 0.0:
        raise ValueError("rank-deficient input: zero matrix")
    # an exact power of two brings the largest |entry| into [1/2, 1), so
    # the gate reads the same pivots at any input scale, and a subnormal
    # pivot, which dgetrf may leave unfactored, means numerical rank loss
    e = math.frexp(scale)[1]
    lu = np.empty((n, r), order="F")
    np.ldexp(m, -e, out=lu)
    lu, swaps, _ = lapack().dgetrf(lu, overwrite_a=1)
    pivot = float(np.abs(lu.diagonal()).min())
    if pivot <= tol * math.ldexp(scale, -e) or not pivot >= _TINY:
        raise ValueError("rank-deficient input: no acceptable pivot")
    p = np.arange(n)
    for j, i in enumerate(swaps.tolist()):
        p[j], p[i] = p[i], p[j]
    return p
