"""Independent reference implementations for tests and audits.

Nothing here shares code with the production kernels beyond the dense
primitives, the block containers and a block tangent's dense lift
``homogeneous.lift_tangent``, which reads the coupling block
``group.gamma12``.
The series evaluation runs in extended precision (the platform long
double; 80-bit on x86), the dense exponential comes from SciPy, and the
tensor contractions are naive index loops.  These paths trade speed for
transparency and may be O(n^3) or worse.

The horizontal-layer references densify the n x n factors and work in the
metric's flat coordinates w = X g^-1.  They take compact points and block
tangents (the leading columns X1, n x k per mode) and return block
tangents, so they compare field by field with the closed forms in
``homogeneous``.  A block tangent's trailing columns are its leading ones
times the point's coupling block, X1 gamma12, as ``lift_tangent`` builds
them.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dense import DEFAULT_RANK_TOL
from .group import HorizontalBlocks
from .homogeneous import GRAM_COND_LIMIT, ManifoldTangent, lift_tangent


@dataclass(frozen=True)
class OracleConfig:
    series_terms: int = 60

    def __post_init__(self):
        if self.series_terms < 20:
            raise ValueError("series_terms must be at least 20")


def _require_extended():
    if np.finfo(np.longdouble).nmant <= 52:
        raise RuntimeError("platform long double offers no extra precision; "
                           "series oracle unavailable")


def psi1_series(m, cfg=None):
    """Truncated series sum_j m^j/(j+1)! in extended precision.

    Accepts a single k x k matrix or a batched (..., k, k) array; returns a
    long double array of the same shape.  Requires Frobenius norm <= 4 per
    matrix so the default 60-term tail is far below the round-off floor.
    """
    cfg = cfg or OracleConfig()
    _require_extended()
    m = np.asarray(m, dtype=np.longdouble)
    nrm = np.sqrt(np.sum(m * m, axis=(-2, -1)))
    if np.any(nrm > 4.0):
        raise ValueError("series oracle is restricted to Frobenius norm <= 4")
    k = m.shape[-1]
    eye = np.broadcast_to(np.eye(k, dtype=np.longdouble), m.shape).copy()
    # Horner in m with coefficients 1/(j+1)!
    coeffs = []
    fact = np.longdouble(1.0)
    for j in range(cfg.series_terms):
        fact = fact * np.longdouble(j + 1)
        coeffs.append(np.longdouble(1.0) / fact)
    acc = coeffs[-1] * eye
    for c in reversed(coeffs[:-1]):
        acc = acc @ m + c * eye
    return acc


def series_tail_bound(norm, terms=60):
    """Bound ||m||^N / (N+1)! on the dropped tail of the psi1 series."""
    return float(norm) ** terms / math.factorial(terms + 1)


def mexp_dense(m):
    """Dense scaling-and-squaring matrix exponential (SciPy), no structure used."""
    return scipy.linalg.expm(np.asarray(m, dtype=float))


def dense_geodesic(g, x, t=1.0):
    """Literal per-mode evaluation of mexp(w - w^T) mexp(w^T) g, w = X g^-1."""
    gf = getattr(g, "factors", g)
    xf = getattr(x, "factors", x)
    out = []
    for gi, xi in zip(gf, xf):
        w = t * np.asarray(xi) @ np.linalg.inv(np.asarray(gi))
        out.append(mexp_dense(w - w.T) @ mexp_dense(w.T) @ np.asarray(gi))
    return out


# ---------------------------------------------------------------------------
# row selection

def select_submatrix_reference(m, tol=DEFAULT_RANK_TOL):
    """Loop form of ``dense.select_submatrix``'s rule: partial-pivoting LU.

    The input is scaled by the same power of two.  Column j then takes the
    first largest |entry| among the rows not yet selected, in their current
    order, swaps that row into place and eliminates below it, one rank-one
    update per column.  Same errors under the same gate; the permutation is
    the same wherever LAPACK's blocked update rounds no tie the other way.
    O(n r^2).
    """
    m = np.asarray(m, dtype=float)
    n, r = m.shape
    if r > n:
        raise ValueError("more columns than rows")
    if not np.isfinite(m).all():
        raise ValueError("non-finite input")
    scale = np.abs(m).max()
    if scale == 0.0:
        raise ValueError("rank-deficient input: zero matrix")
    c = np.ldexp(m, -math.frexp(scale)[1])
    gate = tol * np.abs(c).max()
    order = np.arange(n)
    for j in range(r):
        i = j + int(np.argmax(np.abs(c[j:, j])))
        c[[j, i]] = c[[i, j]]
        order[[j, i]] = order[[i, j]]
        piv = c[j, j]
        if abs(piv) <= gate or abs(piv) < np.finfo(float).tiny:
            raise ValueError("rank-deficient input: no acceptable pivot")
        c[j + 1:, j + 1:] -= np.outer(c[j + 1:, j] / piv, c[j, j + 1:])
    return order


# ---------------------------------------------------------------------------
# naive contractions

def contract_cp(factors):
    """Sum of r outer products from d factor matrices, by explicit loops."""
    factors = [np.asarray(v) for v in factors]
    r = factors[0].shape[1]
    shape = tuple(v.shape[0] for v in factors)
    out = np.zeros(shape)
    for idx in np.ndindex(shape):
        s = 0.0
        for j in range(r):
            term = 1.0
            for i, ki in enumerate(idx):
                term *= factors[i][ki, j]
            s += term
        out[idx] = s
    return out


def contract_tucker(core, factors):
    """Tucker contraction of a core with d factor matrices, by explicit loops."""
    core = np.asarray(core)
    factors = [np.asarray(g) for g in factors]
    shape = tuple(g.shape[0] for g in factors)
    out = np.zeros(shape)
    for idx in np.ndindex(shape):
        s = 0.0
        for alpha in np.ndindex(core.shape):
            term = core[alpha]
            for i in range(len(shape)):
                term *= factors[i][idx[i], alpha[i]]
            s += term
        out[idx] = s
    return out


def contract_tt(cores):
    """TT contraction of 3-way cores (s_{i-1}, n_i, s_i), by explicit loops.

    Boundary cores may be passed as matrices; they are promoted to 3-way
    with unit boundary dimensions.
    """
    cs = []
    for i, c in enumerate(cores):
        c = np.asarray(c)
        if c.ndim == 2:
            c = c[None, :, :] if i == 0 else c[:, :, None]
        cs.append(c)
    shape = tuple(c.shape[1] for c in cs)
    ranks = [c.shape[0] for c in cs] + [cs[-1].shape[2]]
    out = np.zeros(shape)
    for idx in np.ndindex(shape):
        s = 0.0
        for alphas in np.ndindex(tuple(ranks[1:-1])):
            full = (0,) + alphas + (0,)
            term = 1.0
            for i in range(len(cs)):
                term *= cs[i][full[i], idx[i], full[i + 1]]
            s += term
        out[idx] = s
    return out


# ---------------------------------------------------------------------------
# the horizontal layer on dense factors

def _coupled_w_basis(shape, g_factors, g_invs):
    """Coupled vertical directions in w-coordinates: g Y g^-1 per mode."""
    basis = []
    for elem in shape.coupled_upper_basis():
        ws = []
        for i, (g, gi) in enumerate(zip(g_factors, g_invs)):
            k = shape.ks[i]
            y = elem[i]
            if y is None:
                ws.append(np.zeros_like(g))
            else:
                # y is the k x k upper-left block; embed and conjugate
                ws.append((g[:, :k] @ y) @ gi[:k, :])
        basis.append(ws)
    return basis


def project_horizontal_reference(point, z):
    """Dense orthogonal projection of an ambient tangent, O(n^3) per mode.

    Removes the free vertical sector by projecting the rows of w onto the
    column span of the leading columns (an n x n projector) and the coupled
    sector by a Gram solve of the projected n x n directions.
    """
    zf = [np.asarray(f, dtype=float) for f in getattr(z, "factors", z)]
    g_factors = [mb.densify() for mb in point.modes]
    g_invs = [np.linalg.inv(g) for g in g_factors]
    ws = [zi @ gi for zi, gi in zip(zf, g_invs)]

    spans = []
    for g, k in zip(g_factors, point.shape.ks):
        g1 = g[:, :k]
        spans.append(g1 @ np.linalg.solve(g1.T @ g1, g1.T))
    ws = [w @ p for w, p in zip(ws, spans)]

    coupled = _coupled_w_basis(point.shape, g_factors, g_invs)
    vperp = [[v @ p for v, p in zip(elem, spans)] for elem in coupled]
    m = len(vperp)
    gram = np.empty((m, m))
    rhs = np.empty(m)
    for a in range(m):
        rhs[a] = sum(np.sum(ws[i] * vperp[a][i]) for i in range(len(ws)))
        for b in range(a, m):
            gram[a, b] = gram[b, a] = sum(
                np.sum(vperp[a][i] * vperp[b][i]) for i in range(len(ws)))
    if np.linalg.cond(gram) > GRAM_COND_LIMIT:
        raise ValueError("ill-conditioned Gram system: representative is "
                         "numerically degenerate")
    coef = np.linalg.solve(gram, rhs)
    for a in range(m):
        for i in range(len(ws)):
            ws[i] = ws[i] - coef[a] * vperp[a][i]

    return ManifoldTangent(HorizontalBlocks((w @ g)[:, :mb.k][mb.perm])
                           for mb, w, g in zip(point.modes, ws, g_factors))


def horizontality_residual_reference(point, tangent):
    """Dense horizontality residual of a block tangent, O(n^3) per mode.

    The largest normalized pairing of the lifted w = X g^-1 with an
    (unprojected) coupled vertical direction, X the densified tangent.
    """
    g_factors = [mb.densify() for mb in point.modes]
    g_invs = [np.linalg.inv(g) for g in g_factors]
    ws = [xi @ gi for xi, gi in zip(lift_tangent(point, tangent).factors,
                                    g_invs)]
    res = 0.0
    scale = 1.0 + float(np.sqrt(sum(np.sum(w * w) for w in ws)))
    for elem in _coupled_w_basis(point.shape, g_factors, g_invs):
        nrm = np.sqrt(sum(np.sum(v * v) for v in elem))
        ip = sum(np.sum(w * v) for w, v in zip(ws, elem))
        res = max(res, abs(ip) / (nrm * scale))
    return res
