"""Independent reference implementations for tests and audits.

Nothing here shares code with the production kernels beyond the dense
primitives, the block containers, a block tangent's dense lift
``homogeneous.lift_tangent``, which reads the coupling block
``group.gamma12``, the coupled Gram system that
``vertical_component_norm`` solves on dense factors, and the tangent
shape check ``homogeneous.check_tangent``.
The series evaluation runs in extended precision (the platform long
double; 80-bit on x86), the dense exponential ``mexp_dense`` comes from
SciPy, ``mpmath_geodesic`` evaluates the dense geodesic in 60-digit mpmath
arithmetic, ``mpmath_columns`` evaluates it at 80 digits on the step's
own inputs, and the tensor contractions are naive index loops.  ``mexp_dense``
and ``dense_geodesic`` are the package's only dense exponential and dense
GL geodesic.  These paths trade speed for transparency and may be O(n^3)
or worse.

The horizontal-layer references densify the n x n factors and work in the
metric's flat coordinates w = X g^-1.  They take compact points and block
tangents (a ``ManifoldTangent``: the leading columns X1, one n x k array
per mode) and return block tangents, so they compare mode by mode with the
closed forms in ``homogeneous``.  A block tangent's trailing columns are
its leading ones times the point's coupling block, X1 gamma12, as
``lift_tangent`` builds them.
"""

import math

import numpy as np
import scipy.linalg

from .dense import DEFAULT_RANK_TOL
from .group import AlgebraElement, _check_profile
from .homogeneous import (GRAM_COND_LIMIT, ManifoldTangent, _coupled_stacks,
                          _coupled_system, check_tangent, lift_tangent)

# terms of the psi1 series; at Frobenius norm <= 4 the dropped tail is far
# below the extended-precision round-off floor (``series_tail_bound``)
SERIES_TERMS = 60


def _require_extended():
    if np.finfo(np.longdouble).nmant <= 52:
        raise RuntimeError("platform long double offers no extra precision; "
                           "series oracle unavailable")


def psi1_series(m):
    """Truncated series sum_j m^j/(j+1)! in extended precision.

    Accepts a single k x k matrix or a batched (..., k, k) array; returns a
    long double array of the same shape.  Requires Frobenius norm <= 4 per
    matrix so the SERIES_TERMS-term tail is far below the round-off floor.
    """
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
    for j in range(SERIES_TERMS):
        fact = fact * np.longdouble(j + 1)
        coeffs.append(np.longdouble(1.0) / fact)
    acc = coeffs[-1] * eye
    for c in reversed(coeffs[:-1]):
        acc = acc @ m + c * eye
    return acc


def series_tail_bound(norm, terms=SERIES_TERMS):
    """Bound ||m||^N / (N+1)! on the dropped tail of the psi1 series."""
    return float(norm) ** terms / math.factorial(terms + 1)


def mexp_dense(m):
    """Dense scaling-and-squaring matrix exponential (SciPy), no structure used."""
    return scipy.linalg.expm(np.asarray(m, dtype=float))


def dense_geodesic(g, x, t=1.0):
    """Literal per-mode evaluation of mexp(w - w^T) mexp(w^T) g, w = X g^-1."""
    gf = [np.asarray(gi, dtype=float) for gi in getattr(g, "factors", g)]
    xf = [np.asarray(xi, dtype=float) for xi in getattr(x, "factors", x)]
    _check_profile(gf, xf)
    out = []
    for gi, xi in zip(gf, xf):
        w = t * xi @ np.linalg.inv(gi)
        out.append(mexp_dense(w - w.T) @ mexp_dense(w.T) @ gi)
    return out


def mpmath_geodesic(g, x, t=1.0):
    """``dense_geodesic`` in mpmath at 60 digits, rounded to doubles; n <= 6.

    The reference the double-precision step forms are measured against
    where they lose digits to scaling or cancellation.  About 0.1 s per
    5 x 5 mode.
    """
    import mpmath
    gf = [np.asarray(gi, dtype=float) for gi in getattr(g, "factors", g)]
    xf = [np.asarray(xi, dtype=float) for xi in getattr(x, "factors", x)]
    _check_profile(gf, xf)
    if any(len(gi) > 6 for gi in gf):
        raise ValueError("the mpmath oracle takes factors of size n <= 6")
    out = []
    with mpmath.workdps(60):
        for gi, xi in zip(gf, xf):
            gm = mpmath.matrix(gi.tolist())
            w = mpmath.mpf(t) * mpmath.matrix(xi.tolist()) * gm ** -1
            step = mpmath.expm(w - w.T) * mpmath.expm(w.T) * gm
            out.append(np.array(step.tolist(), dtype=float))
    return out


def mpmath_columns(point, tangent, t=1.0):
    """Exact-input reference: each mode's new ambient leading columns.

    For a mode with leading columns G1 and tangent columns X1, both in the
    point's permuted frame, forms w = t X1 M^-1 G1^T, M = G1^T G1, in
    mpmath at 80 digits from the doubles themselves, then the dense formula
    mexp(w - w^T) mexp(w^T) G1, rounded to doubles and scattered to the
    ambient rows.  Unlike ``mpmath_geodesic`` on a densified point and a
    float64 lift, whose rounding leaves the horizontal space, it takes the
    step's own inputs exactly.  n <= 6.
    """
    import mpmath
    check_tangent(point, tangent)
    if any(mb.n > 6 for mb in point.modes):
        raise ValueError("the mpmath oracle takes factors of size n <= 6")
    out = []
    with mpmath.workdps(80):
        for mb, x1 in zip(point.modes, tangent.modes):
            g1 = mpmath.matrix(mb.g1.tolist())
            w = mpmath.mpf(t) * mpmath.matrix(x1.tolist()) \
                * (g1.T * g1) ** -1 * g1.T
            step = mpmath.expm(w - w.T) * mpmath.expm(w.T) * g1
            cols = np.empty((mb.n, mb.k))
            cols[mb.perm] = np.array(step.tolist(), dtype=float)
            out.append(cols)
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


def _dense_layer(point):
    """Per mode g, g^-1 and the n x n projector P onto span(G1), then the
    coupled directions v = g Y g^-1 and their projections v P."""
    g_factors = [mb.densify() for mb in point.modes]
    g_invs = [np.linalg.inv(g) for g in g_factors]
    spans = []
    for g, k in zip(g_factors, point.shape.ks):
        g1 = g[:, :k]
        spans.append(g1 @ np.linalg.solve(g1.T @ g1, g1.T))
    coupled = _coupled_w_basis(point.shape, g_factors, g_invs)
    vperp = [[v @ p for v, p in zip(elem, spans)] for elem in coupled]
    return g_factors, g_invs, spans, coupled, vperp


def project_horizontal_reference(point, z):
    """Dense orthogonal projection of an ambient tangent, O(n^3) per mode.

    Removes the free vertical sector by projecting the rows of w onto the
    column span of the leading columns (an n x n projector) and the coupled
    sector by a Gram solve of the projected n x n directions.
    """
    zf = [np.asarray(f, dtype=float) for f in getattr(z, "factors", z)]
    g_factors, g_invs, spans, _, vperp = _dense_layer(point)
    ws = [zi @ gi @ p for zi, gi, p in zip(zf, g_invs, spans)]
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

    return ManifoldTangent((w @ g)[:, :mb.k][mb.perm]
                           for mb, w, g in zip(point.modes, ws, g_factors))


def horizontality_residual_reference(point, tangent):
    """Dense horizontality residual of a block tangent, O(n^3) per mode.

    The largest normalized pairing of the lifted w = X g^-1 with a coupled
    vertical direction v, X the densified tangent, normalized by the
    projected direction v P, P the n x n projector onto span(G1).
    """
    _, g_invs, _, coupled, vperp = _dense_layer(point)
    ws = [xi @ gi for xi, gi in zip(lift_tangent(point, tangent).factors,
                                    g_invs)]
    res = 0.0
    scale = 1.0 + float(np.sqrt(sum(np.sum(w * w) for w in ws)))
    for elem, elem_perp in zip(coupled, vperp):
        nrm = np.sqrt(sum(np.sum(v * v) for v in elem_perp))
        ip = sum(np.sum(w * v) for w, v in zip(ws, elem))
        res = max(res, abs(ip) / (nrm * scale))
    return res


def vertical_component_norm(g_factors, shape, v_factors):
    """Norm of the vertical part of an ambient tangent at ambient factors.

    Used by the horizontality-preservation checks along dense geodesics,
    where no compact representative is available.  The free-sector part is
    ||w - wP|| itself, w = v g^-1 and P the projector onto span(G1), not a
    difference of squares, which would lose half the digits on a nearly
    horizontal velocity; the coupled part is the projection's Gram system
    on the leading columns v[:, :k].
    """
    if not len(g_factors) == len(v_factors) == shape.d:
        raise ValueError(f"{len(g_factors)} group factors and "
                         f"{len(v_factors)} velocity factors for a "
                         f"{shape.d}-mode shape")
    g_factors = [np.asarray(g, dtype=float) for g in g_factors]
    v_factors = [np.asarray(v, dtype=float) for v in v_factors]
    g1s = [g[:, :k] for g, k in zip(g_factors, shape.ks)]
    vert2 = 0.0
    for g, g1, v in zip(g_factors, g1s, v_factors):
        w = v @ np.linalg.inv(g)
        vert2 += float(np.sum((w - (w @ g1) @ np.linalg.solve(g1.T @ g1, g1.T))
                              ** 2))
    gram, rhs, _ = _coupled_system(
        _coupled_stacks(shape), g1s,
        [v[:, :k] for v, k in zip(v_factors, shape.ks)])
    coef, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    # squared norm of the coupled-sector component
    vert2 += float(coef @ gram @ coef)
    return float(np.sqrt(vert2))


def vertical_basis(point):
    """Spanning set of the vertical space at the representative.

    Ambient tangent vectors g Y, one per stabilizer-algebra basis element:
    per mode the free sector, Y a unit entry in the trailing columns, then
    the coupled sector.  Size grows like sum n_i^2, each an n x n factor
    per mode; meant for small verification runs.
    """
    gfac = [mb.densify() for mb in point.modes]
    zeros = [np.zeros_like(g) for g in gfac]
    out = []
    for i, (g, k) in enumerate(zip(gfac, point.shape.ks)):
        n = len(g)
        for p in range(n):
            for q in range(k, n):
                v = np.zeros((n, n))
                v[:, q] = g[:, p]
                out.append(AlgebraElement(zeros[:i] + [v] + zeros[i + 1:]))
    for elem in point.shape.coupled_upper_basis():
        factors = []
        for g, k, y in zip(gfac, point.shape.ks, elem):
            v = np.zeros_like(g)
            if y is not None:
                v[:, :k] = g[:, :k] @ y
            factors.append(v)
        out.append(AlgebraElement(factors))
    return out
