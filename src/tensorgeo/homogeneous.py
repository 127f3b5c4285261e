"""Shared machinery of the three fixed-rank quotient constructions.

Each manifold is a homogeneous space G/H, and only its shape object differs
between CP, Tucker and TT: the per-mode leading column counts ``ks``, a
reference tensor, an embedding of leading columns, a basis of the coupled
(cross-mode) sector of the stabilizer algebra, and the leading blocks of a
stabilizer sample.  Everything else lives here, once for all three: the one
point type ``Point`` (a coset, stored as one ``ModeBlocks`` per mode, checked
against its shape on construction), the one tangent type
``ManifoldTangent`` (one n x k array per mode) and ``check_tangent``, which
matches it to a point, the tag-to-shape function ``make_shape``, the
well-conditioned column draw ``random_columns`` behind every random point,
embeddings, the horizontal projection, geodesics, representative transport,
the one stabilizer sample type ``StabilizerSample`` (a shape's
``stabilizer_sample`` forms its leading blocks and ``stabilizer_sample``
here draws the free shear and trailing blocks), the complement's
block-pattern check ``right_blocks_vanish`` and the reductivity probes.

The stabilizer algebra at the identity splits per mode into a free sector
(arbitrary blocks in the trailing columns) and a low-dimensional coupled
sector tying the leading diagonal blocks of different modes together.  In
the metric's flat coordinates w = X g^-1 the free sector of the vertical
space at g is exactly { w : w G1 = 0 } with G1 the leading columns of g, so
its orthogonal complement is closed form; only the coupled sector needs a
small Gram solve.  This realizes the orthogonal projection exactly without
enumerating the O(n^2) free directions.

No n x n matrix is formed.  Per mode let M = G1^T G1, Z1 the leading k
columns of an ambient tangent, and y_a the k x k blocks of the m coupled
basis elements (a None block counts as 0).  Because
g^-1 G1 = [I; 0], the coupled direction is v_a = G1 y_a R with R the leading
k rows of g^-1 and R G1 = I, and the projection depends on Z1 alone:

    X1 = Z1 - G1 sum_a c_a y_a,     gram c = rhs,
    gram_ab = sum_i <y_a, M y_b M^-1>,   rhs_a = sum_i <G1^T Z1 M^-1, y_a>.

A block tangent is its leading columns X1, and its lift w = X1 M^-1 G1^T
vanishes on the orthogonal complement of span(G1), so the free-sector
conditions hold by construction.  Its residual is the projection's own
system at Z1 = X1: w = wP, P = G1 M^-1 G1^T the projector onto span(G1), so
<w, v_a> = <w, v_a P> = rhs_a and ||v_a P|| = sqrt(gram_aa):

    residual = max_a |rhs_a| / (sqrt(gram_aa) (1 + ||w||)),
    ||w||^2 = sum_i <X1^T X1, M^-1>.

v_a P = G1 y_a M^-1 G1^T reads neither g11 nor the permutation, so every
representative of a coset, re-pivoted or not, gives the same residual; and
as ||v_a P|| <= ||v_a||, it is never below the residual normalized by the
unprojected directions.  Each term is one pass over the n-row blocks or a
k x k product, so a projection or a residual costs O(nk^2 + mk^3 + m^3)
(m = (d-1)r for CP, the sum of the squared trailing ranks for Tucker and of
the squared ranks for TT).  The dense O(n^3) forms are kept in ``oracles``
as the references the tests compare against.  The projection reads the
leading k columns of each factor, so n x k columns are enough; only
``random_horizontal`` still draws n x n Gaussian factors, so every seeded
tangent stays what it was.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dense import perm_inverse
from .group import (REPIVOT_TOL, AlgebraElement, GroupElement,
                    _check_profile, adjoint, gamma12, lowrank_geodesic_step,
                    reduce_columns)

GRAM_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class Point:
    """A coset g H: one ``ModeBlocks`` per mode of its shape.

    Raises ``ValueError`` naming the mode unless there is one mode per shape
    dim and mode i's blocks are dims[i] x ks[i].
    """
    shape: object
    modes: tuple

    def __post_init__(self):
        modes = tuple(self.modes)
        dims, ks = self.shape.dims, self.shape.ks
        if len(modes) != len(dims):
            raise ValueError(f"{len(modes)} modes for a shape with "
                             f"{len(dims)} dims")
        for i, (mb, n, k) in enumerate(zip(modes, dims, ks)):
            if (mb.n, mb.k) != (n, k):
                raise ValueError(f"mode {i}: blocks are {mb.n} x {mb.k}, "
                                 f"the shape wants {n} x {k}")
        object.__setattr__(self, "modes", modes)


@dataclass(frozen=True, eq=False)
class ManifoldTangent:
    """Horizontal tangent at a compact representative: per mode, its n x k
    leading columns X1 in the representative's frame, which fix the lift.

    Each X1 is stored as a column-major float array (other input is copied
    once); each must be finite and 2-d with no more columns than rows.
    ``check_tangent`` matches a tangent to its point.
    """
    modes: tuple

    def __init__(self, modes):
        modes = tuple(np.asarray(x1, dtype=float, order="F") for x1 in modes)
        for x1 in modes:
            if x1.ndim != 2 or x1.shape[0] < x1.shape[1]:
                raise ValueError("inconsistent tangent blocks")
            if not np.isfinite(x1).all():
                raise ValueError("non-finite input")
        object.__setattr__(self, "modes", modes)

    def scale(self, s):
        return ManifoldTangent(s * x1 for x1 in self.modes)

    def norm(self):
        """Frobenius norm of the stacked leading blocks (diagnostic only)."""
        return float(np.sqrt(sum(np.sum(x1 ** 2) for x1 in self.modes)))


def make_shape(manifold, dims, ranks):
    """Shape of a manifold tag ("cp", "tucker" or "tt") with dims and ranks."""
    from .cp import CpShape
    from .tt import TtShape
    from .tucker import TuckerShape
    if manifold == "cp":
        if len(ranks) != 1:
            raise ValueError("cp shapes take a single rank")
        return CpShape(dims, ranks[0])
    if manifold == "tucker":
        return TuckerShape(dims, ranks)
    if manifold == "tt":
        return TtShape(dims, ranks)
    raise ValueError(f"unknown manifold '{manifold}'")


def _paired_modes(point, modes):
    """Enumerated (point mode, tangent mode) pairs; raises unless the counts
    match."""
    if len(modes) != len(point.modes):
        raise ValueError(f"the tangent has {len(modes)} modes, the point has "
                         f"{len(point.modes)}")
    return enumerate(zip(point.modes, modes))


def check_tangent(point, tangent):
    """Raise ``ValueError`` unless the tangent has one n x k block per mode
    of the point, naming the first mode whose block does not match."""
    for i, (mb, x1) in _paired_modes(point, tangent.modes):
        if x1.shape != (mb.n, mb.k):
            raise ValueError(f"mode {i}: tangent blocks are {x1.shape[0]} x "
                             f"{x1.shape[1]}, the point's are {mb.n} x {mb.k}")


def _ambient_columns(point, factors):
    """Leading k columns of each ambient tangent factor, in the mode's frame,
    one mode at a time.

    Each factor needs the mode's n rows and at least k columns; a
    ``ValueError`` names the first mode where it has not.
    """
    for i, (mb, f) in _paired_modes(point, getattr(factors, "factors",
                                                   factors)):
        f = np.asarray(f, dtype=float)
        if f.ndim != 2 or f.shape[0] != mb.n or f.shape[1] < mb.k:
            raise ValueError(f"mode {i}: tangent factor of shape {f.shape} at "
                             f"a mode of {mb.n} rows and {mb.k} leading "
                             "columns")
        yield f[:, :mb.k][mb.perm]


# ---------------------------------------------------------------------------
# points

def embed(point):
    """Dense tensor represented by a compact point."""
    cols = [mb.leading_columns() for mb in point.modes]
    return point.shape.embed_columns(cols)


def densify(point):
    """Ambient group element of the representative; test and oracle paths."""
    return GroupElement([mb.densify() for mb in point.modes])


def point_from_columns(shape, cols, cls=Point):
    """Compact point from ambient leading-column matrices.

    ``cls`` is the point type, ``Point`` under every name it is bound to.
    """
    ks = shape.ks
    modes = []
    for i, c in enumerate(cols):
        c = np.asarray(c, dtype=float)
        if c.shape != (shape.dims[i], ks[i]):
            raise ValueError(f"mode {i}: expected shape "
                             f"{(shape.dims[i], ks[i])}, got {c.shape}")
        s = np.linalg.svd(c, compute_uv=False)
        if s[-1] <= 1e-8 * s[0]:
            raise ValueError(f"mode {i}: leading columns are numerically "
                             "rank-deficient; the tensor lies outside the orbit")
        modes.append(reduce_columns(c))
    return cls(shape, tuple(modes))


def random_columns(n, k, rng):
    """Well-conditioned n x k columns: the orthonormal Q of a Gaussian block,
    its columns scaled by U(0.7, 1.4), so the singular values lie there."""
    q = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return q * rng.uniform(0.7, 1.4, size=k)


def lift_tangent(point, tangent):
    """Ambient dense tangent factors of a block tangent (test path).

    The permuted factor is [X1, X1 gamma12], with gamma12 the point's
    coupling block.
    """
    check_tangent(point, tangent)
    out = []
    for mb, x1 in zip(point.modes, tangent.modes):
        xhat = np.hstack([x1, x1 @ gamma12(mb)])
        out.append(xhat[perm_inverse(mb.perm)])
    return AlgebraElement(out)


def tangent_from_ambient(point, x_factors):
    """Block tangent from ambient per-mode tangent factors.

    Extracts the leading columns in the representative's frame, as
    ``project_horizontal`` reads them, without projecting: the caller is
    responsible for the input being horizontal.
    """
    return ManifoldTangent(_ambient_columns(point, x_factors))


# ---------------------------------------------------------------------------
# the horizontal layer in closed form (derivation in the module docstring)
#
# The n-row matrices of one mode share one row order: the representative's
# permuted frame, in which G1 and X1 are stored, or the ambient one; every
# pairing sums over rows, so none depends on which.

@lru_cache(maxsize=16)
def _coupled_stacks(shape):
    """Coupled basis as one (m, k_i, k_i) stack per mode; None blocks are 0.

    Cached per shape (shapes compare by value), because building the Tucker
    and TT bases costs more than a whole projection at moderate n; the
    stacks are read-only since every caller shares them.
    """
    basis = shape.coupled_upper_basis()
    stacks = []
    for i, k in enumerate(shape.ks):
        y = np.zeros((len(basis), k, k))
        for a, elem in enumerate(basis):
            if elem[i] is not None:
                y[a] = elem[i]
        y.setflags(write=False)
        stacks.append(y)
    return tuple(stacks)


def _coupled_system(ys, g1s, z1s):
    """Gram system of the coupled sector for the leading columns Z1, and M^-1.

    gram_ab = sum_i <y_a, M y_b M^-1> pairs the directions v_a P, P the
    projector onto span(G1), and rhs_a = sum_i <G1^T Z1 M^-1, y_a> pairs
    them with the free-sector projection of w = Z g^-1.  Returns gram, rhs
    and the per-mode M^-1 = (G1^T G1)^-1.
    """
    ms = [g1.T @ g1 for g1 in g1s]
    m_invs = [np.linalg.inv(m) for m in ms]
    gram = sum(y.reshape(len(y), -1) @ (m @ y @ mi).reshape(len(y), -1).T
               for y, m, mi in zip(ys, ms, m_invs))
    rhs = sum(y.reshape(len(y), -1) @ (g1.T @ z1 @ mi).ravel()
              for y, g1, z1, mi in zip(ys, g1s, z1s, m_invs))
    return gram, rhs, m_invs


def project_horizontal(point, z):
    """Orthogonal projection of an ambient tangent onto the horizontal space.

    Returns a block tangent.  Each factor has the mode's n rows and at least
    k columns, and only its leading k columns Z1 are read, so n x k columns
    are enough: since g^-1 G1 = [I; 0], the free vertical sector drops out
    exactly and the projection's leading columns are
    X1 = Z1 - G1 sum_a c_a y_a, with c the solution of the coupled m x m Gram
    system; O(nk^2 + mk^3 + m^3) in all.  Raises if the Gram system is ill
    conditioned, which signals a near-degenerate representative.
    """
    z1s = list(_ambient_columns(point, z))
    ys = _coupled_stacks(point.shape)
    g1s = [mb.g1 for mb in point.modes]
    gram, rhs, _ = _coupled_system(ys, g1s, z1s)
    if np.linalg.cond(gram) > GRAM_COND_LIMIT:
        raise ValueError("ill-conditioned Gram system: representative is "
                         "numerically degenerate")
    coef = np.linalg.solve(gram, rhs)
    x1s = [np.empty(z1.shape, order="F") for z1 in z1s]
    for x1, y, g1, z1 in zip(x1s, ys, g1s, z1s):
        np.subtract(z1, g1 @ np.tensordot(coef, y, axes=1), out=x1)
    return ManifoldTangent(x1s)


def horizontality_residual(point, tangent):
    """Normalized residual of the horizontal conditions for a block tangent.

    The largest |<w, v_a>| / (||v_a P|| (1 + ||w||)) over the coupled
    vertical directions v_a, w = X1 M^-1 G1^T the lifted tangent and P the
    projector onto span(G1), read from the projection's Gram system at
    Z1 = X1; the free-sector conditions hold structurally.  Every
    representative of the coset gives the same value, and it is never below
    the one normalized by the unprojected ||v_a||.
    """
    check_tangent(point, tangent)
    x1s = tangent.modes
    gram, rhs, m_invs = _coupled_system(_coupled_stacks(point.shape),
                                        [mb.g1 for mb in point.modes], x1s)
    w_norm = np.sqrt(sum(float(np.sum((x1.T @ x1) * mi))
                         for x1, mi in zip(x1s, m_invs)))
    return float(np.max(np.abs(rhs)
                        / (np.sqrt(np.diagonal(gram)) * (1.0 + w_norm))))


def random_horizontal(point, rng):
    """Random horizontal tangent: the projection of Gaussian n x n factors,
    drawn in mode order, so a seeded generator gives the same tangent as the
    dense projection did."""
    return project_horizontal(point, [rng.standard_normal((n, n))
                                      for n in point.shape.dims])


# ---------------------------------------------------------------------------
# geodesics and transport

def geodesic(point, tangent, t=1.0, *, repivot_tol=None):
    """Quotient geodesic through the point with the given horizontal lift.

    One low-rank update per mode; returns (new point, per-mode scaling
    exponents).  ``repivot_tol = 0`` accepts representatives conditioned
    past the production re-pivot gate (long-time completeness probes).
    """
    check_tangent(point, tangent)
    if repivot_tol is None:
        repivot_tol = REPIVOT_TOL
    new_modes = []
    zs = []
    for mb, x1 in zip(point.modes, tangent.modes):
        nb, z = lowrank_geodesic_step(mb, x1, t, repivot_tol=repivot_tol)
        new_modes.append(nb)
        zs.append(z)
    return Point(point.shape, new_modes), zs


def transport_point(point, h):
    """Representative of the coset g h: reduce the columns of g h per mode.

    The first k columns of g h are G1 h11 + E h21, where E holds the
    identity completion's unit entries, so h21's rows add into the ambient
    rows perm[k:] and no n x n factor is formed.
    """
    cols = []
    for mb, hi in zip(point.modes, getattr(h, "factors", h)):
        k = mb.k
        hi = np.asarray(hi, dtype=float)
        c = mb.leading_columns() @ hi[:k, :k]
        c[mb.perm[k:]] += hi[k:, :k]
        cols.append(c)
    return point_from_columns(point.shape, cols)


def transport_tangent(x, h):
    """Right translation of an ambient tangent by a group element."""
    _check_profile(x, h)
    return AlgebraElement([xi @ np.asarray(hi)
                           for xi, hi in zip(x.factors, getattr(h, "factors", h))])


# ---------------------------------------------------------------------------
# the invariant-complement probes

def upper_condition_matrix(shape):
    """Rows are the vec'd coupled basis; the admissible upper blocks are its null space."""
    return np.hstack([y.reshape(len(y), k * k)
                      for y, k in zip(_coupled_stacks(shape), shape.ks)])


def right_blocks_vanish(shape, factors, bound):
    """True iff every mode's upper-right and lower-right blocks (the columns
    past k) have entries at most ``bound`` in absolute value, the block
    pattern of the candidate complement."""
    for xi, k in zip(factors, shape.ks):
        right = np.asarray(xi)[:, k:]
        if right.size and np.abs(right).max() > bound:
            return False
    return True


def distance_to_m(shape, x):
    """Euclidean distance from an algebra element to the candidate complement.

    The complement fixes zero upper-right and lower-right blocks, arbitrary
    lower-left blocks, and leading blocks orthogonal to the coupled sector.
    """
    c = upper_condition_matrix(shape)
    dist2 = 0.0
    vec = []
    for i, xi in enumerate(getattr(x, "factors", x)):
        xi = np.asarray(xi)
        k = shape.ks[i]
        dist2 += float(np.sum(xi[:k, k:] ** 2) + np.sum(xi[k:, k:] ** 2))
        vec.append(xi[:k, :k].ravel())
    v = np.concatenate(vec)
    if c.shape[0]:
        coef, *_ = np.linalg.lstsq(c.T, v, rcond=None)
        dist2 += float(np.sum((c.T @ coef) ** 2))
    return float(np.sqrt(dist2))


def sample_m(shape, rng):
    """Random element of the candidate complement at the identity."""
    c = upper_condition_matrix(shape)
    sizes = [k * k for k in shape.ks]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    v = rng.standard_normal(int(offs[-1]))
    if c.shape[0]:
        coef, *_ = np.linalg.lstsq(c.T, v, rcond=None)
        v = v - c.T @ coef
    factors = []
    for i, (n, k) in enumerate(zip(shape.dims, shape.ks)):
        xi = np.zeros((n, n))
        xi[:k, :k] = v[offs[i]:offs[i + 1]].reshape(k, k)
        xi[k:, :k] = rng.standard_normal((n - k, k))
        factors.append(xi)
    return AlgebraElement(factors)


@dataclass(frozen=True, eq=False)
class StabilizerSample:
    """Blocks of one stabilizer element, one of each per mode.

    Mode i of the group element is [[leading_i, shears_i], [0, trailing_i]]:
    the manifold's leading block, a free k x (n-k) shear and an invertible
    (n-k) x (n-k) trailing block.
    """
    leading: tuple
    shears: tuple
    trailing: tuple

    def group_element(self):
        factors = []
        for ul, m, b in zip(self.leading, self.shears, self.trailing):
            k = ul.shape[0]
            n = k + b.shape[0]
            h = np.zeros((n, n))
            h[:k, :k] = ul
            h[:k, k:] = m
            h[k:, k:] = b
            factors.append(h)
        return GroupElement(factors)


def stabilizer_sample(shape, leading, rng):
    """Stabilizer sample with the given leading blocks and free blocks drawn.

    Per mode, in mode order, a Gaussian k x (n-k) shear, then an
    (n-k) x (n-k) trailing block I + 0.4 N, which is invertible for all but
    a null set of draws.
    """
    shears, trailing = [], []
    for n, k in zip(shape.dims, shape.ks):
        shears.append(rng.standard_normal((k, n - k)))
        trailing.append(np.eye(n - k) + 0.4 * rng.standard_normal((n - k, n - k)))
    return StabilizerSample(tuple(leading), tuple(shears), tuple(trailing))


def witness_element(shape, rng, scale=1.0):
    """Identity plus a shear block in the first non-square mode."""
    factors = [np.eye(n) for n in shape.dims]
    for i, (n, k) in enumerate(zip(shape.dims, shape.ks)):
        if n > k:
            factors[i][:k, k:] = scale * rng.standard_normal((k, n - k))
            break
    return GroupElement(factors)


@dataclass(frozen=True)
class ReductiveReport:
    manifold: str
    dims: tuple
    ks: tuple
    expected_reductive: bool
    trials: int
    max_invariance_residual: float
    witness_residual: float
    passed: bool


def reductive_check(shape, trials=100, seed=0):
    """Probe Ad(H)-invariance of the candidate complement.

    Square full-rank shapes must keep the complement invariant to 1e-12;
    for any other shape a witness pair with normalized residual >= 0.05 is
    produced by escalating the strength of the stabilizer's shear blocks.
    """
    rng = np.random.default_rng(seed)
    square = all(n == k for n, k in zip(shape.dims, shape.ks))
    if square:
        worst = 0.0
        for _ in range(trials):
            h = shape.stabilizer_sample(rng).group_element()
            x = sample_m(shape, rng)
            d = distance_to_m(shape, adjoint(h, x)) / x.norm()
            worst = max(worst, d)
        return ReductiveReport(shape.name, shape.dims, shape.ks, True,
                               trials, worst, 0.0, worst <= 1e-12)
    best = 0.0
    for scale in (1.0, 2.0, 4.0, 8.0, 16.0):
        for _ in range(trials):
            h = witness_element(shape, rng, scale)
            x = sample_m(shape, rng)
            d = distance_to_m(shape, adjoint(h, x)) / x.norm()
            best = max(best, d)
        if best >= 0.05:
            break
    return ReductiveReport(shape.name, shape.dims, shape.ks, False,
                           trials, 0.0, best, best >= 0.05)
