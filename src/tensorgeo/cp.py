"""The manifold of tensors with fixed CP rank and maximal multilinear rank.

Points are cosets of the mode-wise group action on the diagonal reference
tensor sum_j e_j x ... x e_j, stored as ``homogeneous.Point`` (per mode a
permutation and the n x r array of its permuted leading r columns); the
stabilizer consists of block upper-triangular elements whose leading blocks
are a shared permutation times diagonals with product one.  What stays here
is what differs from Tucker and TT: the shape (ks, reference tensor,
embedding, coupled basis) and the leading blocks of a stabilizer sample.
``CpPoint`` and ``CpTangent`` are names for ``homogeneous.Point`` and
``homogeneous.ManifoldTangent``.

Horizontal tangents carry leading columns X1 (n x r) coupled across modes:
the diagonal responses c = diag(G1^T X1 M^-1), M = G1^T G1, of
``homogeneous.horizontality_residual`` must agree in every mode.  At the
identity representative this is literally "equal diagonals of x11".
"""

from dataclasses import dataclass

import numpy as np

from . import homogeneous as hq
from .flops import geodesic_formula

__all__ = [
    "CpShape", "CpPoint", "CpTangent", "CpStabilizerSample",
    "cp_reference_tensor", "cp_point_from_factors", "cp_embed",
    "cp_stabilizer_sample", "cp_vertical_basis", "cp_project_horizontal",
    "cp_is_horizontal", "cp_geodesic", "cp_flop_formula",
    "cp_reductive_check", "cp_random_point", "cp_random_horizontal",
]


@dataclass(frozen=True)
class CpShape:
    """Mode sizes and CP rank; requires r <= n_i so factors can be independent."""
    dims: tuple
    r: int

    def __init__(self, dims, r):
        dims = tuple(int(n) for n in dims)
        r = int(r)
        if len(dims) < 3:
            raise ValueError("at least three modes are required")
        if any(n < 2 for n in dims):
            raise ValueError("every mode size must be at least 2")
        if r < 1 or any(r > n for n in dims):
            raise ValueError("rank must satisfy 1 <= r <= min(dims)")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "r", r)

    name = "cp"

    @property
    def ks(self):
        return (self.r,) * len(self.dims)

    @property
    def d(self):
        return len(self.dims)

    def manifold_dimension(self):
        return sum(self.dims) * self.r - (self.d - 1) * self.r

    def reference_tensor(self):
        t = np.zeros(self.dims)
        for j in range(self.r):
            t[(j,) * self.d] = 1.0
        return t

    def embed_columns(self, cols):
        """Sum of r outer products of the leading columns.

        One GEMM: the first mode's columns times the row-wise Khatri-Rao
        product of the others, so nothing larger than the result is formed.
        """
        cols = [np.asarray(c) for c in cols]
        kr = cols[1]
        for v in cols[2:]:
            kr = (kr[:, None, :] * v).reshape(-1, kr.shape[1])
        return (cols[0] @ kr.T).reshape([c.shape[0] for c in cols])

    def coupled_upper_basis(self):
        """Diagonal directions of the stabilizer algebra: mode i vs mode 0."""
        out = []
        for i in range(1, self.d):
            for j in range(self.r):
                elem = [None] * self.d
                e = np.zeros((self.r, self.r))
                e[j, j] = 1.0
                elem[i] = e
                elem[0] = -e
                out.append(tuple(elem))
        return out

    def stabilizer_sample(self, rng):
        return _sample_stabilizer(self, rng)


CpPoint = hq.Point
CpTangent = hq.ManifoldTangent


@dataclass(frozen=True, eq=False)
class CpStabilizerSample:
    """Blocks of one stabilizer element: shared permutation, diagonals with
    product one (signed powers of two, so the constraint is float-exact),
    arbitrary shear blocks and invertible trailing blocks."""
    diagonals: tuple
    q: np.ndarray
    shears: tuple
    trailing: tuple

    def group_element(self):
        qmat = np.eye(len(self.q))[self.q]
        return hq.stabilizer_element(
            [np.diag(dvec) @ qmat for dvec in self.diagonals], self.shears,
            self.trailing)


def _sample_stabilizer(shape, rng):
    d, r = shape.d, shape.r
    diags = []
    for _ in range(d - 1):
        mag = 2.0 ** rng.integers(-2, 3, size=r)
        diags.append(rng.choice([-1.0, 1.0], size=r) * mag)
    last = 1.0 / np.prod(diags, axis=0)
    diags.append(last)
    q = rng.permutation(r)
    return CpStabilizerSample(tuple(diags), q,
                              *hq.free_stabilizer_blocks(shape, rng))


# ---------------------------------------------------------------------------

def cp_reference_tensor(shape):
    """Diagonal tensor with r unit entries."""
    return shape.reference_tensor()


def cp_point_from_factors(factors):
    """Point whose embedding is the CP sum of the given factor columns.

    Each factor must be n_i x r with numerical condition below 1e8;
    anything worse lies (numerically) outside the open orbit.
    """
    factors = [np.asarray(v, dtype=float) for v in factors]
    r = factors[0].shape[1]
    shape = CpShape(tuple(v.shape[0] for v in factors), r)
    return hq.point_from_columns(shape, factors)


def cp_embed(p):
    return hq.embed(p)


def cp_stabilizer_sample(shape, seed=0):
    """Deterministic-in-seed stabilizer element; fixes the reference tensor."""
    return _sample_stabilizer(shape, np.random.default_rng(seed))


def cp_vertical_basis(p):
    """Spanning set of the vertical space at the representative."""
    return hq.vertical_basis(p)


def cp_project_horizontal(p, z):
    """Orthogonal projection of an ambient tangent onto the horizontal space."""
    return hq.project_horizontal(p, z)


def cp_is_horizontal(p, x, tol=1e-9):
    """Horizontality check for a block tangent: the closed-form
    ``homogeneous.horizontality_residual`` is at most tol."""
    return hq.horizontality_residual(p, x) <= tol


def cp_geodesic(p, x, t=1.0, ledger=None):
    """Canonical-metric geodesic from p with horizontal lift x, at time t."""
    q, _ = hq.geodesic(p, x, t, ledger)
    return q


def cp_flop_formula(shape, zs):
    """Exact leading-term cost of one geodesic evaluation (z_i >= 1)."""
    return geodesic_formula(shape.dims, shape.ks, zs)


def cp_reductive_check(shape, trials=100, seed=0):
    return hq.reductive_check(shape, trials, seed)


def cp_random_point(shape, rng):
    """Well-conditioned random point: orthonormal factors with scaled columns."""
    factors = []
    for n in shape.dims:
        q = np.linalg.qr(rng.standard_normal((n, shape.r)))[0]
        factors.append(q * rng.uniform(0.7, 1.4, size=shape.r))
    return cp_point_from_factors(factors)


def cp_random_horizontal(p, rng, scale=1.0):
    return hq.random_horizontal(p, rng, scale)
