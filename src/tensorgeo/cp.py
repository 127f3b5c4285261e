"""The manifold of tensors with fixed CP rank and maximal multilinear rank.

Points are cosets of the mode-wise group action on the diagonal reference
tensor sum_j e_j x ... x e_j, stored as ``homogeneous.Point`` (per mode a
permutation and the n x r array of its permuted leading r columns); the
stabilizer consists of block upper-triangular elements whose leading blocks
are diagonals with product one times a shared permutation.  What stays here
is what differs from Tucker and TT: the shape (ks, reference tensor,
embedding, coupled basis, and the leading blocks of a stabilizer sample,
which ``homogeneous.stabilizer_sample`` completes into the shared
``homogeneous.StabilizerSample``), points from factors and random points.
Every shared operation is called on ``homogeneous`` directly:
``hq.embed(p)``, ``hq.project_horizontal(p, z)``,
``hq.horizontality_residual(p, x)``, ``hq.reductive_check(shape)``.
``cp_geodesic`` and ``cp_random_horizontal`` remain as the names the
benchmark's workloads bind; they call ``homogeneous`` through the module,
so a profiler that patches it sees them.  ``CpPoint`` and ``CpTangent`` are
names for ``homogeneous.Point`` and ``homogeneous.ManifoldTangent``.

Horizontal tangents carry leading columns X1 (n x r) coupled across modes:
the diagonal responses c = diag(G1^T X1 M^-1), M = G1^T G1, of
``homogeneous.horizontality_residual`` must agree in every mode.  At the
identity representative this is literally "equal diagonals of x11".
"""

from dataclasses import dataclass

import numpy as np

from . import homogeneous as hq

__all__ = [
    "CpShape", "CpPoint", "CpTangent", "cp_point_from_factors",
    "cp_geodesic", "cp_random_point", "cp_random_horizontal",
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
        """Diagonal tensor with r unit entries."""
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
        """Stabilizer sample whose mode-i leading block is diag(d_i) Q.

        One permutation Q is shared by every mode, and the diagonals' product
        is one: signed powers of two, so the constraint is float-exact.
        """
        diags = []
        for _ in range(self.d - 1):
            mag = 2.0 ** rng.integers(-2, 3, size=self.r)
            diags.append(rng.choice([-1.0, 1.0], size=self.r) * mag)
        diags.append(1.0 / np.prod(diags, axis=0))
        qmat = np.eye(self.r)[rng.permutation(self.r)]
        return hq.stabilizer_sample(
            self, [np.diag(dvec) @ qmat for dvec in diags], rng)


CpPoint = hq.Point
CpTangent = hq.ManifoldTangent


# ---------------------------------------------------------------------------

def cp_point_from_factors(factors):
    """Point whose embedding is the CP sum of the given factor columns.

    Each factor must be n_i x r with numerical condition below 1e8;
    anything worse lies (numerically) outside the open orbit.
    """
    factors = [np.asarray(v, dtype=float) for v in factors]
    r = factors[0].shape[1]
    shape = CpShape(tuple(v.shape[0] for v in factors), r)
    return hq.point_from_columns(shape, factors)


def cp_geodesic(p, x, t=1.0):
    """Canonical-metric geodesic from p with horizontal lift x, at time t."""
    q, _ = hq.geodesic(p, x, t)
    return q


def cp_random_point(shape, rng):
    """Well-conditioned random point: orthonormal factors with scaled columns."""
    return cp_point_from_factors([hq.random_columns(n, shape.r, rng)
                                  for n in shape.dims])


def cp_random_horizontal(p, rng):
    return hq.random_horizontal(p, rng)
