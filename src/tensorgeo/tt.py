"""The manifold of tensors with fixed TT rank and maximal multilinear rank.

Cores are stored through the leading columns of each mode: mode i keeps its
first s_{i-1} s_i columns, with the column pair (alpha_{i-1}, alpha_i)
enumerated row-major.  The reference point has identity core unfoldings.
The stabilizer chains the modes together: consecutive leading blocks are
A_{i-1}^-T (x) A_i with boundary factors equal to 1, and the complement's
leading blocks satisfy a chain of partial-trace conditions.

One deliberate correction to the source derivation: orthogonality of the
complement to the stabilizer algebra forces the last chain condition to be
tr1 L_{d-1} = L_d^T (transposed); the untransposed variant is not
Ad-invariant even for square shapes, which the reductivity suite checks.

Points and tangents are ``homogeneous.Point`` and
``homogeneous.ManifoldTangent`` (``TtPoint`` and ``TtTangent`` name them),
and a stabilizer sample is ``homogeneous.StabilizerSample``; what stays here
is the shape, the core layout of the leading columns, the stabilizer's chain
of leading blocks, points from cores, random points and the chain membership
test.  Embedding, projection, residual and the reductivity probe are
``homogeneous``'s; ``tt_geodesic`` and ``tt_random_horizontal`` remain as the
names the benchmark's workloads bind.
"""

from dataclasses import dataclass

import numpy as np

from . import homogeneous as hq

__all__ = [
    "TtShape", "TtPoint", "TtTangent", "tt_point_from_cores",
    "tt_trace_first", "tt_trace_second", "tt_m_membership", "tt_geodesic",
    "tt_random_cores", "tt_random_point", "tt_random_horizontal",
]


def tt_trace_first(l, a, b):
    """Partial trace over the first slot: tr1(A x B) = (tr A) B."""
    return np.trace(np.asarray(l).reshape(a, b, a, b), axis1=0, axis2=2)


def tt_trace_second(l, a, b):
    """Transposed partial trace over the second slot: tr2(A x B) = (tr B) A^T."""
    return np.trace(np.asarray(l).reshape(a, b, a, b), axis1=1, axis2=3).T


@dataclass(frozen=True)
class TtShape:
    dims: tuple
    ranks: tuple   # (s_1, ..., s_{d-1}); boundary s_0 = s_d = 1 implied

    def __init__(self, dims, ranks):
        dims = tuple(int(n) for n in dims)
        ranks = tuple(int(s) for s in ranks)
        if len(dims) < 3 or len(ranks) != len(dims) - 1:
            raise ValueError("need d >= 3 dims and d-1 ranks")
        if any(n < 2 for n in dims) or any(s < 1 for s in ranks):
            raise ValueError("mode sizes must be >= 2 and ranks >= 1")
        sfull = (1,) + ranks + (1,)
        for i, n in enumerate(dims):
            if sfull[i] * sfull[i + 1] > n:
                raise ValueError(f"mode {i}: rank product "
                                 f"{sfull[i] * sfull[i + 1]} exceeds size {n}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "ranks", ranks)

    name = "tt"

    @property
    def d(self):
        return len(self.dims)

    @property
    def sfull(self):
        return (1,) + self.ranks + (1,)

    @property
    def ks(self):
        s = self.sfull
        return tuple(s[i] * s[i + 1] for i in range(self.d))

    def reference_cores(self):
        """Cores whose mode unfoldings are truncated identities."""
        cores = []
        s = self.sfull
        for i, n in enumerate(self.dims):
            k = s[i] * s[i + 1]
            u = np.vstack([np.eye(k), np.zeros((n - k, k))])
            cores.append(u.reshape(n, s[i], s[i + 1]).transpose(1, 0, 2))
        return cores

    def reference_tensor(self):
        return _contract_cores(self.reference_cores())

    def cores_from_columns(self, cols):
        s = self.sfull
        return [np.asarray(c).reshape(self.dims[i], s[i], s[i + 1]).transpose(1, 0, 2)
                for i, c in enumerate(cols)]

    def embed_columns(self, cols):
        return _contract_cores(self.cores_from_columns(cols))

    def coupled_upper_basis(self):
        """Chain directions: +I_{s_{j}} x E in mode j, -E^T x I in mode j+1.

        Boundary rank-1 factors make the first and last modes plain E and
        -E^T blocks.
        """
        out = []
        s = self.sfull
        for j in range(self.d - 1):
            sz = self.ranks[j]
            for p in range(sz):
                for q in range(sz):
                    e = np.zeros((sz, sz))
                    e[p, q] = 1.0
                    elem = [None] * self.d
                    elem[j] = np.kron(np.eye(s[j]), e)
                    elem[j + 1] = -np.kron(e.T, np.eye(s[j + 2]))
                    out.append(tuple(elem))
        return out

    def stabilizer_sample(self, rng):
        """Stabilizer sample from chain matrices A_j = I + 0.4 N: mode i's
        leading block is A_{i-1}^-T (x) A_i with unit boundary factors."""
        mats = ([np.eye(1)]
                + [np.eye(s) + 0.4 * rng.standard_normal((s, s))
                   for s in self.ranks]
                + [np.eye(1)])
        leading = [np.kron(np.linalg.inv(a).T, b)
                   for a, b in zip(mats[:-1], mats[1:])]
        return hq.stabilizer_sample(self, leading, rng)


def _contract_cores(cores):
    out = cores[0]
    for c in cores[1:]:
        out = np.tensordot(out, c, axes=([-1], [0]))
    return out.reshape(out.shape[1:-1])


TtPoint = hq.Point
TtTangent = hq.ManifoldTangent


# ---------------------------------------------------------------------------

def tt_point_from_cores(cores):
    """Point embedding to the TT contraction of the given cores.

    Cores are (s_{i-1}, n_i, s_i) arrays; boundary cores may be matrices.
    Every mode unfolding must have full column rank.
    """
    cs = []
    for i, c in enumerate(cores):
        c = np.asarray(c, dtype=float)
        if c.ndim == 2:
            c = c[None, :, :] if i == 0 else c[:, :, None]
        cs.append(c)
    dims = tuple(c.shape[1] for c in cs)
    ranks = tuple(c.shape[2] for c in cs[:-1])
    shape = TtShape(dims, ranks)
    cols = [c.transpose(1, 0, 2).reshape(dims[i], -1) for i, c in enumerate(cs)]
    return hq.point_from_columns(shape, cols)


def tt_m_membership(shape, x, tol=1e-10):
    """Block pattern plus the chain of partial-trace conditions.

    L_1 = tr2 L_2, tr1 L_{i-1} = tr2 L_i for the middle modes, and
    tr1 L_{d-1} = L_d^T at the right boundary.
    """
    factors = [np.asarray(f) for f in getattr(x, "factors", x)]
    scale = 1.0 + max(float(np.abs(f).max()) for f in factors)
    if not hq.right_blocks_vanish(shape, factors, tol * scale):
        return False
    s = shape.sfull
    ls = [factors[i][: shape.ks[i], : shape.ks[i]] for i in range(shape.d)]
    # uniform chain over the unit boundary ranks; at the right edge it reads
    # tr1 L_{d-1} = L_d^T, the form orthogonality to the stabilizer algebra
    # actually produces
    for j in range(shape.d - 1):
        lhs = tt_trace_first(ls[j], s[j], s[j + 1])
        rhs = tt_trace_second(ls[j + 1], s[j + 1], s[j + 2])
        if np.abs(lhs - rhs).max() > tol * scale:
            return False
    return True


def tt_geodesic(p, x, t=1.0):
    q, _ = hq.geodesic(p, x, t)
    return q


def tt_random_cores(shape, rng):
    """Random cores with orthonormal-ish full-rank unfoldings."""
    cores = []
    s = shape.sfull
    for i, (n, k) in enumerate(zip(shape.dims, shape.ks)):
        q = hq.random_columns(n, k, rng)
        cores.append(q.reshape(n, s[i], s[i + 1]).transpose(1, 0, 2))
    return cores


def tt_random_point(shape, rng):
    return tt_point_from_cores(tt_random_cores(shape, rng))


def tt_random_horizontal(p, rng):
    return hq.random_horizontal(p, rng)
