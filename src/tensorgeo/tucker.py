"""The manifold of tensors with multilinear rank (t_1, ..., t_d), t_1 = t_2...t_d.

Only the case where the first rank equals the product of the others is a
single group orbit; other rank tuples are rejected at shape construction
with the closed admissibility window for t_1.  Mode 0 is the distinguished
large mode; inputs with the large mode elsewhere must be permuted by the
caller.

The stabilizer couples the leading block of mode 0 to the inverse-transpose
Kronecker product of the other modes' leading blocks, which makes the
complement's leading blocks satisfy partial-trace conditions: every L_i is
the slot-i partial trace (transposed) of L_1.

Points and tangents are ``homogeneous.Point`` and
``homogeneous.ManifoldTangent`` (``TuckerPoint`` and ``TuckerTangent`` name
them), and a stabilizer sample is ``homogeneous.StabilizerSample``; what
stays here is the shape, the stabilizer's leading blocks, the admissibility
window, points from decompositions, random points and the partial-trace
membership test.  Embedding, projection, residual and the reductivity probe
are ``homogeneous``'s; ``tucker_geodesic`` and ``tucker_random_horizontal``
remain as the names the benchmark's workloads bind.
"""

from dataclasses import dataclass
from functools import reduce
import math

import numpy as np

from . import homogeneous as hq
from .dense import mode_product, unfold

__all__ = [
    "TuckerShape", "TuckerPoint", "TuckerTangent", "t1_window",
    "tucker_point_from_decomposition", "tucker_partial_trace",
    "tucker_m_membership", "tucker_geodesic", "tucker_random_decomposition",
    "tucker_random_point", "tucker_random_horizontal",
]


def t1_window(t_rest):
    """Admissible closed interval for the first rank given the others.

    Counting parameters of the orbit construction bounds the first rank from
    below by (P + sqrt(P^2 - 4 S))/2 with P the product and S the sum of
    squares of the remaining ranks, and from above by P.  Returned as
    integers (ceiling on the left edge).  When the quadratic has no real
    roots the lower constraint is vacuous and the window is [1, P].
    """
    t_rest = [int(t) for t in t_rest]
    prod = reduce(lambda a, b: a * b, t_rest, 1)
    ssum = sum(t * t for t in t_rest)
    disc = prod * prod - 4 * ssum
    if disc < 0:
        return 1, prod
    low = math.ceil((prod + math.sqrt(disc)) / 2.0 - 1e-12)
    return low, prod


@dataclass(frozen=True)
class TuckerShape:
    dims: tuple
    ranks: tuple

    def __init__(self, dims, ranks):
        dims = tuple(int(n) for n in dims)
        ranks = tuple(int(t) for t in ranks)
        if len(dims) < 3 or len(dims) != len(ranks):
            raise ValueError("need d >= 3 matching dims and ranks")
        if any(n < 2 for n in dims) or any(t < 1 for t in ranks):
            raise ValueError("mode sizes must be >= 2 and ranks >= 1")
        if any(t > n for t, n in zip(ranks, dims)):
            raise ValueError("ranks cannot exceed mode sizes")
        prod = reduce(lambda a, b: a * b, ranks[1:], 1)
        if ranks[0] != prod:
            low, high = t1_window(ranks[1:])
            raise ValueError(
                f"unsupported multilinear rank: the first rank must equal the "
                f"product of the others ({prod}); the admissible window for "
                f"these trailing ranks is [{low}, {high}]")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "ranks", ranks)

    name = "tucker"

    @property
    def ks(self):
        return self.ranks

    @property
    def d(self):
        return len(self.dims)

    def core_identity(self):
        t1 = self.ranks[0]
        return np.eye(t1).reshape((t1,) + self.ranks[1:])

    def reference_tensor(self):
        """Identity core contracted with truncated-identity factors."""
        t = np.zeros(self.dims)
        corner = tuple(slice(0, k) for k in self.ranks)
        t[corner] = self.core_identity()
        return t

    def embed_columns(self, cols):
        return mode_product(cols, self.core_identity())

    def coupled_upper_basis(self):
        """For each trailing mode m and unit block E: +E in mode m and
        -(I x ... x E^T x ... x I) in the slot of mode m inside mode 0."""
        out = []
        trest = self.ranks[1:]
        for m in range(1, self.d):
            tm = self.ranks[m]
            for p in range(tm):
                for q in range(tm):
                    e = np.zeros((tm, tm))
                    e[p, q] = 1.0
                    mats = [np.eye(t) for t in trest]
                    mats[m - 1] = e.T
                    chain = reduce(np.kron, mats)
                    elem = [None] * self.d
                    elem[m] = e
                    elem[0] = -chain
                    out.append(tuple(elem))
        return out

    def stabilizer_sample(self, rng):
        """Stabilizer sample with invertible leading blocks A_i = I + 0.4 N
        in the trailing modes; mode 0 carries their inverse-transpose
        Kronecker chain."""
        rest = [np.eye(t) + 0.4 * rng.standard_normal((t, t))
                for t in self.ranks[1:]]
        kron = reduce(np.kron, [np.linalg.inv(a).T for a in rest])
        return hq.stabilizer_sample(self, [kron] + rest, rng)


TuckerPoint = hq.Point
TuckerTangent = hq.ManifoldTangent


# ---------------------------------------------------------------------------

def tucker_point_from_decomposition(core, factors):
    """Point embedding to the given Tucker decomposition.

    The mode-0 unfolding of the core must be invertible (the tensor has full
    first rank) and every factor must have full column rank.
    """
    core = np.asarray(core, dtype=float)
    factors = [np.asarray(g, dtype=float) for g in factors]
    shape = TuckerShape(tuple(g.shape[0] for g in factors), core.shape)
    c1 = unfold(core, 0)
    s = np.linalg.svd(c1, compute_uv=False)
    if s[-1] <= 1e-10 * s[0]:
        raise ValueError("the core's mode-0 unfolding is singular: the "
                         "multilinear rank is below the requested first rank")
    cols = [factors[0] @ c1] + factors[1:]
    return hq.point_from_columns(shape, cols)


def tucker_partial_trace(l1, trest, slot):
    """Transpose of the partial trace of l1 over all slots except ``slot``.

    l1 acts on the tensor product of the trailing-rank spaces; slot counts
    from 0 within that product.
    """
    trest = tuple(trest)
    m = len(trest)
    cur = np.asarray(l1).reshape(trest + trest)
    cur_m = m
    cur_slot = slot
    for j in sorted([j for j in range(m) if j != slot], reverse=True):
        cur = np.trace(cur, axis1=j, axis2=j + cur_m)
        cur_m -= 1
        if j < cur_slot:
            cur_slot -= 1
    return cur.T


def tucker_m_membership(shape, x, tol=1e-10):
    """True iff x has the complement's block pattern and trace conditions.

    Pattern: upper-right and lower-right blocks vanish; leading blocks L_i of
    the trailing modes equal the slot-i partial trace of mode 0's block.
    """
    factors = [np.asarray(f) for f in getattr(x, "factors", x)]
    scale = 1.0 + max(float(np.abs(f).max()) for f in factors)
    if not hq.right_blocks_vanish(shape, factors, tol * scale):
        return False
    l1 = factors[0][: shape.ranks[0], : shape.ranks[0]]
    for m in range(1, shape.d):
        k = shape.ranks[m]
        lm = factors[m][:k, :k]
        want = tucker_partial_trace(l1, shape.ranks[1:], m - 1)
        if np.abs(lm - want).max() > tol * scale:
            return False
    return True


def tucker_geodesic(p, x, t=1.0):
    q, _ = hq.geodesic(p, x, t)
    return q


def tucker_random_decomposition(shape, rng):
    """Well-conditioned random core and factors."""
    t1 = shape.ranks[0]
    u = np.linalg.qr(rng.standard_normal((t1, t1)))[0]
    v = np.linalg.qr(rng.standard_normal((t1, t1)))[0]
    c1 = u @ np.diag(rng.uniform(0.6, 1.6, size=t1)) @ v.T
    core = c1.reshape(shape.ranks)
    factors = [hq.random_columns(n, t, rng)
               for n, t in zip(shape.dims, shape.ranks)]
    return core, factors


def tucker_random_point(shape, rng):
    core, factors = tucker_random_decomposition(shape, rng)
    return tucker_point_from_decomposition(core, factors)


def tucker_random_horizontal(p, rng, scale=1.0):
    return hq.random_horizontal(p, rng, scale)
