import math

import hypothesis.strategies as st
import numpy as np
import pytest

import tensorgeo.homogeneous as hq
from tensorgeo import (CpShape, TtShape, TuckerShape, cp_random_horizontal,
                       cp_random_point, tt_random_horizontal, tt_random_point,
                       tucker_random_horizontal, tucker_random_point)
from tensorgeo.oracles import dense_geodesic


def rng_for(seed):
    return np.random.default_rng(seed)


MANIFOLDS = {
    "cp": {
        "shape": lambda: CpShape((8, 7, 6), 3),
        "small": lambda: CpShape((5, 4, 4), 2),
        "square": lambda: CpShape((2, 2, 2), 2),
        "nonsquare": lambda: CpShape((3, 3, 3), 2),
        "point": cp_random_point,
        "tangent": cp_random_horizontal,
        "fix_tol": 1e-13,
    },
    "tucker": {
        "shape": lambda: TuckerShape((6, 4, 4), (4, 2, 2)),
        "small": lambda: TuckerShape((5, 3, 3), (4, 2, 2)),
        "square": lambda: TuckerShape((4, 2, 2), (4, 2, 2)),
        "nonsquare": lambda: TuckerShape((5, 2, 2), (4, 2, 2)),
        "point": tucker_random_point,
        "tangent": tucker_random_horizontal,
        "fix_tol": 1e-12,
    },
    "tt": {
        "shape": lambda: TtShape((6, 8, 5), (2, 2)),
        "small": lambda: TtShape((4, 7, 4), (2, 2)),
        "square": lambda: TtShape((2, 4, 2), (2, 2)),
        "nonsquare": lambda: TtShape((3, 4, 2), (2, 2)),
        "point": tt_random_point,
        "tangent": tt_random_horizontal,
        "fix_tol": 1e-12,
    },
}


@pytest.fixture(params=sorted(MANIFOLDS))
def manifold(request):
    return request.param


def dense_geodesic_embed(point, tangent, t):
    """Embedding of the geodesic evaluated along the dense O(n^3) path."""
    g = hq.densify(point)
    x = hq.lift_tangent(point, tangent)
    factors = dense_geodesic(g, x, t)
    ks = point.shape.ks
    return point.shape.embed_columns([f[:, :k] for f, k in zip(factors, ks)])


def rel_err(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@st.composite
def manifold_shapes(draw):
    """Random CP, Tucker and TT shapes; an extra of 0 makes a square mode.

    Tucker's first rank is the product of the others, the upper edge of its
    admissibility window; TT ranks meet their bound s_{i-1} s_i <= n_i when
    the mode is square.
    """
    kind = draw(st.sampled_from(sorted(MANIFOLDS)))

    def dims(ks):
        return [max(2, k + draw(st.integers(0, 3))) for k in ks]

    if kind == "cp":
        d, r = draw(st.integers(3, 4)), draw(st.integers(1, 3))
        return kind, CpShape(dims([r] * d), r)
    if kind == "tucker":
        trest = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2))
        ranks = (math.prod(trest),) + tuple(trest)
        return kind, TuckerShape(dims(ranks), ranks)
    ranks = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    sfull = [1] + ranks + [1]
    ks = [a * b for a, b in zip(sfull, sfull[1:])]
    return kind, TtShape(dims(ks), ranks)
