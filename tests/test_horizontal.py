"""The closed-form horizontal layer against the dense references."""

import tracemalloc

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

import tensorgeo.homogeneous as hq
from conftest import MANIFOLDS, manifold_shapes
from tensorgeo import (AlgebraElement, CpShape, cp_random_horizontal,
                       cp_random_point)
from tensorgeo.group import HorizontalBlocks
from tensorgeo.oracles import (horizontality_residual_reference,
                               project_horizontal_reference)

RTOL = 1e-10
# both residuals of a horizontal tangent are rounding noise below this
NOISE = 1e-12


def _close(a, b, rtol=RTOL):
    return np.abs(a - b).max(initial=0.0) <= rtol * np.abs(b).max(initial=0.0)


def _residuals_agree(p, x):
    got = hq.horizontality_residual(p, x)
    ref = horizontality_residual_reference(p, x)
    if ref <= NOISE:
        return got <= NOISE
    return abs(got - ref) <= RTOL * ref


@settings(max_examples=60, deadline=None, derandomize=True)
@given(manifold_shapes(), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-2, 1.0]))
def test_closed_form_matches_dense_references(case, seed, delta):
    kind, shape = case
    rng = np.random.default_rng(seed)
    p = MANIFOLDS[kind]["point"](shape, rng)
    z = AlgebraElement([rng.standard_normal((n, n)) for n in shape.dims])
    x = hq.project_horizontal(p, z)
    ref = project_horizontal_reference(p, z)
    for a, b in zip(x.modes, ref.modes):
        assert _close(a.x1, b.x1)
    assert _residuals_agree(p, x)
    # off the horizontal space: x11 of one mode
    mode = int(rng.integers(shape.d))
    bumped = list(x.modes)
    tb = bumped[mode]
    bumped[mode] = HorizontalBlocks(np.vstack((
        tb.x11 + delta * rng.standard_normal(tb.x11.shape), tb.x21)))
    assert _residuals_agree(p, type(x)(bumped))


def test_random_horizontal_keeps_the_seeded_draws(manifold):
    cfg = MANIFOLDS[manifold]
    shape = cfg["shape"]()
    p = cfg["point"](shape, np.random.default_rng(1))
    x = cfg["tangent"](p, np.random.default_rng(2))
    rng = np.random.default_rng(2)
    z = AlgebraElement([rng.standard_normal((n, n)) for n in shape.dims])
    for a, b in zip(x.modes, project_horizontal_reference(p, z).modes):
        assert _close(a.x1, b.x1)


def test_residual_on_square_modes(manifold):
    # n == k leaves the tangent blocks with no trailing rows
    cfg = MANIFOLDS[manifold]
    shape = cfg["square"]()
    rng = np.random.default_rng(3)
    p = cfg["point"](shape, rng)
    x = cfg["tangent"](p, rng)
    assert all(tb.x21.size == 0 for tb in x.modes)
    assert hq.horizontality_residual(p, x) <= NOISE


def test_residual_forms_no_n_by_n_matrix():
    # one 2000 x 2000 float64 matrix alone is 32 MB
    rng = np.random.default_rng(0)
    p = cp_random_point(CpShape((2000, 30, 30), 3), rng)
    x = cp_random_horizontal(p, rng)
    tracemalloc.start()
    try:
        res = hq.horizontality_residual(p, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res <= 1e-9
    assert peak < 8e6


@settings(max_examples=40, deadline=None, derandomize=True)
@given(manifold_shapes())
def test_coupled_rows_read_the_cached_basis(case):
    # the row-by-row construction that rebuilt the basis on every call
    _, shape = case
    basis = shape.coupled_upper_basis()
    offs = np.cumsum([0] + [k * k for k in shape.ks])
    want = np.zeros((len(basis), offs[-1]))
    for row, elem in enumerate(basis):
        for i, y in enumerate(elem):
            if y is not None:
                want[row, offs[i]:offs[i + 1]] = y.ravel()
    assert np.array_equal(hq.upper_condition_matrix(shape), want)
