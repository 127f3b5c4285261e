"""The one point type, the one tangent type and the shared tag-to-shape map."""

import numpy as np
import pytest

import tensorgeo.homogeneous as hq
from conftest import MANIFOLDS
from tensorgeo import (CpPoint, CpShape, CpTangent, TtPoint, TtShape,
                       TtTangent, TuckerPoint, TuckerShape, TuckerTangent, cp,
                       cp_random_horizontal, cp_random_point, tt, tucker)
from tensorgeo.group import HorizontalBlocks


def test_manifold_names_bind_the_one_point_and_tangent_type():
    assert CpPoint is TuckerPoint is TtPoint is hq.Point
    assert CpTangent is TuckerTangent is TtTangent is hq.ManifoldTangent


def test_manifold_functions_return_the_shared_types(manifold):
    cfg = MANIFOLDS[manifold]
    rng = np.random.default_rng(0)
    p = cfg["point"](cfg["small"](), rng)
    x = cfg["tangent"](p, rng)
    q, _ = hq.geodesic(p, x, 0.5)
    assert type(p) is type(q) is hq.Point
    assert type(x) is type(x.scale(2.0)) is hq.ManifoldTangent


@pytest.mark.parametrize("module, prefix", [(cp, "cp"), (tucker, "tucker"),
                                            (tt, "tt")])
def test_wrappers_call_the_shared_functions_through_the_module(
        monkeypatch, module, prefix):
    # a profiler that patches hq.geodesic and hq.random_horizontal must see
    # every manifold's calls, so the wrappers may not bind them at import
    seen = []
    monkeypatch.setattr(hq, "geodesic",
                        lambda *a: seen.append("geodesic") or ("q", []))
    monkeypatch.setattr(hq, "random_horizontal",
                        lambda *a: seen.append("random_horizontal") or "x")
    assert getattr(module, f"{prefix}_geodesic")("p", "x") == "q"
    assert getattr(module, f"{prefix}_random_horizontal")("p", None) == "x"
    assert seen == ["geodesic", "random_horizontal"]


def test_point_checks_its_modes_against_its_shape():
    rng = np.random.default_rng(1)
    p = cp_random_point(CpShape((6, 5, 4), 2), rng)
    with pytest.raises(ValueError, match="2 modes for a shape with 3 dims"):
        hq.Point(p.shape, p.modes[:2])
    with pytest.raises(ValueError,
                       match="mode 0: blocks are 6 x 2, the shape wants 5 x 2"):
        hq.Point(CpShape((5, 5, 4), 2), p.modes)
    with pytest.raises(ValueError,
                       match="mode 2: blocks are 4 x 2, the shape wants 5 x 2"):
        hq.Point(CpShape((6, 5, 5), 2), p.modes)
    assert hq.Point(p.shape, list(p.modes)).modes == p.modes


def _cp_pair(seed=0):
    rng = np.random.default_rng(seed)
    p = cp_random_point(CpShape((6, 5, 4), 2), rng)
    return p, cp_random_horizontal(p, rng)


def test_geodesic_rejects_a_tangent_with_another_mode_count():
    p, x = _cp_pair()
    with pytest.raises(ValueError, match="the tangent has 2 modes, the point "
                                         "has 3"):
        hq.geodesic(p, hq.ManifoldTangent(x.modes[:2]))
    extra = HorizontalBlocks(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="the tangent has 4 modes"):
        hq.geodesic(p, hq.ManifoldTangent(x.modes + (extra,)))


def test_residual_rejects_a_tangent_with_fewer_modes():
    p, x = _cp_pair()
    with pytest.raises(ValueError, match="the tangent has 2 modes"):
        hq.horizontality_residual(p, hq.ManifoldTangent(x.modes[:2]))


def test_lift_tangent_rejects_a_tangent_with_fewer_modes():
    p, x = _cp_pair()
    with pytest.raises(ValueError, match="the tangent has 2 modes, the point "
                                         "has 3"):
        hq.lift_tangent(p, hq.ManifoldTangent(x.modes[:2]))


def test_tangent_from_ambient_rejects_factors_for_fewer_modes():
    p, x = _cp_pair()
    factors = hq.lift_tangent(p, x).factors
    with pytest.raises(ValueError, match="the tangent has 2 modes, the point "
                                         "has 3"):
        hq.tangent_from_ambient(p, factors[:2])


def _vertical_norm_args(seed=0):
    p, x = _cp_pair(seed)
    return hq.densify(p).factors, p.shape, hq.lift_tangent(p, x).factors


def test_vertical_component_norm_of_a_horizontal_tangent_is_zero():
    g, shape, v = _vertical_norm_args()
    assert hq.vertical_component_norm(g, shape, v) < 1e-12


def test_vertical_component_norm_rejects_fewer_velocity_factors():
    g, shape, v = _vertical_norm_args()
    with pytest.raises(ValueError, match="^3 group factors and 2 velocity "
                                         "factors for a 3-mode shape$"):
        hq.vertical_component_norm(g, shape, v[:2])


def test_vertical_component_norm_rejects_fewer_group_factors():
    g, shape, v = _vertical_norm_args()
    with pytest.raises(ValueError, match="^2 group factors and 3 velocity "
                                         "factors"):
        hq.vertical_component_norm(g[:2], shape, v)


def test_vertical_component_norm_rejects_factors_for_fewer_modes():
    # group and velocity agree with each other, not with the shape
    g, shape, v = _vertical_norm_args()
    with pytest.raises(ValueError, match="^2 group factors and 2 velocity "
                                         "factors for a 3-mode shape$"):
        hq.vertical_component_norm(g[:2], shape, v[:2])


def test_transport_tangent_rejects_a_mismatched_group_element():
    p, x = _cp_pair()
    h = p.shape.stabilizer_sample(np.random.default_rng(0)).group_element()
    xa = hq.lift_tangent(p, x)
    with pytest.raises(ValueError, match="dimension profiles do not match"):
        hq.transport_tangent(xa, h.factors[:1])
    assert len(hq.transport_tangent(xa, h).factors) == 3


def test_projection_rejects_factors_for_fewer_modes():
    p, _ = _cp_pair()
    z = [np.zeros((n, n)) for n in p.shape.dims[:2]]
    with pytest.raises(ValueError, match="the tangent has 2 modes"):
        hq.project_horizontal(p, z)


@pytest.mark.parametrize("tag, dims, ranks, want", [
    ("cp", (5, 4, 4), (2,), CpShape((5, 4, 4), 2)),
    ("tucker", (6, 4, 4), (4, 2, 2), TuckerShape((6, 4, 4), (4, 2, 2))),
    ("tt", (6, 8, 5), (2, 2), TtShape((6, 8, 5), (2, 2))),
])
def test_make_shape_maps_each_tag(tag, dims, ranks, want):
    assert hq.make_shape(tag, dims, ranks) == want


@pytest.mark.parametrize("tag, dims, ranks, match", [
    ("cp", (5, 4, 4), (2, 2), "cp shapes take a single rank"),
    ("cpd", (5, 4, 4), (2,), "unknown manifold 'cpd'"),
    ("cp", (5, 4, 4), (9,), r"rank must satisfy 1 <= r <= min\(dims\)"),
    ("tt", (6, 3, 5), (2, 2), "mode 1: rank product 4 exceeds size 3"),
])
def test_make_shape_rejects_bad_headers(tag, dims, ranks, match):
    with pytest.raises(ValueError, match=match):
        hq.make_shape(tag, dims, ranks)
