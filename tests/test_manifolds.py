"""Checks every manifold passes through the shared operations, one test each.

Each test is parametrized over conftest's ``manifold`` fixture and reads its
shapes, seeds and tolerances from a per-manifold table, so every manifold
keeps the cases it was checked on.
"""

import ast
import importlib
import inspect
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import tensorgeo
import tensorgeo.homogeneous as hq
from conftest import MANIFOLDS, dense_geodesic_embed, rel_err
from tensorgeo import (CpShape, TtShape, TuckerShape, cp, mode_apply,
                       multilinear_rank, tt, tt_rank, tucker)
from tensorgeo.audit import itemized_geodesic
from tensorgeo.flops import FlopLedger, geodesic_formula


def _stabilizer(shape, seed):
    return shape.stabilizer_sample(np.random.default_rng(seed)).group_element()


# shape of the reference check, 30 stabilizer seeds each
FIXES_REFERENCE = {
    "cp": CpShape((5, 4, 4), 2),
    "tucker": TuckerShape((6, 4, 4), (4, 2, 2)),
    "tt": TtShape((4, 7, 4), (2, 2)),
}


def test_stabilizer_fixes_reference(manifold):
    shape = FIXES_REFERENCE[manifold]
    ref = shape.reference_tensor()
    for seed in range(30):
        h = _stabilizer(shape, seed)
        assert (np.abs(mode_apply(h, ref) - ref).max()
                <= MANIFOLDS[manifold]["fix_tol"])


def test_reductive_dichotomy(manifold):
    cfg = MANIFOLDS[manifold]
    rep = hq.reductive_check(cfg["square"](), trials=40, seed=0)
    assert rep.expected_reductive and rep.passed
    assert rep.max_invariance_residual <= 1e-12
    rep = hq.reductive_check(cfg["nonsquare"](), trials=40, seed=0)
    assert not rep.expected_reductive and rep.passed
    assert rep.witness_residual >= 0.05


# (shape, point seed, stabilizer seed)
REPRESENTATIVES = {
    "cp": (CpShape((6, 5, 4), 2), 12, 21),
    "tucker": (TuckerShape((6, 4, 4), (4, 2, 2)), 9, 17),
    "tt": (TtShape((6, 8, 5), (2, 2)), 10, 19),
}


def test_representative_independence(manifold):
    shape, seed, h_seed = REPRESENTATIVES[manifold]
    cfg = MANIFOLDS[manifold]
    rng = np.random.default_rng(seed)
    p = cfg["point"](shape, rng)
    x = cfg["tangent"](p, rng)
    xa = hq.lift_tangent(p, x)
    h = _stabilizer(shape, h_seed)
    p2 = hq.transport_point(p, h)
    x2 = hq.project_horizontal(p2, hq.transport_tangent(xa, h))
    for t in (0.5, 1.0):
        e1 = hq.embed(hq.geodesic(p, x, t)[0])
        e2 = hq.embed(hq.geodesic(p2, x2, t)[0])
        assert rel_err(e2, e1) <= 1e-8


# (shape, seed, times)
DENSE_ORACLE = {
    "cp": (CpShape((7, 6, 5), 2), 8, (0.5, 1.0, 2.0)),
    "tucker": (TuckerShape((6, 4, 4), (4, 2, 2)), 7, (0.5, 1.5)),
    "tt": (TtShape((6, 8, 5), (2, 2)), 7, (0.5, 1.5)),
}


def test_geodesic_vs_dense_oracle(manifold):
    shape, seed, times = DENSE_ORACLE[manifold]
    cfg = MANIFOLDS[manifold]
    rng = np.random.default_rng(seed)
    p = cfg["point"](shape, rng)
    x = cfg["tangent"](p, rng)
    assert rel_err(hq.embed(hq.geodesic(p, x, 0.0)[0]), hq.embed(p)) <= 1e-13
    for t in times:
        q, _ = hq.geodesic(p, x, t)
        assert rel_err(hq.embed(q), dense_geodesic_embed(p, x, t)) <= 1e-10


# exact closed-form values (shape, zs, want), then the ledger's (shape, seed)
FLOP_FORMULA = {
    "cp": ((CpShape((100, 100, 100), 5), (3, 3, 3), Fraction(370250)),
           (CpShape((9, 8, 7), 2), 11)),
    "tucker": ((TuckerShape((8, 4, 4), (4, 2, 2)), (2, 2, 2),
                Fraction(69920, 3)),
               (TuckerShape((8, 4, 4), (4, 2, 2)), 8)),
    # 2*(110*4*4/3 + 218*8) + 110*8*16/3 + 218*64
    "tt": ((TtShape((4, 8, 4), (2, 2)), (2, 2, 2), Fraction(69920, 3)),
           (TtShape((4, 8, 4), (2, 2)), 9)),
}


def test_flop_formula_and_ledger(manifold):
    (shape, zs, want), (small, seed) = FLOP_FORMULA[manifold]
    assert geodesic_formula(shape.dims, shape.ks, zs) == want
    # one more level in mode 0 costs its 36 k^3
    up = (zs[0] + 1,) + zs[1:]
    assert (geodesic_formula(shape.dims, shape.ks, up) - want
            == 36 * shape.ks[0] ** 3)
    with pytest.raises(ValueError):
        geodesic_formula(shape.dims, shape.ks, (0,) + zs[1:])
    cfg = MANIFOLDS[manifold]
    rng = np.random.default_rng(seed)
    p = cfg["point"](small, rng)
    x = cfg["tangent"](p, rng)
    led = FlopLedger()
    _, used = itemized_geodesic(p, x, 1.0, led)
    resid = led.total - geodesic_formula(small.dims, small.ks,
                                         [max(1, z) for z in used])
    slack = 100 * sum(n * k + k * k for n, k in zip(small.dims, small.ks))
    assert abs(resid) <= slack


# (shape, point seed, stabilizer seed, rank of the embedding, its value)
EMBED_RANK = {
    "cp": (CpShape((5, 4, 4), 2), 2, 7, multilinear_rank, (2, 2, 2)),
    "tucker": (TuckerShape((6, 4, 4), (4, 2, 2)), 2, 3, multilinear_rank,
               (4, 2, 2)),
    "tt": (TtShape((6, 8, 5), (2, 2)), 2, 3, tt_rank, (2, 2)),
}


def test_embed_rank_and_stabilizer_invariance(manifold):
    shape, seed, h_seed, rank, want = EMBED_RANK[manifold]
    p = MANIFOLDS[manifold]["point"](shape, np.random.default_rng(seed))
    assert rank(hq.embed(p)) == want
    q = hq.transport_point(p, _stabilizer(shape, h_seed))
    assert rel_err(hq.embed(q), hq.embed(p)) <= 1e-12


# ---------------------------------------------------------------------------
# the public surface: each manifold module lists only what differs

PUBLIC = {
    cp: {"CpShape", "CpPoint", "CpTangent", "cp_point_from_factors",
         "cp_geodesic", "cp_random_point", "cp_random_horizontal"},
    tucker: {"TuckerShape", "TuckerPoint", "TuckerTangent", "t1_window",
             "tucker_point_from_decomposition", "tucker_partial_trace",
             "tucker_m_membership", "tucker_geodesic",
             "tucker_random_decomposition", "tucker_random_point",
             "tucker_random_horizontal"},
    tt: {"TtShape", "TtPoint", "TtTangent", "tt_point_from_cores",
         "tt_trace_first", "tt_trace_second", "tt_m_membership",
         "tt_geodesic", "tt_random_cores", "tt_random_point",
         "tt_random_horizontal"},
}

SHARED = ("embed", "geodesic", "project_horizontal", "horizontality_residual",
          "random_horizontal", "reductive_check", "make_shape", "Point",
          "ManifoldTangent")

# one-line pass-throughs to homogeneous or the shape; call those instead
PASS_THROUGHS = ("reference_tensor", "embed", "stabilizer_sample",
                 "project_horizontal", "flop_formula", "reductive_check")
DELETED = [f"{prefix}_{name}"
           for prefix, names in (("cp", PASS_THROUGHS + ("is_horizontal",)),
                                 ("tucker", PASS_THROUGHS),
                                 ("tt", PASS_THROUGHS))
           for name in names]


def test_manifold_modules_list_only_what_differs():
    for module, names in PUBLIC.items():
        assert set(module.__all__) == names
        assert len(module.__all__) == len(names)
        for name in names:
            assert getattr(module, name) is not None


def test_top_level_exports_the_shared_operations_once():
    for name in SHARED:
        assert getattr(tensorgeo, name) is getattr(hq, name)
    # every name the package imports is its module's own object
    with open(tensorgeo.__file__) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"tensorgeo.{node.module}")
        for alias in node.names:
            assert getattr(tensorgeo, alias.name) is getattr(module, alias.name)


def test_pass_throughs_are_gone():
    assert len(DELETED) == 19
    for name in DELETED:
        assert not hasattr(tensorgeo, name)
        for module in PUBLIC:
            assert not hasattr(module, name)


# second implementations of a dense operation, each deleted for the one that
# stays: oracles.dense_geodesic, oracles.mexp_dense, psi1, dump_tensor and
# load_tensor, and oracles.SERIES_TERMS
DENSE_DUPLICATES = {"group": ("gl_exp",), "psi": ("mexp_small", "psi1_pade"),
                    "io": ("dump_matrix", "load_matrix"),
                    "oracles": ("OracleConfig",)}


def test_dense_duplicates_are_gone():
    modules = [importlib.import_module(f"tensorgeo.{info.name}")
               for info in pkgutil.iter_modules(tensorgeo.__path__)]
    assert {m.__name__ for m in modules} >= {
        f"tensorgeo.{name}" for name in DENSE_DUPLICATES}
    names = [name for group in DENSE_DUPLICATES.values() for name in group]
    assert len(names) == 6
    for name in names:
        assert not hasattr(tensorgeo, name)
        for module in modules:
            assert not hasattr(module, name)


# names no caller needed, each deleted: two one-caller psi1 helpers, now
# inlined, an unread coefficient row, the permutation inverse that a row
# scatter replaces, the Gram-form copy of the velocity cores that the
# itemized update's own B'A' replaces, the LU solve that dense.lu_solve
# replaces, the two trusted ModeBlocks constructors merged into one, the
# unread element dims, and the audit's time, which no caller set and at
# which alone the pinned exponents hold
UNREACHED_HELPERS = {"psi": ("_entry_norm", "_check_finite", "PSI1_PADE_NUM"),
                     "dense": ("perm_inverse",),
                     "group": ("_velocity_cores", "_lu_solve")}
UNREACHED_ATTRIBUTES = {"ModeBlocks": ("_kept", "_from_selection"),
                        "GroupElement": ("dims",),
                        "AlgebraElement": ("dims",)}
UNREACHED_PARAMETERS = {("audit", "audit_geodesic"): ("t",)}


def test_unreached_helpers_are_gone():
    modules = [tensorgeo] + [
        importlib.import_module(f"tensorgeo.{info.name}")
        for info in pkgutil.iter_modules(tensorgeo.__path__)]
    names = [name for group in UNREACHED_HELPERS.values() for name in group]
    assert len(names) == 6
    for name in names:
        for module in modules:
            assert not hasattr(module, name), (module.__name__, name)
    assert sum(map(len, UNREACHED_ATTRIBUTES.values())) == 4
    for cls, attrs in UNREACHED_ATTRIBUTES.items():
        cls = getattr(tensorgeo.group, cls)
        for attr in attrs:
            assert not hasattr(cls, attr), (cls.__name__, attr)
    assert sum(map(len, UNREACHED_PARAMETERS.values())) == 1
    for (module, func), params in UNREACHED_PARAMETERS.items():
        func = getattr(importlib.import_module(f"tensorgeo.{module}"), func)
        for param in params:
            assert param not in inspect.signature(func).parameters, \
                (func.__name__, param)
    # the production re-pivot gate is the geodesic's default itself
    default = inspect.signature(hq.geodesic).parameters["repivot_tol"].default
    assert default is tensorgeo.group.REPIVOT_TOL


def test_the_tangent_wrapper_is_gone():
    # a tangent mode is its n x k array: no wrapper type is left to resolve
    for module in [tensorgeo] + [
            importlib.import_module(f"tensorgeo.{info.name}")
            for info in pkgutil.iter_modules(tensorgeo.__path__)]:
        assert not hasattr(module, "HorizontalBlocks")


PRODUCTION = ("group", "homogeneous", "psi", "dense", "io", "cp", "tucker",
              "tt")


def test_production_modules_do_not_import_oracles():
    # the O(n^3) references serve tests and audits only; a function-level
    # import counts too
    for name in PRODUCTION:
        module = importlib.import_module(f"tensorgeo.{name}")
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any("oracles" in n.split(".") for n in names), name
    assert not hasattr(hq, "vertical_component_norm")
