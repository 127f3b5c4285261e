"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 1-3 and 5-9
exercise oracle equivalences and invariant suites at their stated
tolerances; criterion 4 checks the recorded operation counts line by line as
exact rationals; criterion 10 measures wall-time scaling; criterion 11 pins
the rank-window constant.
"""

import io as _io
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

import tensorgeo.homogeneous as hq
from conftest import MANIFOLDS, dense_geodesic_embed, rel_err
from tensorgeo import CpShape, TtShape, TuckerShape, mode_apply, t1_window
from tensorgeo.audit import (audit_geodesic, itemized_geodesic,
                             random_point_and_tangent, time_dense_modes,
                             time_lowrank_modes)
from tensorgeo.cli import main as cli_main
from tensorgeo.flops import FlopLedger
from tensorgeo.group import right_invariant_inner
from tensorgeo.oracles import dense_geodesic, mexp_dense, psi1_series
from tensorgeo.psi import LowRankPair, mexp_lowrank, psi1_pade


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:2d} {status}: {name} ({detail})")
    assert passed, f"criterion {num}: {name}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_1_pade_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(1, 9):
        ms = rng.standard_normal((1000, k, k))
        nrm = np.sqrt((ms ** 2).sum(axis=(1, 2)))
        ms *= (rng.uniform(0.0, 0.5, size=1000)
               / np.maximum(nrm, 1e-300))[:, None, None]
        series = psi1_series(ms)
        for i in range(1000):
            dev = np.linalg.norm(psi1_pade(ms[i]).astype(np.longdouble)
                                 - series[i])
            worst = max(worst, float(dev))
    elapsed = time.perf_counter() - t0
    _report(1, "psi1 Pade vs 60-term extended series, 8000 draws",
            worst <= 1e-15 and elapsed < 10.0,
            f"max dev {worst:.3e}, {elapsed:.1f} s")


def test_criterion_2_lowrank_exponential():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (50, 100, 200):
        for k in (1, 3, 10):
            pair = LowRankPair(rng.standard_normal((n, k)),
                               rng.standard_normal((k, n)))
            dense = mexp_dense(pair.left @ pair.right)
            rel = (np.linalg.norm(mexp_lowrank(pair).densify() - dense)
                   / np.linalg.norm(dense))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(2, "low-rank exponential vs dense (n<=200, k<=10)",
            worst <= 1e-12 and elapsed < 30.0,
            f"max rel err {worst:.3e}, {elapsed:.1f} s")


ACCEPTANCE_SHAPES = {
    "cp": lambda: CpShape((20, 20, 20), 3),
    "tucker": lambda: TuckerShape((6, 4, 4), (4, 2, 2)),
    "tt": lambda: TtShape((10, 20, 10), (2, 3)),
}


def test_criterion_3_geodesic_oracle_equivalence():
    # both the production step and the itemized update the flop audit runs;
    # every error meets the bound on its own, so a nan fails the criterion
    t0 = time.perf_counter()
    worst = 0.0
    all_within = True
    for kind, mk in ACCEPTANCE_SHAPES.items():
        shape = mk()
        cfg = MANIFOLDS[kind]
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            p = cfg["point"](shape, rng)
            x = cfg["tangent"](p, rng)
            for t in (0.5, 1.0, 2.0):
                want = dense_geodesic_embed(p, x, t)
                q, _ = hq.geodesic(p, x, t)
                cols, _ = itemized_geodesic(p, x, t, FlopLedger())
                for got in (hq.embed(q), shape.embed_columns(cols)):
                    err = rel_err(got, want)
                    all_within = all_within and err <= 1e-10
                    worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    _report(3, "embedded low-rank geodesics vs dense oracle, 20 trials x 3 t",
            all_within and elapsed < 60.0,
            f"max rel err {worst:.3e}, {elapsed:.1f} s")


def _random_shape(kind, rng):
    if kind == "cp":
        d = int(rng.integers(3, 5))
        dims = tuple(int(rng.integers(4, 13)) for _ in range(d))
        return CpShape(dims, int(rng.integers(2, min(dims) + 1)))
    if kind == "tucker":
        trest = tuple(int(rng.integers(2, 4)) for _ in range(2))
        t1 = trest[0] * trest[1]
        dims = (t1 + int(rng.integers(0, 5)),
                trest[0] + int(rng.integers(0, 4)),
                trest[1] + int(rng.integers(0, 4)))
        return TuckerShape(dims, (t1,) + trest)
    s = tuple(int(rng.integers(2, 4)) for _ in range(2))
    dims = (s[0] + int(rng.integers(0, 3)),
            s[0] * s[1] + int(rng.integers(0, 4)),
            s[1] + int(rng.integers(0, 3)))
    return TtShape(dims, s)


def test_criterion_4_flop_model_exactness():
    # line-by-line audits at pinned exponents
    lines_exact = True
    for kind, dims, ranks, zs in (
            ("cp", (100, 100, 100), (5,), (3, 3, 3)),
            ("cp", (40, 30, 20), (4,), (2, 5, 3)),
            ("tucker", (6, 4, 4), (4, 2, 2), (3, 2, 2)),
            ("tt", (10, 20, 10), (2, 3), (2, 3, 2))):
        res = audit_geodesic(kind, dims, ranks, zs, seed=11)
        lines_exact = lines_exact and res.all_exact and res.zs == list(zs) \
            and res.residual == 0

    # the published example value must appear in the audit output
    buf = _io.StringIO()
    with redirect_stdout(buf):
        cli_main(["flops", "--manifold", "cp", "--dims", "100", "100", "100",
                  "--ranks", "5", "--z", "3", "3", "3"])
    example_printed = "370250" in buf.getvalue()

    # per-mode totals across random shapes, natural exponents
    within = True
    worst_ratio = 0.0
    for kind, kseed in (("cp", 101), ("tucker", 202), ("tt", 303)):
        rng = np.random.default_rng(kseed)
        for _ in range(50):
            shape = _random_shape(kind, rng)
            p, x = random_point_and_tangent(shape, rng)
            led = FlopLedger()
            _, zs = itemized_geodesic(p, x, 1.0, led)
            for i, (n, k) in enumerate(zip(shape.dims, shape.ks)):
                total = sum(v for key, v in led.per_step.items()
                            if key.startswith(f"mode{i}."))
                formula = (Fraction(110 * n * k * k, 3)
                           + (146 + 36 * zs[i]) * Fraction(k) ** 3)
                slack = Fraction(100 * (n * k + k * k))
                ratio = abs(total - formula) / slack
                worst_ratio = max(worst_ratio, float(ratio))
                within = within and abs(total - formula) <= slack
    _report(4, "ledger lines exact, 370250 printed, totals within slack",
            lines_exact and example_printed and within,
            f"worst |residual|/slack {worst_ratio:.3f}")


def test_criterion_5_completeness():
    ok = True
    detail = []
    for kind, cfg in MANIFOLDS.items():
        shape = cfg["small"]()
        fails = 0
        for trial in range(50):
            rng = np.random.default_rng(3000 + trial)
            p = cfg["point"](shape, rng)
            x = cfg["tangent"](p, rng)
            g = hq.densify(p)
            xa = hq.lift_tangent(p, x)
            speed = np.sqrt(right_invariant_inner(g, xa, xa))
            t = 100.0 / speed
            q, _ = hq.geodesic(p, x, t, repivot_tol=0.0)
            for mb in q.modes:
                sv = np.linalg.svd(mb.g11, compute_uv=False)
                if not (np.all(np.isfinite(mb.g1)) and sv[-1] > 0.0):
                    fails += 1
        detail.append(f"{kind}: {fails} breakdowns")
        ok = ok and fails == 0
    _report(5, "geodesics at t = 100/||velocity|| stay finite and invertible",
            ok, "; ".join(detail))


def test_criterion_6_stabilizer_fixed_points():
    ok = True
    detail = []
    for kind, cfg in MANIFOLDS.items():
        shape = cfg["shape"]()
        ref = shape.reference_tensor()
        worst = 0.0
        for seed in range(100):
            h = shape.stabilizer_sample(np.random.default_rng(seed))
            worst = max(worst, float(np.abs(
                mode_apply(h.group_element(), ref) - ref).max()))
        detail.append(f"{kind}: {worst:.2e}")
        ok = ok and worst <= cfg["fix_tol"]
    _report(6, "100 stabilizer samples fix the reference tensor",
            ok, "; ".join(detail))


def test_criterion_7_reductivity_dichotomy():
    ok = True
    detail = []
    for kind, cfg in MANIFOLDS.items():
        sq = hq.reductive_check(cfg["square"](), trials=100, seed=5)
        ns = hq.reductive_check(cfg["nonsquare"](), trials=100, seed=5)
        ok = ok and sq.max_invariance_residual <= 1e-12 \
            and ns.witness_residual >= 0.05
        detail.append(f"{kind}: inv {sq.max_invariance_residual:.1e}, "
                      f"witness {ns.witness_residual:.2f}")
    _report(7, "Ad-invariance for square shapes, witnesses otherwise",
            ok, "; ".join(detail))


def test_criterion_8_representative_independence():
    ok = True
    worst = 0.0
    for kind, cfg in MANIFOLDS.items():
        shape = cfg["small"]()
        for trial in range(20):
            rng = np.random.default_rng(4000 + trial)
            p = cfg["point"](shape, rng)
            x = cfg["tangent"](p, rng)
            xa = hq.lift_tangent(p, x)
            h = shape.stabilizer_sample(rng).group_element()
            p2 = hq.transport_point(p, h)
            x2 = type(x)(hq.project_horizontal(
                p2, hq.transport_tangent(xa, h)).modes)
            for t in (0.5, 1.0):
                e1 = hq.embed(hq.geodesic(p, x, t)[0])
                e2 = hq.embed(hq.geodesic(p2, x2, t)[0])
                err = rel_err(e2, e1)
                worst = max(worst, err)
                ok = ok and err <= 1e-8
    _report(8, "geodesics agree across stabilizer-translated representatives",
            ok, f"max rel err {worst:.3e}")


def test_criterion_9_horizontality_preservation():
    ok = True
    worst = 0.0
    h = 1e-6
    for kind, cfg in MANIFOLDS.items():
        shape = cfg["small"]()
        for trial in range(20):
            rng = np.random.default_rng(5000 + trial)
            p = cfg["point"](shape, rng)
            x = cfg["tangent"](p, rng)
            g = hq.densify(p)
            xa = hq.lift_tangent(p, x)
            speed = np.sqrt(right_invariant_inner(g, xa, xa))
            xa = type(xa)([f / speed for f in xa.factors])
            for t in (0.25, 0.5, 1.0):
                plus = dense_geodesic(g, xa, t + h)
                minus = dense_geodesic(g, xa, t - h)
                mid = dense_geodesic(g, xa, t)
                vel = [(a - b) / (2 * h) for a, b in zip(plus, minus)]
                vnorm = np.sqrt(sum(np.sum(v * v) for v in vel))
                vert = hq.vertical_component_norm(mid, shape, vel)
                frac = vert / vnorm
                worst = max(worst, frac)
                ok = ok and frac <= 1e-5
    _report(9, "finite-difference velocity stays horizontal along geodesics",
            ok, f"max vertical fraction {worst:.3e}")


def test_criterion_10_timing_scaling():
    t0 = time.perf_counter()
    r = 5
    # the trials of the two sizes alternate, so host speed drift lands on
    # both sizes alike
    lr_small, lr_big = (rec.time_median_s for rec in
                        time_lowrank_modes((1000, 4000), r, trials=9, seed=1))
    lr_ratio = lr_big / lr_small
    d_small, d_big = (rec.time_median_s for rec in
                      time_dense_modes((100, 200), r, trials=9, seed=1))
    d_ratio = d_big / d_small
    elapsed = time.perf_counter() - t0
    _report(10, "low-rank time ratio 4000/1000 <= 6; dense 200/100 >= 5",
            lr_ratio <= 6.0 and d_ratio >= 5.0 and elapsed < 300.0,
            f"low-rank {lr_ratio:.2f}, dense {d_ratio:.2f}, {elapsed:.0f} s")


def test_criterion_11_rank_window_constant():
    lo, hi = t1_window((10, 10))
    _report(11, "admissibility window for d=3, trailing ranks (10, 10)",
            (lo, hi) == (98, 100), f"[{lo}, {hi}]")
