"""Command-line surface: invariant suites, flop audits, benchmarks, geodesics.

Subcommands
    verify    run a named invariant suite, exit 1 on any failure
    flops     audit the itemized update of one geodesic against the
              published counts
    bench     time the per-mode update of one synthetic mode across a sweep
              of mode sizes (CSV)
    geodesic  evaluate a geodesic on serialized point/tangent files

Exit codes: 0 pass, 1 invariant failure or a geodesic step that fails,
2 usage or parse error, or a file that cannot be read or written.  All
outputs are deterministic given --seed; wall-time fields are exempt.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import homogeneous as hq
from . import io as tio
from .audit import CSV_HEADER, audit_geodesic, bench_sweep, \
    itemized_geodesic, random_point_and_tangent
from .dense import mode_apply, multilinear_rank, tt_rank
from .flops import FlopLedger, geodesic_formula, psi1_count
from .group import gamma12, lowrank_geodesic_step, mode_velocity_norms, \
    reduce_columns
from .oracles import contract_cp, contract_tt, contract_tucker, \
    dense_geodesic, mexp_dense, psi1_series
from .psi import LowRankPair, inv_lowrank_update, make_scaling_plan, \
    mexp_lowrank, psi1


# ---------------------------------------------------------------------------
# verify suites

def _check(name, value, tol):
    return {"name": name, "value": float(value), "tol": float(tol),
            "passed": bool(value <= tol)}


def _suite_psi(rng):
    checks = []
    worst = 0.0
    for k in range(1, 7):
        for _ in range(200):
            m = rng.standard_normal((k, k))
            nrm = np.linalg.norm(m)
            m *= rng.uniform(0.0, 0.5) / max(nrm, 1e-300)
            dev = np.linalg.norm(psi1(m).astype(np.longdouble)
                                 - psi1_series(m))
            worst = max(worst, float(dev))
    checks.append(_check("pade_vs_series_max", worst, 1e-15))

    worst = 0.0
    for _ in range(20):
        m = rng.standard_normal((6, 6))
        m *= rng.uniform(0.1, 20.0) / np.linalg.norm(m)
        e = mexp_dense(m)
        res = np.linalg.norm(m @ psi1(m) - (e - np.eye(6)))
        worst = max(worst, res / (1.0 + np.linalg.norm(e)))
    checks.append(_check("psi1_defining_identity", worst, 1e-12))

    plan_ok = (make_scaling_plan(3.0).z == 4 and make_scaling_plan(0.3).z == 0
               and make_scaling_plan(0.6).z == 2)
    checks.append(_check("scaling_plan_examples", 0.0 if plan_ok else 1.0, 0.5))

    ok = True
    for k, z in ((3, 2), (4, 5)):
        m = rng.standard_normal((k, k))
        m *= (3.0 * 2.0 ** (z - 4)) / np.linalg.norm(m)
        led = FlopLedger()
        psi1(m, led)
        ok = ok and led.total == psi1_count(k, z)
    checks.append(_check("psi1_ledger_exact", 0.0 if ok else 1.0, 0.5))

    n, k = 60, 4
    pair = LowRankPair(rng.standard_normal((n, k)), rng.standard_normal((k, n)))
    rel = np.linalg.norm(mexp_lowrank(pair).densify()
                         - mexp_dense(pair.left @ pair.right))
    rel /= np.linalg.norm(mexp_dense(pair.left @ pair.right))
    checks.append(_check("lowrank_exp_vs_dense", rel, 1e-12))

    upd = inv_lowrank_update(pair)
    res = np.linalg.norm((np.eye(n) + pair.left @ pair.right) @ upd.densify()
                         - np.eye(n))
    checks.append(_check("lowrank_inverse_defining", res, 1e-11))
    return checks


def _suite_gl(rng):
    checks = []
    n, k = 14, 3
    blocks = reduce_columns(np.linalg.qr(rng.standard_normal((n, k)))[0])
    gam = gamma12(blocks)
    g11, g21 = blocks.g11, blocks.g21
    gi = np.linalg.inv(g11)
    dense = gi @ gi.T @ g21.T @ np.linalg.inv(
        np.eye(n - k) + g21 @ gi @ gi.T @ g21.T)
    checks.append(_check("gamma12_defining_relation",
                         np.abs(gam - dense).max(), 1e-12))

    x1 = np.asfortranarray(rng.standard_normal((n, k)))
    stepped, _ = lowrank_geodesic_step(blocks, x1, 0.8)
    ghat = blocks.densify()
    xhat = blocks.ambient(np.hstack([x1, x1 @ gam]))
    cols = dense_geodesic([ghat], [xhat], 0.8)[0][:, :k]
    rel = np.linalg.norm(stepped.leading_columns() - cols) / np.linalg.norm(cols)
    checks.append(_check("lowrank_step_vs_dense_columns", rel, 1e-11))

    speeds = []
    h = 1e-6
    for t in (0.0, 0.5, 1.0, 2.0):
        gp = dense_geodesic([ghat], [xhat], t + h)[0]
        gm = dense_geodesic([ghat], [xhat], t - h)[0]
        speeds.append(np.linalg.norm((gp - gm) / (2 * h) @ np.linalg.inv(
            dense_geodesic([ghat], [xhat], t)[0])))
    spread = (max(speeds) - min(speeds)) / speeds[0]
    checks.append(_check("constant_speed", spread, 1e-4))

    small, big = mode_velocity_norms(blocks, x1)
    t_far = 100.0 / max(small, 1e-10)
    far, _ = lowrank_geodesic_step(blocks, x1, t_far, repivot_tol=0.0)
    sv = np.linalg.svd(far.g11, compute_uv=False)
    ok = np.all(np.isfinite(far.g1)) and sv[-1] > 0.0
    checks.append(_check("completeness_far_time", 0.0 if ok else 1.0, 0.5))
    return checks


def _suite_manifold(kind, rng):
    checks = []
    if kind == "cp":
        shape = hq.make_shape("cp", (8, 7, 6), (3,))
        square = hq.make_shape("cp", (2, 2, 2), (2,))
        nonsq = hq.make_shape("cp", (3, 3, 3), (2,))
        fix_tol = 1e-13
    elif kind == "tucker":
        shape = hq.make_shape("tucker", (6, 4, 4), (4, 2, 2))
        square = hq.make_shape("tucker", (4, 2, 2), (4, 2, 2))
        nonsq = hq.make_shape("tucker", (5, 2, 2), (4, 2, 2))
        fix_tol = 1e-12
    else:
        shape = hq.make_shape("tt", (6, 8, 5), (2, 2))
        square = hq.make_shape("tt", (2, 4, 2), (2, 2))
        nonsq = hq.make_shape("tt", (3, 4, 2), (2, 2))
        fix_tol = 1e-12

    ref = shape.reference_tensor()
    worst = 0.0
    for s in range(20):
        h = shape.stabilizer_sample(rng).group_element()
        worst = max(worst, float(np.abs(mode_apply(h, ref) - ref).max()))
    checks.append(_check("stabilizer_fixes_reference", worst, fix_tol))

    p, x = random_point_and_tangent(shape, rng)
    emb = hq.embed(p)
    cols = [mb.leading_columns() for mb in p.modes]
    if kind == "cp":
        oracle = contract_cp(cols)
    elif kind == "tucker":
        oracle = contract_tucker(shape.core_identity(), cols)
    else:
        oracle = contract_tt(shape.cores_from_columns(cols))
    checks.append(_check("embed_vs_naive_contraction",
                         np.abs(emb - oracle).max() / np.abs(oracle).max(),
                         1e-12))

    if kind == "tt":
        rk_ok = tt_rank(emb) == shape.ranks
    else:
        rk_ok = multilinear_rank(emb) == shape.ks
    checks.append(_check("embedded_rank", 0.0 if rk_ok else 1.0, 0.5))

    g = hq.densify(p)
    xa = hq.lift_tangent(p, x)
    q, _ = hq.geodesic(p, x, 1.0)
    cols_d = dense_geodesic(g, xa, 1.0)
    emb_d = shape.embed_columns([f[:, :k] for f, k in zip(cols_d, shape.ks)])
    emb_l = hq.embed(q)
    checks.append(_check("geodesic_vs_dense_oracle",
                         np.linalg.norm(emb_l - emb_d) / np.linalg.norm(emb_d),
                         1e-10))

    led = FlopLedger()
    _, zs = itemized_geodesic(p, x, 1.0, led)
    residual = led.total - geodesic_formula(shape.dims, shape.ks,
                                            [max(1, z) for z in zs])
    slack = 100 * sum(n * k + k * k for n, k in zip(shape.dims, shape.ks))
    checks.append(_check("flop_total_vs_formula", abs(float(residual)), slack))

    rep_sq = hq.reductive_check(square, 25, int(rng.integers(1 << 31)))
    checks.append(_check("reductive_square_invariance",
                         rep_sq.max_invariance_residual, 1e-12))
    rep_ns = hq.reductive_check(nonsq, 25, int(rng.integers(1 << 31)))
    checks.append(_check("reductive_witness_found",
                         0.0 if rep_ns.witness_residual >= 0.05 else 1.0, 0.5))

    h = shape.stabilizer_sample(rng).group_element()
    p2 = hq.transport_point(p, h)
    x2 = hq.project_horizontal(p2, hq.transport_tangent(xa, h))
    e2 = hq.embed(hq.geodesic(p2, x2, 1.0)[0])
    checks.append(_check("representative_independence",
                         np.linalg.norm(emb_l - e2) / np.linalg.norm(emb_l),
                         1e-8))
    return checks


SUITES = {
    "psi": _suite_psi,
    "gl": _suite_gl,
    "cp": functools.partial(_suite_manifold, "cp"),
    "tucker": functools.partial(_suite_manifold, "tucker"),
    "tt": functools.partial(_suite_manifold, "tt"),
}


def cmd_verify(args, out):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    report = {"command": "verify", "seed": args.seed, "suites": []}
    for name in names:
        checks = SUITES[name](np.random.default_rng(args.seed))
        passed = all(c["passed"] for c in checks)
        report["suites"].append({"suite": name, "passed": passed,
                                 "checks": checks})
    report["passed"] = all(s["passed"] for s in report["suites"])
    out.write(json.dumps(report, indent=2) + "\n")
    return 0 if report["passed"] else 1


def cmd_flops(args, out):
    res = audit_geodesic(args.manifold, args.dims, args.ranks, args.z,
                         seed=args.seed)
    if args.format == "json":
        payload = {
            "command": "flops", "manifold": res.manifold,
            "dims": list(res.dims), "ks": list(res.ks), "z": list(res.zs),
            "rows": [{"mode": r.mode, "item": r.label,
                      "recorded": str(r.recorded), "expected": str(r.expected),
                      "exact": r.exact} for r in res.rows],
            "ledger_total": str(res.ledger_total),
            "formula": str(res.formula_total),
            "residual": str(res.residual), "slack": str(res.slack),
            "all_exact": res.all_exact, "within_slack": res.within_slack,
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        out.write(f"# manifold={res.manifold} dims={res.dims} ks={res.ks} "
                  f"z={res.zs}\n")
        out.write("mode,item,recorded,expected,exact\n")
        for r in res.rows:
            out.write(f"{r.mode},{r.label},{r.recorded},{r.expected},"
                      f"{str(r.exact).lower()}\n")
        out.write(f"total,ledger,{res.ledger_total},,\n")
        out.write(f"total,formula,{res.formula_total},,\n")
        out.write(f"total,residual,{res.residual},slack,{res.slack}\n")
    return 0 if (res.all_exact and res.within_slack) else 1


def cmd_bench(args, out):
    rows = bench_sweep(args.manifold, args.rank, args.sizes,
                       trials=args.trials, seed=args.seed,
                       oracle_cap=args.oracle_cap)
    if args.format == "json":
        # the CSV's fields; flops_model, a Fraction, as its text
        fields = CSV_HEADER.split(",")
        payload = {"command": "bench", "header": CSV_HEADER,
                   "rows": [{f: getattr(r, f) for f in fields} for r in rows]}
        out.write(json.dumps(payload, indent=2, default=str) + "\n")
        return 0
    out.write(CSV_HEADER + "\n")
    for r in rows:
        out.write(r.csv_row() + "\n")
    return 0


def _path_error(verb, path, exc):
    """Report a file that cannot be read or written; returns exit code 2."""
    reason = getattr(exc, "strerror", None) or exc
    print(f"error: cannot {verb} {path}: {reason}", file=sys.stderr)
    return 2


def cmd_geodesic(args, out):
    path = args.point
    try:
        point = tio.read_point(path)
        path = args.tangent
        tangent = tio.read_tangent(path, point)
    except (OSError, UnicodeDecodeError) as exc:
        return _path_error("read", path, exc)
    except tio.FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    res = hq.horizontality_residual(point, tangent)
    if res > args.tol:
        print(f"tangent is not horizontal: residual {res:.3e} exceeds "
              f"tolerance {args.tol:.3e}", file=sys.stderr)
        return 1
    try:
        new_point, _ = hq.geodesic(point, tangent, args.t)
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {tio.one_based(exc)}", file=sys.stderr)
        return 1
    text = tio.dump_point(new_point)
    if not args.out_file:
        out.write(text)
        return 0
    try:
        with open(args.out_file, "w") as fh:
            fh.write(text)
    except OSError as exc:
        return _path_error("write", args.out_file, exc)
    return 0


def _finite_float(text):
    """argparse type of ``-t`` and ``--tol``: a finite float, or exit 2."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every
    caller: parsing does not change it, and no caller may."""
    ap = argparse.ArgumentParser(
        prog="tensorgeo",
        description="Fixed-rank tensor manifolds: invariant suites, flop "
                    "audits, benchmarks, and geodesic evaluation.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite", choices=["psi", "gl", "cp", "tucker", "tt", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("flops", help="audit the itemized update of one "
                                     "geodesic")
    p.add_argument("--manifold", choices=["cp", "tucker", "tt"], required=True)
    p.add_argument("--dims", type=int, nargs="+", required=True)
    p.add_argument("--ranks", type=int, nargs="+", required=True)
    p.add_argument("--z", type=int, nargs="+", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("bench", help="timing sweep of the per-mode update "
                                     "of one synthetic mode",
                       description="Time the production (Gram-form) step of "
                                   "one synthetic mode at each size.  The z "
                                   "and flops_model columns are the paper's "
                                   "published itemization: its scaling "
                                   "exponent and its count, "
                                   "110 n r^2 / 3 + (146 + 36 z) r^3, not "
                                   "the work of the timed Gram step "
                                   "(about 12 n r^2 + O(r^3 z)).  The "
                                   "dense rows run on the process's BLAS "
                                   "threads, so their size-to-size ratio "
                                   "measures the host's thread scaling "
                                   "along with the O(n^3) cost; set "
                                   "OPENBLAS_NUM_THREADS=1 for scaling "
                                   "that does not depend on it.")
    p.add_argument("--manifold", choices=["cp", "tucker", "tt"], default="cp",
                   help="label of the output rows only; every manifold times "
                        "the same synthetic mode")
    p.add_argument("--rank", type=int, default=5)
    p.add_argument("--sizes", type=int, nargs="+", required=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--oracle-cap", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("geodesic", help="geodesic on serialized files")
    p.add_argument("point")
    p.add_argument("tangent")
    p.add_argument("-t", type=_finite_float, default=1.0)
    p.add_argument("--tol", type=_finite_float, default=1e-8, help=(
        "refuse a tangent whose residual max_a |<w, v_a>| / (||v_a P|| "
        "(1 + ||w||)), P the projector onto span(G1), exceeds TOL; the "
        "point file's perm: lines do not change it"))
    p.add_argument("--out", dest="out_file", default=None)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    # geodesic's --out is ``out_file``: it writes only after a step succeeds
    out_path = getattr(args, "out", None)
    if not out_path:
        return _dispatch(args, sys.stdout)
    try:
        fh = open(out_path, "w")
    except OSError as exc:
        return _path_error("write", out_path, exc)
    with fh:
        return _dispatch(args, fh)


def _dispatch(args, out):
    if args.command == "verify":
        return cmd_verify(args, out)
    if args.command == "flops":
        return cmd_flops(args, out)
    if args.command == "bench":
        return cmd_bench(args, out)
    return cmd_geodesic(args, out)


if __name__ == "__main__":
    sys.exit(main())
