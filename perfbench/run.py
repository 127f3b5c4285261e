"""tensorgeo benchmark: closed-loop workloads with oracle-checked ops.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {tall,small,pipeline} --seed N \
        --seconds S --trace {0,1}

Every workload runs in fresh worker processes with single-threaded BLAS.
A run has a fixed number of distinct ops, set by the workload and
``--seconds``, so the same seed gives the same ops and the same failures.
``--trace 0`` prints the end-to-end metrics: the timed run, which makes
several passes over its ops, taking turns on the CPUs, and keeps each op's
fastest latency; plus set-up-only runs, three on each CPU with the timed
run's own, for ``setup_s``.  ``--trace 1`` prints the per-layer metrics:
one traced pass, then one untraced pass over the same ops for the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Exits with code 2, printing no result, when the checkout holds no
``src/tensorgeo`` to benchmark.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DEADLINE_S = 170.0
SETUP_RUNS = 3           # per CPU
# The CPUs a run takes turns on, at most two.  The host shares each CPU with
# other machines' work, and one can be slowed for minutes while the other is
# not, so the timed passes and the set-up runs alternate between them.
CPUS = sorted(os.sched_getaffinity(0))[:2]
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}

E2E_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "success_rate": "ratio",
             "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    pass


def layer_unit(name):
    if name.endswith(".self_s"):
        return "s/op"
    return {"group.model_gflops_s": "GFLOP/s",
            "group.model_flops_per_op": "flop/op",
            "group.computed_bytes_per_op": "B/op",
            "io.bytes_written": "B", "io.bytes_read": "B",
            "trace.overhead": "ratio"}.get(name, "count")


def run_worker(args, extra, tag, t_end, cpu=None):
    """Runs worker.py in a fresh process, started on ``cpu`` if given."""
    result = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-{tag}.json")
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir, "--result", result] + extra
    if args.tiny:
        cmd.append("--tiny")
    if os.path.exists(result):
        os.remove(result)
    remaining = t_end - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the " + tag + " run")
    try:
        proc = subprocess.run(
            cmd, env=os.environ, cwd=ROOT, stdout=sys.stderr,
            timeout=remaining, preexec_fn=None if cpu is None else (
                lambda: os.sched_setaffinity(0, {cpu})))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} run exceeded the time limit") from None
    finally:
        if os.path.isdir(workdir) and not os.listdir(workdir):
            os.rmdir(workdir)
    if proc.returncode != 0:
        raise BenchError(f"{tag} run exited with {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def tail_latency(lat, pct):
    """Nearest-rank percentile: (value, samples beyond it)."""
    lat = sorted(lat)
    rank = max(1, math.ceil(pct / 100 * len(lat) - 1e-9))
    return lat[rank - 1], len(lat) - rank


def summarize(passes, manifolds, pct):
    """End-to-end metrics from the timed run's passes.

    ``passes[p][i]`` is (manifold, latency, status) of op i in pass p.  An
    op's latency is its fastest pass: the passes time it at moments spread
    over the run, and the shared host's speed changes from second to second.
    """
    best = [min(t for _, t, _ in runs) for runs in zip(*passes)]
    kinds = [m for m, _, _ in passes[0]]
    passed = [all(s == "ok" for _, _, s in runs) for runs in zip(*passes)]
    per_manifold = {}
    for m, name in enumerate(manifolds):
        mine = [t for mm, t in zip(kinds, best) if mm == m]
        per_manifold[name] = (statistics.median(mine), len(mine))
    tail, beyond = tail_latency(best, pct)
    runs = [s for ops in passes for _, _, s in ops]
    return {
        "ops_per_s": sum(passed) / sum(best),
        # mean of per-manifold medians: the workloads mix manifolds of very
        # different cost in equal shares, and a pooled median would sit in
        # the gap between them
        "latency_p50_ms": 1e3 * statistics.fmean(
            v for v, _ in per_manifold.values()),
        "latency_tail_ms": 1e3 * tail,
        "success_rate": runs.count("ok") / len(runs),
    }, per_manifold, beyond


def bench_e2e(args, cls, t_end):
    n = cls.n_ops(args.seconds)
    main = run_worker(args, ["--ops", str(n), "--passes", str(cls.passes),
                             "--cpus", ",".join(map(str, CPUS))],
                      "timed", t_end, CPUS[0])
    setups = {cpu: [] for cpu in CPUS}
    setups[CPUS[0]].append(main["setup_s"])
    for j in range(1, SETUP_RUNS * len(CPUS)):
        cpu = CPUS[j % len(CPUS)]
        setups[cpu].append(run_worker(args, ["--setup-only"], f"setup{j}",
                                      t_end, cpu)["setup_s"])
    passes = main["passes"]
    metrics, per_manifold, beyond = summarize(passes, main["manifolds"],
                                              cls.tail_pct)
    metrics["peak_rss_mb"] = main["peak_rss_mb"]
    # the median set-up time on the CPU where it was shortest
    metrics["setup_s"] = min(statistics.median(v) for v in setups.values())

    ops = [op for ops in passes for op in ops]
    print(f"workload {args.workload}  seed {args.seed}  closed loop, "
          f"1 caller, {n} distinct ops x {len(passes)} passes in "
          f"{main['busy_s']:.2f} s of op time")
    print(f"environment {json.dumps(main['environment'], sort_keys=True)}")
    status = Counter(s for _, _, s in ops)
    print(f"op status {json.dumps(status, sort_keys=True)}  "
          f"error_rate {1.0 - metrics['success_rate']:.4f}")
    every = statistics.median(t for _, t, _ in ops)
    print(f"  all passes: median {1e3 * every:.3f} ms; latencies below are "
          f"each op's fastest pass")
    for name, (med, k) in per_manifold.items():
        print(f"  {name}: median {1e3 * med:.3f} ms over {k} ops")
    print(f"  tail = p{cls.tail_pct:g} over {n} ops ({beyond} beyond)")
    for cpu, v in setups.items():
        print(f"  setup runs on cpu {cpu}: "
              f"{', '.join(f'{s:.3f}' for s in v)} s")
    print(f"  import {main['import_s']:.3f} s in the timed run")
    for name, value in metrics.items():
        print(f"{name:>16s} {value:.6g} {E2E_UNITS[name]}")
    return ops, metrics, E2E_UNITS


def bench_trace(args, cls, t_end):
    n = cls.n_ops(args.seconds)
    traced = run_worker(args, ["--ops", str(n), "--trace"], "traced", t_end,
                        CPUS[0])
    base = run_worker(args, ["--ops", str(n)], "untraced", t_end, CPUS[0])
    ops = traced["passes"][0]
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = (sum(t for _, t, _ in ops)
                                 / sum(t for _, t, _ in base["passes"][0]))
    print(f"workload {args.workload}  seed {args.seed}  traced run: "
          f"{n} ops, one pass")
    print(f"spans written to {os.path.relpath(traced['spans_file'], ROOT)}")
    print(f"failures by function and type: "
          f"{json.dumps(traced['failures_by_type'], sort_keys=True)}")
    units = {name: layer_unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name:>44s} {value:.6g} {units[name]}")
    return ops, metrics, units


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["tall", "small", "pipeline"],
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny shapes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "tensorgeo",
                                       "__init__.py")):
        print(f"error: no src/tensorgeo under {ROOT}; nothing to benchmark",
              file=sys.stderr)
        return 2
    os.environ.update(ENV)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS
    os.makedirs(OUT_DIR, exist_ok=True)
    t_end = time.monotonic() + DEADLINE_S
    try:
        bench = bench_trace if args.trace else bench_e2e
        ops, metrics, units = bench(args, WORKLOADS[args.workload], t_end)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(1 for _, _, s in ops if s != "ok")
    bad = sum(1 for _, _, s in ops if s in ("mismatch", "nonfinite"))
    print(json.dumps({
        "correct": bad == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
