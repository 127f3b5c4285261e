"""One workload run in a fresh process; the launcher ``run.py`` starts it.

Imports tensorgeo from the checkout's ``src``, generates the seed's inputs,
warms up with one op per manifold, then runs the closed loop: one caller,
the next op only after the previous one returns and has been checked.  Op
latency covers the user-level call only; input preparation and the oracle
check run between ops, outside the timed region.

The loop makes ``--passes`` passes over ops 0 .. ``--ops``-1, in order, so
each op is timed once per pass at moments spread over the run; pass p runs
on CPU ``cpus[p % len(cpus)]`` of ``--cpus``.  A traced
run makes one pass; its exact counts cover all of its ops, so they repeat
bit for bit across runs of one seed.

Writes one JSON document to ``--result``.
"""

import time

T_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import sys
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(1, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tensorgeo  # noqa: E402

if not os.path.abspath(tensorgeo.__file__).startswith(SRC + os.sep):
    raise ImportError(f"tensorgeo was imported from {tensorgeo.__file__}, "
                      f"not from {SRC}")

from tensorgeo import cli, dense, flops, group, psi  # noqa: E402
from tensorgeo import homogeneous as hq  # noqa: E402
from tensorgeo import io as tio  # noqa: E402
from tensorgeo.cp import CpShape  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

# (span name, function) pairs; a name may cover several functions.
TRACED = (
    ("dense.select_submatrix", dense.select_submatrix),
    ("dense.mode_product", dense.mode_product),
    ("group.reduce_columns", group.reduce_columns),
    ("group.gamma12", group.gamma12),
    ("group.lowrank_geodesic_step", group.lowrank_geodesic_step),
    ("psi.psi1", psi.psi1),
    ("homogeneous.geodesic", hq.geodesic),
    ("homogeneous.embed", hq.embed),
    ("homogeneous.random_horizontal", hq.random_horizontal),
    ("homogeneous.project_horizontal", hq.project_horizontal),
    ("homogeneous.horizontality_residual", hq.horizontality_residual),
    ("io.dump", tio.dump_point),
    ("io.dump", tio.dump_tangent),
    ("io.load", tio.load_point),
    ("io.load", tio.load_tangent),
    ("cli.main", cli.main),
)
TRACED_METHODS = (("cp.embed_columns", CpShape, "embed_columns"),)
LAYER_NAMES = tuple(dict.fromkeys(
    [n for n, _ in TRACED] + [n for n, _, _ in TRACED_METHODS]))

Z_BINS = tuple(range(0, 25))       # z = 1 is never planned; 25 and up pooled


# ---------------------------------------------------------------------------
# probes: exact counts from arguments and results

def _probe_psi1(tracer, args, kwargs, result, exc):
    plan = kwargs.get("plan", args[2] if len(args) > 2 else None)
    if plan is None:
        plan = psi.make_scaling_plan(np.linalg.norm(args[0]))
    tracer.last_z = plan.z
    if tracer.current is not None:
        tracer.current.note_z(plan.z)


def _probe_step(tracer, args, kwargs, result, exc):
    """Counts one mode step by (n, k, z); flops and bytes follow at the end.

    z comes from the step's psi1 plan, so a step that fails in its final
    re-pivot still counts the model work it did.
    """
    z = result[1] if result is not None else tracer.last_z
    tracer.count(("step", args[0].n, args[0].k, z), 1)


def _step_costs(counters):
    """Model flops and computed bytes of the counted mode steps.

    Computed bytes are each step's n x k input columns (point and tangent)
    and its n x k output, 8 bytes an entry.
    """
    model, nbytes = Fraction(0), 0
    for key, count in counters.items():
        if isinstance(key, tuple) and key[0] == "step":
            _, n, k, z = key
            if z is not None:
                model += count * flops.mode_step_total(n, k, z)
            nbytes += count * 3 * 8 * n * k
    return model, nbytes


def _probe_dump(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.count("io_bytes_written", len(result.encode()))


def _probe_load(tracer, args, kwargs, result, exc):
    tracer.count("io_bytes_read", len(args[0].encode()))


PROBES = {"psi.psi1": _probe_psi1,
          "group.lowrank_geodesic_step": _probe_step,
          "io.dump": _probe_dump, "io.load": _probe_load}


def install_tracer(tracer):
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "tensorgeo" or name.startswith("tensorgeo.")]
    tracer.install(modules, TRACED, TRACED_METHODS, PROBES)


# ---------------------------------------------------------------------------

def environment(wl):
    """Machine and build facts recorded next to the results."""
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = size
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "caches": caches,
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "working_set_bytes": wl.working_set_bytes()}


def one_op(wl, i, tracer=None):
    """Run op i: returns (manifold index, latency seconds, status)."""
    inputs = wl.prepare(i)
    if tracer is not None:
        tracer.begin_op(i)
    t0 = time.perf_counter()
    try:
        out = wl.run(inputs)
        status = None
    except Exception as exc:   # a failed op is a result, not an abort
        status = "raised:" + type(exc).__name__
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_op()
    if status is None:
        status = wl.check(inputs, out)
    return i % len(wl.manifolds), t1 - t0, status


def layer_metrics(tracer, ops):
    """Per-layer metric values of a traced run (see BENCHMARK.json).

    Times are per traced op; counts are exact sums over the run's ops.
    """
    n_traced = len(ops)
    selfs = tracer.self_times()
    calls, failures, counters, z_hist = tracer.counts()
    m = {}
    for name in LAYER_NAMES:
        m[f"{name}.self_s"] = selfs.get(name, (0.0, 0))[0] / n_traced
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.failures"] = sum(v for (fn, _), v in failures.items()
                                    if fn == name)
    for z in Z_BINS:
        if z != 1:
            m[f"psi.z_hist.{z}"] = z_hist.get(z, 0)
    m["psi.z_hist.25plus"] = sum(v for z, v in z_hist.items()
                                 if z > Z_BINS[-1])
    model, nbytes = _step_costs(counters)
    step_s = tracer.inclusive_time("group.lowrank_geodesic_step")
    m["group.model_gflops_s"] = (float(model) / step_s / 1e9
                                 if step_s > 0 else 0.0)
    m["group.model_flops_per_op"] = float(model / n_traced)
    m["group.computed_bytes_per_op"] = float(Fraction(nbytes, n_traced))
    m["io.bytes_written"] = counters.get("io_bytes_written", 0)
    m["io.bytes_read"] = counters.get("io_bytes_read", 0)
    statuses = Counter(status for _, _, status in ops)
    for kind in ("ValueError", "LinAlgError"):
        m[f"ops.failed.{kind}"] = statuses.pop("raised:" + kind, 0)
    m["ops.failed.nonfinite"] = statuses.pop("nonfinite", 0)
    m["ops.failed.mismatch"] = statuses.pop("mismatch", 0)
    statuses.pop("ok", 0)
    m["ops.failed.other"] = sum(statuses.values())
    m["trace.ops"] = n_traced
    by_type = {f"{fn}:{kind}": v for (fn, kind), v in sorted(failures.items())}
    return m, by_type


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, default=1,
                    help="distinct ops per pass")
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--cpus", default="",
                    help="comma-separated CPUs that the passes take turns on")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true",
                    help="tiny shapes, for the benchmark's own tests")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Pipeline:
        wl = cls(args.seed, args.tiny, args.workdir)
    else:
        wl = cls(args.seed, args.tiny)
    try:
        for i in range(len(wl.manifolds)):
            one_op(wl, i)
        result = {"workload": wl.name, "seed": args.seed,
                  "import_s": IMPORT_S,
                  "setup_s": time.perf_counter() - T_START,
                  "manifolds": list(wl.manifolds), "tail_pct": wl.tail_pct}
        if args.setup_only:
            return _write(args.result, result)

        tracer = None
        if args.trace:
            tracer = Tracer()
            install_tracer(tracer)
        cpus = [int(c) for c in args.cpus.split(",") if c]
        passes = []
        for p in range(args.passes):
            if cpus:
                os.sched_setaffinity(0, {cpus[p % len(cpus)]})
            passes.append([one_op(wl, i, tracer) for i in range(args.ops)])
        result.update(
            passes=passes,
            busy_s=sum(t for ops in passes for _, t, _ in ops),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            environment=environment(wl))
        if tracer is not None:
            tracer.uninstall()
            result["layers"], result["failures_by_type"] = layer_metrics(
                tracer, passes[0])
            spans = os.path.join(os.path.dirname(args.result),
                                 f"spans-{wl.name}-seed{args.seed}.jsonl")
            tracer.write_spans(spans)
            result["spans_file"] = spans
        return _write(args.result, result)
    finally:
        wl.close()


def _write(path, result):
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
