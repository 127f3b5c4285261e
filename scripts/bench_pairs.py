"""Paired benchmark runs of a base revision against this checkout, as JSON.

Usage, from the root of a checkout:

    python3 scripts/bench_pairs.py --base HEAD --seeds 71-80 \
        --workloads tall small pipeline --trace-seeds 71 72 --out BENCH.json

The base revision's committed files are exported with ``git archive`` into
a temporary directory; the change is this checkout's working tree.  For
every seed ``perfbench/run.py`` runs once on each side, and the side that
runs first alternates from one seed to the next, so a drift in the host's
speed lands on both.  Per workload the output records the seeds, every
run's end-to-end metrics and failed/attempted counts, each side's median
and quartiles, how many pairs the change won on each metric (ties count for
neither), and the traced self time of the layers in ``LAYERS`` on both
sides.  Each traced run also records its exact counts, the ``psi.z_hist.*``
histogram of scaling exponents and the ``ops.failed.*`` failures by kind.
Per seed, the script prints and records whether the two sides' timed runs
attempted and failed the same number of ops, and whether their traced
counts are equal.  The output file keeps a list of such series: a run
appends its series to the file's list, so the file holds every run made.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HIGHER_IS_BETTER = {"ops_per_s", "success_rate"}
LAYERS = ("group.lowrank_geodesic_step.self_s",
          "group.lowrank_geodesic_step.calls",
          "dense.select_submatrix.self_s", "dense.select_submatrix.calls",
          "group.reduce_columns.self_s",
          "group.reduce_columns.calls", "group.gamma12.self_s",
          "group.gamma12.calls", "psi.psi1.self_s", "psi.psi1.calls",
          "io.dump.self_s", "io.load.self_s", "trace.ops")
COUNT_PREFIXES = ("psi.z_hist.", "ops.failed.")


def parse_seeds(items):
    """Seeds from tokens such as ``7`` and ``71-80`` (inclusive)."""
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(rev, dest):
    """The committed files of ``rev``, unpacked under ``dest``."""
    tar = io.BytesIO(git("archive", "--format=tar", rev))
    with tarfile.open(fileobj=tar) as fh:
        fh.extractall(dest, filter="data")


def bench(root, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` run in ``root``; its final JSON line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": out["correct"],
            "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def paired(sides, workload, seeds, seconds, trace):
    """Runs every seed on both sides, alternating which side goes first."""
    runs = {name: [] for name in sides}
    for j, seed in enumerate(seeds):
        order = list(sides) if j % 2 == 0 else list(sides)[::-1]
        for name in order:
            runs[name].append(bench(sides[name], workload, seed, seconds,
                                    trace))
            print(f"{workload} seed {seed} {name}: " + ", ".join(
                f"{k} {runs[name][-1]['metrics'][k]:.4g}"
                for k in sorted(runs[name][-1]["metrics"])
                if trace == 0 or k in LAYERS), flush=True)
    return runs


def counts(run):
    """A traced run's exact counts: z histogram and failures by kind."""
    return {k: v for k, v in run["metrics"].items()
            if k.startswith(COUNT_PREFIXES)}


def matches(runs, workload, key, what):
    """Per seed, whether ``key`` of a run is the same on both sides."""
    same = []
    for base, change in zip(runs["base"], runs["change"]):
        same.append(key(base) == key(change))
        print(f"{workload} seed {base['seed']}: {what} "
              + ("match" if same[-1] else "differ"), flush=True)
    return same


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs):
    out = {}
    for metric in runs["base"][0]["metrics"]:
        base = [r["metrics"][metric] for r in runs["base"]]
        change = [r["metrics"][metric] for r in runs["change"]]
        sign = 1.0 if metric in HIGHER_IS_BETTER else -1.0
        out[metric] = {"base": quartiles(base), "change": quartiles(change),
                       "change_wins": sum(sign * (c - b) > 0
                                          for b, c in zip(base, change)),
                       "pairs": len(base)}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD",
                    help="git revision to compare with")
    ap.add_argument("--seeds", nargs="+", required=True,
                    help="seeds of the timed pairs, e.g. 71-80")
    ap.add_argument("--trace-seeds", nargs="*", default=[],
                    help="seeds of the traced pairs")
    ap.add_argument("--workloads", nargs="+",
                    default=["tall", "small", "pipeline"])
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seeds, trace_seeds = parse_seeds(args.seeds), parse_seeds(args.trace_seeds)
    dirty = bool(git("status", "--porcelain",
                     "--untracked-files=no").strip())
    previous = []
    if os.path.exists(args.out):
        with open(args.out) as fh:
            previous = json.load(fh)["series"]
    result = {"base": git("rev-parse", args.base).decode().strip(),
              "change": git("rev-parse", "HEAD").decode().strip()
              + (" with uncommitted changes" if dirty else ""),
              "seconds": args.seconds, "command": "python3 perfbench/run.py",
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_root:
        export(result["base"], base_root)
        sides = {"base": base_root, "change": ROOT}
        for workload in args.workloads:
            runs = paired(sides, workload, seeds, args.seconds, 0)
            entry = {"seeds": seeds, "summary": summarize(runs),
                     "outcomes_match": matches(
                         runs, workload,
                         lambda r: (r["attempted"], r["failed"]),
                         "failed/attempted"),
                     "runs": runs}
            if trace_seeds:
                traced = paired(sides, workload, trace_seeds, args.seconds, 1)
                trace = {"seeds": trace_seeds,
                         "counts_match": matches(
                             traced, workload, counts,
                             "z_hist and failure counts")}
                for name in sides:
                    trace[name] = {layer: [r["metrics"][layer]
                                           for r in traced[name]]
                                   for layer in LAYERS}
                    trace[name]["counts"] = [counts(r) for r in traced[name]]
                entry["trace"] = trace
            result["workloads"][workload] = entry
            with open(args.out, "w") as fh:
                json.dump({"series": previous + [result]}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
