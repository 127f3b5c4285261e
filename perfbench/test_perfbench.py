"""The benchmark's own tests: python -m pytest -q perfbench"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tensorgeo.group import ModeBlocks  # noqa: E402

WORKLOADS = ("tall", "small", "pipeline")
NOT_EXACT = (".self_s", "group.model_gflops_s", "trace.overhead")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end_metrics_match_spec(spec, workload):
    res = _result(_run(ROOT, "--workload", workload, "--seed", "3",
                       "--seconds", "1", "--trace", "0", "--tiny"))
    assert res["correct"] and res["attempted"] >= 1
    if workload != "small":
        assert res["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_per_layer_metrics_match_spec(spec, workload):
    res = _result(_run(ROOT, "--workload", workload, "--seed", "3",
                       "--seconds", "1", "--trace", "1", "--tiny"))
    assert res["correct"]
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want


def _traced_counts(workload, tag):
    out = os.path.join(run.OUT_DIR, f"test-{workload}-{tag}.json")
    os.makedirs(run.OUT_DIR, exist_ok=True)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                    "--workload", workload, "--seed", "5", "--ops", "12",
                    "--trace", "--tiny", "--workdir", run.OUT_DIR,
                    "--result", out], check=True, timeout=170,
                   env={**os.environ, **run.ENV})
    with open(out) as fh:
        layers = json.load(fh)["layers"]
    os.remove(out)
    return {k: v for k, v in layers.items() if not k.endswith(NOT_EXACT)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_runs_of_one_seed(workload):
    first = _traced_counts(workload, "a")
    assert first["trace.ops"] == 12
    assert first["group.lowrank_geodesic_step.calls"] > 0
    assert first == _traced_counts(workload, "b")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_output_counts_as_failed(workload):
    cls = workloads.WORKLOADS[workload]
    wl = cls(7, True, run.OUT_DIR) if workload == "pipeline" else cls(7, True)
    try:
        i = next(i for i in range(30) if _completes(wl, i))
        out = wl.run(wl.prepare(i))
        assert wl.check(wl.prepare(i), out) == "ok"
        assert wl.check(wl.prepare(i), _perturb(workload, out, 1e-3)) \
            == "mismatch"
        assert wl.check(wl.prepare(i), _perturb(workload, out, np.nan)) \
            == "nonfinite"
    finally:
        wl.close()


def _completes(wl, i):
    try:
        wl.run(wl.prepare(i))
        return True
    except ValueError:
        return False


def _perturb(workload, out, eps):
    """Copy of an op's output with one entry scaled by 1 + eps, or NaN."""
    def bump(a):
        a = a.copy()
        a.flat[0] = a.flat[0] * (1 + eps) if np.isfinite(eps) else eps
        return a
    if workload == "tall":
        mb = out.modes[1]
        blocks = ModeBlocks(mb.perm, mb.g11, mb.g21.copy())
        blocks.g21[...] = bump(mb.g21)
        return type(out)(out.shape, (out.modes[0], blocks, *out.modes[2:]))
    if workload == "pipeline":
        return out[0], out[1], bump(out[2])
    return bump(out)


def test_same_seed_gives_same_attempted_and_failed():
    args = ("--workload", "small", "--seed", "4", "--seconds", "1",
            "--trace", "0", "--tiny")
    first, second = (_result(_run(ROOT, *args)) for _ in range(2))
    cls = workloads.Small
    assert first["attempted"] == cls.n_ops(1) * cls.passes
    assert first["failed"] > 0
    assert (first["attempted"], first["failed"]) == \
        (second["attempted"], second["failed"])


def test_summary_keeps_each_ops_fastest_pass():
    passes = [[(0, 0.004, "ok"), (1, 0.010, "ok"), (0, 0.002, "raised:X")],
              [(0, 0.001, "ok"), (1, 0.030, "ok"), (0, 0.003, "raised:X")]]
    metrics, per_manifold, beyond = run.summarize(passes, ("a", "b"), 50.0)
    assert per_manifold == {"a": (0.0015, 2), "b": (0.010, 1)}
    assert metrics["ops_per_s"] == pytest.approx(2 / 0.013)
    assert metrics["latency_p50_ms"] == pytest.approx(5.75)
    assert metrics["latency_tail_ms"] == pytest.approx(2.0)
    assert beyond == 1
    assert metrics["success_rate"] == pytest.approx(4 / 6)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "tall", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
