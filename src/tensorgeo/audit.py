"""Flop audits against the published counts, and timing benchmarks.

An audit runs the paper's itemized update of one geodesic
(``itemized_geodesic``), scales the tangent mode by mode so each mode lands
on a requested scaling exponent, and compares every recorded ledger line
with its published itemization value as exact rationals.  The production
step, ``group.lowrank_geodesic_step``, is the Gram form and takes no
ledger.  A benchmark times that step across a sweep of mode sizes,
optionally alongside the dense-oracle path.
"""

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import homogeneous as hq
from .cp import cp_random_point
from .flops import FlopLedger, geodesic_formula, mode_step_items
from .group import (ModeBlocks, itemized_step, lowrank_geodesic_step,
                    mode_velocity_norms, reduce_columns)
from .psi import make_scaling_plan
from .tt import tt_random_point
from .tucker import tucker_random_point

STEP_LABELS = {
    "gamma12": "build Gamma12",
    "build_B": "build B",
    "BA": "multiply B and A",
    "psi1_BA": "evaluate psi1(BA)",
    "BpAp": "multiply B' and A'",
    "psi1_BpAp": "evaluate psi1(B'A')",
    "term2": "second term",
    "term3": "third term",
    "term4": "fourth term",
}

CSV_HEADER = "manifold,n,r,z,flops_model,time_median_s,seed"


_RANDOM_POINT = {"cp": cp_random_point, "tucker": tucker_random_point,
                 "tt": tt_random_point}


def random_point_and_tangent(shape, rng):
    p = _RANDOM_POINT[shape.name](shape, rng)
    return p, hq.random_horizontal(p, rng)


def pin_mode_exponents(point, tangent, z_targets):
    """Rescale each mode so its shared psi1 exponent is exactly z_i >= 2.

    The update derives z from the larger of ||BA|| and ||B'A'||.  The second
    is bounded below by ||B B^T|| independently of the tangent, and B scales
    inversely with the representative's columns, so each mode first inflates
    its column blocks enough to push that floor below the target norm
    3 * 2^(z-4) and then bisects the tangent scale onto the target, which
    sits strictly inside the exponent's bin.  Returns a rebuilt (point,
    tangent) pair; counts depend only on dimensions and z, so the changed
    base point is immaterial to the audit.
    """
    new_blocks = []
    new_x1s = []
    for mb, x1, z in zip(point.modes, tangent.modes, z_targets):
        if z < 2:
            raise ValueError("target exponents must be >= 2")
        target = 3.0 * 2.0 ** (z - 4)
        floor = mode_velocity_norms(mb, 0.0 * x1)[1]
        lam = max(1.0, np.sqrt(floor / (0.45 * target)))
        mb = ModeBlocks(mb.perm, lam * mb.g11, lam * mb.g21)
        top = lambda s: max(mode_velocity_norms(mb, s * x1))
        lo, hi = 0.0, 1.0
        while top(hi) < target:
            hi *= 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if top(mid) < target:
                lo = mid
            else:
                hi = mid
        new_blocks.append(mb)
        new_x1s.append(hi * x1)
    return hq.Point(point.shape, new_blocks), hq.ManifoldTangent(new_x1s)


def itemized_geodesic(point, tangent, t, ledger):
    """The paper's itemized update of every mode, charged under ``mode{i}.``.

    The audit's reference for ``homogeneous.geodesic``: the same tensor to
    rounding, each mode under the z of its own psi1 arguments.  Returns
    (the ambient n x k leading columns of each mode, the per-mode
    exponents).
    """
    hq.check_tangent(point, tangent)
    cols, zs = [], []
    for i, (mb, x1) in enumerate(zip(point.modes, tangent.modes)):
        g1, z = itemized_step(mb, x1, t, ledger, f"mode{i}.")
        c = np.empty_like(g1)
        c[mb.perm] = g1
        cols.append(c)
        zs.append(z)
    return cols, zs


@dataclass
class AuditRow:
    mode: int
    item: str
    label: str
    recorded: Fraction
    expected: Fraction

    @property
    def exact(self):
        return self.recorded == self.expected


@dataclass
class AuditResult:
    manifold: str
    dims: tuple
    ks: tuple
    zs: list
    rows: list
    ledger_total: Fraction
    formula_total: Fraction
    residual: Fraction
    slack: Fraction

    @property
    def all_exact(self):
        return all(r.exact for r in self.rows)

    @property
    def within_slack(self):
        return abs(self.residual) <= self.slack


def audit_geodesic(manifold, dims, ranks, z_targets, seed=0, t=1.0):
    """One itemized geodesic with pinned exponents, line-by-line audit."""
    shape = hq.make_shape(manifold, tuple(dims), tuple(ranks))
    if len(z_targets) != len(shape.dims):
        raise ValueError("need one z per mode")
    rng = np.random.default_rng(seed)
    point, tangent = random_point_and_tangent(shape, rng)
    point, tangent = pin_mode_exponents(point, tangent, z_targets)
    ledger = FlopLedger()
    _, zs = itemized_geodesic(point, tangent, t, ledger)
    rows = []
    for i, (n, k) in enumerate(zip(shape.dims, shape.ks)):
        for item, expected in mode_step_items(n, k, zs[i]):
            rows.append(AuditRow(i, item, STEP_LABELS[item],
                                 ledger.per_step[f"mode{i}.{item}"], expected))
    formula = geodesic_formula(shape.dims, shape.ks, zs)
    slack = Fraction(100) * sum(n * k + k * k
                                for n, k in zip(shape.dims, shape.ks))
    return AuditResult(manifold, shape.dims, shape.ks, zs, rows,
                       ledger.total, formula, ledger.total - formula, slack)


# ---------------------------------------------------------------------------
# timing

@dataclass
class BenchRecord:
    manifold: str
    n: int
    r: int
    z: int
    flops_model: Fraction
    times: tuple        # wall seconds of each round, in round order
    seed: int

    @property
    def time_median_s(self):
        return float(np.median(self.times))

    def csv_row(self):
        return (f"{self.manifold},{self.n},{self.r},{self.z},"
                f"{self.flops_model},{self.time_median_s:.6g},{self.seed}")


def _single_mode_instance(n, k, rng):
    """Blocks and column-major tangent columns of one n-row, k-column mode."""
    blocks = reduce_columns(hq.random_columns(n, k, rng))
    return blocks, np.asfortranarray(rng.standard_normal((n, k)))


def _round_times(calls, trials):
    """Per-round wall times of each zero-argument call, after a warm-up.

    Every round times each call once, so a drift in the host's speed lands
    on all of them alike instead of on whichever call ran last.
    """
    for call in calls:
        call()
    times = [[] for _ in calls]
    for _ in range(max(5, trials)):
        for call, ts in zip(calls, times):
            t0 = time.perf_counter()
            call()
            ts.append(time.perf_counter() - t0)
    return [tuple(ts) for ts in times]


def time_lowrank_modes(ns, r, trials=5, seed=0):
    """Wall times of one per-mode low-rank update at each size in ns.

    The trials of the sizes are interleaved; one record per size.  Its z
    and model flops are the itemized update's, the published count's own
    exponent, read from the velocity cores' norms.
    """
    from .flops import mode_step_total
    cases = [_single_mode_instance(n, r, np.random.default_rng(seed))
             for n in ns]
    zs = [make_scaling_plan(max(mode_velocity_norms(blocks, x1, 1.0))).z
          for blocks, x1 in cases]
    times = _round_times(
        [lambda c=c: lowrank_geodesic_step(*c, 1.0) for c in cases], trials)
    return [BenchRecord("mode", n, r, z, mode_step_total(n, r, max(1, z)),
                        ts, seed) for n, z, ts in zip(ns, zs, times)]


def time_dense_modes(ns, r, trials=5, seed=0):
    """Wall times of the dense per-mode geodesic at each size in ns.

    The oracle path; the trials of the sizes are interleaved.
    """
    from .oracles import dense_geodesic
    cases = []
    for n in ns:
        rng = np.random.default_rng(seed)
        g = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        cases.append(([g], [rng.standard_normal((n, n)) / np.sqrt(n)]))
    times = _round_times(
        [lambda c=c: dense_geodesic(*c, 1.0) for c in cases], trials)
    return [BenchRecord("dense", n, r, 0, Fraction(0), ts, seed)
            for n, ts in zip(ns, times)]


def bench_sweep(manifold, r, ns, trials=5, seed=0, oracle_cap=400):
    """Low-rank sweep over mode sizes plus dense rows where affordable.

    Every row times the same synthetic single mode; ``manifold`` only labels
    the rows.
    """
    if list(ns) != sorted(ns):
        raise ValueError("sweep sizes must be ascending")
    rows = [BenchRecord(manifold, rec.n, r, rec.z, rec.flops_model,
                        rec.times, seed)
            for rec in time_lowrank_modes(ns, r, trials, seed)]
    dense = time_dense_modes([n for n in ns if n <= oracle_cap], r, trials,
                             seed)
    return rows + [BenchRecord(manifold + "_dense", rec.n, r, 0, Fraction(0),
                               rec.times, seed) for rec in dense]
