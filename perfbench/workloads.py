"""The benchmark's workloads: inputs from a seed, one timed op, its oracle check.

Every workload cycles through its manifolds in a fixed order, one op each
(op ``i`` uses manifold ``i % len(manifolds)``), and draws the op's own
random numbers from ``default_rng([seed, stream, i])`` (``small`` takes its
t from a seeded golden-ratio sequence instead), so op ``i`` is the same in
every run of a seed whether or not the run is traced.

``prepare`` builds an op's inputs (untimed), ``run`` is the timed user-level
call, and ``check`` compares the output with ``tensorgeo.oracles``
references (untimed).  ``check`` returns "ok", "nonfinite" or "mismatch".

Why each workload exists:

* ``tall`` -- large n, small k: tall-block BLAS in ``group`` plus the
  row-selection sweep in ``dense.select_submatrix``; any n x n matrix fails.
* ``small`` -- small shapes over t in [0.1, 1000]: Python call overhead and
  k^3 work (psi1, gamma12, SVD gates), and completeness: at the seed about
  a third of its ops raise "rank-deficient input".
* ``pipeline`` -- the user's file pipeline (random point, random horizontal
  tangent, save, ``tensorgeo geodesic`` in process, read, embed): io,
  projection and the horizontality gate; it should not move when a ``tall``
  optimization lands.
"""

import math
import os

import numpy as np

from tensorgeo import cli, cp, oracles, tt, tucker
from tensorgeo import homogeneous as hq
from tensorgeo import io as tio
from tensorgeo.group import mode_velocity_norms

# Relative tolerance of every oracle comparison.  Completed ops at the seed
# agree with the dense oracle to about 1e-10 at worst (z up to 10 on tall).
TOL = 1e-8

_MANIFOLDS = {
    "cp": (cp.cp_random_point, cp.cp_random_horizontal, cp.cp_geodesic,
           cp.CpPoint, cp.CpTangent),
    "tucker": (tucker.tucker_random_point, tucker.tucker_random_horizontal,
               tucker.tucker_geodesic, tucker.TuckerPoint,
               tucker.TuckerTangent),
    "tt": (tt.tt_random_point, tt.tt_random_horizontal, tt.tt_geodesic,
           tt.TtPoint, tt.TtTangent),
}


def _shape(kind, dims, ranks):
    if kind == "cp":
        return cp.CpShape(dims, ranks)
    if kind == "tucker":
        return tucker.TuckerShape(dims, ranks)
    return tt.TtShape(dims, ranks)


def _rel_err(got, ref):
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def _oracle_columns(g, xa, t, ks):
    """Leading columns of the dense oracle geodesic, one n x k per mode."""
    return [f[:, :k] for f, k in zip(oracles.dense_geodesic(g, xa, t), ks)]


def _compare(got, ref):
    if not all(np.all(np.isfinite(a)) for a in got):
        return "nonfinite"
    if not all(np.all(np.isfinite(a)) for a in ref):
        return "mismatch"        # the output cannot be confirmed
    ok = all(_rel_err(a, b) <= TOL for a, b in zip(got, ref))
    return "ok" if ok else "mismatch"


class Workload:
    name = ""
    stream = 0
    manifolds = ()
    # Tail percentile of the per-op best latencies.
    tail_pct = 90.0
    # A run times every one of its distinct ops once per pass, in the same
    # order each pass.  ``rate`` (timed ops per second on the reference
    # machine) only sizes a run: n_ops(seconds) distinct ops make a run of
    # about ``seconds`` seconds of op time there.
    passes = 10
    rate = 1.0

    @classmethod
    def n_ops(cls, seconds):
        """Distinct ops of a run: a whole number of rounds of the manifolds."""
        m = len(cls.manifolds)
        return m * max(1, round(seconds * cls.rate / cls.passes / m))

    def __init__(self, seed):
        self.seed = seed % 2**64      # SeedSequence takes no negative entries

    def rng(self, i):
        return np.random.default_rng([self.seed, self.stream, i])

    def close(self):
        pass


# ---------------------------------------------------------------------------

class Tall(Workload):
    """CP (n, n, n) r=5 alternating with TT (n, n, n) ranks (4, 4).

    Each mode's leading columns G1 = U G0 and tangent columns A = U A0, with
    U a random n x 2k orthonormal matrix and (G0, A0) a 2k-row instance.  The
    step is equivariant under U, so the exact output is U times the dense
    oracle's columns on the 2k-row instance.  t is log-uniform over two
    decades ending where the largest mode scaling exponent z reaches 8.
    """
    name = "tall"
    stream = 1
    manifolds = ("cp", "tt")
    rate = 3.0
    Z_MAX_NORM = 64.0        # norm at which make_scaling_plan gives z = 8

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        n = 96 if tiny else 50_000
        rng = np.random.default_rng([self.seed, self.stream])
        self.cases = [self._case(rng, "cp", (n, n, n), 5, (10, 10, 10)),
                      self._case(rng, "tt", (n, n, n), (4, 4), (8, 32, 8))]

    def _case(self, rng, kind, dims, ranks, small_dims):
        random_point, random_horizontal, geodesic, point_cls, tangent_cls = \
            _MANIFOLDS[kind]
        shape = _shape(kind, dims, ranks)
        p0 = random_point(_shape(kind, small_dims, ranks), rng)
        x0 = random_horizontal(p0, rng)
        g0, xa0 = hq.densify(p0), hq.lift_tangent(p0, x0)
        us, cols, tcols = [], [], []
        for i, (n, k) in enumerate(zip(shape.dims, shape.ks)):
            u = np.linalg.qr(rng.standard_normal((n, 2 * k)))[0]
            us.append(u)
            cols.append(u @ g0.factors[i][:, :k])
            tcols.append(u @ xa0.factors[i][:, :k])
        point = hq.point_from_columns(shape, cols, point_cls)
        tangent = tangent_cls(hq.tangent_from_ambient(point, tcols).modes)

        def top_norm(t):
            return max(max(mode_velocity_norms(mb, tb, t))
                       for mb, tb in zip(p0.modes, x0.modes))
        lo, hi = 0.0, 1.0
        while top_norm(hi) < self.Z_MAX_NORM:
            hi *= 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if top_norm(mid) < self.Z_MAX_NORM else (lo, mid)
        return dict(kind=kind, shape=shape, point=point, tangent=tangent,
                    geodesic=geodesic, us=us, g0=g0, xa0=xa0, t_hi=lo)

    def prepare(self, i):
        case = self.cases[i % 2]
        t = case["t_hi"] * 10.0 ** self.rng(i).uniform(-2.0, 0.0)
        return case, t

    def run(self, inputs):
        case, t = inputs
        return case["geodesic"](case["point"], case["tangent"], t)

    def check(self, inputs, out):
        case, t = inputs
        ks = case["shape"].ks
        ref = [u @ c for u, c in zip(case["us"], _oracle_columns(
            case["g0"], case["xa0"], t, ks))]
        return _compare([mb.leading_columns() for mb in out.modes], ref)

    def working_set_bytes(self):
        """Computed: point, tangent and output columns of one op (8 B each)."""
        return {c["kind"]: 3 * 8 * sum(n * k for n, k in
                                       zip(c["shape"].dims, c["shape"].ks))
                for c in self.cases}


# ---------------------------------------------------------------------------

class Small(Workload):
    """Small shapes over a wide range of t; geodesic then embed.

    Tangents come from each manifold's random_horizontal, normalized to unit
    norm; t is log-uniform over [0.1, 1000], the full range, failures and
    all.  The j-th op of a manifold takes t = 10^(4 u_j - 1) with
    u_j = frac(u_0 + j / golden ratio) and u_0 drawn from the seed: as
    log-uniform as random draws, but evenly spread over every run's ops, so
    the share of large t, where ops fail, is nearly the same for every seed.
    """
    name = "small"
    stream = 2
    manifolds = ("cp", "tucker", "tt")
    tail_pct = 95.0
    rate = 250.0
    SPECS = (("cp", (12, 12, 12), 4),
             ("tucker", (20, 6, 6), (16, 4, 4)),
             ("tt", (8, 24, 8), (4, 4)))

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.pool_size = 4 if tiny else 24
        rng = np.random.default_rng([self.seed, self.stream])
        self.cases = []
        for kind, dims, ranks in self.SPECS:
            random_point, random_horizontal, geodesic, _, _ = _MANIFOLDS[kind]
            shape = _shape(kind, dims, ranks)
            pool = []
            for _ in range(self.pool_size):
                p = random_point(shape, rng)
                x = random_horizontal(p, rng)
                x = x.scale(1.0 / x.norm())
                pool.append((p, x, hq.densify(p), hq.lift_tangent(p, x)))
            self.cases.append(dict(kind=kind, shape=shape, pool=pool,
                                   geodesic=geodesic))
        self.u0 = rng.uniform()

    def prepare(self, i):
        case = self.cases[i % 3]
        inst = case["pool"][(i // 3) % self.pool_size]
        u = (self.u0 + (i // 3) * (math.sqrt(5.0) - 1.0) / 2.0) % 1.0
        return case, inst, 10.0 ** (4.0 * u - 1.0)

    def run(self, inputs):
        case, (p, x, _, _), t = inputs
        return hq.embed(case["geodesic"](p, x, t))

    def check(self, inputs, out):
        case, (_, _, g, xa), t = inputs
        shape = case["shape"]
        ref = shape.embed_columns(_oracle_columns(g, xa, t, shape.ks))
        return _compare([out], [ref])

    def working_set_bytes(self):
        """Computed: point, tangent, output columns and dense tensor of one op."""
        return {c["kind"]: 8 * (3 * sum(n * k for n, k in
                                        zip(c["shape"].dims, c["shape"].ks))
                                + int(np.prod(c["shape"].dims)))
                for c in self.cases}


# ---------------------------------------------------------------------------

class Pipeline(Workload):
    """The file pipeline at moderate n, t log-uniform over [0.1, 1].

    One op: fresh random point and horizontal tangent, save both, run
    ``tensorgeo geodesic`` in process, read the result, embed it.  The check
    compares the embedded tensor with the dense oracle geodesic's columns
    embedded, and a random 4 x 4 x 4 sub-block with the naive
    ``oracles.contract_*`` loops on the same rows.
    """
    name = "pipeline"
    stream = 3
    manifolds = ("cp", "tucker", "tt")
    rate = 3.5
    SPECS = (("cp", (120, 120, 120), 5),
             ("tucker", (300, 40, 40), (16, 4, 4)),
             ("tt", (40, 300, 40), (4, 4)))

    def __init__(self, seed, tiny=False, workdir="."):
        super().__init__(seed)
        self.paths = [os.path.join(workdir, f) for f in
                      ("point.txt", "tangent.txt", "out.txt")]
        self.cases = [dict(kind=kind, shape=_shape(kind, dims, ranks))
                      for kind, dims, ranks in
                      (Small.SPECS if tiny else self.SPECS)]

    def prepare(self, i):
        rng = self.rng(i)
        t = 10.0 ** rng.uniform(-1.0, 0.0)
        return self.cases[i % 3], rng, t

    def run(self, inputs):
        case, rng, t = inputs
        random_point, random_horizontal = _MANIFOLDS[case["kind"]][:2]
        p = random_point(case["shape"], rng)
        x = random_horizontal(p, rng)
        ppath, xpath, qpath = self.paths
        tio.save_point(ppath, p)
        tio.save_tangent(xpath, p, x)
        code = cli.main(["geodesic", ppath, xpath, "-t", repr(t),
                         "--out", qpath])
        if code != 0:
            raise RuntimeError(f"tensorgeo geodesic exited with {code}")
        return p, x, hq.embed(tio.read_point(qpath))

    def check(self, inputs, out):
        case, rng, t = inputs
        p, x, emb = out
        shape = case["shape"]
        cols = _oracle_columns(hq.densify(p), hq.lift_tangent(p, x), t,
                               shape.ks)
        ref = shape.embed_columns(cols)
        status = _compare([emb], [ref])
        if status != "ok":
            return status
        rows = [np.sort(rng.choice(n, size=4, replace=False))
                for n in shape.dims]
        sub = _contract_rows(case["kind"], shape, cols, rows)
        err = np.abs(emb[np.ix_(*rows)] - sub).max() / np.abs(ref).max()
        return "ok" if err <= TOL else "mismatch"

    def working_set_bytes(self):
        """Computed: point, tangent, output columns and dense tensor of one
        op, plus CP's (n, n, n, r) embedding intermediate."""
        out = {}
        for c in self.cases:
            s = c["shape"]
            size = 3 * sum(n * k for n, k in zip(s.dims, s.ks)) \
                + int(np.prod(s.dims))
            if c["kind"] == "cp":
                size += int(np.prod(s.dims)) * s.r
            out[c["kind"]] = 8 * size
        return out

    def close(self):
        for path in self.paths:
            if os.path.exists(path):
                os.remove(path)


def _contract_rows(kind, shape, cols, rows):
    """Naive-loop contraction of the given rows of each mode's columns."""
    sub = [c[r] for c, r in zip(cols, rows)]
    if kind == "cp":
        return oracles.contract_cp(sub)
    if kind == "tucker":
        return oracles.contract_tucker(shape.core_identity(), sub)
    s = shape.sfull
    return oracles.contract_tt([c.reshape(len(r), s[i], s[i + 1])
                                .transpose(1, 0, 2)
                                for i, (c, r) in enumerate(zip(sub, rows))])


WORKLOADS = {"tall": Tall, "small": Small, "pipeline": Pipeline}
