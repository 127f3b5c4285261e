import tracemalloc
from contextlib import nullcontext
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import tensorgeo.group as group
import tensorgeo.homogeneous as hq
import tensorgeo.io as tio
from conftest import MANIFOLDS, manifold_shapes, rel_err
from tensorgeo import CpShape, TtShape
from tensorgeo.dense import select_submatrix
from tensorgeo.flops import (FlopLedger, gamma12_count, mode_step_items,
                             mode_step_total)
from tensorgeo.group import (AlgebraElement, GroupElement, ModeBlocks, _bpap,
                             _coupling, adjoint, euclidean_inner, gamma12,
                             itemized_step, lowrank_geodesic_step,
                             mode_velocity_norms, reduce_columns,
                             right_invariant_inner)
from tensorgeo.oracles import dense_geodesic, mpmath_geodesic
from tensorgeo.psi import make_scaling_plan, max_norm


def _alg(rng, dims):
    return AlgebraElement([rng.standard_normal((n, n)) for n in dims])


def _grp(rng, dims):
    return GroupElement([rng.standard_normal((n, n)) + 2 * np.eye(n)
                         for n in dims])


def test_euclidean_inner():
    rng = np.random.default_rng(0)
    z = _alg(rng, (3, 4))
    w = _alg(rng, (3, 4))
    want = sum(float(np.sum(a * b)) for a, b in zip(z.factors, w.factors))
    assert euclidean_inner(z, w) == pytest.approx(want, rel=1e-15)
    assert euclidean_inner(z, z) == pytest.approx(
        sum(np.linalg.norm(f) ** 2 for f in z.factors), rel=1e-14)
    a = AlgebraElement([np.eye(2) * 0, np.zeros((3, 3))])
    b = AlgebraElement([np.zeros((2, 2)), np.zeros((3, 3))])
    a.factors[0][0, 1] = 1.0
    b.factors[0][1, 0] = 1.0
    assert euclidean_inner(a, b) == 0.0


def test_right_invariant_inner():
    rng = np.random.default_rng(1)
    dims = (4, 3)
    g = _grp(rng, dims)
    x, y = _alg(rng, dims), _alg(rng, dims)
    eye = GroupElement([np.eye(n) for n in dims])
    assert right_invariant_inner(eye, x, y) == pytest.approx(
        euclidean_inner(x, y), rel=1e-13)
    # invariance under right translation
    h = _grp(rng, dims)
    xh = AlgebraElement([a @ b for a, b in zip(x.factors, h.factors)])
    yh = AlgebraElement([a @ b for a, b in zip(y.factors, h.factors)])
    gh = GroupElement([a @ b for a, b in zip(g.factors, h.factors)])
    assert right_invariant_inner(gh, xh, yh) == pytest.approx(
        right_invariant_inner(g, x, y), rel=1e-12)
    # scalar case
    a, v = 1.7, -0.4
    got = right_invariant_inner(GroupElement([[[a]]]),
                                AlgebraElement([[[v]]]),
                                AlgebraElement([[[v]]]))
    assert got == pytest.approx(v * v / (a * a), rel=1e-15)


# gl_exp: the GL geodesic exp_g(X) by its dense evaluation, the reference of
# every low-rank step

def test_gl_exp_basics():
    rng = np.random.default_rng(2)
    dims = (4,)
    g = _grp(rng, dims)
    x = _alg(rng, dims)
    assert np.abs(dense_geodesic(g, x, 0.0)[0] - g.factors[0]).max() < 1e-15
    # scalar mode: antisymmetric part vanishes, e^{t v / a} a
    a, v, t = 1.3, 0.8, 0.6
    got = dense_geodesic(GroupElement([[[a]]]), AlgebraElement([[[v]]]), t)[0]
    assert got[0, 0] == pytest.approx(np.exp(t * v / a) * a, rel=1e-14)


def test_gl_exp_initial_velocity_fd():
    rng = np.random.default_rng(3)
    dims = (5, 4)
    g = _grp(rng, dims)
    x = _alg(rng, dims)
    h = 1e-6
    for i in range(2):
        fd = (dense_geodesic(g, x, h)[i] - g.factors[i]) / h
        assert np.linalg.norm(fd - x.factors[i]) <= 1e-5 * (
            1 + np.linalg.norm(x.factors[i]))


def test_gl_exp_constant_speed():
    rng = np.random.default_rng(4)
    dims = (5,)
    g = _grp(rng, dims)
    x = _alg(rng, dims)
    h = 1e-6
    speeds = []
    for t in (0.0, 0.5, 1.0, 2.0):
        gp = dense_geodesic(g, x, t + h)[0]
        gm = dense_geodesic(g, x, t - h)[0]
        gc = dense_geodesic(g, x, t)[0]
        speeds.append(np.linalg.norm((gp - gm) / (2 * h) @ np.linalg.inv(gc)))
    assert (max(speeds) - min(speeds)) / speeds[0] <= 1e-4


def test_gl_exp_completeness():
    rng = np.random.default_rng(6)
    dims = (6,)
    for _ in range(50):
        g = _grp(rng, dims)
        x = _alg(rng, dims)
        w = x.factors[0] @ np.linalg.inv(g.factors[0])
        t = 100.0 / np.linalg.norm(w)
        far = dense_geodesic(g, x, t)[0]
        assert np.all(np.isfinite(far))
        assert np.linalg.svd(far, compute_uv=False)[-1] > 0.0


def test_adjoint():
    rng = np.random.default_rng(7)
    dims = (4, 3)
    h = _grp(rng, dims)
    x = _alg(rng, dims)
    assert np.abs(adjoint(GroupElement([np.eye(n) for n in dims]), x).factors[0]
                  - x.factors[0]).max() == 0
    hinv = GroupElement([np.linalg.inv(f) for f in h.factors])
    back = adjoint(h, adjoint(hinv, x))
    for a, b in zip(back.factors, x.factors):
        assert np.abs(a - b).max() < 1e-12 * (1 + np.abs(b).max())
    # diagonal conjugation scales an off-diagonal entry by d_a/d_b
    d = np.diag([2.0, 5.0, 3.0])
    e = np.zeros((3, 3))
    e[0, 2] = 1.0
    out = adjoint(GroupElement([d]), AlgebraElement([e])).factors[0]
    assert out[0, 2] == pytest.approx(2.0 / 3.0, rel=1e-15)


# ---------------------------------------------------------------------------

def _random_blocks(rng, n, k):
    return reduce_columns(hq.random_columns(n, k, rng))


def test_gamma12_zero_g21():
    mb = ModeBlocks(np.arange(4), np.eye(2) * 1.5, np.zeros((2, 2)))
    assert np.abs(gamma12(mb)).max() == 0.0


def test_gamma12_scalar():
    c = 0.7
    mb = ModeBlocks(np.arange(2), np.eye(1), np.array([[c]]))
    assert gamma12(mb)[0, 0] == pytest.approx(c / (1 + c * c), rel=1e-15)


def test_gamma12_defining_relation():
    rng = np.random.default_rng(8)
    for n, k in ((10, 2), (14, 4)):
        mb = _random_blocks(rng, n, k)
        gam = gamma12(mb)
        gi = np.linalg.inv(mb.g11)
        dense = gi @ gi.T @ mb.g21.T @ np.linalg.inv(
            np.eye(n - k) + mb.g21 @ gi @ gi.T @ mb.g21.T)
        assert np.abs(gam - dense).max() <= 1e-12


def test_gamma12_ledger_line():
    rng = np.random.default_rng(9)
    n, k = 20, 3
    mb = _random_blocks(rng, n, k)
    led = FlopLedger()
    with led.step("gamma12"):
        gamma12(mb, led)
    assert led.total == gamma12_count(n, k)


# ---------------------------------------------------------------------------

def _random_tangent(rng, mb):
    """Random n x k tangent columns, column-major as a tangent stores them."""
    return np.asfortranarray(np.vstack((
        rng.standard_normal((mb.k, mb.k)),
        rng.standard_normal((mb.n - mb.k, mb.k)))))


def test_step_t_zero_and_zero_tangent():
    rng = np.random.default_rng(10)
    mb = _random_blocks(rng, 12, 3)
    x1 = _random_tangent(rng, mb)
    for stepped, _ in (lowrank_geodesic_step(mb, x1, 0.0),
                       lowrank_geodesic_step(mb, 0.0 * x1, 1.0)):
        assert np.abs(stepped.leading_columns()
                      - mb.leading_columns()).max() < 1e-12


def test_step_matches_dense_columns():
    rng = np.random.default_rng(11)
    for n, k in ((20, 2), (15, 3)):
        mb = _random_blocks(rng, n, k)
        x1 = _random_tangent(rng, mb)
        stepped, _ = lowrank_geodesic_step(mb, x1, 0.8)
        ghat = mb.densify()
        xhat = np.zeros((n, n))
        xhat[mb.perm] = np.hstack([x1, x1 @ gamma12(mb)])
        cols = dense_geodesic([ghat], [xhat], 0.8)[0][:, :k]
        assert np.linalg.norm(stepped.leading_columns() - cols) \
            <= 1e-10 * np.linalg.norm(cols)


def test_step_ledger_items_exact():
    # the ledger holds the itemization's lines and nothing else, at the
    # frame-keeping t = 1 and the re-pivoting t = 3 of the production step
    rng = np.random.default_rng(12)
    n, k = 30, 3
    mb = _random_blocks(rng, n, k)
    x1 = _random_tangent(rng, mb)
    for t in (1.0, 3.0):
        led = FlopLedger()
        _, z = itemized_step(mb, x1, t, led, label="m.")
        items = mode_step_items(n, k, z)
        assert led.per_step == {f"m.{item}": count for item, count in items}
        assert led.total == mode_step_total(n, k, z)


def test_reduce_columns_leaves_its_argument_alone():
    rng = np.random.default_rng(20)
    c = rng.standard_normal((30, 4))
    for arg in (c, np.asfortranarray(c)):
        before = arg.copy()
        mb = reduce_columns(arg)
        assert not np.array_equal(mb.perm, np.arange(30))   # rows did move
        assert arg.tobytes() == before.tobytes()
        assert np.array_equal(mb.leading_columns(), c)


def test_step_leaves_its_point_and_tangent_alone(manifold):
    # a kept frame shares the input's permutation and writes a new G1; the
    # re-pivot swaps rows in place, in the step's own output only.  t = 0.7
    # keeps most frames, and t = 5 forces a re-pivot on mode 0.
    cfg = MANIFOLDS[manifold]
    rng = np.random.default_rng(21)
    p = cfg["point"](cfg["shape"](), rng)
    x = hq.random_horizontal(p, rng)
    seen = set()
    for i, (mb, x1) in enumerate(zip(p.modes, x.modes)):
        perm, g1, x1_before = mb.perm.copy(), mb.g1.copy(), x1.copy()
        for t in (0.7, 5.0):
            stepped, _ = lowrank_geodesic_step(mb, x1, t)
            kept = stepped.perm is mb.perm
            seen.add(kept)
            if not kept:
                assert not np.array_equal(stepped.perm, perm)  # rows moved
            assert not (kept and t == 5.0 and i == 0)
            assert stepped.g1 is not mb.g1
            assert mb.perm.tobytes() == perm.tobytes()
            assert mb.g1.tobytes() == g1.tobytes()
            assert x1.tobytes() == x1_before.tobytes()
    assert seen == {True, False}


def test_step_shares_one_exponent():
    # both exponentials of the step run under the plan of the Q-basis
    # stack's largest norm, which is K's, as K holds -Y
    rng = np.random.default_rng(13)
    mb = _random_blocks(rng, 25, 2)
    x1 = _random_tangent(rng, mb)
    stack = group._phase_stack(group._gram(mb, x1)[1], 0.7)
    assert max_norm(stack) == max_norm(stack[0]) > max_norm(stack[1])
    _, z = lowrank_geodesic_step(mb, x1, 0.7)
    assert z == make_scaling_plan(max_norm(stack)).z == 8


def test_step_calls_one_kernel_per_mode_without_a_ledger(monkeypatch):
    # the Gram form evaluates its (2, 2k, 2k) stack in one mexpm1 call under
    # the step's plan and calls no psi1; the itemized update keeps its two
    # labelled psi1 calls
    calls = []

    def counting(name):
        kernel = getattr(group, name)

        def counted(*args, **kwargs):
            calls.append((name, args, kwargs))
            return kernel(*args, **kwargs)
        monkeypatch.setattr(group, name, counted)

    counting("psi1")
    counting("mexpm1")
    rng = np.random.default_rng(15)
    mb = _random_blocks(rng, 14, 3)
    x1 = _random_tangent(rng, mb)
    _, z = lowrank_geodesic_step(mb, x1, 5.0)
    assert len(calls) == 1
    name, (stack, plan), kwargs = calls[0]
    assert name == "mexpm1" and stack.shape == (2, 6, 6) and not kwargs
    assert plan.z == z == make_scaling_plan(max_norm(stack)).z == 10
    calls.clear()
    _, z_item = itemized_step(mb, x1, 5.0, FlopLedger())
    assert [(name, args[0].shape) for name, args, _ in calls] \
        == [("psi1", (3, 3)), ("psi1", (6, 6))]
    assert z_item == make_scaling_plan(max(mode_velocity_norms(mb, x1, 5.0))).z


def test_step_rejects_mismatched_tangent():
    rng = np.random.default_rng(14)
    mb = _random_blocks(rng, 10, 2)
    other = _random_blocks(rng, 10, 3)
    with pytest.raises(ValueError):
        lowrank_geodesic_step(mb, _random_tangent(rng, other), 1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_step_rejects_a_nonfinite_t_before_any_work(monkeypatch, t):
    rng = np.random.default_rng(14)
    mb = _random_blocks(rng, 10, 2)
    x1 = _random_tangent(rng, mb)
    monkeypatch.setattr(group, "_gram",
                        lambda *args: pytest.fail("the step did work"))
    with pytest.raises(ValueError, match=rf"^t must be finite, got {t}$"):
        lowrank_geodesic_step(mb, x1, t)


def test_geodesic_takes_no_ledger(manifold):
    # the tolerance is keyword-only, so a ledger passed where one used to
    # go fails at the call
    cfg = MANIFOLDS[manifold]
    rng = np.random.default_rng(22)
    p = cfg["point"](cfg["shape"](), rng)
    x = hq.random_horizontal(p, rng)
    with pytest.raises(TypeError):
        hq.geodesic(p, x, 1.0, FlopLedger())
    with pytest.raises(TypeError):
        lowrank_geodesic_step(p.modes[0], x.modes[0], 1.0, FlopLedger())


def test_blocks_validation():
    with pytest.raises(ValueError):
        ModeBlocks(np.array([0, 0, 1]), np.eye(2), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        ModeBlocks(np.arange(3), np.zeros((2, 2)), np.zeros((1, 2)))
    mb = ModeBlocks(np.array([2, 0, 1]), 2 * np.eye(2), np.ones((1, 2)))
    dense = mb.densify()
    assert np.array_equal(dense[[2, 0, 1]][:, :2], mb.g1)
    assert np.array_equal(mb.leading_columns(), dense[:, :2])


@pytest.mark.parametrize("make", [
    lambda: ModeBlocks(np.arange(3), np.eye(2), [[np.nan, 1.0]]),
    lambda: ModeBlocks(np.arange(3), [[np.nan, 0.0], [0.0, 1.0]],
                       np.zeros((1, 2))),
    lambda: hq.ManifoldTangent([[[np.inf, 0.0], [0.0, 1.0], [1.0, 1.0]]]),
], ids=["g21_nan", "g11_nan", "x1_inf"])
def test_blocks_reject_non_finite_input(make):
    # typed before the g11 gate, as select_submatrix and psi1 type it
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == "non-finite input"


def _gate(g11):
    g1 = np.asfortranarray(g11, dtype=float)
    return ModeBlocks._from_selection(np.arange(len(g1)), g1,
                                      group.INVERTIBILITY_TOL)


@pytest.mark.parametrize("g11", [np.diag([1.0, 1e-12]), np.zeros((2, 2)),
                                 np.diag([np.inf, 1.0])],
                         ids=["ratio_at_tol", "zero", "inf"])
def test_g11_gate_rejects(g11):
    with pytest.raises(ValueError, match="^g11 is numerically singular$"):
        _gate(g11)


@pytest.mark.parametrize("g11", [np.diag([1.0, 1.01e-12]),
                                 np.diag([1e-310, 1e-310]),
                                 np.diag([1e300, 1e300])],
                         ids=["ratio_past_tol", "subnormal", "huge"])
def test_g11_gate_accepts(g11):
    assert np.array_equal(_gate(g11).g11, g11)


def test_g11_gate_runs_on_a_block_the_selection_accepted():
    # every LU pivot of [[1, -a], [0, 1]] is 1, but its singular value
    # ratio is about 1/a^2: just past INVERTIBILITY_TOL at a = 1.01e6.
    # The default re-pivot gate then rejects it in _from_selection; tol = 0
    # lowers that gate to exact singularity and accepts it.
    for a, ok in ((0.99e6, True), (1.01e6, False)):
        c = np.array([[1.0, -a], [0.0, 1.0], [0.0, 0.0]])
        assert select_submatrix(c).tolist() == [0, 1, 2]
        if ok:
            reduce_columns(c)
        else:
            with pytest.raises(ValueError,
                               match="^g11 is numerically singular$"):
                reduce_columns(c)
        assert np.array_equal(reduce_columns(c, tol=0).g1, c)


def test_velocity_cores_report_a_singular_gram_as_numpy_does():
    for cores in (group._velocity_cores, group._phase_stack):
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            cores(np.zeros((4, 4)), 1.0)


def test_block_views_write_through():
    # a write into g21 is a write to the stored n x k array
    mb = ModeBlocks(np.array([2, 0, 1]), 2 * np.eye(2), np.ones((1, 2)))
    mb.g21[...] = [[3.0, 4.0]]
    assert np.array_equal(mb.g1, [[2, 0], [0, 2], [3, 4]])
    assert np.array_equal(mb.leading_columns(), [[0, 2], [3, 4], [2, 0]])


def test_mode_arrays_are_column_major_and_stored_whole(manifold):
    # a step, the file parser and the projection all build G1 and X1
    # column-major
    cfg = MANIFOLDS[manifold]
    rng = np.random.default_rng(19)
    p = cfg["point"](cfg["shape"](), rng)
    x = hq.random_horizontal(p, rng)
    stepped, _ = hq.geodesic(p, x, 0.3)
    loaded = tio.load_point(tio.dump_point(p))
    for mb in (*stepped.modes, *loaded.modes):
        assert mb.g1.flags.f_contiguous
    for x1 in x.modes:
        assert x1.flags.f_contiguous


def _forced_repivot():
    """Context in which every step re-pivots, as steps did before a good
    frame was kept."""
    return mock.patch.object(group, "_keeps_frame", return_value=False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(manifold_shapes(), st.integers(0, 2**32 - 1), st.floats(0.1, 4.0))
def test_step_selects_the_rows_of_an_ambient_repivot(case, seed, t):
    # the step re-pivots in the representative's own row order; the rows it
    # selects, in pivot order, are those a re-pivot of the ambient columns
    # selects.  Each step runs with the re-pivot forced, and again as it
    # decides for itself: a step that re-pivots on its own selects the same.
    kind, shape = case
    rng = np.random.default_rng(seed)
    p = MANIFOLDS[kind]["point"](shape, rng)
    x = MANIFOLDS[kind]["tangent"](p, rng)
    for mb, x1 in zip(p.modes, x.modes):
        for forced in (True, False):
            try:
                with _forced_repivot() if forced else nullcontext():
                    stepped, _ = lowrank_geodesic_step(mb, x1, t)
            except ValueError:
                continue
            if stepped.perm is mb.perm:
                assert not forced
                continue
            k = stepped.k
            assert np.array_equal(
                stepped.perm[:k],
                select_submatrix(stepped.leading_columns())[:k])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(manifold_shapes(), st.integers(0, 2**32 - 1), st.integers(-6, 14))
def test_a_kept_frame_is_one_the_lu_gate_accepts(case, seed, e):
    # a step keeps its frame only when KEEP_BOUND sigma_min(g11) bounds
    # ||G1||_F and the LU gate would accept G1; either way its columns are
    # a forced re-pivot's bit for bit, and it fails exactly when that fails.
    # Velocity norms up to 1.5 * 2^14 reach frames that degrade and steps
    # that fail.
    kind, shape = case
    rng = np.random.default_rng(seed)
    p = MANIFOLDS[kind]["point"](shape, rng)
    x = MANIFOLDS[kind]["tangent"](p, rng)
    t = max(0.01, _time_at_norm(p, x, 1.5 * 2.0 ** e))
    for mb, x1 in zip(p.modes, x.modes):
        def step():
            return lowrank_geodesic_step(mb, x1, t)
        try:
            stepped, z = step()
        except ValueError as exc:
            with _forced_repivot(), pytest.raises(ValueError) as forced:
                step()
            assert str(forced.value) == str(exc)
            continue
        with _forced_repivot():
            repivoted, z_forced = step()
        assert z == z_forced
        assert stepped.leading_columns().tobytes() \
            == repivoted.leading_columns().tobytes()
        if stepped.perm is not mb.perm:
            assert stepped.perm.tobytes() == repivoted.perm.tobytes()
            continue
        sigma = np.linalg.svd(stepped.g11, compute_uv=False)[-1]
        assert group.KEEP_BOUND * sigma >= np.linalg.norm(stepped.g1)
        select_submatrix(stepped.g1, group.REPIVOT_TOL)


@pytest.mark.parametrize("step, chain", [
    (lambda mb, x1: lowrank_geodesic_step(mb, x1, 1.0),
     "mexp overflows its squaring"),
    (lambda mb, x1: itemized_step(mb, x1, 1.0, FlopLedger()),
     "psi1 overflows its doubling")],
    ids=["gram", "itemized"])
def test_step_reports_an_overflowing_output_as_non_finite(step, chain):
    # on a huge tangent the kernel's chain overflows; the kernel raises the
    # typed error naming z, and no overflow warning escapes (the suite turns
    # every RuntimeWarning into an error)
    rng = np.random.default_rng(3)
    mb = _random_blocks(rng, 12, 3)
    x1 = _random_tangent(rng, mb)
    for scale in (1e3, 1e6, 1e10):
        with pytest.raises(ValueError, match=rf"^{chain} chain at z = \d+$"):
            step(mb, scale * x1)


def test_transport_point_matches_the_dense_product(manifold):
    # a general h, not a stabilizer element, so its lower-left blocks count
    cfg = MANIFOLDS[manifold]
    shape = cfg["shape"]()
    rng = np.random.default_rng(18)
    p = cfg["point"](shape, rng)
    h = [rng.standard_normal((n, n)) + 2 * np.eye(n) for n in shape.dims]
    q = hq.transport_point(p, h)
    for mb, g, hi, k in zip(q.modes, hq.densify(p).factors, h, shape.ks):
        assert rel_err(mb.leading_columns(), (g @ hi)[:, :k]) <= 1e-12


# ---------------------------------------------------------------------------
# the Gram form: against the itemized update, the dense oracle, and in memory

def _time_at_norm(point, tangent, target):
    """Time at which the largest per-mode velocity norm reaches target."""
    def top(t):
        return max(max(mode_velocity_norms(mb, x1, t))
                   for mb, x1 in zip(point.modes, tangent.modes))
    lo, hi = 0.0, 1.0
    while top(hi) < target:
        hi *= 2.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if top(mid) < target else (lo, mid)
    return hi


@settings(max_examples=60, deadline=None, derandomize=True)
@given(manifold_shapes(), st.integers(0, 2**32 - 1), st.integers(-6, 9))
def test_gram_step_matches_itemized_step(case, seed, e):
    # the largest mode's norms reach 1.5 * 2^e, mid-way between two
    # exponents, so the itemized z = e + 3 there: from 0 (t is at least
    # 0.01) to 12.  The velocity norms, which set that z, match the itemized
    # factors' too.  Each form runs under the plan of its own arguments'
    # largest norm.  Wherever the Gram step succeeds, the itemized update's
    # columns, scattered to the ambient rows, agree with its own.
    kind, shape = case
    rng = np.random.default_rng(seed)
    p = MANIFOLDS[kind]["point"](shape, rng)
    x = MANIFOLDS[kind]["tangent"](p, rng)
    t = max(0.01, _time_at_norm(p, x, 1.5 * 2.0 ** e))
    for mb, x1 in zip(p.modes, x.modes):
        a, b = t * x1, _coupling(mb)
        ba = b @ a
        bpap = _bpap(a, b, ba)
        norms = np.linalg.norm(ba), np.linalg.norm(bpap)
        assert np.allclose(mode_velocity_norms(mb, x1, t), norms,
                           rtol=1e-12, atol=0.0)
        try:
            stepped, z = lowrank_geodesic_step(mb, x1, t)
        except ValueError:
            continue
        g1, z_item = itemized_step(mb, x1, t, FlopLedger())
        item = np.empty_like(g1)
        item[mb.perm] = g1
        assert z == make_scaling_plan(
            max_norm(group._phase_stack(group._gram(mb, x1)[1], t))).z
        assert z_item == make_scaling_plan(max(max_norm(bpap),
                                               max_norm(ba))).z
        assert np.abs(stepped.leading_columns() - item).max() \
            <= 1e-10 * np.abs(item).max()


@pytest.mark.parametrize("n", [96, 20000])
@pytest.mark.parametrize("make", [lambda dims: CpShape(dims, 5),
                                  lambda dims: TtShape(dims, (4, 4))],
                         ids=["cp", "tt"])
def test_gram_step_on_embedded_instance_matches_dense_oracle(make, n):
    # each mode's columns are U (G0, X0) for an orthonormal n x 2k U and a
    # 2k-row instance, so the exact step is U times the dense oracle's
    # columns there; the largest mode's velocity cores run at the itemized
    # z = 8.  At n = 20000 the itemized update misses this bound (errors up
    # to 4e-10).
    rng = np.random.default_rng(16)
    big = make((n, n, n))
    small = make(tuple(2 * k for k in big.ks))
    cfg = MANIFOLDS[big.name]
    p0 = cfg["point"](small, rng)
    x0 = cfg["tangent"](p0, rng)
    g0, xa0 = hq.densify(p0), hq.lift_tangent(p0, x0)
    us = [np.linalg.qr(rng.standard_normal((n, 2 * k)))[0] for k in big.ks]
    point = hq.point_from_columns(
        big, [u @ g[:, :k] for u, g, k in zip(us, g0.factors, big.ks)],
        type(p0))
    tangent = hq.tangent_from_ambient(
        point, [u @ x[:, :k] for u, x, k in zip(us, xa0.factors, big.ks)])
    t = _time_at_norm(p0, x0, 48.0)
    q, zs = hq.geodesic(point, tangent, t)
    assert zs == {"cp": [7, 8, 8], "tt": [5, 9, 7]}[big.name]
    for mb, u, f, k in zip(q.modes, us, dense_geodesic(g0, xa0, t), big.ks):
        assert rel_err(mb.leading_columns(), u @ f[:, :k]) <= 1e-12


def _column_error(point, tangent, t, step):
    """Largest per-mode relative error of ``step``'s ambient leading columns
    against the 60-digit reference."""
    ref = mpmath_geodesic(hq.densify(point), hq.lift_tangent(point, tangent),
                          t)
    return max(rel_err(step(mb, x1), f[:, :mb.k])
               for mb, x1, f in zip(point.modes, tangent.modes, ref))


def _gram_columns(mb, x1, t):
    return lowrank_geodesic_step(mb, x1, t, repivot_tol=0.0)[0] \
        .leading_columns()


def _itemized_columns(mb, x1, t):
    g1, _ = itemized_step(mb, x1, t, FlopLedger())
    cols = np.empty_like(g1)
    cols[mb.perm] = g1
    return cols


_MPMATH_GRID = [((2, 2, 2), 1, seed) for seed in (1, 2, 3)] \
    + [((5, 5, 5), 2, seed) for seed in (1, 2, 3, 4)]


@pytest.mark.parametrize("dims, r, seed", _MPMATH_GRID,
                         ids=[f"n{d[0]}-r{r}-seed{s}" for d, r, s in
                              _MPMATH_GRID])
def test_step_against_the_mpmath_geodesic(dims, r, seed):
    # at top B'A' norms 2^6, 2^9 and 2^12 the Gram step errs no more than
    # the itemized update and at most 5.9e-12, against 5.8e-10 and 2.7e-9
    # for the itemized update at the worst two points, except on CP
    # (2, 2, 2) seed 1 at 2^12 (t = 156.1), where the exact columns cancel:
    # there the Gram step errs 1.8e-9 and the itemized update 6.5e-8, past
    # perfbench's 1e-8
    rng = np.random.default_rng(seed)
    p = MANIFOLDS["cp"]["point"](CpShape(dims, r), rng)
    x = MANIFOLDS["cp"]["tangent"](p, rng)
    for e in (6, 9, 12):
        t = _time_at_norm(p, x, 2.0 ** e)
        gram = _column_error(p, x, t, lambda mb, x1: _gram_columns(mb, x1, t))
        item = _column_error(p, x, t,
                             lambda mb, x1: _itemized_columns(mb, x1, t))
        assert gram <= item
        if (dims, seed, e) == ((2, 2, 2), 1, 12):
            assert t == pytest.approx(156.1, abs=0.05)
            assert gram <= 4e-9 and item >= 5e-8
        else:
            assert gram <= 2e-11


@pytest.mark.parametrize("k", [5, 16])
@pytest.mark.parametrize("t, kept", [(1e-3, True), (0.5, False)],
                         ids=["kept", "repivot"])
def test_gram_step_memory_is_a_few_n_by_k_blocks(t, kept, k):
    n = 20000
    rng = np.random.default_rng(17)
    mb = _random_blocks(rng, n, k)
    x1 = _random_tangent(rng, mb)
    tracemalloc.start()
    try:
        stepped, _ = lowrank_geodesic_step(mb, x1, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (stepped.perm is mb.perm) == kept
    assert peak < 7 * 8 * n * k
