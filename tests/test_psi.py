import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, reject, settings

from tensorgeo import psi
from tensorgeo.flops import FlopLedger, psi1_count
from tensorgeo.oracles import mexp_dense, psi1_series
from tensorgeo.psi import (LowRankPair, ScalingPlan, inv_lowrank_update,
                           make_scaling_plan, max_norm, mexp_lowrank, mexpm1,
                           psi1)


def _random_with_norm(rng, k, nrm):
    m = rng.standard_normal((k, k))
    return m * (nrm / np.linalg.norm(m))


# ---------------------------------------------------------------------------
# Pade quotient: psi1 at norm <= 1/2, where its plan has z = 0

def test_pade_at_zero_is_identity():
    assert np.array_equal(psi1(np.zeros((3, 3))), np.eye(3))


def test_pade_scalar_half():
    # (e^0.5 - 1)/0.5, frozen from a 50-digit series evaluation
    got = psi1(np.array([[0.5]]))[0, 0]
    assert got == pytest.approx(1.2974425414002564, abs=1e-15)


def test_pade_norm_precondition():
    # the unscaled quotient is not evaluated past the Pade bound
    with pytest.raises(ValueError, match="^scaling plan too weak"):
        psi1(np.eye(3), None, ScalingPlan(0))


def test_pade_vs_series_sample():
    rng = np.random.default_rng(0)
    worst = 0.0
    for k in (1, 2, 5, 8):
        for _ in range(100):
            m = _random_with_norm(rng, k, rng.uniform(0.0, 0.5))
            dev = np.linalg.norm(psi1(m).astype(np.longdouble)
                                 - psi1_series(m))
            worst = max(worst, float(dev))
    assert worst <= 1e-15


# ---------------------------------------------------------------------------
# scaling plans

def test_plan_examples():
    assert make_scaling_plan(3.0).z == 4
    assert make_scaling_plan(0.3).z == 0
    # the formula with the small-norm clamp; 0.6/4 = 0.15 <= 1/4
    assert make_scaling_plan(0.6).z == 2


def test_plan_invariants():
    rng = np.random.default_rng(1)
    for _ in range(200):
        nrm = 10.0 ** rng.uniform(-8, 4)
        plan = make_scaling_plan(nrm)
        assert nrm * 2.0 ** -plan.z <= 0.5 + 1e-15
        if plan.z > 0:
            assert nrm > 0.5
            assert nrm * 2.0 ** -plan.z <= 0.25 + 1e-15
        if nrm <= 0.5:
            assert plan.z == 0
    assert make_scaling_plan(0.0).z == 0
    with pytest.raises(ValueError):
        make_scaling_plan(np.inf)


# ---------------------------------------------------------------------------
# psi1 with scaling and squaring

def test_psi1_scalar_two():
    # (e^2 - 1)/2, frozen from a 50-digit series evaluation
    assert psi1(np.array([[2.0]]))[0, 0] == pytest.approx(3.194528049465325,
                                                          abs=1e-14)


def test_psi1_large_norm_vs_extended_oracle():
    rng = np.random.default_rng(3)
    for nrm in (0.9, 3.0, 10.0):
        m = _random_with_norm(rng, 6, nrm)
        z = make_scaling_plan(nrm).z
        y = (m / 2.0 ** z).astype(np.longdouble)
        ref = psi1_series(y.astype(float)).astype(np.longdouble)
        e = np.asarray(mexp_dense(y.astype(float)), dtype=np.longdouble)
        eye = np.eye(6, dtype=np.longdouble)
        for _ in range(z):
            ref = 0.5 * (ref @ (e + eye))
            e = e @ e
        err = np.linalg.norm(psi1(m) - ref.astype(float))
        assert err / np.linalg.norm(ref.astype(float)) <= 1e-13


def test_psi1_defining_identity():
    rng = np.random.default_rng(4)
    for nrm in (0.2, 1.0, 7.0, 20.0):
        m = _random_with_norm(rng, 5, nrm)
        e = mexp_dense(m)
        res = np.linalg.norm(m @ psi1(m) - (e - np.eye(5)))
        assert res <= 1e-12 * (1.0 + np.linalg.norm(e))


def test_psi1_rejects_nonfinite_and_z1_plans():
    with pytest.raises(ValueError):
        psi1(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        psi1(np.eye(2), plan=ScalingPlan(1))


def test_psi1_ledger_exact():
    rng = np.random.default_rng(5)
    for k, z in ((1, 2), (3, 3), (5, 6)):
        m = _random_with_norm(rng, k, 3.0 * 2.0 ** (z - 4))
        led = FlopLedger()
        psi1(m, led)
        assert led.total == psi1_count(k, z)
    # direct-quotient path
    m = _random_with_norm(rng, 4, 0.3)
    led = FlopLedger()
    psi1(m, led)
    assert led.total == psi1_count(4, 0)


# ---------------------------------------------------------------------------
# stacks: one chain under one plan

def _norm_for_z(z):
    """A norm whose plan has exponent z: 1/4 for z = 0, else mid-octave."""
    return 0.25 if z == 0 else 1.5 * 2.0 ** (z - 3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 32), st.integers(1, 4), st.sampled_from(range(0, 13, 2)),
       st.integers(0, 2**32 - 1))
def test_psi1_stack_matches_each_matrix_under_the_shared_plan(m, b, z, seed):
    rng = np.random.default_rng(seed)
    top = _norm_for_z(z)
    stack = np.stack([_random_with_norm(rng, m, top * rng.uniform(0.0, 1.0))
                      for _ in range(b - 1)]
                     + [_random_with_norm(rng, m, top)])
    plan = make_scaling_plan(top)
    assert plan.z == z
    # at z = 12 a 1 x 1 or 2 x 2 draw can have psi1 past the double range,
    # where psi1 raises
    try:
        wants = [psi1(x, None, plan) for x in stack]
    except ValueError:
        reject()
    assume(all(np.all(np.isfinite(w)) for w in wants))
    got = psi1(stack, None, plan)
    assert got.shape == stack.shape
    for g, want in zip(got, wants):
        assert np.linalg.norm(g - want) <= 1e-14 * np.linalg.norm(want)
    # by default a stack takes the plan of its largest norm
    assert np.array_equal(psi1(stack), got)


def _psi1_halving_each_level(m, z):
    """psi1 under plan z with the doubling chain's halving at every level."""
    k = m.shape[-1]
    p, e = psi._quotients((m / 2.0 ** z).reshape(-1, k, k), psi._SCALED_ROWS)
    p += np.eye(k)
    e += np.eye(k)
    for _ in range(z - 1):
        e = e @ e
        p = 0.5 * (p @ (e + np.eye(k)))
    return p.reshape(m.shape)


def _bounded_with_norm(rng, k, nrm):
    """Skew-symmetric with norm nrm plus a diagonal within 1/4, and strictly
    upper triangular with norm nrm: the entries of exp(x/2^j) stay under
    e^(1/4) and nrm^(k-1) in size, so no chain entry over- or underflows,
    and the plan of either is the plan of nrm."""
    skew = np.triu(rng.standard_normal((k, k)), 1)
    skew -= skew.T
    skew *= nrm / np.linalg.norm(skew)
    upper = np.triu(rng.standard_normal((k, k)), 1)
    upper *= nrm / np.linalg.norm(upper)
    diag = rng.uniform(-0.25, 0.25, k) * min(1.0, nrm)
    return skew + np.diag(diag), upper


@pytest.mark.parametrize("z", range(2, 21))
def test_psi1_deferred_halvings_match_the_per_level_form_bit_for_bit(z):
    # a power-of-two scaling commutes with rounding, so deferring the
    # halvings to one final scaling changes no bit on these fixed stacks
    rng = np.random.default_rng(30 + z)
    for k in (2, 4, 8):
        bounded, nilpotent = _bounded_with_norm(rng, k, _norm_for_z(z))
        plan = make_scaling_plan(_norm_for_z(z))
        assert plan.z == z
        for m in (np.stack((bounded, nilpotent)), bounded, nilpotent):
            want = _psi1_halving_each_level(m, z)
            assert np.all(np.isfinite(want))
            assert psi1(m, None, plan).tobytes() == want.tobytes()


def test_psi1_raises_naming_z_when_its_chain_overflows():
    # psi1(diag(800, 1)) holds (e^800 - 1)/800, past the double range; the
    # suite turns a leaked overflow warning into an error, so none escapes
    big = np.diag([800.0, 1.0])
    assert make_scaling_plan(800.0).z == 12
    match = r"^psi1 overflows its doubling chain at z = 12$"
    with pytest.raises(ValueError, match=match):
        psi1(big)
    with pytest.raises(ValueError, match=match):
        psi1(big, FlopLedger())
    # one overflowing matrix fails its whole stack
    with pytest.raises(ValueError, match=match):
        psi1(np.stack((np.eye(2), big)))
    # (e^600 - 1)/600 is in range
    assert np.isfinite(psi1(np.diag([600.0, 1.0]))).all()


@pytest.mark.parametrize("z", [0, 2, 5, 9])
def test_psi1_of_a_zero_padded_block_is_padded_by_identity(z):
    rng = np.random.default_rng(20 + z)
    k = 5
    x = _random_with_norm(rng, k, _norm_for_z(z))
    padded = np.zeros((2 * k, 2 * k))
    padded[:k, :k] = x
    plan = make_scaling_plan(np.linalg.norm(x))
    got = psi1(np.stack((padded, padded.T)), None, plan)[0]
    assert np.all(got[:k, k:] == 0.0) and np.all(got[k:, :k] == 0.0)
    assert np.array_equal(got[k:, k:], np.eye(k))
    want = psi1(x, None, plan)
    assert np.linalg.norm(got[:k, :k] - want) <= 1e-14 * np.linalg.norm(want)


def _message(call):
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


@pytest.mark.parametrize("m", [np.full((2, 2), 1e200),
                               np.full((3, 2, 2), 1e200)],
                         ids=["matrix", "stack"])
def test_psi1_finite_entries_whose_squares_overflow(m):
    # the entries are finite, so the error is the norm's, and no overflow
    # warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _message(lambda: psi1(m)) \
            == "norm must be finite and nonnegative"
        assert _message(lambda: psi1(m, None, ScalingPlan(8))) \
            == "scaling plan too weak for this argument"


def test_psi1_stack_errors_match_the_single_matrix_ones():
    rng = np.random.default_rng(21)
    x = _random_with_norm(rng, 3, 3.0)
    weak = ScalingPlan(2)
    stack = np.stack((0.1 * x, x))
    assert _message(lambda: psi1(stack, None, weak)) \
        == _message(lambda: psi1(x, None, weak)) \
        == "scaling plan too weak for this argument"
    bad = stack.copy()
    bad[0, 1, 2] = np.inf
    assert _message(lambda: psi1(bad)) == _message(lambda: psi1(bad[0])) \
        == "non-finite input"
    assert _message(lambda: psi1(stack, None, ScalingPlan(1))) \
        == _message(lambda: psi1(x, None, ScalingPlan(1)))
    with pytest.raises(ValueError):
        psi1(stack, FlopLedger())


# ---------------------------------------------------------------------------
# mexpm1: the exponential's correction, in one chain per stack

@pytest.mark.parametrize("m", [2, 3, 4, 8, 16, 32])
def test_mexpm1_stack_matches_each_matrix_bit_for_bit(m):
    # a stack runs each matrix through the same LAPACK and BLAS calls as
    # the matrix alone; the step's stacks are 2k x 2k, so m >= 2 (1 x 1
    # Pade contractions take BLAS's matrix-vector path alone, not in a stack)
    rng = np.random.default_rng(40 + m)
    for b in (2, 3, 5):
        for z in (0, 2, 5, 9):
            top = _norm_for_z(z)
            stack = np.stack([_random_with_norm(rng, m, top * u)
                              for u in rng.uniform(0.2, 1.0, b - 1)]
                             + [_random_with_norm(rng, m, top)])
            plan = make_scaling_plan(max_norm(stack))
            assert plan.z == z
            got = mexpm1(stack, plan)
            assert got.shape == stack.shape
            for g, x in zip(got, stack):
                assert g.tobytes() == mexpm1(x, plan).tobytes()


@pytest.mark.parametrize("m", [8, 32])
@pytest.mark.parametrize("kind", ["gaussian", "skew"])
def test_mexpm1_matches_the_dense_exponential(m, kind):
    # against SciPy's expm minus the identity, relative to ||mexp||: the
    # measured errors are at most 7e-17 up to norm 0.1, 1.7e-16 at norm 1
    # and 5.3e-13 above it, where expm errs alike.  Where the norm is small
    # the correction keeps its own digits, which the dense difference loses:
    # against the extended-precision series x psi1(x) it errs at most
    # 4.7e-16 relative to itself
    rng = np.random.default_rng(50 + m)
    for nrm in 10.0 ** np.arange(-8, 4):
        stack = rng.standard_normal((4, m, m))
        if kind == "skew":
            stack -= stack.transpose(0, 2, 1)
        stack *= nrm / np.sqrt(np.einsum("bij,bij->b", stack, stack)
                               )[:, None, None]
        got = mexpm1(stack, make_scaling_plan(max_norm(stack)))
        for d, x in zip(got, stack):
            e = mexp_dense(x)
            # in units of the largest entry, whose square may overflow
            s = np.abs(e).max()
            bound = 2e-15 if nrm <= 1.0 else 2e-12
            assert np.linalg.norm((d - (e - np.eye(m))) / s) \
                <= bound * np.linalg.norm(e / s)
            if nrm <= 1.0:
                ref = x.astype(np.longdouble) @ psi1_series(x)
                assert np.linalg.norm(d - ref) <= 2e-15 * np.linalg.norm(ref)


def test_mexpm1_raises_naming_z_when_its_chain_overflows():
    # e^800 is past the double range; under -W error no overflow warning
    # escapes, and one overflowing matrix fails its whole stack
    big = np.diag([800.0, 1.0])
    plan = make_scaling_plan(800.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (big, np.stack((np.eye(2), big))):
            with pytest.raises(ValueError, match=r"^mexp overflows its "
                                                 r"squaring chain at z = 12$"):
                mexpm1(m, plan)
        # e^700 is in range
        assert np.isfinite(mexpm1(np.diag([700.0, 1.0]), plan)).all()


def test_mexpm1_rejects_a_weak_plan_and_non_finite_entries():
    x = _random_with_norm(np.random.default_rng(22), 3, 3.0)
    assert _message(lambda: mexpm1(x, ScalingPlan(2))) \
        == "scaling plan too weak for this argument"
    x[1, 2] = np.nan
    assert _message(lambda: mexpm1(x, ScalingPlan(8))) == "non-finite input"


# ---------------------------------------------------------------------------
# low-rank kernels

def test_mexp_lowrank_zero_left():
    rng = np.random.default_rng(7)
    pair = LowRankPair(np.zeros((6, 2)), rng.standard_normal((2, 6)))
    assert np.array_equal(mexp_lowrank(pair).densify(), np.eye(6))


def test_mexp_lowrank_rank_one():
    s = 0.9
    n = 5
    pair = LowRankPair(s * np.eye(n)[:, :1], np.eye(n)[:, :1].T)
    out = mexp_lowrank(pair).densify()
    want = np.eye(n)
    want[0, 0] = np.exp(s)
    assert np.abs(out - want).max() < 1e-14


def test_mexp_lowrank_vs_dense():
    rng = np.random.default_rng(8)
    for n, k in ((50, 3), (120, 10)):
        pair = LowRankPair(rng.standard_normal((n, k)),
                           rng.standard_normal((k, n)))
        dense = mexp_dense(pair.left @ pair.right)
        rel = np.linalg.norm(mexp_lowrank(pair).densify() - dense)
        assert rel / np.linalg.norm(dense) <= 1e-12


def test_mexp_lowrank_ledger():
    rng = np.random.default_rng(9)
    n, k = 40, 3
    pair = LowRankPair(rng.standard_normal((n, k)), rng.standard_normal((k, n)))
    led = FlopLedger()
    upd = mexp_lowrank(pair, led)
    z = make_scaling_plan(np.linalg.norm(pair.right @ pair.left)).z
    assert led.total == 2 * n * k * k + psi1_count(k, z)
    assert upd.core.shape == (k, k)


def test_inv_lowrank_update():
    rng = np.random.default_rng(10)
    n, k = 40, 4
    pair = LowRankPair(rng.standard_normal((n, k)), rng.standard_normal((k, n)))
    upd = inv_lowrank_update(pair)
    res = (np.eye(n) + pair.left @ pair.right) @ upd.densify() - np.eye(n)
    assert np.abs(res).max() <= 1e-12 * n
    zero = inv_lowrank_update(LowRankPair(np.zeros((5, 2)), np.ones((2, 5))))
    assert np.array_equal(zero.densify(), np.eye(5))


def test_inv_lowrank_scalar_core():
    c = 0.7
    pair = LowRankPair(np.eye(4)[:, :1], c * np.eye(4)[:, :1].T)
    upd = inv_lowrank_update(pair)
    # core solves 1 + core * c = 1/(1+c) against this factor pair
    assert upd.core[0, 0] == pytest.approx(-1.0 / (1.0 + c), abs=1e-15)
    assert np.abs((np.eye(4) + pair.left @ pair.right) @ upd.densify()
                  - np.eye(4)).max() < 1e-14


def test_inv_lowrank_singular():
    pair = LowRankPair(np.eye(3)[:, :1], -np.eye(3)[:, :1].T)
    with pytest.raises(np.linalg.LinAlgError):
        inv_lowrank_update(pair)
