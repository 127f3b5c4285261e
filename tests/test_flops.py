from fractions import Fraction

import numpy as np
import pytest

from conftest import MANIFOLDS
from tensorgeo.audit import itemized_geodesic
from tensorgeo.flops import (FlopLedger, ba_count, bpap_count, build_b_count,
                             gamma12_count, geodesic_formula, mode_step_items,
                             mode_step_total, psi1_count, term2_count,
                             term3_count, term4_count)


def test_cost_model_charges():
    led = FlopLedger()
    led.mult(3, 4, 5, "a")
    led.div(3, 4, 5, "a")
    led.mult(2, 2, 2, "b")
    assert led.per_step["a"] == Fraction(2 * 60) + Fraction(8 * 60, 3)
    assert led.per_step["b"] == Fraction(16)
    assert led.total == sum(led.per_step.values())


def test_step_scope_and_merge():
    led = FlopLedger()
    with led.step("x"):
        led.mult(2, 2, 2)
    led.add(4, 4)
    other = FlopLedger()
    other.mult(1, 1, 1, "x")
    led.merge(other)
    assert led.per_step["x"] == Fraction(18)
    assert led.additions == Fraction(16)


def test_step_scopes_record_seconds_and_merge_sums_them():
    cfg = MANIFOLDS["tucker"]
    rng = np.random.default_rng(3)
    p = cfg["point"](cfg["shape"](), rng)
    x = cfg["tangent"](p, rng)
    led = FlopLedger()
    itemized_geodesic(p, x, 1.0, led)
    assert led.per_step and set(led.per_step) <= set(led.seconds)
    assert all(s >= 0.0 for s in led.seconds.values())
    merged = FlopLedger().merge(led, "a.").merge(led, "a.").merge(led)
    for key, s in led.seconds.items():
        assert merged.seconds["a." + key] == 2 * s
        assert merged.seconds[key] == s
    for key, count in led.per_step.items():
        assert merged.per_step["a." + key] == 2 * count


def test_additions_excluded_from_headline():
    led = FlopLedger()
    led.add(100, 100)
    assert led.total == 0


def test_per_mode_item_values():
    n, k, z = 100, 5, 3
    assert gamma12_count(n, k) == Fraction(20 * n * k * k, 3) + Fraction(22 * k**3, 3)
    assert build_b_count(n, k) == 2 * n * k * k + Fraction(8 * k**3, 3)
    assert ba_count(n, k) == 2 * n * k * k
    assert bpap_count(n, k) == 8 * n * k * k
    assert term2_count(n, k) == 4 * n * k * k + 2 * k**3
    assert term3_count(n, k) == 8 * n * k * k + 8 * k**3
    assert term4_count(n, k) == 6 * n * k * k + 6 * k**3
    assert psi1_count(k, z) == (Fraction(52, 3) + 4 * (z - 1)) * k**3
    assert psi1_count(k, 0) == Fraction(38, 3) * k**3


def test_mode_total_matches_closed_form():
    for n, k, z in ((100, 5, 3), (33, 2, 7), (10, 4, 2)):
        want = Fraction(110 * n * k * k, 3) + (146 + 36 * z) * Fraction(k) ** 3
        assert mode_step_total(n, k, z) == want
        assert sum(c for _, c in mode_step_items(n, k, z)) == want


def test_geodesic_formula_printed_example():
    # 3 * (110*100*25/3 + (146+108)*125) = 275000 + 95250
    val = geodesic_formula((100, 100, 100), (5, 5, 5), (3, 3, 3))
    assert val == Fraction(370250)


def test_geodesic_formula_rank_doubling():
    base = geodesic_formula((50,), (3,), (2,))
    doubled = geodesic_formula((50,), (6,), (2,))
    # the cubic coefficient scales by exactly 8
    cubic = (146 + 36 * 2)
    assert doubled - Fraction(110 * 50 * 36, 3) == 8 * (base - Fraction(110 * 50 * 9, 3))
    assert base == Fraction(110 * 50 * 9, 3) + cubic * 27


def test_geodesic_formula_guards():
    with pytest.raises(ValueError):
        geodesic_formula((10, 10), (2, 2), (1,))
    with pytest.raises(ValueError):
        geodesic_formula((10,), (2,), (0,))


def test_ledger_reproducibility():
    import numpy as np
    from tensorgeo import cp_random_horizontal, cp_random_point, CpShape
    shape = CpShape((9, 8, 7), 2)
    totals = []
    steps = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        p = cp_random_point(shape, rng)
        x = cp_random_horizontal(p, rng)
        led = FlopLedger()
        itemized_geodesic(p, x, 1.0, led)
        totals.append(led.total)
        steps.append(dict(led.per_step))
    assert totals[0] == totals[1]
    assert steps[0] == steps[1]
