import math

import numpy as np
import pytest

from anonrelay import analytic
from anonrelay.analytic import (
    erasure_capacity,
    loss_fraction,
    mean_delay,
    shared_relay_rates,
    solve_strict_delay,
    two_source_region,
)


def test_loss_fraction_equal_rates():
    assert loss_fraction(1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_loss_fraction_zero_window_loses_everything():
    assert loss_fraction(1.0, 2.0, 0.0) == 1.0
    assert loss_fraction(2.0, 0.5, 0.0) == 1.0


def test_loss_fraction_vanishes_exponentially_with_window():
    # faster relay: loss shrinks like e^{-(cb-cs) delta}
    prev = loss_fraction(1.0, 2.0, 1.0)
    for delta in (2.0, 4.0, 8.0):
        cur = loss_fraction(1.0, 2.0, delta)
        assert cur < prev
        prev = cur
    assert loss_fraction(1.0, 2.0, 50.0) < 1e-20
    assert loss_fraction(1.0, 2.0, math.inf) == 0.0


def test_loss_fraction_slow_relay_limit():
    # with the relay slower than the input, the backlog loss floor remains
    assert loss_fraction(2.0, 1.0, math.inf) == pytest.approx(0.5)
    assert loss_fraction(2.0, 1.0, 200.0) == pytest.approx(0.5, abs=1e-12)


def test_loss_fraction_branch_continuity_at_switch():
    # just outside the equal-rate switch the direct formula must agree with
    # the limit branch
    for sign in (+1.0, -1.0):
        cs = 1.0 * (1.0 + sign * 1e-9)
        gap = abs(loss_fraction(cs, 1.0, 1.0) - 1.0 / (1.0 + cs * 1.0))
        assert gap < 1e-8


def test_loss_fraction_smooth_near_equal_rates():
    # first-order drift away from the equal-rate point stays tiny
    for sign in (+1.0, -1.0):
        cs = 1.0 * (1.0 + sign * 1e-6)
        gap = abs(loss_fraction(cs, 1.0, 1.0) - 1.0 / (1.0 + cs * 1.0))
        assert gap < 1e-6


def test_loss_fraction_monotonicities():
    grid = [0.5, 1.0, 2.0]
    deltas = [0.1, 1.0, 10.0]
    for cb in grid:
        for delta in deltas:
            vals = [loss_fraction(cs, cb, delta) for cs in (0.4, 0.8, 1.6, 3.2)]
            assert all(a < b for a, b in zip(vals, vals[1:]))  # rising in input rate
    for cs in grid:
        for delta in deltas:
            vals = [loss_fraction(cs, cb, delta) for cb in (0.4, 0.8, 1.6, 3.2)]
            assert all(a > b for a, b in zip(vals, vals[1:]))  # falling in relay rate
    for cs in grid:
        for cb in grid:
            vals = [loss_fraction(cs, cb, d) for d in (0.1, 0.5, 2.0, 8.0)]
            assert all(a > b for a, b in zip(vals, vals[1:]))  # falling in window


def test_shared_relay_rates():
    lam = shared_relay_rates((1.0, 1.0), 2.0, 1.0)
    assert lam == pytest.approx((2.0 / 3.0, 2.0 / 3.0))
    single = shared_relay_rates((1.3,), 2.0, 0.7)
    assert single[0] == pytest.approx(1.3 * (1 - loss_fraction(1.3, 2.0, 0.7)))
    assert shared_relay_rates((), 2.0, 1.0) == ()


# A negative rate used to shrink the total, and so every share, and one
# that zeroed the total was blamed on the total.
@pytest.mark.parametrize("rates, at", [
    ((-1.0, 3.0), 0), ((-1.0, 1.0), 0), ((1.0, math.nan), 1), ((2.0, 1.0, math.inf), 2),
])
def test_shared_relay_rates_rejects_a_bad_source_rate(rates, at):
    with pytest.raises(ValueError, match=rf"input_rates\[{at}\] must be finite and nonnegative"):
        shared_relay_rates(rates, 2.0, 1.0)


def test_erasure_capacity():
    assert erasure_capacity(1.0, 1.0, 1.0) == pytest.approx(0.5)
    assert erasure_capacity(1.0, 2.0, math.inf) == 1.0


def test_mean_delay_limits():
    assert mean_delay(math.inf, 1.0, 3.0) == pytest.approx(0.5)
    assert mean_delay(1e6, 1.0, 3.0) == pytest.approx(0.5, rel=1e-9)
    # equal rates: exactly half the window
    assert mean_delay(2.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-9)
    assert mean_delay(1e-7, 1.3, 0.9) == pytest.approx(0.5e-7, rel=1e-4)


def test_mean_delay_monotone_in_window():
    vals = [mean_delay(d, 1.0, 1.5) for d in np.linspace(0.05, 20.0, 60)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_solve_strict_delay_branch():
    assert solve_strict_delay(1.0, 1.0, 3.0) == math.inf
    # boundary case sits exactly on the branch condition
    assert solve_strict_delay(0.5, 1.0, 3.0) == math.inf


def test_solve_strict_delay_small_bound_doubles():
    for cs, cb in ((1.0, 1.0), (1.0, 1.2), (2.0, 1.0)):
        dbar = 0.01 / max(cs, cb)
        star = solve_strict_delay(dbar, cs, cb)
        assert star == pytest.approx(2.0 * dbar, rel=0.05)


def test_solve_strict_delay_round_trip():
    for dbar, cs, cb in ((0.8, 1.0, 1.2), (2.0, 1.0, 1.0), (0.3, 2.0, 1.0)):
        star = solve_strict_delay(dbar, cs, cb)
        assert mean_delay(star, cs, cb) == pytest.approx(dbar, abs=1e-8)


def test_delivered_rate_concave_in_mean_delay():
    # mixing windows at a fixed mean delay can never beat a single window
    cs, cb = 1.0, 1.5
    deltas = np.linspace(0.05, 8.0, 80)
    pts = [(mean_delay(d, cs, cb), cs * (1 - loss_fraction(cs, cb, d))) for d in deltas]
    for (m0, l0), (m1, l1), (m2, l2) in zip(pts, pts[1:], pts[2:]):
        t = (m1 - m0) / (m2 - m0)
        assert l1 >= (1 - t) * l0 + t * l2 - 1e-9


def test_region_max_sum_vertex_meets_outer_cap():
    region = two_source_region(1.0, 1.0, 2.0, 1.0, corner_events=5000)
    assert sum(region.max_sum_vertex) == pytest.approx(region.sum_cap, abs=1e-12)
    assert region.contains_inner_in_outer()


def test_region_corners_clipped_and_positive():
    region = two_source_region(1.0, 2.0, 2.0, 1.0, corner_events=20000)
    (x1, y1), (x2, y2) = region.corner1, region.corner2
    assert x1 == pytest.approx(region.cap1)
    assert y2 == pytest.approx(region.cap2)
    assert 0.0 < y1 <= min(region.cap2, region.sum_cap - region.cap1) + 1e-12
    assert 0.0 < x2 <= min(region.cap1, region.sum_cap - region.cap2) + 1e-12


def test_region_degenerates_cleanly_at_zero_window():
    region = two_source_region(1.0, 1.0, 2.0, 0.0, corner_events=2000)
    assert region.cap1 == 0.0 and region.cap2 == 0.0 and region.sum_cap == 0.0
    assert region.contains_inner_in_outer()


def test_region_deterministic_for_fixed_seed():
    a = two_source_region(1.0, 1.0, 2.0, 1.0, corner_events=5000, seed=3)
    b = two_source_region(1.0, 1.0, 2.0, 1.0, corner_events=5000, seed=3)
    assert a.inner_vertices == b.inner_vertices


def test_region_csv_lists_both_sections():
    region = two_source_region(1.0, 1.0, 2.0, 1.0, corner_events=5000)
    text = region.to_csv()
    assert text.startswith("section,lambda1,lambda2")
    assert "inner," in text and "outer," in text


@pytest.mark.parametrize("events", [0, -3, 2.5, True, 1e4])
def test_region_rejects_a_corner_count_that_is_not_a_positive_integer(events):
    with pytest.raises(ValueError, match="corner_events"):
        two_source_region(1.0, 1.0, 2.0, 1.0, corner_events=events)


def test_argument_validation():
    with pytest.raises(ValueError):
        loss_fraction(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        loss_fraction(1.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        mean_delay(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_strict_delay(0.0, 1.0, 1.0)
