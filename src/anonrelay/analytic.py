"""Closed forms for delay-constrained relaying over independent Poisson
schedules: the stationary loss fraction, derived rate caps, the mean-delay
map and its inverse, erasure capacity, and the two-source achievable region.

All formulas are the stationary laws of a clipped random walk whose step is
the difference between an output and an input exponential inter-arrival
time; `relay_core.random_walk_oracle` provides the code-independent check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._util import check_count, convex_hull, fmt

__all__ = [
    "loss_fraction",
    "erasure_capacity",
    "shared_relay_rates",
    "mean_delay",
    "solve_strict_delay",
    "RateRegion2",
    "two_source_region",
]

# Relative rate difference below which the equal-rate limit branch is used.
_EQUAL_RATE_RTOL = 1e-9


def _check_rates(input_rate: float, relay_rate: float) -> None:
    if not (math.isfinite(input_rate) and input_rate > 0.0):
        raise ValueError(f"input rate must be positive, got {input_rate}")
    if not (math.isfinite(relay_rate) and relay_rate > 0.0):
        raise ValueError(f"relay rate must be positive, got {relay_rate}")


def loss_fraction(input_rate: float, relay_rate: float, delay: float) -> float:
    """Long-run fraction of packets a delay-bounded relay must drop.

    Input and output schedules are independent Poisson processes at the given
    rates; each packet must leave within `delay` seconds of arrival or be
    dropped. This is the floor over causal matchings, attained by the greedy
    matcher. `delay=inf` gives the pure backlog limit max(0, 1 - out/in).
    """
    _check_rates(input_rate, relay_rate)
    if delay < 0.0 or math.isnan(delay):
        raise ValueError(f"delay must be nonnegative, got {delay}")
    if math.isinf(delay):
        return max(0.0, 1.0 - relay_rate / input_rate)
    diff = relay_rate - input_rate
    if abs(diff) <= _EQUAL_RATE_RTOL * max(input_rate, relay_rate):
        return 1.0 / (1.0 + input_rate * delay)
    x = delay * diff
    if x > 700.0:
        # overflow-safe tail; the true value underflows toward zero
        return math.exp(math.log(diff / relay_rate) - x)
    # denominator relay*e^x - input written via expm1 to survive small x
    return diff / (relay_rate * math.expm1(x) + diff)


def erasure_capacity(input_rate: float, relay_rate: float, delay: float) -> float:
    """Capacity (packets delivered per packet sent) of the erasure channel a
    delay-bounded relay presents to a coding source."""
    return 1.0 - loss_fraction(input_rate, relay_rate, delay)


def shared_relay_rates(input_rates, relay_rate: float, delay: float) -> tuple[float, ...]:
    """Per-source delivered rates when a relay serves all sources through one
    merged first-come queue: every stream keeps the same delivered fraction,
    set by the total input rate. A per-source rate that is negative, NaN or
    infinite raises ValueError naming its position."""
    rates = tuple(float(t) for t in input_rates)
    for i, t in enumerate(rates):
        if not (math.isfinite(t) and t >= 0.0):
            raise ValueError(f"input_rates[{i}] must be finite and nonnegative, got {t}")
    if not rates:
        return ()
    total = sum(rates)
    keep = 1.0 - loss_fraction(total, relay_rate, delay)
    return tuple(t * keep for t in rates)


def mean_delay(delay_bound: float, input_rate: float, relay_rate: float) -> float:
    """Mean queueing delay of delivered packets under a strict bound.

    Equals the mean of the stationary in-window walk state; rises from
    delay_bound/2 at tight bounds to 1/(out - in) when the output is faster,
    and without limit otherwise. Equal rates give exactly delay_bound/2.
    """
    _check_rates(input_rate, relay_rate)
    if delay_bound < 0.0 or math.isnan(delay_bound):
        raise ValueError(f"delay bound must be nonnegative, got {delay_bound}")
    if delay_bound == 0.0:
        return 0.0
    if math.isinf(delay_bound):
        if relay_rate > input_rate:
            return 1.0 / (relay_rate - input_rate)
        return math.inf
    theta = input_rate - relay_rate
    x = theta * delay_bound
    if abs(x) < 1e-5:
        # series about the equal-rate point; the x^2 term vanishes
        return delay_bound * (0.5 + x / 12.0)
    if x < 0.0:
        num = 1.0 + math.exp(x) * (x - 1.0)
        den = theta * math.expm1(x)
    else:
        # rescaled by e^{-x} so large bounds cannot overflow
        num = x - 1.0 + math.exp(-x)
        den = -theta * math.expm1(-x)
    return num / den


def solve_strict_delay(mean_bound: float, input_rate: float, relay_rate: float) -> float:
    """Strict per-packet bound whose induced mean delay equals `mean_bound`.

    Returns inf when the relay is fast enough that an unbounded window
    already meets the mean constraint (out - in >= 1/mean_bound). The mean
    delay is strictly increasing in the bound, so bisection is exact.
    """
    _check_rates(input_rate, relay_rate)
    if not (mean_bound > 0.0 and math.isfinite(mean_bound)):
        raise ValueError(f"mean delay bound must be positive and finite, got {mean_bound}")
    if relay_rate - input_rate >= 1.0 / mean_bound:
        return math.inf
    lo = mean_bound  # mean delay under bound b is < b, so lo is feasible
    hi = 2.0 * mean_bound
    for _ in range(400):
        if mean_delay(hi, input_rate, relay_rate) >= mean_bound:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("failed to bracket the strict delay bound")
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if mean_delay(mid, input_rate, relay_rate) < mean_bound:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RateRegion2:
    """Achievable and outer-bound rate pairs for two sources sharing one
    delay-bounded relay.

    The inner polygon is what priority scheduling plus time sharing attains:
    its corners are the two full-priority operating points (one coordinate
    exact, the other measured by a seeded matcher run) and the equal-priority
    maximum sum-rate point, which is exact. The outer bound combines the
    per-source caps with the merged-stream sum cap.
    """

    rate1: float
    rate2: float
    relay_rate: float
    delay: float
    cap1: float
    cap2: float
    sum_cap: float
    max_sum_vertex: tuple[float, float]
    corner1: tuple[float, float]  # source 1 given full priority
    corner2: tuple[float, float]  # source 2 given full priority
    inner_vertices: tuple[tuple[float, float], ...]
    corner_events: int
    seed: int

    def contains_inner_in_outer(self, tol: float = 1e-9) -> bool:
        for x, y in self.inner_vertices:
            if x > self.cap1 + tol or y > self.cap2 + tol or x + y > self.sum_cap + tol:
                return False
            if x < -tol or y < -tol:
                return False
        return True

    def to_csv(self) -> str:
        lines = ["section,lambda1,lambda2"]
        for x, y in self.inner_vertices:
            lines.append(f"inner,{fmt(x)},{fmt(y)}")
        for x, y in [
            (0.0, 0.0),
            (self.cap1, 0.0),
            (self.cap1, min(self.cap2, self.sum_cap - self.cap1)),
            (min(self.cap1, self.sum_cap - self.cap2), self.cap2),
            (0.0, self.cap2),
        ]:
            lines.append(f"outer,{fmt(x)},{fmt(y)}")
        return "\n".join(lines) + "\n"


def _priority_corner_rate(rate_hi, rate_lo, relay_rate, delay, events, seed, tag):
    """Delivered rate of the low-priority source when the other has strict
    priority, measured by streaming seeded Poisson draws through the
    successive matcher, so the run holds a few chunks of epochs whatever
    `events` is."""
    from . import relay_core
    from .point_process import GenSpec

    horizon = events / (rate_hi + rate_lo)
    hi, lo = f"{tag}-hi", f"{tag}-lo"
    sources = {hi: GenSpec(rate_hi, horizon, seed), lo: GenSpec(rate_lo, horizon, seed)}
    steps = relay_core._streamed(sources, GenSpec(relay_rate, horizon, seed), [(hi, lo)], delay,
                                 out_id=f"{tag}-out")
    return sum(step[lo].n_matched for _, step in steps) / horizon


def two_source_region(
    rate1: float,
    rate2: float,
    relay_rate: float,
    delay: float,
    corner_events: int = 50_000,
    seed: int = 1,
) -> RateRegion2:
    """Achievable region for two sources relayed through one delay-bounded
    node, with the matching outer bound.

    The published closed form for the corner tangent lines does not survive
    validation against the matcher (see the region tests), so the two
    priority corners use a deterministic seeded measurement instead, made on
    streamed draws of about `corner_events` arrivals whose memory does not
    grow with it; they are clipped into the outer bound so containment is
    exact by construction. Time sharing between the operating points gives
    exactly their convex hull, so the inner region is that hull.
    `corner_events` must be a positive integer.
    """
    check_count("corner_events", corner_events)
    _check_rates(rate1, relay_rate)
    _check_rates(rate2, relay_rate)
    cap1 = rate1 * erasure_capacity(rate1, relay_rate, delay)
    cap2 = rate2 * erasure_capacity(rate2, relay_rate, delay)
    sum_cap = (rate1 + rate2) * erasure_capacity(rate1 + rate2, relay_rate, delay)
    pstar = shared_relay_rates((rate1, rate2), relay_rate, delay)

    y1 = _priority_corner_rate(rate1, rate2, relay_rate, delay, corner_events, seed, "c1")
    x2 = _priority_corner_rate(rate2, rate1, relay_rate, delay, corner_events, seed, "c2")
    y1 = min(max(y1, 0.0), cap2, sum_cap - cap1)
    x2 = min(max(x2, 0.0), cap1, sum_cap - cap2)
    corner1 = (cap1, y1)
    corner2 = (x2, cap2)

    hull = convex_hull(
        [(0.0, 0.0), (cap1, 0.0), corner1, pstar, corner2, (0.0, cap2)]
    )
    return RateRegion2(
        rate1=rate1,
        rate2=rate2,
        relay_rate=relay_rate,
        delay=delay,
        cap1=cap1,
        cap2=cap2,
        sum_cap=sum_cap,
        max_sum_vertex=pstar,
        corner1=corner1,
        corner2=corner2,
        inner_vertices=tuple(hull),
        corner_events=corner_events,
        seed=seed,
    )
