"""Delay-constrained relaying: greedy matching of arrivals to an independent
departure schedule, priority and time-shared variants, the average-delay
relaxation, and a clipped-random-walk oracle that predicts the same losses
without sharing any matching code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import analytic
from ._util import fmt, substream
from .point_process import EmptyScheduleError, Schedule, _check_epochs, empirical_rate

__all__ = [
    "MatchResult",
    "PriorityOrder",
    "bounded_greedy_match",
    "priority_relay",
    "avg_delay_relay",
    "WalkOracleResult",
    "random_walk_oracle",
    "match_result_to_text",
    "match_result_from_text",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class MatchResult:
    """Outcome of relaying one arrival stream through one departure schedule.

    `pairs` is an (n, 2) array of (arrival, departure) epochs in FIFO order;
    matched packets never overtake each other. Arrivals that outlive their
    window (or are still waiting when departures run out) land in
    `dropped_arrivals`; departure epochs that carried no packet land in
    `dummy_departures`.
    """

    pairs: np.ndarray
    dropped_arrivals: np.ndarray
    dummy_departures: np.ndarray
    delay_bound: float

    def __post_init__(self):
        p = np.asarray(self.pairs, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "pairs", _readonly(p))
        object.__setattr__(self, "dropped_arrivals", _readonly(np.ravel(self.dropped_arrivals)))
        object.__setattr__(self, "dummy_departures", _readonly(np.ravel(self.dummy_departures)))
        d = self.delays
        if d.size:
            if d.min() < 0.0:
                raise ValueError("matched pair departs before it arrives")
            if d.max() > self.delay_bound:
                raise ValueError("matched pair exceeds the delay bound")
            if p.shape[0] > 1 and ((np.diff(p[:, 0]) <= 0).any() or (np.diff(p[:, 1]) <= 0).any()):
                raise ValueError("matched pairs are not in FIFO order")

    @property
    def delays(self) -> np.ndarray:
        return self.pairs[:, 1] - self.pairs[:, 0]

    @property
    def n_matched(self) -> int:
        return int(self.pairs.shape[0])

    @property
    def n_dropped(self) -> int:
        return int(self.dropped_arrivals.size)

    @property
    def drop_fraction(self) -> float:
        total = self.n_matched + self.n_dropped
        return self.n_dropped / total if total else 0.0

    @property
    def mean_delay(self) -> float:
        return float(self.delays.mean()) if self.n_matched else math.nan

    def verify_partition(self, arrivals, departures) -> bool:
        """Check that matches plus drops reproduce the arrival schedule and
        matches plus dummies reproduce the departure schedule."""
        arr = _epoch_array(arrivals)
        dep = _epoch_array(departures)
        a = np.sort(np.concatenate([self.pairs[:, 0], self.dropped_arrivals]))
        d = np.sort(np.concatenate([self.pairs[:, 1], self.dummy_departures]))
        return (
            a.size == arr.size
            and d.size == dep.size
            and np.array_equal(a, arr)
            and np.array_equal(d, dep)
        )

    def dropped_mask(self, arrivals) -> np.ndarray:
        """One flag per arrival epoch, in arrival order: True where that
        arrival is in `dropped_arrivals`."""
        arr = _epoch_array(arrivals)
        dropped = self.dropped_arrivals
        if dropped.size == 0:
            return np.zeros(arr.size, dtype=bool)
        idx = np.minimum(np.searchsorted(dropped, arr), dropped.size - 1)
        return dropped[idx] == arr


def _epoch_array(x) -> np.ndarray:
    if isinstance(x, Schedule):
        return x.epochs
    return np.asarray(x, dtype=float)


def _checked_epoch_array(x) -> np.ndarray:
    """`_epoch_array` holding a raw sequence to the Schedule rules without
    copying it; a Schedule was checked when it was built."""
    arr = _epoch_array(x)
    return arr if isinstance(x, Schedule) else _check_epochs(arr)


def bounded_greedy_match(arrivals, departures, delay: float) -> MatchResult:
    """Greedy delay-window matching, drop-minimal among causal matchings.

    Departure epochs are scanned in time order; each takes the oldest waiting
    arrival no older than `delay`, else transmits a dummy. Arrivals whose
    window expires are dropped, as are any still waiting when the departure
    stream ends. Raw epoch sequences must be finite, nonnegative and
    strictly increasing, like a Schedule's; others raise ScheduleError.
    """
    if not (delay >= 0.0):
        raise ValueError(f"delay must be nonnegative, got {delay}")
    arr = _checked_epoch_array(arrivals).tolist()
    dep = _checked_epoch_array(departures).tolist()

    pair_a: list[float] = []
    pair_d: list[float] = []
    drops: list[float] = []
    dummies: list[float] = []
    add_a = pair_a.append
    add_d = pair_d.append
    add_drop = drops.append
    add_dummy = dummies.append
    i = 0
    n = len(arr)
    for t in dep:
        cut = t - delay
        while i < n:
            a = arr[i]
            if a < cut:
                add_drop(a)
                i += 1
            else:
                break
        if i < n and arr[i] <= t:
            add_a(arr[i])
            add_d(t)
            i += 1
        else:
            add_dummy(t)
    drops.extend(arr[i:])

    pairs = np.column_stack([pair_a, pair_d]) if pair_a else np.empty((0, 2))
    return MatchResult(
        pairs=pairs,
        dropped_arrivals=np.asarray(drops, dtype=float),
        dummy_departures=np.asarray(dummies, dtype=float),
        delay_bound=delay,
    )


@dataclass(frozen=True)
class PriorityOrder:
    """Time-shared priority assignment over a fixed set of sources.

    Each ordering lists source node ids from highest to lowest priority; the
    weights say what fraction of the horizon runs under each ordering.
    """

    orderings: tuple[tuple[str, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.orderings:
            raise ValueError("need at least one ordering")
        base = frozenset(self.orderings[0])
        for o in self.orderings:
            if len(o) != len(self.orderings[0]) or frozenset(o) != base or len(set(o)) != len(o):
                raise ValueError("orderings must all be permutations of one source set")
        if len(self.weights) != len(self.orderings):
            raise ValueError("one weight per ordering")
        if any(w < 0.0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        total = sum(self.weights)
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise ValueError(f"weights must sum to 1, got {total}")

    @classmethod
    def single(cls, ordering: Sequence[str]) -> "PriorityOrder":
        return cls(orderings=(tuple(ordering),), weights=(1.0,))


def _successive_match(streams: dict[str, np.ndarray], ordering, departures, delay):
    """Apply the greedy matcher stream by stream in priority order; each
    stream sees only the departure epochs left unused by higher priorities."""
    leftover = departures
    out: dict[str, MatchResult] = {}
    for node_id in ordering:
        r = bounded_greedy_match(streams[node_id], leftover, delay)
        out[node_id] = r
        leftover = r.dummy_departures
    return out


def _joint_match(streams: dict[str, np.ndarray], departures, delay):
    """Equal-priority matching: merge all streams (ties broken by node id)
    and match the union, then split the outcome back per stream."""
    ids = sorted(streams)
    times = np.concatenate([streams[k] for k in ids]) if ids else np.empty(0)
    tags = np.concatenate(
        [np.full(streams[k].size, j, dtype=np.intp) for j, k in enumerate(ids)]
    ) if ids else np.empty(0, dtype=np.intp)
    order = np.lexsort((tags, times))
    tl = times[order].tolist()
    gl = tags[order].tolist()
    dep = _epoch_array(departures).tolist()

    pair_a = [[] for _ in ids]
    pair_d = [[] for _ in ids]
    drops = [[] for _ in ids]
    dummies: list[float] = []
    i = 0
    n = len(tl)
    for t in dep:
        cut = t - delay
        while i < n:
            a = tl[i]
            if a < cut:
                drops[gl[i]].append(a)
                i += 1
            else:
                break
        if i < n and tl[i] <= t:
            g = gl[i]
            pair_a[g].append(tl[i])
            pair_d[g].append(t)
            i += 1
        else:
            dummies.append(t)
    while i < n:
        drops[gl[i]].append(tl[i])
        i += 1

    dummy_arr = np.asarray(dummies, dtype=float)
    out = {}
    for j, k in enumerate(ids):
        pairs = np.column_stack([pair_a[j], pair_d[j]]) if pair_a[j] else np.empty((0, 2))
        out[k] = MatchResult(
            pairs=pairs,
            dropped_arrivals=np.asarray(drops[j], dtype=float),
            dummy_departures=dummy_arr,
            delay_bound=delay,
        )
    return out


def _concat_results(parts: list[MatchResult], delay: float) -> MatchResult:
    return MatchResult(
        pairs=np.concatenate([p.pairs for p in parts]) if parts else np.empty((0, 2)),
        dropped_arrivals=np.concatenate([p.dropped_arrivals for p in parts]),
        dummy_departures=np.concatenate([p.dummy_departures for p in parts]),
        delay_bound=delay,
    )


def priority_relay(
    arrival_streams: Sequence[Schedule],
    departures: Schedule,
    order: Optional[PriorityOrder],
    delay: float,
) -> list[MatchResult]:
    """Relay several source streams through one departure schedule.

    With a `PriorityOrder`, matching is the successive greedy scheme: the top
    stream is matched as if alone, the next on the leftover epochs, and so
    on, so the top stream's result equals its standalone match exactly.
    Multiple weighted orderings time-share by splitting the horizon in
    proportion to the weights.

    With `order=None` the streams are merged and matched with equal priority;
    in that mode the dummy section of every per-stream result is the shared
    list of unused departure epochs.
    """
    ids = [s.node_id for s in arrival_streams]
    if len(set(ids)) != len(ids):
        raise ValueError("arrival streams must have distinct node ids")
    streams = {s.node_id: _epoch_array(s) for s in arrival_streams}
    dep = _epoch_array(departures)

    if order is None:
        by_id = _joint_match(streams, dep, delay)
        return [by_id[k] for k in ids]

    if frozenset(order.orderings[0]) != frozenset(ids):
        raise ValueError("priority order does not cover the given streams")

    if len(order.orderings) == 1:
        by_id = _successive_match(streams, order.orderings[0], dep, delay)
        return [by_id[k] for k in ids]

    # Time sharing: consecutive time segments sized by the weights, each run
    # under its own ordering. Packets do not cross segment boundaries.
    span = max(
        [dep[-1] if dep.size else 0.0]
        + [s[-1] if s.size else 0.0 for s in streams.values()]
    )
    edges = np.concatenate([[0.0], np.cumsum(order.weights)]) * span
    edges[-1] = math.inf
    parts: dict[str, list[MatchResult]] = {k: [] for k in ids}
    for seg, ordering in enumerate(order.orderings):
        lo, hi = edges[seg], edges[seg + 1]
        seg_streams = {k: v[(v >= lo) & (v < hi)] for k, v in streams.items()}
        seg_dep = dep[(dep >= lo) & (dep < hi)]
        by_id = _successive_match(seg_streams, ordering, seg_dep, delay)
        for k in ids:
            parts[k].append(by_id[k])
    return [_concat_results(parts[k], delay) for k in ids]


def avg_delay_relay(arrivals: Schedule, departures: Schedule, mean_bound: float) -> MatchResult:
    """Relay under a mean (not per-packet) delay constraint.

    Rates are estimated from the inputs. When the departure side is fast
    enough, the window is unbounded and nothing is dropped; otherwise the
    strict window is widened to the unique value whose stationary mean delay
    equals `mean_bound`, which dominates running the strict matcher at the
    mean bound itself.
    """
    if len(arrivals) == 0 or len(departures) == 0:
        raise EmptyScheduleError("average-delay relaying needs nonempty schedules to estimate rates")
    in_rate = empirical_rate(arrivals)
    out_rate = empirical_rate(departures)
    window = analytic.solve_strict_delay(mean_bound, in_rate, out_rate)
    return bounded_greedy_match(arrivals, departures, window)


@dataclass(frozen=True)
class WalkOracleResult:
    """Barrier statistics of the clipped packet-delay walk.

    Lower-barrier hits are dummy departures, upper-barrier hits are drops;
    `loss_fraction` is upper hits over non-lower steps, and
    `mean_interior_delay` averages the strictly in-window states. Standard
    errors come from the spread across independent chains.
    """

    p_lower: float
    p_upper: float
    loss_fraction: float
    mean_interior_delay: float
    loss_stderr: float
    delay_stderr: float
    steps: int


def random_walk_oracle(
    input_rate: float,
    relay_rate: float,
    delay: float,
    steps: int,
    seed: int,
    chains: int = 512,
    burn_in: int = 1000,
) -> WalkOracleResult:
    """Simulate the delay walk clipped to [0, delay] and report barrier-hit
    statistics.

    The walk steps by (output inter-departure) minus (input inter-arrival),
    both exponential. It shares no code with the matchers, so its loss and
    mean-delay estimates are an independent check on both the matcher and
    the closed forms.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not (delay >= 0.0):
        raise ValueError(f"delay must be nonnegative, got {delay}")
    rng = substream(seed, "walk", input_rate, relay_rate, delay)
    chains = max(1, min(chains, steps))
    per_chain = -(-steps // chains)  # ceil
    total = per_chain * chains

    x = rng.uniform(0.0, delay, chains) if delay > 0.0 else np.zeros(chains)
    lower = np.zeros(chains, dtype=np.int64)
    upper = np.zeros(chains, dtype=np.int64)
    interior_cnt = np.zeros(chains, dtype=np.int64)
    interior_sum = np.zeros(chains)

    scale_in = 1.0 / input_rate
    scale_out = 1.0 / relay_rate
    block = 512

    def advance(iters: int, measure: bool) -> None:
        nonlocal upper, lower, interior_cnt, interior_sum
        left = iters
        while left > 0:
            m = min(block, left)
            z = rng.exponential(scale_out, (m, chains)) - rng.exponential(scale_in, (m, chains))
            for r in range(m):
                y = x + z[r]
                if measure:
                    up = y > delay
                    lo = y < 0.0
                    upper += up
                    lower += lo
                    mid = ~(up | lo)
                    interior_cnt += mid
                    interior_sum += np.where(mid, y, 0.0)
                np.clip(y, 0.0, delay, out=x)
            left -= m

    advance(burn_in, measure=False)
    advance(per_chain, measure=True)

    n_lower = int(lower.sum())
    n_upper = int(upper.sum())
    n_mid = int(interior_cnt.sum())
    denom = total - n_lower
    eps = n_upper / denom if denom else math.nan
    mean_mid = float(interior_sum.sum() / n_mid) if n_mid else math.nan

    with np.errstate(invalid="ignore", divide="ignore"):
        chain_eps = upper / np.maximum(per_chain - lower, 1)
        chain_mid = np.where(interior_cnt > 0, interior_sum / np.maximum(interior_cnt, 1), np.nan)
    loss_se = float(np.nanstd(chain_eps, ddof=1) / math.sqrt(chains)) if chains > 1 else math.nan
    if chains > 1 and (interior_cnt > 0).sum() > 1:
        delay_se = float(np.nanstd(chain_mid, ddof=1) / math.sqrt(chains))
    else:
        delay_se = math.nan

    return WalkOracleResult(
        p_lower=n_lower / total,
        p_upper=n_upper / total,
        loss_fraction=eps,
        mean_interior_delay=mean_mid,
        loss_stderr=loss_se,
        delay_stderr=delay_se,
        steps=total,
    )


def match_result_to_text(result: MatchResult) -> str:
    """Three-section text form (pairs / dropped / dummies) for inspection."""
    lines = [f"match delay {fmt(result.delay_bound)}", "[pairs]"]
    for a, d in result.pairs.tolist():
        lines.append(f"{fmt(a)} {fmt(d)}")
    lines.append("[dropped]")
    lines.extend(fmt(a) for a in result.dropped_arrivals.tolist())
    lines.append("[dummies]")
    lines.extend(fmt(d) for d in result.dummy_departures.tolist())
    return "\n".join(lines) + "\n"


def match_result_from_text(text: str) -> MatchResult:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("match delay "):
        raise ValueError("bad match result header")
    delay = float(lines[0].split()[2])
    section = None
    pairs: list[list[float]] = []
    drops: list[float] = []
    dummies: list[float] = []
    for ln in lines[1:]:
        if ln in ("[pairs]", "[dropped]", "[dummies]"):
            section = ln
            continue
        vals = [float(v) for v in ln.split()]
        if section == "[pairs]":
            pairs.append(vals)
        elif section == "[dropped]":
            drops.extend(vals)
        elif section == "[dummies]":
            dummies.extend(vals)
        else:
            raise ValueError(f"data outside any section: {ln!r}")
    return MatchResult(
        pairs=np.asarray(pairs, dtype=float).reshape(-1, 2),
        dropped_arrivals=np.asarray(drops, dtype=float),
        dummy_departures=np.asarray(dummies, dtype=float),
        delay_bound=delay,
    )
