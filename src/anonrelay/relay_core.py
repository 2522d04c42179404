"""Delay-constrained relaying: greedy matching of arrivals to an independent
departure schedule, priority and time-shared variants, the average-delay
relaxation, and a clipped-random-walk oracle that predicts the same losses
without sharing any matching code.

One block-scan kernel, `_match_index`, serves every matcher. It returns,
per departure, the index of the arrival it carries, and a `MatchResult`
keeps that index beside the arrival and departure epochs: pairs, drops,
dummies, delays and the per-arrival drop flags are derived from it on
demand, so a result holds its inputs and one index array, not copies of
the epochs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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


DUMMY = -1  # index of a departure that carried no packet
OTHER = -2  # index of a departure that carried another stream's packet


def _readonly(a, dtype) -> np.ndarray:
    """A read-only view of `a` as `dtype`; a caller's own array stays
    writable."""
    v = np.asarray(a, dtype=dtype).view()
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class MatchResult:
    """Outcome of relaying one arrival stream through one departure schedule.

    Holds the sorted `arrivals` and `departures` and, per departure, the
    `index` of the arrival it carries: DUMMY (-1) for a dummy and, in
    equal-priority mode, OTHER (-2) for another stream's packet. Everything
    else is derived from these on demand: `pairs`, an (n, 2) array of
    (arrival, departure) epochs in FIFO order (matched packets never overtake
    each other); `dropped`, one flag per arrival for those that outlived
    their window or were still waiting when departures ran out;
    `dropped_arrivals`; `dummy_departures`, the departures that carried no
    packet; and `delays`. Construction raises ValueError unless the carried
    indices increase (FIFO) and every carried packet departs within
    [0, delay_bound] of its arrival.
    """

    arrivals: np.ndarray
    departures: np.ndarray
    index: np.ndarray
    delay_bound: float

    def __post_init__(self):
        object.__setattr__(self, "arrivals", _readonly(self.arrivals, float))
        object.__setattr__(self, "departures", _readonly(self.departures, float))
        object.__setattr__(self, "index", _readonly(self.index, np.int64))
        idx = self.index
        carried = idx >= 0
        taken = idx[carried]
        if (idx.shape != self.departures.shape or (idx.size and idx.min() < OTHER)
                or (taken.size and taken.max() >= self.arrivals.size)):
            raise ValueError("index must hold one arrival index, DUMMY or OTHER per departure")
        if taken.size:
            if (taken[1:] <= taken[:-1]).any():
                raise ValueError("matched pairs are not in FIFO order")
            d = self.departures[carried]
            d -= self.arrivals[taken]
            if d.min() < 0.0:
                raise ValueError("matched pair departs before it arrives")
            if d.max() > self.delay_bound:
                raise ValueError("matched pair exceeds the delay bound")

    @property
    def pairs(self) -> np.ndarray:
        carried = self.index >= 0
        return np.column_stack([self.arrivals[self.index[carried]], self.departures[carried]])

    @property
    def delays(self) -> np.ndarray:
        carried = self.index >= 0
        d = self.departures[carried]
        d -= self.arrivals[self.index[carried]]
        return d

    @property
    def dropped(self) -> np.ndarray:
        """One flag per arrival, in arrival order: True where it was dropped."""
        flags = np.ones(self.arrivals.size, dtype=bool)
        flags[self.index[self.index >= 0]] = False
        return flags

    @property
    def dropped_arrivals(self) -> np.ndarray:
        return self.arrivals[self.dropped]

    @cached_property
    def dummy_departures(self) -> np.ndarray:
        return _readonly(self.departures[self.index == DUMMY], float)

    @property
    def n_matched(self) -> int:
        return int(np.count_nonzero(self.index >= 0))

    @property
    def n_dropped(self) -> int:
        return self.arrivals.size - self.n_matched

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
        pairs = self.pairs
        a = np.sort(np.concatenate([pairs[:, 0], self.dropped_arrivals]))
        d = np.sort(np.concatenate([pairs[:, 1], self.dummy_departures]))
        return (
            a.size == arr.size
            and d.size == dep.size
            and np.array_equal(a, arr)
            and np.array_equal(d, dep)
        )


def _epoch_array(x) -> np.ndarray:
    if isinstance(x, Schedule):
        return x.epochs
    return np.asarray(x, dtype=float)


def _checked_epoch_array(x) -> np.ndarray:
    """`_epoch_array` holding a raw sequence to the Schedule rules without
    copying it; a Schedule was checked when it was built."""
    arr = _epoch_array(x)
    return arr if isinstance(x, Schedule) else _check_epochs(arr)


_SEARCH_CHUNK = 1 << 16  # departures per window search in the kernel


def _match_index(arr: np.ndarray, dep: np.ndarray, delay: float) -> np.ndarray:
    """The greedy matching kernel of both matchers: for each departure, the
    index of the arrival it carries, or DUMMY.

    Takes sorted epoch arrays (arrivals may tie). With lo_k arrivals before
    t_k - delay and hi_k at or before t_k, the arrivals consumed by the end
    of departure k obey the clamp recursion i_k = min(max(i_{k-1}, lo_k) + 1,
    hi_k), i_{-1} = 0, and departure k carries arrival max(i_{k-1}, lo_k)
    exactly when i_k exceeds it. With y_k = i_k - k - 1 this is
    y_k = clamp(y_{k-1}, lo_k - k, hi_k - k - 1), and departure k carries
    arrival max(y_{k-1}, lo_k - k) + k exactly when that maximum is at most
    hi_k - k - 1. Clamps compose into clamps, so it is solved in blocks of
    about sqrt(n) departures: one pass composes every block's map, a loop
    chains the blocks' start values, and a second pass replays each block.
    This reproduces the loop that scans departures one by one, index for
    index. Its scratch is two input-sized integer buffers, updated in place;
    one of them becomes the result.
    """
    if not (delay >= 0.0):
        raise ValueError(f"delay must be nonnegative, got {delay}")
    n = dep.size
    if n == 0 or arr.size == 0:
        return np.full(n, DUMMY, dtype=np.int64)
    # Departure k = b * block + r sits at [b, r], so column r holds departure
    # r of every block; the zero padding after departure n - 1 ends the last
    # block and is never read back.
    block = math.isqrt(n - 1) + 1
    nblocks = -(-n // block)
    k_block = np.arange(0, nblocks * block, block, dtype=np.int64)[:, None]
    k_row = np.arange(block, dtype=np.int64)
    floor = np.zeros((nblocks, block), dtype=np.int64)  # lo_k - k
    ceil = np.zeros((nblocks, block), dtype=np.int64)  # hi_k - k - 1
    # Searched in chunks, so the searches need no input-sized scratch.
    for a in range(0, n, _SEARCH_CHUNK):
        t = dep[a:a + _SEARCH_CHUNK]
        ceil.reshape(-1)[a:a + t.size] = np.searchsorted(arr, t, side="right")
        if not math.isinf(delay):  # an unbounded window has lo_k = 0
            floor.reshape(-1)[a:a + t.size] = np.searchsorted(arr, t - delay, side="left")
    floor -= k_block
    floor -= k_row
    ceil -= k_block
    ceil -= k_row + 1

    # clamp(clamp(y, a1, b1), a2, b2) = clamp(y, max(a1, a2), min(max(b1, a2), b2))
    f, c = floor[:, 0].copy(), ceil[:, 0].copy()
    for r in range(1, block):
        np.maximum(f, floor[:, r], out=f)
        np.minimum(np.maximum(c, floor[:, r], out=c), ceil[:, r], out=c)
    starts = [0]
    for a, b in zip(f.tolist(), c.tolist()):
        starts.append(min(max(starts[-1], a), b))
    y = np.asarray(starts[:-1], dtype=np.int64)
    for r in range(block):  # in place: floor[:, r] becomes max(y_{k-1}, lo_k - k)
        np.minimum(np.maximum(y, floor[:, r], out=floor[:, r]), ceil[:, r], out=y)

    dummy = floor > ceil
    floor += k_block
    floor += k_row
    floor[dummy] = DUMMY
    return floor.reshape(-1)[:n]


def bounded_greedy_match(arrivals, departures, delay: float) -> MatchResult:
    """Greedy delay-window matching, drop-minimal among causal matchings.

    Departure epochs are scanned in time order; each takes the oldest waiting
    arrival no older than `delay`, else transmits a dummy. Arrivals whose
    window expires are dropped, as are any still waiting when the departure
    stream ends. Raw epoch sequences must be finite, nonnegative and
    strictly increasing, like a Schedule's; others raise ScheduleError.
    """
    arr = _checked_epoch_array(arrivals)
    dep = _checked_epoch_array(departures)
    return MatchResult(arr, dep, _match_index(arr, dep, delay), delay)


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
    and match the union, then split the kernel's index back per stream.
    Every stream's result shares the departures and one dummies array."""
    ids = sorted(streams)
    arrs = [np.asarray(streams[k], dtype=float) for k in ids]
    offsets = np.cumsum([0] + [a.size for a in arrs])
    # Each input-sized temporary is dropped as soon as it is spent, which
    # bounds the peak memory of a large merge.
    times = np.concatenate(arrs) if ids else np.empty(0)
    order = np.argsort(times, kind="stable")  # a tie goes to the stream first in id order
    times = times[order]
    dep = _epoch_array(departures)
    m = _match_index(times, dep, delay)
    del times

    carried = np.flatnonzero(m >= 0)
    src = order[m[carried]]  # position of each carried packet in the concatenation
    del order
    m[carried] = OTHER  # now every stream's index away from its own packets
    # Each stream is carried in FIFO order and owns one range of positions,
    # so sorting by position splits by stream, in departure order.
    by_stream = np.argsort(src, kind="stable")
    carried, src = carried[by_stream], src[by_stream]
    del by_stream
    cuts = np.searchsorted(src, offsets)
    dummies = _readonly(dep[m == DUMMY], float)
    out = {}
    for j, k in enumerate(ids):
        mine = slice(cuts[j], cuts[j + 1])
        index = m.copy()
        index[carried[mine]] = src[mine] - offsets[j]
        res = MatchResult(arrs[j], dep, index, delay)
        res.__dict__["dummy_departures"] = dummies  # the one shared array
        out[k] = res
    return out


def _concat_results(parts: list[MatchResult], delay: float) -> MatchResult:
    """Join per-segment results of one stream, segments in time order."""
    index = []
    offset = 0
    for p in parts:
        index.append(np.where(p.index >= 0, p.index + offset, p.index))
        offset += p.arrivals.size
    return MatchResult(
        np.concatenate([p.arrivals for p in parts]),
        np.concatenate([p.departures for p in parts]),
        np.concatenate(index),
        delay,
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
            for row in z:  # in place: row z[r] becomes the unclipped state y
                np.clip(np.add(x, row, out=row), 0.0, delay, out=x)
            if measure:
                up = z > delay
                lo = z < 0.0
                upper += up.sum(axis=0)
                lower += lo.sum(axis=0)
                np.logical_or(up, lo, out=up)
                interior_cnt += m - up.sum(axis=0)
                z[up] = 0.0
                for row in z:  # row by row, so each chain's sum keeps its order
                    interior_sum += row
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
    pairs_arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    arrivals = _check_epochs(np.sort(np.concatenate([pairs_arr[:, 0], drops])))
    departures = _check_epochs(np.sort(np.concatenate([pairs_arr[:, 1], dummies])))
    index = np.full(departures.size, DUMMY, dtype=np.int64)
    index[np.searchsorted(departures, pairs_arr[:, 1])] = np.searchsorted(arrivals, pairs_arr[:, 0])
    return MatchResult(arrivals, departures, index, delay)
