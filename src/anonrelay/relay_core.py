"""Delay-constrained relaying: greedy matching of arrivals to an independent
departure schedule, priority and time-shared variants, the average-delay
relaxation, and a clipped-random-walk oracle that predicts the same losses
without sharing any matching code.

One block-scan kernel, `_scan`, serves every matcher. It is resumable:
`_Greedy` feeds it departures in chunks of _CHUNK and carries the count of
arrivals consumed, and the arrivals not yet settled, from one chunk to the
next, so its scratch is O(_CHUNK) whatever the horizon. The whole-schedule
matchers feed it one chunk; `stream_relay` feeds it chunks of epochs as they
are drawn, through the same successive and equal-priority logic. It returns,
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
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from . import analytic
from ._util import fmt, substream
from .point_process import (
    EmptyScheduleError,
    Schedule,
    ScheduleError,
    _check_epochs,
    empirical_rate,
)

__all__ = [
    "MatchResult",
    "PriorityOrder",
    "bounded_greedy_match",
    "priority_relay",
    "stream_relay",
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


_CHUNK = 1 << 16  # departures per kernel pass: the kernel's scratch is O(_CHUNK)


def _scan(arr: np.ndarray, dep: np.ndarray, delay: float, offset: int, out: np.ndarray) -> int:
    """One pass of the greedy kernel over a chunk of departures.

    `arr` holds the arrivals from the first not yet consumed up to the last
    at or before the chunk's last departure. Writes into `out`, per
    departure, `offset` plus the index in `arr` of the arrival it carries,
    or DUMMY, and returns `offset` plus the arrivals of `arr` consumed by
    the end of the chunk.

    In `arr`'s own indices, with lo_k arrivals before t_k - delay and hi_k
    at or before t_k, the arrivals consumed by the end of departure k obey
    the clamp recursion i_k = min(max(i_{k-1}, lo_k) + 1, hi_k), i_{-1} = 0,
    and departure k carries arrival max(i_{k-1}, lo_k) exactly when i_k
    exceeds it. The i_k never decrease, so a lo_k below 0, the arrivals
    consumed before the chunk, changes nothing. With y_k = i_k - k - 1 this
    is y_k = clamp(y_{k-1}, lo_k - k, hi_k - k - 1), and departure k carries
    arrival max(y_{k-1}, lo_k - k) + k exactly when that maximum is at most
    hi_k - k - 1. Clamps compose into clamps, so it is solved in blocks of
    departures: one pass composes every block's map, a loop chains the
    blocks' start values, and a second pass replays each block, in place.
    Blocks of about sqrt(chunk / 8) departures balance the passes, which
    cost one numpy call per position in a block, against the loop, which
    costs one Python step per block.
    """
    m = dep.size
    if arr.size == 0:
        out[:] = DUMMY
        return offset
    # Departure k = b * block + r sits at [b, r], so column r holds departure
    # r of every block; the zero padding after departure m - 1 ends the last
    # block and is never read back.
    block = math.isqrt((m - 1) // 8) + 1
    nblocks = -(-m // block)
    k_block = np.arange(0, nblocks * block, block, dtype=np.int64)[:, None]
    k_row = np.arange(block, dtype=np.int64)
    floor = np.zeros((nblocks, block), dtype=np.int64)  # lo_k - k
    ceil = np.zeros((nblocks, block), dtype=np.int64)  # hi_k - k - 1
    ceil.reshape(-1)[:m] = np.searchsorted(arr, dep, side="right")
    if not math.isinf(delay):  # an unbounded window has lo_k = 0
        cut = floor.reshape(-1)[:m]
        np.subtract(dep, delay, out=cut.view(np.float64))  # t_k - delay, in floor's memory
        cut[:] = np.searchsorted(arr, cut.view(np.float64), side="left")
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

    last = divmod(m - 1, block)
    consumed = offset + m + int(min(floor[last], ceil[last]))  # i_{m-1} = y_{m-1} + m
    dummy = floor > ceil
    floor += k_block
    floor += k_row + offset
    floor[dummy] = DUMMY
    out[:] = floor.reshape(-1)[:m]
    return consumed


class _Window:
    """The values of one stream fed so far and not yet settled, addressed by
    their index in the whole stream."""

    def __init__(self, dtype=float):
        self.values = np.empty(0, dtype=dtype)
        self.base = 0  # stream index of values[0]

    @property
    def end(self) -> int:
        return self.base + self.values.size

    def feed(self, chunk: np.ndarray) -> None:
        if chunk.size:
            self.values = np.concatenate([self.values, chunk]) if self.values.size else chunk

    def after(self, i: int) -> np.ndarray:
        return self.values[i - self.base:]

    def settle(self, i: int) -> np.ndarray:
        """Remove and return the values before stream index `i`."""
        cut = i - self.base
        part, rest = self.values[:cut], self.values[cut:]
        self.values = rest if rest.size else np.empty(0, dtype=rest.dtype)  # lets go of the buffer
        self.base = i
        return part


class _Greedy:
    """The greedy matcher of one sorted arrival stream, resumable: arrivals
    are fed and departures matched chunk by chunk in time order, and all it
    carries between chunks is the count of arrivals consumed, i_{k-1}, and
    the arrivals not yet settled.

    Before departures are matched, every arrival at or before the last of
    them must have been fed.
    """

    def __init__(self, delay: float):
        if not (delay >= 0.0):
            raise ValueError(f"delay must be nonnegative, got {delay}")
        self.delay = delay
        self.arrivals = _Window()
        self.done = 0  # arrivals consumed: every one before it is matched or dropped

    def match(self, dep: np.ndarray) -> np.ndarray:
        """Per departure, the arrival it carries, counted from the first one
        not consumed before this call, or DUMMY."""
        first = self.done
        index = np.empty(dep.size, dtype=np.int64)
        passes = -(-dep.size // _CHUNK)
        size = -(-dep.size // passes) if passes else 1  # passes of equal size
        for a in range(0, dep.size, size):
            t = dep[a:a + size]
            # Only arrivals from the first unconsumed one up to the chunk's
            # last departure can be carried, so both searches cover that range.
            arr = self.arrivals.after(self.done)
            arr = arr[:np.searchsorted(arr, t[-1], side="right")]
            self.done = first + _scan(arr, t, self.delay, self.done - first, index[a:a + t.size])
        return index

    def settle(self, final: bool) -> np.ndarray:
        """Remove and return the arrivals settled: those consumed, or, once
        `final` says no departures follow, every arrival fed."""
        if final:
            self.done = self.arrivals.end
        return self.arrivals.settle(self.done)

    def step(self, dep: np.ndarray, final: bool) -> MatchResult:
        """Match `dep`; the result covers it and the arrivals it settled."""
        index = self.match(dep)
        return MatchResult(self.settle(final), dep, index, self.delay)


def _match_index(arr: np.ndarray, dep: np.ndarray, delay: float) -> np.ndarray:
    """The kernel over whole arrays: the resumable matcher fed one chunk.
    Its scratch beyond the returned index is O(_CHUNK)."""
    g = _Greedy(delay)
    g.arrivals.feed(arr)
    return g.match(dep)


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


class _Successive:
    """Successive priority matching, resumable: each stream, in priority
    order, is matched on the departures left unused by the streams above it."""

    def __init__(self, ordering: Sequence[str], delay: float):
        self.matchers = {k: _Greedy(delay) for k in ordering}

    def step(self, dep: np.ndarray, new: dict[str, np.ndarray], final: bool):
        out: dict[str, MatchResult] = {}
        last = len(self.matchers) - 1
        for j, (k, g) in enumerate(self.matchers.items()):
            g.arrivals.feed(new[k])
            out[k] = g.step(dep, final)
            if j < last:
                dep = out[k].dummy_departures
        return out


class _Joint:
    """Equal-priority matching, resumable: the streams are merged by time, a
    tie going to the stream first in id order, and the union is matched.
    Every stream's result sees every departure, OTHER where another stream's
    packet left, and all of them share one dummies array."""

    def __init__(self, ids, delay: float):
        self.ids = sorted(ids)
        self.merged = _Greedy(delay)
        self.own = [_Window() for _ in self.ids]  # each stream's unsettled arrivals
        self.n_merged = [0] * len(self.ids)
        # per merged arrival: its index in its stream, shifted left, or'ed
        # with its stream's position in `ids`
        self.shift = max(1, (len(self.ids) - 1).bit_length())
        self.tags = _Window(np.int64)

    def _merge(self, cut: float) -> None:
        """Merge every fed arrival at or before `cut`."""
        parts = []
        for w, n0 in zip(self.own, self.n_merged):
            a = w.after(n0)
            parts.append(a[:np.searchsorted(a, cut, side="right")])
        times = np.concatenate(parts)
        tags = np.argsort(times, kind="stable")  # a tie goes to the stream first in id order
        self.merged.arrivals.feed(times[tags])
        del times
        # in place, each position in the concatenation becomes its arrival's tag
        edges = np.cumsum([0] + [a.size for a in parts])
        stream = np.zeros(tags.size, dtype=np.min_scalar_type(len(parts)))
        for e in edges[1:-1]:
            stream += tags >= e
        tags -= (edges[:-1] - self.n_merged)[stream]
        tags <<= self.shift
        tags |= stream
        self.tags.feed(tags)
        self.n_merged = [n0 + a.size for a, n0 in zip(parts, self.n_merged)]

    def step(self, dep: np.ndarray, new: dict[str, np.ndarray], final: bool):
        if not self.ids:
            return {}
        for k, w in zip(self.ids, self.own):
            w.feed(new[k])
        if final or dep.size:
            self._merge(math.inf if final else dep[-1])
        m = self.merged.match(dep)
        self.merged.settle(final)
        carried = np.flatnonzero(m >= 0)
        src = self.tags.settle(self.merged.done)[m[carried]]
        m[carried] = OTHER  # now every stream's index away from its own packets
        low = (1 << self.shift) - 1
        stream = src & low
        src >>= self.shift  # the carried packet's index in its stream
        waiting = np.bincount(self.tags.values & low, minlength=len(self.ids))  # merged, unsettled
        dummies = _readonly(dep[m == DUMMY], float)
        out = {}
        for j, (k, w, n0) in enumerate(zip(self.ids, self.own, self.n_merged)):
            mine = stream == j
            index = m.copy()
            index[carried[mine]] = src[mine] - w.base
            res = MatchResult(w.settle(n0 - int(waiting[j])), dep, index, self.merged.delay)
            res.__dict__["dummy_departures"] = dummies  # the one shared array
            out[k] = res
        return out


def _successive_match(streams: dict[str, np.ndarray], ordering, departures, delay):
    """Apply the greedy matcher stream by stream in priority order; each
    stream sees only the departure epochs left unused by higher priorities."""
    return _Successive(ordering, delay).step(departures, streams, final=True)


def _joint_match(streams: dict[str, np.ndarray], departures, delay):
    """Equal-priority matching of whole streams: merge them (ties broken by
    node id), match the union, and split the kernel's index back per stream.
    Every stream's result shares the departures and one dummies array."""
    streams = {k: np.asarray(v, dtype=float) for k, v in streams.items()}
    return _Joint(streams, delay).step(_epoch_array(departures), streams, final=True)


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


def _checked_chunks(chunks: Iterable) -> Iterator[np.ndarray]:
    """The nonempty chunks of one epoch stream, each held to the Schedule
    rules, and increasing across chunk boundaries too."""
    last = -math.inf
    for c in chunks:
        c = _check_epochs(np.asarray(c, dtype=float))
        if c.size:
            if not c[0] > last:
                raise ScheduleError("epochs must be strictly increasing across chunks")
            last = c[-1]
            yield c


def stream_relay(
    arrival_chunks: Mapping[str, Iterable[np.ndarray]],
    departure_chunks: Iterable[np.ndarray],
    ordering: Optional[Sequence[str]],
    delay: float,
) -> Iterator[dict[str, MatchResult]]:
    """Relay streams given as chunks of epochs, holding a few chunks at a
    time rather than whole schedules.

    With an `ordering` (every stream's id, highest priority first) matching
    is successive, as `priority_relay` does under a single ordering; with
    None the streams share the relay with equal priority. Each chunk is held
    to the Schedule rules. Yields, per step, each stream's result over that
    step's departures and the arrivals it settled: matched, or dropped for
    good. One step is made per departure chunk, then more as the arrivals
    left over once departures run out are read and dropped. Joined in order,
    the steps give the whole-schedule results index for index.
    """
    if ordering is None:
        matcher = _Joint(arrival_chunks, delay)
    elif sorted(ordering) == sorted(arrival_chunks):
        matcher = _Successive(ordering, delay)
    else:
        raise ValueError("ordering must list every stream exactly once")
    sources = {k: _checked_chunks(v) for k, v in arrival_chunks.items()}
    reached = dict.fromkeys(sources, -math.inf)  # last epoch read per stream
    empty = np.empty(0)
    for dep in _checked_chunks(departure_chunks):
        new = {}
        for k, src in sources.items():  # read every arrival up to the last departure
            read = []
            while reached[k] < dep[-1]:
                c = next(src, None)
                if c is None:
                    reached[k] = math.inf
                    break
                read.append(c)
                reached[k] = c[-1]
            new[k] = np.concatenate(read) if len(read) > 1 else (read[0] if read else empty)
        yield matcher.step(dep, new, final=False)
    # Departures are over: whatever is waiting, and every arrival still to
    # come, is dropped.
    yield matcher.step(empty, dict.fromkeys(sources, empty), final=True)
    for k, src in sources.items():
        for c in src:
            yield matcher.step(empty, {j: c if j == k else empty for j in sources}, final=True)


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
