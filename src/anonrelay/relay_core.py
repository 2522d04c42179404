"""Delay-constrained relaying: greedy matching of arrivals to an independent
departure schedule, successive-priority and equal-priority variants, the
average-delay relaxation, and a clipped-random-walk oracle that predicts the
same losses without sharing any matching code.

One block-scan kernel, `_scan`, serves every matcher. It is resumable:
`_Greedy` feeds it departures in chunks of _CHUNK and carries the count of
arrivals consumed, and the arrivals not yet settled, from one chunk to the
next, so its scratch is O(_CHUNK) whatever the horizon. The whole-schedule
matchers feed it one chunk; `stream_relay` feeds it chunks of epochs as they
are drawn, through the same successive and equal-priority logic, and its read
loop, `_relays`, can feed one read to several matchers. It returns, per
departure, the index of the arrival it carries. Its window bounds, per
departure t the arrivals before the exact t - delay and those at or before
t, are counted by merging, not by a binary search per departure: `_ranks`
merges the sorted departures, then the cuts (the least double at or above
t - delay, clamped to 0), with the arrivals that fall between the first and
the last of them, each in one stable sort of uint64 keys. A key is an epoch's float64 bits shifted left
by 1, which keeps its order because epochs are finite and nonnegative
(-0.0 keys as 0.0); the freed low bit is a tag that settles ties, arrivals
before equal departures and cuts before equal arrivals. Where more than
_MERGE_MAX_RATIO arrivals fall there per departure, as at an overloaded
relay, binary searches cost less and are used instead, so a pass ranks
O(_CHUNK) values whatever the backlog. A `MatchResult` keeps, beside the
epochs, only the carried pairs, `carried` arrival indices and departure
`slots`, and derives pairs, drops, dummies and delays from them on demand,
so an equal-priority step over S streams does O(departures) bookkeeping,
not O(S x departures).
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from . import analytic
from ._util import BatchMeans, check_count, fmt, substream
from .point_process import (GenSpec, Schedule, ScheduleError, _check_epochs, _rate,
                            poisson_chunks)

__all__ = [
    "MatchResult",
    "RelayPathStats",
    "bounded_greedy_match",
    "priority_relay",
    "stream_relay",
    "avg_delay_window",
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

    Holds the sorted `arrivals` and `departures` and the carried pairs: the
    increasing arrival indices `carried` and departure positions `slots`.
    The rest is derived on demand: `pairs`, (arrival, departure) epochs in
    FIFO order; `dropped`, one flag per arrival for those that outlived
    their window or were still waiting when departures ran out;
    `dropped_arrivals`; `dummy_departures`, the departures that carried no
    packet, all those outside `slots` unless `dummies` is given (the results
    of an equal-priority match share that one array, and the rest carried
    other streams' packets); `delays`; and `index`, per departure the
    arrival it carries, DUMMY (-1) or OTHER (-2). Construction raises
    ValueError unless the slots strictly increase within `departures`,
    `carried` holds one arrival index per slot in FIFO order, and each pair
    departs within [0, delay_bound] of its arrival; the checks read the
    carried pairs only.
    """

    arrivals: np.ndarray
    departures: np.ndarray
    carried: np.ndarray
    slots: np.ndarray
    delay_bound: float
    dummies: InitVar[Optional[np.ndarray]] = None

    def __post_init__(self, dummies):
        for name, dtype in (("arrivals", float), ("departures", float),
                            ("carried", np.int64), ("slots", np.int64)):
            object.__setattr__(self, name, _readonly(getattr(self, name), dtype))
        if dummies is not None:
            self.__dict__["dummy_departures"] = _readonly(dummies, float)
        taken, slots = self.carried, self.slots
        if slots.ndim != 1 or slots.size and (slots[0] < 0 or slots[-1] >= self.departures.size
                                              or (slots[1:] <= slots[:-1]).any()):
            raise ValueError("slots must be strictly increasing positions in departures")
        if taken.shape != slots.shape or taken.size and (  # in FIFO order, checked next,
                taken[0] < 0 or taken[-1] >= self.arrivals.size):  # the ends bound every index
            raise ValueError("carried must hold one arrival index per slot")
        if (taken[1:] <= taken[:-1]).any():
            raise ValueError("matched pairs are not in FIFO order")
        if taken.size:
            d = self.departures[slots]
            d -= self.arrivals[taken]
            if d.min() < 0.0:
                raise ValueError("matched pair departs before it arrives")
            if d.max() > self.delay_bound:
                raise ValueError("matched pair exceeds the delay bound")

    @classmethod
    def from_index(cls, arrivals, departures, index, delay_bound: float) -> "MatchResult":
        """The result of a per-departure `index` of arrivals, DUMMY and OTHER,
        as the kernel writes it; with an OTHER, the DUMMY departures are the
        shared `dummies`. Raises ValueError as the constructor does, and
        unless `index` holds one arrival index, DUMMY or OTHER per departure."""
        departures, index = np.asarray(departures, dtype=float), np.asarray(index, dtype=np.int64)
        lowest = index.min(initial=DUMMY)
        if index.shape == departures.shape and lowest >= OTHER:
            slots = np.flatnonzero(index >= 0)
            carried = index[slots]
            if not carried.size or carried[-1] < np.size(arrivals):  # the constructor checks FIFO
                dummies = departures[index == DUMMY] if lowest == OTHER else None
                return cls(arrivals, departures, carried, slots, delay_bound, dummies)
        raise ValueError("index must hold one arrival index, DUMMY or OTHER per departure")

    @property
    def index(self) -> np.ndarray:
        index = np.full(self.departures.size, OTHER, dtype=np.int64)
        index[np.searchsorted(self.departures, self.dummy_departures)] = DUMMY
        index[self.slots] = self.carried
        return _readonly(index, np.int64)

    @property
    def pairs(self) -> np.ndarray:
        return np.column_stack([self.arrivals[self.carried], self.departures[self.slots]])

    @property
    def delays(self) -> np.ndarray:
        d = self.departures[self.slots]
        d -= self.arrivals[self.carried]
        return d

    @property
    def dropped(self) -> np.ndarray:
        """One flag per arrival, in arrival order: True where it was dropped."""
        flags = np.ones(self.arrivals.size, dtype=bool)
        flags[self.carried] = False
        return flags

    @property
    def dropped_arrivals(self) -> np.ndarray:
        return self.arrivals[self.dropped]

    @cached_property
    def dummy_departures(self) -> np.ndarray:
        return _readonly(np.delete(self.departures, self.slots), float)

    @property
    def n_matched(self) -> int:
        return self.carried.size

    @property
    def n_dropped(self) -> int:
        return self.arrivals.size - self.n_matched

    @property
    def drop_fraction(self) -> float:
        return self.n_dropped / self.arrivals.size if self.arrivals.size else 0.0

    @property
    def mean_delay(self) -> float:
        return float(self.delays.mean()) if self.n_matched else math.nan


@dataclass(frozen=True)
class RelayPathStats:
    """Loss bookkeeping for one arrival stream through one relay."""

    n_in: int
    n_dropped: int
    drop_stderr: float

    @property
    def drop_fraction(self) -> float:
        return self.n_dropped / self.n_in if self.n_in else 0.0  # nothing carried, nothing lost

    @classmethod
    def from_flags(cls, flags: BatchMeans) -> "RelayPathStats":
        """Counts and error bar of a stream's drop flags fed to `flags`; an
        empty stream loses nothing, exactly: error 0."""
        return cls(flags.count, int(flags.total), flags.stderr if flags.count else 0.0)


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


# Arrivals per needle, between the first needle and the last, above which
# binary searches beat the merge; they break even at about 9 to 10.
_MERGE_MAX_RATIO = 8


def _ranks(arr: np.ndarray, needles: np.ndarray, right: bool, out: np.ndarray) -> None:
    """Write into `out`, per needle k, k plus the count of arrivals in `arr`
    at or before it if `right`, else before it: `np.searchsorted` on that
    side, plus k. Both arrays are sorted and nonempty.

    The arrivals before the first needle's rank count for every needle and
    those from the last needle's rank on count for none, so two scalar
    searches leave only the arrivals between to rank. Those are merged with
    the needles, unless there are more than _MERGE_MAX_RATIO of them per
    needle, where a binary search per needle costs less.

    Every value must be finite and nonnegative; -0.0 counts as 0.0. The bits
    of such a float64, shifted left by 1, are an order-preserving uint64 key:
    the shift drops the sign bit, so -0.0 and 0.0 share a key. The freed low
    bit tags one run, so that no needle ties an arrival and each tie falls on
    the side asked for. The stable sort (a timsort for uint64) finds the two
    presorted runs and merges them in one linear pass; needles that tie each
    other have equal keys, so their order is moot. Needle k then sits at its
    rank plus k in the merged keys.
    """
    side = "right" if right else "left"
    first, last = np.searchsorted(arr, needles[[0, -1]], side=side).tolist()
    arr = arr[first:last]
    n, m = arr.size, needles.size
    if n > _MERGE_MAX_RATIO * m:
        np.add(np.searchsorted(arr, needles, side=side), np.arange(first, first + m), out=out)
        return
    keys = np.empty(n + m, dtype=np.uint64)
    np.left_shift(arr.view(np.uint64), 1, out=keys[:n])
    np.left_shift(needles.view(np.uint64), 1, out=keys[n:])
    # A needle tagged 1 follows the arrivals it equals (side="right"); an
    # arrival tagged 1 follows the needles it equals (side="left").
    tagged = keys[n:] if right else keys[:n]
    tagged |= 1
    keys.sort(kind="stable")
    is_needle = np.bitwise_and(keys, 1, out=np.empty(keys.size, dtype=bool), casting="unsafe")
    if not right:
        np.logical_not(is_needle, out=is_needle)
    # from a bool array: several times faster than from an int one
    np.add(np.flatnonzero(is_needle), first, out=out)


def _scan(arr: np.ndarray, dep: np.ndarray, delay: float, offset: int, out: np.ndarray) -> int:
    """One pass of the greedy kernel over a chunk of departures.

    `arr` holds the arrivals from the first not yet consumed up to the last
    at or before the chunk's last departure. Writes into `out`, per
    departure, `offset` plus the index in `arr` of the arrival it carries,
    or DUMMY, and returns `offset` plus the arrivals of `arr` consumed by
    the end of the chunk.

    In `arr`'s own indices, let lo_k count the arrivals before t_k - delay,
    taken exactly, and hi_k those at or before t_k. `_ranks` counts both,
    merging the sorted departures, then the sorted cuts, each the least
    double at or above t_k - delay, clamped to 0 (no arrival precedes 0,
    and the merge keys need nonnegative values), with the arrivals of `arr`
    between the first and the last of them. The arrivals consumed by the
    end of departure k obey the clamp recursion
    i_k = min(max(i_{k-1}, lo_k) + 1, hi_k), i_{-1} = 0, and departure k
    carries arrival max(i_{k-1}, lo_k) exactly when i_k exceeds it. The i_k
    never decrease, so a lo_k below 0, the arrivals consumed before the
    chunk, changes nothing. With y_k = i_k - k - 1 this is
    y_k = clamp(y_{k-1}, lo_k - k, hi_k - k - 1), and departure k carries
    arrival max(y_{k-1}, lo_k - k) + k exactly when that maximum is at most
    hi_k - k - 1. Clamps compose into clamps, so it is solved in blocks of
    departures: one pass composes every block's map, a loop chains the
    blocks' start values, and a second pass replays each block, in place.
    Blocks of about sqrt(chunk / 8) departures balance the passes, which
    cost one numpy call per position in a block, against the loop, which
    costs one Python step per block.

    An unbounded window (`delay` infinite) has no cut: lo_k = 0, and since
    y_{k-1} = i_{k-1} - k >= -k the floor never binds. The recursion is then
    the running minimum y_k = min(y_{k-1}, hi_k - k - 1) from y_{-1} = 0,
    one `np.minimum.accumulate`, and departure k carries exactly when
    y_k = y_{k-1}.
    """
    m = dep.size
    if arr.size == 0:
        out[:] = DUMMY
        return offset
    if math.isinf(delay):
        y = np.empty(m + 1, dtype=np.int64)  # y[k + 1] holds y_k
        _ranks(arr, dep, True, y[1:])
        k = np.arange(m, dtype=np.int64)
        y[1:] -= 2 * k + 1  # hi_k - k - 1
        y[0] = 0  # y_{-1}
        np.minimum.accumulate(y, out=y)
        # departure k carries exactly when the minimum holds: y_k = y_{k-1}
        np.add(y[:-1], k + offset, out=out)
        out[y[1:] != y[:-1]] = DUMMY
        return offset + m + int(y[-1])
    # Departure k = b * block + r sits at [b, r], so column r holds departure
    # r of every block; the zero padding after departure m - 1 ends the last
    # block and is never read back.
    block = math.isqrt((m - 1) // 8) + 1
    nblocks = -(-m // block)
    k_block = np.arange(0, nblocks * block, block, dtype=np.int64)[:, None]
    k_row = np.arange(block, dtype=np.int64)
    floor = np.zeros((nblocks, block), dtype=np.int64)  # lo_k - k
    ceil = np.zeros((nblocks, block), dtype=np.int64)  # hi_k - k - 1
    # Each bound is written plus k, as `_ranks` gives it; the two k come off
    # together below.
    _ranks(arr, dep, True, ceil.reshape(-1)[:m])
    cut = floor.reshape(-1)[:m]
    t = cut.view(np.float64)  # the least double at or above t_k - delay, in floor's memory
    np.subtract(dep, delay, out=t)
    # Where t_k >= delay, t_k - t is exact (Fast2Sum), so a rounded-down cut
    # shows as t_k - t > delay and is lifted one step; where t_k < delay,
    # the cut is negative either way and clamps to 0.
    np.nextafter(t, math.inf, out=t, where=np.subtract(dep, t) > delay)
    np.maximum(t, 0.0, out=t)
    _ranks(arr, t, False, cut)
    floor -= 2 * k_block
    floor -= 2 * k_row
    ceil -= 2 * k_block
    ceil -= 2 * k_row + 1

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
            # last departure can be carried, so the pass sees only those.
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
        return MatchResult.from_index(self.settle(final), dep, index, self.delay)


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
    return MatchResult.from_index(arr, dep, _match_index(arr, dep, delay), delay)


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
    Every stream's result sees every departure and keeps its own carried
    pairs, and all of them share one dummies array."""

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
        order = np.argsort(times, kind="stable")  # a tie goes to the stream first in id order
        self.merged.arrivals.feed(times[order])
        del times
        tags = np.concatenate([(np.arange(n0, n0 + a.size) << self.shift) | j
                               for j, (a, n0) in enumerate(zip(parts, self.n_merged))])
        self.tags.feed(tags[order])
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
        slots = np.flatnonzero(m >= 0)
        src = self.tags.settle(self.merged.done)[m[slots]]
        dummies = dep[m == DUMMY]
        low = (1 << self.shift) - 1
        stream = (src & low).astype(np.min_scalar_type(len(self.ids)))
        # one stable sort by stream makes each stream's pairs a run, in order
        by_stream = np.argsort(stream, kind="stable")
        cuts = np.cumsum(np.bincount(stream, minlength=len(self.ids)))[:-1]
        src = np.split(src[by_stream] >> self.shift, cuts)  # each packet's index in its stream
        slots = np.split(slots[by_stream], cuts)
        waiting = np.bincount(self.tags.values & low, minlength=len(self.ids))  # merged, unsettled
        out = {}
        for j, (k, w, n0) in enumerate(zip(self.ids, self.own, self.n_merged)):
            src[j] -= w.base
            out[k] = MatchResult(w.settle(n0 - int(waiting[j])), dep, src[j], slots[j],
                                 self.merged.delay, dummies)
        return out


def _matcher(ids, ordering: Optional[Sequence[str]], delay: float):
    """The resumable matcher of the streams `ids`: successive under an
    `ordering` (every id once, highest priority first), equal priority under
    None. The delay is checked here, so even no streams reject a bad one."""
    if not (delay >= 0.0):
        raise ValueError(f"delay must be nonnegative, got {delay}")
    if ordering is None:
        return _Joint(ids, delay)
    if sorted(ordering) != sorted(ids):
        raise ValueError("ordering must list every stream exactly once")
    return _Successive(ordering, delay)


def _joint_match(streams: dict[str, np.ndarray], departures, delay):
    """Equal-priority matching of whole streams: merge them (ties broken by
    node id), match the union, and split the kernel's index back per stream.
    Every stream's result shares the departures and one dummies array."""
    streams = {k: np.asarray(v, dtype=float) for k, v in streams.items()}
    return _Joint(streams, delay).step(_epoch_array(departures), streams, final=True)


def _concat_results(parts: list[MatchResult], delay: float) -> MatchResult:
    """Join per-step results of one stream, steps in time order."""
    n_arr = np.cumsum([0] + [p.arrivals.size for p in parts])
    n_dep = np.cumsum([0] + [p.departures.size for p in parts])
    return MatchResult(
        np.concatenate([p.arrivals for p in parts]),
        np.concatenate([p.departures for p in parts]),
        np.concatenate([p.carried + a for p, a in zip(parts, n_arr)]),
        np.concatenate([p.slots + d for p, d in zip(parts, n_dep)]),
        delay,
        np.concatenate([p.dummy_departures for p in parts]),
    )


def priority_relay(
    arrival_streams: Sequence[Schedule],
    departures: Schedule,
    ordering: Optional[Sequence[str]],
    delay: float,
) -> list[MatchResult]:
    """Relay several whole source streams through one departure schedule;
    one result per stream, in the order given.

    With an `ordering` (every stream's node id, highest priority first)
    matching is the successive greedy scheme: the top stream is matched as
    if alone, the next on the leftover epochs, and so on, so the top
    stream's result equals its standalone match exactly. With None the
    streams are merged and matched with equal priority; in that mode the
    dummy section of every per-stream result is the shared list of unused
    departure epochs.
    """
    ids = [s.node_id for s in arrival_streams]
    if len(set(ids)) != len(ids):
        raise ValueError("arrival streams must have distinct node ids")
    streams = {s.node_id: _epoch_array(s) for s in arrival_streams}
    by_id = _matcher(streams, ordering, delay).step(_epoch_array(departures), streams, final=True)
    return [by_id[k] for k in ids]


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


def _relays(
    arrival_chunks: Mapping[str, Iterable[np.ndarray]],
    departure_chunks: Iterable[np.ndarray],
    orderings: Sequence[Optional[Sequence[str]]],
    delay: float,
) -> Iterator[tuple[int, dict[str, MatchResult]]]:
    """Relay the same streams under each of `orderings`, reading and
    checking every chunk once: yields `(j, step)`, each step of the matcher
    of `orderings[j]` in turn, so a caller that lets each step go holds one
    step at a time. The matchers read the chunks, never write them, so they
    share each one."""
    matchers = [_matcher(arrival_chunks, o, delay) for o in orderings]
    sources = {k: _checked_chunks(v) for k, v in arrival_chunks.items()}
    reached = dict.fromkeys(sources, -math.inf)  # last epoch read per stream
    empty = np.empty(0)

    def steps(dep, new, final):
        for j, matcher in enumerate(matchers):
            yield j, matcher.step(dep, new, final)

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
        yield from steps(dep, new, final=False)
    # Departures are over: whatever is waiting, and every arrival still to
    # come, is dropped.
    yield from steps(empty, dict.fromkeys(sources, empty), final=True)
    for k, src in sources.items():
        for c in src:
            yield from steps(empty, {j: c if j == k else empty for j in sources}, final=True)


def stream_relay(
    arrival_chunks: Mapping[str, Iterable[np.ndarray]],
    departure_chunks: Iterable[np.ndarray],
    ordering: Optional[Sequence[str]],
    delay: float,
) -> Iterator[dict[str, MatchResult]]:
    """Relay streams given as chunks of epochs, holding a few chunks at a
    time rather than whole schedules.

    `ordering` is read as `priority_relay` reads it: every stream's id,
    highest priority first, for successive matching, or None for equal
    priority. Each chunk is held to the Schedule rules. Yields, per step,
    each stream's result over that step's departures and the arrivals it
    settled: matched, or dropped for good. One step is made per departure
    chunk, then more as the arrivals left over once departures run out are
    read and dropped. Joined in order, the steps give the whole-schedule
    results index for index. This is `_relays` with one matcher.
    """
    for _, step in _relays(arrival_chunks, departure_chunks, (ordering,), delay):
        yield step


def _streamed(sources: Mapping[str, GenSpec], out: GenSpec,
              orderings: Sequence[Optional[Sequence[str]]], delay: float, out_id: str = "out"):
    """`_relays` of seeded Poisson draws: each source's `poisson_chunks`
    under its own id as node id, and the departures' under `out_id`, each
    drawn once however many `orderings` match them. A run holds a few chunks
    of epochs whatever its horizon, unless `delay` is infinite and arrivals
    outpace departures: then none expires, and the backlog waiting in the
    matcher, and the run's memory, grow with the horizon."""
    arrivals = {k: poisson_chunks(spec, node_id=k) for k, spec in sources.items()}
    return _relays(arrivals, poisson_chunks(out, node_id=out_id), orderings, delay)


def avg_delay_window(arrival_chunks: Iterable[np.ndarray], departure_chunks: Iterable[np.ndarray],
                     mean_bound: float) -> tuple[float, float, float]:
    """`(window, in_rate, out_rate)` for relaying under a mean (not
    per-packet) delay bound.

    Each stream is given as chunks of epochs, and its rate is counted as
    `empirical_rate` counts a schedule; a stream with no epochs has none and
    raises EmptyScheduleError. The window is unbounded, so nothing is
    dropped, when the departures are fast enough; otherwise it is the one
    whose stationary mean delay equals `mean_bound`, which dominates running
    the strict matcher at the mean bound itself.
    """
    tallies = [0, 0.0], [0, 0.0]
    for chunks, tally in zip((arrival_chunks, departure_chunks), tallies):
        for _ in _tallied(chunks, tally):
            pass
    return _counted_window(tallies, mean_bound)


def _tallied(chunks: Iterable[np.ndarray], tally: list) -> Iterator[np.ndarray]:
    """`chunks`, passed on as read, with `tally` kept at [epochs read, last
    epoch read], what `avg_delay_window` counts of a stream."""
    for c in chunks:
        if c.size:
            tally[0] += c.size
            tally[1] = float(c[-1])
        yield c


def _counted_window(tallies, mean_bound: float) -> tuple[float, float, float]:
    """`avg_delay_window` of the arrivals and departures whose
    `_tallied` counts are `tallies`."""
    in_rate, out_rate = (_rate(n, last, name)
                         for (n, last), name in zip(tallies, ("arrivals", "departures")))
    return analytic.solve_strict_delay(mean_bound, in_rate, out_rate), in_rate, out_rate


def avg_delay_relay(arrivals: Schedule, departures: Schedule, mean_bound: float) -> MatchResult:
    """Relay under a mean (not per-packet) delay constraint: the strict
    matcher at `avg_delay_window` of the two schedules."""
    window = avg_delay_window((arrivals.epochs,), (departures.epochs,), mean_bound)[0]
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


_WALK_ROWS = 64  # step rows per block of walk draws: 64 x 512 chains is 256 KB a buffer


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

    Steps are drawn in blocks of up to _WALK_ROWS rows, one row per step
    across the `chains` independent chains, into two buffers allocated once
    and small enough, at the default chains, to stay in a core's L2 cache,
    so memory is O(chains) whatever `steps` is. Each row is added to the state
    and clamped to the window in place, the block's barrier hits are counted
    column by column, and each chain's interior sum is carried into the
    block's first row and summed down its column, in step order.

    Rates must be finite and positive, `delay` finite and nonnegative,
    `steps` and `chains` positive integers and `burn_in` an integer of at
    least 0; ValueError names the first argument that is not.
    """
    for name, rate in (("input_rate", input_rate), ("relay_rate", relay_rate)):
        if not (math.isfinite(rate) and rate > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {rate!r}")
    if not (math.isfinite(delay) and delay >= 0.0):
        raise ValueError(f"delay must be finite and nonnegative, got {delay!r}")
    check_count("steps", steps)
    check_count("chains", chains)
    check_count("burn_in", burn_in, least=0)
    rng = substream(seed, "walk", input_rate, relay_rate, delay)
    chains = min(chains, steps)
    per_chain = -(-steps // chains)  # ceil
    total = per_chain * chains

    x = rng.uniform(0.0, delay, chains) if delay > 0.0 else np.zeros(chains)
    lower = np.zeros(chains, dtype=np.int64)
    upper = np.zeros(chains, dtype=np.int64)
    interior_cnt = np.zeros(chains, dtype=np.int64)
    interior_sum = np.zeros(chains)

    scale_in = 1.0 / input_rate
    scale_out = 1.0 / relay_rate
    z_buf = np.empty((_WALK_ROWS, chains))  # the block's steps, then its unclipped states
    w_buf = np.empty((_WALK_ROWS, chains))  # the input gaps
    up_buf = np.empty((_WALK_ROWS, chains), dtype=bool)
    lo_buf = np.empty((_WALK_ROWS, chains), dtype=bool)

    def advance(iters: int, measure: bool) -> None:
        nonlocal upper, lower, interior_cnt, interior_sum
        left = iters
        while left > 0:
            m = min(_WALK_ROWS, left)
            z, w = z_buf[:m], w_buf[:m]
            # scale × standard draw is rng.exponential(scale) bit for bit
            rng.standard_exponential(out=z)
            z *= scale_out
            rng.standard_exponential(out=w)
            w *= scale_in
            z -= w
            for row in z:  # in place: row z[r] becomes the unclipped state y
                np.add(x, row, out=row)
                np.minimum(np.maximum(row, 0.0, out=x), delay, out=x)
            if measure:
                up = np.greater(z, delay, out=up_buf[:m])
                lo = np.less(z, 0.0, out=lo_buf[:m])
                n_up, n_lo = up.sum(axis=0), lo.sum(axis=0)
                upper += n_up
                lower += n_lo
                interior_cnt += m - n_up - n_lo  # no state is above and below
                mid = np.logical_not(np.logical_or(up, lo, out=up), out=lo)
                # A product, not a masked store, which mispredicts on random
                # masks. A state below the window gives -0.0, which adds
                # nothing to a chain's sum: from +0.0, that is never -0.0.
                z *= mid
                z[0] += interior_sum
                # down axis 0 numpy adds row after row, so each chain's sum
                # keeps its step order; one chain's column it would sum pairwise
                interior_sum = z.sum(axis=0) if chains > 1 else np.add.accumulate(z[:, 0])[-1:]
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
    pairs_arr = pairs_arr[np.argsort(pairs_arr[:, 1], kind="stable")]
    return MatchResult(arrivals, departures, np.searchsorted(arrivals, pairs_arr[:, 0]),
                       np.searchsorted(departures, pairs_arr[:, 1]), delay)
