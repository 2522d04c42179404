"""Per-node transmission schedules: Poisson generation, whole or in chunks,
and rate estimation.

A schedule is the complete, time-ordered list of packet transmission epochs
for one node over a finite window. Long-run rates are estimated on that
window; every estimator here is the finite-horizon proxy for the asymptotic
quantity it stands in for.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._util import substream

__all__ = [
    "Schedule",
    "RateBound",
    "GenSpec",
    "ScheduleError",
    "EmptyScheduleError",
    "gen_poisson",
    "poisson_chunks",
    "empirical_rate",
]


class ScheduleError(ValueError):
    pass


class EmptyScheduleError(ScheduleError):
    """Raised when a rate is requested for a schedule with no epochs."""


def _check_epochs(x: np.ndarray) -> np.ndarray:
    """Return `x` unchanged if it is a valid epoch sequence: one-dimensional,
    finite, nonnegative and strictly increasing; raise ScheduleError if not."""
    if x.ndim != 1:
        raise ScheduleError(f"epochs must be one-dimensional, got shape {x.shape}")
    if x.size:
        if not np.isfinite(x).all():
            raise ScheduleError("epochs must be finite")
        if x[0] < 0.0:
            raise ScheduleError("epochs must be nonnegative")
        if not (x[1:] > x[:-1]).all():
            raise ScheduleError("epochs must be strictly increasing")
    return x


def _as_epochs(values) -> np.ndarray:
    """`values` as checked, read-only epochs. An array that nothing can
    write, its base included, is kept as it is (`gen_poisson` freezes its
    fresh draw so); any other is copied, so a caller's array may change
    without changing the schedule."""
    x = _check_epochs(np.asarray(values, dtype=float))
    base = x
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is not None:  # an array or buffer in the chain can be written
        x = x.copy()
        x.flags.writeable = False
    return x


@dataclass(frozen=True, eq=False)
class Schedule:
    """Strictly increasing transmission epochs (seconds) for one node."""

    node_id: str
    epochs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "epochs", _as_epochs(self.epochs))

    def __len__(self) -> int:
        return int(self.epochs.size)

    @property
    def last_epoch(self) -> float:
        if not self.epochs.size:
            raise EmptyScheduleError(f"schedule for {self.node_id!r} is empty")
        return float(self.epochs[-1])


@dataclass(frozen=True)
class RateBound:
    """Per-node transmission rate cap (packets/second)."""

    node_id: str
    capacity: float

    def __post_init__(self):
        if not (math.isfinite(self.capacity) and self.capacity > 0.0):
            raise ScheduleError(f"capacity must be finite and positive, got {self.capacity}")


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one reproducible Poisson schedule draw."""

    rate: float
    horizon: float
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ScheduleError(f"rate must be positive, got {self.rate}")
        if not (math.isfinite(self.horizon) and self.horizon >= 0.0):
            raise ScheduleError(f"horizon must be finite and nonnegative, got {self.horizon}")


_CHUNK = 1 << 16  # epochs per chunk of a streamed draw


def _draw(rng: np.random.Generator, scale: float, n: int, prev: float) -> np.ndarray:
    """The next n epochs after `prev`: exponential gaps summed one at a time,
    so any split of a draw into consecutive pieces gives the same epochs bit
    for bit.

    The gaps are summed in place, in chunks of at most _CHUNK, and one
    buffer, reused from chunk to chunk, keeps the chunk's raw gaps. A gap
    below half the float spacing of the running epoch adds nothing. Such an
    epoch becomes the next float above the one before it, the gaps after it
    are restored from the buffer, and the sum goes on from there, so epochs
    strictly increase."""
    x = rng.exponential(scale, n)
    gaps = np.empty(min(n, _CHUNK))
    tied = np.empty(gaps.size, dtype=bool)
    k = 0
    while k < n:  # x[:k] holds final epochs and x[k:] gaps; `prev` is the epoch before x[k]
        seg = x[k:k + _CHUNK]
        c = seg.size
        gaps[:c] = seg
        seg[0] += prev
        np.cumsum(seg, out=seg)
        tied[0] = seg[0] <= prev
        np.less_equal(seg[1:], seg[:-1], out=tied[1:c])
        j = int(tied[:c].argmax())  # the first tie, or 0 if there is none
        if tied[j]:
            seg[j] = np.nextafter(seg[j - 1] if j else prev, math.inf)
            seg[j + 1:] = gaps[j + 1:c]  # the epochs up to the lifted one are final
            c = j + 1
        prev = seg[c - 1]
        k += c
    return x


def _block(expected: float, most: float = math.inf) -> int:
    """Epochs to draw where `expected` are expected before the horizon:
    n + 6 sqrt(n) + 16, enough almost surely, but at most `most`."""
    return int(min(expected + 6.0 * math.sqrt(expected) + 16.0, most))


def poisson_epochs(rate: float, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson arrival epochs on [0, horizon]: one block sized
    to hold them almost surely, extended in rare cases, and cut at the
    horizon."""
    if horizon <= 0.0:
        return np.empty(0)
    block = _block(rate * horizon)
    x = _draw(rng, 1.0 / rate, block, 0.0)
    while x[-1] <= horizon:
        x = np.concatenate([x, _draw(rng, 1.0 / rate, max(block // 8, 64), x[-1])])
    return x[:np.searchsorted(x, horizon, side="right")]


def _epoch_chunks(rate: float, horizon: float, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The epochs of `poisson_epochs(rate, horizon, rng)`, bit for bit, drawn
    and yielded in chunks of at most _CHUNK.

    Each draw is sized as `poisson_epochs` sizes its block, to the epochs
    still expected before the horizon plus a margin, but at most _CHUNK, so
    a stream draws its kept epochs and about one margin more, not a chunk
    more. `_draw` gives the same epochs however a draw is split."""
    if horizon <= 0.0:
        return
    prev = 0.0
    while True:
        x = _draw(rng, 1.0 / rate, _block(rate * (horizon - prev), _CHUNK), prev)
        if x[-1] > horizon:
            x = x[:np.searchsorted(x, horizon, side="right")]
            if x.size:
                yield x
            return
        yield x
        prev = x[-1]


def poisson_chunks(spec: GenSpec, node_id: str = "node") -> Iterator[np.ndarray]:
    """The epochs of `gen_poisson(spec, node_id)` in chunks, so a consumer
    that lets each chunk go holds O(_CHUNK) of them."""
    return _epoch_chunks(spec.rate, spec.horizon, substream(spec.seed, "poisson", node_id))


def gen_poisson(spec: GenSpec, node_id: str = "node") -> Schedule:
    """Draw one Poisson schedule. Identical (rate, horizon, seed, node_id)
    always reproduce the identical epoch sequence."""
    rng = substream(spec.seed, "poisson", node_id)
    epochs = poisson_epochs(spec.rate, spec.horizon, rng)
    for a in (epochs, epochs.base):  # the draw is a view of the block it was cut from
        if a is not None:
            a.flags.writeable = False
    return Schedule(node_id=node_id, epochs=epochs)


def _rate(n: int, last: float, node_id: str) -> float:
    if n == 0:
        raise EmptyScheduleError(f"rate of empty schedule {node_id!r} is undefined")
    if last <= 0.0:
        raise ScheduleError("rate undefined when the only epoch is at time zero")
    return n / last


def empirical_rate(schedule: Schedule) -> float:
    """Packets per second as n / (epoch of the n-th packet)."""
    n = len(schedule)
    return _rate(n, schedule.last_epoch if n else 0.0, schedule.node_id)

