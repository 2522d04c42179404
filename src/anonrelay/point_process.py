"""Per-node transmission schedules: Poisson generation, rate estimation,
and medium-access validity checks.

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

from ._util import fmt, substream

__all__ = [
    "Schedule",
    "RateBound",
    "GenSpec",
    "ScheduleError",
    "EmptyScheduleError",
    "MissingBoundError",
    "gen_poisson",
    "poisson_chunks",
    "poisson_rate",
    "empirical_rate",
    "validate_network_schedule",
    "schedule_to_text",
    "schedule_from_text",
]


class ScheduleError(ValueError):
    pass


class EmptyScheduleError(ScheduleError):
    """Raised when a rate is requested for a schedule with no epochs."""


class MissingBoundError(KeyError):
    """Raised when a schedule has no matching per-node rate bound."""


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
    x = _check_epochs(np.asarray(values, dtype=float)).copy()
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
            raise ScheduleError(f"horizon must be nonnegative, got {self.horizon}")


_CHUNK = 1 << 16  # epochs per chunk of a streamed draw


def _draw(rng: np.random.Generator, scale: float, n: int, prev: float) -> np.ndarray:
    """The next n epochs after `prev`: exponential gaps summed in place, one
    at a time, so any split of a draw into consecutive pieces gives the same
    epochs bit for bit."""
    x = rng.exponential(scale, n)
    x[0] += prev
    return np.cumsum(x, out=x)


def poisson_epochs(rate: float, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson arrival epochs on [0, horizon]: one block sized
    to hold them almost surely, extended in rare cases, and cut at the
    horizon."""
    if horizon <= 0.0:
        return np.empty(0)
    expected = rate * horizon
    block = int(expected + 6.0 * math.sqrt(expected) + 16.0)
    x = _draw(rng, 1.0 / rate, block, 0.0)
    while x[-1] <= horizon:
        x = np.concatenate([x, _draw(rng, 1.0 / rate, max(block // 8, 64), x[-1])])
    return x[:np.searchsorted(x, horizon, side="right")]


def _epoch_chunks(rate: float, horizon: float, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The epochs of `poisson_epochs(rate, horizon, rng)`, bit for bit, drawn
    and yielded in chunks of at most _CHUNK."""
    if horizon <= 0.0:
        return
    prev = 0.0
    while True:
        x = _draw(rng, 1.0 / rate, _CHUNK, prev)
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
    return Schedule(node_id=node_id, epochs=poisson_epochs(spec.rate, spec.horizon, rng))


def _rate(n: int, last: float, node_id: str) -> float:
    if n == 0:
        raise EmptyScheduleError(f"rate of empty schedule {node_id!r} is undefined")
    if last <= 0.0:
        raise ScheduleError("rate undefined when the only epoch is at time zero")
    return n / last


def poisson_rate(spec: GenSpec, node_id: str = "node") -> float:
    """`empirical_rate(gen_poisson(spec, node_id))`, counted over a streamed
    draw whose epochs are let go chunk by chunk."""
    n, last = 0, 0.0
    for x in poisson_chunks(spec, node_id):
        n += x.size
        last = float(x[-1])
    return _rate(n, last, node_id)


def empirical_rate(schedule: Schedule) -> float:
    """Packets per second as n / (epoch of the n-th packet)."""
    n = len(schedule)
    return _rate(n, schedule.last_epoch if n else 0.0, schedule.node_id)


def validate_network_schedule(schedules, bounds) -> bool:
    """True iff every node's empirical rate is within its own cap.

    Bounds are per node and independent: nodes transmit and receive
    concurrently, so no cross-node constraint applies here.
    """
    caps = {}
    for b in bounds:
        caps[b.node_id] = b.capacity
    for s in schedules:
        if s.node_id not in caps:
            raise MissingBoundError(s.node_id)
        if len(s) and empirical_rate(s) > caps[s.node_id]:
            return False
    return True


def schedule_to_text(schedule: Schedule, bound: RateBound) -> str:
    """Line format: header `node <id> rate <C>`, one epoch per line.

    Floats are written in shortest round-trip form, lossless well past 12
    significant digits.
    """
    if schedule.node_id != bound.node_id:
        raise ScheduleError("schedule and bound describe different nodes")
    lines = [f"node {schedule.node_id} rate {fmt(bound.capacity)}"]
    lines.extend(fmt(t) for t in schedule.epochs.tolist())
    return "\n".join(lines) + "\n"


def schedule_from_text(text: str) -> tuple[Schedule, RateBound]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ScheduleError("empty schedule text")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "node" or head[2] != "rate":
        raise ScheduleError(f"bad schedule header: {lines[0]!r}")
    node_id = head[1]
    bound = RateBound(node_id=node_id, capacity=float(head[3]))
    epochs = np.array([float(ln) for ln in lines[1:]], dtype=float)
    return Schedule(node_id=node_id, epochs=epochs), bound
