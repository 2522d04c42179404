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
        if x.size > 1 and not (np.diff(x) > 0.0).all():
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


def poisson_epochs(rate: float, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson arrival epochs on [0, horizon], by cumulative
    exponential inter-arrivals drawn in blocks."""
    if horizon <= 0.0:
        return np.empty(0)
    expected = rate * horizon
    block = int(expected + 6.0 * math.sqrt(expected) + 16.0)
    chunks = [np.cumsum(rng.exponential(1.0 / rate, block))]
    while chunks[-1][-1] <= horizon:
        nxt = chunks[-1][-1] + np.cumsum(rng.exponential(1.0 / rate, max(block // 8, 64)))
        chunks.append(nxt)
    epochs = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    return epochs[epochs <= horizon]


def gen_poisson(spec: GenSpec, node_id: str = "node") -> Schedule:
    """Draw one Poisson schedule. Identical (rate, horizon, seed, node_id)
    always reproduce the identical epoch sequence."""
    rng = substream(spec.seed, "poisson", node_id)
    return Schedule(node_id=node_id, epochs=poisson_epochs(spec.rate, spec.horizon, rng))


def empirical_rate(schedule: Schedule) -> float:
    """Packets per second as n / (epoch of the n-th packet)."""
    n = len(schedule)
    if n == 0:
        raise EmptyScheduleError(f"rate of empty schedule {schedule.node_id!r} is undefined")
    last = schedule.last_epoch
    if last <= 0.0:
        raise ScheduleError("rate undefined when the only epoch is at time zero")
    return n / last


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
