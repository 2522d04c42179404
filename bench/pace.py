"""Pace sampling: how fast the worker's CPU runs while a pass is timed.

On a shared VM the host's speed drifts by tens of percent within minutes,
and the workloads' wall times drift with it. An untraced pass therefore
runs `Sampler` around its timed section. Every INTERVAL_S seconds a timer
signal interrupts the workload, and the handler times one fixed round of
work on the same CPU. A round is a pure-Python integer loop and a small
numpy fixed-point loop, the two kinds of work the workloads spend most of
their time in, on a few kilobytes of data so that it takes little from the
workload's caches. The median round time says how fast the CPU ran during
the pass; run.py scales the pass's times by it. A set-up probe, which
stops before the first call into anonrelay, runs rounds back to back
instead (`pace_now`).
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1


def one_round(a: np.ndarray, p: np.ndarray) -> float:
    s = 0
    for i in range(20_000):
        s += i * i
    q = a
    for _ in range(100):
        z = (q * p[:, None]).sum(axis=1)
        q = a / z[:, None]
    return float(q[0, 0]) + s


def pace_now(rounds: int = 20) -> float:
    """Median time of `rounds` rounds run back to back."""
    a, p = _data()
    times = []
    for _ in range(rounds):
        t0 = time.monotonic()
        one_round(a, p)
        times.append(time.monotonic() - t0)
    return statistics.median(times)


def _data() -> tuple[np.ndarray, np.ndarray]:
    return np.random.default_rng(0).random((24, 55)), np.full(24, 1.0 / 24)


class Sampler:
    """Context manager that times one round every INTERVAL_S seconds."""

    def __init__(self) -> None:
        self.a, self.p = _data()
        self.rounds: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.monotonic()
        one_round(self.a, self.p)
        self.rounds.append(time.monotonic() - t0)

    def __enter__(self) -> "Sampler":
        one_round(self.a, self.p)  # warm up outside the timed section
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def round_s(self) -> float:
        return statistics.median(self.rounds)
