"""Small shared helpers: reproducible substreams, the one batch-means
error bar (a streaming accumulator; `batch_stderr` feeds it a whole array),
convex hulls, and stable float formatting."""
from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, *tags) -> np.random.Generator:
    """PCG64 generator for an independent, reproducible random stream.

    The stream is seeded by a SeedSequence of the master seed whose spawn
    key is the tags' CRC-32s, the spawning numpy documents for independent
    PCG64 streams: distinct tag tuples yield statistically independent
    streams under the same master seed, so parallel components never share
    randomness. Every seeded draw passes through here, so here `seed` is
    checked: ValueError unless it is an integer of at least 0.
    """
    check_count("seed", seed, least=0)
    key = tuple(zlib.crc32(repr(t).encode("utf-8")) for t in tags)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


class BatchMeans:
    """Batch-means standard error of a stream's mean (Schmeiser 1982), fed in
    pieces, in O(batches) memory. Its batches are the first b = min(batches,
    n // 2) runs of n // b values, `n` being the count the run knows or
    expects; one the stream does not fill is left out. A batch sum is the
    difference of the running sum, carried across calls, at its two edges,
    so any split of the stream gives the same result bit for bit.

    A piece comes as its values (`add`) or, for a 0/1 stream such as drop
    flags, as its length and the sorted positions of its zeros (`add_ones`):
    the running sum of 0/1 values is a whole number, so both give the same
    result bit for bit, and the second never builds the flags."""

    def __init__(self, n: int, batches: int = 32):
        self.b = min(batches, n // 2)
        self.k = n // self.b if self.b > 0 else 1  # with no batches, any k finds no edge
        self.edges = np.zeros(self.b + 1)  # the running sum at each batch edge
        self.count = 0
        self.total = 0.0

    def add(self, values) -> "BatchMeans":
        start, run = self.count, np.concatenate(([self.total], np.ravel(values)))
        np.add.accumulate(run, out=run)  # run[i] sums the first start + i values
        self.count += run.size - 1
        self.total = float(run[-1])
        j = np.arange(start // self.k + 1, min(self.count // self.k, self.b) + 1)  # edges passed
        self.edges[j] = run[j * self.k - start]
        return self

    def add_ones(self, n: int, zeros) -> "BatchMeans":
        """`add` of n values, each 1 but at the sorted positions `zeros` in
        this piece, where it is 0."""
        start = self.count
        self.count += n
        j = np.arange(start // self.k + 1, min(self.count // self.k, self.b) + 1)  # edges passed
        at = j * self.k - start  # each edge's offset in the piece: the values it sums
        self.edges[j] = self.total + (at - np.searchsorted(zeros, at))
        self.total += n - len(zeros)
        return self

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    @property
    def stderr(self) -> float:
        """NaN below two full batches, so always for n < 4."""
        means = np.diff(self.edges[: min(self.count // self.k, self.b) + 1]) / self.k
        return float(means.std(ddof=1) / np.sqrt(means.size)) if means.size > 1 else float("nan")


def batch_stderr(values, batches: int = 32) -> float:
    """Standard error of the mean of `values` via batch means, which absorb the
    short-range correlation of matcher output that an i.i.d. error bar misses."""
    return BatchMeans(np.size(values), batches).add(values).stderr


def check_count(name: str, n, least: int = 1) -> None:
    """Reject `n` unless it is an integer of at least `least`; a bool is not one."""
    if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= least):
        what = "a positive integer" if least == 1 else f"an integer of at least {least}"
        raise ValueError(f"{name} must be {what}, got {n!r}")


def check_delay(delay) -> None:
    """Reject a delay bound unless it is nonnegative; inf is one, NaN is not."""
    if not delay >= 0.0:
        raise ValueError(f"delay must be nonnegative, got {delay!r}")


def fmt(x: float) -> str:
    """Shortest decimal string that round-trips the float exactly."""
    return repr(float(x))


def convex_hull(points) -> list[tuple[float, float]]:
    """Convex hull of 2-D points (monotone chain), counter-clockwise."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]
