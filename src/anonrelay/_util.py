"""Small shared helpers: reproducible substreams, batch-mean error bars,
convex hulls, and stable float formatting."""
from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, *tags) -> np.random.Generator:
    """Counter-based generator for an independent, reproducible random stream.

    Distinct tag tuples yield statistically independent streams under the
    same master seed, so parallel components never share randomness.
    """
    key = tuple(zlib.crc32(repr(t).encode("utf-8")) for t in tags)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def batch_stderr(values, batches: int = 32) -> float:
    """Standard error of the mean via batch means.

    Batching absorbs the short-range correlation of matcher output streams,
    which a plain i.i.d. error bar would understate.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 4:
        return float("nan")
    b = min(batches, n // 2)
    k = n // b
    means = x[: k * b].reshape(b, k).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(b))


def flag_batch_stderr(chunks, n: int, batches: int = 32) -> float:
    """`batch_stderr` of n boolean flags given as consecutive chunks, from
    per-batch counts: no float copy of the flags is made, and the result is
    bit-identical, since a batch mean of 0/1 values is its count over the
    batch length."""
    if n < 4:
        return float("nan")
    b = min(batches, n // 2)
    k = n // b
    counts = np.zeros(b, dtype=np.int64)
    start = 0
    for f in chunks:
        hits = np.flatnonzero(f[:max(0, k * b - start)]) + start
        counts += np.bincount(hits // k, minlength=b)
        start += f.size
    return float((counts / k).std(ddof=1) / np.sqrt(b))


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
