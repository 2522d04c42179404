"""Independent oracles the tests check the library against.

Nothing here shares code with the implementations under test: drop counts
come from exhaustive matching enumeration, distortion-rate values from
direct constrained minimisation over the conditional simplex, and the
deterministic time-sharing hull from a scan over every pair of points.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize


def min_drops_exhaustive(arrivals, departures, delay) -> int:
    """Minimum drops over all matchings that pair each arrival with a later
    departure at most `delay` away, each departure used once.

    Enumerates order-preserving matchings with memoisation; uncrossing any
    feasible matching never loses pairs, so this is the true minimum.
    """
    arr = tuple(float(a) for a in arrivals)
    dep = tuple(float(t) for t in departures)
    n, m = len(arr), len(dep)

    @lru_cache(maxsize=None)
    def most(i: int, j: int) -> int:
        if i == n or j == m:
            return 0
        best = max(most(i + 1, j), most(i, j + 1))
        if 0.0 <= dep[j] - arr[i] <= delay:
            best = max(best, 1 + most(i + 1, j + 1))
        return best

    result = n - most(0, 0)
    most.cache_clear()
    return result


def _mutual_info_bits(q: np.ndarray, p: np.ndarray) -> float:
    phat = p @ q
    total = 0.0
    for s in range(q.shape[0]):
        for c in range(q.shape[1]):
            if q[s, c] > 1e-300 and phat[c] > 1e-300:
                total += p[s] * q[s, c] * math.log2(q[s, c] / phat[c])
    return total


def _simplex_grid(k: int, m: int):
    """All length-k nonnegative integer compositions of m, scaled to 1."""
    for cuts in itertools.combinations(range(m + k - 1), k - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(m + k - 2 - prev)
        yield np.array(parts, dtype=float) / m


def distortion_rate_oracle(d: np.ndarray, p: np.ndarray, rate_bits: float,
                           grid: int = 6) -> float:
    """D(r) by brute force: search the product of per-source simplex grids
    for the best conditional with mutual information within the budget, then
    polish with a general constrained minimiser from that start.

    Only meant for tiny finite instances (3 sources, 4 reconstructions)."""
    d = np.asarray(d, dtype=float)
    p = np.asarray(p, dtype=float)
    ns, no = d.shape
    rows = [np.array(list(_simplex_grid(no, grid)))] * ns

    best_q = None
    best_val = math.inf
    for combo in itertools.product(*[range(len(r)) for r in rows]):
        q = np.vstack([rows[s][combo[s]] for s in range(ns)])
        if _mutual_info_bits(q, p) <= rate_bits + 1e-12:
            val = float(np.sum(p[:, None] * q * d))
            if val < best_val:
                best_val = val
                best_q = q

    starts = [np.full((ns, no), 1.0 / no)]
    if best_q is not None:
        starts.insert(0, best_q)
    rng = np.random.default_rng(0)
    for _ in range(2):
        raw = rng.random((ns, no)) + 0.1
        starts.append(raw / raw.sum(axis=1, keepdims=True))

    def objective(x):
        q = x.reshape(ns, no)
        return float(np.sum(p[:, None] * q * d))

    def info_slack(x):
        return rate_bits - _mutual_info_bits(np.clip(x.reshape(ns, no), 0.0, 1.0), p)

    constraints = [{"type": "ineq", "fun": info_slack}]
    for s in range(ns):
        constraints.append(
            {"type": "eq", "fun": (lambda x, s=s: x.reshape(ns, no)[s].sum() - 1.0)}
        )
    best = best_val
    for start in starts:
        res = minimize(
            objective,
            start.ravel(),
            method="SLSQP",
            bounds=[(0.0, 1.0)] * (ns * no),
            constraints=constraints,
            options={"maxiter": 400, "ftol": 1e-12},
        )
        if not res.success:
            continue
        q = np.clip(res.x.reshape(ns, no), 0.0, 1.0)
        q /= q.sum(axis=1, keepdims=True)
        if _mutual_info_bits(q, p) <= rate_bits + 1e-7:
            best = min(best, float(np.sum(p[:, None] * q * d)))
    return best


def hull_value_pairwise(points, alpha: float) -> float:
    """Best rate at anonymity >= alpha over the points themselves and every
    mixture of two of them; raises ValueError when no point reaches alpha."""
    best = -math.inf
    pts = [(float(r), float(a)) for r, a in points]
    for r, a in pts:
        if a >= alpha - 1e-12:
            best = max(best, r)
    for (r1, a1), (r2, a2) in itertools.combinations(pts, 2):
        lo, hi = (r1, a1), (r2, a2)
        if lo[1] > hi[1]:
            lo, hi = hi, lo
        if lo[1] - 1e-12 <= alpha <= hi[1] + 1e-12 and hi[1] > lo[1]:
            t = (alpha - lo[1]) / (hi[1] - lo[1])
            t = min(1.0, max(0.0, t))
            best = max(best, lo[0] + t * (hi[0] - lo[0]))
    if not math.isfinite(best):
        raise ValueError(f"no deterministic point reaches anonymity {alpha}")
    return best


def hull_pairwise(points) -> list[tuple[float, float]]:
    """(rate, alpha) vertices of the time-sharing envelope: the pairwise
    value at every distinct alpha, collinear middle points dropped."""
    pruned: list[tuple[float, float]] = []
    for a in sorted({a for _, a in points}):
        r = hull_value_pairwise(points, a)
        while len(pruned) >= 2:
            (r0, a0), (r1, a1) = pruned[-2], pruned[-1]
            if abs((r1 - r0) * (a - a0) - (r - r0) * (a1 - a0)) <= 1e-12:
                pruned.pop()
            else:
                break
        pruned.append((r, a))
    return pruned
