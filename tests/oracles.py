"""Independent oracles the tests check the library against.

Nothing here shares code with the implementations under test: drop counts
come from exhaustive matching enumeration, greedy matchings from the
per-departure loops the block-scan kernel replaced, walk statistics from the
per-step loop the block-measured walk replaced, distortion-rate values from
a batched grid search polished by direct constrained minimisation over the
conditional simplex, the deterministic time-sharing hull from a scan
over every pair of points, the expected rate of a fixed covert set from
a per-session sum of `covert_sum_rate`, with no distortion model between,
the distortion model's cells, observations and losses built cell by
cell, each observed from scratch and read through its own covert rate,
and an observation spelled out as each path's runs between covert relays.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from anonrelay import relay_core
from anonrelay.network_model import covert_sum_rate, max_sum_rate_visible, observe


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


def expired(a, t, delay) -> bool:
    """Whether an arrival at `a` is older than `delay` at departure `t`,
    exactly: the sign of t - delay - a, which `math.fsum` rounds correctly,
    not a comparison with t - delay rounded."""
    return math.fsum((t, -delay, -a)) > 0.0


def greedy_match_reference(arrivals, departures, delay):
    """The greedy delay-window matcher as one loop per departure.

    Returns (pairs, dropped arrivals, dummy departures) as float arrays,
    pairs shaped (n, 2)."""
    arr = np.asarray(arrivals, dtype=float).tolist()
    dep = np.asarray(departures, dtype=float).tolist()

    pair_a: list[float] = []
    pair_d: list[float] = []
    drops: list[float] = []
    dummies: list[float] = []
    add_a = pair_a.append
    add_d = pair_d.append
    add_drop = drops.append
    add_dummy = dummies.append
    i = 0
    n = len(arr)
    for t in dep:
        while i < n:
            a = arr[i]
            if expired(a, t, delay):
                add_drop(a)
                i += 1
            else:
                break
        if i < n and arr[i] <= t:
            add_a(arr[i])
            add_d(t)
            i += 1
        else:
            add_dummy(t)
    drops.extend(arr[i:])

    pairs = np.column_stack([pair_a, pair_d]) if pair_a else np.empty((0, 2))
    return pairs, np.asarray(drops, dtype=float), np.asarray(dummies, dtype=float)


def joint_match_reference(streams: dict, departures, delay):
    """Equal-priority greedy matching as one loop per departure: merge the
    streams (ties broken by node id), match the union, split per stream.

    Returns node id -> (pairs, dropped arrivals, dummy departures); the
    dummies are the one list of unused departures, shared by every stream."""
    ids = sorted(streams)
    times = np.concatenate([streams[k] for k in ids]) if ids else np.empty(0)
    tags = np.concatenate(
        [np.full(np.size(streams[k]), j, dtype=np.intp) for j, k in enumerate(ids)]
    ) if ids else np.empty(0, dtype=np.intp)
    order = np.lexsort((tags, times))
    tl = times[order].tolist()
    gl = tags[order].tolist()
    dep = np.asarray(departures, dtype=float).tolist()

    pair_a = [[] for _ in ids]
    pair_d = [[] for _ in ids]
    drops = [[] for _ in ids]
    dummies: list[float] = []
    i = 0
    n = len(tl)
    for t in dep:
        while i < n:
            a = tl[i]
            if expired(a, t, delay):
                drops[gl[i]].append(a)
                i += 1
            else:
                break
        if i < n and tl[i] <= t:
            g = gl[i]
            pair_a[g].append(tl[i])
            pair_d[g].append(t)
            i += 1
        else:
            dummies.append(t)
    while i < n:
        drops[gl[i]].append(tl[i])
        i += 1

    dummy_arr = np.asarray(dummies, dtype=float)
    out = {}
    for j, k in enumerate(ids):
        pairs = np.column_stack([pair_a[j], pair_d[j]]) if pair_a[j] else np.empty((0, 2))
        out[k] = (pairs, np.asarray(drops[j], dtype=float), dummy_arr)
    return out


def walk_oracle_reference(input_rate, relay_rate, delay, steps, rng, chains=512,
                          burn_in=1000):
    """The clipped delay walk with every barrier statistic updated step by
    step, drawing from `rng` exactly as `random_walk_oracle` draws from its
    substream, in blocks of `relay_core._WALK_ROWS` step rows.

    Returns (p_lower, p_upper, loss_fraction, mean_interior_delay,
    loss_stderr, delay_stderr, steps)."""
    chains = max(1, min(chains, steps))
    per_chain = -(-steps // chains)
    total = per_chain * chains

    x = rng.uniform(0.0, delay, chains) if delay > 0.0 else np.zeros(chains)
    lower = np.zeros(chains, dtype=np.int64)
    upper = np.zeros(chains, dtype=np.int64)
    interior_cnt = np.zeros(chains, dtype=np.int64)
    interior_sum = np.zeros(chains)

    def advance(iters, measure):
        nonlocal upper, lower, interior_cnt, interior_sum
        left = iters
        while left > 0:
            m = min(relay_core._WALK_ROWS, left)
            z = (rng.exponential(1.0 / relay_rate, (m, chains))
                 - rng.exponential(1.0 / input_rate, (m, chains)))
            for r in range(m):
                y = x + z[r]
                if measure:
                    up = y > delay
                    lo = y < 0.0
                    upper += up
                    lower += lo
                    mid = ~(up | lo)
                    interior_cnt += mid
                    interior_sum += np.where(mid, y, 0.0)
                np.clip(y, 0.0, delay, out=x)
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
    return (n_lower / total, n_upper / total, eps, mean_mid, loss_se, delay_se, total)


def _mutual_info_bits(q: np.ndarray, p: np.ndarray) -> float:
    phat = p @ q
    total = 0.0
    for s in range(q.shape[0]):
        for c in range(q.shape[1]):
            if q[s, c] > 1e-300 and phat[c] > 1e-300:
                total += p[s] * q[s, c] * math.log2(q[s, c] / phat[c])
    return total


def _mutual_info_bits_stack(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """`_mutual_info_bits` of each conditional in a stack q[b, s, c], summed
    term by term in the same order; numpy's log2 may differ from math.log2
    in the last bit."""
    phat = p @ q
    total = np.zeros(q.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(q.shape[1]):
            for c in range(q.shape[2]):
                qs, ph = q[:, s, c], phat[:, c]
                term = p[s] * qs * np.log2(qs / ph)
                total += np.where((qs > 1e-300) & (ph > 1e-300), term, 0.0)
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


def grid_search(d: np.ndarray, p: np.ndarray, rate_bits: float, grid: int,
                batch: int = 50_000):
    """The product of per-source simplex grids searched for the conditional
    of least expected distortion with mutual information within the budget:
    (value, conditional) of the first best in product order, or (inf, None).
    Conditionals are scored in numpy batches of `batch`."""
    ns, no = d.shape
    row = np.array(list(_simplex_grid(no, grid)))
    total = len(row) ** ns
    best_val, best_q = math.inf, None
    for start in range(0, total, batch):
        flat = np.arange(start, min(total, start + batch))
        q = row[np.stack(np.unravel_index(flat, (len(row),) * ns), axis=1)]
        val = (p[:, None] * q * d).reshape(flat.size, -1).sum(axis=1)
        val[_mutual_info_bits_stack(q, p) > rate_bits + 1e-12] = math.inf
        j = int(np.argmin(val))  # the first of equal values, as in product order
        if val[j] < best_val:
            best_val, best_q = float(val[j]), q[j]
    return best_val, best_q


def distortion_rate_oracle(d: np.ndarray, p: np.ndarray, rate_bits: float,
                           grid: int = 6) -> float:
    """D(r) by brute force: search the product of per-source simplex grids
    for the best conditional with mutual information within the budget, then
    polish with a general constrained minimiser from that start.

    Only meant for tiny finite instances (3 sources, 4 reconstructions)."""
    d = np.asarray(d, dtype=float)
    p = np.asarray(p, dtype=float)
    ns, no = d.shape
    best_val, best_q = grid_search(d, p, rate_bits, grid)

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


def expected_covert_rate(prior, covert, topo, delay, sim_packets, seed) -> float:
    """Expected sum rate with `covert` covert in every session: the prior
    mean of each session's covert sum rate, read session by session."""
    total = 0.0
    for session, p in prior.entries:
        r = covert_sum_rate(session, covert, topo, delay, sim_packets=sim_packets, seed=seed)
        total += p * r.sum_rate
    return total


def observe_by_segments(session, covert):
    """The eavesdropper's view spelled out: each path with its destination
    dropped, split into the runs that start at its source or at a covert
    relay."""
    out = set()
    for path in session.paths:
        run: list = []
        for v in path[:-1]:
            if v in covert and run:
                out.add(tuple(run))
                run = []
            run.append(v)
        out.add(tuple(run))
    return frozenset(out)


def observation_cells_reference(prior):
    """Every (session, covert subset) cell, subsets smallest first, observed
    with `observe`: (observations, covert_for) as a model holds them."""
    obs_index: dict = {}
    covert_for: dict = {}
    for si, session in enumerate(prior.sessions):
        relays = sorted(session.interior_nodes)
        for size in range(len(relays) + 1):
            for combo in itertools.combinations(relays, size):
                b = frozenset(combo)
                covert_for[(si, obs_index.setdefault(observe(session, b), len(obs_index)))] = b
    return tuple(obs_index), covert_for


def distortion_cells_reference(prior, topo, delay, sim_packets, seed):
    """The distortion model one cell at a time: every cell of
    `observation_cells_reference` has its loss read from its own
    `covert_sum_rate` call, the visible optimum minus the covert sum rate,
    below 1e-12 in size read as 0. The counters tally per cell what the
    topology gained from that cell's call.

    Returns (observations, covert_for, d, metadata) as a model holds them."""
    observations, covert_for = observation_cells_reference(prior)
    d = np.full((len(prior.sessions), len(observations)), np.inf)
    metadata = dict.fromkeys(("simulated_entries", "class_evaluations",
                              "cascade_simulations"), 0)
    for (si, oi), b in covert_for.items():
        session = prior.sessions[si]
        classes, cascades = len(topo._classes), len(topo._cascades)
        res = covert_sum_rate(session, b, topo, delay, sim_packets=sim_packets, seed=seed)
        metadata["simulated_entries"] += res.mode == "simulated"
        metadata["class_evaluations"] += len(topo._classes) - classes
        metadata["cascade_simulations"] += len(topo._cascades) - cascades
        loss = max_sum_rate_visible(session, topo)[0] - res.sum_rate
        d[si, oi] = 0.0 if abs(loss) < 1e-12 else loss
    return observations, covert_for, d, metadata


def fixed_set_reference(prior, topo, covert_for, d, covert):
    """(expected sum rate, anonymity) of `covert` fixed in every session,
    read off per-cell reference data: the rate sums p_s * (visible optimum
    - loss) session by session, and the anonymity sums p_s * log2(p_s / m),
    m the prior mass of the session's column, over minus the prior entropy,
    or 1 where that entropy is 0, as `anonymity_level` scores it."""
    column = {(si, b): oi for (si, oi), b in covert_for.items()}
    covert = frozenset(covert)
    cols = [column[(si, covert & s.interior_nodes)] for si, s in enumerate(prior.sessions)]
    rate = 0.0
    mass: dict = {}
    for si, ((session, p), c) in enumerate(zip(prior.entries, cols)):
        rate += p * (max_sum_rate_visible(session, topo)[0] - d[si, c])
        mass[c] = mass.get(c, 0.0) + p
    h_prior = -sum(p * math.log2(p) for p in prior.probs)
    if h_prior <= 0.0:
        return rate, 1.0
    h_cond = sum(p * math.log2(p / mass[c]) for p, c in zip(prior.probs, cols))
    return rate, float(-h_cond / h_prior)


def least_form_exhaustive(paths, caps, covert, rates):
    """The least encoding of a path system over every order of its paths:
    each order whose descriptors (rate, capacities and covert flags along the
    path) do not decrease is encoded with nodes labelled by first
    occurrence, as a tuple of (descriptor, labels) per position, and the
    least encoding is returned."""
    descs = [(r, tuple(caps[v] for v in p), tuple(v in covert for v in p))
             for r, p in zip(rates, paths)]
    best = None
    for perm in itertools.permutations(range(len(paths))):
        if any(descs[a] > descs[b] for a, b in zip(perm, perm[1:])):
            continue
        label: dict = {}
        form = tuple((descs[i], tuple(label.setdefault(v, len(label)) for v in paths[i]))
                     for i in perm)
        if best is None or form < best:
            best = form
    return best
