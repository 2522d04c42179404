"""Sessions on a directed topology: the eavesdropper's observation map,
visible-case maximum sum rates, covert-relay rate losses, and end-to-end
schedule-level simulation.

A session is a set of active source-to-destination paths. Relays on those
paths are either visible (forward everything after a negligible processing
delay, trivially detectable) or covert (emit an independent Poisson schedule
and greedily match arrivals into it, dropping what the delay bound kills).
"""
from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from . import relay_core
from ._util import batch_stderr, fmt, substream
from .analytic import loss_fraction
from .lp import solve_packing_lp
from .point_process import RateBound, poisson_epochs

__all__ = [
    "Path",
    "Observation",
    "CovertSet",
    "Topology",
    "Session",
    "SessionPrior",
    "observe_single",
    "observe",
    "max_sum_rate_visible",
    "simulate_session",
    "covert_sum_rate",
    "SessionSimResult",
    "CovertRateResult",
    "RelayPathStats",
    "EpsEstimate",
    "switching_topology",
    "parse_network_config",
    "format_network_config",
    "clear_sim_cache",
]

Path = tuple[str, ...]
Observation = frozenset  # of Path
CovertSet = frozenset  # of node ids


class NetworkConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Topology:
    """Directed graph with a per-node transmission capacity.

    A topology also holds the visible optima of the sessions evaluated in it:
    `max_sum_rate_visible` solves each (session, topology) LP once.
    """

    bounds: tuple[RateBound, ...]
    edges: frozenset

    def __post_init__(self):
        ids = [b.node_id for b in self.bounds]
        if len(set(ids)) != len(ids):
            raise NetworkConfigError("duplicate node ids")
        known = set(ids)
        for u, v in self.edges:
            if u == v:
                raise NetworkConfigError(f"self loop at {u!r}")
            if u not in known or v not in known:
                raise NetworkConfigError(f"edge ({u!r}, {v!r}) references unknown node")

    @cached_property
    def capacities(self) -> dict[str, float]:
        return {b.node_id: b.capacity for b in self.bounds}

    @cached_property
    def _visible_optima(self) -> dict:
        return {}  # (session, exact) -> max_sum_rate_visible result

    def capacity(self, node: str) -> float:
        try:
            return self.capacities[node]
        except KeyError:
            raise NetworkConfigError(f"unknown node {node!r}") from None

    def is_valid_path(self, path: Path) -> bool:
        if len(path) < 2:
            return False
        return all((u, v) in self.edges for u, v in zip(path, path[1:]))


@dataclass(frozen=True)
class Session:
    """The set of simultaneously active paths during one observation window."""

    paths: tuple[Path, ...]

    def __post_init__(self):
        if not self.paths:
            raise NetworkConfigError("session has no paths")
        norm = tuple(tuple(p) for p in self.paths)
        object.__setattr__(self, "paths", norm)
        for p in norm:
            if len(p) < 2:
                raise NetworkConfigError(f"path too short: {p!r}")
            if len(set(p)) != len(p):
                raise NetworkConfigError(f"path repeats a node: {p!r}")
        if len(set(norm)) != len(norm):
            raise NetworkConfigError("session repeats a path")

    @cached_property
    def interior_nodes(self) -> frozenset:
        out = set()
        for p in self.paths:
            out.update(p[1:-1])
        return frozenset(out)

    @cached_property
    def relay_order(self) -> tuple[str, ...]:
        """Interior relays in topological order along the paths, ties by
        name; a cyclic relay graph raises `NetworkConfigError` every time."""
        succ: dict[str, set] = {v: set() for v in self.interior_nodes}
        indeg = {v: 0 for v in self.interior_nodes}
        for p in self.paths:
            inner = p[1:-1]
            for u, v in zip(inner, inner[1:]):
                if v not in succ[u]:
                    succ[u].add(v)
                    indeg[v] += 1
        ready = sorted(v for v, d in indeg.items() if d == 0)
        order: list[str] = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for w in sorted(succ[v]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
            ready.sort()
        if len(order) != len(self.interior_nodes):
            raise NetworkConfigError("session relay graph has a cycle")
        return tuple(order)

    def validate_in(self, topo: Topology) -> None:
        for p in self.paths:
            if not topo.is_valid_path(p):
                raise NetworkConfigError(f"path {p!r} is not valid in the topology")


@dataclass(frozen=True)
class SessionPrior:
    """Finite distribution over sessions, known to the eavesdropper."""

    entries: tuple[tuple[Session, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise NetworkConfigError("empty prior")
        sessions = [s for s, _ in self.entries]
        if len(set(sessions)) != len(sessions):
            raise NetworkConfigError("prior repeats a session")
        probs = [p for _, p in self.entries]
        if any(p <= 0.0 for p in probs):
            raise NetworkConfigError("prior probabilities must be positive")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise NetworkConfigError(f"prior probabilities sum to {sum(probs)}, expected 1")

    @property
    def sessions(self) -> tuple[Session, ...]:
        return tuple(s for s, _ in self.entries)

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.entries)


def observe_single(paths: Iterable[Path], covert_node: Optional[str] = None) -> Observation:
    """One step of the observation map.

    With no covert node, the final (destination) node of every path is
    removed: recipients are never attributable under transmitter-directed
    signaling. With a covert node b, every path containing b splits into the
    prefix before b and the suffix from b onward; other paths pass through.
    """
    out = set()
    if covert_node is None:
        for p in paths:
            if len(p) > 1:
                out.add(tuple(p[:-1]))
    else:
        for p in paths:
            p = tuple(p)
            if covert_node in p:
                k = p.index(covert_node)
                if k > 0:
                    out.add(p[:k])
                out.add(p[k:])
            else:
                out.add(p)
    return frozenset(out)


def observe(session: Session, covert: Iterable[str]) -> Observation:
    """Everything the eavesdropper can reconstruct of a session when the
    given relays are covert: destinations stripped, then each covert relay
    cuts the paths through it.

    The cuts commute, so the result does not depend on application order
    (checked against the reversed order when assertions are on).
    """
    nodes = sorted(set(covert))
    obs = observe_single(session.paths, None)
    for b in nodes:
        obs = observe_single(obs, b)
    if __debug__ and len(nodes) > 1:
        alt = observe_single(session.paths, None)
        for b in reversed(nodes):
            alt = observe_single(alt, b)
        assert alt == obs, "observation map is order dependent"
    return obs


def max_sum_rate_visible(session: Session, topo: Topology, exact: bool = False):
    """Maximum total delivered rate with every relay visible.

    Fractional packing program: maximize the sum of per-path rates subject to
    each node carrying at most its capacity across all paths through it.
    Returns (optimum, per-path rates).

    Visible optima are solved once per (session, topology) and held by the
    topology; the session is validated in the topology on that first solve,
    and both are frozen, so later calls return the held result.
    """
    key = (session, exact)
    held = topo._visible_optima.get(key)
    if held is None:
        session.validate_in(topo)
        paths = session.paths
        nodes = sorted({v for p in paths for v in p})
        rows = [[1.0 if node in p else 0.0 for p in paths] for node in nodes]
        caps = [topo.capacity(node) for node in nodes]
        value, rates = solve_packing_lp(rows, caps, [1.0] * len(paths), exact=exact)
        held = topo._visible_optima[key] = (value, tuple(rates))
    return held


@dataclass(frozen=True)
class RelayPathStats:
    """Loss bookkeeping for one path's stream through one covert relay."""

    n_in: int
    n_dropped: int
    drop_stderr: float

    @property
    def drop_fraction(self) -> float:
        return self.n_dropped / self.n_in if self.n_in else math.nan


@dataclass(frozen=True, eq=False)
class SessionSimResult:
    """Schedule-level simulation outcome for one (session, covert set) pair."""

    paths: tuple[Path, ...]
    delivered_counts: tuple[int, ...]
    path_rates: tuple[float, ...]
    relay_stats: dict  # node -> {path index -> RelayPathStats}
    node_schedules: dict  # node -> epoch array actually transmitted
    horizon: float
    seed: int


def _boosted_rates(session, topo, lam_v, covert, boost) -> list[float]:
    """Per-path source emission rates. A source whose next hop is covert may
    spend its whole capacity on that stream; redundancy there converts to
    delivered rate, while visible next hops gain nothing from padding."""
    rates = list(lam_v)
    if not boost:
        return rates
    by_src: dict[str, list[int]] = {}
    for i, p in enumerate(session.paths):
        by_src.setdefault(p[0], []).append(i)
    for src, idxs in by_src.items():
        boosted = [i for i in idxs if session.paths[i][1] in covert]
        if not boosted:
            continue
        extra = topo.capacity(src) - sum(lam_v[i] for i in idxs)
        if extra <= 0.0:
            continue
        base = sum(lam_v[i] for i in boosted)
        for i in boosted:
            share = lam_v[i] / base if base > 0.0 else 1.0 / len(boosted)
            rates[i] += extra * share
    return rates


def _run_session_sim(session, caps, covert, src_rates, delay, horizon, seed, proc_delay):
    """Push seeded Poisson source streams through the session hop by hop.

    Visible relays forward every received epoch (dummy packets from covert
    relays included) shifted by the processing delay; covert relays match the
    merged incoming data streams into their own independent schedule. Dummy
    epochs emitted by a covert relay are handed to a seeded choice of its
    downstream next hops and ride visible chains until a covert relay or a
    destination swallows them.
    """
    paths = session.paths
    streams: list[np.ndarray] = []
    for i, rate in enumerate(src_rates):
        if rate <= 0.0:
            streams.append(np.empty(0))
        else:
            rng = substream(seed, "src", i)
            streams.append(poisson_epochs(rate, horizon, rng))

    next_hop = {}
    for i, p in enumerate(paths):
        for k, v in enumerate(p[1:-1], start=1):
            next_hop[(i, v)] = p[k + 1]

    node_schedules: dict[str, np.ndarray] = {}
    by_src: dict[str, list[np.ndarray]] = {}
    for p, s in zip(paths, streams):
        by_src.setdefault(p[0], []).append(s)
    for src, arrs in by_src.items():
        node_schedules[src] = arrs[0] if len(arrs) == 1 else np.sort(np.concatenate(arrs))

    dummy_inbox: dict[str, list[np.ndarray]] = {}
    relay_stats: dict[str, dict[int, RelayPathStats]] = {}

    dests = {p[-1] for p in paths}
    for node in session.relay_order:
        feeding = [i for i, p in enumerate(paths) if node in p[1:-1]]
        fwd_dummies = np.sort(np.concatenate(dummy_inbox.pop(node, [np.empty(0)])))
        if node in covert:
            dep = poisson_epochs(caps[node], horizon, substream(seed, "relay", node))
            keyed = {}
            tag_of = {}
            for i in feeding:
                prev = paths[i][paths[i].index(node) - 1]
                key = f"{prev}|{i:06d}"
                keyed[key] = streams[i]
                tag_of[key] = i
            results = relay_core._joint_match(keyed, dep, delay)
            stats = {}
            for key, res in results.items():
                i = tag_of[key]
                streams[i] = res.pairs[:, 1].copy()
                flags = res.dropped_mask(keyed[key])
                stats[i] = RelayPathStats(
                    n_in=int(keyed[key].size),
                    n_dropped=int(res.dropped_arrivals.size),
                    drop_stderr=batch_stderr(flags) if flags.size else math.nan,
                )
            relay_stats[node] = stats
            node_schedules[node] = dep
            # dummies (and any forwarded dummies die here: a relay can read
            # the routing layer, so chaff is never matched onward)
            chaff = results[min(results)].dummy_departures if results else dep
        else:
            outs = []
            for i in feeding:
                streams[i] = streams[i] + proc_delay
                outs.append(streams[i])
            chaff = fwd_dummies + proc_delay
            node_schedules[node] = np.sort(np.concatenate(outs + [chaff]))
        hops = [h for h in sorted({next_hop[(i, node)] for i in feeding}) if h not in dests]
        if hops and chaff.size:
            pick = substream(seed, "chaff", node).integers(0, len(hops), chaff.size)
            for j, h in enumerate(hops):
                dummy_inbox.setdefault(h, []).append(chaff[pick == j])

    delivered = tuple(int(s.size) for s in streams)
    return SessionSimResult(
        paths=paths,
        delivered_counts=delivered,
        path_rates=tuple(d / horizon for d in delivered),
        relay_stats=relay_stats,
        node_schedules=node_schedules,
        horizon=horizon,
        seed=seed,
    )


def simulate_session(
    session: Session,
    covert: Iterable[str],
    topo: Topology,
    delay: float,
    horizon: float,
    seed: int,
    boost: bool = True,
    proc_delay: float = 1e-6,
) -> SessionSimResult:
    """End-to-end simulation of one session under a covert-relay assignment.

    Sources emit Poisson streams at their visible-optimal rates (lifted to
    full capacity where the first hop is covert and `boost` is on). Returns
    measured per-path delivered rates plus per-relay loss statistics; the
    cascade losses measured here are the numerical ground truth where no
    closed form exists.
    """
    covert = frozenset(covert) & session.interior_nodes
    _, lam_v = max_sum_rate_visible(session, topo)  # validates the session
    rates = _boosted_rates(session, topo, lam_v, covert, boost)
    return _run_session_sim(
        session, topo.capacities, covert, rates, delay, horizon, seed, proc_delay
    )


class _SimCache:
    """Keyed store of cascade simulations with insert-if-absent semantics."""

    def __init__(self):
        self._data: dict = {}
        self._lock = threading.Lock()

    def get_or_run(self, key, fn):
        with self._lock:
            if key not in self._data:
                self._data[key] = fn()
            return self._data[key]

    def clear(self):
        with self._lock:
            self._data.clear()


_CASCADE_CACHE = _SimCache()


def clear_sim_cache() -> None:
    _CASCADE_CACHE.clear()


def _canonical_key(paths, caps, covert, src_rates, delay, horizon, seed, proc_delay):
    """Cache key invariant under node renaming.

    Paths are sorted by their structural descriptor (source rate plus the
    capacity/covert signature of each hop) and interior nodes are relabelled
    by first occurrence, so sessions that differ only by symmetric relay
    names share one simulation. The full labelled structure stays in the
    key, so distinct sharing patterns can never collide.
    """
    descs = []
    for i, p in enumerate(paths):
        inner = p[1:-1]
        descs.append((src_rates[i], tuple((caps[h], h in covert) for h in inner)))
    order = sorted(range(len(paths)), key=lambda i: descs[i])
    labels: dict[str, int] = {}
    labelled = []
    for i in order:
        inner = paths[i][1:-1]
        lab = tuple(labels.setdefault(h, len(labels)) for h in inner)
        labelled.append((descs[i], lab))
    key = (tuple(labelled), float(delay), float(horizon), int(seed), float(proc_delay))
    return key, order


@dataclass(frozen=True)
class EpsEstimate:
    """One per-relay loss factor entering a path's delivered-rate product."""

    value: float
    stderr: float
    source: str  # "analytic" or "simulated"


@dataclass(frozen=True, eq=False)
class CovertRateResult:
    """Delivered rates for a session when a subset of relays is covert."""

    sum_rate: float
    sum_rate_visible: float
    path_rates: tuple[float, ...]
    eps: dict  # (path index, node) -> EpsEstimate
    mode: str
    stderr: float
    horizon: float
    seed: int


def covert_sum_rate(
    session: Session,
    covert: Iterable[str],
    topo: Topology,
    delay: float,
    mode: str = "auto",
    sim_packets: int = 200_000,
    seed: int = 0,
    boost: bool = True,
) -> CovertRateResult:
    """Session sum rate when the given relays run independent schedules.

    Each path keeps its visible-case rate times (1 - loss) per covert relay
    it crosses. The first covert relay on a path sees Poisson input, so its
    loss is the closed form (at boosted source rates where applicable); any
    later covert relay sees already-thinned, non-Poisson input and its loss
    is measured by a cached seeded simulation. `mode="analytic"` demands no
    path cross more than one covert relay; "auto" simulates only when needed.
    """
    covert = frozenset(covert) & session.interior_nodes
    lv, lam_v = max_sum_rate_visible(session, topo)  # validates the session
    paths = session.paths
    covert_on_path = [[v for v in p[1:-1] if v in covert] for p in paths]
    cascaded = any(len(c) > 1 for c in covert_on_path)
    if mode == "auto":
        mode = "simulated" if cascaded else "analytic"
    elif mode == "analytic" and cascaded:
        raise ValueError("a path crosses several covert relays; no closed form applies")
    elif mode not in ("analytic", "simulated"):
        raise ValueError(f"unknown mode {mode!r}")

    rates = _boosted_rates(session, topo, lam_v, covert, boost)

    sim = None
    if mode == "simulated":
        total_rate = sum(rates)
        horizon = sim_packets / total_rate if total_rate > 0 else 1.0
        key, order = _canonical_key(
            paths, topo.capacities, covert, rates, delay, horizon, seed, 1e-6
        )
        run, rep_order = _CASCADE_CACHE.get_or_run(
            key,
            lambda: (
                _run_session_sim(
                    session, topo.capacities, covert, rates, delay, horizon, seed, 1e-6
                ),
                order,
            ),
        )
        # canonical position c corresponds to our path order[c] and to the
        # cached representative's path rep_order[c]; node names may differ
        # between the two sessions, so relays are addressed by hop position
        pos_of = {order[c]: rep_order[c] for c in range(len(paths))}

        def sim_stats(i: int, node: str) -> RelayPathStats:
            rep_i = pos_of[i]
            hop = paths[i].index(node)
            rep_node = run.paths[rep_i][hop]
            return run.relay_stats[rep_node][rep_i]

        sim = sim_stats
    else:
        horizon = math.nan

    # Walk relays in topological order, thinning each path's stream rate as
    # it crosses covert relays, so a shared relay's closed-form loss sees the
    # rates its inputs actually carry.
    eps: dict[tuple[int, str], EpsEstimate] = {}
    stream_rate = list(rates)
    first_covert = {(i, c[0]) for i, c in enumerate(covert_on_path) if c}
    for node in session.relay_order:
        if node not in covert:
            continue
        through = [i for i, p in enumerate(paths) if node in p[1:-1]]
        total_in = sum(stream_rate[i] for i in through)
        e_analytic = loss_fraction(total_in, topo.capacity(node), delay)
        for i in through:
            if (i, node) in first_covert:
                e = EpsEstimate(value=e_analytic, stderr=0.0, source="analytic")
            else:
                st = sim(i, node)
                se = st.drop_stderr if math.isfinite(st.drop_stderr) else 0.0
                e = EpsEstimate(value=st.drop_fraction, stderr=se, source="simulated")
            eps[(i, node)] = e
            stream_rate[i] *= 1.0 - e.value

    path_rates = []
    path_vars = []
    for i, p in enumerate(paths):
        lam = lam_v[i]
        rel_var = 0.0
        for node in covert_on_path[i]:
            e = eps[(i, node)]
            lam *= 1.0 - e.value
            if e.stderr and e.value < 1.0:
                rel_var += (e.stderr / (1.0 - e.value)) ** 2
        path_rates.append(lam)
        path_vars.append((lam * math.sqrt(rel_var)) ** 2 if rel_var else 0.0)

    return CovertRateResult(
        sum_rate=float(sum(path_rates)),
        sum_rate_visible=float(lv),
        path_rates=tuple(path_rates),
        eps=eps,
        mode=mode,
        stderr=float(math.sqrt(sum(path_vars))),
        horizon=horizon,
        seed=seed,
    )


def switching_topology(capacity: float = 2.0):
    """The built-in 4x4 two-stage switching network and its uniform prior.

    Sources S1, S2 feed first-stage relay M1 and S3, S4 feed M3; both feed
    second-stage relays M2 (serving D1, D2) and M4 (serving D3, D4). Each
    session pairs the four sources with the four destinations bijectively,
    which fixes every route, giving 24 equiprobable sessions.
    """
    sources = ["S1", "S2", "S3", "S4"]
    dests = ["D1", "D2", "D3", "D4"]
    first = {"S1": "M1", "S2": "M1", "S3": "M3", "S4": "M3"}
    second = {"D1": "M2", "D2": "M2", "D3": "M4", "D4": "M4"}
    nodes = sources + ["M1", "M2", "M3", "M4"] + dests
    edges = set()
    for s in sources:
        edges.add((s, first[s]))
    for m in ("M1", "M3"):
        edges.add((m, "M2"))
        edges.add((m, "M4"))
    for d in dests:
        edges.add((second[d], d))
    topo = Topology(
        bounds=tuple(RateBound(n, capacity) for n in nodes),
        edges=frozenset(edges),
    )
    entries = []
    for perm in itertools.permutations(dests):
        paths = tuple(
            (s, first[s], second[d], d) for s, d in zip(sources, perm)
        )
        entries.append((Session(paths=paths), 1.0 / 24.0))
    return topo, SessionPrior(entries=tuple(entries))


def format_network_config(topo: Topology, prior: SessionPrior) -> str:
    """Line-oriented config: node and edge lines, then session blocks."""
    lines = []
    for b in sorted(topo.bounds, key=lambda b: b.node_id):
        lines.append(f"node {b.node_id} cap {fmt(b.capacity)}")
    for u, v in sorted(topo.edges):
        lines.append(f"edge {u} {v}")
    for session, prob in prior.entries:
        lines.append(f"session {fmt(prob)}")
        for p in session.paths:
            lines.append("path " + " ".join(p))
        lines.append("end")
    return "\n".join(lines) + "\n"


def parse_network_config(text: str):
    bounds: list[RateBound] = []
    edges = set()
    entries: list[tuple[Session, float]] = []
    cur_prob: Optional[float] = None
    cur_paths: list[Path] = []
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        ln = raw.split("#", 1)[0].strip()
        if not ln:
            continue
        parts = ln.split()
        try:
            if parts[0] == "node" and len(parts) == 4 and parts[2] == "cap":
                bounds.append(RateBound(parts[1], float(parts[3])))
            elif parts[0] == "edge" and len(parts) == 3:
                edges.add((parts[1], parts[2]))
            elif parts[0] == "session" and len(parts) == 2:
                if cur_prob is not None:
                    raise NetworkConfigError("nested session block")
                cur_prob = float(parts[1])
                cur_paths = []
            elif parts[0] == "path":
                if cur_prob is None:
                    raise NetworkConfigError("path outside a session block")
                cur_paths.append(tuple(parts[1:]))
            elif parts[0] == "end":
                if cur_prob is None:
                    raise NetworkConfigError("end outside a session block")
                entries.append((Session(paths=tuple(cur_paths)), cur_prob))
                cur_prob = None
            else:
                raise NetworkConfigError(f"unrecognised line: {ln!r}")
        except (ValueError, NetworkConfigError) as exc:
            raise NetworkConfigError(f"line {ln_no}: {exc}") from None
    if cur_prob is not None:
        raise NetworkConfigError("unterminated session block")
    topo = Topology(bounds=tuple(bounds), edges=frozenset(edges))
    prior = SessionPrior(entries=tuple(entries))
    for s, _ in prior.entries:
        s.validate_in(topo)
    return topo, prior
