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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional

import numpy as np

from . import relay_core
from ._util import BatchMeans, check_count, fmt, substream
from .analytic import loss_fraction
from .lp import solve_packing_lp
from .point_process import RateBound, poisson_epochs
from .relay_core import RelayPathStats

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
]

Path = tuple[str, ...]
Observation = frozenset  # of Path
CovertSet = frozenset  # of node ids

PROC_DELAY = 1e-6  # seconds a visible relay holds each packet before forwarding it


class NetworkConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Topology:
    """Directed graph with a per-node transmission capacity.

    A topology also holds what is measured or solved for the sessions
    evaluated in it: their visible optima (`max_sum_rate_visible` solves each
    (session, topology) LP once), their canonical forms, and the covert rates
    of each relabelling class and loss statistics of each cascade, each
    computed once on a canonical representative, a function of its key alone.

    Cascade simulations of one family, the same (seed, horizon, delay), share
    their source draws and covert relays' joint matches through a memo the
    topology holds for one family at a time: asking for another family
    replaces it whole, so it never holds more than one family's streams.
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

    @cached_property
    def _forms(self) -> dict:
        return {}  # session -> _session_form result

    @cached_property
    def _form_classes(self) -> dict:
        return {}  # form -> (form, {(covert labels, params): (class key, relabelling)})

    @cached_property
    def _family_slot(self) -> list:
        return [(None, {})]  # one slot: (family, its _run_session_sim memo), replaced whole

    @cached_property
    def _classes(self) -> dict:
        return {}  # class key -> CovertRateResult of the canonical representative

    @cached_property
    def _cascades(self) -> dict:
        return {}  # canonical cascade key -> per canonical path {hop: RelayPathStats}

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
        if not all(p > 0.0 for p in probs):
            raise NetworkConfigError("prior probabilities must be positive")
        if not abs(sum(probs) - 1.0) <= 1e-9:
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

    The cuts commute, so the result does not depend on application order.
    """
    obs = observe_single(session.paths, None)
    for b in sorted(set(covert)):
        obs = observe_single(obs, b)
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


def _boosted_rates(paths, caps, lam_v, covert) -> list[float]:
    """Per-path source emission rates. A source whose next hop is covert may
    spend its whole capacity on that stream; redundancy there converts to
    delivered rate, while visible next hops gain nothing from padding."""
    rates = list(lam_v)
    by_src: dict[str, list[int]] = {}
    for i, p in enumerate(paths):
        by_src.setdefault(p[0], []).append(i)
    for src, idxs in by_src.items():
        boosted = [i for i in idxs if paths[i][1] in covert]
        if not boosted:
            continue
        extra = caps[src] - sum(lam_v[i] for i in idxs)
        if extra <= 0.0:
            continue
        base = sum(lam_v[i] for i in boosted)
        for i in boosted:
            share = lam_v[i] / base if base > 0.0 else 1.0 / len(boosted)
            rates[i] += extra * share
    return rates


def _run_session_sim(session, caps, covert, src_rates, delay, horizon, seed, memo=None):
    """Push seeded Poisson source streams through the session hop by hop.

    Visible relays forward every received epoch (dummy packets from covert
    relays included) shifted by PROC_DELAY; covert relays match the
    merged incoming data streams into their own independent schedule. Dummy
    epochs emitted by a covert relay are handed to a seeded choice of its
    downstream next hops and ride visible chains until a covert relay or a
    destination swallows them.

    Without a `memo` the run keeps every node's transmitted schedule and
    shares nothing. With one it keeps no schedule and routes no chaff, which
    the cascade store, reading only the loss statistics, does not need, and
    it shares its source draws and joint matches with every run given the
    same memo. Those runs must be of one family, the same (seed, horizon,
    delay). Each entry is keyed by provenance: a source by ("src", i, rate),
    a visible hop's output by ("hop", its input's key), a covert relay's
    match by (node, capacity, sorted (tag, input key) pairs) and each of its
    outputs by (match key, tag). In one family a key fixes the epochs it
    names, so shared runs measure bit for bit what unshared runs do.
    """
    paths = session.paths
    schedules = memo is None
    if schedules:
        memo = {}  # in a single run every key is new, so nothing is shared
    keys = [("src", i, rate) for i, rate in enumerate(src_rates)]
    streams: list[np.ndarray] = []
    for key in keys:
        drawn = memo.get(key)
        if drawn is None:
            _, i, rate = key
            drawn = memo.setdefault(key, poisson_epochs(rate, horizon, substream(seed, "src", i))
                                    if rate > 0.0 else np.empty(0))
        streams.append(drawn)

    next_hop = {}
    for i, p in enumerate(paths):
        for k, v in enumerate(p[1:-1], start=1):
            next_hop[(i, v)] = p[k + 1]

    node_schedules: dict[str, np.ndarray] = {}
    if schedules:
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
        forwarded = dummy_inbox.pop(node, [])
        if node in covert:
            tag_of = {f"{paths[i][paths[i].index(node) - 1]}|{i:06d}": i for i in feeding}
            match = (node, caps[node], tuple(sorted((tag, keys[i]) for tag, i in tag_of.items())))
            held = memo.get(match)
            if held is None:
                dep = poisson_epochs(caps[node], horizon, substream(seed, "relay", node))
                results = relay_core._joint_match({tag: streams[i] for tag, i in tag_of.items()},
                                                  dep, delay)
                held = memo.setdefault(match, {
                    tag: (res.departures[res.slots], RelayPathStats.from_flags(
                        BatchMeans(res.arrivals.size).add_ones(res.arrivals.size, res.carried)))
                    for tag, res in results.items()
                })
            stats = relay_stats[node] = {}
            for tag, (out, st) in held.items():
                i = tag_of[tag]
                streams[i], keys[i], stats[i] = out, (match, tag), st
            if schedules:
                node_schedules[node] = dep
                # dummies (and any forwarded dummies die here: a relay can read
                # the routing layer, so chaff is never matched onward)
                chaff = results[min(results)].dummy_departures if results else dep
        else:
            for i in feeding:
                streams[i] = streams[i] + PROC_DELAY
                keys[i] = ("hop", keys[i])
            if schedules:
                chaff = np.sort(np.concatenate(forwarded or [np.empty(0)])) + PROC_DELAY
                node_schedules[node] = np.sort(np.concatenate(
                    [streams[i] for i in feeding] + [chaff]))
        if not schedules:
            continue  # a stats-only run routes no chaff
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
) -> SessionSimResult:
    """End-to-end simulation of one session under a covert-relay assignment.

    Sources emit Poisson streams at their visible-optimal rates, lifted to
    full capacity where the first hop is covert. Returns
    measured per-path delivered rates plus per-relay loss statistics; the
    cascade losses measured here are the numerical ground truth where no
    closed form exists.
    """
    covert = frozenset(covert) & session.interior_nodes
    _, lam_v = max_sum_rate_visible(session, topo)  # validates the session
    rates = _boosted_rates(session.paths, topo.capacities, lam_v, covert)
    return _run_session_sim(session, topo.capacities, covert, rates, delay, horizon, seed)


def _canonical_form(paths, caps, covert, rates):
    """The labelled structure without names: over every order of the paths
    that keeps their descriptors (rate, capacity and covert flag of each
    node) sorted, with nodes labelled by first occurrence, the least tuple
    of (descriptor, labels) per position. Isomorphic path systems share one
    form, and equal forms describe isomorphic ones. Returns the form, the
    path index at each position and the node of each label.

    Sorting with ties in given order gives one such encoding; the least one
    is searched from it, once per distinct encoding."""
    descs = [(r, tuple(caps[v] for v in p), tuple(v in covert for v in p))
             for r, p in zip(rates, paths)]
    order = sorted(range(len(paths)), key=descs.__getitem__)
    label: dict = {}
    start = tuple((descs[i], tuple(label.setdefault(v, len(label)) for v in paths[i]))
                  for i in order)
    form, pos, labels = _least_encoding(start)
    names = tuple(label)
    return form, tuple(order[k] for k in pos), tuple(names[v] for v in labels)


@lru_cache(maxsize=4096)
def _least_encoding(start):
    """The least encoding of the path system a sorted, labelled encoding
    describes, the position in `start` at each position and the label in
    `start` of each label.

    Each position takes, among the unplaced paths of its descriptor, those
    whose labels under the labels given so far are least; a branch whose
    prefix already exceeds the best encoding found is cut. Of several tied
    paths whose unlabelled nodes lie on no other path, one is tried:
    swapping two of them, those nodes with them, is an automorphism."""
    descs = [desc for desc, _ in start]
    paths = [labels for _, labels in start]
    on: dict = {}
    for p in paths:
        for v in p:
            on[v] = on.get(v, 0) + 1
    best: list = []  # [labels per position, positions, label dict]

    def encode(p, label):
        new: dict = {}
        return tuple(label[v] if v in label else new.setdefault(v, len(label) + len(new))
                     for v in p)

    def search(placed, label, prefix):
        k = len(placed)
        if k == len(paths):
            if not best or prefix < best[0]:
                best[:] = [prefix, placed, label]
            return
        cands = [(encode(paths[j], label), j)
                 for j in range(len(paths)) if descs[j] == descs[k] and j not in placed]
        least = min(enc for enc, _ in cands)
        if best and prefix + [least] > best[0][:k + 1]:
            return
        free = False
        for enc, j in cands:
            if enc != least:
                continue
            if all(on[v] == 1 for v in paths[j] if v not in label):
                if free:
                    continue
                free = True
            grown = dict(label)
            for v in paths[j]:
                grown.setdefault(v, len(grown))
            search(placed + [j], grown, prefix + [least])

    search([], {}, [])
    encs, placed, label = best
    return tuple(zip(descs, encs)), tuple(placed), tuple(label)


def _representative(form):
    """The session a canonical form describes, labels for node names and
    path k at position k, with its capacities, covert nodes and path rates."""
    caps = {v: c for (_, cs, _), labels in form for v, c in zip(labels, cs)}
    covert = {v for (_, _, flags), labels in form for v, f in zip(labels, flags) if f}
    return (Session(paths=tuple(labels for _, labels in form)), caps, frozenset(covert),
            [rate for (rate, _, _), _ in form])


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


def _session_form(session, topo):
    """The session's canonical form by visible rate, held by the topology with
    the classes read by its form, relay labels, node of each label, path
    index at each position and visible optimum. Isomorphic sessions have
    one form, so they share one copy of it and of its classes."""
    form = topo._forms.get(session)
    if form is None:
        lv, lam_v = max_sum_rate_visible(session, topo)  # validates the session
        shape, order, names = _canonical_form(session.paths, topo.capacities, (), lam_v)
        relays = {v: k for k, v in enumerate(names) if v in session.interior_nodes}
        shape, classes = topo._form_classes.setdefault(shape, (shape, {}))
        form = topo._forms.setdefault(session, (shape, classes, relays, names, order, lv))
    return form


def _class_of(session, covert, topo, delay, sim_packets, seed):
    """The key of the relabelling class of `covert` in `session`, the
    position in the class's representative of each position of the
    session's form and the form's label of each representative label, held
    with the session's form."""
    shape, classes, relays, *_ = _session_form(session, topo)
    cell = (frozenset(relays[v] for v in covert if v in relays), delay, sim_packets, seed)
    held = classes.get(cell)
    if held is None:
        rep, caps, _, lam_v = _representative(shape)
        form, pos, label = _canonical_form(rep.paths, caps, cell[0], lam_v)
        held = classes.setdefault(cell, ((form,) + cell[1:], pos, label))
    return held


def _sim_horizon(key) -> float:
    """Seconds each cascade simulation of a relabelling class runs: the
    class's `sim_packets` at the total boosted source rate of its
    representative. With the seed and delay of the key it names the
    family of runs that share draws and matches."""
    form, _, sim_packets, _ = key
    session, caps, covert, lam_v = _representative(form)
    total_rate = sum(_boosted_rates(session.paths, caps, lam_v, covert))
    return sim_packets / total_rate if total_rate > 0 else 1.0


def _family_memo(topo, family) -> dict:
    """The topology's memo of cascade draws and matches for `family`, a
    (seed, horizon, delay). The slot holds one family: another family
    replaces it whole, so a caller reads a memo of its own family even if
    concurrent callers switch the slot between reads."""
    held = topo._family_slot[0]
    if held[0] != family:
        held = topo._family_slot[0] = (family, {})
    return held[1]


def _class_rates(key, topo) -> CovertRateResult:
    """Covert rates of one relabelling class, on its canonical representative."""
    form, delay, sim_packets, seed = key
    session, caps, covert, lam_v = _representative(form)
    paths = session.paths
    rates = _boosted_rates(paths, caps, lam_v, covert)
    covert_on_path = [[v for v in p[1:-1] if v in covert] for p in paths]

    stats_of = None  # path index -> {hop: RelayPathStats} where simulated
    horizon = math.nan
    if any(len(c) > 1 for c in covert_on_path):
        horizon = _sim_horizon(key)
        cascade, order, _ = _canonical_form(paths, caps, covert, rates)
        ckey = (cascade, delay, horizon, seed)
        held = topo._cascades.get(ckey)
        if held is None:
            # simulate the cascade's own representative, so that what is held
            # depends on the key alone, not on which class asked first
            rep, rep_caps, rep_covert, rep_rates = _representative(cascade)
            run = _run_session_sim(rep, rep_caps, rep_covert, rep_rates, *ckey[1:],
                                   memo=_family_memo(topo, (seed, horizon, delay)))
            held = topo._cascades.setdefault(ckey, tuple(
                {h: run.relay_stats[v][k] for h, v in enumerate(p[1:-1], 1) if v in rep_covert}
                for k, p in enumerate(rep.paths)
            ))
        stats_of = dict(zip(order, held))

    # Walk relays in topological order, thinning each path's stream rate as
    # it crosses covert relays, so a shared relay's closed-form loss sees the
    # rates its inputs actually carry. Each path meets its covert relays in
    # path order, so its delivered rate and relative variance build up here.
    # Only first covert relays need the closed form; an idle relay loses nothing.
    eps: dict[tuple[int, int], EpsEstimate] = {}
    stream_rate = list(rates)
    path_rates = list(lam_v)
    rel_var = [0.0] * len(paths)
    first_covert = {(i, c[0]) for i, c in enumerate(covert_on_path) if c}
    for node in session.relay_order:
        if node not in covert:
            continue
        through = [i for i, p in enumerate(paths) if node in p[1:-1]]
        total_in = sum(stream_rate[i] for i in through)
        first = total_in > 0.0 and any((i, node) in first_covert for i in through)
        e_analytic = loss_fraction(total_in, caps[node], delay) if first else 0.0
        for i in through:
            if (i, node) in first_covert:
                e = EpsEstimate(value=e_analytic, stderr=0.0, source="analytic")
            else:
                st = stats_of[i][paths[i].index(node)]
                e = EpsEstimate(value=st.drop_fraction, stderr=st.drop_stderr, source="simulated")
            eps[(i, node)] = e
            stream_rate[i] *= 1.0 - e.value
            path_rates[i] *= 1.0 - e.value
            if e.stderr:  # at a total loss only NaN, no error bar, gets here
                rel_var[i] += (e.stderr / (1.0 - e.value)) ** 2 if e.value < 1.0 else math.nan

    path_var = sum((r * math.sqrt(v)) ** 2 if v else 0.0 for r, v in zip(path_rates, rel_var))
    mode = "analytic" if stats_of is None else "simulated"
    return CovertRateResult(float(sum(path_rates)), float(sum(lam_v)), tuple(path_rates), eps,
                            mode, float(math.sqrt(path_var)), horizon, seed)


def covert_sum_rate(
    session: Session,
    covert: Iterable[str],
    topo: Topology,
    delay: float,
    sim_packets: int = 200_000,
    seed: int = 0,
) -> CovertRateResult:
    """Session sum rate when the given relays run independent schedules.

    Each path keeps its visible-case rate times (1 - loss) per covert relay
    it crosses. The first covert relay on a path sees Poisson input, so its
    loss is the closed form (at the lifted source rates where applicable); any
    later covert relay sees already-thinned, non-Poisson input and its loss
    is measured by a seeded simulation. Sessions with covert sets that
    differ only by node names form one relabelling class, keyed by its
    canonical form, the least encoding over descriptor-sorted path orders.
    The topology evaluates each class once, on its canonical
    representative, and simulates each cascade, keyed the same way, once
    on the cascade's own; every session of a class reads the held result
    through its labels, so no result depends on which session asked first.
    Cascade simulations of one family, the same (seed, horizon, delay),
    share each source draw and covert relay match through the topology's
    memo, which holds one family at a time; a caller evaluating many
    classes shares most by asking family by family, as
    `DistortionModel.d` does. What is shared is keyed by provenance, so
    results never depend on the order of calls.
    """
    check_count("sim_packets", sim_packets)
    key, pos, label = _class_of(session, covert, topo, delay, sim_packets, seed)
    rates = topo._classes.get(key)
    if rates is None:
        rates = topo._classes.setdefault(key, _class_rates(key, topo))
    *_, names, order, lv = _session_form(session, topo)
    path_rates = [0.0] * len(pos)
    for k, j in enumerate(pos):
        path_rates[order[j]] = rates.path_rates[k]
    eps = {(order[pos[k]], names[label[v]]): e for (k, v), e in rates.eps.items()}
    return CovertRateResult(rates.sum_rate, lv, tuple(path_rates), eps,
                            rates.mode, rates.stderr, rates.horizon, seed)


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
        s.relay_order  # a cyclic relay graph raises here, not in the middle of a run
    return topo, prior
