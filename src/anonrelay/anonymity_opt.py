"""Anonymity as normalised equivocation, and the sum-rate price of raising it.

Anonymity of a covert-relay strategy is H(S | observation) / H(S): one means
the eavesdropper learns nothing about the session beyond the prior, zero
means full disclosure. Because the observation is a deterministic function
of (session, covert set), everything here is exact finite computation; the
throughput frontier reduces to a distortion-rate problem solved by the
Blahut-Arimoto iteration.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from ._util import check_count, check_delay, convex_hull, fmt
from .network_model import (
    Session,
    SessionPrior,
    Topology,
    _class_of,
    _release_family_memo,
    _session_form,
    _sim_horizon,
    covert_sum_rate,
    observe,
    observe_single,
)

__all__ = [
    "entropy_bits",
    "anonymity_level",
    "CovertPolicy",
    "AnonymityInfeasibleError",
    "BAConvergenceError",
    "best_deterministic",
    "deterministic_points",
    "DetPoint",
    "DistortionModel",
    "build_distortion_model",
    "BAResult",
    "blahut_arimoto",
    "CurvePoint",
    "TradeoffCurve",
    "tradeoff_curve",
    "deterministic_hull",
    "deterministic_hull_value",
]

_LN2 = math.log(2.0)
_MAX_RELAYS = 20  # enumeration cap: a covert subset per subset of at most this many relays
_BA_GAP_TOL = 1e-11  # a fixed-slope solve stops once its Lagrangian gap is this small
BA_TOL = 1e-6  # default distortion tolerance of a certified distortion-rate point


class AnonymityInfeasibleError(ValueError):
    """No enumerated covert subset reaches the requested anonymity level."""

    def __init__(self, target: float, best_alpha: float, best_covert: frozenset):
        self.target = target
        self.best_alpha = best_alpha
        self.best_covert = best_covert
        if target > 1.0:
            msg = f"anonymity {target} unreachable; levels above 1 are undefined"
        else:
            msg = (
                f"anonymity {target} unreachable; best attainable is {best_alpha:.6f} "
                f"with covert set {sorted(best_covert)}"
            )
        super().__init__(msg)


class BAConvergenceError(RuntimeError):
    """Blahut-Arimoto failed to converge; carries the best iterate."""

    def __init__(self, message, distortion, q, mutual_info_bits, gap):
        super().__init__(f"{message} (last objective change {gap:.3e})")
        self.distortion = distortion
        self.q = q
        self.mutual_info_bits = mutual_info_bits
        self.gap = gap


def entropy_bits(prior) -> float:
    """Shannon entropy in bits of the prior's `probs` (a `DistortionModel` has
    them too), a Python float whichever sequence holds them."""
    return float(-sum(p * math.log2(p) for p in prior.probs))


@dataclass(frozen=True)
class CovertPolicy:
    """Conditional distribution over covert subsets, one rule per session."""

    rules: tuple  # ((Session, ((frozenset, prob), ...)), ...)

    def __post_init__(self):
        seen = set()
        for session, dist in self.rules:
            if session in seen:
                raise ValueError("policy repeats a session")
            seen.add(session)
            total = 0.0
            for covert, prob in dist:
                if prob < 0.0:
                    raise ValueError("negative policy probability")
                if not frozenset(covert) <= session.interior_nodes:
                    raise ValueError(
                        f"covert set {sorted(covert)} is not interior to the session"
                    )
                total += prob
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"policy weights for a session sum to {total}")

    @classmethod
    def deterministic(cls, covert: Iterable[str], prior: SessionPrior) -> "CovertPolicy":
        rules = []
        for session in prior.sessions:
            b = frozenset(covert) & session.interior_nodes
            rules.append((session, ((b, 1.0),)))
        return cls(rules=tuple(rules))

    @cached_property
    def _by_session(self) -> dict:
        return dict(self.rules)

    def distribution(self, session: Session):
        try:
            return self._by_session[session]
        except KeyError:
            raise KeyError("session not covered by policy") from None


def _covert_set(covert, sessions) -> frozenset:
    """`covert` as a frozenset; ValueError unless it is a collection of
    relay names, not a bare str, each interior to some session."""
    if isinstance(covert, str):
        raise ValueError(f"covert set must be a collection of relay names, got the str {covert!r}")
    covert = frozenset(covert)
    unknown = covert.difference(*(s.interior_nodes for s in sessions))
    if unknown:
        raise ValueError(f"covert relays {sorted(unknown, key=str)} are interior to no session "
                         "of the prior")
    return covert


def _as_policy(policy_or_covert, prior: SessionPrior) -> CovertPolicy:
    if isinstance(policy_or_covert, CovertPolicy):
        return policy_or_covert
    return CovertPolicy.deterministic(_covert_set(policy_or_covert, prior.sessions), prior)


def anonymity_level(policy_or_covert, prior: SessionPrior) -> float:
    """Normalised equivocation H(S|observation)/H(S) of a covert strategy.

    Accepts a fixed covert set or a randomized per-session policy; a fixed
    set that is a bare str, or names a relay interior to no session, raises
    ValueError. The observation is `observe`'s fragments, which is not all a
    schedule-level eavesdropper sees: one that also counts each source's
    transmissions tells apart sessions that share an observation, and on the
    switching network lowers M2+M4 from 1.000 to 0.800 (ROADMAP, "What an
    eavesdropper that counts transmissions learns"). The ratio is the
    anonymity against an eavesdropper that sees the fragments only. A
    zero-entropy prior has nothing to hide and scores 1.
    """
    policy = _as_policy(policy_or_covert, prior)
    h_prior = entropy_bits(prior)
    if h_prior <= 0.0:
        return 1.0
    joint: dict = {}
    for session, p in prior.entries:
        for covert, q in policy.distribution(session):
            if q <= 0.0:
                continue
            obs = observe(session, covert)
            key = (session, obs)
            joint[key] = joint.get(key, 0.0) + p * q
    marg: dict = {}
    for (_, obs), w in joint.items():
        marg[obs] = marg.get(obs, 0.0) + w
    h_cond = -sum(w * math.log2(w / marg[obs]) for (_, obs), w in joint.items() if w > 0.0)
    alpha = h_cond / h_prior
    if __debug__:
        # the ratio is base invariant; recompute in nats as a cross-check
        h_cond_nats = -sum(
            w * math.log(w / marg[obs]) for (_, obs), w in joint.items() if w > 0.0
        )
        h_prior_nats = -sum(p * math.log(p) for p in prior.probs)
        assert abs(alpha - h_cond_nats / h_prior_nats) < 1e-9
    return alpha


@dataclass(frozen=True)
class DetPoint:
    """One deterministic strategy: a fixed covert subset used in every session."""

    covert: frozenset
    alpha: float
    sum_rate: float


def _subsets(relays: Sequence[str]):
    """Every subset of `relays` as a frozenset, smallest first."""
    for size in range(len(relays) + 1):
        for combo in itertools.combinations(relays, size):
            yield frozenset(combo)


def _fixed_relays(sessions) -> list[str]:
    """The relays interior to some session, sorted; more than _MAX_RELAYS
    raise ValueError."""
    relays = sorted(set().union(*(s.interior_nodes for s in sessions)))
    if len(relays) > _MAX_RELAYS:
        raise ValueError(f"{len(relays)} relays exceed the enumeration cap {_MAX_RELAYS}")
    return relays


def deterministic_points(
    prior: SessionPrior,
    topo: Topology,
    delay: float,
    sim_packets: int = 200_000,
    seed: int = 0,
) -> tuple[DetPoint, ...]:
    """`DistortionModel.deterministic_points` of the model built here. A
    relay union above the enumeration cap raises ValueError before any solve."""
    _fixed_relays(prior.sessions)
    return build_distortion_model(prior, topo, delay, sim_packets, seed).deterministic_points()


def best_deterministic(model: DistortionModel, alpha_target: float) -> DetPoint:
    """Highest expected sum rate over fixed covert subsets meeting the
    anonymity target, read off `model`. Subsets are enumerated smallest
    first, so ties go to the cheapest set of covert relays."""
    if math.isnan(alpha_target):
        raise ValueError(f"alpha_target must be a number, got {alpha_target}")
    if alpha_target > 1.0:
        raise AnonymityInfeasibleError(alpha_target, 1.0, frozenset())
    points = model.deterministic_points()
    feasible = [p for p in points if p.alpha + 1e-12 >= alpha_target]
    if not feasible:
        top = max(points, key=lambda p: p.alpha)
        raise AnonymityInfeasibleError(alpha_target, top.alpha, top.covert)
    best = feasible[0]
    for p in feasible[1:]:
        if p.sum_rate > best.sum_rate + 1e-15:
            best = p
    return best


@dataclass(frozen=True, eq=False)
class DistortionModel:
    """Per-session sum-rate losses indexed by reachable observations.

    Rows are sessions, columns are observations; the entry is the drop in
    achievable sum rate for the unique covert subset turning that session
    into that observation, and +inf where no subset does. This is the loss
    matrix the distortion-rate computation minimises over. A covert set
    fixed for every session picks one cell per row, so `covert_rate` and
    `anonymity` read deterministic strategies off the model, and
    `deterministic_points` reads every one. `observations` holds each
    column's observation, a frozenset of fragments (node tuples), in the
    order the cells first reach it; each is built once, from a bitmask.

    `classes` holds the cells of each relabelling class, whose covert sum
    rates are one. A read evaluates each class of the cells it reads once
    per model, in family order so that one family's cascades share the
    topology's memo, which it then empties: no read leaves a family memo
    on the topology. A class costs one covert rate; each cell's loss is its
    session's visible optimum minus it. `covert_rate` reads one cell per
    session, `d` reads them all. Over the cells evaluated so far, `metadata`
    counts those whose covert rate reads a cascade simulation
    (`simulated_entries`), and the relabelling classes evaluated and
    cascades simulated that the topology did not already hold
    (`class_evaluations`, `cascade_simulations`). The same reads give the
    same counts, and they are fixed once `d` has been read in full.
    """

    sessions: tuple[Session, ...]
    probs: np.ndarray
    observations: tuple
    covert_for: dict  # (session index, observation index) -> frozenset
    classes: dict  # class key -> (session indices, observation indices)
    lambda_v: tuple[float, ...]
    rate_zero: float
    delay: float
    topo: Topology
    sim_packets: int
    seed: int
    metadata: dict

    @cached_property
    def _column(self) -> tuple[dict, ...]:
        """Per session, its observation index of each covert subset."""
        column = tuple({} for _ in self.sessions)
        for (si, oi), b in self.covert_for.items():
            column[si][b] = oi
        return column

    @cached_property
    def _table(self) -> np.ndarray:
        """The loss table as read so far: NaN marks a cell not yet evaluated."""
        table = np.full((len(self.sessions), len(self.observations)), np.inf)
        for rows, cols in self.classes.values():
            table[rows, cols] = np.nan
        return table

    def _fill(self, keys) -> np.ndarray:
        """The loss table with the classes of `keys` evaluated: those not yet
        evaluated, in family order, each through the covert rate of its
        first cell. The topology's family memo is then emptied."""
        table, topo, counts = self._table, self.topo, self.metadata
        for key in sorted(keys, key=_sim_horizon):
            rows, cols = self.classes[key]
            si, oi = int(rows[0]), int(cols[0])
            if not math.isnan(table[si, oi]):
                continue
            held = len(topo._classes), len(topo._cascades)
            res = covert_sum_rate(self.sessions[si], self.covert_for[(si, oi)], topo, self.delay,
                                  sim_packets=self.sim_packets, seed=self.seed)
            counts["simulated_entries"] += rows.size if res.mode == "simulated" else 0
            counts["class_evaluations"] += len(topo._classes) - held[0]
            counts["cascade_simulations"] += len(topo._cascades) - held[1]
            loss = np.asarray(self.lambda_v)[rows] - res.sum_rate
            table[rows, cols] = np.where(np.abs(loss) < 1e-12, 0.0, loss)
        _release_family_memo(topo)
        return table

    @cached_property
    def d(self) -> np.ndarray:
        """The whole loss table, every class evaluated."""
        return self._fill(self.classes)

    def _columns(self, covert) -> np.ndarray:
        """Each session's column with `covert` covert in every session; a
        bare str, or a relay interior to no session, raises ValueError."""
        covert = _covert_set(covert, self.sessions)
        return np.array([col[covert & s.interior_nodes]
                         for col, s in zip(self._column, self.sessions)], dtype=np.intp)

    def covert_rate(self, covert) -> float:
        """Expected sum rate with `covert` covert in every session, rate_zero
        minus sum_s p_s * d[s, col], added up as sum_s p_s * (lambda_v[s] -
        d[s, col]) so that each term is the session's covert sum rate."""
        return self._rate_at(self._columns(covert))

    def _rate_at(self, cols) -> float:
        """`covert_rate` of the covert set that puts each session in column
        `cols[s]`: its unread classes evaluated, the terms summed in session
        order."""
        cells = np.arange(cols.size), cols
        self._fill({_class_of(self.sessions[si], self.covert_for[(si, cols[si])], self.topo,
                              self.delay, self.sim_packets, self.seed)[0]
                    for si in np.isnan(self._table[cells]).nonzero()[0].tolist()})
        terms = self.probs * (np.asarray(self.lambda_v) - self._table[cells])
        return sum(terms.tolist())

    def anonymity(self, covert) -> float:
        """`anonymity_level` of a fixed covert set: a column is one
        observation, so H(S|O) sums p_s * log2(m / p_s), m the prior mass of
        the session's column; a session alone in its column adds exactly 0."""
        return self._anonymity_at(self._columns(covert), entropy_bits(self))

    def _anonymity_at(self, cols, h_prior) -> float:
        """`anonymity` of the covert set that puts each session in column
        `cols[s]`, with `math.log2` per term and the terms summed in session
        order."""
        if h_prior <= 0.0:
            return 1.0
        mass = np.bincount(cols, weights=self.probs)
        logs = [math.log2(r) for r in (self.probs / mass[cols]).tolist()]
        return float(-sum((self.probs * logs).tolist()) / h_prior)

    def deterministic_points(self) -> tuple[DetPoint, ...]:
        """(anonymity, expected sum rate) of every covert set fixed for all
        sessions: each subset of the relays interior to some session,
        smallest first. Its reads cover every cell, so `d` evaluates them
        first, in family order. Each point is read from one table, the
        column of every session under every fixed set, built once; sessions
        with one set of interior relays share the intersections. Every
        point equals `anonymity` and `covert_rate` of its set, float for
        float."""
        self.d
        fixed = list(_subsets(_fixed_relays(self.sessions)))
        local: dict = {}  # interior relays -> their part of each fixed set
        table = []
        for col, s in zip(self._column, self.sessions):
            parts = local.get(s.interior_nodes)
            if parts is None:
                parts = local[s.interior_nodes] = [b & s.interior_nodes for b in fixed]
            table.append([col[b] for b in parts])
        h_prior = entropy_bits(self)
        return tuple(DetPoint(covert=b, alpha=self._anonymity_at(cols, h_prior),
                              sum_rate=self._rate_at(cols))
                     for b, cols in zip(fixed, np.array(table, dtype=np.intp).T))


def _bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_distortion_model(
    prior: SessionPrior,
    topo: Topology,
    delay: float,
    sim_packets: int = 200_000,
    seed: int = 0,
) -> DistortionModel:
    """Enumerate every (session, covert subset) cell: the model's columns,
    the covert set behind each cell, the cells of each relabelling class and
    each session's visible optimum. No loss is evaluated here; the model
    evaluates a class on the first read of any of its cells, so `metadata`
    counts nothing until something reads the model.

    Each session contributes one finite column entry per subset of its own
    interior relays, smallest first. An observation is the union of its
    paths' pieces, and a path's pieces depend only on the path with its
    destination stripped and on the covert relays on it. Each such pair is
    cut once, one `observe_single` step from the pair without its last
    covert relay, and its pieces are held as a mask with one bit per
    fragment (a node tuple). A cell's observation is the OR of its paths'
    masks, and sessions with one set of stripped paths share every
    observation, so each set is observed once and its columns listed once.
    Sessions of one shape whose relays carry the same labels share each
    subset's class, so each such group looks its classes up once. Each
    column's frozenset is built once, at the end.

    Distinct subsets of one session give distinct observations. A path's
    pieces are its stretches that each start at its source or at a covert
    relay, so a covert relay heads every fragment holding it, while a
    visible relay lies past the head of its fragment on any path it is
    interior to. An interior relay is thus covert exactly when no fragment
    holds it past its first position: the observation names the covert set.

    `delay` must be nonnegative (inf allowed) and `seed` a nonnegative
    integer. A session with more than _MAX_RELAYS interior relays raises
    ValueError before any solve.
    """
    check_count("sim_packets", sim_packets)
    check_count("seed", seed, least=0)
    check_delay(delay)
    sessions = prior.sessions
    widest = max(len(s.interior_nodes) for s in sessions)
    if widest > _MAX_RELAYS:
        raise ValueError(f"session has {widest} interior relays, enumeration cap is {_MAX_RELAYS}")
    lambda_v = []
    obs_index: dict = {}  # observation mask -> column
    class_index: dict = {}  # class key -> its number
    label_classes: dict = {}  # shape -> {covert label mask: class number}
    subsets: dict = {}  # relays -> (relay bits, subset) of each subset, smallest first
    fragments: list = []  # the fragment of each bit
    bit_of: dict = {}
    cuts: dict = {}  # (stripped path, covert position bits) -> mask of its pieces
    columns_of: dict = {}  # stripped paths -> column of each subset, smallest first
    group_classes: dict = {}  # (shape, relay labels) -> class number of each subset, smallest first
    sizes, cell_cols, cell_sets, cell_classes = [], [], [], []  # cells in visiting order

    def cut(path, stripped, on):  # the piece mask of `stripped` cut at the positions `on`
        mask = cuts.get((stripped, on))
        if mask is None:
            if on:
                last = on.bit_length() - 1
                held = (fragments[i] for i in _bits(cut(path, stripped, on ^ 1 << last)))
                pieces = observe_single(held, stripped[last])
            else:
                pieces = observe_single((path,))
            mask = 0
            for piece in pieces:
                if piece not in bit_of:
                    bit_of[piece] = len(fragments)
                    fragments.append(piece)
                mask |= 1 << bit_of[piece]
            cuts[(stripped, on)] = mask
        return mask

    for si, session in enumerate(sessions):
        relays = tuple(sorted(session.interior_nodes))
        shape, labels, _, _, lv = _session_form(session, topo)
        lambda_v.append(lv)
        if relays not in subsets:
            subsets[relays] = [(sum(1 << relays.index(v) for v in b), b)
                               for b in _subsets(relays)]
        # per subset, by relay bits: its observation mask, then its column
        stripped_paths = frozenset([p[:-1] for p in session.paths])
        cols = columns_of.get(stripped_paths)
        if cols is None:
            index = {v: k for k, v in enumerate(relays)}
            obs = [0] * (1 << len(relays))
            for path in session.paths:
                stripped = path[:-1]
                on = {0: 0}  # relay bits of the path's relays -> their position bits
                for j, v in enumerate(stripped):
                    if v in index:
                        on.update({c | 1 << index[v]: p | 1 << j for c, p in on.items()})
                masks = {c: cut(path, stripped, p) for c, p in on.items()}
                relay_bits = max(on)
                obs = [m | masks[c & relay_bits] for c, m in enumerate(obs)]
            cols = columns_of[stripped_paths] = [obs_index.setdefault(obs[c], len(obs_index))
                                                 for c, _ in subsets[relays]]
        # per subset, by its covert label mask: its class
        group = (shape, tuple([labels[v] for v in relays]))
        numbers = group_classes.get(group)
        if numbers is None:
            by_labels = label_classes.setdefault(shape, {})
            labelled = [0]
            for v in relays:
                labelled += [m | 1 << labels[v] for m in labelled]
            numbers = group_classes[group] = []
            for c, b in subsets[relays]:
                k = by_labels.get(labelled[c])
                if k is None:
                    key, _, _ = _class_of(session, b, topo, delay, sim_packets, seed)
                    k = by_labels[labelled[c]] = class_index.setdefault(key, len(class_index))
                numbers.append(k)
        sizes.append(len(cols))
        cell_cols += cols
        cell_classes += numbers
        cell_sets += [b for _, b in subsets[relays]]
    rows = np.repeat(np.arange(len(sessions), dtype=np.int32), sizes)
    covert_for = dict(zip(zip(rows.tolist(), cell_cols), cell_sets))
    # each class's cells in visiting order
    cell_classes = np.array(cell_classes)
    by_class = np.argsort(cell_classes, kind="stable")
    ends = np.cumsum(np.bincount(cell_classes))[:-1]
    columns = np.array(cell_cols, dtype=np.int32)[by_class]
    classes = dict(zip(class_index, zip(np.split(rows[by_class], ends), np.split(columns, ends))))
    observations = tuple(frozenset(fragments[i] for i in _bits(m)) for m in obs_index)
    probs = np.asarray(prior.probs)
    return DistortionModel(
        sessions=sessions, probs=probs, observations=observations, covert_for=covert_for,
        classes=classes, lambda_v=tuple(lambda_v), rate_zero=float(np.dot(probs, lambda_v)),
        delay=delay, topo=topo, sim_packets=sim_packets, seed=seed,
        metadata=dict.fromkeys(("simulated_entries", "class_evaluations",
                                "cascade_simulations"), 0),
    )


@dataclass(frozen=True, eq=False)
class BAResult:
    distortion: float
    q: np.ndarray  # conditional distribution, rows = sources
    mutual_info_bits: float
    slope: float
    iterations: int
    gap: float = 0.0  # certified distortion gap: distortion minus a lower bound on D(rate)


def _mutual_info_and_distortion(q, probs, d_fin):
    phat = probs @ q
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q > 0.0, q / np.maximum(phat[None, :], 1e-300), 1.0)
        i_nats = float(np.sum(probs[:, None] * np.where(q > 0.0, q * np.log(ratio), 0.0)))
    dist = float(np.sum(probs[:, None] * q * d_fin))
    return i_nats / _LN2, dist


@dataclass(frozen=True, eq=False)
class _Probe:
    beta: float
    q: np.ndarray
    rate_bits: float
    dist: float
    converged: bool
    gap: float
    bound: float  # lower bound on min over conditionals of I (nats) + beta * D


def _ba_fixed_slope(d, probs, beta, max_iter, finite, d_fin):
    """Alternating minimisation at a fixed distortion slope.

    With z the per-source partition sums and c the reproduction update
    factors, the Lagrangian optimum lies between the objective and the
    objective minus ln max(c) (Blahut 1972); the solve stops once that gap,
    max(c) - 1, is below _BA_GAP_TOL. The lower end, `bound`, holds at every
    iterate, converged or not, and is what the chord-slope descent certifies
    chords with. At the slope of a straight stretch of the envelope the gap
    still falls fast: to 1e-11 in 34 iterations on the built-in switching
    network. The objective is asserted to never rise beyond rounding noise."""
    # a per-row shift leaves q and c unchanged and stops steep slopes underflowing
    row_min = np.where(finite, d_fin, np.inf).min(axis=1)
    weight = np.where(finite, np.exp(-beta * (d_fin - row_min[:, None])), 0.0)
    allowed = finite.any(axis=0)
    phat = allowed / allowed.sum()
    prev_obj = math.inf
    gap = math.inf
    q = None
    converged = False
    for _ in range(max_iter):
        w = weight * phat[None, :]
        z = w.sum(axis=1)
        if (z <= 0.0).any():
            raise BAConvergenceError("a source lost all reconstruction mass",
                                     math.nan, q, math.nan, math.nan)
        q = w / z[:, None]
        # F(phat) = -sum_s p_s ln z_s of the unshifted z, nonincreasing
        obj = beta * float(probs @ row_min) - float(probs @ np.log(z))
        if obj > prev_obj + 1e-9 * max(1.0, abs(prev_obj)):
            raise AssertionError(
                f"objective rose from {prev_obj} to {obj} at slope {beta}"
            )
        prev_obj = obj
        c = (probs / z) @ weight
        gap = float(c.max()) - 1.0
        phat = phat * c
        phat /= phat.sum()
        if gap <= _BA_GAP_TOL:
            converged = True
            break
    rate_bits, dist = _mutual_info_and_distortion(q, probs, d_fin)
    return _Probe(beta=beta, q=q, rate_bits=rate_bits, dist=dist,
                  converged=converged, gap=gap, bound=obj - math.log1p(gap))


def blahut_arimoto(
    d,
    probs,
    rate_bits: float,
    tol: float = BA_TOL,
    max_iter: int = 4000,
    probe_cache: Optional[dict] = None,
) -> BAResult:
    """Distortion-rate point D(r): least expected loss over conditionals
    whose mutual information does not exceed `rate_bits`.

    Chord-slope (sandwich) descent on the convex envelope (Rote 1992): two
    achievable points bracket the target rate, at first the best rate-zero
    and the per-source best reconstruction. A fixed-slope solve at their
    chord's slope bounds the envelope from below by a parallel line; within
    `tol` (in distortion) of the chord the chord is certified, otherwise the
    solve's point lies under it and replaces the end on its side of the
    target. The answer mixes the two ends at the target rate, feasible since
    mutual information is convex in the conditional; `BAResult.gap` is its
    certified distortion gap. `max_iter` caps each fixed-slope solve, and an
    unconverged uncertified solve ends the descent with the gap it reached.
    `probs` is the source probability vector, one per row of `d`. Callers
    evaluating many rate targets on one matrix can pass a shared
    `probe_cache` dict so fixed-slope solves are reused.
    """
    probs = np.asarray(probs, dtype=float)
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != probs.size:
        raise ValueError("loss matrix and prior sizes disagree")
    if not rate_bits >= 0.0:
        raise ValueError(f"rate must be nonnegative, got {rate_bits}")
    finite = np.isfinite(d)
    if not finite.any(axis=1).all():
        raise ValueError("every source needs at least one finite-loss reconstruction")
    d_fin = np.where(finite, d, 0.0)
    ns, no = d.shape

    # floor of the envelope: per-source best reconstruction
    q_min = np.zeros((ns, no))
    q_min[np.arange(ns), np.where(finite, d, np.inf).argmin(axis=1)] = 1.0
    i_min_bits, d_min = _mutual_info_and_distortion(q_min, probs, d_fin)
    if rate_bits >= i_min_bits - 1e-12:
        return BAResult(distortion=d_min, q=q_min, mutual_info_bits=i_min_bits,
                        slope=math.inf, iterations=0)

    n_probes = 0
    cache = probe_cache if probe_cache is not None else {}

    def solve(beta: float) -> _Probe:
        nonlocal n_probes
        if beta not in cache:
            n_probes += 1
            cache[beta] = _ba_fixed_slope(d, probs, beta, max_iter, finite, d_fin)
        return cache[beta]

    # left anchor of the envelope: a common reconstruction gives exact rate
    # zero; otherwise the feasible rate floor is positive and found by a
    # near-zero slope solve
    common = finite.all(axis=0)
    if common.any():
        col = int(np.argmin(np.where(common, probs @ d_fin, np.inf)))
        q_const = np.zeros((ns, no))
        q_const[:, col] = 1.0
        d_const = float(probs @ d_fin[:, col])
        if rate_bits <= tol * 1e-3:
            return BAResult(distortion=d_const, q=q_const, mutual_info_bits=0.0,
                            slope=0.0, iterations=0)
        lo = _Probe(beta=0.0, q=q_const, rate_bits=0.0, dist=d_const,
                    converged=True, gap=0.0, bound=-math.inf)
    else:
        lo = solve(1e-9)
        if lo.rate_bits > rate_bits + tol:
            raise ValueError(
                f"rate target {rate_bits} is below the feasible minimum "
                f"{lo.rate_bits:.6f} bits for this loss matrix"
            )
    hi = _Probe(beta=math.inf, q=q_min, rate_bits=i_min_bits, dist=d_min,
                converged=True, gap=0.0, bound=-math.inf)

    lower = d_min  # no conditional has less loss than the per-source best
    beta = math.inf
    for _ in range(100):
        if lo.dist <= hi.dist:
            hi = lo  # the envelope is flat from the left end on
            break
        beta = (hi.rate_bits - lo.rate_bits) * _LN2 / (lo.dist - hi.dist)
        chord = lo.rate_bits * _LN2 + beta * lo.dist  # I (nats) + beta * D on it
        m = solve(beta)
        lower = max(lower, (m.bound - rate_bits * _LN2) / beta)
        if (chord - rate_bits * _LN2) / beta - lower <= tol:
            break
        if m.rate_bits * _LN2 + beta * m.dist >= chord:
            break  # the solve found no point under the chord to split at
        if m.rate_bits <= rate_bits:
            lo = m
        else:
            hi = m
        if not m.converged:
            break

    span = hi.rate_bits - lo.rate_bits
    lam = 0.0 if span <= 0.0 else min(1.0, max(0.0, (rate_bits - lo.rate_bits) / span))
    q = (1.0 - lam) * lo.q + lam * hi.q
    i_bits, dist = _mutual_info_and_distortion(q, probs, d_fin)
    return BAResult(distortion=dist, q=q, mutual_info_bits=i_bits, slope=beta,
                    iterations=n_probes, gap=max(0.0, dist - lower))


@dataclass(frozen=True, eq=False)
class CurvePoint:
    alpha: float
    rate: float
    distortion: float
    mutual_info_bits: float
    policy: Optional[CovertPolicy]
    gap: float = 0.0  # certified distortion (sum-rate) gap of this point


@dataclass(frozen=True, eq=False)
class TradeoffCurve:
    """Sampled sum-rate/anonymity frontier.

    Rates never increase with anonymity, and the achievable region under the
    curve is convex (time sharing), i.e. the frontier is concave in alpha.
    Both are validated at construction.
    """

    points: tuple[CurvePoint, ...]
    rate_zero: float
    ba_probes: int = 0  # fixed-slope solves behind the curve
    ba_unconverged: int = 0  # of those, solves stopped by the iteration cap

    def __post_init__(self):
        pts = self.points
        for a, b in zip(pts, pts[1:]):
            if b.alpha < a.alpha - 1e-12:
                raise ValueError("curve points must be sorted by alpha")
            if b.rate > a.rate + 1e-9:
                raise ValueError("rate must be nonincreasing in alpha")
        for left, mid, right in zip(pts, pts[1:], pts[2:]):
            span = right.alpha - left.alpha
            if span <= 1e-15:
                continue
            t = (mid.alpha - left.alpha) / span
            chord = (1.0 - t) * left.rate + t * right.rate
            if mid.rate < chord - 1e-9:
                raise ValueError("frontier is not concave: achievable region not convex")

    def to_csv(self) -> str:
        lines = ["alpha,rate,mutual_info_bits,policy_id"]
        for k, p in enumerate(self.points):
            lines.append(f"{fmt(p.alpha)},{fmt(p.rate)},{fmt(p.mutual_info_bits)},{k}")
        return "\n".join(lines) + "\n"

    def policies_text(self) -> str:
        """Sidecar listing of each point's covert-set distribution."""
        lines = []
        for k, p in enumerate(self.points):
            lines.append(f"policy {k} alpha {fmt(p.alpha)}")
            if p.policy is None:
                lines.append("  (none)")
                continue
            for si, (session, dist) in enumerate(p.policy.rules):
                for covert, prob in dist:
                    name = "+".join(sorted(covert)) if covert else "-"
                    lines.append(f"  session {si} covert {name} prob {fmt(prob)}")
        return "\n".join(lines) + "\n"


def tradeoff_curve(model: DistortionModel, alpha_grid: Sequence[float]) -> TradeoffCurve:
    """Randomized-strategy frontier R(alpha) = R(0) - D(H(S)(1 - alpha)) on
    the distortion model, which holds the prior, the delay and every loss.

    For each anonymity level the distortion-rate solution yields both the
    least sum-rate loss and the covert-set distribution achieving it, mapped
    back through the uniqueness of the covert set given (session,
    observation).
    """
    h = entropy_bits(model)
    points = []
    probe_cache: dict = {}
    for alpha in sorted(alpha_grid):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha grid values must be in [0, 1], got {alpha}")
        ba = blahut_arimoto(model.d, model.probs, h * (1.0 - alpha), probe_cache=probe_cache)
        rules = []
        for si, session in enumerate(model.sessions):
            dist = []
            row = ba.q[si]
            for oi in np.nonzero(row > 1e-12)[0]:
                dist.append((model.covert_for[(si, int(oi))], float(row[oi])))
            total = sum(w for _, w in dist)
            dist = tuple((b, w / total) for b, w in dist)
            rules.append((session, dist))
        points.append(
            CurvePoint(
                alpha=alpha,
                # loss cannot exceed rate_zero; only rounding takes it below 0
                rate=max(0.0, model.rate_zero - ba.distortion),
                distortion=ba.distortion,
                mutual_info_bits=ba.mutual_info_bits,
                policy=CovertPolicy(rules=tuple(rules)),
                gap=ba.gap,
            )
        )
    unconverged = sum(not p.converged for p in probe_cache.values())
    return TradeoffCurve(points=tuple(points), rate_zero=model.rate_zero,
                         ba_probes=len(probe_cache), ba_unconverged=unconverged)


def deterministic_hull(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Time-sharing envelope of deterministic (rate, alpha) points.

    Returns (rate, alpha) vertices, sorted by alpha, after discarding every
    point strictly below some convex combination of others. Anonymity can
    always be thrown away, so the envelope extends flat to the left: it is
    the upper chain of the convex hull (monotone chain) from the best-rate
    point rightwards, plus that rate at the smallest alpha. A point with a
    NaN or infinite coordinate raises ValueError naming its position.
    """
    if not points:
        raise ValueError("need at least one point")
    for k, (r, a) in enumerate(points):
        if not (math.isfinite(r) and math.isfinite(a)):
            raise ValueError(f"points[{k}] must be finite, got {(r, a)}")
    ccw = convex_hull((a, r) for r, a in points)  # (alpha, rate), counter-clockwise
    right = ccw.index(max(ccw))
    upper = (ccw[right:] + ccw[:1])[::-1]  # over the top, left to right
    best = max(range(len(upper)), key=lambda k: (upper[k][1], k))  # best rate, rightmost
    hull = [(r, a) for a, r in upper[best:]]
    if ccw[0][0] < hull[0][1]:
        hull.insert(0, (hull[0][0], ccw[0][0]))
    return hull


def deterministic_hull_value(points: Sequence[tuple[float, float]], alpha: float) -> float:
    """Best rate reachable at anonymity >= alpha by mixing deterministic
    strategies across sessions: the hull interpolated at alpha. Points are
    checked as `deterministic_hull` checks them."""
    if math.isnan(alpha):
        raise ValueError(f"alpha must be a number, got {alpha}")
    hull = deterministic_hull(points)
    if alpha > hull[-1][1] + 1e-12:
        raise ValueError(f"no deterministic point reaches anonymity {alpha}")
    return float(np.interp(alpha, [a for _, a in hull], [r for r, _ in hull]))
