import hashlib
import itertools
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    distortion_cells_reference,
    fixed_set_reference,
    least_form_exhaustive,
    observation_cells_reference,
    observe_by_segments,
)

from anonrelay import analytic, network_model as nm
from anonrelay import anonymity_opt as ao
from anonrelay.anonymity_opt import _subsets, build_distortion_model
from anonrelay.network_model import (
    NetworkConfigError,
    RateBound,
    Session,
    SessionPrior,
    Topology,
    covert_sum_rate,
    format_network_config,
    max_sum_rate_visible,
    observe,
    observe_single,
    parse_network_config,
    simulate_session,
    switching_topology,
)
from anonrelay.lp import solve_packing_lp


def line_topology(caps):
    nodes = [f"n{i}" for i in range(len(caps))]
    return (
        Topology(
            bounds=tuple(RateBound(n, c) for n, c in zip(nodes, caps)),
            edges=frozenset(zip(nodes, nodes[1:])),
        ),
        tuple(nodes),
    )


def test_observe_strips_destination():
    assert observe_single([("S1", "B", "D1")], None) == frozenset({("S1", "B")})


def test_observe_splits_at_covert_node():
    got = observe_single([("S1", "M1", "M2", "D1")], "M1")
    assert got == frozenset({("S1",), ("M1", "M2", "D1")})


def test_observe_ignores_absent_node():
    paths = [("S1", "B", "D1")]
    assert observe_single(paths, "X") == frozenset({("S1", "B", "D1")})


def test_observe_all_interior_covert_gives_singletons():
    s = Session(paths=(("S1", "M1", "M2", "D1"), ("S2", "M1", "M2", "D2")))
    got = observe(s, {"M1", "M2"})
    assert got == frozenset({("S1",), ("S2",), ("M1",), ("M2",)})


def test_observe_hides_destination_pairings():
    # sessions differing only in the final pairing look identical unstripped
    a = Session(paths=(("S1", "B", "D1"), ("S2", "B", "D2")))
    b = Session(paths=(("S1", "B", "D2"), ("S2", "B", "D1")))
    assert observe(a, frozenset()) == observe(b, frozenset())


@given(st.permutations(["M1", "M2", "M3", "M4"]))
@settings(max_examples=24, deadline=None)
def test_observe_order_independent(order):
    topo, prior = switching_topology(2.0)
    session = prior.sessions[7]
    obs = observe_single(session.paths, None)
    for b in order:
        obs = observe_single(obs, b)
    assert obs == observe(session, {"M1", "M2", "M3", "M4"})


def test_observe_idempotent_per_node():
    topo, prior = switching_topology(2.0)
    session = prior.sessions[3]
    once = observe(session, {"M1"})
    assert observe_single(once, "M1") == once


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_observe_order_independent_on_random_sessions(data):
    alphabet = [f"v{i}" for i in range(8)]
    n_paths = data.draw(st.integers(1, 4))
    paths = []
    for _ in range(n_paths):
        k = data.draw(st.integers(2, 5))
        paths.append(tuple(data.draw(st.permutations(alphabet))[:k]))
    covert = data.draw(st.sets(st.sampled_from(alphabet), max_size=4))
    base = observe_single(paths, None)
    fwd = base
    for b in sorted(covert):
        fwd = observe_single(fwd, b)
    rev = base
    for b in sorted(covert, reverse=True):
        rev = observe_single(rev, b)
    assert fwd == rev
    for b in covert:
        assert observe_single(fwd, b) == fwd  # idempotent once applied


def test_switching_topology_shape():
    topo, prior = switching_topology(2.0)
    assert len(prior.entries) == 24
    assert abs(sum(prior.probs) - 1.0) < 1e-12
    for s, _ in prior.entries:
        s.validate_in(topo)
        assert s.interior_nodes == frozenset({"M1", "M2", "M3", "M4"})


def test_switching_visible_sum_rate_is_twice_capacity():
    topo, prior = switching_topology(2.0)
    for s in prior.sessions:
        value, rates = max_sum_rate_visible(s, topo)
        assert value == pytest.approx(4.0, abs=1e-12)
        assert min(rates) >= -1e-12


def test_lp_bottleneck_on_a_line():
    topo, nodes = line_topology([1.0, 2.0, 3.0])
    session = Session(paths=(nodes,))
    value, rates = max_sum_rate_visible(session, topo)
    assert value == pytest.approx(1.0)


def test_lp_disjoint_paths_add():
    topo = Topology(
        bounds=tuple(RateBound(n, 1.0) for n in ("a", "b", "c", "d")),
        edges=frozenset({("a", "b"), ("c", "d")}),
    )
    session = Session(paths=(("a", "b"), ("c", "d")))
    value, _ = max_sum_rate_visible(session, topo)
    assert value == pytest.approx(2.0)


def test_covert_sum_rate_empty_set_keeps_visible_optimum():
    topo, prior = switching_topology(2.0)
    for s in prior.sessions[:3]:
        r = covert_sum_rate(s, frozenset(), topo, 1.0)
        assert r.sum_rate == r.sum_rate_visible
        assert r.mode == "analytic"


def test_covert_single_relay_two_hop_closed_form():
    topo, nodes = line_topology([2.0, 2.0, 2.0])
    session = Session(paths=(nodes,))
    r = covert_sum_rate(session, {"n1"}, topo, 1.0)
    # the source may fill its whole capacity when its next hop is covert
    assert r.sum_rate == pytest.approx(
        2.0 * (1 - analytic.loss_fraction(2.0, 2.0, 1.0))
    )


def test_covert_never_beats_visible():
    topo, prior = switching_topology(2.0)
    s = prior.sessions[5]
    for k in (1, 2):
        for combo in itertools.combinations(("M1", "M2", "M3", "M4"), k):
            r = covert_sum_rate(s, frozenset(combo), topo, 1.0, sim_packets=40_000)
            assert r.sum_rate <= r.sum_rate_visible + 1e-9


def test_covert_first_stage_formula():
    topo, prior = switching_topology(2.0)
    eps1 = analytic.loss_fraction(4.0, 2.0, 1.0)
    for s in prior.sessions[:4]:
        r = covert_sum_rate(s, {"M1", "M3"}, topo, 1.0)
        assert r.mode == "analytic"
        assert r.sum_rate == pytest.approx(4.0 * (1 - eps1), abs=1e-12)


def _count_solves(monkeypatch) -> list:
    """Route the network model's LP solver through a recorder of each
    call's `exact` flag."""
    calls = []
    solve = nm.solve_packing_lp

    def counting(*args, **kwargs):
        calls.append(kwargs.get("exact", False))
        return solve(*args, **kwargs)

    monkeypatch.setattr(nm, "solve_packing_lp", counting)
    return calls


def test_covert_rates_solve_each_visible_lp_once(monkeypatch):
    calls = _count_solves(monkeypatch)
    topo, prior = switching_topology(2.0)
    s = prior.sessions[3]
    first = covert_sum_rate(s, {"M1", "M3"}, topo, 1.0)
    assert len(calls) == 1
    again = covert_sum_rate(s, {"M1", "M3"}, topo, 1.0)
    covert_sum_rate(s, {"M2"}, topo, 1.0)
    simulate_session(s, frozenset(), topo, 1.0, horizon=100.0, seed=1)
    assert len(calls) == 1
    assert again.sum_rate == first.sum_rate
    # another topology, even an equal one, solves afresh
    covert_sum_rate(s, {"M1", "M3"}, switching_topology(2.0)[0], 1.0)
    assert len(calls) == 2


def test_visible_optimum_held_per_exactness(monkeypatch):
    calls = _count_solves(monkeypatch)
    topo, prior = switching_topology(2.0)
    s = prior.sessions[0]
    approx = max_sum_rate_visible(s, topo)
    exact = max_sum_rate_visible(s, topo, exact=True)
    assert calls == [False, True]
    assert max_sum_rate_visible(s, topo) is approx
    assert max_sum_rate_visible(s, topo, exact=True) is exact
    assert calls == [False, True]
    assert exact[0] == pytest.approx(approx[0], abs=1e-12)


@pytest.mark.parametrize("warm", [False, True])
def test_invalid_session_always_raises(warm):
    topo, prior = switching_topology(2.0)
    bad = Session(paths=(("S1", "M2", "D1"),))  # S1 has no edge to M2
    if warm:
        for s in prior.sessions:
            covert_sum_rate(s, {"M1", "M3"}, topo, 1.0)
    for _ in range(2):
        with pytest.raises(NetworkConfigError):
            covert_sum_rate(bad, frozenset(), topo, 1.0)
        with pytest.raises(NetworkConfigError):
            simulate_session(bad, frozenset(), topo, 1.0, horizon=10.0, seed=0)
        with pytest.raises(NetworkConfigError):
            max_sum_rate_visible(bad, topo)


def test_cyclic_session_always_raises():
    # X precedes Y on one path and follows it on the other: no relay order
    nodes = ["A", "B", "X", "Y", "D1", "D2"]
    topo = Topology(
        bounds=tuple(RateBound(n, 2.0) for n in nodes),
        edges=frozenset({("A", "X"), ("X", "Y"), ("Y", "D1"),
                         ("B", "Y"), ("Y", "X"), ("X", "D2")}),
    )
    cyclic = Session(paths=(("A", "X", "Y", "D1"), ("B", "Y", "X", "D2")))
    text = format_network_config(topo, SessionPrior(entries=((cyclic, 1.0),)))
    # the relay order is solved once per set of interior sequences, and a
    # cycle is never held: a session built again raises again
    for session in (cyclic, Session(paths=cyclic.paths)):
        for _ in range(2):
            with pytest.raises(NetworkConfigError, match="cycle"):
                parse_network_config(text)
            with pytest.raises(NetworkConfigError, match="cycle"):
                session.relay_order
            with pytest.raises(NetworkConfigError, match="cycle"):
                covert_sum_rate(session, frozenset(), topo, 1.0)
            with pytest.raises(NetworkConfigError, match="cycle"):
                simulate_session(session, frozenset(), topo, 1.0, horizon=10.0, seed=0)
        assert "relay_order" not in vars(session)
    line = Session(paths=(("A", "X", "Y", "D1"), ("B", "Y", "D2")))
    assert line.relay_order == ("X", "Y")
    assert line.relay_order is line.relay_order


@pytest.mark.parametrize("arg, bad, message", [
    ("seed", 1.5, "seed must be"), ("seed", True, "seed must be"),
    ("horizon", -5.0, "horizon must be"), ("horizon", math.nan, "horizon must be"),
])
def test_simulate_session_rejects_a_bad_seed_or_horizon(arg, bad, message):
    topo, prior = switching_topology(2.0)
    args = {"delay": 1.0, "horizon": 100.0, "seed": 1, arg: bad}
    with pytest.raises(ValueError, match=message):
        simulate_session(prior.sessions[0], {"M1", "M2"}, topo, **args)


def test_equal_sessions_share_a_hash_and_the_topology_stores():
    # a session holds its hash, so an equal session built apart hashes
    # equal and reads what the topology holds for the first
    topo, prior = switching_topology(2.0)
    s = prior.sessions[3]
    twin = Session(paths=[list(p) for p in s.paths])
    assert twin is not s and twin == s and hash(twin) == hash(s) == hash((s.paths,))
    assert {s: 1}[twin] == 1
    form = nm._session_form(s, topo)
    assert nm._session_form(twin, topo) is form
    optimum = max_sum_rate_visible(twin, topo)
    assert max_sum_rate_visible(s, topo) is optimum
    assert len(topo._forms) == len(topo._visible_optima) == 1
    # a pickle carries the paths, not the hash, which another process
    # would compute differently
    data = pickle.dumps(s)
    assert b"_hash" not in data
    copy = pickle.loads(data)
    assert copy == s and hash(copy) == hash(s)


def test_parse_and_build_do_shared_work_once_per_structure(monkeypatch):
    # 720 sessions of the 6x6 network share 36 paths and a few relay graphs:
    # parsing and one model build walk each distinct path's edges once and
    # solve each distinct set of interior path sequences' relay order once
    text = format_network_config(*six_by_six())
    walks = []
    walk = Topology.is_valid_path
    monkeypatch.setattr(Topology, "is_valid_path",
                        lambda topo, path: walks.append(path) or walk(topo, path))
    nm._relay_order.cache_clear()
    topo, prior = parse_network_config(text)
    build_distortion_model(prior, topo, 1.0, sim_packets=1_000, seed=0)
    paths = {p for s in prior.sessions for p in s.paths}
    graphs = {frozenset(p[1:-1] for p in s.paths) for s in prior.sessions}
    assert len(walks) == len(set(walks)) == len(paths) == 36
    assert nm._relay_order.cache_info().misses == len(graphs) == 3


def test_simulate_all_visible_recovers_lp_rates():
    topo, prior = switching_topology(2.0)
    s = prior.sessions[0]
    _, lam = max_sum_rate_visible(s, topo)
    sim = simulate_session(s, frozenset(), topo, 1.0, horizon=20_000.0, seed=2)
    for got, want in zip(sim.path_rates, lam):
        sigma = math.sqrt(max(want, 1e-12) / sim.horizon)
        assert abs(got - want) <= 3 * sigma + 1e-9


def test_simulate_single_covert_matches_loss_formula():
    topo, nodes = line_topology([2.0, 2.0, 2.0])
    session = Session(paths=(nodes,))
    sim = simulate_session(session, {"n1"}, topo, 1.0, horizon=50_000.0, seed=4)
    stats = sim.relay_stats["n1"][0]
    predicted = analytic.loss_fraction(2.0, 2.0, 1.0)
    assert abs(stats.drop_fraction - predicted) <= 3 * stats.drop_stderr


def test_simulate_cascade_records_second_stage_loss():
    topo, prior = switching_topology(2.0)
    s = prior.sessions[0]
    sim = simulate_session(s, {"M1", "M2", "M3", "M4"}, topo, 1.0,
                           horizon=20_000.0, seed=6)
    # the numbers themselves are the reference value; just require sanity
    for node in ("M2", "M4"):
        for st_ in sim.relay_stats[node].values():
            assert 0.0 < st_.drop_fraction < 1.0


def _sim_digest(sim) -> str:
    return hashlib.sha256(
        repr((sim.delivered_counts, sim.path_rates, sim.relay_stats)).encode()).hexdigest()


def test_simulated_stats_are_pinned():
    # a covert relay feeding two others (M1 feeds both M2 and M4), and two
    # covert relays with visible ones between (n1 -> n2 -> n3 -> n4): every
    # count and statistic stays as pinned. The digests were re-taken when the
    # seeded streams moved from Philox to PCG64; the same code with Philox
    # still gave the digests of the run that also kept every schedule and
    # routed chaff
    topo, prior = switching_topology(2.0)
    mixed = prior.sessions[2]
    assert len({p[2] for p in mixed.paths[:2]}) == 2  # M1 feeds both M2 and M4
    sim = simulate_session(mixed, {"M1", "M3"}, topo, 1.0, horizon=2_000.0, seed=9)
    assert _sim_digest(sim) == "3f5249b1221930a44881d0d31fc9f930505890b628c90ad55239afffa1904a34"
    line, nodes = line_topology([2.0] * 6)
    sim = simulate_session(Session(paths=(nodes,)), {"n1", "n4"}, line, 1.0,
                           horizon=2_000.0, seed=9)
    assert _sim_digest(sim) == "01f0cbc2b918e14de100048dbb97e997249d17b85ac0564ca824737e93dd77e5"


def test_cascade_cache_deterministic_and_shared():
    topo, prior = switching_topology(2.0)
    r1 = covert_sum_rate(prior.sessions[0], {"M1", "M2", "M3", "M4"}, topo, 1.0,
                         sim_packets=30_000, seed=9)
    r2 = covert_sum_rate(prior.sessions[1], {"M1", "M2", "M3", "M4"}, topo, 1.0,
                         sim_packets=30_000, seed=9)
    # sessions 0 and 1 share the first-stage pairing structure, so their
    # cascade statistics come from one cached run
    assert r1.sum_rate == r2.sum_rate
    # a fresh topology simulates again and measures the same statistics
    r3 = covert_sum_rate(prior.sessions[0], {"M1", "M2", "M3", "M4"},
                         switching_topology(2.0)[0], 1.0, sim_packets=30_000, seed=9)
    assert r3.sum_rate == r1.sum_rate
    assert r3.stderr == r1.stderr
    assert r3.path_rates == r1.path_rates
    assert r3.eps == r1.eps


def _cascade_positions(session, covert, topo):
    """The session's cascade form under `covert` and the session path at each
    of its positions, placed by `_canonical_form` as `covert_sum_rate` places
    them: through the session's shape, its class, and the class's cascade."""
    shape, relays, _, order, _ = nm._session_form(session, topo)
    rep, caps, _, _ = nm._representative(shape)
    lam_v = nm._shape_optimum(shape, topo, False)[1]
    form, pos, _ = nm._canonical_form(rep.paths, caps, {relays[v] for v in covert}, lam_v)
    rep, caps, covert, lam_v = nm._representative(form)
    rates = nm._boosted_rates(rep.paths, caps, lam_v, covert)
    cascade, cascade_pos, _ = nm._canonical_form(rep.paths, caps, covert, rates)
    return cascade, [order[pos[j]] for j in cascade_pos]


def test_cascade_statistics_do_not_leak_across_topologies():
    # session 16 (M1->M4, M3->M2) simulated on one topology must not supply
    # the cascade losses of session 0 (M1->M2, M3->M4) on another: session 0
    # reads the run of its cascade's canonical representative, mapped back
    covert = frozenset({"M1", "M2", "M3", "M4"})
    topo, prior = switching_topology(2.0)
    covert_sum_rate(prior.sessions[16], covert, topo, 1.0, sim_packets=20_000, seed=5)
    fresh, _ = switching_topology(2.0)
    s = prior.sessions[0]
    res = covert_sum_rate(s, covert, fresh, 1.0, sim_packets=20_000, seed=5)
    (key,) = fresh._cascades
    assert len({desc for desc, _ in key[0]}) == 1  # one descriptor: positions keep class order
    rep, caps, rep_covert, rates = nm._representative(key[0])
    run = nm._run_session_sim(rep, caps, rep_covert, rates, *key[1:], {})
    cascade, index = _cascade_positions(s, covert, fresh)
    assert cascade == key[0]
    simulated = {k: e for k, e in res.eps.items() if e.source == "simulated"}
    assert len(simulated) == 4
    for (i, node), e in simulated.items():
        k = index.index(i)
        hop = s.paths[i].index(node)
        assert e.value == run.relay_stats[rep.paths[k][hop]][k].drop_fraction, (i, node)


def test_cascade_statistics_held_by_topology():
    covert = frozenset({"M1", "M2", "M3", "M4"})
    topo, prior = switching_topology(2.0)
    for s in prior.sessions:
        covert_sum_rate(s, covert, topo, 1.0, sim_packets=20_000, seed=5)
    held = topo._cascades
    assert held
    for per_path in held.values():
        for by_hop in per_path:
            # every path crosses M1/M3 at hop 1 and M2/M4 at hop 2
            assert set(by_hop) == {1, 2}
            assert all(isinstance(st, nm.RelayPathStats) for st in by_hop.values())
    assert not switching_topology(2.0)[0]._cascades


def test_cascade_statistics_shared_by_concurrent_callers():
    # six threads over one topology, three in each of two families (two
    # packet counts, so two horizons) at once: each family reads what a
    # topology of its own gives
    covert = frozenset({"M1", "M2", "M3", "M4"})
    families = (5_000, 4_000)
    topo, prior = switching_topology(2.0)
    refs = {n: switching_topology(2.0)[0] for n in families}
    want = {(n, j): covert_sum_rate(s, covert, refs[n], 1.0, sim_packets=n, seed=2).eps
            for n in families for j, s in enumerate(prior.sessions)}
    got: dict = {}

    def work(w):
        n = families[w % 2]
        for k in range(len(prior.sessions)):
            j = (k * 5 + w) % len(prior.sessions)
            r = covert_sum_rate(prior.sessions[j], covert, topo, 1.0, sim_packets=n, seed=2)
            got.setdefault((n, j), []).append(r.eps)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert set(topo._cascades) == set(refs[5_000]._cascades) | set(refs[4_000]._cascades)
    assert len(got) == len(want)
    for key, results in got.items():
        assert len(results) == 3
        assert all(eps == want[key] for eps in results)


def _unshared_cascade(key):
    """What the cascade store holds for `key`, from a run of the key's
    representative that shares nothing."""
    rep, caps, covert, rates = nm._representative(key[0])
    run = nm._run_session_sim(rep, caps, covert, rates, *key[1:], {})
    return tuple({h: run.relay_stats[v][k] for h, v in enumerate(p[1:-1], 1) if v in covert}
                 for k, p in enumerate(rep.paths))


@pytest.mark.parametrize("network", ["switching", "six_by_six"])
def test_held_cascades_equal_unshared_runs(network):
    # a model's cascades share draws and matches within each family; every
    # held cascade is field for field (repr: NaN error bars too) what a run
    # of its own gives
    topo, prior = switching_topology(2.0) if network == "switching" else six_by_six()
    build_distortion_model(prior, topo, 1.0, sim_packets=20_000, seed=4).d
    assert len({key[2] for key in topo._cascades}) == 2  # two families, by horizon
    for key, held in topo._cascades.items():
        assert repr(held) == repr(_unshared_cascade(key)), key


def test_alternating_families_match_fresh_topologies():
    # one topology asked in alternation across eight families (two packet
    # counts, two seeds, two delays) gives what a fresh topology per call does
    _, prior = switching_topology(2.0)
    topo = switching_topology(2.0)[0]
    s0, s16 = prior.sessions[0], prior.sessions[16]  # M1->M2, M3->M4; M1->M4, M3->M2
    asks = [(s0, {"M1", "M2"}), (s16, {"M1", "M2", "M3", "M4"}), (s0, {"M1", "M3", "M4"})]
    for session, covert in asks:
        for delay, seed, packets in itertools.product((1.0, 0.5), (1, 2), (3_000, 4_000)):
            got = covert_sum_rate(session, covert, topo, delay, sim_packets=packets, seed=seed)
            want = covert_sum_rate(session, covert, switching_topology(2.0)[0], delay,
                                   sim_packets=packets, seed=seed)
            assert got.mode == "simulated"
            assert repr((got.sum_rate, got.stderr, got.path_rates, got.eps)) == repr(
                (want.sum_rate, want.stderr, want.path_rates, want.eps))


def test_canonical_key_separates_sharing_patterns():
    topo, prior = switching_topology(2.0)
    covert = frozenset({"M1", "M2", "M3", "M4"})
    shared = prior.sessions[0]   # S1,S2 share both relays
    mixed = next(
        s for s in prior.sessions
        if len({p[2] for p in s.paths[:2]}) == 2
    )
    caps = topo.capacities
    key_a, _, _ = nm._canonical_form(shared.paths, caps, covert, [2.0] * 4)
    key_b, _, _ = nm._canonical_form(mixed.paths, caps, covert, [2.0] * 4)
    assert key_a != key_b


@st.composite
def path_systems(draw):
    """Up to six distinct paths over a few shared nodes, with two capacities
    and two rates, so that many paths tie on their descriptors."""
    nodes = [f"v{k}" for k in range(draw(st.integers(2, 7)))]
    path = st.lists(st.sampled_from(nodes), min_size=2, max_size=4, unique=True).map(tuple)
    paths = draw(st.lists(path, min_size=1, max_size=6, unique=True))
    caps = {v: draw(st.sampled_from([1.0, 2.0])) for v in nodes}
    covert = draw(st.frozensets(st.sampled_from(nodes)))
    rates = draw(st.lists(st.sampled_from([0.5, 1.0]), min_size=len(paths),
                          max_size=len(paths)))
    return paths, caps, covert, rates


def _encoding(paths, caps, covert, rates, order, names):
    """The encoding of a path system in the given order under the given labels."""
    label = {v: k for k, v in enumerate(names)}
    return tuple(((rates[i], tuple(caps[v] for v in paths[i]),
                   tuple(v in covert for v in paths[i])), tuple(label[v] for v in paths[i]))
                 for i in order)


@settings(max_examples=300, deadline=None)
@given(path_systems(), st.randoms(use_true_random=False))
def test_canonical_form_is_the_least_encoding(system, rnd):
    paths, caps, covert, rates = system
    form, order, names = nm._canonical_form(paths, caps, covert, rates)
    assert form == least_form_exhaustive(paths, caps, covert, rates)
    assert sorted(order) == list(range(len(paths)))
    assert set(names) == {v for p in paths for v in p} and len(names) == len(set(names))
    assert _encoding(paths, caps, covert, rates, order, names) == form
    # renamed nodes and shuffled paths: the same form, read through their own
    # order and labels
    nodes = sorted(caps)
    rename = dict(zip(nodes, rnd.sample(nodes, len(nodes))))
    shuffle = rnd.sample(range(len(paths)), len(paths))
    paths2 = [tuple(rename[v] for v in paths[i]) for i in shuffle]
    caps2 = {rename[v]: c for v, c in caps.items()}
    covert2 = {rename[v] for v in covert}
    rates2 = [rates[i] for i in shuffle]
    form2, order2, names2 = nm._canonical_form(paths2, caps2, covert2, rates2)
    assert form2 == form
    assert _encoding(paths2, caps2, covert2, rates2, order2, names2) == form
    # the representative a form describes has that form
    rep, rep_caps, rep_covert, rep_rates = nm._representative(form)
    assert nm._canonical_form(rep.paths, rep_caps, rep_covert, rep_rates)[0] == form


def six_by_six():
    """Two-stage 6x6 switching network: S1-S3 feed A1 and S4-S6 feed A2, both
    feed B1 (serving D1-D3) and B2 (serving D4-D6); one session per bijection
    of sources to destinations, uniform prior."""
    sources = [f"S{i}" for i in range(1, 7)]
    dests = [f"D{i}" for i in range(1, 7)]
    first = {s: "A1" if k < 3 else "A2" for k, s in enumerate(sources)}
    second = {d: "B1" if k < 3 else "B2" for k, d in enumerate(dests)}
    nodes = sources + ["A1", "A2", "B1", "B2"] + dests
    edges = {(s, first[s]) for s in sources} | {(second[d], d) for d in dests}
    edges |= {(a, b) for a in ("A1", "A2") for b in ("B1", "B2")}
    topo = Topology(bounds=tuple(RateBound(n, 2.0) for n in nodes), edges=frozenset(edges))
    sessions = [Session(paths=tuple((s, first[s], second[d], d) for s, d in zip(sources, perm)))
                for perm in itertools.permutations(dests)]
    return topo, SessionPrior(entries=tuple((s, 1.0 / len(sessions)) for s in sessions))


def test_model_does_not_depend_on_session_order():
    _, prior = switching_topology(2.0)
    losses = []
    for pr in (prior, SessionPrior(entries=prior.entries[::-1])):
        model = build_distortion_model(pr, switching_topology(2.0)[0], 1.0,
                                       sim_packets=20_000, seed=5)
        losses.append({(model.sessions[si], b): model.d[si, oi]
                       for (si, oi), b in model.covert_for.items()})
    assert len(losses[0]) == 24 * 16
    assert losses[0] == losses[1]


def test_sessions_of_one_class_read_identical_results():
    topo, prior = switching_topology(2.0)
    by_form: dict = {}
    for s in prior.sessions:
        by_form.setdefault(nm._session_form(s, topo)[0], []).append(s)
    assert len(by_form) < len(prior.sessions)
    for a, *others in by_form.values():
        names_a = nm._session_form(a, topo)[2]
        for b in others:
            names_b = nm._session_form(b, topo)[2]
            rename = dict(zip(names_a, names_b))  # a's node -> b's node of one label
            paths = {p: tuple(rename[v] for v in p) for p in a.paths}
            index = {i: b.paths.index(paths[p]) for i, p in enumerate(a.paths)}
            for covert in _subsets(sorted(a.interior_nodes)):
                ra = covert_sum_rate(a, covert, topo, 1.0, sim_packets=5_000, seed=3)
                rb = covert_sum_rate(b, {rename[v] for v in covert}, topo, 1.0,
                                     sim_packets=5_000, seed=3)
                assert (ra.sum_rate, ra.stderr, ra.mode) == (rb.sum_rate, rb.stderr, rb.mode)
                assert all(ra.path_rates[i] == rb.path_rates[j] for i, j in index.items())
                assert {(index[i], rename[v]): e for (i, v), e in ra.eps.items()} == rb.eps


@pytest.mark.parametrize("network, most", [("switching", 20), ("six_by_six", 100)])
def test_each_relabelling_class_is_evaluated_once(monkeypatch, network, most):
    evaluated = []
    class_rates = nm._class_rates

    def counting(key, topo):
        evaluated.append(key)
        return class_rates(key, topo)

    monkeypatch.setattr(nm, "_class_rates", counting)
    topo, prior = switching_topology(2.0) if network == "switching" else six_by_six()
    model = build_distortion_model(prior, topo, 1.0, sim_packets=2_000, seed=3)
    model.d  # cells are evaluated on first read
    assert 0 < len(evaluated) == len(set(evaluated)) <= most
    assert model.metadata["class_evaluations"] == len(evaluated)
    assert model.metadata["cascade_simulations"] == len(topo._cascades)
    again = build_distortion_model(prior, topo, 1.0, sim_packets=2_000, seed=3)
    assert np.array_equal(again.d, model.d)
    assert len(evaluated) == model.metadata["class_evaluations"]
    assert again.metadata["class_evaluations"] == again.metadata["cascade_simulations"] == 0


@pytest.mark.parametrize("network", ["switching", "six_by_six"])
def test_model_equals_the_per_cell_reference(network):
    # a model evaluated a group at a time against one built cell by cell,
    # each on its own fresh topology: the same columns in the same order,
    # the same bytes in every loss cell, the same counters, and the same
    # rate and anonymity of every fixed covert set
    make = switching_topology if network == "switching" else (lambda _: six_by_six())
    topo, prior = make(2.0)
    model = build_distortion_model(prior, topo, 1.0, sim_packets=5_000, seed=3)
    observations, covert_for, d, metadata = distortion_cells_reference(
        prior, make(2.0)[0], 1.0, 5_000, 3)
    assert model.observations == observations
    assert list(model.covert_for.items()) == list(covert_for.items())
    assert model.d.tobytes() == d.tobytes()
    assert model.metadata == metadata
    for p in model.deterministic_points():
        assert (p.sum_rate, p.alpha) == fixed_set_reference(prior, topo, covert_for, d, p.covert)
        assert (p.sum_rate, p.alpha) == (model.covert_rate(p.covert), model.anonymity(p.covert))


def _network_of(sessions, caps=None):
    """A topology of exactly the sessions' nodes and path edges, capacity
    2 unless `caps` names one, and the uniform prior over the sessions."""
    nodes = sorted({v for s in sessions for p in s.paths for v in p})
    caps = caps or {}
    edges = frozenset(e for s in sessions for p in s.paths for e in zip(p, p[1:]))
    topo = Topology(bounds=tuple(RateBound(v, caps.get(v, 2.0)) for v in nodes), edges=edges)
    return topo, SessionPrior(entries=tuple((s, 1.0 / len(sessions)) for s in sessions))


def _assert_model_observes_cell_by_cell(prior, topo):
    # the model's columns and cells, in order, against `observe` cell by
    # cell, each observation against the paths' runs between covert relays,
    # each class against the cells whose class key names it, in order, and
    # each deterministic point, read from the model's column table, against
    # its covert set's own reads and the per-cell reference, float for float
    model = build_distortion_model(prior, topo, 1.0, sim_packets=500, seed=1)
    observations, covert_for = observation_cells_reference(prior)
    assert model.observations == observations
    assert list(model.covert_for.items()) == list(covert_for.items())
    classes: dict = {}
    for (si, oi), b in covert_for.items():
        session = prior.sessions[si]
        assert observations[oi] == observe_by_segments(session, b)
        key = nm._class_of(session, b, topo, 1.0, 500, 1)[0]
        classes.setdefault(key, []).append((si, oi))
    assert [(key, list(zip(*map(np.ndarray.tolist, cells))))
            for key, cells in model.classes.items()] == list(classes.items())
    for p in model.deterministic_points():
        assert (p.sum_rate, p.alpha) == (model.covert_rate(p.covert), model.anonymity(p.covert))
        assert (p.sum_rate, p.alpha) == fixed_set_reference(prior, topo, covert_for, model.d,
                                                            p.covert)


def test_model_observes_cut_sources_shared_fragments_and_relay_sets():
    # A is the source of a path in the first session, so a covert A cuts
    # it at position 0; with A covert, (A, B) is a piece of two paths in
    # each session; the relay sets differ, and (S2, A, B) is cut in both
    first = Session(paths=(("S1", "A", "B", "C", "D1"), ("S2", "A", "B", "D2"),
                           ("A", "C", "D3")))
    second = Session(paths=(("S1", "A", "B", "D1"), ("S2", "A", "B", "D3")))
    topo, prior = _network_of([first, second], {"A": 3.0, "C": 1.0})
    _assert_model_observes_cell_by_cell(prior, topo)


_paths = st.lists(st.integers(0, 6), min_size=2, max_size=5, unique=True).map(
    lambda ids: tuple(f"v{i}" for i in sorted(ids)))
_sessions = st.lists(_paths, min_size=1, max_size=3, unique=True).map(
    lambda paths: Session(paths=tuple(paths)))


@given(st.lists(_sessions, min_size=1, max_size=3, unique=True),
       st.dictionaries(st.sampled_from([f"v{i}" for i in range(7)]), st.sampled_from([1.0, 3.0])))
@settings(max_examples=40, deadline=None)
def test_model_observes_random_networks_cell_by_cell(sessions, caps):
    # every path runs along one node order, so no relay graph has a cycle
    topo, prior = _network_of(sessions, caps)
    _assert_model_observes_cell_by_cell(prior, topo)


@given(st.lists(st.lists(st.sampled_from([f"v{i}" for i in range(7)]), min_size=2, max_size=5,
                         unique=True).map(tuple), min_size=1, max_size=4, unique=True))
@settings(max_examples=200, deadline=None)
def test_observation_names_the_covert_set(paths):
    # an interior relay is covert exactly when no fragment holds it past
    # its first position, so no two covert subsets share an observation
    session = Session(paths=tuple(paths))
    relays = sorted(session.interior_nodes)
    seen = {}
    for b in _subsets(relays):
        obs = observe(session, b)
        assert {v for v in relays if not any(v in f[1:] for f in obs)} == b
        assert seen.setdefault(obs, b) == b


@pytest.mark.parametrize("arg, bad", [("seed", 1.5), ("seed", True), ("seed", -1),
                                      ("delay", -1.0), ("delay", math.nan)])
def test_model_and_covert_rate_reject_a_bad_delay_or_seed(arg, bad):
    topo, prior = switching_topology(2.0)
    args = {"delay": 1.0, "sim_packets": 1_000, "seed": 1, arg: bad}
    message = f"{arg} must be"
    with pytest.raises(ValueError, match=message):
        build_distortion_model(prior, topo, **args)
    with pytest.raises(ValueError, match=message):
        covert_sum_rate(prior.sessions[0], (), topo, **args)
    assert not topo._classes
    assert build_distortion_model(prior, topo, math.inf, 1_000, np.int64(0)).delay == math.inf


def test_six_by_six_model_evaluates_each_class_once(monkeypatch):
    # 720 sessions of 16 cells each over 12 destination-stripped paths with
    # two relays each: one observation step per path and covert subset of
    # its relays at build, and one covert rate per relabelling class
    calls = {"observe_single": 0, "covert_sum_rate": 0}

    def counting(name):
        fn = getattr(ao, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(ao, name, counting(name))
    topo, prior = six_by_six()
    model = build_distortion_model(prior, topo, 1.0, sim_packets=2_000, seed=3)
    assert calls == {"observe_single": 12 * 4, "covert_sum_rate": 0}
    model.d
    assert calls["covert_sum_rate"] == len(model.classes) == 20


def test_six_by_six_model_works_once_per_isomorphism_class():
    # the 720 sessions fall into 2 shapes up to node names, each with one
    # optimal visible vertex; read in full, the model evaluates 20 covert
    # classes and simulates 9 cascades, one per isomorphism class, where a
    # vertex per session gave 3 shapes by rate, 30 classes and 12 cascades,
    # and forms that kept ties in session order gave 6, 50 and 21
    topo, prior = six_by_six()
    model = build_distortion_model(prior, topo, 1.0, sim_packets=2_000, seed=3)
    model.d
    assert len(model.classes) == len(topo._classes) == 20
    assert model.metadata["class_evaluations"] == len(topo._classes) == 20
    assert model.metadata["cascade_simulations"] == len(topo._cascades) == 9


@pytest.mark.parametrize("network", ["switching", "six_by_six"])
def test_visible_optimum_is_one_vertex_per_shape(monkeypatch, network):
    # every session reads its shape's optimum, solved once per shape and
    # mode and relabelled: the optimum of its own program (to 1e-12, and
    # exactly in exact mode) at feasible rates; each session's shape is its
    # canonical form by capacities alone
    solves = _count_solves(monkeypatch)
    topo, prior = switching_topology(2.0) if network == "switching" else six_by_six()
    caps = topo.capacities
    for s in prior.sessions:
        nodes = sorted({v for p in s.paths for v in p})
        rows = [[1.0 if v in p else 0.0 for p in s.paths] for v in nodes]
        ones = [1.0] * len(s.paths)
        for exact in (False, True):
            value, rates = max_sum_rate_visible(s, topo, exact=exact)
            want, _ = solve_packing_lp(rows, [caps[v] for v in nodes], ones, exact=exact)
            assert value == (want if exact else pytest.approx(want, abs=1e-12))
            assert sum(rates) == pytest.approx(value, abs=1e-12) and min(rates) >= 0.0
            for v, row in zip(nodes, rows):
                assert np.dot(row, rates) <= caps[v] + 1e-12
    assert sorted(solves) == [False, False, True, True]
    free = {}
    for s in prior.sessions:
        free[s] = nm._canonical_form(s.paths, caps, (), [0.0] * len(s.paths))[0]
        assert nm._session_form(s, topo)[0] == free[s]
    assert len(set(free.values())) == 2


def test_model_releases_the_family_memo():
    # a partial read that simulates cascades, the four covert sets
    # `switching` reports, and a read of the whole table each empty the
    # topology's one-family memo; a cascade asked for afterwards, of the
    # model's family, draws afresh and reads what a fresh topology gives
    from anonrelay.cli import _SWITCHING_SUBSETS

    topo, prior = switching_topology(2.0)
    partial = build_distortion_model(prior, topo, 1.0, sim_packets=20_000, seed=4)
    for b in _SWITCHING_SUBSETS:
        partial.covert_rate(b)
    assert partial.metadata["cascade_simulations"] > 0
    assert topo._family_slot == [(None, {})]

    covert = frozenset({"M1", "M2", "M3", "M4"})
    topo, prior = switching_topology(2.0)
    shared = prior.sessions[0]  # S1, S2 share both relays
    mixed = next(s for s in prior.sessions if len({p[2] for p in s.paths[:2]}) == 2)
    model = build_distortion_model(SessionPrior(entries=((shared, 1.0),)), topo, 1.0,
                                   sim_packets=20_000, seed=4)
    model.d
    assert model.metadata["cascade_simulations"] > 0
    assert topo._family_slot == [(None, {})]
    held = set(topo._cascades)
    got = covert_sum_rate(mixed, covert, topo, 1.0, sim_packets=20_000, seed=4)
    (new,) = set(topo._cascades) - held
    assert new[1:] in {key[1:] for key in held}  # (delay, horizon, seed): one family
    want = covert_sum_rate(mixed, covert, switching_topology(2.0)[0], 1.0,
                           sim_packets=20_000, seed=4)
    assert repr((got.sum_rate, got.stderr, got.path_rates, got.eps)) == repr(
        (want.sum_rate, want.stderr, want.path_rates, want.eps))


def test_source_sharing_separates_classes():
    # one source feeding both paths has no spare capacity to boost with;
    # two sources do, so the shared relay A sees twice the input
    topo = Topology(
        bounds=tuple(RateBound(n, 2.0) for n in ("S1", "S2", "A", "D1", "D2")),
        edges=frozenset({("S1", "A"), ("S2", "A"), ("A", "D1"), ("A", "D2")}),
    )
    apart = Session(paths=(("S1", "A", "D1"), ("S2", "A", "D2")))
    shared = Session(paths=(("S1", "A", "D1"), ("S1", "A", "D2")))
    assert max_sum_rate_visible(apart, topo) == max_sum_rate_visible(shared, topo)
    r_apart = covert_sum_rate(apart, {"A"}, topo, 1.0)
    r_shared = covert_sum_rate(shared, {"A"}, topo, 1.0)
    assert len(topo._classes) == 2
    assert r_apart.sum_rate == pytest.approx(2.0 * (1 - analytic.loss_fraction(4.0, 2.0, 1.0)))
    assert r_shared.sum_rate == pytest.approx(2.0 * (1 - analytic.loss_fraction(2.0, 2.0, 1.0)))


def test_relay_without_traffic_loses_nothing():
    # the LP gives the path through B rate 0, so B, its first covert relay,
    # receives nothing
    topo = Topology(
        bounds=tuple(RateBound(n, 1.0) for n in ("S", "A", "B", "D1", "D2")),
        edges=frozenset({("S", "A"), ("S", "B"), ("A", "D1"), ("B", "D2")}),
    )
    session = Session(paths=(("S", "A", "D1"), ("S", "B", "D2")))
    _, lam_v = max_sum_rate_visible(session, topo)
    assert lam_v == (1.0, 0.0)
    r = covert_sum_rate(session, {"B"}, topo, 1.0)
    assert r.sum_rate == 1.0
    assert r.eps[(1, "B")] == nm.EpsEstimate(value=0.0, stderr=0.0, source="analytic")


def test_empty_cascade_stream_loses_nothing():
    # a zero delay bound makes M1 and M3 drop everything, so the second
    # stage's cascade streams carry nothing
    topo, prior = switching_topology(2.0)
    r = covert_sum_rate(prior.sessions[0], {"M1", "M2", "M3", "M4"}, topo, 0.0,
                        sim_packets=5_000, seed=1)
    assert r.sum_rate == 0.0 and r.stderr == 0.0
    second = [e for (i, v), e in r.eps.items() if v in ("M2", "M4")]
    assert second == [nm.EpsEstimate(value=0.0, stderr=0.0, source="simulated")] * 4


def test_cascade_hop_too_short_to_batch_has_no_error_bar():
    # a second-stage hop that saw fewer than four packets has no two batches:
    # its measured loss has no error bar, at a total loss too, and neither has
    # the rate built on it; a hop that saw nothing loses nothing, exactly.
    # Runs of 8 and 4 packets over ten seeds reach each of these states.
    topo, prior = switching_topology(2.0)
    s = prior.sessions[0]
    hops = []
    for covert, delay, packets in (({"M1", "M2"}, 1.0, 8), ({"M1", "M2", "M3", "M4"}, 0.1, 4)):
        cascade, index = _cascade_positions(s, covert, topo)
        for seed in range(10):
            r = covert_sum_rate(s, covert, topo, delay, sim_packets=packets, seed=seed)
            held = topo._cascades[(cascade, delay, r.horizon, seed)]
            for (i, node), e in r.eps.items():
                if e.source == "simulated":
                    hop = held[index.index(i)][s.paths[i].index(node)]
                    state = ("empty" if hop.n_in == 0 else "batched" if hop.n_in >= 4
                             else "total loss" if hop.n_dropped == hop.n_in else "short")
                    hops.append((state, hop, e, r.stderr))
    assert {state for state, *_ in hops} >= {"empty", "short", "total loss"}
    for state, hop, e, stderr in hops:
        if state == "empty":
            assert e == nm.EpsEstimate(value=0.0, stderr=0.0, source="simulated")
        elif state != "batched":
            assert e.value == hop.n_dropped / hop.n_in
            assert math.isnan(e.stderr) and math.isnan(stderr)


@pytest.mark.parametrize("bad", [0, -5, 2.5, "100", None])
def test_sim_packets_must_be_a_positive_integer(bad):
    topo, prior = switching_topology(2.0)
    with pytest.raises(ValueError, match="sim_packets must be a positive integer"):
        covert_sum_rate(prior.sessions[0], {"M1", "M2"}, topo, 1.0, sim_packets=bad)
    with pytest.raises(ValueError, match="sim_packets must be a positive integer"):
        build_distortion_model(prior, topo, 1.0, sim_packets=bad)
    assert not topo._classes
    assert covert_sum_rate(prior.sessions[0], {"M1"}, topo, 1.0,
                           sim_packets=np.int64(1_000)).mode == "analytic"


def test_config_round_trip():
    topo, prior = switching_topology(1.5)
    text = format_network_config(topo, prior)
    topo2, prior2 = parse_network_config(text)
    assert topo2.capacities == topo.capacities
    assert topo2.edges == topo.edges
    assert prior2.sessions == prior.sessions
    assert prior2.probs == pytest.approx(prior.probs)


def test_config_parse_errors():
    with pytest.raises(NetworkConfigError):
        parse_network_config("node a cap 1\nweird line\n")
    with pytest.raises(NetworkConfigError):
        parse_network_config("node a cap 1\npath a b\n")
    with pytest.raises(NetworkConfigError):
        parse_network_config("node a cap 1\nsession 1.0\npath a b\n")
    # X precedes Y on one path and follows it on the other: no relay order
    nodes = "".join(f"node {n} cap 2\n" for n in ("A", "B", "X", "Y", "D1", "D2"))
    with pytest.raises(NetworkConfigError, match="cycle"):
        parse_network_config(nodes + "edge A X\nedge X Y\nedge Y D1\nedge B Y\nedge Y X\n"
                             "edge X D2\nsession 1\npath A X Y D1\npath B Y X D2\nend\n")


def test_nan_prior_probability_rejected():
    s = Session(paths=(("a", "b"),))
    with pytest.raises(NetworkConfigError, match="positive"):
        SessionPrior(entries=((s, math.nan),))
    with pytest.raises(NetworkConfigError, match="sum to"):
        SessionPrior(entries=((s, 0.5), (Session(paths=(("c", "d"),)), math.inf)))
    with pytest.raises(NetworkConfigError):
        parse_network_config("node a cap 1\nnode b cap 1\nedge a b\n"
                             "session nan\npath a b\nend\n")


def test_session_and_topology_validation():
    with pytest.raises(NetworkConfigError):
        Session(paths=())
    with pytest.raises(NetworkConfigError):
        Session(paths=(("a",),))
    with pytest.raises(NetworkConfigError):
        Session(paths=(("a", "b", "a"),))
    with pytest.raises(NetworkConfigError):
        Topology(bounds=(RateBound("a", 1.0),), edges=frozenset({("a", "a")}))
    with pytest.raises(NetworkConfigError):
        Topology(bounds=(RateBound("a", 1.0),), edges=frozenset({("a", "zz")}))
    with pytest.raises(NetworkConfigError):
        SessionPrior(entries=((Session(paths=(("a", "b"),)), 0.5),))
