import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonrelay import analytic, network_model as nm
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
    r_noboost = covert_sum_rate(session, {"n1"}, topo, 1.0, boost=False)
    assert r_noboost.sum_rate == pytest.approx(
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


def test_analytic_mode_refuses_cascades():
    topo, prior = switching_topology(2.0)
    with pytest.raises(ValueError):
        covert_sum_rate(prior.sessions[0], {"M1", "M2"}, topo, 1.0, mode="analytic")


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
    for _ in range(2):
        with pytest.raises(NetworkConfigError, match="cycle"):
            covert_sum_rate(cyclic, frozenset(), topo, 1.0)
        with pytest.raises(NetworkConfigError, match="cycle"):
            simulate_session(cyclic, frozenset(), topo, 1.0, horizon=10.0, seed=0)
    assert "relay_order" not in vars(cyclic)
    line = Session(paths=(("A", "X", "Y", "D1"), ("B", "Y", "D2")))
    assert line.relay_order == ("X", "Y")
    assert line.relay_order is line.relay_order


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


def test_visible_relay_forwards_dummy_epochs():
    # covert first stage produces dummies; the visible second stage must
    # retransmit them all alongside the data
    topo, prior = switching_topology(2.0)
    s = prior.sessions[0]  # S1,S2 -> M1 -> M2; S3,S4 -> M3 -> M4
    sim = simulate_session(s, {"M1"}, topo, 1.0, horizon=5_000.0, seed=8)
    data_through_m2 = sum(
        sim.delivered_counts[i] for i, p in enumerate(s.paths) if "M2" in p
    )
    assert sim.node_schedules["M2"].size >= data_through_m2
    # everything M1 transmitted, matched data and dummies alike, continues
    # through the visible M2
    assert sim.node_schedules["M2"].size == sim.node_schedules["M1"].size


def test_cascade_cache_deterministic_and_shared():
    topo, prior = switching_topology(2.0)
    nm.clear_sim_cache()
    r1 = covert_sum_rate(prior.sessions[0], {"M1", "M2", "M3", "M4"}, topo, 1.0,
                         sim_packets=30_000, seed=9)
    r2 = covert_sum_rate(prior.sessions[1], {"M1", "M2", "M3", "M4"}, topo, 1.0,
                         sim_packets=30_000, seed=9)
    # sessions 0 and 1 share the first-stage pairing structure, so their
    # cascade statistics come from one cached run
    assert r1.sum_rate == r2.sum_rate
    nm.clear_sim_cache()
    r3 = covert_sum_rate(prior.sessions[0], {"M1", "M2", "M3", "M4"}, topo, 1.0,
                         sim_packets=30_000, seed=9)
    assert r3.sum_rate == r1.sum_rate


def test_canonical_key_separates_sharing_patterns():
    topo, prior = switching_topology(2.0)
    covert = frozenset({"M1", "M2", "M3", "M4"})
    shared = prior.sessions[0]   # S1,S2 share both relays
    mixed = next(
        s for s in prior.sessions
        if len({p[2] for p in s.paths[:2]}) == 2
    )
    caps = topo.capacities
    key_a, _ = nm._canonical_key(shared.paths, caps, covert, [2.0] * 4, 1.0, 1e4, 0, 1e-6)
    key_b, _ = nm._canonical_key(mixed.paths, caps, covert, [2.0] * 4, 1.0, 1e4, 0, 1e-6)
    assert key_a != key_b


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
