import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    _mutual_info_bits,
    _simplex_grid,
    distortion_rate_oracle,
    expected_covert_rate,
    grid_search,
    hull_pairwise,
    hull_value_pairwise,
)

from anonrelay import anonymity_opt as ao
from anonrelay import network_model as nm
from anonrelay.anonymity_opt import (
    AnonymityInfeasibleError,
    CovertPolicy,
    anonymity_level,
    best_deterministic,
    blahut_arimoto,
    build_distortion_model,
    deterministic_hull,
    deterministic_hull_value,
    deterministic_points,
    entropy_bits,
    tradeoff_curve,
)
from anonrelay.network_model import (
    RateBound,
    Session,
    SessionPrior,
    Topology,
    switching_topology,
)


@pytest.fixture(scope="module")
def switching():
    return switching_topology(2.0)


@pytest.fixture(scope="module")
def switching_model(switching):
    topo, prior = switching
    return build_distortion_model(prior, topo, 1.0, sim_packets=30_000, seed=1)


def uniform_prior(sessions):
    n = len(sessions)
    return SessionPrior(entries=tuple((s, 1.0 / n) for s in sessions))


def test_entropy_examples(switching):
    _, prior = switching
    assert entropy_bits(prior) == pytest.approx(math.log2(24), abs=1e-12)
    single = SessionPrior(entries=((Session(paths=(("a", "b"),)), 1.0),))
    assert entropy_bits(single) == 0.0
    two = uniform_prior([Session(paths=(("a", "b"),)), Session(paths=(("a", "c"),))])
    assert entropy_bits(two) == pytest.approx(1.0)


def test_switching_anonymity_exact_values(switching):
    _, prior = switching
    assert anonymity_level(frozenset(), prior) == pytest.approx(
        math.log(4) / math.log(24), abs=1e-12
    )
    assert anonymity_level(frozenset({"M1", "M3"}), prior) == pytest.approx(
        (math.log(4) / 3 + 2 * math.log(16) / 3) / math.log(24), abs=1e-12
    )
    assert anonymity_level(frozenset({"M2", "M4"}), prior) == pytest.approx(1.0, abs=1e-12)
    assert anonymity_level(frozenset({"M1", "M2", "M3", "M4"}), prior) == pytest.approx(
        1.0, abs=1e-12
    )


def test_zero_entropy_prior_scores_one():
    single = SessionPrior(entries=((Session(paths=(("a", "b", "c"),)), 1.0),))
    assert anonymity_level(frozenset({"b"}), single) == 1.0


def test_randomized_policy_anonymity_between_extremes(switching):
    _, prior = switching
    lo = anonymity_level(frozenset(), prior)
    rules = []
    for s in prior.sessions:
        rules.append((s, ((frozenset(), 0.5), (frozenset({"M2", "M4"}), 0.5))))
    mixed = anonymity_level(CovertPolicy(rules=tuple(rules)), prior)
    assert lo < mixed < 1.0


def test_policy_validation(switching):
    _, prior = switching
    s = prior.sessions[0]
    with pytest.raises(ValueError):
        CovertPolicy(rules=((s, ((frozenset({"M1"}), 0.4),)),))
    with pytest.raises(ValueError):
        CovertPolicy(rules=((s, ((frozenset({"S1"}), 1.0),)),))


def test_policy_looks_up_sessions_by_value(switching):
    _, prior = switching
    policy = CovertPolicy.deterministic({"M2", "M4"}, prior)
    s = prior.sessions[7]
    twin = Session(paths=s.paths)
    assert twin is not s
    assert policy.distribution(twin) == ((frozenset({"M2", "M4"}), 1.0),)
    with pytest.raises(KeyError):
        policy.distribution(Session(paths=(("S1", "M1", "M2", "D9"),)))


def test_distortion_model_solves_one_lp_per_shape(monkeypatch):
    # the 24 sessions fall into 2 shapes by capacities alone
    calls = []
    solve = nm.solve_packing_lp

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(nm, "solve_packing_lp", counting)
    topo, prior = switching_topology(2.0)
    model = build_distortion_model(prior, topo, 1.0, sim_packets=2_000, seed=5)
    assert len(calls) == 2
    assert np.isfinite(model.d).sum() == 24 * 16
    deterministic_points(prior, topo, 1.0, sim_packets=2_000, seed=5)
    assert len(calls) == 2


def test_best_deterministic_zero_target_keeps_everything_visible(switching_model):
    best = best_deterministic(switching_model, 0.0)
    assert best.covert == frozenset()
    assert best.sum_rate == pytest.approx(4.0, abs=1e-9)


def test_best_deterministic_perfect_anonymity_is_second_stage(switching_model):
    best = best_deterministic(switching_model, 1.0)
    assert best.covert == frozenset({"M2", "M4"})
    assert best.alpha == pytest.approx(1.0, abs=1e-9)


def test_best_deterministic_rejects_targets_above_one(switching_model):
    with pytest.raises(AnonymityInfeasibleError):
        best_deterministic(switching_model, 1.5)


def test_best_deterministic_rejects_a_nan_target(switching_model):
    with pytest.raises(ValueError, match="alpha_target must be a number, got nan"):
        best_deterministic(switching_model, math.nan)


def test_expected_covert_rate_all_visible(switching, switching_model):
    topo, prior = switching
    assert expected_covert_rate(prior, frozenset(), topo, 1.0, 30_000, 1) \
        == pytest.approx(4.0, abs=1e-9)
    assert switching_model.covert_rate(frozenset()) == pytest.approx(4.0, abs=1e-9)


def test_model_evaluates_cells_on_first_read(monkeypatch):
    # the four covert sets `switching` reports read one cell per session
    # each; those 96 cells fall into 8 of the model's 20 relabelling
    # classes, one covert rate each, the 8 classes and 2 cascades that
    # summing them session by session evaluates
    from anonrelay.cli import _SWITCHING_SUBSETS

    calls = []
    covert_sum_rate = ao.covert_sum_rate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return covert_sum_rate(*args, **kwargs)

    monkeypatch.setattr(ao, "covert_sum_rate", counting)
    topo, prior = switching_topology(2.0)
    model = build_distortion_model(prior, topo, 1.0, sim_packets=20_000, seed=2)
    assert calls == []
    rates = [model.covert_rate(b) for b in _SWITCHING_SUBSETS]
    assert len(calls) == 8 < len(model.classes) == 20
    assert (len(topo._classes), len(topo._cascades)) == (8, 2)
    summed = switching_topology(2.0)[0]
    assert rates == [pytest.approx(expected_covert_rate(prior, frozenset(b), summed, 1.0,
                                                        20_000, 2), abs=1e-12)
                     for b in _SWITCHING_SUBSETS]
    assert (len(summed._classes), len(summed._cascades)) == (8, 2)
    # reading the whole table evaluates only the classes not yet read
    d = model.d
    assert len(calls) == 20
    full = build_distortion_model(prior, switching_topology(2.0)[0], 1.0,
                                  sim_packets=20_000, seed=2)
    assert np.array_equal(d, full.d)
    assert model.metadata == full.metadata
    assert len(calls) == 40
    assert [model.covert_rate(b) for b in _SWITCHING_SUBSETS] == rates
    assert len(calls) == 40


def test_distortion_model_structure(switching, switching_model):
    topo, prior = switching
    model = switching_model
    ns, no = model.d.shape
    assert ns == 24
    finite_per_row = np.isfinite(model.d).sum(axis=1)
    assert (finite_per_row == 16).all()  # one entry per covert subset
    assert model.rate_zero == pytest.approx(4.0, abs=1e-12)
    # the all-visible observation costs nothing
    for si, session in enumerate(model.sessions):
        zero_cols = np.nonzero(model.d[si] == 0.0)[0]
        assert len(zero_cols) >= 1
        covs = {model.covert_for[(si, int(c))] for c in zero_cols}
        assert frozenset() in covs


def test_distortion_model_first_stage_loss_value(switching, switching_model):
    from anonrelay.analytic import loss_fraction

    topo, prior = switching
    model = switching_model
    eps1 = loss_fraction(4.0, 2.0, 1.0)
    target = frozenset({"M1", "M3"})
    for si in range(len(model.sessions)):
        cols = [oi for (s, oi), b in model.covert_for.items() if s == si and b == target]
        assert len(cols) == 1
        assert model.d[si, cols[0]] == pytest.approx(4.0 * eps1, abs=1e-12)


def test_ba_lossless_regime():
    d = np.array([[0.0, 2.0], [1.0, 0.0]])
    p = np.array([0.5, 0.5])
    res = blahut_arimoto(d, p, rate_bits=1.0)
    assert res.distortion == pytest.approx(0.0, abs=1e-12)
    assert res.mutual_info_bits <= 1.0 + 1e-9


def test_ba_zero_rate_constant_output():
    d = np.array([[0.0, 2.0], [1.0, 0.5]])
    p = np.array([0.25, 0.75])
    res = blahut_arimoto(d, p, rate_bits=0.0)
    # best single column: col0 = 0.75, col1 = 0.875
    assert res.distortion == pytest.approx(0.75, abs=1e-12)
    assert res.mutual_info_bits == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_batched_grid_search_matches_the_loop(seed):
    # the oracle's grid search, batched, against one conditional at a time in
    # product order; small grids and batches, so several batches are crossed
    rng = np.random.default_rng(seed)
    ns, no = int(rng.integers(2, 4)), int(rng.integers(2, 5))
    d = rng.uniform(0.0, 1.0, (ns, no))
    p = rng.dirichlet(np.ones(ns) * 3.0)
    r = float(rng.uniform(0.0, 0.9) * math.log2(ns))
    row = list(_simplex_grid(no, 4))
    best_val, best_q = math.inf, None
    for combo in itertools.product(row, repeat=ns):
        q = np.vstack(combo)
        if _mutual_info_bits(q, p) <= r + 1e-12:
            val = float(np.sum(p[:, None] * q * d))
            if val < best_val:
                best_val, best_q = val, q
    got_val, got_q = grid_search(d, p, r, 4, batch=97)
    assert got_val == best_val
    assert np.array_equal(got_q, best_q)


def test_ba_respects_rate_budget_and_oracle():
    rng = np.random.default_rng(5)
    for _ in range(3):
        ns = int(rng.integers(2, 4))
        no = int(rng.integers(2, 5))
        d = rng.uniform(0.0, 1.0, (ns, no))
        p = rng.dirichlet(np.ones(ns) * 3.0)
        r = float(rng.uniform(0.1, 0.9) * math.log2(ns))
        res = blahut_arimoto(d, p, r)
        assert res.mutual_info_bits <= r + 1e-6
        ref = distortion_rate_oracle(d, p, r)
        assert res.distortion == pytest.approx(ref, abs=1e-4)


def test_ba_curve_monotone_convex_on_toy():
    rng = np.random.default_rng(8)
    d = rng.uniform(0.0, 1.0, (3, 4))
    p = np.array([0.2, 0.3, 0.5])
    cache = {}
    grid = np.linspace(0.0, math.log2(3), 12)
    vals = [blahut_arimoto(d, p, float(r), probe_cache=cache).distortion for r in grid]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-9
    for left, mid, right in zip(vals, vals[1:], vals[2:]):
        assert mid <= 0.5 * (left + right) + 1e-8


def test_ba_probe_cache_reuse_adds_no_probes():
    rng = np.random.default_rng(8)
    d = rng.uniform(0.0, 1.0, (3, 4))
    p = np.array([0.2, 0.3, 0.5])
    cache = {}
    grid = np.linspace(0.0, math.log2(3), 12)
    first = [blahut_arimoto(d, p, float(r), probe_cache=cache) for r in grid]
    assert sum(res.iterations for res in first) == len(cache) > 0
    again = [blahut_arimoto(d, p, float(r), probe_cache=cache) for r in grid]
    assert sum(res.iterations for res in again) == 0
    assert [res.distortion for res in again] == [res.distortion for res in first]


def test_ba_certificate_holds_and_can_fail():
    rng = np.random.default_rng(5)
    d = rng.uniform(0.0, 1.0, (3, 4))
    p = rng.dirichlet(np.ones(3) * 3.0)
    r = 0.5 * math.log2(3)
    ref = distortion_rate_oracle(d, p, r)
    tol = 1e-6
    full = blahut_arimoto(d, p, r, tol=tol)
    assert full.gap <= tol
    # distortion minus gap is a lower bound on D(r); the oracle's value is
    # achievable, so it cannot lie below it
    assert full.distortion - full.gap <= ref + 1e-9
    crude = blahut_arimoto(d, p, r, tol=tol, max_iter=1)
    assert crude.mutual_info_bits <= r + tol
    assert crude.gap > tol
    assert crude.distortion - crude.gap <= ref + 1e-9


def test_ba_is_shift_invariant_at_steep_slopes():
    # near the lossless rate the chord slopes are steep; a common offset in
    # the losses must shift D(r) by exactly that offset, not underflow
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]])
    p = np.array([0.5, 0.5])
    base = blahut_arimoto(d, p, 0.999)
    for offset in (50.0, 500.0):
        res = blahut_arimoto(d + offset, p, 0.999)
        assert res.distortion - offset == pytest.approx(base.distortion, abs=1e-6)
        assert res.gap <= 1e-6


def test_ba_rejects_unreachable_rows():
    d = np.array([[np.inf, np.inf], [0.0, 1.0]])
    with pytest.raises(ValueError):
        blahut_arimoto(d, np.array([0.5, 0.5]), 1.0)


def test_ba_rejects_nan_and_negative_rate():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    for bad in (math.nan, -0.1):
        with pytest.raises(ValueError, match="nonnegative"):
            blahut_arimoto(d, np.array([0.5, 0.5]), bad)


def test_infinite_entries_get_zero_mass():
    d = np.array([[0.0, np.inf], [np.inf, 0.5], [1.0, 0.0]])
    p = np.array([0.4, 0.3, 0.3])
    res = blahut_arimoto(d, p, rate_bits=0.8)
    assert res.q[0, 1] == 0.0
    assert res.q[1, 0] == 0.0
    # below the forced-row rate floor there is nothing to return
    with pytest.raises(ValueError):
        blahut_arimoto(d, p, rate_bits=0.2)


def test_tradeoff_curve_invariants_and_policies(switching, switching_model):
    _, prior = switching
    model = switching_model
    grid = [0.0, 0.25, 0.4362, 0.6, 0.8, 1.0]
    curve = tradeoff_curve(model, grid)
    rates = [p.rate for p in curve.points]
    assert rates[0] == pytest.approx(4.0, abs=1e-9)
    assert rates[1] == pytest.approx(4.0, abs=1e-9)  # flat below the free anonymity
    assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))
    assert 0.0 < rates[-1] < 4.0
    for pt in curve.points:
        assert pt.mutual_info_bits <= entropy_bits(prior) * (1 - pt.alpha) + 1e-5
        for _, dist in pt.policy.rules:
            assert sum(w for _, w in dist) == pytest.approx(1.0, abs=1e-9)
    # with anonymity to spare, staying fully visible is optimal
    for _, dist in curve.points[0].policy.rules:
        assert dist == ((frozenset(), 1.0),)


def test_switching_frontier_matches_closed_form(switching_model):
    # D(R) on the switching network is the straight chord from the common
    # column (rate 0, loss 4/3) to the lossless floor (rate log2 6, loss 0)
    grid = np.linspace(0.0, 1.0, 33).tolist()
    curve = tradeoff_curve(switching_model, grid)
    for pt in curve.points:
        share = min(1.0, math.log2(24) * (1.0 - pt.alpha) / math.log2(6))
        assert pt.rate == pytest.approx(8.0 / 3.0 + 4.0 / 3.0 * share, abs=1e-9)
    assert curve.ba_probes <= 2
    assert curve.ba_unconverged == 0


def test_tradeoff_dominates_deterministic_hull(switching, switching_model):
    topo, prior = switching
    model = switching_model
    det = deterministic_points(prior, topo, 1.0, sim_packets=30_000, seed=1)
    pairs = [(p.sum_rate, p.alpha) for p in det]
    curve = tradeoff_curve(model, [0.5, 0.727, 0.9, 1.0])
    for pt in curve.points:
        assert pt.rate >= deterministic_hull_value(pairs, pt.alpha) - 1e-9


def test_hull_single_point_and_segment():
    assert deterministic_hull([(3.0, 0.5)]) == [(3.0, 0.5)]
    hull = deterministic_hull([(4.0, 0.2), (2.0, 1.0)])
    assert hull == [(4.0, 0.2), (2.0, 1.0)]
    assert deterministic_hull_value([(4.0, 0.2), (2.0, 1.0)], 0.6) == pytest.approx(3.0)
    # anonymity below every point costs nothing extra
    assert deterministic_hull_value([(4.0, 0.2), (2.0, 1.0)], 0.1) == pytest.approx(4.0)


def test_hull_value_rejects_a_nan_alpha():
    with pytest.raises(ValueError, match="alpha must be a number, got nan"):
        deterministic_hull_value([(4.0, 0.2), (2.0, 1.0)], math.nan)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("coord", [0, 1])
def test_hull_rejects_a_non_finite_point(bad, coord):
    pts = [(4.0, 0.2), (2.0, 1.0), (3.0, 0.5)]
    pts[2] = (bad, 0.5) if coord == 0 else (3.0, bad)
    with pytest.raises(ValueError, match=r"points\[2\] must be finite"):
        deterministic_hull(pts)
    with pytest.raises(ValueError, match=r"points\[2\] must be finite"):
        deterministic_hull_value(pts, 0.3)


# A bare str is not a covert set, though iterating it gives one-letter
# names, and a relay interior to no session would be dropped from every
# session's part; either used to read as the all-visible set.
@pytest.mark.parametrize("covert, message", [
    ("M1", "got the str 'M1'"),
    ({"ZZ"}, r"covert relays \['ZZ'\] are interior to no session"),
    ({"M1", "ZZ", "S1"}, r"covert relays \['S1', 'ZZ'\] are interior to no session"),
])
def test_bad_covert_sets_are_rejected(switching, switching_model, covert, message):
    _, prior = switching
    with pytest.raises(ValueError, match=message):
        switching_model.anonymity(covert)
    with pytest.raises(ValueError, match=message):
        switching_model.covert_rate(covert)
    with pytest.raises(ValueError, match=message):
        anonymity_level(covert, prior)
    assert switching_model.anonymity({"M1"}) == anonymity_level({"M1"}, prior)


def test_hull_excludes_dominated_points():
    pts = [(4.0, 0.4), (3.9, 0.4), (1.0, 0.7), (2.0, 1.0)]
    hull = deterministic_hull(pts)
    assert (3.9, 0.4) not in hull
    assert (1.0, 0.7) not in hull
    assert deterministic_hull_value(pts, 0.7) > 1.0


# Dyadic grids keep every cross product exact, so collinear means exactly
# collinear for the hull and the reference alike.
_grid_point = st.tuples(st.integers(0, 64).map(lambda j: j / 16),
                        st.integers(0, 32).map(lambda k: k / 32))


@st.composite
def _collinear_run(draw):
    j0, k0 = draw(st.integers(0, 64)), draw(st.integers(0, 16))
    dj, dk = draw(st.integers(-8, 8)), draw(st.integers(1, 4))
    return [((j0 + i * dj) / 16, (k0 + i * dk) / 32) for i in range(draw(st.integers(2, 5)))]


_point_sets = st.builds(lambda pts, runs: pts + [p for run in runs for p in run],
                        st.lists(_grid_point, min_size=1, max_size=12),
                        st.lists(_collinear_run(), max_size=2))


@settings(max_examples=400, deadline=None)
@given(pts=_point_sets, below=st.floats(0.0, 1.0), between=st.lists(st.integers(0, 63),
                                                                     max_size=4))
@example(pts=[(3.0, 0.5)], below=0.25, between=[])
@example(pts=[(1.0, 0.5), (2.0, 0.5), (2.0, 0.25), (0.5, 1.0), (0.5, 0.75)],
         below=0.0, between=[0])
def test_hull_matches_pairwise_reference(pts, below, between):
    assert deterministic_hull(pts) == hull_pairwise(pts)
    alphas = [a for _, a in pts]
    lo, hi = min(alphas), max(alphas)
    # midway between grid alphas, where the reference's 1e-12 alpha slack
    # cannot reach a point
    mids = [(k + 0.5) / 32 for k in between if (k + 0.5) / 32 <= hi]
    for a in alphas + [lo - below] + mids:
        assert deterministic_hull_value(pts, a) == pytest.approx(
            hull_value_pairwise(pts, a), abs=1e-12)
    with pytest.raises(ValueError):
        deterministic_hull_value(pts, hi + 1e-9)


@pytest.mark.parametrize("network", ["switching", "leaky_network"])
def test_points_read_off_the_model_match_direct_enumeration(network, request):
    topo, prior = request.getfixturevalue(network)
    model = build_distortion_model(prior, topo, 1.0, sim_packets=20_000, seed=4)
    points = model.deterministic_points()
    assert points == deterministic_points(prior, topo, 1.0, sim_packets=20_000, seed=4)
    relays = sorted(set().union(*(s.interior_nodes for s in prior.sessions)))
    assert [p.covert for p in points] == [
        frozenset(c) for k in range(len(relays) + 1) for c in itertools.combinations(relays, k)
    ]
    ref = {}
    for p in points:
        alpha = anonymity_level(p.covert, prior)
        rate = expected_covert_rate(prior, p.covert, topo, 1.0, 20_000, 4)
        assert p.alpha == pytest.approx(alpha, abs=1e-12)
        assert p.sum_rate == pytest.approx(rate, abs=1e-12)
        ref[p.covert] = (alpha, rate)
    # brute force over the direct values: first subset within 1e-15 of the best
    for target in sorted({0.0, 1.0} | {a for a, _ in ref.values()}):
        want = None
        for b, (a, r) in ref.items():
            if a + 1e-12 >= target and (want is None or r > ref[want][1] + 1e-15):
                want = b
        if want is None:
            with pytest.raises(AnonymityInfeasibleError):
                best_deterministic(model, target)
        else:
            assert best_deterministic(model, target).covert == want


@pytest.fixture(scope="module")
def leaky_network():
    """Two sessions that no covert assignment can make confusable: one has an
    extra active source, and source activity is always observable."""
    nodes = ["A", "B", "X", "Y", "D1", "D2"]
    topo = Topology(
        bounds=tuple(RateBound(n, 2.0) for n in nodes),
        edges=frozenset({("A", "X"), ("X", "Y"), ("B", "Y"),
                         ("Y", "D1"), ("Y", "D2")}),
    )
    s_both = Session(paths=(("A", "X", "Y", "D1"), ("B", "Y", "D2")))
    s_solo = Session(paths=(("A", "X", "Y", "D1"),))
    prior = uniform_prior([s_both, s_solo])
    return topo, prior


def test_unanonymizable_sessions_score_zero(leaky_network):
    topo, prior = leaky_network
    relays = {"X", "Y"}
    for k in range(3):
        import itertools as it
        for combo in it.combinations(sorted(relays), k):
            assert anonymity_level(frozenset(combo), prior) == 0.0


def test_best_deterministic_reports_unreachable_target(leaky_network):
    topo, prior = leaky_network
    model = build_distortion_model(prior, topo, 1.0, sim_packets=20_000)
    with pytest.raises(AnonymityInfeasibleError) as err:
        best_deterministic(model, 0.5)
    assert err.value.best_alpha == 0.0


def test_rate_floor_raised_for_disjoint_observations(leaky_network):
    topo, prior = leaky_network
    model = build_distortion_model(prior, topo, 1.0, sim_packets=20_000, seed=3)
    # observations of the two sessions never coincide, so compression below
    # one full bit is impossible and the solver must say so
    with pytest.raises(ValueError):
        blahut_arimoto(model.d, model.probs, rate_bits=0.5)
    res = blahut_arimoto(model.d, model.probs, rate_bits=1.0)
    assert res.distortion == pytest.approx(0.0, abs=1e-12)


def test_cascade_with_shared_relay_consistency(leaky_network):
    # note the covert sum rate is goodput bookkeeping anchored at the
    # visible-case allocation; the simulation moves the boosted physical
    # streams, so the two agree on loss fractions rather than on raw rates
    from anonrelay.network_model import covert_sum_rate, simulate_session

    topo, prior = leaky_network
    session = prior.sessions[0]  # the three-hop path shares Y with the short one
    covert = frozenset({"X", "Y"})
    r = covert_sum_rate(session, covert, topo, 1.0, sim_packets=150_000, seed=21)
    assert r.mode == "simulated"
    assert {e.source for e in r.eps.values()} == {"analytic", "simulated"}
    assert r.eps[(0, "X")].source == "analytic"
    assert r.eps[(0, "Y")].source == "simulated"

    sim = simulate_session(session, covert, topo, 1.0, horizon=60_000.0, seed=22)
    # counting identity: what a path delivers is its input thinned by every
    # relay's measured drop fraction, exactly
    for i, path in enumerate(session.paths):
        n = sim.relay_stats[path[1]][i].n_in
        for node in path[1:-1]:
            n -= sim.relay_stats[node][i].n_dropped
        assert n == sim.delivered_counts[i]
    # the cascade loss used by the bookkeeping matches a fresh run within
    # combined error bars
    cascade = r.eps[(0, "Y")]
    fresh = sim.relay_stats["Y"][0]
    tol = 3 * math.hypot(cascade.stderr, fresh.drop_stderr)
    assert abs(cascade.value - fresh.drop_fraction) <= tol
    # the closed form at the thinned input rate approximates the shared
    # relay's loss for the short path (its input mix is not Poisson, so only
    # coarse agreement is guaranteed)
    analytic_eps = r.eps[(1, "Y")]
    assert analytic_eps.source == "analytic"
    assert abs(analytic_eps.value - sim.relay_stats["Y"][1].drop_fraction) < 0.05


def test_enumeration_cap_stops_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(nm, "solve_packing_lp", no_solve)
    nodes = ["src"] + [f"r{k:02d}" for k in range(21)] + ["dst"]
    topo = Topology(bounds=tuple(RateBound(n, 2.0) for n in nodes),
                    edges=frozenset(zip(nodes, nodes[1:])))
    prior = uniform_prior([Session(paths=(tuple(nodes),))])
    with pytest.raises(ValueError, match="enumeration cap is 20"):
        build_distortion_model(prior, topo, 1.0)
    with pytest.raises(ValueError, match="enumeration cap 20"):
        deterministic_points(prior, topo, 1.0)


def test_covert_rate_settings_are_constants(switching):
    fixed = {"boost", "max_relays", "max_relays_per_session", "proc_delay"}
    for module in (ao, nm):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                assert not fixed & set(inspect.signature(obj).parameters), name
    assert list(inspect.signature(tradeoff_curve).parameters) == ["model", "alpha_grid"]
    assert "model" not in inspect.signature(deterministic_points).parameters
    # covert rates are read off a model, and no second path sums them
    assert list(inspect.signature(best_deterministic).parameters) == ["model", "alpha_target"]
    assert not hasattr(ao, "expected_covert_rate")
    _, prior = switching
    with pytest.raises(TypeError):
        tradeoff_curve(prior, 1.0, [0.5])
