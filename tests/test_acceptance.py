"""Acceptance suite: every release gate in one module, one pass/fail line per
criterion (run with -s to see them all). Each criterion states its tolerance
inline; all randomness is seeded, so reruns are deterministic.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import distortion_rate_oracle, min_drops_exhaustive

from anonrelay import analytic, anonymity_opt as ao, network_model as nm
from anonrelay.cli import main as cli_main
from anonrelay.point_process import GenSpec, gen_poisson
from anonrelay.relay_core import (
    bounded_greedy_match,
    priority_relay,
    random_walk_oracle,
)
from anonrelay._util import batch_stderr

RATE_GRID = (0.5, 1.0, 2.0)
DELTA_GRID = (0.2, 1.0, 5.0)


def report(num: int, name: str, ok: bool, detail: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail} [{elapsed:.1f}s]")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget"


@pytest.fixture(scope="module")
def switching():
    return nm.switching_topology(2.0)


@pytest.fixture(scope="module")
def switching_model(switching):
    topo, prior = switching
    return ao.build_distortion_model(prior, topo, 1.0, sim_packets=200_000, seed=11)


def _drop_flags(result):
    arr = np.sort(np.concatenate([result.pairs[:, 0], result.dropped_arrivals]))
    dropped = result.dropped_arrivals
    if dropped.size == 0:
        return np.zeros(arr.size, dtype=bool)
    idx = np.minimum(np.searchsorted(dropped, arr), dropped.size - 1)
    return dropped[idx] == arr


def test_criterion_01_greedy_loss_matches_closed_form():
    t0 = time.perf_counter()
    worst = ""
    ok = True
    for cs in RATE_GRID:
        for cb in RATE_GRID:
            for delta in DELTA_GRID:
                horizon = 1_000_000 / cs
                arr = gen_poisson(GenSpec(cs, horizon, 1001), node_id="in")
                dep = gen_poisson(GenSpec(cb, horizon, 1002), node_id="out")
                res = bounded_greedy_match(arr, dep, delta)
                predicted = analytic.loss_fraction(cs, cb, delta)
                sigma = batch_stderr(_drop_flags(res), 100)
                err = abs(res.drop_fraction - predicted)
                if not (err <= 3 * sigma and err <= 0.005):
                    ok = False
                    worst = f"({cs},{cb},{delta}): err={err:.2e} sigma={sigma:.2e}"
                if (cs, cb, delta) == (1.0, 1.0, 1.0):
                    equal_ok = abs(res.drop_fraction - 0.5) <= 0.005
                    ok = ok and equal_ok
                    if not equal_ok:
                        worst = f"equal-rate point gave {res.drop_fraction:.4f}"
    detail = worst if worst else "27 grid points within 3 sigma and 0.005 absolute"
    report(1, "greedy loss vs closed form", ok, detail, t0, 60.0)


def test_criterion_02_walk_oracle_agrees_with_formulas():
    t0 = time.perf_counter()
    ok = True
    worst = ""
    for cs in RATE_GRID:
        for cb in RATE_GRID:
            for delta in DELTA_GRID:
                w = random_walk_oracle(cs, cb, delta, steps=10_000_000, seed=2024,
                                       chains=1000)
                e_err = abs(w.loss_fraction - analytic.loss_fraction(cs, cb, delta))
                m_err = abs(w.mean_interior_delay - analytic.mean_delay(delta, cs, cb))
                if not (e_err <= 3 * w.loss_stderr and m_err <= 3 * w.delay_stderr):
                    ok = False
                    worst = (f"({cs},{cb},{delta}): loss err {e_err:.2e} vs "
                             f"{3*w.loss_stderr:.2e}, delay err {m_err:.2e} vs "
                             f"{3*w.delay_stderr:.2e}")
    detail = worst if worst else "barrier walk matches loss and mean delay on all 27 points"
    report(2, "independent walk oracle", ok, detail, t0, 60.0)


def test_criterion_03_greedy_is_drop_minimal():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(0, 13))
        m = int(rng.integers(0, 13))
        arr = np.sort(rng.uniform(0.0, 10.0, n))
        dep = np.sort(rng.uniform(0.0, 10.0, m))
        delta = float(rng.uniform(0.0, 3.0))
        if bounded_greedy_match(arr, dep, delta).n_dropped != \
                min_drops_exhaustive(arr, dep, delta):
            violations += 1
    report(3, "greedy drop minimality", violations == 0,
           f"{violations} violations over 1000 exhaustive instances", t0, 30.0)


def _fresh_corner(rate_hi, rate_lo, cb, delta, events, seed):
    horizon = events / (rate_hi + rate_lo)
    hi = gen_poisson(GenSpec(rate_hi, horizon, seed), node_id="hi")
    lo = gen_poisson(GenSpec(rate_lo, horizon, seed), node_id="lo")
    out = gen_poisson(GenSpec(cb, horizon, seed), node_id="out")
    top, low = priority_relay([hi, lo], out, ("hi", "lo"), delta)
    return low.n_matched / horizon, top.n_matched / horizon, horizon


def test_criterion_04_two_source_region():
    t0 = time.perf_counter()
    ok = True
    worst = ""
    for c1 in RATE_GRID:
        for c2 in RATE_GRID:
            for cb in RATE_GRID:
                for delta in (0.1, 1.0, 10.0):
                    region = analytic.two_source_region(c1, c2, cb, delta,
                                                        corner_events=40_000, seed=5)
                    if not region.contains_inner_in_outer(tol=1e-9):
                        ok = False
                        worst = f"containment failed at ({c1},{c2},{cb},{delta})"
                # coincidence of the inner max-sum vertex with the outer cap
                wide = 50.0 / max(c1, c2, cb)
                region = analytic.two_source_region(c1, c2, cb, wide,
                                                    corner_events=10_000, seed=5)
                best = max(x + y for x, y in region.inner_vertices)
                if abs(best - region.sum_cap) >= 1e-6:
                    ok = False
                    worst = f"wide-window gap {abs(best - region.sum_cap):.2e}"

    # corner points against an independent matcher run
    for c1, c2, cb in ((1.0, 1.0, 2.0), (1.0, 2.0, 2.0), (0.5, 1.0, 2.0), (2.0, 2.0, 1.0)):
        region = analytic.two_source_region(c1, c2, cb, 1.0, corner_events=100_000, seed=5)
        y_fresh, x_top, horizon = _fresh_corner(c1, c2, cb, 1.0, 400_000, 909)
        sig = math.sqrt(max(region.corner1[1], 1e-9) / (region.corner_events / (c1 + c2)))
        sig_f = math.sqrt(max(y_fresh, 1e-9) / horizon)
        tol = 3 * math.hypot(sig, sig_f)
        if abs(region.corner1[1] - y_fresh) > tol:
            ok = False
            worst = (f"corner ({c1},{c2},{cb}): region {region.corner1[1]:.4f} vs "
                     f"fresh {y_fresh:.4f}, tol {tol:.4f}")
        sig_top = math.sqrt(max(region.cap1, 1e-9) / horizon)
        if abs(x_top - region.cap1) > 3 * sig_top:
            ok = False
            worst = f"top-priority rate off cap at ({c1},{c2},{cb})"
    detail = worst if worst else \
        "containment on 81 points, wide-window coincidence, corners within 3 sigma"
    report(4, "two-source region", ok, detail, t0, 120.0)


def test_criterion_05_mean_delay_relaying():
    t0 = time.perf_counter()
    from anonrelay.point_process import empirical_rate
    from anonrelay.relay_core import avg_delay_relay

    ok = True
    detail = []
    # fast relay branch: unbounded window, zero drops over 1e6 packets
    horizon = 1_000_000.0
    arr = gen_poisson(GenSpec(1.0, horizon, 501), node_id="in")
    dep = gen_poisson(GenSpec(3.0, horizon + 100.0, 502), node_id="out")
    res = avg_delay_relay(arr, dep, 1.0)
    zero_ok = math.isinf(res.delay_bound) and res.n_dropped == 0
    ok = ok and zero_ok
    detail.append(f"fast branch drops={res.n_dropped}")

    # binding branch: mean delay and loss both match the widened window
    horizon = 1_000_000.0
    arr = gen_poisson(GenSpec(1.0, horizon, 503), node_id="in")
    dep = gen_poisson(GenSpec(1.2, horizon, 504), node_id="out")
    res = avg_delay_relay(arr, dep, 0.8)
    sig_delay = batch_stderr(res.delays, 100)
    mean_ok = abs(res.mean_delay - 0.8) <= 3 * sig_delay
    cs_hat, cb_hat = empirical_rate(arr), empirical_rate(dep)
    window = analytic.solve_strict_delay(0.8, cs_hat, cb_hat)
    predicted = analytic.loss_fraction(cs_hat, cb_hat, window)
    sig_drop = batch_stderr(_drop_flags(res), 100)
    drop_ok = abs(res.drop_fraction - predicted) <= 3 * sig_drop
    ok = ok and mean_ok and drop_ok
    detail.append(f"mean={res.mean_delay:.4f} (target 0.8), "
                  f"loss err={abs(res.drop_fraction - predicted):.2e}")
    report(5, "mean-delay relaying", ok, "; ".join(detail), t0, 60.0)


def test_criterion_06_switching_anonymity_exact(switching):
    t0 = time.perf_counter()
    _, prior = switching
    tol = 1e-9
    checks = [
        ("entropy", ao.entropy_bits(prior), math.log2(24)),
        ("all visible", ao.anonymity_level(frozenset(), prior),
         math.log(4) / math.log(24)),
        ("first stage", ao.anonymity_level(frozenset({"M1", "M3"}), prior),
         (math.log(4) / 3 + 2 * math.log(16) / 3) / math.log(24)),
        ("second stage", ao.anonymity_level(frozenset({"M2", "M4"}), prior), 1.0),
    ]
    ok = all(abs(got - want) <= tol for _, got, want in checks)
    worst = max(abs(got - want) for _, got, want in checks)
    report(6, "switching anonymity values", ok,
           f"worst deviation {worst:.2e} (tolerance 1e-9)", t0, 1.0)


def test_criterion_07_throughput_endpoints(switching):
    t0 = time.perf_counter()
    topo, prior = switching
    # all-visible endpoint: every session's packing optimum is exactly 4.0;
    # the expectation only carries the float representation of the 1/24 prior
    rates = [nm.max_sum_rate_visible(s, topo)[0] for s in prior.sessions]
    exact0 = nm.max_sum_rate_visible(prior.sessions[0], topo, exact=True)[0]
    r0 = float(np.dot(prior.probs, rates))
    visible_ok = set(rates) == {4.0} and exact0 == 4.0 and abs(r0 - 4.0) <= 1e-12

    # all-covert endpoint versus the two-stage loss product
    covert = frozenset({"M1", "M2", "M3", "M4"})
    per_session = [
        nm.covert_sum_rate(s, covert, topo, 1.0, sim_packets=400_000, seed=301)
        for s in prior.sessions
    ]
    r_all = float(np.dot(prior.probs, [r.sum_rate for r in per_session]))
    sig_all = max(r.stderr for r in per_session)

    eps1 = analytic.loss_fraction(4.0, 2.0, 1.0)
    shared = prior.sessions[0]
    mixed = next(s for s in prior.sessions if len({p[2] for p in s.paths[:2]}) == 2)
    pred = 0.0
    sig_terms = []
    for session, weight in ((shared, 1.0 / 3.0), (mixed, 2.0 / 3.0)):
        sim = nm.simulate_session(session, covert, topo, 1.0,
                                  horizon=100_000.0, seed=302)
        n_in = n_drop = 0
        ses = []
        for node in ("M2", "M4"):
            for st_ in sim.relay_stats[node].values():
                n_in += st_.n_in
                n_drop += st_.n_dropped
                ses.append(st_.drop_stderr)
        eps2 = n_drop / n_in
        pred += weight * 4.0 * (1 - eps1) * (1 - eps2)
        sig_terms.append(weight * 4.0 * (1 - eps1) * max(ses))
    sig = math.hypot(sig_all, math.hypot(*sig_terms))
    covert_ok = abs(r_all - pred) <= 3 * sig
    ok = visible_ok and covert_ok
    report(7, "throughput endpoints", ok,
           f"R(0)={r0} exact; all-covert {r_all:.4f} vs product {pred:.4f} "
           f"(3 sigma = {3*sig:.4f})", t0, 120.0)


def test_criterion_08_distortion_rate_solver(switching_model):
    t0 = time.perf_counter()
    ok = True
    worst = ""
    rng = np.random.default_rng(4242)
    for k in range(10):
        ns = int(rng.integers(2, 4))
        no = int(rng.integers(2, 5))
        d = rng.uniform(0.0, 1.0, (ns, no))
        p = rng.dirichlet(np.ones(ns) * 2.0)
        for frac in (0.3, 0.7):
            r = float(frac * math.log2(ns))
            got = ao.blahut_arimoto(d, p, r).distortion
            ref = distortion_rate_oracle(d, p, r)
            if abs(got - ref) > 1e-4:
                ok = False
                worst = f"toy {k}: D({r:.3f}) = {got:.6f} vs oracle {ref:.6f}"

    # distortion-rate curve on the switching instance: nonincreasing, convex
    model = switching_model
    h = ao.entropy_bits(nm.switching_topology(2.0)[1])
    grid = np.linspace(0.0, h, 20)
    cache = {}
    vals = [ao.blahut_arimoto(model.d, model.probs, float(r), probe_cache=cache).distortion
            for r in grid]
    for a, b in zip(vals, vals[1:]):
        if b > a + 1e-9:
            ok = False
            worst = "D(r) increased along the grid"
    for left, mid, right in zip(vals, vals[1:], vals[2:]):
        if mid > 0.5 * (left + right) + 1e-9:
            ok = False
            worst = "D(r) failed midpoint convexity"
    detail = worst if worst else \
        "10 toy instances within 1e-4 of brute force; switching curve convex"
    report(8, "distortion-rate solver", ok, detail, t0, 120.0)


def test_criterion_09_randomized_dominates_hull(switching, switching_model):
    t0 = time.perf_counter()
    topo, prior = switching
    model = switching_model
    det = ao.deterministic_points(prior, topo, 1.0, sim_packets=200_000, seed=11)
    pairs = [(p.sum_rate, p.alpha) for p in det]
    grid = sorted(set(np.linspace(0.0, 1.0, 33)) | {ao.anonymity_level(frozenset(), prior)})
    curve = ao.tradeoff_curve(model, grid)
    ok = True
    worst = ""
    for pt in curve.points:
        hull_val = ao.deterministic_hull_value(pairs, pt.alpha)
        if pt.rate < hull_val - 1e-9:
            ok = False
            worst = f"alpha={pt.alpha:.3f}: curve {pt.rate:.6f} < hull {hull_val:.6f}"
    rates = [p.rate for p in curve.points]
    shape_ok = (
        rates[0] == pytest.approx(4.0, abs=1e-9)
        and all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))
        and 0.0 < rates[-1] < 4.0
    )
    ok = ok and shape_ok  # concavity is enforced by the curve constructor
    detail = worst if worst else (
        f"curve stays above the hull at 34 levels; R(0)={rates[0]:.3f}, "
        f"R(1)={rates[-1]:.3f}"
    )
    report(9, "randomized strategy dominates", ok, detail, t0, 120.0)


def test_criterion_10_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    commands = {
        "switching": ["switching", "--sim-packets", "50000"],
        "relay": ["relay", "--cs", "1", "--cb", "2", "--delta", "0.5",
                  "--packets", "100000"],
        "region": ["region", "--cs1", "1", "--cs2", "1", "--cb", "2",
                   "--delta", "1", "--corner-events", "20000"],
        "tradeoff": ["tradeoff", "--alpha-points", "5", "--sim-packets", "30000"],
    }
    ok = True
    worst = ""
    for name, argv in commands.items():
        outs = []
        for run_id in ("a", "b"):
            out = tmp_path / name / run_id
            code = cli_main(argv + ["--out-dir", str(out)])
            if code != 0:
                ok = False
                worst = f"{name} exited {code}"
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        if outs[0] != outs[1]:
            ok = False
            worst = f"{name} outputs differ between identical runs"
    report(10, "byte-identical reruns", ok, worst or "4 commands reproduce exactly",
           t0, 120.0)
