"""Tests of the benchmark itself: every correctness check fails when a wrong
value is planted, the tracer's self times add up, the pace sampler times its
rounds, and the benchmark refuses to run without the anonrelay sources.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


def _failing(rows):
    return [r["check"] for r in rows if r["counted"] and not r["pass"]]


# -- relay_mc -----------------------------------------------------------------

def _relay_inputs():
    def rep(*rows):
        return {"checks": [dict(check=n, predicted=p, measured=m, stderr=s, pass_=True)
                           for n, p, m, s in rows]}

    reports = {
        "strict": rep(("strict-loss-fraction", 0.5, 0.5003, 0.0004)),
        "priority": rep(("priority-top-loss", 1 / 3, 0.3331, 0.0005),
                        ("priority-low-rate", math.nan, 0.6, math.nan),
                        ("equal-priority-loss-src1", 0.2, 0.2002, 0.0004)),
        "avg": rep(("avg-mode-zero-drops", 0.0, 0.0, 0.0)),
    }
    for r in reports.values():
        for c in r["checks"]:
            c["pass"] = c.pop("pass_")
    region = {"inner_in_outer": True, "max_sum_gap": 0.0}
    walk = {"loss_fraction": 0.5001, "loss_stderr": 0.0002}
    return reports, region, walk


def test_relay_checks_pass_on_good_values():
    reports, region, walk = _relay_inputs()
    assert _failing(wl.check_relay_mc(reports, region, walk, 0.5)) == []


@pytest.mark.parametrize("mode,index", [("strict", 0), ("priority", 0), ("priority", 2),
                                        ("avg", 0)])
def test_each_relay_row_fails_when_planted(mode, index):
    reports, region, walk = _relay_inputs()
    planted = reports[mode]["checks"][index]
    planted["measured"] = planted["predicted"] + 0.05
    rows = wl.check_relay_mc(reports, region, walk, 0.5)
    assert _failing(rows) == [f"{mode}:{planted['check']}"]


def test_relay_row_without_prediction_fails_on_nonfinite_measurement():
    reports, region, walk = _relay_inputs()
    reports["priority"]["checks"][1]["measured"] = math.nan
    assert _failing(wl.check_relay_mc(reports, region, walk, 0.5)) == [
        "priority:priority-low-rate"]


def test_walk_check_fails_when_planted():
    reports, region, walk = _relay_inputs()
    assert _failing(wl.check_relay_mc(reports, region, walk, 0.49)) == ["walk-oracle-loss"]


def test_region_gate_is_recorded_not_counted():
    reports, region, walk = _relay_inputs()
    region["inner_in_outer"] = False
    rows = wl.check_relay_mc(reports, region, walk, 0.5)
    assert _failing(rows) == []
    gate = [r for r in rows if r["check"] == "region-inner-in-outer"]
    assert gate and not gate[0]["pass"] and not gate[0]["counted"]


# -- frontier_4x4 ---------------------------------------------------------------

GOOD_FRONTIER = {"randomized_dominates_hull": True, "rate_at_alpha0": 4.0,
                 "rate_at_alpha1": 8.0 / 3.0 + 2e-7}


def test_frontier_checks_pass_on_good_values():
    assert _failing(wl.check_frontier_4x4(GOOD_FRONTIER)) == []


@pytest.mark.parametrize("key,value,name", [
    ("randomized_dominates_hull", False, "randomized-dominates-hull"),
    ("rate_at_alpha0", 4.0 + 1e-6, "rate-at-alpha0"),
    ("rate_at_alpha1", 8.0 / 3.0 + 1e-5, "rate-at-alpha1"),
    ("rate_at_alpha1", math.nan, "rate-at-alpha1"),
])
def test_each_frontier_check_fails_when_planted(key, value, name):
    assert _failing(wl.check_frontier_4x4(dict(GOOD_FRONTIER, **{key: value}))) == [name]


# -- covert_table_6x6 -------------------------------------------------------------

RELAYS = ("A1", "A2", "B1", "B2")


def _covert_inputs():
    """A two-session stand-in for the distortion model, with one column per
    (session, covert subset) and points that agree with it exactly."""
    subsets = [frozenset(c) for k in range(5) for c in itertools.combinations(RELAYS, k)]
    sessions = [SimpleNamespace(interior_nodes=frozenset(RELAYS)) for _ in range(2)]
    probs = [0.5, 0.5]
    covert_for, d = {}, {}
    for si in range(2):
        for j, b in enumerate(subsets):
            oi = si * len(subsets) + j
            covert_for[(si, oi)] = b
            d[(si, oi)] = 0.0 if not b else 0.1 * len(b) + 0.01 * si
    width = 2 * len(subsets)
    matrix = [[d.get((si, oi), math.inf) for oi in range(width)] for si in range(2)]
    model = SimpleNamespace(sessions=sessions, probs=probs, covert_for=covert_for,
                            d=_Matrix(matrix))
    rate_zero = 4.0
    col = {(si, b): oi for (si, oi), b in covert_for.items()}
    det = []
    for b in subsets:
        rate = rate_zero - sum(probs[si] * d[(si, col[(si, b)])] for si in range(2))
        alpha = 0.5
        if not b:
            alpha = math.log(36) / math.log(720)
        elif b == {"B1", "B2"}:
            alpha, rate = 1.0, 8.0 / 3.0
            for si in range(2):  # make the model agree with the closed form
                d[(si, col[(si, b)])] = rate_zero - rate
                matrix[si][col[(si, b)]] = rate_zero - rate
        det.append(SimpleNamespace(covert=b, alpha=alpha, sum_rate=rate))
    return model, det, rate_zero


class _Matrix:
    def __init__(self, rows):
        self.rows = rows

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]


def _plant(det, covert, **changes):
    return [SimpleNamespace(**dict(vars(p), **changes)) if p.covert == covert else p
            for p in det]


def test_covert_checks_pass_on_good_values():
    model, det, rate_zero = _covert_inputs()
    assert _failing(wl.check_covert_table(model, det, rate_zero)) == []


@pytest.mark.parametrize("covert,changes,names", [
    (frozenset(), {"alpha": 0.5}, ["alpha-all-visible"]),
    (frozenset({"B1", "B2"}), {"alpha": 0.999}, ["alpha-second-stage"]),
    (frozenset(), {"sum_rate": 4.0 + 1e-8},
     ["rate-all-visible", "points-match-distortion-model"]),
    (frozenset({"B1", "B2"}), {"sum_rate": 8.0 / 3.0 - 1e-8},
     ["rate-second-stage", "points-match-distortion-model"]),
    (frozenset({"A1", "B2"}), {"sum_rate": 3.5}, ["points-match-distortion-model"]),
    (frozenset({"A2"}), {"sum_rate": math.nan}, ["points-match-distortion-model"]),
])
def test_each_covert_check_fails_when_planted(covert, changes, names):
    model, det, rate_zero = _covert_inputs()
    rows = wl.check_covert_table(model, _plant(det, covert, **changes), rate_zero)
    assert _failing(rows) == names


def test_points_csv_reads_back_exactly():
    _, det, _ = _covert_inputs()
    back = wl.read_points(wl.points_csv(det))
    assert [tuple(p) for p in back] == [(p.covert, p.alpha, p.sum_rate) for p in det]


def test_covert_check_reads_the_written_points(tmp_path):
    model, det, rate_zero = _covert_inputs()
    model.rate_zero = rate_zero
    (tmp_path / "deterministic_points.csv").write_text(
        wl.points_csv(_plant(det, frozenset({"A1"}), sum_rate=3.25)))
    rows = wl.covert_table_6x6_check({"model": model, "out_dir": tmp_path})
    assert _failing(rows) == ["points-match-distortion-model"]


def test_six_by_six_config_shape():
    text = wl.six_by_six_config()
    assert text.count("\nsession ") == 720
    assert text.count("\npath ") == 720 * 6
    assert "edge A1 B2" in text and "path S1 A1 B1 D1" in text


# -- exact counters ----------------------------------------------------------------

def test_counters_repeat_check():
    same = [{"layers": {"lp.solves": 7, "lp.solve_s": 0.1}},
            {"layers": {"lp.solves": 7, "lp.solve_s": 0.2}}]
    assert run.counters_repeat(same, ["lp.solves"])["pass"]
    moved = [same[0], {"layers": {"lp.solves": 8, "lp.solve_s": 0.1}}]
    assert not run.counters_repeat(moved, ["lp.solves"])["pass"]
    assert not run.counters_repeat(same[:1], ["lp.solves"])["pass"]


# -- tracing ------------------------------------------------------------------------

def test_self_time_excludes_children():
    t = Tracer("t")
    inner = t.wrap("b.inner", lambda: sum(range(20000)))

    def outer_fn():
        inner()
        inner()
        return sum(range(20000))

    outer = t.wrap("a.outer", outer_fn)
    outer()
    st = t.self_times()
    total = sum(end - start for _, parent, start, end in t.spans if parent < 0) * 1e-9
    assert len(t.spans) == 3 and [s[1] for s in t.spans] == [-1, 0, 0]
    assert st["a.outer"] > 0 and st["b.inner"] > 0
    assert math.isclose(st["a.outer"] + st["b.inner"], total, rel_tol=1e-9)


def test_install_routes_cross_module_calls_through_wrappers():
    code = """
import sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer, install, layer_metrics
from anonrelay import network_model as nm
t = Tracer('x')
install(t)
topo, prior = nm.switching_topology(2.0)
session = prior.sessions[0]
nm.covert_sum_rate(session, {'M1', 'M2'}, topo, 1.0, sim_packets=2000, seed=3)
names = {t.names[s[0]] for s in t.spans}
m = layer_metrics(t, 1.0)
print(sorted(names))
assert {'lp.solve_packing_lp', 'analytic.loss_fraction', 'point_process.poisson_epochs',
        'relay_core._joint_match', 'network_model._run_session_sim'} <= names, names
assert m['lp.solves'] == 1 and m['network_model.cascade_sims'] == 1, m
assert m['relay_core.departures'] > 0 and m['relay_core.matched'] > 0, m
"""
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- refusal without sources ------------------------------------------------------

def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "relay_mc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    with pytest.raises(json.JSONDecodeError):
        json.loads(last[0])



def test_pace_sampler_times_rounds_during_the_pass():
    import time
    from pace import INTERVAL_S, Sampler

    with Sampler() as pace:
        t0 = time.monotonic()
        while time.monotonic() - t0 < 5 * INTERVAL_S:
            pass
    assert len(pace.rounds) >= 3
    assert sum(pace.rounds) < time.monotonic() - t0
    assert 0 < pace.round_s() < INTERVAL_S
