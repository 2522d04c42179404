import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import anonrelay
from anonrelay import anonymity_opt as ao
from anonrelay import analytic, point_process, relay_core
from anonrelay import network_model as nm
from anonrelay._util import BatchMeans
from anonrelay.cli import main


def read_all(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def counting(calls: dict, name: str, fn):
    """`fn`, counting its calls in `calls[name]`."""
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def test_gen_topology_round_trips(tmp_path):
    out = tmp_path / "net.cfg"
    assert main(["gen-topology", "--capacity", "1.5", "--out", str(out)]) == 0
    topo, prior = nm.parse_network_config(out.read_text())
    assert len(prior.entries) == 24
    assert topo.capacity("M1") == 1.5


def test_relay_strict_passes(tmp_path):
    code = main([
        "relay", "--cs", "1", "--cb", "1", "--delta", "1",
        "--packets", "150000", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "relay_report.json").read_text())
    row = doc["checks"][0]
    assert row["pass"]
    assert abs(row["measured"] - 0.5) < 0.02
    assert (tmp_path / "relay_runs.csv").exists()


def test_relay_avg_zero_drop_branch(tmp_path):
    code = main([
        "relay", "--mode", "avg", "--cs", "1", "--cb", "3", "--dbar", "1",
        "--packets", "50000", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "relay_report.json").read_text())
    assert doc["checks"][0]["check"] == "avg-mode-zero-drops"
    assert doc["checks"][0]["measured"] == 0.0


def test_region_report(tmp_path):
    code = main([
        "region", "--cs1", "1", "--cs2", "1", "--cb", "2", "--delta", "1",
        "--corner-events", "20000", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "region_report.json").read_text())
    assert doc["inner_in_outer"]
    assert abs(doc["max_sum_gap"]) < 1e-9


def test_switching_reports_exact_alphas(tmp_path):
    code = main(["switching", "--sim-packets", "40000", "--out-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "switching_report.json").read_text())
    by_name = {c["check"]: c for c in doc["checks"]}
    assert by_name["alpha-all-visible"]["value"] == pytest.approx(
        math.log(4) / math.log(24), abs=1e-12
    )
    assert by_name["rate-all-visible"]["value"] == pytest.approx(4.0, abs=1e-9)
    assert doc["table"][2]["alpha"] == pytest.approx(1.0, abs=1e-9)


def test_switching_reads_one_cell_per_session_and_subset(tmp_path, monkeypatch):
    # four covert sets, one cell per session each: 96 cells in 8 groups of
    # the model (session form, covert labels), one covert rate per group, in
    # the 8 classes and 2 cascades that summing them session by session
    # evaluates
    calls = {"rates": 0, "classes": 0, "cascades": 0}
    monkeypatch.setattr(ao, "covert_sum_rate", counting(calls, "rates", ao.covert_sum_rate))
    monkeypatch.setattr(nm, "_class_rates", counting(calls, "classes", nm._class_rates))
    monkeypatch.setattr(nm, "_run_session_sim", counting(calls, "cascades", nm._run_session_sim))
    assert main(["switching", "--sim-packets", "20000", "--out-dir", str(tmp_path)]) == 0
    assert calls == {"rates": 8, "classes": 8, "cascades": 2}


@pytest.mark.parametrize("packets", ["2000", "30000"])
def test_tradeoff_cascades_share_draws_and_matches(tmp_path, monkeypatch, packets):
    # the README model simulates 9 cascades in 2 families (horizons).
    # Unshared they run 26 joint matches and make 57 Poisson draws; sharing
    # within each family leaves 17 distinct matches, each drawing its
    # departures, and 7 distinct source draws. The counts follow from the
    # network's structure, whatever the packet count.
    calls = {"cascades": 0, "matches": 0, "draws": 0}
    monkeypatch.setattr(nm, "_run_session_sim", counting(calls, "cascades", nm._run_session_sim))
    monkeypatch.setattr(relay_core, "_joint_match",
                        counting(calls, "matches", relay_core._joint_match))
    monkeypatch.setattr(nm, "poisson_epochs", counting(calls, "draws", nm.poisson_epochs))
    assert main(["tradeoff", "--capacity", "2", "--delta", "1", "--alpha-points", "5",
                 "--sim-packets", packets, "--out-dir", str(tmp_path)]) == 0
    assert calls == {"cascades": 9, "matches": 17, "draws": 24}


def test_tradeoff_files_and_dominance(tmp_path, monkeypatch):
    calls = []
    covert_sum_rate = ao.covert_sum_rate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return covert_sum_rate(*args, **kwargs)

    monkeypatch.setattr(ao, "covert_sum_rate", counting)
    code = main([
        "tradeoff", "--alpha-points", "5", "--sim-packets", "40000",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    # one covert rate per group of model cells (2 session forms x 16 covert
    # label sets), not per cell (24 sessions x 16 covert subsets); the
    # deterministic points are read off the model
    assert len(calls) == 2 * 16
    doc = json.loads((tmp_path / "tradeoff_report.json").read_text())
    assert doc["randomized_dominates_hull"]
    assert doc["rate_at_alpha0"] == pytest.approx(4.0, abs=1e-9)
    assert 0.0 < doc["rate_at_alpha1"] < 4.0
    for name in ("tradeoff_curve.csv", "tradeoff_policies.txt",
                 "deterministic_points.csv", "deterministic_hull.csv"):
        assert (tmp_path / name).exists()


def test_tradeoff_report_certifies_the_curve(tmp_path):
    assert main(["tradeoff", "--alpha-points", "9", "--sim-packets", "40000",
                "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "tradeoff_report.json").read_text())
    assert doc["ba_probes"] == 1
    assert doc["ba_unconverged"] == 0
    assert 0.0 <= doc["max_duality_gap"] <= 1e-6


def test_repeat_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["switching", "--sim-packets", "30000", "--out-dir", str(out)]) == 0
    assert read_all(a) == read_all(b)
    c, d = tmp_path / "c", tmp_path / "d"
    for out in (c, d):
        assert main([
            "relay", "--cs", "1", "--cb", "2", "--delta", "0.5",
            "--packets", "40000", "--out-dir", str(out),
        ]) == 0
    assert read_all(c) == read_all(d)


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"packets": 60000, "cb": 2.0}))
    out = tmp_path / "out"
    code = main([
        "relay", "--cs", "1", "--cb", "1", "--delta", "1",
        "--packets", "10", "--config", str(cfg), "--out-dir", str(out),
    ])
    assert code == 0
    doc = json.loads((out / "relay_report.json").read_text())
    assert doc["params"]["packets"] == 60000
    assert doc["params"]["cb"] == 2.0


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    with pytest.raises(SystemExit):
        main(["relay", "--config", str(cfg), "--out-dir", str(tmp_path)])


def test_relay_check_without_error_bar_fails(tmp_path, capsys):
    # one packet's horizon: too few arrivals to batch, so the measured loss
    # has no standard error and the finite prediction cannot be confirmed
    assert main([
        "relay", "--cs", "1", "--cb", "1", "--delta", "1", "--packets", "1",
        "--out-dir", str(tmp_path),
    ]) == 1
    assert "[FAIL] strict-loss-fraction" in capsys.readouterr().out
    doc = json.loads((tmp_path / "relay_report.json").read_text())
    assert doc["pass"] is False


def test_relay_check_on_an_empty_stream_fails(tmp_path, capsys):
    # at seed 0 the one-packet horizon draws no arrivals: the loss of 0 that
    # an infinite window predicts matches the empty measurement, but nothing
    # was measured, so the row has no error bar and cannot pass
    assert main([
        "relay", "--cs", "1", "--cb", "2", "--delta", "inf", "--packets", "1",
        "--seed", "0", "--out-dir", str(tmp_path),
    ]) == 1
    assert "[FAIL] strict-loss-fraction" in capsys.readouterr().out
    row, = json.loads((tmp_path / "relay_report.json").read_text())["checks"]
    assert (row["predicted"], row["measured"]) == (0.0, 0.0)
    assert math.isnan(row["stderr"])


def test_avg_relay_on_an_empty_draw_exits_with_a_message(tmp_path):
    # at seed 0 the one-packet horizon draws no arrivals, so avg mode has no
    # input rate to solve its window from
    with pytest.raises(SystemExit, match="^--packets 1 at --seed 0: .*raise --packets"):
        main(["relay", "--mode", "avg", "--packets", "1", "--seed", "0",
              "--out-dir", str(tmp_path)])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv,flags", [
    (["relay", "--cs", "1e-308"], "--packets / --cs"),
    (["relay", "--mode", "priority", "--cs", "1e-308", "--cs2", "1e-308"],
     "--packets / (--cs + --cs2)"),
    (["relay", "--mode", "priority", "--cs", "1e308", "--cs2", "1e308"],
     "--packets / (--cs + --cs2)"),
    (["relay", "--mode", "avg", "--cb", "1e-308"], "--packets / --cs + 100 max(--dbar, 1 / --cb)"),
    (["region", "--cs1", "1e-308", "--cs2", "1e-308"], "--corner-events / (--cs1 + --cs2)"),
    (["region", "--cs1", "1e308", "--cs2", "1e308"], "--corner-events / (--cs1 + --cs2)"),
], ids=["strict", "priority", "priority-sum", "avg", "region", "region-sum"])
def test_overflowing_horizon_exits_with_a_message(argv, flags, tmp_path):
    # every rate is finite and positive, but the horizon it sets overflows
    # to inf, or to 0 when the sum of two rates overflows
    with pytest.raises(SystemExit, match="^" + re.escape(flags) + " gives a horizon of "):
        main(argv + ["--out-dir", str(tmp_path)])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv,flags", [
    (["relay", "--cs", "1e-300", "--packets", "1"], "--packets / --cs"),
    (["relay", "--mode", "priority", "--cs", "1e-300", "--cs2", "1e-300"],
     "--packets / (--cs + --cs2)"),
    (["relay", "--mode", "avg", "--cs", "1e-300"], "--packets / --cs + 100 max(--dbar, 1 / --cb)"),
    (["region", "--cs1", "1e-300", "--cs2", "1e-300"], "--corner-events / (--cs1 + --cs2)"),
], ids=["strict", "priority", "avg", "region"])
def test_endless_draw_exits_with_a_message(argv, flags, tmp_path):
    # a tiny rate sets a finite horizon over which the relay's departures
    # would expect about 1e300 epochs: the run exits before drawing any,
    # naming the flags, with no traceback and no report
    env = {**os.environ, "PYTHONPATH": str(Path(anonrelay.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "anonrelay.cli", *argv, "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert re.match(re.escape(flags) + r" gives a horizon of \S+, over which --cb \S+ expects "
                    r"\S+ epochs; a draw may expect at most 1e\+10$", proc.stderr.strip())
    assert not any(tmp_path.iterdir())


def test_tradeoff_rejects_empty_alpha_grid(tmp_path):
    # the report reads both ends of the grid, so one point is too few
    for value in ("0", "1"):
        with pytest.raises(SystemExit, match="--alpha-points must be an integer of at least 2"):
            main(["tradeoff", "--alpha-points", value, "--out-dir", str(tmp_path)])
    cfg = tmp_path / "cfg.json"
    for value in (-3, 1, 2.5, True, "100"):
        cfg.write_text(json.dumps({"alpha_points": value}))
        with pytest.raises(SystemExit, match="--alpha-points must be an integer of at least 2"):
            main(["tradeoff", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert not (tmp_path / "tradeoff_report.json").exists()


def test_tradeoff_report_counts_class_work(tmp_path):
    # 384 cells of the switching model fall into 20 relabelling classes; the
    # counters are deterministic, so reruns stay byte-identical
    runs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["tradeoff", "--alpha-points", "3", "--sim-packets", "5000",
                     "--out-dir", str(out)]) == 0
        runs.append(read_all(out))
    assert runs[0] == runs[1]
    doc = json.loads(runs[0]["tradeoff_report.json"])
    counters = doc["counters"]
    assert counters["class_evaluations"] == 20
    assert counters["simulated_entries"] == 200
    assert 1 <= counters["cascade_simulations"] <= 11


def test_tradeoff_with_zero_delay_runs(tmp_path):
    # every covert relay drops everything: second-stage relays receive no
    # traffic and must lose nothing rather than fail
    assert main(["tradeoff", "--delta", "0", "--alpha-points", "3", "--sim-packets", "5000",
                 "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "tradeoff_report.json").read_text())
    assert doc["rate_at_alpha1"] == 0.0
    for name, column in (("tradeoff_curve.csv", "rate"), ("deterministic_points.csv", "sum_rate"),
                         ("deterministic_hull.csv", "sum_rate")):
        lines = (tmp_path / name).read_text().splitlines()
        col = lines[0].split(",").index(column)
        assert all(float(ln.split(",")[col]) >= 0.0 for ln in lines[1:]), name


@pytest.mark.parametrize("value", [0, -3, 2.5])
def test_bad_corner_events_exit_with_a_message(value, tmp_path):
    if isinstance(value, int):
        with pytest.raises(SystemExit, match="--corner-events must be an integer"):
            main(["region", "--corner-events", str(value), "--out-dir", str(tmp_path)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corner-events": value}))
    with pytest.raises(SystemExit, match="--corner-events must be an integer"):
        main(["region", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert not any(tmp_path.glob("region*"))


@pytest.mark.parametrize("command", ["switching", "tradeoff"])
def test_bad_sim_packets_exit_with_a_message(tmp_path, command):
    with pytest.raises(SystemExit, match="sim-packets"):
        main([command, "--sim-packets", "0", "--out-dir", str(tmp_path)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sim_packets": 2.5}))
    with pytest.raises(SystemExit, match="sim-packets"):
        main([command, "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert not any(p.suffix == ".csv" for p in tmp_path.iterdir())


def test_match_dump_round_trips_through_cli(tmp_path, capsys):
    dump = tmp_path / "match.txt"
    assert main([
        "relay", "--cs", "1", "--cb", "1", "--delta", "1", "--packets", "5000",
        "--dump-match", str(dump), "--out-dir", str(tmp_path),
    ]) == 0
    capsys.readouterr()
    assert main(["relay", "--stats-from", str(dump), "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "drop_fraction=" in out and "matched=" in out


def _network_text(nodes, edges, paths) -> str:
    return ("".join(f"node {n} cap 2\n" for n in nodes)
            + "".join(f"edge {u} {v}\n" for u, v in edges)
            + "session 1\n" + "".join(f"path {' '.join(p)}\n" for p in paths) + "end\n")


_CHAIN = ["src"] + [f"r{k:02d}" for k in range(21)] + ["dst"]


@pytest.mark.parametrize("command,flag,text", [
    ("tradeoff", "--topology", "node a cap 1\nnode b cap x\n"),
    ("tradeoff", "--topology", None),
    # X precedes Y on one path and follows it on the other
    ("tradeoff", "--topology", _network_text(
        ["A", "B", "X", "Y", "D1", "D2"],
        [("A", "X"), ("X", "Y"), ("Y", "D1"), ("B", "Y"), ("Y", "X"), ("X", "D2")],
        [("A", "X", "Y", "D1"), ("B", "Y", "X", "D2")])),
    # one session with 21 interior relays, one more than the enumeration cap
    ("tradeoff", "--topology", _network_text(_CHAIN, zip(_CHAIN, _CHAIN[1:]), [_CHAIN])),
    ("relay", "--config", "{\"packets\": 5"),
    ("relay", "--config", "[5]"),
    ("relay", "--config", None),
    ("relay", "--stats-from", "match window 1.0\n[pairs]\n"),
    ("relay", "--stats-from", None),
], ids=["topology-malformed", "topology-missing", "topology-cyclic",
        "topology-over-the-enumeration-cap", "config-malformed", "config-not-an-object",
        "config-missing", "stats-from-bad-header", "stats-from-missing"])
def test_bad_file_flags_exit_with_a_message(command, flag, text, tmp_path):
    # None: the file is missing
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit, match=f"^{flag} "):
        main([command, flag, str(path), "--out-dir", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["avg", "priority"])
def test_dump_match_is_rejected_outside_strict_mode(mode, tmp_path):
    # only a strict-mode run has one match to dump
    dump = tmp_path / "match.txt"
    with pytest.raises(SystemExit, match="--dump-match"):
        main(["relay", "--mode", mode, "--packets", "2000", "--dump-match", str(dump),
              "--out-dir", str(tmp_path / "out")])
    assert not dump.exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("packets", "0", "--packets must be an integer of at least 1"),
    ("packets", "-5", "--packets must be an integer of at least 1"),
    ("cs", "0", "--cs must be finite and positive"),
    ("cs", "inf", "--cs must be finite and positive"),
    ("cs2", "-1", "--cs2 must be finite and positive"),
    ("cb", "nan", "--cb must be finite and positive"),
    ("delta", "nan", "--delta must be nonnegative"),
    ("delta", "-0.5", "--delta must be nonnegative"),
    ("dbar", "0", "--dbar must be finite and positive"),
    ("dbar", "inf", "--dbar must be finite and positive"),
])
def test_bad_relay_values_exit_with_a_message(flag, value, message, tmp_path):
    with pytest.raises(SystemExit, match=message):
        main(["relay", f"--{flag}", value, "--out-dir", str(tmp_path)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: float(value)}))
    with pytest.raises(SystemExit, match=message):
        main(["relay", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert not any(tmp_path.glob("relay_*"))


@pytest.mark.parametrize("command,flag,value", [
    (command, "capacity", value) for command in ("switching", "tradeoff", "gen-topology")
    for value in ("0", "-2", "inf", "nan")
] + [
    (command, "delta", value) for command in ("switching", "tradeoff", "region")
    for value in ("-1", "nan")
] + [("region", "cs1", "0"), ("region", "cb", "inf")])
def test_bad_network_values_exit_with_a_message(command, flag, value, tmp_path):
    rule = "nonnegative" if flag == "delta" else "finite and positive"
    message = f"--{flag} must be {rule}"
    if command == "gen-topology":  # it takes neither --out-dir nor --config
        with pytest.raises(SystemExit, match=message):
            main([command, f"--{flag}", value, "--out", str(tmp_path / "net.cfg")])
        assert not any(tmp_path.iterdir())
        return
    with pytest.raises(SystemExit, match=message):
        main([command, f"--{flag}", value, "--out-dir", str(tmp_path)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: float(value)}))
    with pytest.raises(SystemExit, match=message):
        main([command, "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("value", [2.5, 1000.0, True, "100"])
def test_relay_packets_from_config_must_be_an_integer(value, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"packets": value}))
    with pytest.raises(SystemExit, match="--packets"):
        main(["relay", "--config", str(cfg), "--out-dir", str(tmp_path)])


@pytest.mark.parametrize("source,value", [
    ("flag", "-1"), ("config", -1), ("config", 1.5), ("config", True), ("config", "x"),
])
def test_bad_seed_exits_with_a_message(source, value, tmp_path):
    argv = ["relay", "--out-dir", str(tmp_path)]
    if source == "flag":
        argv += ["--seed", value]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": value}))
        argv += ["--config", str(cfg)]
    with pytest.raises(SystemExit, match="--seed must be an integer of at least 0"):
        main(argv)
    assert not any(tmp_path.glob("relay_*"))


def test_relay_accepts_an_unbounded_window(tmp_path):
    main(["relay", "--delta", "inf", "--cb", "2", "--packets", "2000",
          "--out-dir", str(tmp_path)])
    assert json.loads((tmp_path / "relay_report.json").read_text())["params"]["delta"] == math.inf


def test_streamed_avg_relay_equals_the_whole_schedule_relay(tmp_path, monkeypatch):
    # a finite window, so the report reads matched delays and drop flags;
    # small chunks, so the streamed run crosses many chunk edges
    monkeypatch.setattr(point_process, "_CHUNK", 1000)
    monkeypatch.setattr(relay_core, "_CHUNK", 1000)
    n, cs, cb, dbar, seed = 20000, 1.0, 1.2, 1.0, 5
    assert main(["relay", "--mode", "avg", "--cs", str(cs), "--cb", str(cb), "--dbar", str(dbar),
                 "--packets", str(n), "--seed", str(seed), "--out-dir", str(tmp_path)]) == 0
    checks = {r["check"]: r for r in
              json.loads((tmp_path / "relay_report.json").read_text())["checks"]}
    horizon = n / cs
    arrivals = point_process.gen_poisson(point_process.GenSpec(cs, horizon, seed), node_id="in")
    departures = point_process.gen_poisson(
        point_process.GenSpec(cb, horizon + 100.0 * max(dbar, 1.0 / cb), seed), node_id="out")
    res = relay_core.avg_delay_relay(arrivals, departures, dbar)
    assert math.isfinite(res.delay_bound)
    loss = analytic.loss_fraction(point_process.empirical_rate(arrivals),
                                  point_process.empirical_rate(departures), res.delay_bound)
    # the run batches the arrivals it expects and the matched packets it predicts
    delays = BatchMeans(round(n * (1.0 - loss)), 100).add(res.delays)
    assert checks["avg-mode-mean-delay"]["measured"] == delays.mean
    assert checks["avg-mode-mean-delay"]["stderr"] == delays.stderr
    assert checks["avg-mode-loss-fraction"]["measured"] == res.drop_fraction
    assert checks["avg-mode-loss-fraction"]["stderr"] == \
        BatchMeans(n, 100).add(res.dropped).stderr
    assert checks["avg-mode-loss-fraction"]["predicted"] == loss


RELAY_MODES = {
    "strict": ["--cs", "1", "--cb", "1", "--delta", "1"],
    "priority": ["--mode", "priority", "--cs", "1", "--cs2", "1", "--cb", "2", "--delta", "1"],
    "avg": ["--mode", "avg", "--cs", "1", "--cb", "3", "--dbar", "1"],
    "avg_window": ["--mode", "avg", "--cs", "1", "--cb", "1", "--dbar", "1"],
}


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Whole schedules would add about 30 MB or more between these sizes, and
# keeping every matched delay of a finite window about 5 MB; a streamed run
# holds a few chunks and O(batches) numbers per error bar.
@pytest.mark.parametrize("mode", list(RELAY_MODES))
def test_relay_memory_does_not_grow_with_the_horizon(mode, tmp_path, capsys):
    peaks = [_traced_peak(["relay", *RELAY_MODES[mode], "--packets", str(n),
                           "--out-dir", str(tmp_path / str(n))])
             for n in (250_000, 2_000_000)]
    assert peaks[1] - peaks[0] <= 4_000_000, peaks


# Whole schedules would add about 70 MB between these sizes; the streamed
# corners hold a few chunks. Both sizes fill the 2^16-epoch chunks: below
# about 500k events the chunks are partly empty and the peak still rises,
# by 4 MB from 100k to 1M, to the flat 8.5 MB it keeps from 500k to 2M.
def test_region_memory_does_not_grow_with_the_corner_events(tmp_path):
    peaks = [_traced_peak(["region", "--corner-events", str(n),
                           "--out-dir", str(tmp_path / str(n))])
             for n in (250_000, 2_000_000)]
    assert peaks[1] - peaks[0] <= 4_000_000, peaks


def test_tradeoff_fails_when_the_gap_misses_its_tolerance(tmp_path, monkeypatch):
    # five iterations per fixed-slope solve leave the curve dominating the
    # hull but its certified gap far above blahut_arimoto's tolerance
    import functools

    monkeypatch.setattr(ao, "blahut_arimoto", functools.partial(ao.blahut_arimoto, max_iter=5))
    code = main(["tradeoff", "--alpha-points", "5", "--sim-packets", "20000",
                 "--out-dir", str(tmp_path)])
    doc = json.loads((tmp_path / "tradeoff_report.json").read_text())
    assert doc["randomized_dominates_hull"]
    assert doc["ba_unconverged"] == 1
    assert doc["max_duality_gap"] > ao.BA_TOL == 1e-6
    assert doc["pass"] is False
    assert code == 1
