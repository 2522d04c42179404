import json
import math
from pathlib import Path

import pytest

from anonrelay import anonymity_opt as ao
from anonrelay import network_model as nm
from anonrelay.cli import main


def read_all(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


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
    # one covert rate per model cell (24 sessions x 16 covert subsets); the
    # deterministic points are read off the model
    assert len(calls) == 24 * 16
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
    # no packets: the measured loss has no standard error, so the finite
    # prediction cannot be confirmed
    assert main([
        "relay", "--cs", "1", "--cb", "1", "--delta", "1", "--packets", "0",
        "--out-dir", str(tmp_path),
    ]) == 1
    assert "[FAIL] strict-loss-fraction" in capsys.readouterr().out
    doc = json.loads((tmp_path / "relay_report.json").read_text())
    assert doc["pass"] is False


def test_tradeoff_rejects_empty_alpha_grid(tmp_path):
    with pytest.raises(SystemExit, match="alpha-points"):
        main(["tradeoff", "--alpha-points", "0", "--out-dir", str(tmp_path)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha_points": -3}))
    with pytest.raises(SystemExit, match="alpha-points"):
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
