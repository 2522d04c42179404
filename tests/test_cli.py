import json
import math
from pathlib import Path

import pytest

from anonrelay import anonymity_opt as ao
from anonrelay import network_model as nm
from anonrelay.cli import main


def run(args):
    nm.clear_sim_cache()
    return main(args)


def read_all(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_gen_topology_round_trips(tmp_path):
    out = tmp_path / "net.cfg"
    assert run(["gen-topology", "--capacity", "1.5", "--out", str(out)]) == 0
    topo, prior = nm.parse_network_config(out.read_text())
    assert len(prior.entries) == 24
    assert topo.capacity("M1") == 1.5


def test_relay_strict_passes(tmp_path):
    code = run([
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
    code = run([
        "relay", "--mode", "avg", "--cs", "1", "--cb", "3", "--dbar", "1",
        "--packets", "50000", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "relay_report.json").read_text())
    assert doc["checks"][0]["check"] == "avg-mode-zero-drops"
    assert doc["checks"][0]["measured"] == 0.0


def test_region_report(tmp_path):
    code = run([
        "region", "--cs1", "1", "--cs2", "1", "--cb", "2", "--delta", "1",
        "--corner-events", "20000", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    doc = json.loads((tmp_path / "region_report.json").read_text())
    assert doc["inner_in_outer"]
    assert abs(doc["max_sum_gap"]) < 1e-9


def test_switching_reports_exact_alphas(tmp_path):
    code = run(["switching", "--sim-packets", "40000", "--out-dir", str(tmp_path)])
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
    code = run([
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
    assert run(["tradeoff", "--alpha-points", "9", "--sim-packets", "40000",
                "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "tradeoff_report.json").read_text())
    assert doc["ba_probes"] == 1
    assert doc["ba_unconverged"] == 0
    assert 0.0 <= doc["max_duality_gap"] <= 1e-6


def test_repeat_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["switching", "--sim-packets", "30000", "--out-dir", str(out)]) == 0
    assert read_all(a) == read_all(b)
    c, d = tmp_path / "c", tmp_path / "d"
    for out in (c, d):
        assert run([
            "relay", "--cs", "1", "--cb", "2", "--delta", "0.5",
            "--packets", "40000", "--out-dir", str(out),
        ]) == 0
    assert read_all(c) == read_all(d)


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"packets": 60000, "cb": 2.0}))
    out = tmp_path / "out"
    code = run([
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
        run(["relay", "--config", str(cfg), "--out-dir", str(tmp_path)])


def test_match_dump_round_trips_through_cli(tmp_path, capsys):
    dump = tmp_path / "match.txt"
    assert run([
        "relay", "--cs", "1", "--cb", "1", "--delta", "1", "--packets", "5000",
        "--dump-match", str(dump), "--out-dir", str(tmp_path),
    ]) == 0
    capsys.readouterr()
    assert run(["relay", "--stats-from", str(dump), "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "drop_fraction=" in out and "matched=" in out
