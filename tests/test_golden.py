"""Golden hashes: every README command, at reduced size, must write the same
bytes it wrote when this table was made.

Commands run from inside `tmp_path` with relative paths, because reports
embed their parameters (the topology path among them). A change that moves
a hash explains why in CHANGES.md and updates the table.
"""
import hashlib
from pathlib import Path

import pytest

from anonrelay import point_process, relay_core
from anonrelay.cli import main

COMMANDS = {
    "relay_strict": ["relay", "--cs", "1", "--cb", "1", "--delta", "1", "--packets", "20000",
                     "--dump-match", "relay_strict/match.txt"],
    "relay_avg": ["relay", "--mode", "avg", "--cs", "1", "--cb", "3", "--dbar", "1",
                  "--packets", "20000"],
    "relay_avg_window": ["relay", "--mode", "avg", "--packets", "20000"],
    "relay_priority": ["relay", "--mode", "priority", "--cs", "1", "--cs2", "1", "--cb", "2",
                       "--delta", "1", "--packets", "20000"],
    "region": ["region", "--cs1", "1", "--cs2", "1", "--cb", "2", "--delta", "1",
               "--corner-events", "20000"],
    "switching": ["switching", "--capacity", "2", "--delta", "1", "--sim-packets", "20000"],
    "tradeoff": ["tradeoff", "--capacity", "2", "--delta", "1", "--alpha-points", "17",
                 "--sim-packets", "20000"],
    "gen_topology": ["gen-topology", "--capacity", "2", "--out", "gen_topology/switching.cfg"],
    "tradeoff_topology": ["tradeoff", "--topology", "gen_topology/switching.cfg",
                          "--sim-packets", "20000"],
}

# (exit code, {file name: sha256}) per command, most of them made before the
# index-based match results replaced the epoch-array ones
GOLDEN = {
    "relay_strict": (0, {
        "match.txt":
            "6c5d7ac4df3c36a9c5b33f3abd6dda6c34348951d3d43c4b20d8e0758fd4879e",
        "relay_report.json":
            "f015a199de560d07661ecfa32b1cbdd4e5e71b67a32d18c4f6311196f1d5853e",
        "relay_runs.csv":
            "b40492b9fa4490fe011eef5e36073af1af89b248f019243fadfb7652b4e83529",
    }),
    "relay_avg": (0, {
        "relay_report.json":
            "2469e55e04f0f87703794b2ffce21fdcf6ff5eda3b503e32a6da967df667dec3",
        "relay_runs.csv":
            "c13a8ac9608ac24a12a0413d71f71e97ed4bc6e4b34e6990ef4cf07902597c31",
    }),
    "relay_avg_window": (0, {
        "relay_report.json":
            "a37ae71dc48f8483e3c0c5d5bee9b8d7ab0828c9d744aacfa2946a89309c7d76",
        "relay_runs.csv":
            "dcc7e45dd66278f1ac5305aa3443c79660e59f42be0bad1ff19a9c07a12dc8f4",
    }),
    "relay_priority": (0, {
        "relay_report.json":
            "e976852d60f710d70fe570265f176f283e78a5e91b99ea4d0d915ccba1f5383f",
        "relay_runs.csv":
            "6ea15e0244ed416912903e1b849f758a24a899fc8b19d321f950c027450cebe5",
    }),
    "region": (0, {
        "region.csv":
            "85d5353c2136c8b6e20a83484955f5edf837ad1082136b87cf410ddc6960817e",
        "region_report.json":
            "101ef6724d7dd62ed56521a474384abc9a6f209abd607930a88b1352a3faf8e8",
    }),
    "switching": (0, {
        "switching.csv":
            "f72109eee5987f2c058cc0f165e7f79322285668a6ecfae739a41eea582e80ef",
        "switching_report.json":
            "64547e4312196f4850229fe7e9c7f50266db2ed937b6d877efe9d8166ef80445",
    }),
    "tradeoff": (0, {
        "deterministic_hull.csv":
            "d8a1843a7fd144cab2e9f249941c8e46f5be3e9e1fcfab0a749bf3c3582655e7",
        "deterministic_points.csv":
            "8ade14e017ee0eac1f1c88c316fb5819262836de11f09d577827abc532029b4c",
        "tradeoff_curve.csv":
            "2b9a4b81a1c027e712e2d23f3228c988af1ce6e00c6beb8e1bc1c94d04c726bb",
        "tradeoff_policies.txt":
            "2f22c9a50e6478d7b74cde7b0e2034f5870bd552e370eb9bd4b621b44bf4bead",
        "tradeoff_report.json":
            "4b02c5c152c791972a8d8c5890f3f8af86cc2aec2bbf8a189885c17494719ca0",
    }),
    "gen_topology": (0, {
        "switching.cfg":
            "0ab35d28649373a22a7e88336fd23f1e90ba7fad5fd61756f8371ea9a6e0b184",
    }),
    "tradeoff_topology": (0, {
        "deterministic_hull.csv":
            "d8a1843a7fd144cab2e9f249941c8e46f5be3e9e1fcfab0a749bf3c3582655e7",
        "deterministic_points.csv":
            "8ade14e017ee0eac1f1c88c316fb5819262836de11f09d577827abc532029b4c",
        "tradeoff_curve.csv":
            "2b9a4b81a1c027e712e2d23f3228c988af1ce6e00c6beb8e1bc1c94d04c726bb",
        "tradeoff_policies.txt":
            "2f22c9a50e6478d7b74cde7b0e2034f5870bd552e370eb9bd4b621b44bf4bead",
        "tradeoff_report.json":
            "01c600e84e4b2c164cd75bd99b0840a146e9680ae7f49551f19446a62e2a5dbf",
    }),
}


def run_command(name: str) -> tuple[int, dict]:
    """Run one command into ./<name> and hash what it wrote there."""
    argv = COMMANDS[name]
    if argv[0] != "gen-topology":
        argv = argv + ["--out-dir", name]
    code = main(argv)
    out = Path(name)
    return code, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.iterdir())}


def test_table_covers_every_command():
    assert GOLDEN.keys() == COMMANDS.keys()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_bytes_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if name == "tradeoff_topology":
        run_command("gen_topology")
    assert run_command(name) == GOLDEN[name]


# 20k packets or corner events fit in one default chunk, so the relay and
# region commands are also run with chunks of 1,000 epochs and departures,
# where every run crosses many chunk edges.
@pytest.mark.parametrize("name", [n for n in COMMANDS if n.startswith("relay")] + ["region"])
def test_relay_bytes_unchanged_in_small_chunks(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(point_process, "_CHUNK", 1000)
    monkeypatch.setattr(relay_core, "_CHUNK", 1000)
    assert run_command(name) == GOLDEN[name]
