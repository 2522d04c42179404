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

# (exit code, {file name: sha256}) per command. The hashes that moved when
# the seeded streams went from Philox to PCG64 were re-taken then; the rest
# date from before the index-based match results replaced the epoch-array
# ones (relay_avg's window is unbounded, so it reports zero drops whatever
# is drawn)
GOLDEN = {
    "relay_strict": (0, {
        "match.txt":
            "780234e88283e9c480107e3de01d4dd0d8739d4d3cce640f3a5957222e7edad4",
        "relay_report.json":
            "fe362c099c5899b55a7c721199a153011a3c347766f10b7a288da0bb0fcfff4f",
        "relay_runs.csv":
            "e90c16d99a6c668cb4ecb8d42570ea7bf98b3593129087051b7bf10fd005ec1b",
    }),
    "relay_avg": (0, {
        "relay_report.json":
            "2469e55e04f0f87703794b2ffce21fdcf6ff5eda3b503e32a6da967df667dec3",
        "relay_runs.csv":
            "c13a8ac9608ac24a12a0413d71f71e97ed4bc6e4b34e6990ef4cf07902597c31",
    }),
    "relay_avg_window": (0, {
        "relay_report.json":
            "1be5cc2b31024d6e0ed1d686d83528a86a844ec0a7d67b2b7dcd3ab82bca583b",
        "relay_runs.csv":
            "fabae88e9897a4feb524659d1bf17378c36b9088eaa0ab40a3f6ca356d8f5a87",
    }),
    "relay_priority": (0, {
        "relay_report.json":
            "2187e2adbb4e1a8b3ebcfa1b45045be9a4901892480288f90d2088eab8e7540e",
        "relay_runs.csv":
            "8b0ce2c734285e42f4cee05727a54a31456533d76964151aad81f28b11277b67",
    }),
    "region": (0, {
        "region.csv":
            "107aa93988bd621cf867f7812b5a068d88cace76b0d05a2a2ac9f193e78560dc",
        "region_report.json":
            "2984347bf7e3f3fe84c49200f7bb214c65ebd5658e8074e6249b4898cc80b3c7",
    }),
    "switching": (0, {
        "switching.csv":
            "70cbef0c254dc08dcdfa2ba7dd2332ba6cde76f5509c8bd5a331ab5ba1b18c35",
        "switching_report.json":
            "b23a258a170352a110a5afd29f35920b8dfdeaf3e785e3cdad3fe5561ca5564b",
    }),
    "tradeoff": (0, {
        "deterministic_hull.csv":
            "d8a1843a7fd144cab2e9f249941c8e46f5be3e9e1fcfab0a749bf3c3582655e7",
        "deterministic_points.csv":
            "f26b9b6ec0d494179d83f8359acc428ef607279d49e80277ab4c4125d52b1a8c",
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
            "f26b9b6ec0d494179d83f8359acc428ef607279d49e80277ab4c4125d52b1a8c",
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
