"""The benchmark's three workloads: how each builds its inputs from a seed,
what it runs through anonrelay, and how its results are checked.

Every workload is three functions. `prepare(seed, out_dir)` builds the
inputs before the first call into anonrelay (this is set-up time).
`run(inputs)` makes every call and writes every result file (this is wall
time). `check(inputs)` then reads the results back and returns check rows;
it runs after the clock stops.

A check row is a dict with `check`, `pass`, `counted` and a `detail`.
Uncounted rows are recorded but never fail the run.
"""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import NamedTuple

# A statistical check passes when |measured - predicted| <= Z_CHECK * stderr.
# A relay_mc pass makes 5 seeded statistical checks. At 4.5 sigma the chance
# that any of them fails on a correct program is below 1e-4 per seed, where
# at 3 sigma it would be about 1.3%, enough to fail some of a few dozen
# seeds. The CLI's own 3-sigma verdict is kept in each row as `cli_pass`.
Z_CHECK = 4.5

# Exact closed forms, written out rather than taken from anonrelay.analytic.
# Capacity 2, delay 1: a covert relay fed at its own capacity loses
# 1 / (1 + 2 * 1) = 1/3 of its input.
CAPACITY = 2.0
RATE_VISIBLE = 4.0
RATE_SECOND_STAGE_COVERT = 8.0 / 3.0


def row(name: str, ok: bool, detail, counted: bool = True) -> dict:
    return {"check": name, "pass": bool(ok), "counted": counted, "detail": detail}


def z_row(name, predicted, measured, stderr, cli_pass=None) -> dict:
    if math.isfinite(predicted) and math.isfinite(stderr):
        ok = abs(measured - predicted) <= Z_CHECK * stderr
    else:
        ok = math.isfinite(measured)
    detail = {"predicted": predicted, "measured": measured, "stderr": stderr}
    if cli_pass is not None:
        detail["cli_pass"] = cli_pass
    return row(name, ok, detail)


def close_row(name, got, want, tol) -> dict:
    return row(name, abs(got - want) <= tol, {"value": got, "expected": want, "tol": tol})


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


# --------------------------------------------------------------------------
# relay_mc: single-relay Monte Carlo through the CLI, plus the walk oracle.

RELAY_STRICT_PACKETS = 2_000_000
RELAY_PRIORITY_PACKETS = 1_000_000
RELAY_AVG_PACKETS = 1_000_000
WALK_STEPS = 10_000_000


def relay_mc_prepare(seed: int, out_dir: Path) -> dict:
    s = str(seed)
    runs = {
        "strict": ["relay", "--cs", "1", "--cb", "1", "--delta", "1",
                   "--packets", str(RELAY_STRICT_PACKETS)],
        "priority": ["relay", "--mode", "priority", "--cs", "1", "--cs2", "1", "--cb", "2",
                     "--delta", "1", "--packets", str(RELAY_PRIORITY_PACKETS)],
        "avg": ["relay", "--mode", "avg", "--cs", "1", "--cb", "3", "--dbar", "1",
                "--packets", str(RELAY_AVG_PACKETS)],
        "region": ["region", "--cs1", "1", "--cs2", "1", "--cb", "2", "--delta", "1"],
    }
    argv = {k: v + ["--seed", s, "--out-dir", str(out_dir / k)] for k, v in runs.items()}
    return {"seed": seed, "out_dir": out_dir, "argv": argv}


def relay_mc_run(inp: dict) -> None:
    from anonrelay import cli, relay_core

    codes = {name: cli.main(argv) for name, argv in inp["argv"].items()}
    walk = relay_core.random_walk_oracle(1.0, 1.0, 1.0, WALK_STEPS, inp["seed"])
    doc = {"exit_codes": codes, "walk": {
        "loss_fraction": walk.loss_fraction,
        "loss_stderr": walk.loss_stderr,
        "mean_interior_delay": walk.mean_interior_delay,
        "steps": walk.steps,
    }}
    (inp["out_dir"] / "results.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def check_relay_mc(relay_reports: dict, region_report: dict, walk: dict,
                   walk_predicted: float) -> list[dict]:
    """`relay_reports` maps mode to the CLI's relay_report.json document."""
    rows = []
    for mode in ("strict", "priority", "avg"):
        for r in relay_reports[mode]["checks"]:
            rows.append(z_row(f"{mode}:{r['check']}", r["predicted"], r["measured"],
                              r["stderr"], cli_pass=r["pass"]))
    rows.append(z_row("walk-oracle-loss", walk_predicted, walk["loss_fraction"],
                      walk["loss_stderr"]))
    # The corners are clipped into the outer bound before this gate runs, so
    # it cannot fail; it is recorded, not counted.
    rows.append(row("region-inner-in-outer", region_report["inner_in_outer"],
                    {"max_sum_gap": region_report["max_sum_gap"]}, counted=False))
    return rows


def relay_mc_check(inp: dict) -> list[dict]:
    from anonrelay import analytic

    out = inp["out_dir"]
    reports = {m: _read_json(out / m / "relay_report.json") for m in ("strict", "priority", "avg")}
    walk = _read_json(out / "results.json")["walk"]
    return check_relay_mc(reports, _read_json(out / "region" / "region_report.json"), walk,
                          analytic.loss_fraction(1.0, 1.0, 1.0))


# --------------------------------------------------------------------------
# frontier_4x4: the README tradeoff command on the built-in switching network.

FRONTIER_ALPHA_POINTS = 17
FRONTIER_SIM_PACKETS = 200_000
# R(1) comes out of the Blahut-Arimoto solver, whose rate tolerance is 1e-6.
FRONTIER_TOL = 1e-6


def frontier_4x4_prepare(seed: int, out_dir: Path) -> dict:
    argv = ["tradeoff", "--capacity", repr(CAPACITY), "--delta", "1",
            "--alpha-points", str(FRONTIER_ALPHA_POINTS),
            "--sim-packets", str(FRONTIER_SIM_PACKETS),
            "--seed", str(seed), "--out-dir", str(out_dir)]
    return {"seed": seed, "out_dir": out_dir, "argv": argv}


def frontier_4x4_run(inp: dict) -> None:
    from anonrelay import cli

    code = cli.main(inp["argv"])
    (inp["out_dir"] / "exit_code.txt").write_text(f"{code}\n")


def check_frontier_4x4(report: dict) -> list[dict]:
    return [
        row("randomized-dominates-hull", report["randomized_dominates_hull"], {}),
        close_row("rate-at-alpha0", report["rate_at_alpha0"], RATE_VISIBLE, 1e-9),
        close_row("rate-at-alpha1", report["rate_at_alpha1"], RATE_SECOND_STAGE_COVERT,
                  FRONTIER_TOL),
    ]


def frontier_4x4_check(inp: dict) -> list[dict]:
    return check_frontier_4x4(_read_json(inp["out_dir"] / "tradeoff_report.json"))


# --------------------------------------------------------------------------
# covert_table_6x6: a generated 6-source two-stage switching network, every
# covert subset enumerated, no Blahut-Arimoto.

COVERT_SIM_PACKETS = 100_000
SIX = 6


def six_by_six_config() -> str:
    """Network config text: sources S1..S6 feed first-stage relays A1
    (S1-S3) and A2 (S4-S6); both feed second-stage relays B1 (D1-D3) and B2
    (D4-D6). Each of the 6! source-to-destination bijections is one session
    of a uniform prior."""
    sources = [f"S{i}" for i in range(1, SIX + 1)]
    dests = [f"D{i}" for i in range(1, SIX + 1)]
    first = {s: ("A1" if i < SIX // 2 else "A2") for i, s in enumerate(sources)}
    second = {d: ("B1" if i < SIX // 2 else "B2") for i, d in enumerate(dests)}
    lines = [f"node {n} cap {CAPACITY!r}" for n in sources + ["A1", "A2", "B1", "B2"] + dests]
    edges = [(s, first[s]) for s in sources]
    edges += [(a, b) for a in ("A1", "A2") for b in ("B1", "B2")]
    edges += [(second[d], d) for d in dests]
    lines += [f"edge {u} {v}" for u, v in edges]
    perms = list(itertools.permutations(dests))
    prob = repr(1.0 / len(perms))
    for perm in perms:
        lines.append(f"session {prob}")
        lines += [f"path {s} {first[s]} {second[d]} {d}" for s, d in zip(sources, perm)]
        lines.append("end")
    return "\n".join(lines) + "\n"


def covert_table_6x6_prepare(seed: int, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = out_dir / "network_6x6.cfg"
    cfg.write_text(six_by_six_config())
    return {"seed": seed, "out_dir": out_dir, "config": cfg}


class Point(NamedTuple):
    covert: frozenset
    alpha: float
    sum_rate: float


def _name(covert) -> str:
    return "+".join(sorted(covert)) if covert else "-"


def points_csv(det) -> str:
    """Deterministic points as CSV; repr() floats read back exactly."""
    lines = ["covert,alpha,sum_rate"]
    lines += [f"{_name(p.covert)},{p.alpha!r},{p.sum_rate!r}" for p in det]
    return "\n".join(lines) + "\n"


def read_points(text: str) -> list[Point]:
    points = []
    for line in text.splitlines()[1:]:
        name, alpha, rate = line.split(",")
        covert = frozenset() if name == "-" else frozenset(name.split("+"))
        points.append(Point(covert, float(alpha), float(rate)))
    return points


def covert_table_6x6_run(inp: dict) -> None:
    from anonrelay import anonymity_opt, network_model

    topo, prior = network_model.parse_network_config(inp["config"].read_text())
    model = anonymity_opt.build_distortion_model(
        prior, topo, 1.0, sim_packets=COVERT_SIM_PACKETS, seed=inp["seed"])
    det = anonymity_opt.deterministic_points(
        prior, topo, 1.0, sim_packets=COVERT_SIM_PACKETS, seed=inp["seed"])
    hull = anonymity_opt.deterministic_hull([(p.sum_rate, p.alpha) for p in det])
    inp["model"] = model

    out = inp["out_dir"]
    (out / "deterministic_points.csv").write_text(points_csv(det))
    lines = ["alpha,sum_rate"] + [f"{a!r},{r!r}" for r, a in hull]
    (out / "deterministic_hull.csv").write_text("\n".join(lines) + "\n")
    lines = ["session,observation,covert,loss"]
    lines += [f"{si},{oi},{_name(b)},{model.d[si, oi]!r}"
              for (si, oi), b in sorted(model.covert_for.items())]
    (out / "distortion_cells.csv").write_text("\n".join(lines) + "\n")


def check_covert_table(model, det, rate_zero: float) -> list[dict]:
    """Checks on the 6x6 table: the closed forms at the empty and the
    second-stage covert sets, and every deterministic point's rate against
    the distortion model, rate_zero - sum_s p_s * d[s, col(s, B)]."""
    by_set = {p.covert: p for p in det}
    empty, second = by_set[frozenset()], by_set[frozenset({"B1", "B2"})]
    rows = [
        close_row("alpha-all-visible", empty.alpha, math.log(36) / math.log(720), 1e-9),
        close_row("alpha-second-stage", second.alpha, 1.0, 1e-9),
        close_row("rate-all-visible", empty.sum_rate, RATE_VISIBLE, 1e-9),
        close_row("rate-second-stage", second.sum_rate, RATE_SECOND_STAGE_COVERT, 1e-9),
    ]
    col = {(si, b): oi for (si, oi), b in model.covert_for.items()}
    errs = {}
    for p in det:
        loss = sum(
            model.probs[si] * model.d[si, col[(si, p.covert & s.interior_nodes)]]
            for si, s in enumerate(model.sessions)
        )
        errs[_name(p.covert)] = abs(p.sum_rate - (rate_zero - loss))
    worst = max(errs, key=lambda k: errs[k] if errs[k] <= math.inf else math.inf)  # NaN first
    rows.append(row("points-match-distortion-model", all(e <= 1e-9 for e in errs.values()),
                    {"worst_abs_err": errs[worst], "worst_set": worst, "points": len(det)}))
    return rows


def covert_table_6x6_check(inp: dict) -> list[dict]:
    """Reads the written points back and checks them against the
    distortion model the run built."""
    model = inp["model"]
    det = read_points((inp["out_dir"] / "deterministic_points.csv").read_text())
    return check_covert_table(model, det, model.rate_zero)


WORKLOADS = {
    "relay_mc": (relay_mc_prepare, relay_mc_run, relay_mc_check),
    "frontier_4x4": (frontier_4x4_prepare, frontier_4x4_run, frontier_4x4_check),
    "covert_table_6x6": (covert_table_6x6_prepare, covert_table_6x6_run, covert_table_6x6_check),
}
