"""Command-line experiment driver.

Every run is fully determined by its flags and seed: reports embed the
parameters and package version (never wall-clock time), so identical
invocations produce byte-identical output files. Exit status is 0 only if
all in-run statistical checks pass.

Precedence: built-in defaults, then command-line flags, then values from
`--config FILE` (JSON), which override flags.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, analytic, anonymity_opt, network_model, relay_core
from ._util import BatchMeans, fmt
from .point_process import EmptyScheduleError, GenSpec, poisson_chunks

__all__ = ["main"]


def _parse_file(flag: str, path: str, parse):
    """`parse` of the file a flag names; a missing or malformed file exits naming the flag."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise SystemExit(f"{flag} {path}: {e}")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _report(out_dir: Path, name: str, command: str, params: dict, body: dict) -> None:
    doc = {
        "command": command,
        "version": __version__,
        "params": params,
        **body,
    }
    _write(out_dir / name, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _check_row(name, predicted, measured, stderr):
    if math.isfinite(predicted):
        # no error bar (too few samples to batch) cannot back a pass
        ok = math.isfinite(stderr) and abs(measured - predicted) <= 3.0 * stderr
    else:
        ok = math.isfinite(measured)
    return {
        "check": name,
        "predicted": predicted,
        "measured": measured,
        "stderr": stderr,
        "pass": bool(ok),
    }


def _rows_csv(rows) -> str:
    lines = ["check,predicted,measured,stderr,pass"]
    for r in rows:
        lines.append(
            f"{r['check']},{fmt(r['predicted'])},{fmt(r['measured'])},"
            f"{fmt(r['stderr'])},{int(r['pass'])}"
        )
    return "\n".join(lines) + "\n"


def _drop_row(name, predicted, flags: BatchMeans):
    # a stream that drew no arrivals measured nothing, so it has no error bar
    stats = relay_core.RelayPathStats.from_flags(flags)
    return _check_row(name, predicted, stats.drop_fraction, flags.stderr)


# The most epochs one Poisson draw may expect, rate × horizon: 1,000 times the
# largest draw of the README and benchmark runs, and far below the draws a
# rate near the smallest float sets, which no run could finish.
MAX_DRAW_EPOCHS = 1e10


def _run_horizon(span: float, flags: str, rates: dict) -> float:
    """The span a run draws its epochs over, at each of `rates` (flag ->
    rate). One that overflows to inf, to 0 when a sum of rates overflows,
    or over which a draw expects more than MAX_DRAW_EPOCHS epochs, exits
    naming the flags that set it."""
    if not 0.0 < span < math.inf:
        raise SystemExit(f"{flags} gives a horizon of {span}; it must be finite and positive")
    for flag, rate in rates.items():
        if rate * span > MAX_DRAW_EPOCHS:
            raise SystemExit(f"{flags} gives a horizon of {span:.6g}, over which {flag} {rate:g} "
                             f"expects {rate * span:.3g} epochs; a draw may expect at most "
                             f"{MAX_DRAW_EPOCHS:.0e}")
    return span


def _relay_strict(args, rows):
    horizon = _run_horizon(args.packets / args.cs, "--packets / --cs",
                           {"--cs": args.cs, "--cb": args.cb})
    flags, parts = BatchMeans(args.packets, 100), []
    for _, step in relay_core._streamed({"in": GenSpec(args.cs, horizon, args.seed)},
                                        GenSpec(args.cb, horizon, args.seed), [("in",)],
                                        args.delta):
        flags.add_ones(step["in"].arrivals.size, step["in"].carried)
        if args.dump_match:  # the dump is the whole match, so it keeps every step
            parts.append(step["in"])
    rows.append(_drop_row("strict-loss-fraction",
                          analytic.loss_fraction(args.cs, args.cb, args.delta), flags))
    if args.dump_match:
        res = relay_core._concat_results(parts, args.delta)
        _write(Path(args.dump_match), relay_core.match_result_to_text(res))


def _relay_priority(args, rows):
    horizon = _run_horizon(args.packets / (args.cs + args.cs2), "--packets / (--cs + --cs2)",
                           {"--cs": args.cs, "--cs2": args.cs2, "--cb": args.cb})
    sources = {"src1": GenSpec(args.cs, horizon, args.seed),
               "src2": GenSpec(args.cs2, horizon, args.seed)}
    out = GenSpec(args.cb, horizon, args.seed)
    # each source's error bar batches the arrivals it expects, rate × horizon
    top, low_matched = BatchMeans(round(args.cs * horizon), 100), 0
    equal = {k: BatchMeans(round(s.rate * horizon), 100) for k, s in sources.items()}
    # one read of the draws feeds the successive (0) and equal-priority (1) matchers
    for j, step in relay_core._streamed(sources, out, [("src1", "src2"), None], args.delta):
        if j == 0:
            top.add_ones(step["src1"].arrivals.size, step["src1"].carried)
            low_matched += step["src2"].n_matched
        else:
            for k, flags in equal.items():
                flags.add_ones(step[k].arrivals.size, step[k].carried)
    rows.append(_drop_row("priority-top-loss",
                          analytic.loss_fraction(args.cs, args.cb, args.delta), top))
    rows.append(_check_row("priority-low-rate", math.nan, low_matched / horizon, math.nan))
    loss = analytic.loss_fraction(args.cs + args.cs2, args.cb, args.delta)
    for k, flags in equal.items():
        rows.append(_drop_row(f"equal-priority-loss-{k}", loss, flags))


def _relay_avg(args, rows):
    horizon = _run_horizon(args.packets / args.cs, "--packets / --cs", {"--cs": args.cs})
    drained = _run_horizon(horizon + 100.0 * max(args.dbar, 1.0 / args.cb),
                           "--packets / --cs + 100 max(--dbar, 1 / --cb)", {"--cb": args.cb})
    arrivals = GenSpec(args.cs, horizon, args.seed)
    departures = GenSpec(args.cb, drained, args.seed)
    # The window follows from the rates the run measures, so a counting read
    # comes first. Where the flag rates already give an unbounded window,
    # that read matches at it too, and its match stands if the counted rates
    # give one as well; otherwise a second read matches at the counted window.
    tallies = [0, 0.0], [0, 0.0]
    arr, dep = (relay_core._tallied(poisson_chunks(spec, node_id=k), tally)
                for spec, k, tally in zip((arrivals, departures), ("in", "out"), tallies))
    flags = BatchMeans(args.packets, 100)
    unbounded = math.isinf(analytic.solve_strict_delay(args.dbar, args.cs, args.cb))
    if unbounded:
        for _, step in relay_core._relays({"in": arr}, dep, [("in",)], math.inf):
            flags.add_ones(step["in"].arrivals.size, step["in"].carried)
    for _ in itertools.chain(arr, dep):  # counts what no match read
        pass
    try:
        window, cs_hat, cb_hat = relay_core._counted_window(tallies, args.dbar)
    except EmptyScheduleError as e:
        raise SystemExit(f"--packets {args.packets} at --seed {args.seed}: {e}; --mode avg "
                         "solves its window from the measured rates, so raise --packets")
    loss = analytic.loss_fraction(cs_hat, cb_hat, window)
    # the delays' batches are runs of the matched packets the closed form predicts
    delays = BatchMeans(round(args.packets * (1.0 - loss)), 100)
    if not (unbounded and math.isinf(window)):
        flags = BatchMeans(args.packets, 100)
        for _, step in relay_core._streamed({"in": arrivals}, departures, [("in",)], window):
            flags.add_ones(step["in"].arrivals.size, step["in"].carried)
            if not math.isinf(window):  # an infinite window reads only the drop count
                delays.add(step["in"].delays)
    if math.isinf(window):
        rows.append(_check_row("avg-mode-zero-drops", 0.0, flags.total, 0.0))
    else:
        rows.append(_check_row("avg-mode-mean-delay", args.dbar, delays.mean, delays.stderr))
        rows.append(_drop_row("avg-mode-loss-fraction", loss, flags))


_LEAST = {"packets": 1, "corner_events": 1, "sim_packets": 1, "alpha_points": 2, "seed": 0}
_POSITIVE = ("cs", "cs1", "cs2", "cb", "dbar", "capacity")


def _check_args(args) -> None:
    """Reject parameters no run can use, naming the flag; values from
    --config are held to the same rules. A count is an integer of at least
    1, or 2 for --alpha-points, since the tradeoff report reads both ends of
    the grid, and a seed an integer of at least 0 (a bool is neither);
    --delta is nonnegative and may be infinite; rates and capacities are
    finite and positive."""
    for dest, v in vars(args).items():
        flag = "--" + dest.replace("_", "-")
        real = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
        if dest in _LEAST:
            if not (real and isinstance(v, (int, np.integer)) and v >= _LEAST[dest]):
                raise SystemExit(f"{flag} must be an integer of at least {_LEAST[dest]}, "
                                 f"got {v!r}")
        elif dest == "delta" and not (real and v >= 0.0):
            raise SystemExit(f"--delta must be nonnegative, got {v!r}")
        elif dest in _POSITIVE and not (real and math.isfinite(v) and v > 0.0):
            raise SystemExit(f"{flag} must be finite and positive, got {v!r}")


def cmd_relay(args) -> int:
    if args.stats_from:
        res = _parse_file("--stats-from", args.stats_from, relay_core.match_result_from_text)
        print(f"matched={res.n_matched} dropped={res.n_dropped} "
              f"dummies={res.dummy_departures.size} "
              f"drop_fraction={res.drop_fraction:.6g} mean_delay={res.mean_delay:.6g}")
        return 0
    if args.dump_match and args.mode != "strict":
        raise SystemExit(f"--dump-match writes a strict-mode match, not one of --mode {args.mode}")
    rows: list[dict] = []
    if args.mode == "strict":
        _relay_strict(args, rows)
    elif args.mode == "priority":
        _relay_priority(args, rows)
    else:
        _relay_avg(args, rows)
    out = Path(args.out_dir)
    params = {
        "cs": args.cs, "cs2": args.cs2, "cb": args.cb, "delta": args.delta,
        "dbar": args.dbar, "mode": args.mode, "packets": args.packets, "seed": args.seed,
    }
    ok = all(r["pass"] for r in rows)
    _write(out / "relay_runs.csv", _rows_csv(rows))
    _report(out, "relay_report.json", "relay", params, {"checks": rows, "pass": ok})
    for r in rows:
        status = "PASS" if r["pass"] else "FAIL"
        print(f"[{status}] {r['check']}: predicted={r['predicted']:.6g} "
              f"measured={r['measured']:.6g} stderr={r['stderr']:.3g}")
    return 0 if ok else 1


def cmd_region(args) -> int:
    # the horizon `two_source_region` draws its corners over
    _run_horizon(args.corner_events / (args.cs1 + args.cs2), "--corner-events / (--cs1 + --cs2)",
                 {"--cs1": args.cs1, "--cs2": args.cs2, "--cb": args.cb})
    region = analytic.two_source_region(
        args.cs1, args.cs2, args.cb, args.delta,
        corner_events=args.corner_events, seed=args.seed,
    )
    contained = region.contains_inner_in_outer()
    gap = region.sum_cap - sum(region.max_sum_vertex)
    out = Path(args.out_dir)
    params = {
        "cs1": args.cs1, "cs2": args.cs2, "cb": args.cb, "delta": args.delta,
        "corner_events": args.corner_events, "seed": args.seed,
    }
    _write(out / "region.csv", region.to_csv())
    _report(out, "region_report.json", "region", params, {
        "cap1": region.cap1,
        "cap2": region.cap2,
        "sum_cap": region.sum_cap,
        "corner1": list(region.corner1),
        "corner2": list(region.corner2),
        "max_sum_vertex": list(region.max_sum_vertex),
        "max_sum_gap": gap,
        "inner_in_outer": contained,
        "pass": contained,
    })
    print(f"[{'PASS' if contained else 'FAIL'}] inner region inside outer bound; "
          f"max-sum gap {gap:.3g}")
    return 0 if contained else 1


def _counters(model) -> dict:
    """The deterministic work counters a report carries from its model."""
    return {k: model.metadata[k]
            for k in ("simulated_entries", "class_evaluations", "cascade_simulations")}


_SWITCHING_SUBSETS = (
    (),
    ("M1", "M3"),
    ("M2", "M4"),
    ("M1", "M2", "M3", "M4"),
)


def cmd_switching(args) -> int:
    topo, prior = network_model.switching_topology(args.capacity)
    h_bits = anonymity_opt.entropy_bits(prior)
    model = anonymity_opt.build_distortion_model(
        prior, topo, args.delta, sim_packets=args.sim_packets, seed=args.seed
    )
    # a sum over sessions: `model.rate_zero`, a dot product, may differ in the last bit
    rate_zero = sum(p * lv for p, lv in zip(model.probs.tolist(), model.lambda_v))
    table = []
    for subset in _SWITCHING_SUBSETS:
        table.append({
            "covert": "+".join(sorted(subset)) if subset else "-",
            "alpha": model.anonymity(subset),
            "expected_sum_rate": model.covert_rate(subset),
        })
    checks = [
        ("alpha-all-visible", table[0]["alpha"], math.log(4) / math.log(24)),
        ("alpha-first-stage", table[1]["alpha"],
         (math.log(4) / 3 + 2 * math.log(16) / 3) / math.log(24)),
        ("alpha-second-stage", table[2]["alpha"], 1.0),
        ("entropy-bits", h_bits, math.log2(24)),
        ("rate-all-visible", table[0]["expected_sum_rate"], 2.0 * args.capacity),
    ]
    ok = all(abs(got - want) <= 1e-9 for _, got, want in checks)
    out = Path(args.out_dir)
    params = {"capacity": args.capacity, "delta": args.delta,
              "sim_packets": args.sim_packets, "seed": args.seed}
    lines = ["covert,alpha,expected_sum_rate"]
    for row in table:
        lines.append(f"{row['covert']},{fmt(row['alpha'])},{fmt(row['expected_sum_rate'])}")
    _write(out / "switching.csv", "\n".join(lines) + "\n")
    _report(out, "switching_report.json", "switching", params, {
        "entropy_bits": h_bits,
        "rate_zero": rate_zero,
        "table": table,
        "checks": [
            {"check": n, "value": got, "expected": want, "pass": abs(got - want) <= 1e-9}
            for n, got, want in checks
        ],
        "counters": _counters(model),
        "pass": ok,
    })
    for n, got, want in checks:
        status = "PASS" if abs(got - want) <= 1e-9 else "FAIL"
        print(f"[{status}] {n}: {got:.9f} (expected {want:.9f})")
    for row in table:
        print(f"  covert {row['covert']:<12} alpha={row['alpha']:.6f} "
              f"rate={row['expected_sum_rate']:.6f}")
    return 0 if ok else 1


def cmd_tradeoff(args) -> int:
    if args.topology:
        topo, prior = _parse_file("--topology", args.topology,
                                  network_model.parse_network_config)
    else:
        topo, prior = network_model.switching_topology(args.capacity)
    try:  # only a --topology file can pass the enumeration cap
        model = anonymity_opt.build_distortion_model(
            prior, topo, args.delta, sim_packets=args.sim_packets, seed=args.seed
        )
        det = model.deterministic_points()
    except ValueError as e:
        raise SystemExit(f"--topology {args.topology}: {e}")
    grid = np.linspace(0.0, 1.0, args.alpha_points)
    curve = anonymity_opt.tradeoff_curve(model, grid.tolist())
    det_pairs = [(p.sum_rate, p.alpha) for p in det]
    hull = anonymity_opt.deterministic_hull(det_pairs)
    dominance = all(
        pt.rate >= anonymity_opt.deterministic_hull_value(det_pairs, pt.alpha) - 1e-9
        for pt in curve.points
    )
    max_gap = max(pt.gap for pt in curve.points)
    certified = max_gap <= anonymity_opt.BA_TOL
    ok = dominance and certified
    out = Path(args.out_dir)
    params = {"capacity": args.capacity, "delta": args.delta,
              "alpha_points": args.alpha_points, "sim_packets": args.sim_packets,
              "seed": args.seed, "topology": args.topology}
    _write(out / "tradeoff_curve.csv", curve.to_csv())
    _write(out / "tradeoff_policies.txt", curve.policies_text())
    det_lines = ["covert,alpha,sum_rate"]
    for p in det:
        name = "+".join(sorted(p.covert)) if p.covert else "-"
        det_lines.append(f"{name},{fmt(p.alpha)},{fmt(p.sum_rate)}")
    _write(out / "deterministic_points.csv", "\n".join(det_lines) + "\n")
    hull_lines = ["alpha,sum_rate"]
    for r, a in hull:
        hull_lines.append(f"{fmt(a)},{fmt(r)}")
    _write(out / "deterministic_hull.csv", "\n".join(hull_lines) + "\n")
    first, last = curve.points[0], curve.points[-1]
    _report(out, "tradeoff_report.json", "tradeoff", params, {
        "rate_zero": curve.rate_zero,
        "rate_at_alpha0": first.rate,
        "rate_at_alpha1": last.rate,
        "randomized_dominates_hull": dominance,
        "ba_probes": curve.ba_probes,
        "ba_unconverged": curve.ba_unconverged,
        "max_duality_gap": max_gap,
        "counters": _counters(model),
        "pass": ok,
    })
    print(f"[{'PASS' if dominance else 'FAIL'}] randomized curve dominates the "
          f"deterministic hull; R(0)={first.rate:.4f} R(1)={last.rate:.4f}")
    print(f"[{'PASS' if certified else 'FAIL'}] largest certified duality gap "
          f"{max_gap:.3e} within {anonymity_opt.BA_TOL:g}")
    return 0 if ok else 1


def cmd_gen_topology(args) -> int:
    topo, prior = network_model.switching_topology(args.capacity)
    text = network_model.format_network_config(topo, prior)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write(Path(args.out), text)
        print(f"wrote {args.out}")
    return 0


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    if getattr(args, "config", None):
        overrides = _parse_file("--config", args.config, json.loads)
        if not isinstance(overrides, dict):
            raise SystemExit(f"--config {args.config}: not a JSON object")
        for key, value in overrides.items():
            dest = key.replace("-", "_")
            if not hasattr(args, dest):
                raise SystemExit(f"config key {key!r} is not a parameter of this command")
            setattr(args, dest, value)
    return args


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="anonrelay",
        description="Reproducible experiments on anonymity-constrained relaying.",
    )
    top.add_argument("--version", action="version", version=f"anonrelay {__version__}")
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.add_argument("--out-dir", default=".", help="directory for report files")
        p.add_argument("--config", default=None,
                       help="JSON file whose values override the flags")

    p = sub.add_parser("relay", help="single-relay matching against predictions")
    p.add_argument("--cs", type=float, default=1.0, help="input rate, packets/s")
    p.add_argument("--cs2", type=float, default=1.0, help="second input rate (priority mode)")
    p.add_argument("--cb", type=float, default=1.0, help="relay output rate, packets/s")
    p.add_argument("--delta", type=float, default=1.0, help="strict delay bound, s")
    p.add_argument("--dbar", type=float, default=1.0, help="mean delay bound, s (avg mode)")
    p.add_argument("--mode", choices=("strict", "priority", "avg"), default="strict")
    p.add_argument("--packets", type=int, default=200_000, help="input packets to simulate")
    p.add_argument("--dump-match", default=None,
                   help="also write the match outcome in text form (strict mode only)")
    p.add_argument("--stats-from", default=None,
                   help="print the statistics of a previously dumped match file and exit")
    common(p)
    p.set_defaults(fn=cmd_relay)

    p = sub.add_parser("region", help="two-source achievable rate region")
    p.add_argument("--cs1", type=float, default=1.0)
    p.add_argument("--cs2", type=float, default=1.0)
    p.add_argument("--cb", type=float, default=2.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--corner-events", type=int, default=50_000)
    common(p)
    p.set_defaults(fn=cmd_region)

    p = sub.add_parser("switching", help="anonymity table for the built-in switching network")
    p.add_argument("--capacity", type=float, default=2.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--sim-packets", type=int, default=200_000)
    common(p)
    p.set_defaults(fn=cmd_switching)

    p = sub.add_parser("tradeoff", help="sum-rate versus anonymity frontier")
    p.add_argument("--capacity", type=float, default=2.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--alpha-points", type=int, default=17)
    p.add_argument("--sim-packets", type=int, default=200_000)
    p.add_argument("--topology", default=None,
                   help="network config file (default: built-in switching network)")
    common(p)
    p.set_defaults(fn=cmd_tradeoff)

    p = sub.add_parser("gen-topology", help="emit the built-in switching network config")
    p.add_argument("--capacity", type=float, default=2.0)
    p.add_argument("--out", default="-", help="output file, or - for stdout")
    p.set_defaults(fn=cmd_gen_topology)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if hasattr(args, "config"):
        args = _apply_config(args)
    _check_args(args)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
