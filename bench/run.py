"""anonrelay benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in fresh worker processes (bench/worker.py), one after
another: with --trace 0 first 5 set-up probes, then passes until S seconds
have passed and at least two passes are done. Reports medians over them. With --trace 0 the passes are untraced
and the result holds the end-to-end metrics; with --trace 1 traced and
untraced passes alternate and the result holds the per-layer metrics.
The end-to-end times are scaled to a reference speed of the CPU, sampled
during each untraced pass (bench/pace.py). Metric names and units come from
BENCHMARK.json; bench/README.md explains each one.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full record (machine,
commit, every pass, every check, output digests) is written to
.bench_out/<workload>/trace<T>/result.json, and its path printed before
the last line.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# Workers run single-threaded: numpy's BLAS would otherwise start one thread
# per core, and the timings would depend on what else the machine runs.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
MIN_PASSES = 2
# Set-up probes per run: workers that stop at the first call into anonrelay.
# With the passes, they give setup_s a median over at least 7 set-ups.
SETUP_PROBES = 5
# Per-layer metrics in these units are exact and must repeat on one seed.
EXACT_UNITS = ("count", "B")
# A run must end within 180 s; no pass starts once this much has gone.
HARD_LIMIT_S = 165.0
# One pace round (bench/pace.py) takes this long at the reference speed:
# about its median on a shared 2-vCPU Xeon VM.
PACE_REF_S = 0.0035


class BenchError(RuntimeError):
    pass


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository.
    Naming the git directory stops git from searching the parent directories."""
    try:
        proc = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_env": THREAD_ENV,
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def one_pass(workload: str, seed: int, traced: bool, out_dir: Path, timeout: float,
             setup_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **THREAD_ENV)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out-dir", str(out_dir), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    t_start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_raw_s"] = res.pop("t_first") - t_start
    if setup_only:
        res["setup_s"] = res["setup_raw_s"] * PACE_REF_S / res["pace_s"]
        return res
    res["wall_raw_s"] = res.pop("wall_s")
    if not traced:
        scale = PACE_REF_S / res["pace_s"]
        res["setup_s"] = res["setup_raw_s"] * scale
        res["wall_s"] = res["wall_raw_s"] * scale
    res["traced"] = traced
    return res


def passes(workload: str, seed: int, seconds: float, trace: bool,
           out: Path) -> tuple[list[dict], list[dict]]:
    """Run the set-up probes, then passes back to back for about `seconds`
    in all: a pass starts only if it should end before `seconds`. A traced
    run alternates traced and untraced passes and makes at least two traced
    ones, so that the exact counters can be compared."""
    t0 = time.monotonic()
    probes = [one_pass(workload, seed, False, out / f"setup-{i:02d}", HARD_LIMIT_S, True)
              for i in range(SETUP_PROBES if not trace else 0)]
    done: list[dict] = []
    lengths: list[float] = []
    while True:
        elapsed = time.monotonic() - t0
        n_traced = sum(p["traced"] for p in done)
        enough = len(done) >= MIN_PASSES and (not trace or (n_traced >= 2 and len(done) >= 3))
        if enough and elapsed + statistics.median(lengths) > seconds:
            break
        left = HARD_LIMIT_S - elapsed
        if done and left < 1.5 * max(lengths):
            break
        traced = trace and len(done) % 2 == 0
        done.append(one_pass(workload, seed, traced, out / f"pass-{len(done):02d}", left))
        lengths.append(time.monotonic() - t0 - elapsed)
    return done, probes


def counters_repeat(traced: list[dict], count_names: list[str]) -> dict:
    first = traced[0]["layers"]
    differ = sorted(n for n in count_names
                    if any(p["layers"][n] != first[n] for p in traced[1:]))
    return {"check": "exact-counters-repeat", "pass": len(traced) > 1 and not differ,
            "counted": True, "detail": {"passes": len(traced), "differ": differ}}


def summarise(done: list[dict], probes: list[dict], trace: bool,
              bench: dict) -> tuple[dict, list[dict]]:
    checks = [dict(c, pass_index=i) for i, p in enumerate(done) for c in p["checks"]]
    plain = [p for p in done if not p["traced"]]
    wall = statistics.median(p["wall_s"] for p in plain)
    if not trace:
        counted = [c for c in checks if c["counted"]]
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(p["setup_s"] for p in plain + probes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "check_pass_frac": sum(c["pass"] for c in counted) / len(counted),
        }
        wanted = bench["end_to_end"]
    else:
        traced = [p for p in done if p["traced"]]
        wanted = bench["per_layer"]
        exact = [m["name"] for m in wanted if m["unit"] in EXACT_UNITS]
        values = {n: statistics.median(p["layers"][n] for p in traced)
                  for n in traced[0]["layers"]}
        values.update({n: traced[0]["layers"][n] for n in exact if n in values})
        values["trace.wall_s"] = statistics.median(p["wall_raw_s"] for p in traced)
        values["trace.overhead_frac"] = (
            values["trace.wall_s"] / statistics.median(p["wall_raw_s"] for p in plain) - 1.0)
        checks.append(counters_repeat(traced, exact))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return metrics, checks


def main(argv=None) -> int:
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "anonrelay" / "__init__.py").is_file():
        print(f"no anonrelay source under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    out = OUT / args.workload / f"trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        done, probes = passes(args.workload, args.seed, args.seconds, bool(args.trace), out)
        metrics, checks = summarise(done, probes, bool(args.trace), bench)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    counted = [c for c in checks if c["counted"]]
    failed = sum(not c["pass"] for c in counted)
    first_digests = done[0]["digests"]
    record = {
        "check_fail_frac": failed / len(counted),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "pace_ref_s": PACE_REF_S,
        "metrics": metrics,
        "checks": checks,
        "digests": first_digests,
        "digests_repeat": all(p["digests"] == first_digests for p in done[1:]),
        "passes": [{k: v for k, v in p.items() if k not in ("checks", "digests")}
                   for p in done],
        "setup_probes": probes,
    }
    (out / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for c in checks:
        if c["counted"] and not c["pass"]:
            print(f"FAILED check {c['check']} (pass {c.get('pass_index', '-')}): {c['detail']}")
    print(f"record: {(out / 'result.json').relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(counted), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
