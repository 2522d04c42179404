"""One pass of one workload, in a fresh single-threaded process.

Started by run.py, never by hand. Prints one JSON line as the last line of
its standard output: the monotonic clock reading at the first call into
anonrelay, wall time from there until the last result is written, peak
RSS, the check rows, the sha256 of every output file and, when traced, the
per-layer metrics. Spans go to `spans.jsonl` in the output directory after
the digests are taken. An untraced pass also reports the median pace round
(bench/pace.py); its wall time excludes the time the rounds took. With
--setup-only the worker stops at the first call into anonrelay and prints
only the clock reading there and the pace.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digests(out_dir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def main() -> int:
    # Every pass runs on the same single CPU, so the scheduler never moves it
    # to a CPU with cold caches part-way through.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop at the first call into anonrelay")
    args = ap.parse_args()

    import anonrelay
    import anonrelay.cli  # noqa: F401  (loaded before the clock, like the rest)

    src = (ROOT / "src").resolve()
    if src not in Path(anonrelay.__file__).resolve().parents:
        print(f"anonrelay was imported from {anonrelay.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    from pace import Sampler, pace_now
    from tracing import Tracer, install, layer_metrics
    from workloads import WORKLOADS

    prepare, run, check = WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)
    tracer = None
    if args.trace:
        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-{out_dir.name}")
        install(tracer)
    inputs = prepare(args.seed, out_dir)
    if args.setup_only:
        t_first = time.monotonic()
        print(json.dumps({"t_first": t_first, "pace_s": pace_now()}))
        return 0
    pace = None if tracer else Sampler()

    with pace or contextlib.nullcontext():
        t_first = time.monotonic()
        run(inputs)
        wall_s = time.monotonic() - t_first
    if pace:
        wall_s -= sum(pace.rounds)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        checks = check(inputs)
    except Exception:  # a result that cannot be checked is a failed check
        checks = [{"check": "results-readable", "pass": False, "counted": True,
                   "detail": traceback.format_exc()}]
    result = {
        "t_first": t_first,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "digests": digests(out_dir),
        "pace_s": pace.round_s() if pace else None,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, wall_s)
        tracer.write_spans(out_dir / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
