"""Benchmark of the smallpoints command line, one workload per run.

    python3 perfbench/run.py --workload rational_batch --seed 1 --seconds 20 --trace 0

Every operation is one in-process call of ``smallpoints.cli.main`` that
writes one report.  Operations run in whole rounds (see corpus.py); the
number of rounds follows from ``--seconds`` (ROUND_SECONDS), and
hard_repeat always runs exactly one round.  After the peak RSS has been read, every report is checked
against sympy and mpmath (checks.py).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (layers.py) with ``--trace 1``.  Times are scaled to a reference
host speed (hostspeed.py).  A human summary goes to stderr,
and every report is kept in perfbench/results/ for inspection.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("rational_batch", "hard_repeat", "bound_grid")
SETUP_PROBES = 7
# latency_tail_ms is this percentile of the operation times; each workload
# runs enough operations to leave at least 10 above it
TAIL_PERCENTILE = {"rational_batch": 85, "hard_repeat": 75, "bound_grid": 95}
MIN_BEYOND_TAIL = 10
# Seconds one round took when the benchmark was set up.  A run does
# --seconds / ROUND_SECONDS rounds, so which operations it runs depends on
# --seconds and the seed, never on how fast the host happens to be.
# hard_repeat always runs its one round.
ROUND_SECONDS = {"rational_batch": 4.2, "hard_repeat": math.inf, "bound_grid": 0.16}


def _load_cli():
    if not (SRC / "smallpoints" / "cli.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'smallpoints'} is missing")
    sys.path.insert(0, str(SRC))
    from smallpoints import cli

    return cli


def call(main, argv: list[str]) -> tuple[object, str]:
    """Run one command, capturing its output; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed operation, not a dead run
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def setup_probe(workload: str) -> None:
    """Child process: import, lazy set-up and one warm-up operation, then
    print the monotonic clock, which is shared with the parent."""
    import corpus

    cli = _load_cli()
    call(cli.main, corpus.WARMUP[workload])
    print(time.monotonic())


def measure_setup(workload: str) -> float:
    """Median over SETUP_PROBES fresh processes of the time from spawn to
    the end of the warm-up operation, scaled to the reference host speed."""
    samples = []
    speed = HostSpeed()
    for _ in range(SETUP_PROBES):
        speed.sample()
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]) - t0)
        speed.sample()
    return statistics.median(samples) * speed.scale()


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds that take about `seconds` at ROUND_SECONDS, and at least
    enough for MIN_BEYOND_TAIL operations beyond the tail percentile."""
    import corpus

    per_round = corpus.ROUND_SIZE[workload]
    rounds = max(1, math.ceil(seconds / ROUND_SECONDS[workload]))
    while tail_room(rounds * per_round, TAIL_PERCENTILE[workload]) < MIN_BEYOND_TAIL:
        rounds += 1
    return rounds


def run_ops(cli, ops: list[dict], tracer, speed: HostSpeed, log) -> list[float]:
    """Run the operations in order, with reference samples in between;
    writes one log line per operation and returns the operation times."""
    times: list[float] = []
    speed.sample()
    for op in ops:
        if tracer is None:
            t0 = time.perf_counter()
            rc, out = call(cli.main, op["argv"])
            dt = time.perf_counter() - t0
        else:
            (rc, out), dt = tracer.run(call, cli.main, op["argv"])
        times.append(dt)
        log.write(json.dumps({"op": op, "rc": rc, "seconds": dt, "out": out}) + "\n")
        speed.after(dt)
    return times


def check_log(workload: str, path: Path, tracer) -> tuple[int, int, list[str]]:
    """(failed, passed, problems) over the logged operations.

    An operation fails when it exits non-zero or, on a repeated input,
    when its report differs from the first report of that input.  Every
    other report must pass the output checks; a problem is a failed check."""
    from checks import Checker, CheckError

    checker = Checker(workload)
    first: dict[str, str] = {}
    failed = passed = 0
    problems: list[str] = []
    with open(path) as fh:
        for i, line in enumerate(fh):
            rec = json.loads(line)
            op, out = rec["op"], rec["out"]
            key = " ".join(op["argv"])
            if tracer is not None and rec["rc"] == 0:
                tracer.count_report(json.loads(out))
            if rec["rc"] != 0 or first.setdefault(key, out) != out:
                failed += 1
                why = f"exit {rec['rc']}" if rec["rc"] != 0 else "report differs from the first one"
                print(f"perfbench: op {i} failed ({why}): {key}", file=sys.stderr)
                continue
            try:
                checker.check(op, out)
                passed += 1
            except CheckError as exc:
                problems.append(f"op {i} ({key}): {exc}")
    return failed, passed, problems


def _tail_rank(n: int, percentile: int) -> int:
    """0-based nearest-rank index of the percentile among n values."""
    return max(0, math.ceil(percentile / 100 * n) - 1)


def tail_room(n: int, percentile: int) -> int:
    """How many of n operations lie beyond the percentile."""
    return n - 1 - _tail_rank(n, percentile)


def tail(times: list[float], percentile: int) -> float:
    return sorted(times)[_tail_rank(len(times), percentile)]


def main() -> int:
    ap = argparse.ArgumentParser(description="smallpoints benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    import corpus

    cli = _load_cli()
    setup_s = None if args.trace else measure_setup(args.workload)
    call(cli.main, corpus.WARMUP[args.workload])

    ops = corpus.operations(args.workload, args.seed, rounds_for(args.workload, args.seconds))
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    RESULTS.mkdir(exist_ok=True)
    log_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
    with open(log_path, "w") as log:
        speed = HostSpeed()
        times = run_ops(cli, ops, tracer, speed, log)
    # ru_maxrss is in KiB on Linux; read it before sympy and mpmath load
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    failed, passed, problems = check_log(args.workload, log_path, tracer)
    for p in problems[:20]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    # every time below is scaled to the reference host speed (hostspeed.py)
    scale = speed.scale()
    times = [t * scale for t in times]
    total = sum(times)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(times)} ops in {total:.2f} s at "
          f"reference speed (measured x{1 / scale:.3f}), {passed / total:.3f} reports/s, "
          f"{failed} failed, {len(problems)} check failures", file=sys.stderr)
    if tracer is None:
        metrics = {
            "reports_per_s": (passed / total, "1/s"),
            "latency_p50_ms": (statistics.median(times) * 1000, "ms"),
            "latency_tail_ms": (tail(times, TAIL_PERCENTILE[args.workload]) * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        metrics = {k: (v * scale if u == "s" else v, u) for k, (v, u) in tracer.metrics().items()}
        layer_sum = sum(v for v, u in metrics.values() if u == "s")
        print(f"perfbench: traced self times add up to {layer_sum:.4f} s of {total:.4f} s",
              file=sys.stderr)
        for name, (value, unit) in metrics.items():
            share = f"  {100 * value / total:5.1f}%" if unit == "s" else ""
            print(f"perfbench:   {name:32s} {value:14.4f} {unit}{share}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(times),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
