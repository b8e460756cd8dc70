"""spinpair benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; spinpair is imported from its
src/. --trace 0 measures the end-to-end metrics: a worker process sets up
and runs rounds until S seconds of operation time have passed, and two
more processes only set up, so setup_s is a median of three. --trace 1
runs a fixed number of rounds twice, untraced and traced, in fresh
processes, and reports per-layer metrics and the tracing overhead. Spans
are written to .perfbench_out/. Every operation's output is checked. The
last line of stdout is the JSON result; the lines before it are the
human-readable report.

Timings are calibrated against a probe loop run next to them (see
worker.py), so that host-speed drift on a shared machine does not swamp
the program's own changes; the report lines give the wall times as well.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# rounds of the traced run: fixed, so two traced runs of one seed count
# exactly the same work; sized to about 8 s per pass at the seed commit
TRACE_ROUNDS = {"pipeline-boot": 4, "ensemble": 32, "cli-run": 2, "paper-repro": 3}
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# one process, one thread: BLAS pools stay at one thread
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def tail_percentile(samples, min_beyond: int = 10):
    """(p, value) for the highest p in TAIL_PERCENTILES whose nearest-rank
    value has at least min_beyond samples above its rank; None when even
    p75 has fewer, i.e. when the tail would be the median's neighbour."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        k = math.ceil(round(p * n / 100, 9))  # rank, free of float noise
        if k >= 1 and n - k >= min_beyond:
            return p, xs[k - 1]
    return None


def _worker(args: list, deadline: float) -> dict:
    left = deadline - time.monotonic()
    if left <= 1:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=left,
                              env={**os.environ, **ENV}, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, deadline) -> tuple:
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(ROOT / ".perfbench_out")]
    run = _worker(["--mode", "measure", "--seconds", str(args.seconds)] + common, deadline)
    setups = [run] + [_worker(["--mode", "setup"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    lat, cal = run["latencies_ms"], run["cal_latencies_ms"]
    attempted = len(lat) + len(run["failures"])
    if not lat:
        raise BenchError("no operation succeeded")
    metrics = {
        "latency_p50_ms": (statistics.median(cal), "ms"),
        "throughput_ops_s": (len(cal) / (run["cal_op_ns"] / 1e9), "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(s["cal_setup_s"] for s in setups), "s"),
    }
    tail = tail_percentile(cal)

    def both(name, calibrated, raw, unit):
        return f"{name:<17} {calibrated:.4f} {unit} calibrated, {raw:.4f} {unit} wall"
    report = [
        f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, "
        f"{run['rounds']} rounds, {attempted} operations in {run['op_ns'] / 1e9:.3f} s "
        f"of operation time",
        both("latency_p50_ms", metrics["latency_p50_ms"][0], statistics.median(lat), "ms")
        + f"  ({len(lat)} samples)",
        both("latency_tail_ms", tail[1], tail_percentile(lat)[1], "ms") + f"  (p{tail[0]:g})"
        if tail else
        f"latency_tail_ms   omitted: {len(lat)} samples leave fewer than 10 beyond p75",
        both("throughput_ops_s", metrics["throughput_ops_s"][0],
             len(lat) / (run["op_ns"] / 1e9), "1/s"),
        f"error_rate        {len(run['failures']) / attempted:.4f}  "
        f"({len(run['failures'])}/{attempted})",
        f"peak_rss_mb       {metrics['peak_rss_mb'][0]:.2f} MB",
        both("setup_s", metrics["setup_s"][0],
             statistics.median(s["setup_s"] for s in setups), "s")
        + f"  (median of {len(setups)} processes)",
    ]
    return [run], metrics, report + known_defect_lines(run)


def known_defect_lines(run) -> list:
    return [f"known defect {kind}: " + (f"reproduced ({outcome})" if outcome
                                        else "fixed, handled correctly")
            for kind, outcome in run["known_defects"]]


def trace(args, deadline) -> tuple:
    common = ["--mode", "fixed", "--workload", args.workload, "--seed", str(args.seed),
              "--rounds", str(TRACE_ROUNDS[args.workload]),
              "--workdir", str(ROOT / ".perfbench_out")]
    plain = _worker(common, deadline)
    run = _worker(common + ["--traced"], deadline)
    metrics = {k: tuple(v) for k, v in run["layers"].items()}
    # calibrated, so that host drift between the two passes cancels
    overhead_ms = (run["cal_op_ns"] - plain["cal_op_ns"]) / 1e6
    metrics["trace.overhead_ms"] = (overhead_ms, "ms")
    metrics["cli.known_defects"] = (sum(o is not None for _, o in run["known_defects"]), "count")
    report = [
        f"workload {args.workload}  seed {args.seed}  traced, {run['rounds']} rounds",
        f"trace.op_wall_ms       {metrics['trace.op_wall_ms'][0]:.3f} ms (untraced "
        f"{plain['op_ns'] / 1e6:.3f} ms; calibrated overhead {overhead_ms:.3f} ms)",
        f"trace.unattributed_ms  {metrics['trace.unattributed_ms'][0]:.3f} ms",
        f"spans                  {run['spans_file']}",
    ] + [f"{k:<48} {v[0]:.6g} {v[1]}" for k, v in metrics.items()
         if v[0] and not k.startswith("trace.")]
    return [plain, run], metrics, report + known_defect_lines(run)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "spinpair" / "__init__.py").is_file():
        print(f"error: no spinpair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        runs, metrics, report = (trace if args.trace else measure)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [f for r in runs for f in r["failures"]]
    for line in report:
        print(line)
    for f in failures[:20]:
        print(f"failed: {f}")
    attempted = sum(len(r["latencies_ms"]) for r in runs) + len(failures)
    print(json.dumps({
        "correct": all(r["wrong_outputs"] == 0 for r in runs),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
