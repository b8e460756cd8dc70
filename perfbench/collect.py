"""Run the benchmark over several seeds and summarize its spread.

    python3 perfbench/collect.py --seeds 1-10 --seconds 15 [--trace] [--out FILE]

For every workload and seed it runs run.py once, seeds in the outer loop
so that machine drift spreads over all workloads, and reports per metric
the median, the quartiles from statistics.quantiles(n=4), and the spread
(q3 - q1) / median. With --out the summary, the machine facts and every
run's result are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import ENV, WORKLOADS  # noqa: E402


def machine() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "blas_threads": ENV}


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for seed in seed_range(args.seeds):
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
                capture_output=True, text=True, cwd=HERE.parent, timeout=200)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["report"] = lines[:-1]
            runs[w].append(result)
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    summary = {}
    for w, rs in runs.items():
        names = rs[0]["metrics"]
        summary[w] = {
            "error_rate": sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs),
            "all_correct": all(r["correct"] for r in rs),
            "metrics": {m: {**summarize([r["metrics"][m]["value"] for r in rs]),
                            "unit": names[m]["unit"]} for m in names},
        }
        if not args.trace:
            for m, s in summary[w]["metrics"].items():
                print(f"{w:<14} {m:<18} median {s['median']:<12.6g} {s['unit']:<4} "
                      f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"machine": machine(), "seconds": args.seconds, "seeds": args.seeds,
             "trace": args.trace, "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
