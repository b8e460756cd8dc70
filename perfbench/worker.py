"""One benchmark process: set up spinpair from the checkout's src/, then run
one workload closed-loop with a single client, and print one JSON line.

Modes:
  setup    import and warm-up only (one set-up sample)
  measure  rounds until --seconds of operation time have passed
  fixed    exactly --rounds rounds, with --traced for the traced run

Host speed on a shared machine drifts by tens of percent within minutes.
Each timing is therefore also reported calibrated: multiplied by
PROBE_NOMINAL_NS / (time of a fixed probe loop run next to it), i.e. as
it would read on a host that runs the probe in PROBE_NOMINAL_NS. The probe
runs right before and right after every operation, and right after set-up.

run.py starts this file; it is not meant to be run by hand.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("states", "channels", "seqdsl", "spectro", "analysis", "repro", "svgplot", "cli")


def set_up():
    """Import spinpair from the checkout and warm its caches. Returns the
    modules as a namespace and as a dict, the package, and the set-up time
    in seconds since this process started running Python code."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import importlib

    import spinpair
    if not Path(spinpair.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"spinpair imported from {spinpair.__file__}, not {src}")
    mods = {name: importlib.import_module(f"spinpair.{name}") for name in MODULES}
    import workloads
    sp = argparse.Namespace(**mods)
    workloads.warm_up(sp, sp.states.SpinSystemParams())
    return sp, mods, spinpair, time.perf_counter() - T0


PROBE_NOMINAL_NS = 3_000_000


def probe_ns() -> int:
    """Wall time of a fixed mix of interpreter work and 4x4 numpy calls,
    the kind of work spinpair does."""
    import numpy as np
    a = np.eye(4, dtype=complex) * 0.5
    t = time.perf_counter_ns()
    m, acc = a, 0
    for i in range(150):
        m = a @ m @ a.conj().T
        np.linalg.eigvalsh(m + a)
        for j in range(40):
            acc += i * j
    np.fft.fft(np.ones(4096, dtype=complex))
    return time.perf_counter_ns() - t


def run_rounds(workload, seed, ctx, tracer, more):
    """Closed loop: prepare, time, check and clean up one operation at a
    time while more(round_index, op_time_ns) holds."""
    import workloads
    latencies, calibrated, failures = [], [], []
    wrong_outputs = 0
    op_ns = cal_op_ns = 0
    r = 0
    while more(r, op_ns):
        for inp in workloads.round_inputs(workload, seed, r):
            op = workloads.OPERATIONS[workload](ctx, inp)
            op.prepare()
            before = probe_ns()
            if tracer is not None:
                tracer.op = len(latencies) + len(failures)
            t = time.perf_counter_ns()
            try:
                result = op.run()
                failure = None
            except Exception as exc:  # an exception is a failed operation
                failure = ("exception", f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter_ns() - t
            if tracer is not None:
                tracer.op = None
                tracer.counts["cli.bytes_written"] += op.written()
            cal_dt = dt * 2 * PROBE_NOMINAL_NS / (before + probe_ns())
            op_ns += dt
            cal_op_ns += cal_dt
            if failure is None:
                try:
                    failure = op.check(result)
                except Exception as exc:  # e.g. an output file that is missing
                    failure = ("wrong-output", f"check raised {type(exc).__name__}: {exc}")
            if failure is None:
                latencies.append(dt / 1e6)
                calibrated.append(cal_dt / 1e6)
            else:
                wrong_outputs += failure[0] == "wrong-output"
                failures.append(f"round {r} {failure[0]}: {failure[1]}")
            op.cleanup()
        r += 1
    return {"latencies_ms": latencies, "cal_latencies_ms": calibrated, "failures": failures,
            "wrong_outputs": wrong_outputs, "op_ns": op_ns, "cal_op_ns": cal_op_ns,
            "rounds": r}


def probe_known_defects(workload, seed, ctx) -> list:
    """Run each known-defect input once, untimed, untraced and outside the
    operation count. Returns [kind, outcome] pairs; the outcome is None
    when the program now handles the input correctly."""
    import workloads
    found = []
    for inp in workloads.known_defect_inputs(workload, seed):
        op = workloads.OPERATIONS[workload](ctx, inp)
        op.prepare()
        try:
            failure = op.check(op.run())
        except Exception as exc:  # the defect may surface as an exception
            failure = ("exception", f"{type(exc).__name__}: {exc}")
        op.cleanup()
        found.append([inp["kind"], None if failure is None else f"{failure[0]}: {failure[1]}"])
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "fixed"), required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--workdir")
    args = ap.parse_args(argv)

    sp, mods, package, setup_s = set_up()
    probes = sorted(probe_ns() for _ in range(3))
    setup = {"setup_s": setup_s, "cal_setup_s": setup_s * PROBE_NOMINAL_NS / probes[1]}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    import workloads
    tracer = None
    if args.traced:
        from tracing import Tracer
        tracer = Tracer()
        missing = tracer.install({**mods, "spinpair": package})
        if missing:
            print(f"not traced (absent): {', '.join(missing)}", file=sys.stderr)
    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="ops-", dir=args.workdir))
    try:
        ctx = workloads.Context(sp, ROOT, workdir)
        if args.mode == "measure":
            limit = args.seconds * 1e9
            out = run_rounds(args.workload, args.seed, ctx, tracer,
                             lambda r, op_ns: op_ns < limit)
        else:
            out = run_rounds(args.workload, args.seed, ctx, tracer,
                             lambda r, op_ns: r < args.rounds)
        out["known_defects"] = probe_known_defects(args.workload, args.seed, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.update(setup)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        from tracing import layer_metrics
        out["layers"] = layer_metrics(tracer.spans, tracer.counts, out["op_ns"])
        spans_path = Path(args.workdir) / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                                  "fields": ["name", "start_ns", "end_ns", "parent", "op", "error"]})
        out["spans_file"] = str(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
