"""Spans around the public functions of spinpair, recorded from outside.

Tracer.install rebinds each traced function in every module namespace
that holds it (spectro.apply and cli.apply as well as channels.apply), and
wraps DensityMatrix.__post_init__ for state validation. Spans are kept in
memory as [name, start_ns, end_ns, parent, op, error] and are recorded only
while an operation is open, so output checks made between operations
stay out of the trace.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter

# layer -> traced public functions; "DensityMatrix" traces its validation
TRACED = {
    "states": ("DensityMatrix", "to_bell_populations", "to_product_operators", "fidelity"),
    "channels": ("apply", "selective_pulse", "filtration_sequence", "free_evolution"),
    "seqdsl": ("parse", "compile"),
    "spectro": ("synthesize_fid", "add_noise", "j_double", "fourier", "integrate",
                "readout_integrals", "imbalance_to_populations", "calibrate"),
    "analysis": ("analyze", "min_pt_eigenvalue", "concurrence",
                 "effective_conditions", "singlet_mixture_entangled"),
    "repro": ("run_pipeline", "paper_repro", "measured_recovery"),
    "svgplot": ("write_spectrum_svg",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)

# work counted at a span boundary: span name -> (counter, f(args, result))
COUNTERS = {
    "spectro.synthesize_fid": ("spectro.synthesize_fid.points", lambda a, r: r.n),
    "spectro.fourier": ("spectro.fourier.points", lambda a, r: a[0].n),
}

NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._undo = []

    def wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.op, False]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = tracer.clock()
                stack.pop()
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self, modules: dict) -> list:
        """Rebind every traced name found in `modules` (name -> module);
        returns the span names that were not found."""
        missing = []
        for layer, fns in TRACED.items():
            home = modules.get(layer)
            for fn in fns:
                name = f"{layer}.{fn}"
                orig = getattr(home, fn, None)
                if orig is None:
                    missing.append(name)
                elif isinstance(orig, type):
                    self._rebind(orig, "__post_init__",
                                 self.wrap(name, orig.__post_init__))
                else:
                    wrapped = self.wrap(name, orig)
                    for mod in modules.values():
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                self._rebind(mod, attr, wrapped)
        return missing

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write(self, path, header: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans, counts, op_wall_ns: int) -> dict:
    """Per-layer metrics from closed spans: calls, self and total time,
    errors per span name; the work counters; validations per apply; and
    the part of the operations' wall time outside every span."""
    child_ns = [0] * len(spans)
    top_ns = 0
    for s in spans:
        dur = s[END] - s[START]
        if s[PARENT] < 0:
            top_ns += dur
        else:
            child_ns[s[PARENT]] += dur
    out = {name: {"calls": 0, "self_ns": 0, "total_ns": 0, "errors": 0}
           for name in SPAN_NAMES}
    for i, s in enumerate(spans):
        agg = out[s[NAME]]
        dur = s[END] - s[START]
        agg["calls"] += 1
        agg["total_ns"] += dur
        agg["self_ns"] += dur - child_ns[i]
        agg["errors"] += int(s[ERROR])
    metrics = {}
    for name, agg in out.items():
        metrics[f"{name}.calls"] = (agg["calls"], "count")
        metrics[f"{name}.self_ms"] = (agg["self_ns"] / 1e6, "ms")
        metrics[f"{name}.total_ms"] = (agg["total_ns"] / 1e6, "ms")
        metrics[f"{name}.errors"] = (agg["errors"], "count")
    for counter, _ in COUNTERS.values():
        metrics[counter] = (counts.get(counter, 0), "count")
    metrics["cli.bytes_written"] = (counts.get("cli.bytes_written", 0), "bytes")
    applies = out["channels.apply"]["calls"]
    metrics["channels.apply.validations_per_call"] = (
        validations_inside(spans, "channels.apply", "states.DensityMatrix") / applies
        if applies else 0.0, "1/call")
    metrics["trace.op_wall_ms"] = (op_wall_ns / 1e6, "ms")
    metrics["trace.unattributed_ms"] = ((op_wall_ns - top_ns) / 1e6, "ms")
    return metrics


def validations_inside(spans, outer: str, inner: str) -> int:
    """Number of `inner` spans that have an `outer` span among their ancestors."""
    n = 0
    for s in spans:
        if s[NAME] != inner:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != outer:
            p = spans[p][PARENT]
        n += p >= 0
    return n
