"""The benchmark's tracer finds every span it records by name on the
spinpair modules; a renamed function would otherwise vanish from the
per-layer metrics without any error (the worker's notice of a missing
name goes to a stderr that perfbench/run.py does not show)."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = [f"{layer}.{fn}" for layer, fns in tracing.TRACED.items()
               for fn in fns
               if not callable(getattr(importlib.import_module(f"spinpair.{layer}"),
                                       fn, None))]
    assert missing == []
