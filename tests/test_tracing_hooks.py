"""The benchmark tracer wraps package functions by name; keep them resolvable."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("heiswalk_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"heiswalk.{layer}.{name}"
        for layer, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"heiswalk.{layer}"), name, None))
    ]
    assert missing == []
