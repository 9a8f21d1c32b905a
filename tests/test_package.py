"""The package's public surface."""

import importlib
import importlib.util
import sys
from pathlib import Path

import unramified


def test_every_name_in_all_resolves():
    missing = [name for name in unramified.__all__
               if not hasattr(unramified, name)]
    assert missing == []


def test_every_traced_function_resolves(monkeypatch):
    # bench/layers.py traces these by name; a missing one would silently
    # drop its per-layer metrics from the benchmark
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)
    spec.loader.exec_module(layers)
    missing = [w.span for w in layers.WRAPS
               if not callable(getattr(importlib.import_module(
                   f"unramified.{w.module}"), w.name, None))]
    assert layers.WRAPS and missing == []
