"""The package's public surface."""

import importlib
import importlib.util
import re
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


def test_readme_layout_lists_every_module():
    root = Path(__file__).resolve().parents[1]
    text = (root / "README.md").read_text(encoding="utf-8")
    layout = text.split("## Layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\s+src/unramified/(\w+\.py)\s", layout, re.M)
    modules = [f.name for f in (root / "src" / "unramified").glob("*.py")
               if f.name != "__init__.py"]
    assert sorted(listed) == sorted(modules)
    assert len(set(listed)) == len(listed)
