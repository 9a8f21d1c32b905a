"""The package's public surface."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np

import unramified
from unramified.bar import bar_matrix
from unramified.catalog import builtin
from unramified.divisors import elementary_divisors


def test_every_name_in_all_resolves():
    missing = [name for name in unramified.__all__
               if not hasattr(unramified, name)]
    assert missing == []


def _bench_layers(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)
    spec.loader.exec_module(layers)
    return layers


def test_every_traced_function_resolves(monkeypatch):
    # bench/layers.py traces these by name; a missing one would silently
    # drop its per-layer metrics from the benchmark
    layers = _bench_layers(monkeypatch)
    missing = [w.span for w in layers.WRAPS
               if not callable(getattr(importlib.import_module(
                   f"unramified.{w.module}"), w.name, None))]
    assert layers.WRAPS and missing == []


def test_bench_attribute_readers_count_real_results(monkeypatch):
    # bench/layers.py reads bar.nnz and divisors.rank off the return values;
    # a changed return type would corrupt them without any error
    layers = _bench_layers(monkeypatch)
    attrs = {w.span: w.attrs for w in layers.WRAPS}
    spec = builtin("elem9")
    matrix = bar_matrix(spec, 2, 9)
    rows, cols, entries = matrix
    dense = np.zeros((rows, cols), dtype=np.int64)
    for r, c, v in entries:
        dense[r, c] += v
    assert np.count_nonzero(dense % 9) == 1904
    assert attrs["bar.bar_matrix"]((spec, 2, 9), {}, matrix) == {
        "rows": 512, "cols": 64, "nnz": 1904}
    d = elementary_divisors(*matrix, 3, 2)
    # 55 unit divisors and one divisor 3
    assert attrs["divisors.elementary_divisors"](
        (*matrix, 3, 2), {}, d) == {"rank": 56}


def test_readme_layout_lists_every_module():
    root = Path(__file__).resolve().parents[1]
    text = (root / "README.md").read_text(encoding="utf-8")
    layout = text.split("## Layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\s+src/unramified/(\w+\.py)\s", layout, re.M)
    modules = [f.name for f in (root / "src" / "unramified").glob("*.py")
               if f.name != "__init__.py"]
    assert sorted(listed) == sorted(modules)
    assert len(set(listed)) == len(listed)


def _defined_and_referenced(files):
    """Top-level functions and methods of files, and every name they use:
    Name and Attribute nodes, plus string constants that are identifiers
    (bench/layers.py names the functions it traces)."""
    defs, refs = [], []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            defs += [(path, fn) for fn in body if isinstance(
                fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node, node.attr))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                refs.append((path, node, node.value))
    return defs, refs


def test_every_function_in_src_is_used_outside_the_tests():
    # a function or method that only the tests call does not belong in src/,
    # even when __all__ exports it; dunders are exempt
    root = Path(__file__).resolve().parents[1]
    files = [f for f in sorted((root / "src" / "unramified").glob("*.py"))
             if f.name != "__init__.py"] + sorted((root / "bench").glob("*.py"))
    defs, refs = _defined_and_referenced(files)
    unused = []
    for path, fn in defs:
        if fn.name.startswith("__") and fn.name.endswith("__"):
            continue
        if not any(name == fn.name and not (
                where == path and fn.lineno <= node.lineno <= fn.end_lineno)
                for where, node, name in refs):
            unused.append(f"{path.relative_to(root)}:{fn.lineno} {fn.name}")
    assert unused == []


def test_only_check_bound_raises_the_guard_error():
    # every resource guard goes through errors.check_bound, so that each
    # refusal has one message format and sets required
    root = Path(__file__).resolve().parents[1] / "src" / "unramified"
    raisers = [f.name for f in sorted(root.glob("*.py"))
               if "raise GuardExceededError(" in f.read_text(encoding="utf-8")]
    assert raisers == ["errors.py"]


def test_only_linalg_calls_rref_mod_and_kernel_basis():
    # every elimination in the package goes through subspaces or
    # kernel_stack; the two stay only for bench/layers.py to wrap by name
    root = Path(__file__).resolve().parents[1] / "src" / "unramified"
    callers = [f.name for f in sorted(root.glob("*.py"))
               if re.search(r"\b(rref_mod|kernel_basis)\(",
                            f.read_text(encoding="utf-8"))]
    assert callers == ["linalg.py"]


def test_only_groups_constructs_a_spec():
    # builtins and the m = 0 projection go through spec_from_json_dict, so
    # every spec meets the validation a spec file meets
    root = Path(__file__).resolve().parents[1] / "src" / "unramified"
    builders = [f.name for f in sorted(root.glob("*.py"))
                if "GroupSpec(" in f.read_text(encoding="utf-8")]
    assert builders == ["groups.py"]


def test_every_lru_cache_is_keyed_by_ints():
    # a cache keyed by an input would hold arrays whose size no guard has
    # seen, past the command that built them; group tables are built and
    # owned per command, and only shape-keyed tables are cached
    root = Path(__file__).resolve().parents[1] / "src" / "unramified"
    cached, bad = [], []
    for path in sorted(root.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls = [d.func if isinstance(d, ast.Call) else d
                     for d in fn.decorator_list]
            if not {"lru_cache", "cache"} & {
                    getattr(f, "attr", None) or getattr(f, "id", None)
                    for f in calls}:
                continue
            cached.append(fn.name)
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            if a.vararg or a.kwarg or not all(
                    isinstance(x.annotation, ast.Name)
                    and x.annotation.id == "int" for x in params):
                bad.append(f"{path.name}:{fn.lineno} {fn.name}")
    assert cached and bad == []
