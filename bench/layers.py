"""Per-layer tracing from outside the program.

A traced pass replaces public functions of the package's modules with
wrappers that record one span per call -- (name, start, end, parent span,
op id) plus a few counts read from the arguments or the result -- and puts
the originals back afterwards.  A function is replaced under every name
the package binds it to, so ``from .linalg import kernel_basis`` call sites
are traced too.  Spans stay in memory until the run ends.

A wrapped function that no longer exists is reported missing, and every
metric built from it is absent from the result rather than 0.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from math import comb
from time import perf_counter
from typing import Callable

import numpy as np


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _dec_attrs(args, kwargs, result):
    S, k, n = _arg(args, kwargs, 0, "S"), _arg(args, kwargs, 1, "k"), \
        _arg(args, kwargs, 2, "n")
    return {"degree": k, "p": S.p, "n": n,
            "lines_total": (S.p ** n - 1) // (S.p - 1)}


def _bar_attrs(args, kwargs, result):
    rows, cols, entries = result
    return {"rows": rows, "cols": cols, "nnz": len(entries)}


def _rref_attrs(args, kwargs, result):
    rows, cols = np.shape(_arg(args, kwargs, 0, "A"))
    return {"cells": rows * cols}


def _identity_attrs(args, kwargs, result):
    return {"which": _arg(args, kwargs, 1, "which"), "checked": result.checked}


@dataclass(frozen=True)
class Wrap:
    module: str
    name: str
    attrs: Callable | None = None
    generator: bool = False     # count the items yielded into the caller's span

    @property
    def span(self) -> str:
        return f"{self.module}.{self.name}"


WRAPS = (
    Wrap("cli", "main"),
    Wrap("obstruction", "analyze"),
    Wrap("obstruction", "compute_k3"),
    Wrap("obstruction", "dec_subgroup", _dec_attrs),
    Wrap("obstruction", "dec_subgroup_bruteforce", _dec_attrs),
    Wrap("obstruction", "projective_lines", generator=True),
    Wrap("exterior", "wedge_by_vector_matrix"),
    Wrap("linalg", "rref_mod", _rref_attrs),
    Wrap("linalg", "kernel_basis"),
    Wrap("groups", "validate_spec"),
    Wrap("groups", "build_tables"),
    Wrap("bar", "bar_matrix", _bar_attrs),
    Wrap("divisors", "elementary_divisors",
         lambda a, kw, r: {"rank": len(r.exponents)}),
    Wrap("cochains", "verify_identity", _identity_attrs),
    Wrap("structure", "verify_group_structure"),
)

IDENTITIES = ("dh", "df", "tau_squares", "tau_agree", "ssquare_kernel")

# name, unit, better, the end-to-end metric it should move, the workload it
# shows on, and the wrapped functions it is built from.
LAYER_METRICS = [
    ("obstruction.dec_subgroup.deg2_s", "s", "lower", "wall_s,peak_rss_mb", "analyze-walk", ("obstruction.dec_subgroup",)),
    ("obstruction.dec_subgroup.deg3_s", "s", "lower", "wall_s,peak_rss_mb", "analyze-walk", ("obstruction.dec_subgroup",)),
    ("obstruction.lines_visited", "count", "lower", "wall_s,peak_rss_mb", "analyze-walk", ("obstruction.dec_subgroup", "obstruction.projective_lines")),
    ("obstruction.lines_total", "count", "lower", "wall_s,peak_rss_mb", "analyze-walk", ("obstruction.dec_subgroup",)),
    ("exterior.wedge_by_vector_matrix_s", "s", "lower", "wall_s,peak_rss_mb", "analyze-walk", ("exterior.wedge_by_vector_matrix",)),
    ("exterior.wedge_by_vector_matrix_calls", "count", "lower", "wall_s,peak_rss_mb", "analyze-walk", ("exterior.wedge_by_vector_matrix",)),
    ("linalg.rref_mod_s", "s", "lower", "wall_s,peak_rss_mb", "analyze-walk", ("linalg.rref_mod",)),
    ("linalg.rref_mod_calls", "count", "lower", "wall_s,peak_rss_mb", "analyze-walk", ("linalg.rref_mod",)),
    ("linalg.rref_mod_cells", "count", "lower", "wall_s,peak_rss_mb", "analyze-walk", ("linalg.rref_mod",)),
    ("linalg.kernel_basis_s", "s", "lower", "wall_s,peak_rss_mb", "analyze-walk", ("linalg.kernel_basis",)),
    ("obstruction.lines_visited_ratio", "ratio", "lower", "op_p50_ms,op_p90_ms", "analyze-exit", ("obstruction.dec_subgroup", "obstruction.projective_lines")),
    ("obstruction.analyze_s", "s", "lower", "op_p50_ms,op_p90_ms", "analyze-exit", ("obstruction.analyze",)),
    ("obstruction.compute_k3_s", "s", "lower", "op_p50_ms,op_p90_ms", "analyze-exit", ("obstruction.compute_k3",)),
    ("groups.validate_spec_s", "s", "lower", "op_p50_ms,op_p90_ms", "analyze-exit", ("groups.validate_spec",)),
    ("cli.main_s", "s", "lower", "op_p50_ms,op_p90_ms", "analyze-exit", ("cli.main",)),
    ("cli.self_s", "s", "lower", "op_p50_ms,op_p90_ms", "analyze-exit", ("cli.main",)),
    ("obstruction.dec_subgroup_bruteforce_s", "s", "lower", "wall_s", "oracles", ("obstruction.dec_subgroup_bruteforce",)),
    ("obstruction.brute_candidates", "count", "lower", "wall_s", "oracles", ("obstruction.dec_subgroup_bruteforce", "obstruction.projective_lines")),
    ("obstruction.brute_candidates_per_s", "1/s", "higher", "wall_s", "oracles", ("obstruction.dec_subgroup_bruteforce", "obstruction.projective_lines")),
    ("bar.bar_matrix_s", "s", "lower", "wall_s", "oracles", ("bar.bar_matrix",)),
    ("bar.rows", "count", "lower", "wall_s", "oracles", ("bar.bar_matrix",)),
    ("bar.cols", "count", "lower", "wall_s", "oracles", ("bar.bar_matrix",)),
    ("bar.nnz", "count", "lower", "wall_s", "oracles", ("bar.bar_matrix",)),
    ("divisors.elementary_divisors_s", "s", "lower", "wall_s", "oracles", ("divisors.elementary_divisors",)),
    ("divisors.rank", "count", "lower", "wall_s", "oracles", ("divisors.elementary_divisors",)),
    ("groups.build_tables_s", "s", "lower", "wall_s", "oracles,lab", ("groups.build_tables",)),
] + [
    (f"cochains.verify_identity.{w}_s", "s", "lower", "wall_s", "lab", ("cochains.verify_identity",))
    for w in IDENTITIES
] + [
    ("cochains.checked", "count", "higher", "wall_s", "lab", ("cochains.verify_identity",)),
    ("cochains.checked_per_s", "1/s", "higher", "wall_s", "lab", ("cochains.verify_identity",)),
    ("linalg.rref_mod_max_cells", "count", "lower", "wall_s", "lab", ("linalg.rref_mod",)),
    ("structure.verify_group_structure_s", "s", "lower", "wall_s", "lab", ("structure.verify_group_structure",)),
    ("process.cpu_s", "s", "lower", "diagnostic", "all", ()),
    ("trace.overhead_ratio", "ratio", "lower", "diagnostic", "all", ()),
    ("cache.input_hits", "count", "lower", "diagnostic; must be 0", "all", ()),
]


class Tracer:
    """Spans of the traced passes: [name, start, end, parent, op, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.missing: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, w: Wrap):
        name = w.span
        spans, stack = self.spans, self.stack

        if w.generator:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                caller = spans[stack[-1]] if stack else None
                for item in fn(*args, **kwargs):
                    if caller is not None:
                        caller[5]["lines"] = caller[5].get("lines", 0) + 1
                    yield item
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1,
                    self.op, {}]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if w.attrs is not None:
                span[5].update(w.attrs(args, kwargs, result))
            return result
        return traced

    def install(self, wraps=WRAPS) -> None:
        """Wrap every function in ``wraps``, under every name bound to it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "unramified" or key.startswith("unramified.")]
        for w in wraps:
            mod = importlib.import_module(f"unramified.{w.module}")
            fn = getattr(mod, w.name, None)
            if not callable(fn):
                self.missing.add(w.span)
                continue
            wrapped = self._wrap(fn, w)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, attr, fn))
                        setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._saved):
            setattr(m, attr, fn)
        self._saved.clear()


def _outermost(spans, lo: int, hi: int):
    """Spans in [lo, hi) with no ancestor of the same name."""
    for i in range(lo, hi):
        s = spans[i]
        j = s[3]
        while j >= 0 and spans[j][0] != s[0]:
            j = spans[j][3]
        if j < 0:
            yield s


def pass_metrics(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of the spans tracer.spans[lo:hi] (one pass)."""
    spans = tracer.spans
    busy = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    v = defaultdict(float)
    for i in range(lo, hi):
        name, t0, t1, parent, _, attrs = spans[i]
        calls[name] += 1
        if parent >= lo:
            child_time[parent] += t1 - t0
        if name == "obstruction.dec_subgroup":
            v[f"obstruction.dec_subgroup.deg{attrs['degree']}_s"] += t1 - t0
            v["obstruction.lines_visited"] += attrs.get("lines", 0)
            v["obstruction.lines_total"] += attrs["lines_total"]
        elif name == "obstruction.dec_subgroup_bruteforce":
            flag = comb(attrs["n"] - 1, attrs["degree"] - 1)
            v["obstruction.brute_candidates"] += attrs.get("lines", 0) * attrs["p"] ** flag
        elif name == "linalg.rref_mod":
            v["linalg.rref_mod_cells"] += attrs["cells"]
            v["linalg.rref_mod_max_cells"] = max(v["linalg.rref_mod_max_cells"],
                                                 attrs["cells"])
        elif name == "bar.bar_matrix":
            for key in ("rows", "cols", "nnz"):
                v[f"bar.{key}"] += attrs[key]
        elif name == "divisors.elementary_divisors":
            v["divisors.rank"] += attrs["rank"]
        elif name == "cochains.verify_identity":
            v[f"cochains.verify_identity.{attrs['which']}_s"] += t1 - t0
            v["cochains.checked"] += attrs["checked"]
    for s in _outermost(spans, lo, hi):
        busy[s[0]] += s[2] - s[1]
    for i in range(lo, hi):
        if spans[i][0] == "cli.main":
            v["cli.self_s"] += spans[i][2] - spans[i][1] - child_time[i]
    for name in ("obstruction.analyze", "obstruction.compute_k3",
                 "exterior.wedge_by_vector_matrix", "linalg.rref_mod",
                 "linalg.kernel_basis", "groups.validate_spec",
                 "groups.build_tables", "cli.main",
                 "obstruction.dec_subgroup_bruteforce", "bar.bar_matrix",
                 "divisors.elementary_divisors",
                 "structure.verify_group_structure"):
        v[f"{name}_s"] = busy[name]
    v["exterior.wedge_by_vector_matrix_calls"] = calls["exterior.wedge_by_vector_matrix"]
    v["linalg.rref_mod_calls"] = calls["linalg.rref_mod"]
    total = v["obstruction.lines_total"]
    v["obstruction.lines_visited_ratio"] = v["obstruction.lines_visited"] / total if total else 0.0
    t = busy["obstruction.dec_subgroup_bruteforce"]
    v["obstruction.brute_candidates_per_s"] = v["obstruction.brute_candidates"] / t if t else 0.0
    t = busy["cochains.verify_identity"]
    v["cochains.checked_per_s"] = v["cochains.checked"] / t if t else 0.0
    return dict(v)


def layer_metrics(tracer: Tracer, passes: list[tuple[int, int]],
                  extra: dict[str, float]) -> tuple[dict, list[str]]:
    """Median over passes of each per-layer metric; and the absent ones.

    ``extra`` holds the diagnostics measured outside the spans.
    """
    per_pass = [pass_metrics(tracer, lo, hi) for lo, hi in passes]
    out, absent = {}, []
    for name, unit, *_, sources in LAYER_METRICS:
        if any(src in tracer.missing for src in sources):
            absent.append(name)
            continue
        if name in extra:
            value = extra[name]
        else:
            value = statistics.median(p.get(name, 0) for p in per_pass)
            value = int(value) if unit == "count" else float(value)
        out[name] = {"value": value, "unit": unit}
    return out, absent
