"""Compare two sets of benchmark records, parent against change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON records that ``run.py`` writes to
``.bench_results/``.  For every (metric, workload) present on both sides it
prints each side's median and quartiles, the share of pairs the change
wins (runs paired by seed, else in order; ties count for neither side), and
a verdict:

* ``improved``: the change wins at least 9/10 of the pairs and its median
  is better than the parent's by more than the parent's own quartile
  spread;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound from BENCHMARK.json;
* ``unresolved``: the run-to-run spread (quartile distance over median,
  either side) exceeds the bound, unless every change run beats every
  parent run;
* ``no worse``: otherwise.

Metrics without a bound (the per-layer ones) get ``-`` unless they are
counts that moved, which print ``changed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load(directory: Path) -> dict:
    """{(workload, metric): [(seed, value), ...]} from one directory."""
    out = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("smoke"):
            continue
        for name, m in rec["metrics"].items():
            out[(rec["workload"], name)].append((rec["seed"], m["value"]))
    return out


def pairs(parent, change):
    by_seed = dict(parent)
    if len(by_seed) == len(parent) and all(s in by_seed for s, _ in change):
        return [(by_seed[s], v) for s, v in change]
    return list(zip([v for _, v in parent], [v for _, v in change]))


def verdict(parent: list[float], change: list[float], pairs_, bound, better: str,
            unit: str) -> tuple[str, float]:
    sign = 1 if better == "lower" else -1      # positive = worse
    wins = sum(1 for a, b in pairs_ if sign * (b - a) < 0)
    share = wins / len(pairs_) if pairs_ else 0.0
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    if bound is None:
        moved = unit == "count" and sorted(parent) != sorted(change)
        return ("changed" if moved else "-"), share
    spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", share
    if share >= 0.9 and sign * (pmed - cmed) > pq3 - pq1:
        return "improved", share
    if sign * (cmed - pmed) > bound * abs(pmed):
        return "regressed", share
    return "no worse", share


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--bench", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)
    spec = json.loads(args.bench.read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    print(f"{'metric':44s} {'workload':13s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'wins':>5s}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        m = meta.get(name, {"better": "lower", "unit": ""})
        pv = [v for _, v in parent[key]]
        cv = [v for _, v in change[key]]
        v, share = verdict(pv, cv, pairs(parent[key], change[key]), m.get("bound"),
                           m["better"], m["unit"])
        fmt = "/".join
        print(f"{name:44s} {workload:13s} "
              f"{fmt(f'{x:.4g}' for x in quartiles(pv)):>30s} "
              f"{fmt(f'{x:.4g}' for x in quartiles(cv)):>30s} "
              f"{share:5.2f}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
