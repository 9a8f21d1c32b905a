"""The benchmark's own tests, at smoke size (a few seconds each).

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402

run.import_package()
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def smoke(workload, trace, seconds=0.01):
    args = run.parse_args(["--workload", workload, "--seed", "1", "--seconds",
                           str(seconds), "--trace", str(trace), "--smoke"])
    return run.run(args)


def test_end_to_end_metrics_emitted_with_units():
    rec = smoke("lab", 0)
    line = rec["line"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert len(rec["setup_samples_s"]) == run.SETUP_PROBES


def test_layer_table_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [(name, unit, better) for name, unit, better, *_ in layers.LAYER_METRICS]


@pytest.mark.parametrize("workload, positive", [
    ("analyze-walk", ["obstruction.lines_visited", "linalg.rref_mod_calls"]),
    ("oracles", ["bar.nnz", "obstruction.brute_candidates", "divisors.rank"]),
    ("lab", ["cochains.checked"]),
])
def test_layer_metrics_emitted_and_counts_repeat(workload, positive):
    first, second = smoke(workload, 1), smoke(workload, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for rec in (first, second):
        assert rec["line"]["correct"], rec["errors"]
        assert {k: v["unit"] for k, v in rec["line"]["metrics"].items()} == want
        assert rec["absent"] == []
    counts = [name for name, unit in want.items() if unit == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}
    assert all(first["metrics"][n]["value"] > 0 for n in positive)
    assert first["metrics"]["cache.input_hits"]["value"] == 0


def test_tampered_golden_entry_fails_the_op(tmp_path, monkeypatch):
    golden = json.loads(run.GOLDEN.read_text())
    key = "verify-lemmas --builtin heisenberg3 --json"
    golden["outputs"][key]["sha256"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", path)
    rec = smoke("lab", 1)
    assert rec["failed_ratio"] > 0
    assert not rec["line"]["correct"]
    assert all(e.startswith(key) for e in rec["errors"])


def test_gate_refuses_a_wrong_anchor():
    import workloads
    out = json.dumps({"qz_orders": {"1": 9, "2": 3, "3": 9}})
    assert workloads.check_qz(0, out, orders={"1": 9, "2": 3, "3": 27})
    assert workloads.check_qz(0, out, orders={"1": 9}) is None


def test_missing_traced_function_makes_its_metrics_absent(monkeypatch):
    import unramified.bar
    monkeypatch.delattr(unramified.bar, "bar_matrix")
    rec = smoke("lab", 1)
    bar_metrics = {"bar.bar_matrix_s", "bar.rows", "bar.cols", "bar.nnz"}
    assert bar_metrics <= set(rec["absent"])
    assert not bar_metrics & set(rec["line"]["metrics"])
    assert "cochains.checked" in rec["line"]["metrics"]
