"""Benchmark of the ``unramified`` CLI: one workload, one seed, one run.

    python3 bench/run.py --workload analyze-walk --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the package is imported from ``src/``.
The run is a closed loop with one client: one process calls
``unramified.cli.main(argv)`` for each op of the workload's fixed list,
back to back, with stdout captured, and repeats the list while the next
pass still fits in ``--seconds`` (at least one pass).  Every op's exit
code and output are checked (``workloads.py``) and, where the golden table
has the op, compared byte for byte by SHA-256.

``--trace 0`` prints the end-to-end metrics:

* ``wall_ref``: the time of one pass over the op list, in units of the
  reference kernel of ``speed.py`` timed around each op (median of the
  passes);
* ``setup_s``: median wall time of three fresh interpreters that each
  import the package, write the inputs and run one warm-up op;
* ``peak_rss_mb``: peak resident memory of the run's process.

The record also holds the pass time in seconds (``wall_s``), and the op
latencies (``op_p50_ms``, ``op_p50_ref``, and ``op_p90_ms`` where a run
has at least 100 ops, so that ten lie beyond it).
``--trace 1`` runs one untraced pass, then traced passes, and prints the
per-layer metrics of ``layers.py``.  The last line of stdout is the
result; the full record, with every op's exit code and output digest, goes
to ``.bench_results/`` under the source tree.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"
SETUP_PROBES = 3
# lru caches keyed only by a shape, which may stay warm across ops; every
# other lru cache in the package is keyed by the input and is cleared
# before each timed op.
SHAPE_CACHES = {"exterior.subsets", "exterior.subset_index", "exterior.sym2_pairs"}


def import_package():
    """Import ``unramified`` from this tree's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "unramified" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {src}/unramified")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import unramified
    if Path(unramified.__file__).resolve().parent != src / "unramified":
        raise SystemExit(f"bench: imported unramified from {unramified.__file__}")
    import unramified.cli
    return unramified


def input_caches():
    """The package's input-keyed lru caches, by qualified name."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if not key.startswith("unramified."):
            continue
        for attr, value in vars(mod).items():
            qual = f"{key[len('unramified.'):]}.{attr}"
            if (hasattr(value, "cache_info") and hasattr(value, "cache_clear")
                    and getattr(value, "__module__", None) == key
                    and qual not in SHAPE_CACHES):
                out[qual] = value
    return out


@dataclass
class OpResult:
    key: str
    exit_code: int | None
    stdout_sha256: str
    seconds: float          # the op's own wall time
    ref_seconds: float      # mean reference-kernel time around and during it
    error: str | None
    carried_hits: int
    within_op_hits: int

    @property
    def ref_units(self) -> float:
        return self.seconds / self.ref_seconds


class Runner:
    """Runs ops in a scratch directory, with the gate and cache hygiene."""

    def __init__(self, workload, golden: dict, workdir: Path):
        from unramified import cli
        self.cli = cli      # cli.main is looked up per op, so tracing sees it
        self.workload = workload
        self.golden = golden.get("outputs", {})
        self.workdir = workdir
        self.caches = input_caches()
        self.sampler = speed.Sampler()
        self.last_ref = 0.0     # the reference sample taken after the last op
        for op in (*workload.ops, workload.warmup):
            if op.spec:
                (workdir / op.spec[0]).write_text(op.spec[1])

    def execute(self, op, ref_before: float) -> OpResult:
        for c in self.caches.values():
            c.cache_clear()
        before = {k: c.cache_info() for k, c in self.caches.items()}
        out, err = io.StringIO(), io.StringIO()
        code, crash = None, None
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    self.sampler:
                t0 = time.perf_counter()
                try:
                    code = self.cli.main(list(op.argv))
                except SystemExit as exc:
                    crash = f"SystemExit({exc.code})"
                except Exception as exc:  # an op that raises is a failed op
                    crash = f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - t0 - self.sampler.spent
        finally:
            os.chdir(cwd)
        self.last_ref = speed.reference_seconds()
        refs = [ref_before, *self.sampler.samples, self.last_ref]
        text = out.getvalue()
        carried = within = 0
        for k, c in self.caches.items():
            hits = c.cache_info().hits - before[k].hits
            if before[k].currsize:
                carried += hits
            else:
                within += hits
        error = crash or self.verify(op, code, text)
        return OpResult(op.key, code, hashlib.sha256(text.encode()).hexdigest(),
                        seconds, statistics.fmean(refs), error, carried, within)

    def verify(self, op, code, text) -> str | None:
        try:
            error = op.check(code, text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
        want = self.golden.get(op.key)
        if error is None and want is not None:
            got = hashlib.sha256(text.encode()).hexdigest()
            if (code, got) != (want["exit"], want["sha256"]):
                error = f"exit {code} / sha256 {got[:12]} differ from the golden table"
        return error

    def run_one(self, op) -> OpResult:
        gc.collect()
        return self.execute(op, speed.reference_seconds())

    def run_pass(self, tracer=None, pass_id: int = 0) -> list[OpResult]:
        results = []
        self.last_ref = speed.reference_seconds()
        for i, op in enumerate(self.workload.ops):
            gc.collect()
            if tracer is not None:
                tracer.op = f"{pass_id}:{i}"
            results.append(self.execute(op, self.last_ref))
        return results


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def prepare(name: str, seed: int, smoke: bool, golden: dict, workdir: Path):
    """Inputs, spec files and the untimed warm-up op (its failure aborts)."""
    import workloads
    wl = workloads.build(name, seed, golden, smoke=smoke)
    runner = Runner(wl, golden, workdir)
    warm = runner.run_one(wl.warmup)
    if warm.error:
        raise SystemExit(f"bench: warm-up op failed: {warm.error}")
    return runner


def make_workdir() -> Path:
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def setup_seconds(args) -> list[float]:
    """Wall time of fresh interpreters doing the whole set-up, one each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed: {proc.stderr.strip()}")
    return times


@dataclass
class Pass:
    results: list[OpResult]
    cpu_s: float
    spans: tuple[int, int]

    @property
    def wall_s(self) -> float:
        return sum(r.seconds for r in self.results)

    @property
    def wall_ref(self) -> float:
        return sum(r.ref_units for r in self.results)


def timed_passes(runner, seconds: float, tracer=None, first_id: int = 0) -> list[Pass]:
    """Passes while the next one still fits in ``seconds`` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        lo = len(tracer.spans) if tracer else 0
        cpu0 = time.process_time()
        results = runner.run_pass(tracer, first_id + len(passes))
        cpu = time.process_time() - cpu0
        passes.append(Pass(results, cpu, (lo, len(tracer.spans) if tracer else 0)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "unramified").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
            "commit": _commit(), "src_sha256": _src_digest(), "seed": seed}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def run(args) -> dict:
    """One benchmark run; returns the full record (``line`` is printed)."""
    import_package()
    golden = load_golden()
    setup = setup_seconds(args) if not args.trace else []
    workdir = make_workdir()
    try:
        runner = prepare(args.workload, args.seed, args.smoke, golden, workdir)
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "smoke": args.smoke, "provenance": provenance(args.seed)}
        if args.trace:
            import layers
            untraced = timed_passes(runner, 0)
            tracer = layers.Tracer()
            tracer.install()
            try:
                passes = timed_passes(runner, args.seconds, tracer, first_id=1)
            finally:
                tracer.uninstall()
        else:
            passes = timed_passes(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = untraced + passes if args.trace else passes
    for p in checked[1:]:
        for first, r in zip(checked[0].results, p.results):
            same = (r.exit_code, r.stdout_sha256) == (first.exit_code, first.stdout_sha256)
            if not (same or r.error):
                r.error = "output differs from the run's first pass"
    results = [r for p in checked for r in p.results]
    failed = [r for r in results if r.error]
    carried = sum(r.carried_hits for r in results)
    lat_ms = [r.seconds * 1e3 for p in passes for r in p.results]
    record.update({
        "passes": len(passes),
        "attempted": len(results), "failed": len(failed),
        "failed_ratio": len(failed) / len(results),
        "cache.input_hits": carried,
        "cache.within_op_hits": sum(r.within_op_hits for r in results),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_samples": len(lat_ms),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p50_ref": statistics.median(r.ref_units for p in passes for r in p.results),
        "op_p90_ms": percentile(lat_ms, 90) if len(lat_ms) >= 100 else None,
        "ref_s": statistics.median(r.ref_seconds for p in passes for r in p.results),
        "errors": sorted({f"{r.key}: {r.error}" for r in failed}),
        "ops": [asdict(r) for r in passes[0].results],
        "pass_ops": [[(r.seconds, r.ref_seconds) for r in p.results] for p in passes],
    })
    if args.trace:
        untraced_ref = statistics.median(p.wall_ref for p in untraced)
        extra = {"process.cpu_s": statistics.median(p.cpu_s for p in passes),
                 "trace.overhead_ratio":
                     statistics.median(p.wall_ref for p in passes) / untraced_ref,
                 "cache.input_hits": carried}
        metrics, absent = layers.layer_metrics(tracer, [p.spans for p in passes], extra)
        record["absent"] = absent
        record["spans"] = tracer.spans
    else:
        metrics = {
            "wall_ref": {"value": statistics.median(p.wall_ref for p in passes),
                         "unit": "ref"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
        record["setup_samples_s"] = setup
    record["metrics"] = metrics
    record["line"] = {"correct": not failed and carried == 0,
                      "attempted": len(results), "failed": len(failed),
                      "metrics": metrics}
    return record


def write_record(record: dict) -> Path:
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    path = out / (f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
                  f"-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    path.write_text(json.dumps(record))
    return path


def parse_args(argv=None):
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny op lists, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="import, write the inputs, run the warm-up op and exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        import_package()
        workdir = make_workdir()
        try:
            prepare(args.workload, args.seed, args.smoke, load_golden(), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    record = run(args)
    path = write_record(record)
    for e in record["errors"]:
        print(f"bench: failed op {e}", file=sys.stderr)
    if record["cache.input_hits"]:
        print("bench: input-keyed cache hits carried across ops; run invalid",
              file=sys.stderr)
    for name in record.get("absent", []):
        print(f"bench: metric {name} absent: its traced function is gone",
              file=sys.stderr)
    print(f"bench: record in {path}", file=sys.stderr)
    print(json.dumps(record["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
