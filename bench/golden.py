"""Regenerate ``golden.json``, the benchmark's table of expected answers.

    python3 bench/golden.py

It records, from the current source tree:

* ``base_dims``: (dim K^3, dim S^2_dec, dim S^3_dec) of every base spec of
  the analyze workloads, in their original basis.  The gate compares every
  seed's re-coordinatized spec against these (the dims are invariant under
  a change of basis).
* ``outputs``: the exit code and stdout SHA-256 of every op, warm-up ops
  included, for the default seed at full and smoke size.

The anchors in ``workloads.py`` (peyre6 at (0, 1) with S^3_dec =
span{u[1,3,5]}, the elem9, heisenberg3 and heisenberg5 cohomology orders,
tau_agree failing at p = 3 and holding at p = 5) do not come from this
table; an op that misses one is refused and nothing is written.  Run this
only when an answer is meant to change, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def base_dims(runner_main, workdir: Path, name: str) -> list[list[int]]:
    dims = []
    for idx, (p, n, gamma) in enumerate(
            workloads.base_specs(workloads.shape_list(name))):
        path = workdir / f"base{idx:03d}.json"
        path.write_text(workloads.spec_text(p, n, gamma))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = runner_main(["analyze", "--spec", str(path), "--json"])
        if code != 0:
            raise SystemExit(f"golden: base spec {name}[{idx}] exits {code}")
        data = json.loads(out.getvalue())
        dims.append([data["k3"]["dim"], data["s2_dec"]["dim"], data["s3_dec"]["dim"]])
    return dims


def main() -> int:
    run.import_package()
    from unramified import cli
    workdir = run.make_workdir()
    golden = {"seed": workloads.DEFAULT_SEED, "base_dims": {}, "outputs": {}}
    try:
        for name in ("analyze-walk", "analyze-exit"):
            golden["base_dims"][name] = base_dims(cli.main, workdir, name)
        for name in workloads.WORKLOADS:
            for smoke in (False, True):
                runner = run.prepare(name, workloads.DEFAULT_SEED, smoke,
                                     golden, workdir)
                results = runner.run_pass()
                for r in results:
                    if r.error:
                        raise SystemExit(f"golden: {name}: {r.key}: {r.error}")
                    golden["outputs"][r.key] = {"exit": r.exit_code,
                                                "sha256": r.stdout_sha256}
                w = runner.run_one(runner.workload.warmup)
                golden["outputs"][w.key] = {"exit": w.exit_code,
                                            "sha256": w.stdout_sha256}
                print(f"golden: {name}{' (smoke)' if smoke else ''}: "
                      f"{len(results)} ops", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    golden["outputs"] = dict(sorted(golden["outputs"].items()))
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"golden: wrote {run.GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
