"""The etsgd benchmark: host throughput of four pinned simulations.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It generates the workload's inputs from the seed into a temporary directory
of the checkout, then measures the workload in a fresh process (see
measure.py) with BLAS pinned to one thread, so peak RSS is that of the
simulation alone.  The load is a closed loop: one simulation at a time.
Informational lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  The exit code is 1 when any run fails its correctness
gate, and 2 when the program cannot be found.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set before numpy is imported here or in the measuring process: BLAS on one
# thread, and one string-hash seed so dict layouts do not vary between runs.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# The measuring process gets this long beyond --seconds for set-up and checks.
GRACE_S = 120


def main(argv=None) -> int:
    if not (SRC / "etsgd" / "__init__.py").is_file():
        print(f"error: the etsgd sources are not at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if workload.make_inputs is not None:
            workload.make_inputs(args.seed, workdir)
        job = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "workdir": str(workdir),
            "src": str(SRC),
        }
        proc = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), json.dumps(job)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=args.seconds + GRACE_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"error: the measuring process exited with {proc.returncode}", file=sys.stderr)
        return 1
    out = json.loads(proc.stdout.splitlines()[-1])

    env = out["env"]
    print(f"workload {args.workload}, seed {args.seed}: {workload.size}")
    print(
        f"env: nproc {env['nproc']}, Python {env['python']}, numpy {env['numpy']}, "
        f"BLAS {env['blas']} with {env['blas_threads']} thread(s)"
    )
    print(f"digest: weights {out['digest']['weights']} trace {out['digest']['trace']}")
    if "run_s" in out:
        run_s = out["run_s"]
        print(
            f"timed runs: {out['runs']}, seconds per run median {run_s['median']:.4f} "
            f"min {run_s['min']:.4f} max {run_s['max']:.4f}"
        )
    else:
        print(f"traced runs: {out['runs']}")
        layers = {
            name.split(".")[0]: value
            for name, (value, _) in out["metrics"].items()
            if name.endswith(".self_s")
        }
        ranked = sorted(layers.items(), key=lambda kv: -kv[1])
        print("layer self time (s): " + ", ".join(f"{k} {v:.4f}" for k, v in ranked))
    print(f"gate: {out['failed']} of {out['attempted']} runs failed")
    for problem in out["problems"]:
        print(f"  {problem}")

    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
