"""multislt benchmark: training and decoding on the synthetic task.

Run from the repository root:

    python3 perfbench/run.py --workload train_merge_pre --seed 17 --seconds 50 --trace 0

Workloads: ``train_merge_pre`` and ``decode_beam5`` (see ``workloads.py``).
``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
makes the traced run that gives the per-layer metrics, checks that tracing
changes no result, and writes its spans to ``.perfbench/``. The metric names and units are those declared in
``BENCHMARK.json``.

Lines starting with ``#`` are for people: environment, workload shape and
each metric with its unit. The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every output check passed, 1 when one failed, 2 when the benchmark
could not run (for example without the ``src/multislt`` sources).

The program runs in this one process, single-threaded: BLAS is pinned to
``BLAS_THREADS`` threads before numpy loads, and decoding uses one worker.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"git_sha": git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, "blas_threads": BLAS_THREADS}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--seconds", type=float, default=declared["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (ROOT / "src" / "multislt" / "__init__.py").is_file():
        print(f"perfbench: no multislt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work_dir = out_dir / f"work-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.npz"
            outcome = workloads.run_traced(wl, args.seed, args.seconds, work_dir, trace_path)
        else:
            outcome = workloads.run_untraced(wl, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if set(outcome.metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(outcome.metrics) ^ set(units))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed}: {outcome.notes['samples']}")
    print("# shape " + json.dumps(outcome.notes["shape"], sort_keys=True))
    print(f"# failed_frac {outcome.notes['failed_frac']:.6g} "
          f"({outcome.failed} of {outcome.attempted} attempted)")
    for name in units:
        print(f"# {name} = {outcome.metrics[name]:.6g} {units[name]}")
    for problem in outcome.problems:
        print(f"# CHECK FAILED: {problem}")
    correct = not outcome.problems
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": {name: {"value": float(outcome.metrics[name]), "unit": units[name]}
                                  for name in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
