"""The benchmark's traced run still works: ``--trace 1`` looks up every name in
``perfbench/spans.py``'s ``TENSOR_OPS`` and wraps the program functions the
workloads call, so a renamed or removed one fails here rather than only in a
manual benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["train_merge_pre", "decode_beam5"])
def test_traced_benchmark_run_is_correct(workload):
    trace = ROOT / ".perfbench" / f"trace-{workload}-seed17.npz"  # run.py's default seed
    try:
        run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                              "--seconds", "1", "--trace", "1"],
                             cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stdout + run.stderr
        assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
    finally:
        trace.unlink(missing_ok=True)
