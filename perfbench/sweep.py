"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads decode_beam5]
        [--seconds 20] [--out results.json]

Runs ``perfbench/run.py`` once per (seed, workload), one run at a time, and
for each end-to-end metric prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
interquartile distance as a share of the median, next to the metric's bound
from ``BENCHMARK.json``. ``--out`` writes every value and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The run's result line and its environment line."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:  # 1: an output check failed
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    env = next(json.loads(x[len("# env "):]) for x in lines if x.startswith("# env "))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=declared["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("need at least two seeds for quartiles")

    values = {w: {m["name"]: [] for m in declared["end_to_end"]} for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            result, env = run_once(w, seed, args.seconds, 0)
            if not result["correct"]:
                print(f"{w} seed {seed}: output check failed", file=sys.stderr)
                return 1
            for name, v in result["metrics"].items():
                values[w][name].append(v["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={v['value']:.4g}" for n, v in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    summary = {w: {n: summarize(v) for n, v in ms.items()} for w, ms in values.items()}
    print(f"\n{'workload':16} {'metric':15} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for w, ms in summary.items():
        for n, s in ms.items():
            flag = "" if s["spread"] < bounds[n] / 3 else "  > bound/3"
            print(f"{w:16} {n:15} {s['median']:10.4g} {s['q1']:10.4g} {s['q3']:10.4g} "
                  f"{s['spread']:7.3f} {bounds[n]:6.2f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": env, "seeds": args.seeds, "seconds": args.seconds,
             "summary": summary, "values": values}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
