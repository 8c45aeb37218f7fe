#!/usr/bin/env python3
"""Compare target-forcing configurations on a small synthetic task.

Trains one model per (mode, site) combination on the same dataset and
reports final training loss and the output-language audit on the dev
split, mirroring the Pre/Post/Final/Decoder × concat/merge comparison at
desk scale.

Example:
    python scripts/forcing_comparison.py --n-utt 400 --steps 150
"""

import argparse
import json
import tempfile

from multislt.experiment import run_toy_experiment

CONFIGS = [("merge", "pre"), ("merge", "final"), ("merge", "decoder"),
           ("concat", "pre"), ("concat", "final"), ("concat", "decoder")]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work-dir", default=None)
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--languages", type=int, default=2)
    ap.add_argument("--n-utt", type=int, default=400)
    ap.add_argument("--steps", type=int, default=150)
    ap.add_argument("--warmup", type=int, default=80)
    ap.add_argument("--lr-max", type=float, default=0.003)
    args = ap.parse_args(argv)

    work_dir = args.work_dir or tempfile.mkdtemp(prefix="forcing_cmp_")
    results = {}
    for mode, site in CONFIGS:
        result = run_toy_experiment(
            work_dir, seed=args.seed, n_languages=args.languages,
            n_utt_per_lang=args.n_utt, steps=args.steps, accum=1,
            warmup=args.warmup, lr_max=args.lr_max, forcing_mode=mode,
            forcing_site=site, eval_split="dev")
        last, audit = result["losses"][-1], result["audit"]
        results[f"{mode}-{site}"] = {"final_loss": round(last, 4),
                                     "audit": {k: round(v, 3)
                                               for k, v in sorted(audit.items())}}
        print(f"{mode}-{site}: loss {last:.4f}  audit {audit}", flush=True)

    print(json.dumps(results, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
