#!/usr/bin/env python3
"""Run the desk-scale multilingual experiment and print a metrics report.

Flags left out take run_toy_experiment's defaults, the criterion-7 recipe.

Example:
    python scripts/toy_experiment.py --work-dir /tmp/toy --steps 600
"""

import argparse
import json
import tempfile

from multislt.experiment import moving_average, run_toy_experiment


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                 argument_default=argparse.SUPPRESS)
    ap.add_argument("--work-dir", default=None,
                    help="dataset/checkpoint directory (default: temp dir)")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--languages", dest="n_languages", type=int)
    ap.add_argument("--n-utt", dest="n_utt_per_lang", type=int)
    ap.add_argument("--steps", type=int)
    ap.add_argument("--accum", type=int)
    ap.add_argument("--warmup", type=int)
    ap.add_argument("--lr-max", type=float)
    ap.add_argument("--checkpoint")
    ap.add_argument("--max-eval", type=int)
    kwargs = vars(ap.parse_args(argv))

    work_dir = kwargs.pop("work_dir") or tempfile.mkdtemp(prefix="toyexp_")
    result = run_toy_experiment(work_dir, verbose=True, **kwargs)

    # a short run averages over all its updates
    ma = moving_average(result["losses"], min(20, len(result["losses"])))
    summary = {
        "updates": result["updates"],
        "first_ma20": ma[0],
        "last_ma20": ma[-1],
        "ma20_strictly_decreasing_first_200": all(
            b < a for a, b in zip(ma[:181], ma[1:181])),
        "audit": result["audit"],
        "token_accuracy": result["token_accuracy"],
        "n_eval": result["n_eval"],
        "seconds": round(result["seconds"], 1),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
