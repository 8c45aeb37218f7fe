"""Desk-scale behavioral experiment on the synthetic multilingual task.

Generates the dataset, trains a multilingual model with one target-forcing
configuration and decodes a held-out split, by the path of ``multislt train``
and ``translate`` (``train_run``, ``decode_split``). Reports training losses,
the output-language audit, and token accuracy in one metrics dict.
"""

from __future__ import annotations

import os
import time

import numpy as np

from .decoding import decode_split
from .evaluate import language_audit, target_alphabets, token_accuracy
from .synth import default_languages, synth_dataset
from .trainer import RunConfig, train_run


def moving_average(values, window: int) -> list[float]:
    if window < 1 or window > len(values):
        raise ValueError("bad window")
    csum = np.concatenate([[0.0], np.cumsum(values)])
    return [(csum[i + window] - csum[i]) / window
            for i in range(len(values) - window + 1)]


def run_toy_experiment(work_dir: str, seed: int = 17, n_languages: int = 3,
                       n_utt_per_lang: int = 3000, steps: int = RunConfig.steps,
                       accum: int = RunConfig.accum, warmup: int = RunConfig.warmup,
                       lr_max: float = RunConfig.lr_max,
                       forcing_mode: str = "merge", forcing_site: str = "pre",
                       eval_split: str = "test", max_eval: int | None = None,
                       checkpoint: str | None = None,
                       verbose: bool = False) -> dict:
    """Train on the synthetic task and measure the outcome.

    The defaults are the criterion-7 recipe, ``RunConfig``'s at merge-at-pre.
    Returns a dict with per-update ``losses``, the per-language ``audit``
    fractions, corpus ``token_accuracy``, and wall-clock ``seconds``.
    """
    t0 = time.monotonic()
    data_dir = os.path.join(work_dir, "data")
    manifest, entries = synth_dataset(data_dir, seed=seed, n_utt_per_lang=n_utt_per_lang,
                                      languages=default_languages(n_languages))
    model, vocab, _, losses = train_run(RunConfig(
        manifest=manifest, seed=seed, steps=steps, accum=accum, warmup=warmup,
        lr_max=lr_max, forcing=forcing_mode, site=forcing_site, save=checkpoint), verbose)
    rows = [e for e in entries if e.split == eval_split][:max_eval]
    held, hyps = decode_split(model, vocab, rows, data_dir, eval_split, max_len=14)
    audit = language_audit([(ex.lang, h.text) for ex, h in zip(held, hyps)],
                           target_alphabets(entries))
    acc = token_accuracy([h.text for h in hyps],
                         [vocab.decode(ex.target_ids) for ex in held])
    return {
        "losses": losses,
        "audit": audit,
        "token_accuracy": acc,
        "n_eval": len(held),
        "updates": len(losses),
        "seconds": time.monotonic() - t0,
    }
