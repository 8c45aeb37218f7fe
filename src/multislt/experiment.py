"""Desk-scale behavioral experiment on the synthetic multilingual task.

Generates the dataset, trains a multilingual model with one target-forcing
configuration, decodes a held-out split, and reports training losses, the
output-language audit, and token accuracy in one metrics dict.
"""

from __future__ import annotations

import os
import time

import numpy as np

from .decoding import decode_corpus
from .evaluate import language_audit, target_alphabets, token_accuracy
from .manifest import build_vocab
from .model import ModelConfig
from .synth import default_languages, synth_dataset
from .trainer import DESK_RECIPE, LRSchedule, load_examples, save_checkpoint, train_model


def moving_average(values, window: int) -> list[float]:
    if window < 1 or window > len(values):
        raise ValueError("bad window")
    csum = np.concatenate([[0.0], np.cumsum(values)])
    return [(csum[i + window] - csum[i]) / window
            for i in range(len(values) - window + 1)]


def run_toy_experiment(work_dir: str, seed: int = 17, n_languages: int = 3,
                       n_utt_per_lang: int = 3000, steps: int = DESK_RECIPE["steps"],
                       accum: int = DESK_RECIPE["accum"], warmup: int = DESK_RECIPE["warmup"],
                       lr_max: float = DESK_RECIPE["lr_max"],
                       forcing_mode: str = "merge", forcing_site: str = "pre",
                       eval_split: str = "test", max_eval: int | None = None,
                       checkpoint: str | None = None,
                       verbose: bool = False) -> dict:
    """Train on the synthetic task and measure the outcome.

    The defaults are the criterion-7 recipe, ``DESK_RECIPE`` at merge-at-pre.
    Returns a dict with per-update ``losses``, the per-language ``audit``
    fractions, corpus ``token_accuracy``, and wall-clock ``seconds``.
    """
    t0 = time.monotonic()
    languages = default_languages(n_languages)
    data_dir = os.path.join(work_dir, "data")
    _, entries = synth_dataset(data_dir, seed=seed, n_utt_per_lang=n_utt_per_lang,
                               languages=languages)
    lang_ids = [l.lang_id for l in languages]
    vocab = build_vocab(entries, lang_ids)
    train_examples = load_examples(entries, vocab, base_dir=data_dir, split="train")

    cfg = ModelConfig.desk(vocab_size=len(vocab), languages=lang_ids,
                           forcing_mode=forcing_mode, forcing_site=forcing_site)
    model, state, losses = train_model(cfg, train_examples, seed,
                                       LRSchedule(lr_max=lr_max, warmup=warmup),
                                       steps, accum, verbose=verbose)
    if checkpoint:
        save_checkpoint(checkpoint, model, vocab, state)

    model.eval()
    held = load_examples(entries, vocab, base_dir=data_dir, split=eval_split)
    if max_eval is not None:
        held = held[:max_eval]
    hyps = decode_corpus(model, vocab, [(ex.features, ex.lang) for ex in held], max_len=14)
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
