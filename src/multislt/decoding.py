"""Autoregressive character decoding: beam search, of which greedy is beam 1,
and ``decode_split``, which ``translate`` and ``run_toy_experiment`` share.

Decoding records no autodiff graph, and each search step makes one
decoder call for all live prefixes, reusing their cached keys and values.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .manifest import BOS_ID, EOS_ID, ManifestEntry, Vocabulary
from .model import DecoderCache, SpeechTransformer
from .trainer import Example, load_examples


@dataclass
class Hypothesis:
    ids: list[int]            # bos ... eos
    logprob: float            # sum of per-step log-softmax values
    text: str                 # decoded string, reserved tokens excluded
    truncated: bool = False


def _log_softmax(rows: np.ndarray) -> np.ndarray:
    shifted = rows - rows.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _norm(logprob: float, n_tokens: int, alpha: float) -> float:
    return logprob / max(n_tokens, 1) ** alpha


def _check_search(beam: int, max_len: int):
    if beam < 1:
        raise ValueError(f"beam must be at least 1, got {beam}")
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")


def greedy_decode(model: SpeechTransformer, vocab: Vocabulary, features: np.ndarray,
                  lang: str | None = None, max_len: int = 200) -> Hypothesis:
    """Argmax per step until eos or max_len: beam search with one hypothesis."""
    return beam_decode(model, vocab, features, lang, beam=1, max_len=max_len)


def beam_decode(model: SpeechTransformer, vocab: Vocabulary, features: np.ndarray,
                lang: str | None = None, beam: int = 5, alpha: float = 0.6,
                max_len: int = 200) -> Hypothesis:
    """Keep the top-`beam` prefixes by length-normalized score; beam=1 is greedy.

    Each step scores every live prefix in one cached decoder call. A
    prefix's top `beam` tokens are taken in score order, ties to the lower
    id (as argmax does). The search stops once no live prefix can beat the
    best finished hypothesis: log-probabilities only fall, so a live prefix
    scores at most ``lp / max_len ** alpha``. Live prefixes count as
    (truncated) hypotheses only when the search reaches ``max_len``.
    Model must be in eval mode.
    """
    if model.training:
        raise RuntimeError("decode on a frozen model (call .eval())")
    _check_search(beam, max_len)
    with T.no_grad():
        enc = model.encode(features[None], [features.shape[0]], lang)
        cache = DecoderCache()
        live = [([BOS_ID], 0.0)]
        finished: list[tuple[list[int], float, bool]] = []
        best = -np.inf
        for _ in range(max_len):
            logits = model.decode_logits(enc, np.array([p for p, _ in live]), lang,
                                         cache=cache)
            logp = _log_softmax(logits.data[:, -1])
            top = np.argsort(-logp, axis=-1, kind="stable")[:, :beam]
            candidates = [(row, prefix + [int(tok)], lp + float(logp[row, tok]))
                          for row, (prefix, lp) in enumerate(live) for tok in top[row]]
            candidates.sort(key=lambda c: _norm(c[2], len(c[1]) - 1, alpha), reverse=True)
            kept = [c for c in candidates if c[1][-1] != EOS_ID][:beam]
            for _, prefix, lp in candidates:
                if prefix[-1] == EOS_ID:
                    finished.append((prefix, lp, False))
                    best = max(best, _norm(lp, len(prefix) - 1, alpha))
            live = [(prefix, lp) for _, prefix, lp in kept]
            if not live or best >= max(lp for _, lp in live) / max_len ** alpha:
                break
            cache.select([row for row, _, _ in kept])
        else:
            finished += [(prefix, lp, True) for prefix, lp in live]
    ids, lp, truncated = max(finished,
                             key=lambda c: _norm(c[1], len(c[0]) - 1, alpha))
    return Hypothesis(ids, lp, vocab.decode(ids), truncated)


def decode_corpus(model: SpeechTransformer, vocab: Vocabulary, items,
                  beam: int = 1, alpha: float = 0.6, max_len: int = 200,
                  workers: int = 1) -> list[Hypothesis]:
    """Decode (features, lang) pairs, optionally across concurrent workers.

    The model is frozen, so results are identical for any worker count.
    """
    _check_search(beam, max_len)

    def one(item):
        features, lang = item
        return beam_decode(model, vocab, features, lang, beam, alpha, max_len)

    if workers <= 1:
        return [one(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, items))


def decode_split(model: SpeechTransformer, vocab: Vocabulary, entries: list[ManifestEntry],
                 base_dir: str, split: str, beam: int = 1, max_len: int = 200,
                 workers: int = 1) -> tuple[list[Example], list[Hypothesis]]:
    """Load the ``split`` rows of ``entries`` (paths relative to ``base_dir``)
    and decode them with the model in eval mode: (examples, hypotheses).

    With one worker, each utterance's features are read as it is decoded."""
    model.eval()
    examples = load_examples(entries, vocab, base_dir=base_dir, split=split)
    return examples, decode_corpus(model, vocab, ((ex.features, ex.lang) for ex in examples),
                                   beam=beam, max_len=max_len, workers=workers)
