"""Autoregressive character decoding: greedy and beam search."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .manifest import BOS_ID, EOS_ID, Vocabulary
from .model import SpeechTransformer


@dataclass
class Hypothesis:
    ids: list[int]            # bos ... eos
    logprob: float            # sum of per-step log-softmax values
    text: str                 # decoded string, reserved tokens excluded
    truncated: bool = False


def _log_softmax(row: np.ndarray) -> np.ndarray:
    shifted = row - row.max()
    return shifted - np.log(np.exp(shifted).sum())


def _norm(logprob: float, n_tokens: int, alpha: float) -> float:
    return logprob / max(n_tokens, 1) ** alpha


def _step_logits(model: SpeechTransformer, enc, prefix: list[int], lang) -> np.ndarray:
    logits = model.decode_logits(enc, np.array([prefix]), lang)
    return logits.data[0, -1]


def greedy_decode(model: SpeechTransformer, vocab: Vocabulary, features: np.ndarray,
                  lang: str | None = None, max_len: int = 200) -> Hypothesis:
    """Argmax per step until eos or max_len. Model must be in eval mode."""
    if model.training:
        raise RuntimeError("decode on a frozen model (call .eval())")
    enc = model.encode(features[None], [features.shape[0]], lang)
    prefix = [BOS_ID]
    logprob = 0.0
    truncated = True
    for _ in range(max_len):
        logp = _log_softmax(_step_logits(model, enc, prefix, lang))
        nxt = int(np.argmax(logp))
        logprob += float(logp[nxt])
        prefix.append(nxt)
        if nxt == EOS_ID:
            truncated = False
            break
    return Hypothesis(prefix, logprob, vocab.decode(prefix), truncated)


def beam_decode(model: SpeechTransformer, vocab: Vocabulary, features: np.ndarray,
                lang: str | None = None, beam: int = 5, alpha: float = 0.6,
                max_len: int = 200) -> Hypothesis:
    """Keep the top-`beam` prefixes by length-normalized score; beam=1 ≡ greedy.

    The search stops once no live prefix can beat the best finished
    hypothesis: log-probabilities only fall, so a live prefix scores at
    most ``lp / max_len ** alpha``. Live prefixes count as (truncated)
    hypotheses only when the search reaches ``max_len``.
    """
    if model.training:
        raise RuntimeError("decode on a frozen model (call .eval())")
    enc = model.encode(features[None], [features.shape[0]], lang)
    live = [([BOS_ID], 0.0)]
    finished: list[tuple[list[int], float, bool]] = []
    best = -np.inf
    for _ in range(max_len):
        candidates = []
        for prefix, lp in live:
            logp = _log_softmax(_step_logits(model, enc, prefix, lang))
            top = np.argsort(logp)[::-1][:beam]
            for tok in top:
                candidates.append((prefix + [int(tok)], lp + float(logp[tok])))
        candidates.sort(key=lambda c: _norm(c[1], len(c[0]) - 1, alpha), reverse=True)
        live = [(prefix, lp) for prefix, lp in candidates if prefix[-1] != EOS_ID][:beam]
        for prefix, lp in candidates:
            if prefix[-1] == EOS_ID:
                finished.append((prefix, lp, False))
                best = max(best, _norm(lp, len(prefix) - 1, alpha))
        if not live or best >= max(lp for _, lp in live) / max_len ** alpha:
            break
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
    def one(item):
        features, lang = item
        if beam == 1:
            return greedy_decode(model, vocab, features, lang, max_len)
        return beam_decode(model, vocab, features, lang, beam, alpha, max_len)

    if workers <= 1:
        return [one(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, items))
