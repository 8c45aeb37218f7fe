"""Corpus BLEU and the output-language audit."""

from __future__ import annotations

import math
from collections import Counter


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses: list[str], references: list[str], max_n: int = 4) -> float:
    """Corpus-level BLEU in [0, 100], whitespace tokenization.

    Zero n-gram matches for n >= 2 take an add-one smoothed path; the
    brevity penalty is the usual exp(1 - ref/hyp) for short output.
    """
    if len(hypotheses) != len(references):
        raise ValueError(f"corpus size mismatch: {len(hypotheses)} vs {len(references)}")
    if not hypotheses:
        raise ValueError("empty corpus")
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        h, r = hyp.split(), ref.split()
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, max_n + 1):
            hc, rc = _ngrams(h, n), _ngrams(r, n)
            matches[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())
            totals[n - 1] += max(len(h) - n + 1, 0)
    log_prec = 0.0
    effective = 0
    for n in range(1, max_n + 1):
        m, t = matches[n - 1], totals[n - 1]
        if t == 0:
            continue  # corpus too short for this order
        if m == 0:
            if n == 1:
                return 0.0
            m, t = m + 1, t + 1  # add-one smoothing on n >= 2
        log_prec += math.log(m / t)
        effective += 1
    if effective == 0:
        return 0.0
    log_prec /= effective
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    return 100.0 * bp * math.exp(log_prec)


def token_accuracy(hypotheses: list[str], references: list[str]) -> float:
    """Mean fraction of positionally matching tokens per utterance.

    Each pair scores (# positions where tokens agree) / max(len_h, len_r);
    strings are compared character-by-character (character targets).
    """
    if len(hypotheses) != len(references):
        raise ValueError(f"corpus size mismatch: {len(hypotheses)} vs {len(references)}")
    if not hypotheses:
        raise ValueError("empty corpus")
    scores = []
    for h, r in zip(hypotheses, references):
        denom = max(len(h), len(r))
        if denom == 0:
            scores.append(1.0)
            continue
        scores.append(sum(a == b for a, b in zip(h, r)) / denom)
    return sum(scores) / len(scores)


def target_alphabets(entries) -> dict[str, set[str]]:
    """Per-language character sets of the training targets, for the audit.

    Takes manifest entries. Only ``train`` rows count, because the
    vocabulary is built from them.
    """
    out: dict[str, set[str]] = {}
    for e in entries:
        if e.split == "train":
            out.setdefault(e.lang, set()).update(e.target_text)
    return out


def classify_language(text: str, alphabets: dict[str, set[str]]) -> str | None:
    """Majority character membership over disjoint alphabets; None if empty/tied."""
    counts = {lang: sum(1 for c in text if c in chars)
              for lang, chars in alphabets.items()}
    if not counts or not any(counts.values()):
        return None
    best = max(sorted(counts), key=lambda lang: counts[lang])
    ties = [lang for lang, c in counts.items() if c == counts[best]]
    return best if len(ties) == 1 else None


def language_audit(tagged_hypotheses: list[tuple[str, str]],
                   alphabets: dict[str, set[str]]) -> dict[str, float]:
    """Fraction of hypotheses in the requested language, per language.

    ``tagged_hypotheses`` holds (requested_lang, text); an empty hypothesis
    counts as wrong-language.
    """
    correct: dict[str, int] = {}
    total: dict[str, int] = {}
    for lang, text in tagged_hypotheses:
        total[lang] = total.get(lang, 0) + 1
        if classify_language(text, alphabets) == lang:
            correct[lang] = correct.get(lang, 0) + 1
    return {lang: correct.get(lang, 0) / n for lang, n in total.items()}
