"""Deterministic synthetic multilingual task.

Each utterance is a random token sequence. Its "audio" is a fixed 40-dim
pattern per token repeated over 8 frames plus seeded Gaussian noise. Each
synthetic language renders a bijective transform of the token sequence in
its own disjoint alphabet, so "wrong language" output is unambiguous.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .audio import FeatureSequence, write_feature_archive
from .manifest import ManifestEntry, write_manifest

N_FEAT = 40
FRAMES_PER_TOKEN = 8
SOURCE_LETTERS = "abcdefghijklmnopqrst"  # token_vocab <= 20 by default
LEN_RANGE = (3, 10)     # tokens per utterance, inclusive
SPLITS = (0.9, 0.05)    # train and dev shares; the rest is test

# Disjoint codepoint ranges; "en" (ASR rows) uses the lowercase source letters.
_ALPHABET_STARTS = [0x41, 0x3B1, 0x430, 0x5D0, 0x391, 0x410]


@dataclass
class SyntheticLanguage:
    lang_id: str
    alphabet: str                  # disjoint character range, one per token id
    transform: str                 # "reverse" or "shift<k>"

    def apply(self, tokens: list[int], vocab_size: int) -> list[int]:
        if self.transform == "reverse":
            return tokens[::-1]
        if self.transform.startswith("shift"):
            k = int(self.transform[5:])
            return [(t + k) % vocab_size for t in tokens]
        raise ValueError(f"unknown transform {self.transform!r}")

    def render(self, tokens: list[int]) -> str:
        return "".join(self.alphabet[t] for t in tokens)


def default_languages(n: int, token_vocab: int = 20) -> list[SyntheticLanguage]:
    if n < 2:
        raise ValueError("need at least 2 synthetic languages")
    if n > len(_ALPHABET_STARTS):
        raise ValueError(f"at most {len(_ALPHABET_STARTS)} synthetic languages supported")
    transforms = ["reverse", "shift1", "shift5", "shift9", "shift13", "shift17"]
    langs = []
    for i in range(n):
        alphabet = "".join(chr(_ALPHABET_STARTS[i] + t) for t in range(token_vocab))
        langs.append(SyntheticLanguage(f"L{i}", alphabet, transforms[i]))
    return langs


def alphabet_map(languages: list[SyntheticLanguage]) -> dict[str, set[str]]:
    return {l.lang_id: set(l.alphabet) for l in languages}


def token_patterns(seed: int, token_vocab: int = 20) -> np.ndarray:
    """The fixed per-token 40-dim pattern table; shared by every split."""
    rng = np.random.default_rng((seed, 7001))
    return rng.normal(size=(token_vocab, N_FEAT))


def render_audio(tokens: list[int], patterns: np.ndarray,
                 noise_sigma: float, rng: np.random.Generator) -> np.ndarray:
    frames = np.repeat(patterns[tokens], FRAMES_PER_TOKEN, axis=0)
    if noise_sigma > 0:
        frames = frames + rng.normal(0.0, noise_sigma, frames.shape)
    return frames


def synth_dataset(out_dir: str, seed: int, n_utt_per_lang: int,
                  languages: list[SyntheticLanguage], token_vocab: int = 20,
                  noise_sigma: float = 0.05):
    """Write manifest.tsv and data.feats(+.idx); byte-identical per seed.

    Utterances are rendered and written one at a time, so memory does not
    grow with ``n_utt_per_lang`` beyond the manifest rows.

    Returns (manifest_path, entries). Split tags: first 90% train, then 5%
    dev, rest test (per language, in generation order).
    """
    os.makedirs(out_dir, exist_ok=True)
    patterns = token_patterns(seed, token_vocab)
    rng = np.random.default_rng((seed, 1))
    entries: list[ManifestEntry] = []
    n_train = int(n_utt_per_lang * SPLITS[0])
    n_dev = int(n_utt_per_lang * SPLITS[1])

    def utterances():
        for lang in languages:
            for i in range(n_utt_per_lang):
                length = int(rng.integers(LEN_RANGE[0], LEN_RANGE[1] + 1))
                tokens = [int(t) for t in rng.integers(0, token_vocab, length)]
                frames = render_audio(tokens, patterns, noise_sigma, rng)
                utt_id = f"{lang.lang_id}_{i:06d}"
                transcript = "".join(SOURCE_LETTERS[t] for t in tokens)
                target = lang.render(lang.apply(tokens, token_vocab))
                split = "train" if i < n_train else ("dev" if i < n_train + n_dev else "test")
                entries.append(ManifestEntry(f"data.feats#{utt_id}", transcript,
                                             target, lang.lang_id, split))
                yield FeatureSequence(utt_id, frames)

    write_feature_archive(os.path.join(out_dir, "data.feats"), utterances())
    manifest_path = os.path.join(out_dir, "manifest.tsv")
    write_manifest(manifest_path, entries)
    return manifest_path, entries
