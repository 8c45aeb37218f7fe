import hashlib
import tracemalloc

import numpy as np
import pytest

from multislt import synth
from multislt.manifest import build_vocab, read_manifest
from multislt.synth import default_languages, synth_dataset


def test_alphabets_pairwise_disjoint():
    langs = default_languages(6)
    for i, a in enumerate(langs):
        for b in langs[i + 1:]:
            assert not set(a.alphabet) & set(b.alphabet)
        assert not set(a.alphabet) & set(synth.SOURCE_LETTERS)


def test_transforms_are_bijections():
    for lang in default_languages(6):
        seq = list(range(20))
        out = lang.apply(seq, 20)
        assert sorted(out) == seq


def test_reverse_and_shift_transforms():
    langs = default_languages(3)
    assert langs[0].apply([1, 2, 3], 20) == [3, 2, 1]
    assert langs[1].apply([1, 2, 19], 20) == [2, 3, 0]


def test_dataset_byte_identical_per_seed(tmp_path):
    langs = default_languages(2)
    for d in ("a", "b"):
        synth_dataset(str(tmp_path / d), seed=5, n_utt_per_lang=20, languages=langs)
    for name in ("manifest.tsv", "data.feats", "data.feats.idx"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_dataset_differs_across_seeds(tmp_path):
    langs = default_languages(2)
    synth_dataset(str(tmp_path / "a"), seed=5, n_utt_per_lang=10, languages=langs)
    synth_dataset(str(tmp_path / "b"), seed=6, n_utt_per_lang=10, languages=langs)
    assert (tmp_path / "a" / "data.feats").read_bytes() != \
        (tmp_path / "b" / "data.feats").read_bytes()


def test_manifest_loads_and_vocab_covers_targets(tmp_path):
    langs = default_languages(3)
    path, entries = synth_dataset(str(tmp_path), seed=1, n_utt_per_lang=30,
                                  languages=langs)
    loaded = read_manifest(path, languages=[l.lang_id for l in langs])
    assert len(loaded) == 90
    vocab = build_vocab(loaded, [l.lang_id for l in langs])
    for e in loaded:
        if e.split == "train":
            ids = vocab.encode(e.target_text, add_bos_eos=False)
            assert vocab.decode(ids) == e.target_text


def test_split_fractions(tmp_path):
    langs = default_languages(2)
    _, entries = synth_dataset(str(tmp_path), seed=2, n_utt_per_lang=100,
                               languages=langs)
    per_lang = [e for e in entries if e.lang == "L0"]
    counts = {s: sum(1 for e in per_lang if e.split == s)
              for s in ("train", "dev", "test")}
    assert counts == {"train": 90, "dev": 5, "test": 5}


def test_language_count_bounds():
    with pytest.raises(ValueError):
        default_languages(1)
    with pytest.raises(ValueError):
        default_languages(7)


# sha256 of the files a fixed seed writes, taken from the program before the
# archive was streamed; any change to the bytes is a change of the corpus.
PINNED = {
    (5, 2, 20): {"data.feats": "6f1820c14432e2cf1551aad4200f96c347a5e0c82c9b6a1fcae7193422a164f5",
                 "data.feats.idx": "be9941e9ec3be26ef1f319dad442f91aaaf9b53c927fa1ea049fe2897fafc8eb",
                 "manifest.tsv": "9fb7f32ae0ab549bd91e649c10d26112d6b0ad11990ae72bf554f7a54207e15e"},
    (11, 3, 40): {"data.feats": "c4a5af4e16ce5ecd6588284ef2959117a5a5890c1e338f64b2bcdefbcda18cf7",
                  "data.feats.idx": "62f8a78f651322626498b478ec79bbfb931d47a655007ce792711abda0a1c316",
                  "manifest.tsv": "c0119b66deb1aaf5bf7fb00602e9cdb92e93b6299734e7b66afb571d8056480f"},
}


@pytest.mark.parametrize("seed, n_lang, n_utt", list(PINNED))
def test_dataset_bytes_pinned(tmp_path, seed, n_lang, n_utt):
    synth_dataset(str(tmp_path), seed=seed, n_utt_per_lang=n_utt,
                  languages=default_languages(n_lang))
    for name, digest in PINNED[seed, n_lang, n_utt].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_dataset_memory_does_not_grow_with_corpus(tmp_path):
    """Utterances are written as they are rendered: at 3×1200 utterances
    the traced peak is the manifest rows, not 3600 frame matrices (≈59 MB)."""
    tracemalloc.start()
    try:
        synth_dataset(str(tmp_path), seed=1, n_utt_per_lang=1200,
                      languages=default_languages(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000
