import threading

import numpy as np
import pytest

from multislt import decoding
from multislt.decoding import beam_decode, decode_corpus, greedy_decode
from multislt.manifest import EOS_ID, Vocabulary
from multislt.model import ModelConfig, SpeechTransformer


def _model(seed=0):
    cfg = ModelConfig(vocab_size=12, d_model=16, ff_hidden=32, n_heads=2,
                      n_encoder_layers=1, n_decoder_layers=1)
    return SpeechTransformer(cfg, seed=seed).eval()


VOCAB = Vocabulary("abcdefgh")


def test_decode_requires_eval_mode():
    m = _model()
    m.train()
    with pytest.raises(RuntimeError, match="frozen"):
        greedy_decode(m, VOCAB, np.zeros((8, 40)))


def test_forced_eos_gives_empty_string():
    m = _model()
    m.decoder.out_proj.weight.data[:] = 0.0
    m.decoder.out_proj.bias.data[:] = 0.0
    m.decoder.out_proj.bias.data[EOS_ID] = 50.0
    hyp = greedy_decode(m, VOCAB, np.random.default_rng(0).normal(size=(12, 40)))
    assert hyp.text == ""
    assert hyp.ids[-1] == EOS_ID
    assert not hyp.truncated


def test_max_len_sets_truncation_flag():
    m = _model()
    m.decoder.out_proj.bias.data[EOS_ID] = -100.0
    hyp = greedy_decode(m, VOCAB, np.zeros((12, 40)), max_len=5)
    assert hyp.truncated
    assert len(hyp.ids) == 6  # bos + 5


def test_logprob_is_sum_of_step_logprobs():
    m = _model(seed=2)
    hyp = greedy_decode(m, VOCAB, np.random.default_rng(1).normal(size=(16, 40)),
                        max_len=8)
    assert hyp.logprob <= 0.0


def test_beam_one_equals_greedy_many_inputs():
    m = _model(seed=3)
    rng = np.random.default_rng(4)
    for _ in range(50):
        feats = rng.normal(size=(rng.integers(8, 30), 40))
        g = greedy_decode(m, VOCAB, feats, max_len=15)
        b = beam_decode(m, VOCAB, feats, beam=1, max_len=15)
        assert g.ids == b.ids
        assert g.logprob == pytest.approx(b.logprob, abs=1e-12)


def test_beam_five_not_worse_than_greedy():
    m = _model(seed=5)
    rng = np.random.default_rng(6)
    alpha = 0.6
    for _ in range(20):
        feats = rng.normal(size=(rng.integers(8, 24), 40))
        g = greedy_decode(m, VOCAB, feats, max_len=12)
        b = beam_decode(m, VOCAB, feats, beam=5, alpha=alpha, max_len=12)
        gs = g.logprob / max(len(g.ids) - 1, 1) ** alpha
        bs = b.logprob / max(len(b.ids) - 1, 1) ** alpha
        assert bs >= gs - 1e-9


def test_decoding_deterministic_across_worker_counts(monkeypatch):
    m = _model(seed=7)
    rng = np.random.default_rng(8)
    items = [(rng.normal(size=(rng.integers(8, 20), 40)), None) for _ in range(12)]
    serial = decode_corpus(m, VOCAB, items, workers=1, max_len=10)
    threads = []

    def spy(*args, **kwargs):
        threads.append((threading.current_thread(), threading.active_count()))
        return beam_decode(*args, **kwargs)

    monkeypatch.setattr(decoding, "beam_decode", spy)
    parallel = decode_corpus(m, VOCAB, items, workers=8, max_len=10)
    assert threads == [(threading.current_thread(), threading.active_count())] * len(items)
    assert [h.ids for h in serial] == [h.ids for h in parallel]
    assert [h.text for h in serial] == [h.text for h in parallel]


def test_decode_split_memory_does_not_grow_with_split(tmp_path):
    """decode_split reads each utterance's features as it decodes it: from 10
    to 100 test utterances, its traced peak grows by the examples and
    hypotheses (0.07 MB measured), not by the 90 more feature matrices that
    a list of every utterance's features holds (1.8 MB measured)."""
    import tracemalloc

    from multislt.audio import FeatureSequence, write_feature_archive
    from multislt.manifest import ManifestEntry

    m = _model()
    rng = np.random.default_rng(0)
    peaks = []
    for n in (10, 100):
        root = tmp_path / str(n)
        root.mkdir()
        frames = (FeatureSequence(f"u{i}", rng.normal(size=(60, 40))) for i in range(n))
        write_feature_archive(str(root / "x.feats"), frames)
        entries = [ManifestEntry(f"x.feats#u{i}", "ab", "ab", "L0", "test") for i in range(n)]
        tracemalloc.start()
        try:
            _, hyps = decoding.decode_split(m, VOCAB, entries, str(root), "test", max_len=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(hyps) == n
    assert peaks[1] - peaks[0] <= 1_000_000, peaks


def test_decoded_text_excludes_reserved_tokens():
    m = _model(seed=9)
    hyp = greedy_decode(m, VOCAB, np.random.default_rng(10).normal(size=(10, 40)),
                        max_len=6)
    assert all(ch in "abcdefgh" for ch in hyp.text)


def test_beam_hypotheses_end_in_eos_or_reach_max_len():
    m = _model(seed=0)
    m.decoder.out_proj.bias.data[EOS_ID] += 0.5  # EOS ranks high, rarely first
    rng = np.random.default_rng(0)
    for _ in range(10):
        hyp = beam_decode(m, VOCAB, rng.normal(size=(12, 40)), beam=5, max_len=10)
        if hyp.truncated:
            assert len(hyp.ids) == 11  # bos + max_len
        else:
            assert hyp.ids[-1] == EOS_ID


@pytest.mark.parametrize("kwargs", [{"beam": 0, "max_len": 3}, {"beam": -1, "max_len": 3},
                                    {"max_len": 0}])
def test_nonsense_search_settings_rejected(kwargs):
    m = _model()
    feats = np.zeros((8, 40))
    with pytest.raises(ValueError, match="at least 1"):
        beam_decode(m, VOCAB, feats, **kwargs)
    with pytest.raises(ValueError, match="at least 1"):
        decode_corpus(m, VOCAB, [], **kwargs)
