from pathlib import Path

import numpy as np
import pytest

import multislt.tensor as T
from multislt.forcing import LanguageEmbeddingTable, apply_concat, apply_merge
from multislt.manifest import BOS_ID, Vocabulary
from multislt.model import ModelConfig, SpeechTransformer, encoder_length
from multislt.optim import AdamState
from multislt.tensor import ShapeError, Tensor, grad_check
from multislt.trainer import (Example, LRSchedule, batch_loss, load_checkpoint,
                              make_batch, save_checkpoint, train_step)


def test_apply_concat_prepends_row():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(10, 40)))
    l = Tensor(rng.normal(size=40))
    out = apply_concat(x, l)
    assert out.shape == (11, 40)
    np.testing.assert_array_equal(out.data[0], l.data)
    np.testing.assert_array_equal(out.data[1:], x.data)


def test_concat_removing_row0_recovers_input_bit_exactly():
    rng = np.random.default_rng(1)
    x = np.asarray(rng.normal(size=(7, 12)))
    out = apply_concat(Tensor(x), Tensor(rng.normal(size=12)))
    assert np.array_equal(out.data[1:], x)


def test_concat_two_languages_differ_only_in_row0():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(5, 8)))
    a = apply_concat(x, Tensor(rng.normal(size=8)))
    b = apply_concat(x, Tensor(rng.normal(size=8)))
    np.testing.assert_array_equal(a.data[1:], b.data[1:])
    assert not np.array_equal(a.data[0], b.data[0])


def test_apply_concat_and_merge_broadcast_over_batch_and_channels():
    rng = np.random.default_rng(20)
    x = Tensor(rng.normal(size=(2, 3, 5, 4)))         # B×C×T×F
    l = Tensor(rng.normal(size=(2, 1, 1, 4)))         # one vector per utterance
    out = apply_concat(x, l)
    assert out.shape == (2, 3, 6, 4)
    np.testing.assert_array_equal(out.data[:, :, 0], np.broadcast_to(l.data[:, :, 0], (2, 3, 4)))
    np.testing.assert_array_equal(out.data[:, :, 1:], x.data)
    np.testing.assert_array_equal(apply_merge(x, l).data, x.data + l.data)


def test_apply_merge_adds_to_every_row():
    l = np.random.default_rng(3).normal(size=6)
    out = apply_merge(Tensor(np.zeros((4, 6))), Tensor(l))
    np.testing.assert_array_equal(out.data, np.tile(l, (4, 1)))


def test_merge_zero_vector_is_identity():
    x = np.random.default_rng(4).normal(size=(5, 6))
    out = apply_merge(Tensor(x), Tensor(np.zeros(6)))
    np.testing.assert_array_equal(out.data, x)


def test_merge_difference_is_constant_row():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(9, 6)))
    a, b = rng.normal(size=6), rng.normal(size=6)
    diff = apply_merge(x, Tensor(a)).data - apply_merge(x, Tensor(b)).data
    np.testing.assert_allclose(diff, np.tile(a - b, (9, 1)), atol=1e-12)


def test_merge_linearity_in_embedding():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 4))
    a, b = rng.normal(size=4), rng.normal(size=4)
    alpha, beta = 0.7, -1.3
    lhs = apply_merge(Tensor(x), Tensor(alpha * a + beta * b)).data
    rhs = (alpha * apply_merge(Tensor(x), Tensor(a)).data
           + beta * apply_merge(Tensor(x), Tensor(b)).data
           - (alpha + beta - 1.0) * x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_width_mismatch_rejected():
    with pytest.raises(ShapeError, match="width"):
        apply_concat(Tensor(np.zeros((3, 5))), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError, match="width"):
        apply_merge(Tensor(np.zeros((3, 5))), Tensor(np.zeros(4)))


def test_table_distinct_vectors_and_unknown_language():
    table = LanguageEmbeddingTable(["de", "nl"], 8, np.random.default_rng(7))
    d = np.linalg.norm(table.vector("de").data - table.vector("nl").data)
    assert d > 0
    with pytest.raises(KeyError):
        table.vector("fr")


def _model(mode, site, seed=0, languages=("L0", "L1"), **kw):
    cfg = ModelConfig(vocab_size=12, languages=languages, d_model=16,
                      ff_hidden=32, n_heads=2, n_encoder_layers=1,
                      n_decoder_layers=1, forcing_mode=mode, forcing_site=site, **kw)
    return SpeechTransformer(cfg, seed=seed).eval()


def test_mode_none_leaves_representation_unchanged():
    a = _model("none", "pre")
    feats = np.random.default_rng(8).normal(size=(1, 20, 40))
    e1 = a.encode(feats, [20])
    e2 = a.encode(feats, [20])
    np.testing.assert_array_equal(e1.memory.data, e2.memory.data)


@pytest.mark.parametrize("site,expected", [
    ("pre", encoder_length(100, concat_at_pre=True)),   # 26
    ("post", encoder_length(100) + 1),
    ("final", encoder_length(100) + 1),
])
def test_concat_grows_encoder_length(site, expected):
    m = _model("concat", site)
    feats = np.random.default_rng(9).normal(size=(1, 100, 40))
    enc = m.encode(feats, [100], ["L0"])
    assert enc.memory.shape[1] == expected
    assert enc.mask.shape[1] == expected


@pytest.mark.parametrize("site", ["pre", "post", "final", "decoder"])
def test_merge_preserves_encoder_length(site):
    m = _model("merge", site)
    feats = np.random.default_rng(10).normal(size=(1, 100, 40))
    enc = m.encode(feats, [100], ["L0"])
    assert enc.memory.shape[1] == encoder_length(100)


@pytest.mark.parametrize("site", ["pre", "post", "final"])
def test_merge_zero_embedding_equals_unforced_model(site):
    forced = _model("merge", site, seed=11)
    plain = _model("none", site, seed=11)
    for lang in forced.cfg.languages:
        forced.forcing.table.vector(lang).data[:] = 0.0
    feats = np.random.default_rng(12).normal(size=(2, 36, 40))
    ef = forced.encode(feats, [36, 30], ["L0", "L1"])
    ep = plain.encode(feats, [36, 30])
    np.testing.assert_array_equal(ef.memory.data, ep.memory.data)


def test_merge_zero_embedding_decoder_site():
    forced = _model("merge", "decoder", seed=13)
    plain = _model("none", "decoder", seed=13)
    forced.forcing.table.vector("L0").data[:] = 0.0
    feats = np.random.default_rng(14).normal(size=(1, 24, 40))
    prefix = np.array([[1, 4, 5, 6]])
    lf = forced.decode_logits(forced.encode(feats, [24], ["L0"]), prefix, ["L0"])
    lp = plain.decode_logits(plain.encode(feats, [24]), prefix)
    np.testing.assert_array_equal(lf.data, lp.data)


def test_decoder_concat_replaces_bos_slot():
    m = _model("concat", "decoder", seed=15)
    feats = np.random.default_rng(16).normal(size=(1, 24, 40))
    enc = m.encode(feats, [24], ["L0"])
    la = m.decode_logits(enc, np.array([[1, 4, 5]]), ["L0"])
    lb = m.decode_logits(enc, np.array([[1, 4, 5]]), ["L1"])
    assert la.shape == lb.shape == (1, 3, 12)
    assert not np.array_equal(la.data, lb.data)


@pytest.mark.parametrize("mode,site", [("merge", "pre"), ("concat", "post"),
                                       ("merge", "decoder")])
def test_gradient_isolation_per_language(mode, site):
    m = _model(mode, site, seed=17).train()
    m.set_rng(np.random.default_rng(18))
    rng = np.random.default_rng(19)
    examples = [Example(f"u{i}", rng.normal(size=(16, 40)), [4, 5, 6], "L0")
                for i in range(3)]
    batch = make_batch(examples)  # contains only language L0
    before = {lang: m.forcing.table.vector(lang).data.copy()
              for lang in ("L0", "L1")}
    train_step(m, [batch], AdamState(), LRSchedule(lr_max=0.001, warmup=10))
    after = {lang: m.forcing.table.vector(lang).data for lang in ("L0", "L1")}
    assert not np.array_equal(before["L0"], after["L0"])
    np.testing.assert_array_equal(before["L1"], after["L1"])


@pytest.mark.parametrize("mode,site", [("merge", "pre"), ("concat", "decoder")])
def test_table_lookup_gradient_matches_finite_differences(mode, site):
    m = _model(mode, site, seed=24, languages=("L0", "L1", "L2"))
    rng = np.random.default_rng(25)
    # L0 repeats and L1 is absent
    batch = make_batch([Example(f"u{i}", rng.normal(size=(14 - 2 * i, 40)),
                                [4, 5, 6][:i + 1], lang)
                        for i, lang in enumerate(["L0", "L2", "L0"])])
    weight = m.forcing.table.weight
    batch_loss(m, batch).backward()
    assert np.all(weight.grad[1] == 0.0) and np.abs(weight.grad[[0, 2]]).max() > 0
    err = grad_check(lambda w: batch_loss(m, batch), weight, sample=40,
                     rng=np.random.default_rng(26))
    assert err <= 1e-4


def test_language_tags_are_not_attribute_names(tmp_path):
    from multislt.decoding import greedy_decode
    tags = ("train", "eval", "set_rng", "width")
    m = _model("merge", "pre", seed=27, languages=tags)
    assert [n for n, _ in m.named_parameters()
            if n.startswith("forcing.")] == ["forcing.table.weight"]
    assert not set(tags) & set(vars(m.forcing.table))
    m.set_rng(np.random.default_rng(28)).eval().train()
    rng = np.random.default_rng(29)
    batch = make_batch([Example(f"u{i}", rng.normal(size=(16, 40)), [4, 5], tags[i % 4])
                        for i in range(8)])
    train_step(m, [batch], AdamState(), LRSchedule(lr_max=0.001, warmup=10))
    vocab = Vocabulary("abcdefgh")
    hyp = greedy_decode(m.eval(), vocab, rng.normal(size=(16, 40)), "width", max_len=5)
    assert hyp.ids[0] == BOS_ID and len(hyp.ids) <= 6
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(p1, m, vocab)
    m2, vocab2, _ = load_checkpoint(p1)
    save_checkpoint(p2, m2, vocab2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
