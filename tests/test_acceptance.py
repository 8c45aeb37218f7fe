"""Acceptance gate: one test per release criterion, tolerances pinned.

Criterion 7 trains the desk-scale model on the synthetic multilingual
task end to end and is the slow test in the suite (several minutes).
"""

import math
import time

import numpy as np
import pytest

import multislt.tensor as T
from multislt.decoding import beam_decode, decode_corpus, greedy_decode
from multislt.experiment import moving_average, run_toy_experiment
from multislt.manifest import ManifestEntry, Vocabulary
from multislt.model import (ModelConfig, SpeechTransformer, distance_penalty,
                            encoder_length)
from multislt.optim import AdamState
from multislt.tensor import Tensor, grad_check
from multislt.trainer import (BatchComposer, CheckpointError, Example,
                              LRSchedule, load_checkpoint, lr_at, make_batch,
                              mix_asr, save_checkpoint, train_step,
                              transfer_encoder)

GRAD_TOL = 1e-4


# criterion 1: numerics ------------------------------------------------

def test_criterion_1_numerics_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)

    def const(*shape):
        return Tensor(rng.normal(size=shape))

    checks = {}
    b = const(3, 4)
    checks["add"] = grad_check(lambda x: T.tsum(T.mul(T.add(x, b), b)), const(3, 4))
    checks["sub"] = grad_check(lambda x: T.tsum(T.mul(T.sub(x, b), b)), const(3, 4))
    checks["mul"] = grad_check(lambda x: T.tsum(T.mul(x, b)), const(3, 4))
    checks["scale"] = grad_check(lambda x: T.tsum(T.mul(T.scale(x, -1.7), b)), const(3, 4))
    # relu probed away from the kink
    r_in = Tensor(np.where(np.abs(z := rng.normal(size=(3, 4))) < 0.1, 0.5, z))
    checks["relu"] = grad_check(lambda x: T.tsum(T.mul(T.relu(x), b)), r_in)
    checks["exp"] = grad_check(lambda x: T.tsum(T.mul(T.exp(x), b)), const(3, 4))
    checks["tanh"] = grad_check(lambda x: T.tsum(T.mul(T.tanh(x), b)), const(3, 4))
    m_rhs = const(4, 5)
    checks["matmul"] = grad_check(lambda x: T.tsum(T.matmul(x, m_rhs)), const(3, 4))
    w24 = const(2, 4)
    checks["transpose"] = grad_check(
        lambda x: T.tsum(T.mul(T.transpose(x, (1, 0)), w24)), const(4, 2))
    w8 = const(8)
    checks["reshape"] = grad_check(
        lambda x: T.tsum(T.mul(T.reshape(x, (8,)), w8)), const(2, 4))
    other = const(2, 4)
    w44 = const(4, 4)
    checks["concat"] = grad_check(
        lambda x: T.tsum(T.mul(T.concat([x, other], axis=0), w44)), const(2, 4))
    w2 = const(2, 4)
    checks["getitem"] = grad_check(
        lambda x: T.tsum(T.mul(T.getitem(x, slice(1, 3)), w2)), const(5, 4))
    checks["tsum"] = grad_check(lambda x: T.tsum(T.mul(T.tsum(x, axis=0), w8[:4])),
                                const(3, 4))
    checks["tmean"] = grad_check(lambda x: T.tsum(T.mul(T.tmean(x, axis=1), w8[:3])),
                                 const(3, 4))
    sw = const(3, 7)
    checks["softmax"] = grad_check(
        lambda x: T.tsum(T.mul(T.softmax(x, axis=-1), sw)), const(3, 7))
    gamma, beta = const(6), const(6)
    wln = const(4, 6)
    checks["layer_norm"] = grad_check(
        lambda x: T.tsum(T.mul(T.layer_norm(x, gamma, beta), wln)), const(4, 6))
    g2, b2 = const(2), const(2)
    run_m, run_v = np.zeros(2), np.ones(2)
    wbn = const(3, 2, 4, 5)
    checks["batch_norm"] = grad_check(
        lambda x: T.tsum(T.mul(T.batch_norm(x, g2, b2, True, run_m, run_v), wbn)),
        const(3, 2, 4, 5))
    wd = const(3, 4)
    checks["dropout"] = grad_check(
        lambda x: T.tsum(T.mul(T.dropout(x, 0.5, training=False), wd)), const(3, 4))
    cw, cb = const(2, 1, 3, 3), const(2)
    checks["conv2d"] = grad_check(
        lambda x: T.tsum(T.conv2d(x, cw, cb, stride=(2, 2))), const(1, 1, 6, 5))
    ids = np.array([[0, 2], [1, 0]])
    wemb = const(2, 2, 4)
    checks["embedding"] = grad_check(
        lambda w: T.tsum(T.mul(T.embedding(w, ids), wemb)), const(3, 4))
    tgt = np.array([1, 3, 0, 2])
    checks["cross_entropy"] = grad_check(
        lambda x: T.cross_entropy(x, tgt, 0), const(4, 5))

    # full desk-scale model: d(loss)/d(input features)
    cfg = ModelConfig(vocab_size=12, d_model=16, ff_hidden=32, n_heads=2,
                      n_encoder_layers=2, n_decoder_layers=2)
    model = SpeechTransformer(cfg, seed=0).eval()
    feats = rng.normal(size=(2, 12, 40))
    prefix = np.array([[1, 4, 5], [1, 6, 7]])
    labels = np.array([4, 5, 2, 6, 7, 2])

    def full(x):
        enc = model.encode(x, [12, 12])
        logits = model.decode_logits(enc, prefix)
        return T.cross_entropy(T.reshape(logits, (-1, 12)), labels, 0)

    checks["full_model"] = grad_check(full, Tensor(feats), sample=60,
                                      rng=np.random.default_rng(1))
    elapsed = time.monotonic() - t0
    bad = {k: v for k, v in checks.items() if not v < GRAD_TOL}
    assert not bad, f"gradient checks above {GRAD_TOL}: {bad}"
    assert elapsed < 60.0, f"numerics suite took {elapsed:.1f}s"


# criterion 2: penalty oracle ------------------------------------------

def test_criterion_2_penalty_oracle():
    got = distance_penalty(8)
    expected = np.empty((8, 8))
    for i in range(8):
        for j in range(8):
            d = abs(i - j)
            expected[i, j] = 0.0 if d == 0 else math.log(d)
    np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)
    np.testing.assert_allclose(got, got.T, atol=0)
    assert np.all(np.diag(got) == 0.0)


# criterion 3: shape algebra -------------------------------------------

def test_criterion_3_shape_algebra_exhaustive():
    t0 = time.monotonic()

    def ceil2(t):
        return -(-t // 2)

    def build(mode):
        cfg = ModelConfig(vocab_size=8, languages=("L0",), d_model=8,
                          ff_hidden=8, n_heads=2, n_encoder_layers=1,
                          n_decoder_layers=1, frontend_channels=2,
                          sa2d_channels=1, sa2d_out_channels=2,
                          forcing_mode=mode, forcing_site="pre")
        return SpeechTransformer(cfg, seed=0).eval()

    plain, concat, merge = build("none"), build("concat"), build("merge")
    for t in range(4, 201):
        base = ceil2(ceil2(t))
        assert encoder_length(t) == base
        assert encoder_length(t, concat_at_pre=True) == ceil2(ceil2(t + 1))
        if t % 4 == 0:  # the "+1" phrasing holds exactly on this lattice
            assert encoder_length(t, concat_at_pre=True) == base + 1
        feats = np.zeros((1, t, 40))
        assert plain.encode(feats, [t]).memory.shape[1] == base
        assert concat.encode(feats, [t], ["L0"]).memory.shape[1] == \
            encoder_length(t, concat_at_pre=True)
        assert merge.encode(feats, [t], ["L0"]).memory.shape[1] == base
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"shape sweep took {elapsed:.1f}s"


# criterion 4: schedule oracle -----------------------------------------

def test_criterion_4_schedule_oracle():
    s = LRSchedule(lr_max=0.01)
    assert abs(lr_at(0, s) - 0.0003) < 1e-12
    assert abs(lr_at(4000, s) - 0.01) < 1e-12
    assert abs(lr_at(16000, s) - 0.005) < 1e-12
    # continuity at the warmup boundary: one-step jump is O(lr_max/warmup)
    gap = abs(lr_at(4001, s) - lr_at(4000, s))
    assert gap < 2 * s.lr_max / s.warmup


# criterion 5: forcing algebra -----------------------------------------

def _forcing_model(mode, site, seed=0):
    cfg = ModelConfig(vocab_size=12, languages=("L0", "L1"), d_model=16,
                      ff_hidden=32, n_heads=2, n_encoder_layers=1,
                      n_decoder_layers=1, forcing_mode=mode, forcing_site=site)
    return SpeechTransformer(cfg, seed=seed).eval()


def test_criterion_5_forcing_algebra():
    # merge with zero embedding == unforced model, elementwise
    forced = _forcing_model("merge", "pre", seed=1)
    plain = _forcing_model("none", "pre", seed=1)
    for lang in forced.cfg.languages:
        forced.forcing.table.vector(lang).data[:] = 0.0
    feats = np.random.default_rng(2).normal(size=(2, 36, 40))
    np.testing.assert_array_equal(
        forced.encode(feats, [36, 30], ["L0", "L1"]).memory.data,
        plain.encode(feats, [36, 30]).memory.data)

    # concat decomposition: row 0 is the embedding, rest is the input, exactly
    from multislt.forcing import apply_concat
    rng = np.random.default_rng(3)
    x, emb = rng.normal(size=(10, 40)), rng.normal(size=40)
    out = apply_concat(Tensor(x), Tensor(emb))
    assert np.array_equal(out.data[0], emb)
    assert np.array_equal(out.data[1:], x)

    # gradient isolation: absent language's embedding untouched by a step
    m = _forcing_model("merge", "pre", seed=4).train()
    m.set_rng(np.random.default_rng(5))
    rng = np.random.default_rng(6)
    batch = make_batch([Example(f"u{i}", rng.normal(size=(16, 40)), [4, 5], "L0")
                        for i in range(3)])
    before = {l: m.forcing.table.vector(l).data.copy() for l in ("L0", "L1")}
    train_step(m, [batch], AdamState(), LRSchedule(lr_max=0.001, warmup=10))
    assert not np.array_equal(before["L0"], m.forcing.table.vector("L0").data)
    np.testing.assert_array_equal(before["L1"], m.forcing.table.vector("L1").data)


# criterion 6: batching contract ---------------------------------------

def test_criterion_6_batching_contract():
    rng = np.random.default_rng(7)
    examples = []
    for li, (lang, n) in enumerate([("de", 37), ("nl", 5), ("pt", 13), ("en", 26)]):
        for i in range(n):
            examples.append(Example(f"{lang}{i}", np.zeros((2, 40)), [4], lang))
    comp = BatchComposer(examples, seed=8)
    for _ in range(10_000):
        batch = comp.next_batch()
        assert max(batch.group_sizes.values()) <= 8

    # accumulation over 16 identical batches == one update on that batch
    def tiny(seed):
        cfg = ModelConfig(vocab_size=12, d_model=16, ff_hidden=32, n_heads=2,
                          n_encoder_layers=1, n_decoder_layers=1, dropout=0.0)
        return SpeechTransformer(cfg, seed=seed)

    batch = make_batch([Example(f"u{i}", rng.normal(size=(12, 40)), [4, 5, 6], "de")
                        for i in range(4)])
    sched = LRSchedule(lr_max=0.001, warmup=10)
    m1, m2 = tiny(9), tiny(9)
    train_step(m1, [batch] * 16, AdamState(), sched)
    train_step(m2, [batch], AdamState(), sched)
    for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert n1 == n2
        np.testing.assert_allclose(p1.data, p2.data, atol=1e-10)


# criterion 7: toy-task experiment -------------------------------------

@pytest.mark.slow
def test_criterion_7_toy_task_experiment(tmp_path):
    result = run_toy_experiment(str(tmp_path), seed=17, n_languages=3,
                                n_utt_per_lang=3000, steps=700, accum=4,
                                warmup=130, lr_max=0.003)
    assert result["seconds"] < 1800, f"ran {result['seconds']:.0f}s, budget 1800s"

    # (a) 20-step moving average strictly decreasing over first 200 updates
    ma = moving_average(result["losses"][:200], 20)
    rises = [(i, ma[i - 1], ma[i]) for i in range(1, len(ma)) if ma[i] >= ma[i - 1]]
    assert not rises, f"moving average rose at {rises[:5]}"

    # (b) every requested language above 0.95 in the output-language audit
    assert set(result["audit"]) == {"L0", "L1", "L2"}
    low = {k: v for k, v in result["audit"].items() if not v > 0.95}
    assert not low, f"audit below threshold: {low}"

    # (c) token accuracy above 0.90 on the held-out split
    assert result["token_accuracy"] > 0.90, result["token_accuracy"]


# criterion 8: transfer + ASR mechanics --------------------------------

def test_criterion_8_transfer_and_asr(tmp_path):
    rng = np.random.default_rng(10)

    def entries(langs, n=20):
        out = []
        for lang in langs:
            for i in range(n):
                out.append(ManifestEntry(f"{lang}{i}.wav", "abc", "ABC"
                                         if lang != "en" else "abc", lang, "train"))
        return out

    def model(languages, seed):
        cfg = ModelConfig(vocab_size=12, languages=tuple(languages), d_model=16,
                          ff_hidden=32, n_heads=2, n_encoder_layers=1,
                          n_decoder_layers=1, dropout=0.0,
                          forcing_mode="merge", forcing_site="pre")
        m = SpeechTransformer(cfg, seed=seed)
        m.set_rng(np.random.default_rng(seed + 1))
        return m

    def batch_for(langs, n=3):
        ex = [Example(f"{lang}{i}", rng.normal(size=(12, 40)), [4, 5], lang)
              for lang in langs for i in range(n)]
        return make_batch(ex)

    # asr pre-training: an "en"-only model, a few updates, checkpointed
    asr = model(["en"], seed=11)
    sched = LRSchedule(lr_max=0.001, warmup=10)
    state = AdamState()
    for _ in range(3):
        train_step(asr, [batch_for(["en"])], state, sched)
    ckpt = str(tmp_path / "asr.ckpt")
    save_checkpoint(ckpt, asr, Vocabulary("abcdefgh"), state)

    # transfer: encoder params initially equal the ASR checkpoint
    slt = model(["L0", "L1", "en"], seed=12)
    copied = transfer_encoder(ckpt, slt)
    assert copied > 0
    asr_params = dict(asr.named_parameters())
    for name, p in slt.named_parameters():
        if name.startswith("encoder."):
            np.testing.assert_array_equal(p.data, asr_params[name].data)

    # --mix-asr: "en" rows appear and form their own batch group
    mixed = mix_asr([ManifestEntry(f"u{i}.wav", f"src{i}", f"tgt{i}", "L0", "train")
                     for i in range(12)])
    examples = [Example(e.utt_id, np.zeros((8, 40)), [4], e.lang) for e in mixed]
    group = BatchComposer(examples, seed=13).next_batch().group_sizes
    assert 0 < group["en"] <= 8

    # end-to-end: training continues on the transferred model with en mixed in
    for _ in range(2):
        train_step(slt, [batch_for(["L0", "L1", "en"])], AdamState(), sched)


# criterion 9: checkpoint round-trip -----------------------------------

def test_criterion_9_checkpoint_round_trip(tmp_path):
    cfg = ModelConfig(vocab_size=9, languages=("L0", "L1"), d_model=16,
                      ff_hidden=32, n_heads=2, n_encoder_layers=1,
                      n_decoder_layers=1, forcing_mode="merge", forcing_site="pre")
    m = SpeechTransformer(cfg, seed=14)
    state = AdamState(step=3)
    state.m = {n: np.random.default_rng(15).normal(size=p.shape)
               for n, p in m.named_parameters()}
    state.v = {n: np.abs(np.random.default_rng(16).normal(size=p.shape))
               for n, p in m.named_parameters()}
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(p1, m, Vocabulary("abcde"), state)
    m2, vocab2, state2 = load_checkpoint(p1)
    save_checkpoint(p2, m2, vocab2, state2)
    assert open(p1, "rb").read() == open(p2, "rb").read()

    blob = open(p1, "rb").read()
    trunc = str(tmp_path / "t.ckpt")
    open(trunc, "wb").write(blob[:len(blob) - 100])
    with pytest.raises(CheckpointError):
        load_checkpoint(trunc)
    corrupt = str(tmp_path / "c.ckpt")
    open(corrupt, "wb").write(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError):
        load_checkpoint(corrupt)


# criterion 10: decoding ------------------------------------------------

def test_criterion_10_decoding():
    cfg = ModelConfig(vocab_size=12, d_model=16, ff_hidden=32, n_heads=2,
                      n_encoder_layers=1, n_decoder_layers=1)
    m = SpeechTransformer(cfg, seed=17).eval()
    vocab = Vocabulary("abcdefgh")
    rng = np.random.default_rng(18)
    feats_list = [rng.normal(size=(int(rng.integers(8, 30)), 40))
                  for _ in range(50)]
    for feats in feats_list:
        g = greedy_decode(m, vocab, feats, max_len=15)
        b = beam_decode(m, vocab, feats, beam=1, max_len=15)
        assert g.ids == b.ids
        assert abs(g.logprob - b.logprob) < 1e-12

    items = [(f, None) for f in feats_list[:12]]
    serial = decode_corpus(m, vocab, items, workers=1, max_len=10)
    parallel = decode_corpus(m, vocab, items, workers=8, max_len=10)
    assert [h.ids for h in serial] == [h.ids for h in parallel]
