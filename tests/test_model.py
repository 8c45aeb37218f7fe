import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import multislt.tensor as T
from multislt.manifest import BOS_ID
from multislt.model import (NEG_INF, SA2D, DecoderCache, EncoderState, ModelConfig,
                            SpeechTransformer, causal_bias, distance_penalty, encoder_length,
                            lengths_to_mask, positional_encoding)
from multislt.modules import ConvBlock
from multislt.tensor import Tensor, grad_check


def tiny_cfg(**kw):
    base = dict(d_model=16, ff_hidden=32, n_heads=2,
                n_encoder_layers=1, n_decoder_layers=1, dropout=0.1)
    base.update(kw)
    return ModelConfig(vocab_size=12, **base)


def make_model(seed=0, **kw):
    return SpeechTransformer(tiny_cfg(**kw), seed=seed).eval()


# distance penalty ------------------------------------------------------

def test_penalty_values():
    m = distance_penalty(8)
    assert m[3, 3] == 0.0
    assert m[3, 4] == 0.0  # ln 1
    np.testing.assert_allclose(m[0, 5], np.log(5.0), atol=1e-15)


def test_penalty_matrix_matches_formula_entrywise():
    m = distance_penalty(8)
    for i in range(8):
        for j in range(8):
            d = abs(i - j)
            expected = 0.0 if d == 0 else np.log(d)
            assert abs(m[i, j] - expected) < 1e-12
    np.testing.assert_array_equal(m, m.T)
    np.testing.assert_array_equal(np.diag(m), 0.0)


def test_penalty_strictly_increasing_beyond_one():
    m = distance_penalty(20)
    row = m[0]
    assert np.all(np.diff(row[1:]) > 0)


def test_penalty_invalid_size():
    with pytest.raises(ValueError):
        distance_penalty(0)


# positional encoding ---------------------------------------------------

def test_positional_encoding_origin():
    pe = positional_encoding(3, 8)
    np.testing.assert_array_equal(pe[0], [0, 1, 0, 1, 0, 1, 0, 1])


def test_positional_encoding_closed_form():
    pe = positional_encoding(2, 8)
    np.testing.assert_allclose(pe[1, 0], np.sin(1.0), atol=1e-12)


def test_positional_encoding_bounded():
    pe = positional_encoding(50, 16)
    assert np.all(np.abs(pe) <= 1.0)


def test_positional_encoding_odd_dim_rejected():
    with pytest.raises(ValueError):
        positional_encoding(4, 7)


@pytest.mark.parametrize("length", [1, 2, 9, 31])
def test_cached_tables_are_read_only_and_fresh(length):
    # one shared array per length: the caches must hand out what a fresh
    # computation gives, and no caller may write into it
    d = 16
    pos = np.arange(length)[:, None] / 10000.0 ** (np.arange(0, d, 2) / d)
    pe = np.empty((length, d))
    pe[:, 0::2], pe[:, 1::2] = np.sin(pos), np.cos(pos)
    causal = np.where(np.triu(np.ones((length, length)), k=1) > 0, NEG_INF, 0.0)
    for table, fresh in ((positional_encoding(length, d), pe), (causal_bias(length), causal)):
        assert np.array_equal(table, fresh)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
    assert positional_encoding(length, d) is positional_encoding(length, d)
    assert causal_bias(length) is causal_bias(length)


# shape algebra ---------------------------------------------------------

def test_encoder_length_examples():
    assert encoder_length(100) == 25
    assert encoder_length(100, concat_at_pre=True) == 26


@given(st.integers(4, 120))
@settings(max_examples=25, deadline=None)
def test_encoder_output_matches_shape_oracle(t):
    m = make_model()
    feats = np.random.default_rng(t).normal(size=(1, t, 40))
    enc = m.encode(feats, [t])
    assert enc.memory.shape == (1, encoder_length(t), 16)
    assert enc.mask.shape == (1, encoder_length(t))


def test_frontend_boundary_t4_f4():
    # two ceil-halvings take a 4x4 patch to 1x1
    from multislt.model import ceil_div
    assert ceil_div(ceil_div(4, 2), 2) == 1


def test_zero_input_is_finite():
    m = make_model()
    enc = m.encode(np.zeros((1, 20, 40)), [20])
    assert np.all(np.isfinite(enc.memory.data))


# model behaviour -------------------------------------------------------

def test_batch_equivariance_eval_mode():
    m = make_model()
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(3, 24, 40))
    lengths = [24, 18, 24]
    enc = m.encode(feats, lengths)
    perm = [2, 0, 1]
    enc_p = m.encode(feats[perm], [lengths[i] for i in perm])
    np.testing.assert_allclose(enc_p.memory.data, enc.memory.data[perm], atol=1e-12)


def _attention_weight_spy(captured):
    """A stand-in for ``T.attention`` that appends each call's attention
    weights, one map per head, to ``captured``: the real op on the split
    queries and keys with the identity as values."""
    real_attention = T.attention

    def spy(q, k, v, scale, bias=None, heads=None):
        qh, kh = q, k
        if heads is not None:  # B×T×d -> B×heads×T×(d/heads)
            qh, kh = (Tensor(t.data.reshape(t.shape[:2] + (heads, -1)).transpose(0, 2, 1, 3))
                      for t in (q, k))
        eye = Tensor(np.eye(kh.shape[-2]))
        captured.append(real_attention(qh, kh, eye, scale, bias).data)
        return real_attention(q, k, v, scale, bias, heads)
    return spy


def test_padding_frames_get_zero_attention_weight(monkeypatch):
    captured = []
    spy = _attention_weight_spy(captured)

    m = make_model()
    feats = np.random.default_rng(6).normal(size=(2, 16, 40))
    monkeypatch.setattr(T, "attention", spy)
    m.encode(feats, [16, 8])  # second utterance: frames 2.. at T' scale are pads
    t_prime = encoder_length(16)
    valid = encoder_length(8)
    time_axis = [a for a in captured if a.shape[-1] == t_prime]
    assert time_axis
    for attn in time_axis:
        assert np.all(attn[1, ..., valid:] == 0.0)


def test_penalty_suppresses_distant_attention(monkeypatch):
    # the same adversarially attractive distant frame gets strictly less
    # weight with the penalty than without, all else equal
    captured = []
    spy = _attention_weight_spy(captured)

    rng = np.random.default_rng(7)
    feats = rng.normal(size=(1, 40, 40))
    feats[0, 32:] *= 5.0  # attractive frames far from early queries
    monkeypatch.setattr(T, "attention", spy)

    make_model(seed=3).encode(feats, [40])
    with_pen = [a.copy() for a in captured]
    captured.clear()

    import multislt.model as mm
    monkeypatch.setattr(mm, "distance_penalty", lambda n: np.zeros((n, n)))
    make_model(seed=3).encode(feats, [40])
    without_pen = captured

    t_prime = encoder_length(40)
    pairs = [(a, b) for a, b in zip(with_pen, without_pen) if a.shape[-1] == t_prime]
    assert pairs
    # only the first attention map sees identical inputs in both runs
    a, b = pairs[0]
    wa = a[..., 0, t_prime - 1]  # query 0 attending to the most distant key
    wb = b[..., 0, t_prime - 1]
    assert np.all(wa < wb)


def test_sa2d_preserves_time_and_freq_extent():
    m = make_model()
    feats = np.random.default_rng(8).normal(size=(2, 32, 40))
    enc = m.encode(feats, [32, 32])
    assert enc.memory.shape[1] == encoder_length(32)


def _sa2d_run(c: int, training: bool, three_blocks: bool):
    """One SA2D forward and backward. The oracle runs q, k and v as three
    c-channel conv blocks, built from the channel thirds of ``qkv``'s
    parameters and running statistics; their gradients and statistics are
    reported joined on the channel axis, under ``qkv``'s names."""
    sa = SA2D(tiny_cfg(sa2d_channels=c), 16, np.random.default_rng(c))
    rng = np.random.default_rng(100 + c)
    if not training:  # eval mode reads distinct running statistics per channel
        for _, buf in sa.named_buffers():
            buf[...] = rng.uniform(0.5, 1.5, buf.shape)
        sa.eval()
    blocks = []
    if three_blocks:
        for i in range(3):
            block = ConvBlock(16, c, (1, 1), np.random.default_rng(0))
            block.load_state_dict({name: arr[i * c:(i + 1) * c]
                                   for name, arr in sa.qkv.state_dict().items()})
            block.training = training
            blocks.append(block)
        sa.qkv = lambda x: T.concat([block(x) for block in blocks], axis=1)
    x = Tensor(rng.normal(size=(3, 16, 9, 6)), requires_grad=True)
    out = sa(x, lengths_to_mask([9, 7, 4], 9), distance_penalty(9))
    T.tsum(T.mul(out, Tensor(rng.normal(size=out.shape)))).backward()
    grads = {name: p.grad for name, p in sa.named_parameters()}
    buffers = {name: b.copy() for name, b in sa.named_buffers()}
    if three_blocks:
        for name, _ in blocks[0].named_parameters():
            grads["qkv." + name] = np.concatenate(
                [dict(b.named_parameters())[name].grad for b in blocks])
        for name, _ in blocks[0].named_buffers():
            buffers["qkv." + name] = np.concatenate([getattr(b, name) for b in blocks])
    return out.data, x.grad, grads, buffers


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("c", [1, 4])
def test_sa2d_fused_qkv_matches_three_blocks(c, training):
    out, gx, grads, buffers = _sa2d_run(c, training, three_blocks=False)
    out0, gx0, grads0, buffers0 = _sa2d_run(c, training, three_blocks=True)
    np.testing.assert_allclose(out, out0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gx, gx0, rtol=0, atol=1e-12)
    assert grads.keys() == grads0.keys() and buffers.keys() == buffers0.keys()
    for name in grads0:
        np.testing.assert_allclose(grads[name], grads0[name], rtol=0, atol=1e-12, err_msg=name)
    for name in buffers0:
        np.testing.assert_allclose(buffers[name], buffers0[name], rtol=0, atol=1e-12,
                                   err_msg=name)
    if training:  # the running statistics did move
        assert not np.allclose(buffers["qkv.running_mean"], 0.0)


def test_sa2d_parameter_and_buffer_names():
    sa = SA2D(tiny_cfg(sa2d_channels=4, sa2d_out_channels=16), 16, np.random.default_rng(0))
    blocks = {"qkv": (12, 16), "out": (16, 8)}
    params = {name: p.shape for name, p in sa.named_parameters()}
    assert params == {n: s for b, (o, c_in) in blocks.items() for n, s in (
        (f"{b}.weight", (o, c_in, 3, 3)), (f"{b}.bias", (o,)),
        (f"{b}.gamma", (o,)), (f"{b}.beta", (o,)))}
    assert [(name, b.shape) for name, b in sa.named_buffers()] == [
        (f"{b}.{s}", (o,)) for b, (o, _) in blocks.items() for s in ("running_mean", "running_var")]


def test_causal_mask_contract():
    m = make_model()
    feats = np.random.default_rng(9).normal(size=(1, 20, 40))
    enc = m.encode(feats, [20])
    prefix = np.array([[1, 5, 6, 7, 8]])
    logits = m.decode_logits(enc, prefix).data
    tampered = prefix.copy()
    tampered[0, 3:] = [9, 10]
    logits2 = m.decode_logits(enc, tampered).data
    np.testing.assert_allclose(logits2[0, :3], logits[0, :3], atol=1e-12)


def test_decoder_logits_shape():
    m = make_model()
    enc = m.encode(np.random.default_rng(10).normal(size=(1, 16, 40)), [16])
    logits = m.decode_logits(enc, np.array([[1, 4, 5, 6]]))
    assert logits.shape == (1, 4, 12)


def test_decoder_rejects_out_of_range_token():
    m = make_model()
    enc = m.encode(np.random.default_rng(11).normal(size=(1, 16, 40)), [16])
    with pytest.raises(IndexError):
        m.decode_logits(enc, np.array([[1, 99]]))


def test_gradient_reaches_encoder_via_cross_attention():
    m = SpeechTransformer(tiny_cfg(), seed=0)
    m.eval()  # deterministic; dropout off
    feats = np.random.default_rng(12).normal(size=(2, 12, 40))
    enc = m.encode(feats, [12, 12])
    logits = m.decode_logits(enc, np.array([[1, 4], [1, 5]]))
    loss = T.cross_entropy(T.reshape(logits, (-1, 12)), np.array([4, 2, 5, 2]), 0)
    loss.backward()
    enc_proj_grad = dict(m.named_parameters())["encoder.proj.weight"].grad
    assert enc_proj_grad is not None and np.abs(enc_proj_grad).max() > 0


def test_full_model_gradient_check_on_input():
    m = make_model(seed=1)
    rng = np.random.default_rng(13)
    feats = rng.normal(size=(2, 12, 40))
    prefix = np.array([[1, 4, 5], [1, 6, 7]])
    labels = np.array([4, 5, 2, 6, 7, 2])

    def f(x):
        enc = m.encode(x, [12, 12])
        logits = m.decode_logits(enc, prefix)
        return T.cross_entropy(T.reshape(logits, (-1, 12)), labels, 0)

    err = grad_check(f, Tensor(feats), sample=40, rng=np.random.default_rng(0))
    assert err < 1e-4


def test_autoregressive_consistency():
    from multislt.decoding import greedy_decode
    from multislt.manifest import Vocabulary
    m = make_model(seed=4)
    vocab = Vocabulary("abcdefgh")
    feats = np.random.default_rng(14).normal(size=(18, 40))
    hyp = greedy_decode(m, vocab, feats, max_len=12)
    enc = m.encode(feats[None], [18])
    logits = m.decode_logits(enc, np.array([hyp.ids[:-1]])).data[0]
    steps = np.argmax(logits, axis=1)
    np.testing.assert_array_equal(steps, hyp.ids[1:])


# incremental decoding ----------------------------------------------------

FORCINGS = [("none", "pre")] + [(mode, site) for mode in ("merge", "concat")
                                for site in ("pre", "post", "final", "decoder")]


def _rows(enc: EncoderState, rows) -> EncoderState:
    return EncoderState(Tensor(enc.memory.data[rows]), enc.mask[rows])


@pytest.mark.parametrize("shared_memory", [True, False], ids=["one_utterance", "per_row"])
@pytest.mark.parametrize("mode,site", FORCINGS)
def test_cached_decoding_matches_full_prefix(mode, site, shared_memory):
    """One token per cached call, with a beam reorder, equals the full-prefix
    call on the same rows; a memory of batch 1 serves all rows."""
    m = make_model(seed=21, forcing_mode=mode, forcing_site=site,
                   languages=("L0", "L1") if mode != "none" else ())
    rng = np.random.default_rng(22)
    if shared_memory:
        langs = None if mode == "none" else "L1"
        enc = m.encode(rng.normal(size=(1, 20, 40)), [20], langs)
        full_enc = _rows(enc, [0, 0, 0])  # the oracle sees each row's own memory
    else:
        langs = None if mode == "none" else ["L0", "L1", "L0"]
        enc = full_enc = m.encode(rng.normal(size=(3, 20, 40)), [20, 14, 17], langs)
    ids = rng.integers(3, 12, size=(3, 7))
    ids[:, 0] = BOS_ID
    cache = DecoderCache()
    with T.no_grad():
        for L in range(1, ids.shape[1] + 1):
            if L == 4:  # the beam keeps row 2 and two continuations of row 0
                rows = [2, 0, 0]
                cache.select(rows)
                ids = ids[rows]
                if not shared_memory:  # per-row memories follow their rows
                    enc = full_enc = _rows(full_enc, rows)
                    langs = [langs[r] for r in rows] if langs is not None else None
                ids[1:, 3] = [5, 9]
            got = m.decode_logits(enc, ids[:, :L], langs, cache=cache).data
            want = m.decode_logits(full_enc, ids[:, :L], langs).data[:, -1:]
            assert got.shape == want.shape == (3, 1, 12)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_cache_rejects_prefixes_it_does_not_extend():
    with T.no_grad():
        m = make_model(seed=23)
        enc = m.encode(np.random.default_rng(24).normal(size=(1, 16, 40)), [16])
        ids = np.array([[BOS_ID, 4, 5, 6], [BOS_ID, 7, 8, 9]])
        cache = DecoderCache()
        m.decode_logits(enc, ids[:, :3], cache=cache)
        for stale in (ids[:, :2], ids[:, :3]):  # shorter than, or as long as, the cache
            with pytest.raises(ValueError, match="cached positions"):
                m.decode_logits(enc, stale, cache=cache)
        other = ids.copy()
        other[0, 1] = 9
        with pytest.raises(ValueError, match="do not extend"):
            m.decode_logits(enc, other, cache=cache)
        with pytest.raises(ValueError, match="holds 2 prefixes"):
            m.decode_logits(enc, ids[:1], cache=cache)
        # the failed calls left the cache as it was
        got = m.decode_logits(enc, ids, cache=cache).data
        want = m.decode_logits(enc, ids).data[:, 3:]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_cached_decoding_across_selects():
    """A select at 2 and at 9 cached positions keeps each row's positions,
    repeated rows included, and every cached call of a 12-position decode
    equals the full-prefix call."""
    m = make_model(seed=25)
    rng = np.random.default_rng(26)
    ids = rng.integers(3, 12, size=(3, 12))
    ids[:, 0] = BOS_ID
    cache = DecoderCache()
    with T.no_grad():
        enc = m.encode(rng.normal(size=(1, 20, 40)), [20])
        for L in range(1, ids.shape[1] + 1):
            if L in (2, 9):
                rows = [1, 1, 0] if L == 2 else [2, 0, 0]
                cache.select(rows)
                ids = ids[rows]
                ids[1:, L - 1] = [4, 7]  # distinct continuations of a repeated row
            got = m.decode_logits(enc, ids[:, :L], cache=cache).data
            want = m.decode_logits(enc, ids[:, :L]).data[:, -1:]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_cached_call_recording_a_graph_raises():
    m = make_model(seed=27)
    enc = m.encode(np.random.default_rng(28).normal(size=(1, 16, 40)), [16])
    cache = DecoderCache()
    with pytest.raises(RuntimeError, match="no_grad"):
        m.decode_logits(enc, np.array([[BOS_ID]]), cache=cache)
    assert cache.ids is None and not cache.layers


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(vocab_size=10, d_model=10, n_heads=3)
    with pytest.raises(ValueError, match="forcing"):
        ModelConfig(vocab_size=10, forcing_mode="blend")
    with pytest.raises(ValueError, match="languages"):
        ModelConfig(vocab_size=10, forcing_mode="merge")


@pytest.mark.parametrize("sizes, name", [({"n_heads": 0}, "n_heads"), ({"d_model": "8"}, "d_model"),
                                         ({"n_heads": 2.0}, "n_heads"), ({"vocab_size": True}, "vocab_size")])
def test_config_sizes_checked_before_arithmetic(sizes, name):
    """A size that is not a positive int is named before ``d_model % n_heads``
    runs, so ``n_heads=0`` is a ValueError, not a ZeroDivisionError."""
    with pytest.raises(ValueError, match=f"{name} must be a positive int"):
        ModelConfig(**{"vocab_size": 10, "d_model": 8, **sizes})


@pytest.mark.parametrize("dropout", [1.0, 1.5, -0.1, float("nan"), "0.1"])
def test_config_dropout_outside_unit_interval_rejected(dropout):
    with pytest.raises(ValueError, match="dropout must be a number in"):
        ModelConfig(vocab_size=10, d_model=8, dropout=dropout)


def test_lang_required_when_forcing_enabled():
    m = make_model(forcing_mode="merge", forcing_site="pre", languages=("L0",))
    with pytest.raises(ValueError, match="languages"):
        m.encode(np.zeros((1, 8, 40)), [8], None)
