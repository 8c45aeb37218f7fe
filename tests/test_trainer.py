import hashlib
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from multislt.manifest import ManifestEntry, Vocabulary
from multislt.model import ModelConfig, SpeechTransformer
from multislt.optim import AdamState, adam_step
from multislt.tensor import Tensor
from multislt.trainer import (Batch, BatchComposer, CheckpointError, Example,
                              LRSchedule, batch_loss, load_checkpoint, load_examples,
                              lr_at, make_batch, mix_asr, save_checkpoint, train_step,
                              transfer_encoder)

from helpers import V1_FIXTURE, record_opens, rewrite_checkpoint, rewrite_header


# learning-rate schedule ------------------------------------------------

def test_lr_at_anchors():
    s = LRSchedule(lr_max=0.01)
    assert lr_at(0, s) == pytest.approx(0.0003, abs=1e-12)
    assert lr_at(4000, s) == pytest.approx(0.01, abs=1e-12)
    assert lr_at(16000, s) == pytest.approx(0.005, abs=1e-12)


def test_lr_continuous_at_warmup():
    s = LRSchedule(lr_max=0.02)
    left = lr_at(4000, s)
    right = s.lr_max * (s.warmup / 4001) ** 0.5
    assert abs(left - lr_at(4001, s)) < abs(left) * 1e-3
    assert lr_at(4001, s) == pytest.approx(right, abs=1e-15)


def test_lr_strictly_decreasing_after_warmup():
    s = LRSchedule()
    vals = [lr_at(t, s) for t in range(4000, 4200)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v >= 0 for v in vals)


# adam ------------------------------------------------------------------

def test_adam_zero_gradient_leaves_params():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    state = AdamState()
    adam_step([("p", p)], state, lr=0.1)
    np.testing.assert_array_equal(p.data, [1.0, 2.0])
    assert state.step == 1


def test_adam_first_step_magnitude():
    p = Tensor(np.array([1.0, -1.0, 3.0]), requires_grad=True)
    p.grad = np.array([0.5, -2.0, 1e-3])
    before = p.data.copy()
    adam_step([("p", p)], AdamState(), lr=0.01)
    # bias-corrected first step is lr*sign(g) up to eps
    np.testing.assert_allclose(before - p.data, 0.01 * np.sign([0.5, -2.0, 1e-3]),
                               rtol=1e-3)


def test_adam_nan_gradient_names_parameter():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.array([np.nan, 0.0])
    with pytest.raises(FloatingPointError, match="enc.w"):
        adam_step([("enc.w", p)], AdamState(), lr=0.01)


def test_adam_nan_in_last_gradient_changes_nothing():
    params = [(name, Tensor(np.array([1.0, 2.0]), requires_grad=True)) for name in "abc"]
    for _, p in params:
        p.grad = np.array([0.5, -0.5])
    params[-1][1].grad = np.array([0.0, np.nan])
    state = AdamState()
    with pytest.raises(FloatingPointError, match="'c'"):
        adam_step(params, state, lr=0.1)
    assert state.step == 0 and not state.m
    for _, p in params:
        np.testing.assert_array_equal(p.data, [1.0, 2.0])


def test_adam_deterministic_across_runs():
    def run():
        rng = np.random.default_rng(42)
        p = Tensor(rng.normal(size=4), requires_grad=True)
        state = AdamState()
        for _ in range(5):
            p.grad = rng.normal(size=4)
            adam_step([("p", p)], state, lr=0.01)
        return p.data
    np.testing.assert_array_equal(run(), run())


# batching --------------------------------------------------------------

def _examples(counts: dict[str, int], t=12, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for lang, n in counts.items():
        for i in range(n):
            out.append(Example(f"{lang}{i}", rng.normal(size=(t, 40)),
                               [4, 5, 6, 7], lang))
    return out


def test_compose_full_groups():
    comp = BatchComposer(_examples({"de": 40, "nl": 40, "pt": 40}), seed=1)
    batch = comp.next_batch()
    assert sum(batch.group_sizes.values()) == 24
    assert batch.group_sizes == {"de": 8, "nl": 8, "pt": 8}


def test_compose_short_tail():
    comp = BatchComposer(_examples({"de": 11}), seed=2)
    assert comp.next_batch().group_sizes["de"] == 8
    assert comp.next_batch().group_sizes["de"] == 3


def test_compose_deterministic_sequence():
    def ids(seed):
        comp = BatchComposer(_examples({"de": 30, "nl": 20}), seed=seed)
        return [tuple(comp.next_batch().utt_ids) for _ in range(10)]
    assert ids(7) == ids(7)
    assert ids(7) != ids(8)


def test_compose_never_exceeds_cap_fuzz():
    comp = BatchComposer(_examples({"de": 37, "nl": 5, "pt": 13}), seed=4)
    for _ in range(500):
        batch = comp.next_batch()
        assert max(batch.group_sizes.values()) <= 8


def test_make_batch_padding_and_targets():
    ex = [Example("a", np.ones((5, 40)), [6, 7], "de"),
          Example("b", np.ones((3, 40)), [8, 9, 10], "de")]
    b = make_batch(ex)
    assert b.features.shape == (2, 5, 40)
    np.testing.assert_array_equal(b.lengths, [5, 3])
    np.testing.assert_array_equal(b.prefix_ids[0], [1, 6, 7, 0])
    np.testing.assert_array_equal(b.label_ids[0], [6, 7, 2, 0])
    np.testing.assert_array_equal(b.prefix_ids[1], [1, 8, 9, 10])
    np.testing.assert_array_equal(b.label_ids[1], [8, 9, 10, 2])


# train step ------------------------------------------------------------

def _tiny_model(seed=0, **kw):
    cfg = ModelConfig(vocab_size=12, d_model=16, ff_hidden=32, n_heads=2,
                      n_encoder_layers=1, n_decoder_layers=1, dropout=0.0, **kw)
    m = SpeechTransformer(cfg, seed=seed)
    m.set_rng(np.random.default_rng(seed + 100))
    return m


def test_zero_logit_model_gives_log_vocab_loss():
    m = _tiny_model()
    m.decoder.out_proj.weight.data[:] = 0.0
    m.decoder.out_proj.bias.data[:] = 0.0
    batch = make_batch(_examples({"de": 2})[:2])
    loss = batch_loss(m.eval(), batch)
    assert loss.item() == pytest.approx(np.log(12), abs=1e-12)


def test_accumulation_equals_single_large_batch():
    batch = make_batch(_examples({"de": 4}, seed=5))
    sched = LRSchedule(lr_max=0.001, warmup=10)

    m1 = _tiny_model(seed=6)
    train_step(m1, [batch] * 16, AdamState(), sched)
    m2 = _tiny_model(seed=6)
    train_step(m2, [batch], AdamState(), sched)

    for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert n1 == n2
        np.testing.assert_allclose(p1.data, p2.data, atol=1e-10)


def test_train_step_requires_training_mode():
    m = _tiny_model().eval()
    with pytest.raises(RuntimeError):
        train_step(m, [make_batch(_examples({"de": 2})[:2])], AdamState(), LRSchedule())


def test_train_step_aborts_on_nonfinite_loss():
    m = _tiny_model()
    m.decoder.out_proj.bias.data[:] = np.inf
    with pytest.warns(RuntimeWarning), pytest.raises(FloatingPointError):
        train_step(m, [make_batch(_examples({"de": 2})[:2])], AdamState(), LRSchedule())


# ASR mixing ------------------------------------------------------------

def test_mix_asr_doubles_rows():
    entries = [ManifestEntry(f"u{i}.wav", f"text {i}", f"ziel {i}", "de", "train")
               for i in range(5)]
    mixed = mix_asr(entries)
    assert len(mixed) == 10
    en_rows = [e for e in mixed if e.lang == "en"]
    assert len(en_rows) == 5
    assert all(e.target_text == e.transcript for e in en_rows)


def test_mix_asr_en_group_in_batches():
    entries = [ManifestEntry(f"u{i}", f"src{i}", f"tgt{i}", "de", "train")
               for i in range(12)]
    mixed = mix_asr(entries)
    examples = [Example(e.utt_id, np.zeros((8, 40)), [4], e.lang) for e in mixed]
    batch = BatchComposer(examples, seed=9).next_batch()
    assert 0 < batch.group_sizes["en"] <= 8


# checkpoints -----------------------------------------------------------

def _ckpt_model():
    cfg = ModelConfig(vocab_size=9, languages=("L0", "L1"), d_model=16,
                      ff_hidden=32, n_heads=2, n_encoder_layers=1,
                      n_decoder_layers=1, forcing_mode="merge", forcing_site="pre")
    return SpeechTransformer(cfg, seed=20)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    m = _ckpt_model()
    vocab = Vocabulary("abcde")
    state = AdamState(step=7)
    state.m = {n: np.random.default_rng(1).normal(size=p.shape)
               for n, p in m.named_parameters()}
    state.v = {n: np.abs(np.random.default_rng(2).normal(size=p.shape))
               for n, p in m.named_parameters()}
    p1 = str(tmp_path / "a.ckpt")
    p2 = str(tmp_path / "b.ckpt")
    save_checkpoint(p1, m, vocab, state)
    m2, vocab2, state2 = load_checkpoint(p1)
    save_checkpoint(p2, m2, vocab2, state2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    for (n1, q1), (n2, q2) in zip(m.named_parameters(), m2.named_parameters()):
        assert n1 == n2
        assert np.array_equal(q1.data, q2.data)
    assert state2.step == 7


def test_checkpoint_truncated_rejected(tmp_path):
    m = _ckpt_model()
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(path, m, Vocabulary("ab"))
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:len(blob) - 200])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_bad_magic_and_version(tmp_path):
    path = str(tmp_path / "d.ckpt")
    Path(path).write_bytes(b"garbagegarbage")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    m = _ckpt_model()
    save_checkpoint(path, m, Vocabulary("ab"))
    blob = bytearray(Path(path).read_bytes())
    blob[8] = 99  # version byte
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_vocab_size_mismatch_rejected(tmp_path):
    m = _ckpt_model()
    path = str(tmp_path / "e.ckpt")
    save_checkpoint(path, m, Vocabulary("abcdefgh"))  # 12 != cfg.vocab_size 9
    with pytest.raises(CheckpointError, match="vocab"):
        load_checkpoint(path)


def test_checkpoint_malformed_header_names_file(tmp_path):
    path, bad = str(tmp_path / "h.ckpt"), str(tmp_path / "bad.ckpt")
    save_checkpoint(path, _ckpt_model(), Vocabulary("abcde"))
    rewrite_header(path, bad, lambda h: h.update(config=[1]))
    with pytest.raises(CheckpointError, match=re.escape(bad)):
        load_checkpoint(bad)
    blob = bytearray(Path(path).read_bytes())
    blob[20] = 0xFF  # the header is no longer UTF-8 JSON
    Path(bad).write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="unreadable header"):
        load_checkpoint(bad)


@pytest.mark.parametrize("adam", [{}, [], {"beta1": "x", "beta2": 0.98, "eps": 1e-9, "step": 3},
                                  {"beta1": 0.9, "beta2": 0.98, "eps": 1e-9, "step": 3.0},
                                  {"beta1": 0.9, "beta2": 0.98, "eps": True, "step": 3}],
                         ids=["empty", "list", "string-beta1", "float-step", "bool-eps"])
def test_checkpoint_bad_adam_header_rejected(tmp_path, adam):
    path, bad = str(tmp_path / "a.ckpt"), str(tmp_path / "bad.ckpt")
    save_checkpoint(path, _ckpt_model(), Vocabulary("abcde"), AdamState(step=3))
    rewrite_header(path, bad, lambda h: h.update(adam=adam))
    with pytest.raises(CheckpointError, match=f"{re.escape(bad)}.*adam"):
        load_checkpoint(bad)


def _duplicate_last(header, payload):
    last = header["tensors"][-1]
    header["tensors"].append({**last, "offset": len(payload)})
    return payload + payload[last["offset"]:]


@pytest.mark.parametrize("edit, message", [
    (lambda header, payload: payload + bytes(64), "64 bytes follow the last tensor record"),
    (_duplicate_last, "repeats")], ids=["trailing-bytes", "duplicate"])
def test_checkpoint_records_must_tile_the_payload(tmp_path, edit, message):
    path, bad = str(tmp_path / "a.ckpt"), str(tmp_path / "bad.ckpt")
    save_checkpoint(path, _ckpt_model(), Vocabulary("abcde"), AdamState(step=3))
    rewrite_checkpoint(path, bad, edit)
    with pytest.raises(CheckpointError, match=f"{re.escape(bad)}: .*{message}"):
        load_checkpoint(bad)


@pytest.mark.parametrize("field", ["d_model", "ff_hidden", "n_encoder_layers",
                                   "n_decoder_layers", "n_mels", "frontend_channels",
                                   "sa2d_channels", "sa2d_out_channels"])
def test_checkpoint_config_sizes_checked_before_building(tmp_path, field):
    import time
    import tracemalloc

    path, bad = str(tmp_path / "a.ckpt"), str(tmp_path / "bad.ckpt")
    save_checkpoint(path, _ckpt_model(), Vocabulary("abcde"))
    rewrite_header(path, bad, lambda h: h["config"].update({field: 10**12}))
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=re.escape(bad)):
            load_checkpoint(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000 and time.perf_counter() - t0 < 1.0


def test_load_examples_closes_archive_on_malformed_record(tmp_path, monkeypatch):
    from multislt import audio

    opened = record_opens(monkeypatch, audio)
    rng = np.random.default_rng(0)
    arc = str(tmp_path / "data.feats")
    audio.write_feature_archive(arc, [(u, rng.normal(size=(6, 40))) for u in ("u0", "u1")])
    with open(arc, "r+b") as f:
        f.truncate(f.seek(0, 2) - 4)  # u1's payload is cut short
    entries = [ManifestEntry(f"data.feats#{u}", "ab", "ab", "L0", "train") for u in ("u0", "u1")]
    n_written = len(opened)
    with pytest.raises(ValueError, match="'u1' is truncated"):
        load_examples(entries, Vocabulary("ab"), base_dir=str(tmp_path))
    assert len(opened) > n_written and all(f.closed for f in opened)
    examples = load_examples(entries[:1], Vocabulary("ab"), base_dir=str(tmp_path))
    assert len(examples) == 1 and examples[0].features.shape == (6, 40)
    assert all(f.closed for f in opened)


def _synth(root, n_utt: int, n_lang: int = 2):
    """A synthetic corpus under ``root``: (manifest path, rows, vocab)."""
    from multislt.manifest import build_vocab
    from multislt.synth import default_languages, synth_dataset

    languages = default_languages(n_lang)
    manifest, entries = synth_dataset(str(root), seed=5, n_utt_per_lang=n_utt,
                                      languages=languages)
    return manifest, entries, build_vocab(entries, [lang.lang_id for lang in languages])


def test_batches_equal_eager_archive_oracle(tmp_path):
    from multislt.audio import FeatureArchive, normalize

    _, entries, vocab = _synth(tmp_path, 20)
    examples = load_examples(entries, vocab, base_dir=str(tmp_path), split="train")
    arc = FeatureArchive(str(tmp_path / "data.feats"))
    eager = [Example(e.utt_id, normalize(arc.load(e.utt_id)), e.target_ids, e.lang)
             for e in examples]
    lazy_batches, eager_batches = BatchComposer(examples, seed=3), BatchComposer(eager, seed=3)
    for _ in range(6):
        got, want = lazy_batches.next_batch(), eager_batches.next_batch()
        for name in ("features", "lengths", "prefix_ids", "label_ids"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert (got.langs, got.utt_ids) == (want.langs, want.utt_ids)


def test_train_run_and_decode_split_pinned(tmp_path):
    """Loss reprs, checkpoint bytes and hypotheses pinned from the program
    that held every normalized utterance in memory."""
    from multislt.decoding import decode_corpus, decode_split
    from multislt.trainer import RunConfig, train_run

    manifest, entries, _ = _synth(tmp_path, 20)
    ckpt = str(tmp_path / "m.ckpt")
    model, vocab, _, losses = train_run(RunConfig(manifest=manifest, seed=1, steps=3, accum=2,
                                                  forcing="merge", site="pre", save=ckpt))
    assert [repr(x) for x in losses] == ["4.25920348975616", "4.0654796459157705",
                                         "4.005848736263395"]
    assert hashlib.sha256(Path(ckpt).read_bytes()).hexdigest() == (
        "459e72bb6ce3fb34ab69219768f99d8f54979d07b0635d7c51b302eddc268280")
    examples, hyps = decode_split(model, vocab, entries, str(tmp_path), "test",
                                  beam=2, max_len=5)
    assert [(h.ids, repr(h.logprob)) for h in hyps] == [([1, 2], "-2.3781615248702614"),
                                                         ([1, 2], "-2.335820552595803")]
    assert decode_corpus(model, vocab, [(ex.features, ex.lang) for ex in examples],
                         beam=2, max_len=5) == hyps


def test_training_memory_does_not_grow_with_corpus(tmp_path):
    """Archive rows are read per batch: from 3×200 to 3×2000 utterances, the
    traced peak of load_examples and 8 batches grows by the rows' ids and
    index entries (3.1 MB measured), not by the 4860 more normalized
    matrices that loading every row would hold (≈83 MB)."""
    import tracemalloc

    peaks = []
    for n_utt in (200, 2000):
        root = tmp_path / str(n_utt)
        _, entries, vocab = _synth(root, n_utt, n_lang=3)
        tracemalloc.start()
        try:
            composer = BatchComposer(load_examples(entries, vocab, base_dir=str(root),
                                                   split="train"), seed=0)
            for _ in range(8):
                composer.next_batch()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 5_000_000


# version-1 checkpoints ---------------------------------------------------

def _v1_fixture():
    """The fixture's model, vocab and Adam state, plus its reference values."""
    model, vocab, state = load_checkpoint(V1_FIXTURE + ".ckpt")
    return model, vocab, state, np.load(V1_FIXTURE + ".npz")


def test_version_1_checkpoint_loads_with_equal_logits():
    model, _, _, ref = _v1_fixture()
    langs = list(ref["langs"])
    model.eval()
    enc = model.encode(ref["features"], ref["lengths"], langs)
    assert np.array_equal(model.decode_logits(enc, ref["prefix_ids"], langs).data, ref["logits"])


def test_version_1_adam_moments_join_in_q_k_v_order():
    _, _, state, ref = _v1_fixture()
    joined = 0
    for key in ref.files:
        m = re.fullmatch(r"([mv])\.(encoder\.sa2d\d)\.q\.(conv|bn)\.(\w+)", key)
        if m is None:
            continue
        parts = [ref[f"{m[1]}.{m[2]}.{b}.{m[3]}.{m[4]}"] for b in "qkv"]
        moments = state.m if m[1] == "m" else state.v
        assert np.array_equal(moments[f"{m[2]}.qkv.{m[4]}"], np.concatenate(parts)), key
        assert not np.array_equal(parts[0], parts[1])  # the order is observable
        joined += 1
    assert joined == 2 * 2 * 4  # m and v, two SA2D layers, four tensors each


def test_transfer_from_version_1_copies_every_encoder_tensor():
    model, _, _, _ = _v1_fixture()
    dst = SpeechTransformer(model.cfg, seed=9)
    encoder = {n: a for n, a in model.state_dict().items() if n.startswith("encoder.")}
    assert transfer_encoder(V1_FIXTURE + ".ckpt", dst) == len(encoder)
    for name, arr in dst.state_dict().items():
        if name in encoder:
            np.testing.assert_array_equal(arr, encoder[name], err_msg=name)


def test_version_1_resaves_as_version_2_round_trip(tmp_path):
    model, vocab, state, _ = _v1_fixture()
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(p1, model, vocab, state)
    blob = Path(p1).read_bytes()
    assert struct.unpack_from("<I", blob, 8) == (2,)
    m2, vocab2, state2 = load_checkpoint(p1)
    save_checkpoint(p2, m2, vocab2, state2)
    assert Path(p2).read_bytes() == blob


def test_version_1_without_sa2d_penalty_rejected(tmp_path):
    bad = str(tmp_path / "nopen.ckpt")
    rewrite_header(V1_FIXTURE + ".ckpt", bad,
                   lambda h: h["config"].update(penalty_in_sa2d=False))
    with pytest.raises(CheckpointError, match="penalty"):
        load_checkpoint(bad)


def test_version_1_missing_qkv_block_rejected(tmp_path):
    """sa2d1's k block goes with its payload bytes and the later records move
    down, so the records still tile the payload and the q, k, v join fails."""
    def drop_k(header, payload):
        kept = [r for r in header["tensors"] if r["name"] != "encoder.sa2d1.k.conv.weight"]
        parts, offset = [], 0
        for r in kept:
            n = 8 * math.prod(r["shape"])
            parts.append(payload[r["offset"]:r["offset"] + n])
            r["offset"] = offset
            offset += n
        header["tensors"] = kept
        return b"".join(parts)

    bad = str(tmp_path / "nok.ckpt")
    rewrite_checkpoint(V1_FIXTURE + ".ckpt", bad, drop_k)
    with pytest.raises(CheckpointError,
                       match=r"sa2d1\.qkv\.weight \(\w+\) lacks a q, k or v block"):
        load_checkpoint(bad)


# encoder transfer ------------------------------------------------------

def test_transfer_copies_encoder_only(tmp_path):
    src = _ckpt_model()
    path = str(tmp_path / "asr.ckpt")
    save_checkpoint(path, src, Vocabulary("abcde"))
    dst = _ckpt_model()
    for _, p in dst.named_parameters():
        p.data = p.data + 1.0  # make everything differ
    dec_before = {n: p.data.copy() for n, p in dst.named_parameters()
                  if n.startswith("decoder.")}
    frc_before = {n: p.data.copy() for n, p in dst.named_parameters()
                  if n.startswith("forcing.")}
    count = transfer_encoder(path, dst)
    assert count > 0
    src_params = dict(src.named_parameters())
    for n, p in dst.named_parameters():
        if n.startswith("encoder."):
            np.testing.assert_array_equal(p.data, src_params[n].data)
        elif n.startswith("decoder."):
            np.testing.assert_array_equal(p.data, dec_before[n])
        elif n.startswith("forcing."):
            np.testing.assert_array_equal(p.data, frc_before[n])


def test_transfer_idempotent(tmp_path):
    src = _ckpt_model()
    path = str(tmp_path / "asr.ckpt")
    save_checkpoint(path, src, Vocabulary("abcde"))
    dst = _ckpt_model()
    transfer_encoder(path, dst)
    once = {n: p.data.copy() for n, p in dst.named_parameters()}
    transfer_encoder(path, dst)
    for n, p in dst.named_parameters():
        np.testing.assert_array_equal(p.data, once[n])


def test_transfer_shape_mismatch_names_parameter(tmp_path):
    src = _ckpt_model()
    path = str(tmp_path / "asr.ckpt")
    save_checkpoint(path, src, Vocabulary("abcde"))
    cfg = ModelConfig(vocab_size=9, d_model=32, ff_hidden=32, n_heads=2,
                      n_encoder_layers=1, n_decoder_layers=1)
    dst = SpeechTransformer(cfg, seed=1)
    with pytest.raises(CheckpointError, match="encoder\\."):
        transfer_encoder(path, dst)


def test_failed_transfer_leaves_model_untouched(tmp_path):
    src = _ckpt_model()  # d_model 16
    path = str(tmp_path / "asr.ckpt")
    save_checkpoint(path, src, Vocabulary("abcde"))
    cfg = ModelConfig(vocab_size=9, d_model=32, ff_hidden=32, n_heads=2,
                      n_encoder_layers=1, n_decoder_layers=1)
    dst = SpeechTransformer(cfg, seed=1)

    def digests():
        return {n: hashlib.sha256(a.tobytes()).hexdigest() for n, a in dst.state_dict().items()}

    before = digests()
    with pytest.raises(CheckpointError):
        transfer_encoder(path, dst)
    assert digests() == before


def test_encoder_decoder_prefixes_partition_base_model():
    m = SpeechTransformer(ModelConfig(vocab_size=9, d_model=16, ff_hidden=32,
                                      n_heads=2, n_encoder_layers=1,
                                      n_decoder_layers=1), seed=0)
    names = [n for n, _ in m.named_parameters()]
    assert len(names) == len(set(names))
    assert all(n.startswith(("encoder.", "decoder.")) for n in names)
