"""Multilingual training: batch composition, LR schedule, gradient
accumulation, ASR mixing, encoder transfer, and checkpoint I/O."""

from __future__ import annotations

import json
import os
import struct
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .manifest import BOS_ID, EOS_ID, PAD_ID, ManifestEntry, Vocabulary
from .model import ModelConfig, SpeechTransformer
from .optim import AdamState, adam_step
from .tensor import Tensor

MAX_PER_LANG = 8


@dataclass
class LRSchedule:
    """Linear warmup from lr_init to lr_max, then inverse-square-root decay.

    The decay is anchored at the warmup boundary so the curve is continuous.
    """

    lr_init: float = 0.0003
    lr_max: float = 0.01
    warmup: int = 4000


# The desk training recipe, criterion 7's: the defaults of ``multislt train``
# and of ``run_toy_experiment``. Its warmup ends well inside its run, which
# ``LRSchedule``'s full-scale warmup of 4000 updates would not.
DESK_RECIPE = {"steps": 700, "accum": 4, "warmup": 130, "lr_max": 0.003}


def lr_at(step: int, sched: LRSchedule) -> float:
    if step < 0:
        raise ValueError("step must be >= 0")
    if step <= sched.warmup:
        return sched.lr_init + (sched.lr_max - sched.lr_init) * step / sched.warmup
    return sched.lr_max * (sched.warmup / step) ** 0.5


@dataclass
class Example:
    utt_id: str
    features: np.ndarray  # normalized T×F
    target_ids: list[int]  # no bos/eos
    lang: str


@dataclass
class Batch:
    """Per-language groups of padded utterances.

    ``langs[i]`` is utterance i's target language; groups never exceed
    MAX_PER_LANG utterances per language.
    """

    features: np.ndarray   # B×T×F
    lengths: np.ndarray    # B
    prefix_ids: np.ndarray  # B×L, bos-initial
    label_ids: np.ndarray   # B×L, eos-terminated, pad elsewhere
    langs: list[str]
    utt_ids: list[str] = field(default_factory=list)

    @property
    def group_sizes(self) -> dict[str, int]:
        sizes: dict[str, int] = {}
        for lang in self.langs:
            sizes[lang] = sizes.get(lang, 0) + 1
        return sizes


def make_batch(examples: list[Example]) -> Batch:
    t_max = max(e.features.shape[0] for e in examples)
    n_feat = examples[0].features.shape[1]
    l_max = max(len(e.target_ids) for e in examples) + 1
    feats = np.zeros((len(examples), t_max, n_feat))
    lengths = np.zeros(len(examples), dtype=np.int64)
    prefix = np.full((len(examples), l_max), PAD_ID, dtype=np.int64)
    labels = np.full((len(examples), l_max), PAD_ID, dtype=np.int64)
    for i, e in enumerate(examples):
        t = e.features.shape[0]
        feats[i, :t] = e.features
        lengths[i] = t
        ids = e.target_ids
        prefix[i, 0] = BOS_ID
        prefix[i, 1:1 + len(ids)] = ids
        labels[i, :len(ids)] = ids
        labels[i, len(ids)] = EOS_ID
    return Batch(feats, lengths, prefix, labels,
                 [e.lang for e in examples], [e.utt_id for e in examples])


def load_examples(entries: list[ManifestEntry], vocab: Vocabulary,
                  base_dir: str = ".", split: str | None = None) -> list[Example]:
    """Materialize normalized features and target ids for manifest rows.

    ``archive.feats#utt`` paths read from feature archives (cached);
    plain paths are WAV files run through the MEL pipeline.
    """
    from .audio import FeatureArchive, mel_spectrogram, normalize, read_wav

    archives: dict[str, FeatureArchive] = {}
    out = []
    for e in entries:
        if split is not None and e.split != split:
            continue
        if "#" in e.audio_path:
            arc_path, utt_id = e.audio_path.split("#", 1)
            if not os.path.isabs(arc_path):
                arc_path = os.path.join(base_dir, arc_path)
            if arc_path not in archives:
                archives[arc_path] = FeatureArchive(arc_path)
            fs = archives[arc_path].load(utt_id)
        else:
            path = e.audio_path
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            fs = mel_spectrogram(read_wav(path), e.utt_id)
        fs = normalize(fs)
        out.append(Example(fs.utt_id, fs.frames,
                           vocab.encode(e.target_text, add_bos_eos=False), e.lang))
    return out


class BatchComposer:
    """Takes up to 8 next utterances from every language per batch.

    Each language reshuffles independently (seeded stream) when its epoch is
    exhausted, so the stream of batches never ends.
    """

    def __init__(self, examples: list[Example], seed: int = 0):
        if not examples:
            raise ValueError("no training examples")
        self.by_lang: dict[str, list[Example]] = {}
        for e in examples:
            self.by_lang.setdefault(e.lang, []).append(e)
        self.rngs = {lang: np.random.default_rng((seed, i))
                     for i, lang in enumerate(sorted(self.by_lang))}
        self.queues = {lang: [] for lang in self.by_lang}

    def _refill(self, lang: str):
        order = self.rngs[lang].permutation(len(self.by_lang[lang]))
        self.queues[lang] = [self.by_lang[lang][i] for i in order[::-1]]

    def next_batch(self) -> Batch:
        chosen: list[Example] = []
        for lang in sorted(self.by_lang):
            q = self.queues[lang]
            take: list[Example] = []
            while len(take) < MAX_PER_LANG:
                if not q:
                    self._refill(lang)
                    q = self.queues[lang]
                    if take:
                        break  # "up to" semantics: a short tail stays short
                take.append(q.pop())
            chosen.extend(take)
        return make_batch(chosen)


def batch_loss(model: SpeechTransformer, batch: Batch) -> Tensor:
    """Mean token NLL over the batch's non-pad target positions."""
    enc = model.encode(batch.features, batch.lengths, batch.langs)
    logits = model.decode_logits(enc, batch.prefix_ids, batch.langs)
    flat = T.reshape(logits, (-1, model.cfg.vocab_size))
    return T.cross_entropy(flat, batch.label_ids.reshape(-1), PAD_ID)


def train_step(model: SpeechTransformer, batches: list[Batch],
               state: AdamState, sched: LRSchedule) -> float:
    """Accumulate gradients over the batches, then one Adam update.

    Gradients are scaled by 1/len(batches) so the effective step matches a
    single large batch; the returned loss is the window mean.
    """
    if not model.training:
        raise RuntimeError("train_step needs the model in training mode")
    params = list(model.named_parameters())
    losses = []
    for batch in batches:
        loss = batch_loss(model, batch)
        if not np.isfinite(loss.item()):
            raise FloatingPointError(
                f"non-finite loss at update {state.step} on languages "
                f"{sorted(batch.group_sizes)} (utterances {batch.utt_ids[:4]}...)")
        loss.backward()
        losses.append(loss.item())
    inv = 1.0 / len(batches)
    for _, p in params:
        if p.grad is not None:
            p.grad *= inv
    adam_step(params, state, lr_at(state.step, sched))
    return float(np.mean(losses))


def mix_asr(entries: list[ManifestEntry]) -> list[ManifestEntry]:
    """Emit extra rows using the English transcript as target language "en"."""
    extra = [ManifestEntry(e.audio_path, e.transcript, e.transcript, "en", e.split)
             for e in entries if e.lang != "en" and e.transcript]
    return entries + extra


# checkpoints -----------------------------------------------------------
# Layout: magic, u32 version, u64 header length, JSON header, then raw
# little-endian float64 tensor payloads at the offsets the header records.

MAGIC = b"MSLTCKPT"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str, model: SpeechTransformer, vocab: Vocabulary,
                    state: AdamState | None = None):
    arrays: list[tuple[str, str, np.ndarray]] = []
    for name, p in model.named_parameters():
        arrays.append((name, "param", p.data))
    for name, b in model.named_buffers():
        arrays.append((name, "buffer", b))
    if state is not None:
        for name in sorted(state.m):
            arrays.append((name, "adam_m", state.m[name]))
            arrays.append((name, "adam_v", state.v[name]))
    offset = 0
    index = []
    for name, kind, arr in arrays:
        index.append({"name": name, "kind": kind, "shape": list(arr.shape),
                      "offset": offset})
        offset += 8 * arr.size
    header = {
        "config": model.cfg.to_dict(),
        "vocab": vocab.chars,
        "languages": list(model.cfg.languages),
        "adam": None if state is None else {"beta1": state.beta1, "beta2": state.beta2,
                                            "eps": state.eps, "step": state.step},
        "tensors": index,
    }
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IQ", VERSION, len(blob)))
        f.write(blob)
        for _, _, arr in arrays:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    os.replace(tmp, path)


def read_checkpoint(path: str) -> tuple[dict, dict[tuple[str, str], np.ndarray]]:
    """Header dict plus (name, kind) -> array map. Validates framing."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(MAGIC) + 12 or data[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version, hlen = struct.unpack_from("<IQ", data, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(f"{path}: unknown checkpoint version {version}")
    start = len(MAGIC) + 12
    if len(data) < start + hlen:
        raise CheckpointError(f"{path}: truncated header")
    header = json.loads(data[start:start + hlen].decode("utf-8"))
    payload = data[start + hlen:]
    tensors = {}
    for rec in header["tensors"]:
        size = int(np.prod(rec["shape"], dtype=np.int64)) if rec["shape"] else 1
        end = rec["offset"] + 8 * size
        if end > len(payload):
            raise CheckpointError(f"{path}: truncated payload at tensor {rec['name']!r}")
        arr = np.frombuffer(payload, dtype="<f8", count=size,
                            offset=rec["offset"]).reshape(rec["shape"]).copy()
        tensors[(rec["name"], rec["kind"])] = arr
    return header, tensors


def load_checkpoint(path: str, seed: int = 0):
    """Rebuild (model, vocab, adam state) from a checkpoint file."""
    header, tensors = read_checkpoint(path)
    cfg = ModelConfig.from_dict(header["config"])
    vocab = Vocabulary(header["vocab"])
    if len(vocab) != cfg.vocab_size:
        raise CheckpointError(f"{path}: vocab size {len(vocab)} does not match "
                              f"config vocab_size {cfg.vocab_size}")
    model = SpeechTransformer(cfg, seed=seed)
    state_dict = {name: arr for (name, kind), arr in tensors.items()
                  if kind in ("param", "buffer")}
    try:
        model.load_state_dict(state_dict)
    except (KeyError, ValueError) as e:
        raise CheckpointError(f"{path}: {e}") from e
    state = None
    if header["adam"] is not None:
        a = header["adam"]
        state = AdamState(beta1=a["beta1"], beta2=a["beta2"], eps=a["eps"], step=a["step"])
        state.m = {name: arr for (name, kind), arr in tensors.items() if kind == "adam_m"}
        state.v = {name: arr for (name, kind), arr in tensors.items() if kind == "adam_v"}
    return model, vocab, state


def transfer_encoder(ckpt_path: str, model: SpeechTransformer) -> int:
    """Copy every "encoder." parameter and buffer from a checkpoint.

    Decoder and language-embedding parameters are untouched. Returns the
    number of copied tensors. Idempotent.
    """
    _, tensors = read_checkpoint(ckpt_path)
    own_params = dict(model.named_parameters())
    own_bufs = dict(model.named_buffers())
    copied = 0
    for (name, kind), arr in tensors.items():
        if not name.startswith("encoder.") or kind not in ("param", "buffer"):
            continue
        if kind == "param":
            if name not in own_params:
                raise CheckpointError(f"encoder parameter {name!r} missing from model")
            if own_params[name].shape != arr.shape:
                raise CheckpointError(f"shape mismatch for {name!r}: model "
                                      f"{own_params[name].shape} vs checkpoint {arr.shape}")
            own_params[name].data = arr.copy()
        else:
            if name not in own_bufs or own_bufs[name].shape != arr.shape:
                raise CheckpointError(f"encoder buffer {name!r} missing or mismatched")
            own_bufs[name][...] = arr
        copied += 1
    if copied == 0:
        raise CheckpointError(f"{ckpt_path}: no encoder tensors found")
    return copied


def train_model(cfg: ModelConfig, examples: list[Example], seed: int,
                sched: LRSchedule, steps: int, accum: int,
                transfer_from: str | None = None, log_path: str | None = None,
                run_config: dict | None = None, verbose: bool = False):
    """Build a model and run ``steps`` optimizer updates on ``examples``.

    One seed drives the run: model initialisation ``seed``, dropout
    ``(seed, 999)`` and batch composition ``BatchComposer(seed)``. With
    ``log_path``, ``run_config`` is written as a "# {json}" header before
    step 0 (so the run can be reproduced from it), then one
    step/lr/loss/elapsed row per update. Returns (model, Adam state,
    per-update losses).
    """
    model = SpeechTransformer(cfg, seed=seed)
    model.set_rng(np.random.default_rng((seed, 999)))
    if transfer_from:
        copied = transfer_encoder(transfer_from, model)
        print(f"transferred {copied} encoder tensors from {transfer_from}")
    composer = BatchComposer(examples, seed=seed)
    state = AdamState()
    losses = []
    with open(log_path, "w", encoding="utf-8") if log_path else nullcontext() as log:
        if log is not None:
            log.write("# " + json.dumps(run_config, sort_keys=True) + "\n")
            log.flush()
        t0 = time.monotonic()
        for _ in range(steps):
            batches = [composer.next_batch() for _ in range(accum)]
            lr = lr_at(state.step, sched)
            losses.append(train_step(model, batches, state, sched))
            if log is not None:
                log.write(f"{state.step}\t{lr:.8g}\t{losses[-1]:.6f}\t"
                          f"{time.monotonic() - t0:.3f}\n")
                log.flush()
            if verbose and (state.step == 1 or state.step % 50 == 0):
                print(f"step {state.step}  lr {lr:.6g}  loss {losses[-1]:.4f}", flush=True)
    if verbose and losses:
        print(f"done: step {state.step}  loss {losses[-1]:.4f}")
    return model, state, losses
