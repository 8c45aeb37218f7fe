"""Multilingual training: batch composition, LR schedule, gradient accumulation,
ASR mixing, encoder transfer, checkpoint I/O, and ``train_run``, the one run of
a ``RunConfig`` that the CLI and ``run_toy_experiment`` share."""

from __future__ import annotations

import functools
import json
import math
import os
import re
import struct
import time
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from . import audio
from . import tensor as T
from .manifest import (BOS_ID, EOS_ID, PAD_ID, ManifestEntry, Vocabulary, build_vocab,
                       read_manifest)
from .model import DESK, ModelConfig, SpeechTransformer, size_shapes
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


def lr_at(step: int, sched: LRSchedule) -> float:
    if step < 0:
        raise ValueError("step must be >= 0")
    if step <= sched.warmup:
        return sched.lr_init + (sched.lr_max - sched.lr_init) * step / sched.warmup
    return sched.lr_max * (sched.warmup / step) ** 0.5


@dataclass
class Example:
    """One utterance: normalized T×F ``features``, ``target_ids`` without
    bos/eos, and its target language.

    ``source`` is the feature matrix, or a zero-argument loader that returns
    it. ``load_examples`` gives each archive row a loader, so the example
    holds no frames and ``features`` reads and normalizes the record on each
    access; a caller that needs the matrix twice keeps what one access
    returned.
    """

    utt_id: str
    source: np.ndarray | Callable[[], np.ndarray]
    target_ids: list[int]
    lang: str

    @property
    def features(self) -> np.ndarray:
        return self.source() if callable(self.source) else self.source


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
    """Pad the examples into one batch, reading each one's features once."""
    features = [e.features for e in examples]
    t_max = max(f.shape[0] for f in features)
    l_max = max(len(e.target_ids) for e in examples) + 1
    feats = np.zeros((len(examples), t_max, features[0].shape[1]))
    lengths = np.zeros(len(examples), dtype=np.int64)
    prefix = np.full((len(examples), l_max), PAD_ID, dtype=np.int64)
    labels = np.full((len(examples), l_max), PAD_ID, dtype=np.int64)
    for i, (e, f) in enumerate(zip(examples, features)):
        t = f.shape[0]
        feats[i, :t] = f
        lengths[i] = t
        ids = e.target_ids
        prefix[i, 0] = BOS_ID
        prefix[i, 1:1 + len(ids)] = ids
        labels[i, :len(ids)] = ids
        labels[i, len(ids)] = EOS_ID
    return Batch(feats, lengths, prefix, labels,
                 [e.lang for e in examples], [e.utt_id for e in examples])


def _archive_features(archive: audio.FeatureArchive, utt_id: str) -> np.ndarray:
    return audio.normalize(archive.load(utt_id))


def load_examples(entries: list[ManifestEntry], vocab: Vocabulary,
                  base_dir: str = ".", split: str | None = None) -> list[Example]:
    """Target ids and normalized features for manifest rows.

    ``archive.feats#utt`` rows are read on demand: each ``Example.features``
    access loads and normalizes the record, so memory does not grow with the
    corpus. Only the records' headers are read here, so a missing, truncated,
    oversized or empty record, or one whose feature dimension differs from
    the split's other records, fails now, naming the archive and utterance.
    Plain paths are WAV files, run through the MEL pipeline here and kept in
    memory; ``multislt extract`` turns a large WAV corpus into an archive.
    """
    archives: dict[str, tuple[audio.FeatureArchive, list[str]]] = {}
    out = []
    for e in entries:
        if split is not None and e.split != split:
            continue
        target_ids = vocab.encode(e.target_text)
        if "#" in e.audio_path:
            arc_path, utt_id = e.audio_path.split("#", 1)
            arc_path = os.path.join(base_dir, arc_path)
            if arc_path not in archives:
                archives[arc_path] = (audio.FeatureArchive(arc_path), [])
            archive, utt_ids = archives[arc_path]
            utt_ids.append(utt_id)
            out.append(Example(utt_id, functools.partial(_archive_features, archive, utt_id),
                               target_ids, e.lang))
        else:
            samples = audio.read_wav(os.path.join(base_dir, e.audio_path))
            out.append(Example(e.utt_id, audio.normalize(audio.mel_spectrogram(samples)),
                               target_ids, e.lang))
    fdim = None  # one feature dimension for every archive record of the split
    for archive, utt_ids in archives.values():
        fdim = archive.check(utt_ids, fdim)
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


def asr_rows(entries) -> list[ManifestEntry]:
    """One row per entry with a transcript, targeting it as language "en"."""
    return [ManifestEntry(e.audio_path, e.transcript, e.transcript, "en", e.split)
            for e in entries if e.transcript]


def mix_asr(entries: list[ManifestEntry]) -> list[ManifestEntry]:
    """Emit extra rows using the English transcript as target language "en"."""
    return entries + asr_rows(e for e in entries if e.lang != "en")


# checkpoints -----------------------------------------------------------
# Layout: magic, u32 version, u64 header length, JSON header, then raw
# little-endian float64 tensor payloads at the offsets the header records.

MAGIC = b"MSLTCKPT"
VERSION = 2
HEADER_FIELDS = ("config", "vocab", "adam", "tensors")
TENSOR_KINDS = ("param", "buffer", "adam_m", "adam_v")


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
        "config": asdict(model.cfg),
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


def _rename_v1(path: str, config: dict, tensors: dict) -> dict:
    """Version 1's tensors under version 2's names: a conv block's ``.conv.``
    or ``.bn.`` segment goes, and each SA2D's q, k and v blocks join on axis 0,
    in that order, as ``qkv``. ``config`` loses ``penalty_in_sa2d``."""
    if config.pop("penalty_in_sa2d", True) is not True:
        raise CheckpointError(f"{path}: SA2D without its distance penalty is no longer supported")
    out, qkv = {}, {}
    for (name, kind), arr in tensors.items():
        name = re.sub(r"\.(?:conv|bn)\.", ".", name)
        m = re.fullmatch(r"(encoder\.sa2d\d+)\.([qkv])\.(\w+)", name)
        if m:
            qkv.setdefault((f"{m[1]}.qkv.{m[3]}", kind), {})[m[2]] = arr
        else:
            out[(name, kind)] = arr
    for (name, kind), parts in qkv.items():
        if len(parts) < 3:
            raise CheckpointError(f"{path}: {name} ({kind}) lacks a q, k or v block")
        out[(name, kind)] = np.concatenate([parts[b] for b in "qkv"])
    return out


def read_checkpoint(path: str) -> tuple[dict, dict[tuple[str, str], np.ndarray]]:
    """Header dict plus (name, kind) -> array map, in version 2's names."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(MAGIC) + 12 or data[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version, hlen = struct.unpack_from("<IQ", data, len(MAGIC))
    if version not in (1, VERSION):
        raise CheckpointError(f"{path}: unknown checkpoint version {version}")
    start = len(MAGIC) + 12
    if len(data) < start + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(data[start:start + hlen].decode("utf-8"))
    except ValueError as e:
        raise CheckpointError(f"{path}: unreadable header: {e}") from e
    missing = [k for k in HEADER_FIELDS if not isinstance(header, dict) or k not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {', '.join(missing)}")
    if not isinstance(header["config"], dict):
        raise CheckpointError(f"{path}: header config is not an object")
    if not isinstance(header["tensors"], list):
        raise CheckpointError(f"{path}: header tensors is not a list")
    payload = data[start + hlen:]
    tensors = {}
    end = 0  # the records tile the payload: each starts where the one before ends
    for i, rec in enumerate(header["tensors"]):
        if not (isinstance(rec, dict) and isinstance(rec.get("name"), str)
                and rec.get("kind") in TENSOR_KINDS and isinstance(rec.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in [*rec["shape"], rec.get("offset")])):
            raise CheckpointError(f"{path}: malformed tensor record {i}: {rec!r}")
        key = (rec["name"], rec["kind"])
        if key in tensors:
            raise CheckpointError(f"{path}: tensor record {i} repeats {key}")
        if rec["offset"] != end:
            raise CheckpointError(f"{path}: tensor record {i} starts at payload byte "
                                  f"{rec['offset']}, not at {end}, where the one before ends")
        size = math.prod(rec["shape"])
        end += 8 * size
        if end > len(payload):
            raise CheckpointError(f"{path}: truncated payload at tensor {rec['name']!r}")
        tensors[key] = np.frombuffer(payload, dtype="<f8", count=size,
                                     offset=rec["offset"]).reshape(rec["shape"]).copy()
    if end != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - end} bytes follow the last tensor record")
    if version == 1:
        tensors = _rename_v1(path, header["config"], tensors)
    return header, tensors


def _check_sizes(path: str, cfg: ModelConfig, tensors: dict):
    """Check the config's sizes against the tensor records that show them,
    so a header that claims a larger model fails before one is built."""
    for stack, n in (("encoder", cfg.n_encoder_layers), ("decoder", cfg.n_decoder_layers)):
        found = {int(m[1]) for name, _ in tensors
                 if (m := re.match(rf"{stack}\.layers\.(\d+)\.", name))}
        if len(found) != n or found != set(range(n)):
            raise CheckpointError(f"{path}: config n_{stack}_layers {n} does not match "
                                  f"the {len(found)} {stack} layers of its tensors")
    for name, shape in size_shapes(cfg).items():
        arr = tensors.get((name, "param"))
        if arr is None or arr.shape != shape:
            found = "is missing" if arr is None else f"has shape {arr.shape}"
            raise CheckpointError(f"{path}: config sizes give {name} shape {shape}, "
                                  f"but its tensor record {found}")


def load_checkpoint(path: str):
    """Rebuild (model, vocab, adam state) from a checkpoint file."""
    header, tensors = read_checkpoint(path)
    a = header["adam"]
    if a is not None and not (isinstance(a, dict) and type(a.get("step")) is int and all(
            type(a.get(k)) in (int, float) for k in ("beta1", "beta2", "eps"))
            and 0 <= a["beta1"] < 1 and 0 <= a["beta2"] < 1 and a["eps"] > 0 and a["step"] >= 0):
        raise CheckpointError(f"{path}: bad header: adam must be null or an object with beta1 "
                              f"and beta2 in [0, 1), eps > 0 and an int step >= 0, got {a!r}")
    try:
        cfg = ModelConfig(**header["config"])
        vocab = Vocabulary(header["vocab"])
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad header: {e}") from e
    if len(vocab) != cfg.vocab_size:
        raise CheckpointError(f"{path}: vocab size {len(vocab)} does not match "
                              f"config vocab_size {cfg.vocab_size}")
    _check_sizes(path, cfg, tensors)
    model = SpeechTransformer(cfg)  # every parameter is overwritten below
    state_dict = {name: arr for (name, kind), arr in tensors.items()
                  if kind in ("param", "buffer")}
    try:
        model.load_state_dict(state_dict)
    except (KeyError, ValueError) as e:
        raise CheckpointError(f"{path}: {e}") from e
    state = None
    if a is not None:
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
    encoder = {name: arr for (name, kind), arr in tensors.items()
               if name.startswith("encoder.") and kind in ("param", "buffer")}
    if not encoder:
        raise CheckpointError(f"{ckpt_path}: no encoder tensors found")
    try:
        model.load_state_dict({**model.state_dict(), **encoder})
    except (KeyError, ValueError) as e:
        raise CheckpointError(f"{ckpt_path}: {e}") from e
    return len(encoder)


@dataclass
class RunConfig:
    """Settings of one train or asr-pretrain run, logged for provenance.

    The defaults are the desk recipe, criterion 7's. Its warmup ends well
    inside its run, which ``LRSchedule``'s full-scale warmup of 4000 updates
    would not. Each field but ``subcommand`` is a flag of those commands
    (asr-pretrain has no forcing or ASR mixing) and a ``--config`` key.
    """

    subcommand: str = "train"
    manifest: str | None = None
    seed: int = 0
    steps: int = 700
    accum: int = 4
    lr_max: float = 0.003
    lr_init: float = LRSchedule.lr_init
    warmup: int = 130
    forcing: str = "none"
    site: str = "pre"
    mix_asr: bool = False
    transfer_from: str | None = None
    save: str | None = None
    log: str | None = None
    d_model: int = DESK["d_model"]
    ff_hidden: int = DESK["ff_hidden"]
    n_encoder_layers: int = DESK["n_encoder_layers"]
    n_decoder_layers: int = DESK["n_decoder_layers"]
    n_heads: int = DESK["n_heads"]
    dropout: float = ModelConfig.dropout

    def __post_init__(self):
        for name, least in (("steps", 0), ("accum", 1), ("warmup", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")


def train_run(rc: RunConfig, verbose: bool = False):
    """Train a desk model on the train split of ``rc.manifest``; asr-pretrain
    targets the English transcripts, ``mix_asr`` adds them as language "en".

    One seed drives the run: model initialisation ``seed``, dropout
    ``(seed, 999)`` and batch composition ``BatchComposer(seed)``. ``rc.log``
    gets ``rc`` as a "# {json}" header, then a step/lr/loss/elapsed row per
    update. Returns (model, vocab, Adam state, per-update losses).
    """
    entries = read_manifest(rc.manifest, check_files=False)
    if rc.subcommand == "asr-pretrain":
        entries = asr_rows(entries)
    elif rc.mix_asr:
        entries = mix_asr(entries)
    languages = sorted({e.lang for e in entries})
    vocab = build_vocab(entries, languages)
    examples = load_examples(entries, vocab, os.path.dirname(os.path.abspath(rc.manifest)),
                             split="train")
    cfg = ModelConfig.desk(len(vocab), languages, dropout=rc.dropout,
                           forcing_mode=rc.forcing, forcing_site=rc.site,
                           **{name: getattr(rc, name) for name in DESK})
    sched = LRSchedule(lr_init=rc.lr_init, lr_max=rc.lr_max, warmup=rc.warmup)
    model = SpeechTransformer(cfg, seed=rc.seed)
    model.set_rng(np.random.default_rng((rc.seed, 999)))
    if rc.transfer_from:
        copied = transfer_encoder(rc.transfer_from, model)
        print(f"transferred {copied} encoder tensors from {rc.transfer_from}")
    composer = BatchComposer(examples, seed=rc.seed)
    state = AdamState()
    losses = []
    with open(rc.log, "w", encoding="utf-8") if rc.log else nullcontext() as log:
        if log is not None:
            log.write("# " + json.dumps(asdict(rc), sort_keys=True) + "\n")
            log.flush()
        t0 = time.monotonic()
        for _ in range(rc.steps):
            batches = [composer.next_batch() for _ in range(rc.accum)]
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
    if rc.save:
        save_checkpoint(rc.save, model, vocab, state)
        if verbose:
            print(f"saved checkpoint {rc.save}")
    return model, vocab, state, losses
