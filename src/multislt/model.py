"""Speech-Transformer for direct speech translation.

Encoder: two strided 3×3 CNN blocks, two 2D self-attention layers,
reshape + feed-forward to d_model, sinusoidal positions, then a stack of
post-norm Transformer layers whose self-attention is biased toward the
local temporal context by a logarithmic distance penalty. Decoder:
character embeddings, causal self-attention, cross-attention.

Tensor names follow the module tree. Each CNN block is one
``modules.ConvBlock`` (conv -> ReLU -> batch norm), so its tensors are
e.g. ``encoder.front1.weight`` and ``encoder.sa2d1.qkv.running_var``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .forcing import MODES, SITES, TargetForcing
from .modules import (ConvBlock, Dropout, Embedding, LayerNorm, Linear, Module,
                      ModuleList)
from .tensor import Tensor

NEG_INF = -1e30  # additive mask value; exp() underflows to exactly 0

# Laptop-sized model dimensions; structural wiring identical to full scale.
DESK = {"d_model": 64, "ff_hidden": 128, "n_encoder_layers": 2,
        "n_decoder_layers": 2, "n_heads": 4}


@dataclass
class ModelConfig:
    vocab_size: int
    languages: tuple = ()
    d_model: int = 512
    ff_hidden: int = 1024
    n_encoder_layers: int = 6
    n_decoder_layers: int = 6
    n_heads: int = 8
    dropout: float = 0.1
    n_mels: int = 40
    frontend_channels: int = 16
    sa2d_channels: int = 4
    sa2d_out_channels: int = 16
    forcing_mode: str = "none"
    forcing_site: str = "pre"

    def __post_init__(self):
        self.languages = tuple(self.languages)
        if not all(isinstance(lang, str) for lang in self.languages) \
                or len(set(self.languages)) != len(self.languages):
            raise ValueError(f"languages must be distinct strings, got {list(self.languages)!r}")
        for name in ("vocab_size", "d_model", "ff_hidden", "n_encoder_layers",
                     "n_decoder_layers", "n_heads", "n_mels", "frontend_channels",
                     "sa2d_channels", "sa2d_out_channels"):
            value = getattr(self, name)
            if not (type(value) is int and value > 0):
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        if not (type(self.dropout) in (int, float) and 0 <= self.dropout < 1):
            raise ValueError(f"dropout must be a number in [0, 1), got {self.dropout!r}")
        if self.d_model % self.n_heads:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.forcing_mode not in MODES or self.forcing_site not in SITES:
            raise ValueError(f"bad forcing {self.forcing_mode!r}/{self.forcing_site!r}")
        if self.forcing_mode != "none" and not self.languages:
            raise ValueError("forcing enabled but no languages configured")

    @classmethod
    def desk(cls, vocab_size: int, languages=(), **overrides) -> "ModelConfig":
        """The ``DESK`` preset, with any field overridden."""
        return cls(vocab_size=vocab_size, languages=tuple(languages),
                   **{**DESK, **overrides})


@dataclass
class EncoderState:
    """Encoder memory (B×T'×d_model) plus its frame validity mask (B×T')."""

    memory: Tensor
    mask: np.ndarray


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def encoder_length(t, concat_at_pre: bool = False):
    """Ceil-halving twice, of an int or an array of lengths; concat-at-pre
    prepends one frame first."""
    if concat_at_pre:
        t = t + 1
    return ceil_div(ceil_div(t, 2), 2)


def distance_penalty(n: int) -> np.ndarray:
    """n×n matrix of log-distance penalties: 0 on |i-j| <= 1, ln|i-j| beyond."""
    if n < 1:
        raise ValueError("penalty size must be >= 1")
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(np.float64)
    return np.log(np.maximum(d, 1.0))


def _per_length(fn):
    """Cache ``fn``'s table per arguments and hand it out read-only, so
    every caller can share the one array."""
    @functools.lru_cache(maxsize=64)
    @functools.wraps(fn)
    def cached(*args):
        table = fn(*args)
        table.flags.writeable = False
        return table
    return cached


@_per_length
def positional_encoding(length: int, d_model: int) -> np.ndarray:
    """Sinusoidal positions: sin on even indices, cos on odd, base 10000."""
    if d_model % 2:
        raise ValueError("d_model must be even")
    pos = np.arange(length)[:, None]
    div = 10000.0 ** (np.arange(0, d_model, 2) / d_model)
    pe = np.zeros((length, d_model))
    pe[:, 0::2] = np.sin(pos / div)
    pe[:, 1::2] = np.cos(pos / div)
    return pe


@_per_length
def causal_bias(length: int) -> np.ndarray:
    """length×length additive bias hiding later positions: NEG_INF above
    the diagonal, 0 elsewhere."""
    return np.where(np.triu(np.ones((length, length)), k=1) > 0, NEG_INF, 0.0)


def lengths_to_mask(lengths: np.ndarray, max_len: int) -> np.ndarray:
    return np.arange(max_len)[None, :] < np.asarray(lengths)[:, None]


def _key_bias(mask: np.ndarray) -> np.ndarray:
    """B×T validity mask -> B×1×1×T additive bias for attention scores."""
    return np.where(mask, 0.0, NEG_INF)[:, None, None, :]


class KVCache:
    """Projected keys and values of one attention block, B×T×d_model arrays
    held as constants.

    A self-attention cache (``grow``) appends each call's positions to the
    ones it holds. A cross-attention cache keeps the projected memory of
    its first call and is reused after.
    """

    def __init__(self, grow: bool):
        self.grow = grow
        self.k = self.v = None

    def keys_values(self, wk, wv, kv: Tensor) -> tuple[Tensor, Tensor]:
        """The keys and values of every position held, after projecting
        ``kv`` with ``wk`` and ``wv`` unless this is a cross-attention cache
        that already holds its memory's."""
        if self.k is None or self.grow:
            k, v = wk(kv).data, wv(kv).data
            if self.k is not None:
                k, v = np.concatenate([self.k, k], axis=1), np.concatenate([self.v, v], axis=1)
            self.k, self.v = k, v
        return Tensor(self.k), Tensor(self.v)

    def select(self, rows):
        # a memory of batch 1 serves every row, so it is not gathered
        if self.k is not None and (self.grow or self.k.shape[0] > 1):
            self.k, self.v = self.k[rows], self.v[rows]


class MultiHeadAttention(Module):
    """Scaled dot-product attention over ``n_heads`` heads.

    Four ``Linear`` projections (q, k, v, output) and one ``T.attention``
    node, which splits q, k and v into heads, takes the softmax of the
    scaled, biased scores times the values, and merges the heads again.
    """

    def __init__(self, d_model: int, n_heads: int, rng):
        super().__init__()
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.wq = Linear(d_model, d_model, rng)
        self.wk = Linear(d_model, d_model, rng)
        self.wv = Linear(d_model, d_model, rng)
        self.wo = Linear(d_model, d_model, rng)

    def __call__(self, query: Tensor, kv: Tensor, bias: np.ndarray | None = None,
                 cache: KVCache | None = None) -> Tensor:
        """``kv`` of batch 1 serves every query row. With a ``cache``, keys
        and values come from it as well (see ``KVCache``)."""
        if cache is None:
            k, v = self.wk(kv), self.wv(kv)
        else:
            k, v = cache.keys_values(self.wk, self.wv, kv)
        out = T.attention(self.wq(query), k, v, self.d_head ** -0.5, bias, heads=self.n_heads)
        return self.wo(out)


class FeedForward(Module):
    def __init__(self, d_model: int, hidden: int, rng):
        super().__init__()
        self.w1 = Linear(d_model, hidden, rng)
        self.w2 = Linear(hidden, d_model, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.w2(T.relu(self.w1(x)))


class EncoderLayer(Module):
    """Post-norm: normalize(x + sublayer(x))."""

    def __init__(self, cfg: ModelConfig, rng):
        super().__init__()
        self.attn = MultiHeadAttention(cfg.d_model, cfg.n_heads, rng)
        self.ff = FeedForward(cfg.d_model, cfg.ff_hidden, rng)
        self.ln1 = LayerNorm(cfg.d_model)
        self.ln2 = LayerNorm(cfg.d_model)
        self.drop1 = Dropout(cfg.dropout)
        self.drop2 = Dropout(cfg.dropout)

    def __call__(self, x: Tensor, bias: np.ndarray) -> Tensor:
        x = self.ln1(x, self.drop1(self.attn(x, x, bias)))
        return self.ln2(x, self.drop2(self.ff(x)))


class DecoderLayer(Module):
    def __init__(self, cfg: ModelConfig, rng):
        super().__init__()
        self.self_attn = MultiHeadAttention(cfg.d_model, cfg.n_heads, rng)
        self.cross_attn = MultiHeadAttention(cfg.d_model, cfg.n_heads, rng)
        self.ff = FeedForward(cfg.d_model, cfg.ff_hidden, rng)
        self.ln1 = LayerNorm(cfg.d_model)
        self.ln2 = LayerNorm(cfg.d_model)
        self.ln3 = LayerNorm(cfg.d_model)
        self.drop1 = Dropout(cfg.dropout)
        self.drop2 = Dropout(cfg.dropout)
        self.drop3 = Dropout(cfg.dropout)

    def __call__(self, x: Tensor, memory: Tensor, causal_bias: np.ndarray,
                 cross_bias: np.ndarray, cache: tuple[KVCache, KVCache] | None = None) -> Tensor:
        self_kv, cross_kv = (None, None) if cache is None else cache
        x = self.ln1(x, self.drop1(self.self_attn(x, x, causal_bias, cache=self_kv)))
        x = self.ln2(x, self.drop2(self.cross_attn(x, memory, cross_bias, cache=cross_kv)))
        return self.ln3(x, self.drop3(self.ff(x)))


class SA2D(Module):
    """2D self-attention: per-channel attention along time and frequency.

    One ``qkv`` conv block maps the input to 3c channels, so the input's
    patches are built once, and its output is sliced into q, k and v. Batch
    norm is per channel, so each slice has its own statistics, as three
    c-channel blocks would. Each axis's attention is one ``T.attention``
    node, on the B×c×T×F maps for time and on their transposes for
    frequency. Time-axis attention carries the key mask and the distance
    penalty, frequency-axis attention neither. The 2c outputs are
    concatenated on the channel axis and passed through the ``out`` conv
    block.
    """

    def __init__(self, cfg: ModelConfig, c_in: int, rng):
        super().__init__()
        c = cfg.sa2d_channels
        self.scale = cfg.d_model ** -0.5
        self.qkv = ConvBlock(c_in, 3 * c, (1, 1), rng)
        self.out = ConvBlock(2 * c, cfg.sa2d_out_channels, (1, 1), rng)

    def __call__(self, x: Tensor, time_mask: np.ndarray, penalty: np.ndarray) -> Tensor:
        h = self.qkv(x)
        c = h.shape[1] // 3
        q, k, v = (T.getitem(h, (slice(None), slice(i * c, (i + 1) * c))) for i in range(3))
        # time axis: B×c×T×F matrices, keys masked at padding frames
        t_out = T.attention(q, k, v, self.scale, _key_bias(time_mask) - penalty)
        # frequency axis: transposed, no mask, no penalty
        qf, kf, vf = (T.transpose(t, (0, 1, 3, 2)) for t in (q, k, v))
        f_out = T.transpose(T.attention(qf, kf, vf, self.scale), (0, 1, 3, 2))
        return self.out(T.concat([t_out, f_out], axis=1))


class Encoder(Module):
    def __init__(self, cfg: ModelConfig, rng):
        super().__init__()
        ch = cfg.frontend_channels
        self.front1 = ConvBlock(1, ch, (2, 2), rng)
        self.front2 = ConvBlock(ch, ch, (2, 2), rng)
        self.sa2d1 = SA2D(cfg, ch, rng)
        self.sa2d2 = SA2D(cfg, cfg.sa2d_out_channels, rng)
        freq = ceil_div(ceil_div(cfg.n_mels, 2), 2)
        self.proj = Linear(cfg.sa2d_out_channels * freq, cfg.d_model, rng)
        self.pe_drop = Dropout(cfg.dropout)
        self.layers = ModuleList(EncoderLayer(cfg, rng) for _ in range(cfg.n_encoder_layers))


class Decoder(Module):
    def __init__(self, cfg: ModelConfig, rng):
        super().__init__()
        self.embed = Embedding(cfg.vocab_size, cfg.d_model, rng)
        self.pe_drop = Dropout(cfg.dropout)
        self.layers = ModuleList(DecoderLayer(cfg, rng) for _ in range(cfg.n_decoder_layers))
        self.out_proj = Linear(cfg.d_model, cfg.vocab_size, rng)


def _forcing_width(cfg: ModelConfig) -> int:
    if cfg.forcing_site == "pre":
        return cfg.n_mels
    if cfg.forcing_site == "post":
        return ceil_div(ceil_div(cfg.n_mels, 2), 2)
    return cfg.d_model  # final and decoder sites


def size_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shapes of the parameters that pin each size of ``cfg`` except
    ``n_heads`` (a divisor of ``d_model``) and the layer counts, worked out
    without building the model."""
    c, freq = cfg.sa2d_channels, ceil_div(ceil_div(cfg.n_mels, 2), 2)
    return {"decoder.embed.weight": (cfg.vocab_size, cfg.d_model),
            "decoder.layers.0.ff.w1.weight": (cfg.d_model, cfg.ff_hidden),
            "encoder.front1.weight": (cfg.frontend_channels, 1, 3, 3),
            "encoder.sa2d1.qkv.weight": (3 * c, cfg.frontend_channels, 3, 3),
            "encoder.sa2d1.out.weight": (cfg.sa2d_out_channels, 2 * c, 3, 3),
            "encoder.proj.weight": (cfg.sa2d_out_channels * freq, cfg.d_model)}


class SpeechTransformer(Module):
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.encoder = Encoder(cfg, rng)
        self.decoder = Decoder(cfg, rng)
        if cfg.forcing_mode != "none":
            self.forcing = TargetForcing(cfg.forcing_mode, cfg.languages,
                                         _forcing_width(cfg), rng)
        else:
            self.forcing = None

    def _langs(self, langs, batch: int):
        if self.cfg.forcing_mode == "none":
            return None
        if langs is None:
            raise ValueError("forcing is enabled but no target languages were given")
        langs = [langs] * batch if isinstance(langs, str) else list(langs)
        if len(langs) != batch:
            raise ValueError(f"got {len(langs)} languages for batch of {batch}")
        unknown = sorted(set(langs) - set(self.cfg.languages))
        if unknown:
            raise ValueError(f"target language(s) {unknown} not among the model's "
                             f"languages {list(self.cfg.languages)}")
        return langs

    def encode(self, features, lengths, langs=None) -> EncoderState:
        """Run the encoder on padded B×T×F features with per-utterance lengths.

        ``features`` may be a numpy array or a Tensor (so gradient checks can
        reach the input).
        """
        x = features if isinstance(features, Tensor) else Tensor(features)
        if x.shape[-1] != self.cfg.n_mels:
            raise T.ShapeError(f"the features have {x.shape[-1]} values per frame, "
                               f"but the model takes n_mels {self.cfg.n_mels}")
        B = x.shape[0]
        lengths = np.asarray(lengths, dtype=np.int64)
        langs = self._langs(langs, B)
        site = self.cfg.forcing_site if self.forcing is not None else None
        grew = int(self.cfg.forcing_mode == "concat")  # frames the forcing prepends
        if site == "pre":
            x = self.forcing.inject_seq(x, langs)
            lengths = lengths + grew
        enc = self.encoder
        h = enc.front2(enc.front1(T.reshape(x, (B, 1) + x.shape[1:])))
        lengths = encoder_length(lengths)
        mask = lengths_to_mask(lengths, h.shape[2])
        pen = distance_penalty(h.shape[2])
        h = enc.sa2d1(h, mask, pen)
        h = enc.sa2d2(h, mask, pen)
        if site == "post":
            h = self.forcing.inject_4d(h, langs)
        # merge channel and frequency axes
        h = T.reshape(T.transpose(h, (0, 2, 1, 3)), (B, h.shape[2], -1))
        h = T.relu(enc.proj(h))
        if site == "final":
            h = self.forcing.inject_seq(h, langs)
        if site in ("post", "final"):
            lengths = lengths + grew
        t_now = h.shape[1]
        mask = lengths_to_mask(lengths, t_now)
        h = T.add(h, Tensor(positional_encoding(t_now, self.cfg.d_model)))
        h = enc.pe_drop(h)
        bias = _key_bias(mask) + distance_penalty(t_now) * -1.0
        for layer in enc.layers:
            h = layer(h, bias)
        return EncoderState(h, mask)

    def decode_logits(self, enc: EncoderState, prefix_ids: np.ndarray, langs=None,
                      cache: DecoderCache | None = None) -> Tensor:
        """Teacher-forced logits, B×L×V, for bos-initial prefixes.

        ``enc`` may hold one utterance for all B prefixes. With a ``cache``
        (see ``DecoderCache``) only the positions past the cached ones run,
        and the logits are B×(L - cached)×V.
        """
        ids = np.asarray(prefix_ids, dtype=np.int64)
        B, L = ids.shape
        langs = self._langs(langs, B)
        dec = self.decoder
        start, kvs = 0, [None] * len(dec.layers)
        if cache is not None:
            start, kvs = cache.begin(ids, len(dec.layers))
        emb = dec.embed(ids[:, start:])
        if self.forcing is not None and self.cfg.forcing_site == "decoder":
            emb = self.forcing.inject_decoder(emb, langs, start)
        h = T.add(emb, Tensor(positional_encoding(L, self.cfg.d_model)[start:]))
        h = dec.pe_drop(h)
        causal = causal_bias(L)[start:]
        cross = _key_bias(enc.mask)
        for layer, kv in zip(dec.layers, kvs):
            h = layer(h, enc.memory, causal, cross, cache=kv)
        if cache is not None:
            cache.ids = ids
        return dec.out_proj(h)


class DecoderCache:
    """What the decoder has computed for B prefixes of one encoder state:
    their ids and, per decoder layer, a growing ``KVCache`` of the
    self-attention keys and values of every position plus a ``KVCache`` of
    the cross-attention keys and values of the memory.

    ``decode_logits(enc, ids, cache=cache)`` takes the full prefixes, runs
    only the positions past the cached ones and caches those. Cached keys
    and values are constants, so a cached call must run inside
    ``T.no_grad()``; one that would record a graph raises ``RuntimeError``.
    ``select`` keeps, in order and possibly repeated, the rows a search
    continues. A memory of batch 1 serves every row; a memory with one row
    per prefix must be gathered by the same rows before the next call.
    """

    def __init__(self):
        self.ids = None
        self.layers = []

    def begin(self, ids: np.ndarray, n_layers: int):
        """The number of cached positions of ``ids`` and the per-layer caches.

        ``ids`` must extend every cached prefix by at least one position.
        """
        if T.grad_enabled():
            raise RuntimeError("cached decoding records no graph: call it inside T.no_grad()")
        if self.ids is not None:
            n = self.ids.shape[1]
            if ids.shape[0] != self.ids.shape[0]:
                raise ValueError(f"cache holds {self.ids.shape[0]} prefixes, got {ids.shape[0]}")
            if ids.shape[1] <= n:
                raise ValueError(f"prefix length {ids.shape[1]} adds nothing to the "
                                 f"{n} cached positions")
            if not np.array_equal(ids[:, :n], self.ids):
                raise ValueError("prefixes do not extend the cached ones")
        if not self.layers:
            self.layers = [(KVCache(grow=True), KVCache(grow=False)) for _ in range(n_layers)]
        return (0 if self.ids is None else self.ids.shape[1]), self.layers

    def select(self, rows):
        """Keep rows ``rows`` (e.g. a beam's surviving parents), in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        self.ids = self.ids[rows]
        for kvs in self.layers:
            for kv in kvs:
                kv.select(rows)
