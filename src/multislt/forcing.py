"""Target-language forcing: inject a learnable language embedding.

The embeddings are one table with a row per target language, looked up
by the language's index, so a forced model's checkpoint holds a single
``forcing.table.weight`` whose rows follow its ``languages``. Two
mechanisms: *concat* prepends the embedding as an extra time frame,
*merge* adds it to every frame, translating the representation to a
language-specific region of the space. Injection sites: pre (raw
features), post (after the 2D self-attention stack), final (after the
projection to d_model), decoder (on the character embeddings).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .modules import Embedding, Module
from .tensor import ShapeError, Tensor

MODES = ("none", "concat", "merge")
SITES = ("pre", "post", "final", "decoder")


class LanguageEmbeddingTable(Embedding):
    """One learnable row per target language, indexed by its position in
    ``languages``: the same lookup the decoder uses for characters."""

    def __init__(self, languages, width: int, rng: np.random.Generator):
        super().__init__(len(languages), width, rng, std=0.02)
        self.index = {lang: i for i, lang in enumerate(languages)}

    def vector(self, lang: str) -> Tensor:
        """``lang``'s row as a view: writing to its data changes the table.
        An unknown ``lang`` raises KeyError."""
        return Tensor(self.weight.data[self.index[lang]])

    def rows(self, langs) -> Tensor:
        """Per-utterance rows, B×W, in one lookup."""
        return self([self.index[l] for l in langs])


def apply_concat(x: Tensor, l: Tensor) -> Tensor:
    """Prepend ``l`` as frame 0 on the time axis (-2) of a ...×T×W tensor.

    ``l`` is a W vector, or has the leading axes of ``x`` (size 1 where it
    is shared, e.g. across channels) and size 1 on the time axis. Frames
    1..T are ``x`` unchanged.
    """
    if x.shape[-1] != l.shape[-1]:
        raise ShapeError(f"width mismatch: sequence {x.shape} vs embedding {l.shape}")
    front = T.broadcast_to(l, x.shape[:-2] + (1, x.shape[-1]))
    return T.concat([front, x], axis=-2)


def apply_merge(x: Tensor, l: Tensor) -> Tensor:
    """Add ``l`` to every frame of a ...×T×W tensor; shapes as for concat."""
    if x.shape[-1] != l.shape[-1]:
        raise ShapeError(f"width mismatch: sequence {x.shape} vs embedding {l.shape}")
    return T.add(x, l)


class TargetForcing(Module):
    """Concat or merge injection from one language-embedding table; the model picks the site."""

    def __init__(self, mode: str, languages, width: int, rng: np.random.Generator):
        super().__init__()
        self.mode = mode
        self.table = LanguageEmbeddingTable(languages, width, rng)

    def _vectors(self, x: Tensor, langs) -> Tensor:
        """Per-utterance vectors shaped B×1×…×1×W to broadcast against ``x``."""
        return T.reshape(self.table.rows(langs),
                         (x.shape[0],) + (1,) * (x.ndim - 2) + (x.shape[-1],))

    def inject_seq(self, x: Tensor, langs) -> Tensor:
        """Inject into a B×T×W sequence, or a B×C×T×F tensor (the post site).

        Merge adds the vector to every frame (of every channel); concat
        prepends it as one time frame, repeated across channels.
        """
        l = self._vectors(x, langs)
        return apply_merge(x, l) if self.mode == "merge" else apply_concat(x, l)

    inject_4d = inject_seq  # the post site's name for the same injection

    def inject_decoder(self, emb: Tensor, langs, start: int = 0) -> Tensor:
        """Merge adds to every character embedding; concat replaces bos.

        ``emb`` holds prefix positions ``start``.. (a cached decoder step):
        concat then changes nothing unless it includes position 0.
        """
        if self.mode == "concat" and start > 0:
            return emb
        l = self._vectors(emb, langs)
        if self.mode == "merge":
            return apply_merge(emb, l)
        return apply_concat(emb[:, 1:, :], l)
