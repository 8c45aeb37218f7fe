"""In-memory span tracing for the benchmark's traced run.

A span records a name, start and end (``time.perf_counter`` seconds), the
span open when it started (its parent) and the request it belongs to (the
update or utterance index). Spans come from wrappers around public
functions of the program; the program itself is not edited. The wrappers
only time the call, so a traced run must compute exactly what an untraced
run computes (the benchmark checks this bit for bit).

A span's self time is its duration minus the duration of its direct child
spans *of the same layer* (the name part before the first dot). So the
self time of ``tensor.tmean`` excludes the ``tensor.tsum`` it calls, while
``model.front1`` keeps the tensor ops it runs: its self time is the
module's forward time.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from multislt import audio, decoding, tensor, trainer

# Every public op of the autodiff core; the twelve the model spends its time
# in are reported by name, the rest as ``tensor.other``.
TENSOR_OPS = ("add", "sub", "mul", "scale", "relu", "exp", "tanh", "matmul",
              "transpose", "reshape", "concat", "getitem", "tsum", "tmean",
              "softmax", "layer_norm", "batch_norm", "dropout", "conv2d",
              "embedding", "cross_entropy")
NAMED_OPS = ("conv2d", "matmul", "softmax", "batch_norm", "layer_norm",
             "cross_entropy", "embedding", "add", "reshape", "transpose",
             "concat", "dropout")
ENCODER_MODULES = ("front1", "front2", "sa2d1", "sa2d2", "proj")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.clear()

    def clear(self):
        """Drop every recorded span; call only while no span is open."""
        # compact typed arrays: a traced run records up to millions of spans
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.req = array("q")
        self._open: list[int] = []
        self.request = -1

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.req.append(self.request)
            self.end.append(0.0)
            self._open.append(i)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self._open.pop()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names), "name": np.array(self.name),
                "start": np.array(self.start), "end": np.array(self.end),
                "parent": np.array(self.parent), "req": np.array(self.req)}


class SpanSummary:
    """Per-name call counts, total and self seconds of a tracer's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        name, parent = a["name"], a["parent"]
        self.dur = a["end"] - a["start"]
        self.name_of = name
        self.parent = parent
        layer = np.array([n.split(".", 1)[0] for n in self.names] or [""])
        same = parent >= 0
        same[same] = layer[name[same]] == layer[name[parent[same]]]
        child = np.zeros(len(self.dur))
        np.add.at(child, parent[same], self.dur[same])
        k = len(self.names)
        self._count = np.bincount(name, minlength=k)
        self._total = np.bincount(name, self.dur, minlength=k)
        self._self = np.bincount(name, self.dur - child, minlength=k)

    def _get(self, arr, name):
        return float(arr[self.names.index(name)]) if name in self.names else 0.0

    def count(self, name: str) -> int:
        return int(self._get(self._count, name))

    def total(self, name: str) -> float:
        return self._get(self._total, name)

    def self_time(self, name: str) -> float:
        return self._get(self._self, name)

    def total_under(self, name: str, parent_name: str) -> float:
        """Total seconds of ``name`` spans whose parent is a ``parent_name`` span."""
        if name not in self.names or parent_name not in self.names:
            return 0.0
        mine = self.name_of == self.names.index(name)
        has = mine & (self.parent >= 0)
        under = np.zeros_like(mine)
        under[has] = self.name_of[self.parent[has]] == self.names.index(parent_name)
        return float(self.dur[under].sum())


@contextmanager
def traced_program(tracer: Tracer):
    """Record spans around the program's module-level public functions.

    Patches are process-wide and undone on exit, so untraced runs must
    happen outside this block.
    """
    targets = [(tensor, op, f"tensor.{op}") for op in TENSOR_OPS]
    targets += [(tensor.Tensor, "backward", "tensor.backward"),
                (audio.FeatureArchive, "load", "audio.archive_load"),
                (audio, "normalize", "audio.normalize"),
                (trainer, "batch_loss", "trainer.batch_loss"),
                (trainer, "adam_step", "optim.adam_step"),
                (decoding, "greedy_decode", "decoding.utterance"),
                (decoding, "beam_decode", "decoding.utterance")]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for (obj, attr, name), (_, _, orig) in zip(targets, saved):
            setattr(obj, attr, tracer.wrap(name, orig))
        yield tracer
    finally:
        for obj, attr, orig in saved:
            setattr(obj, attr, orig)


def trace_model(tracer: Tracer, model):
    """Record spans around one model's forward passes, per module path.

    Wrappers are plain instance attributes, which ``Module`` does not
    register, so parameters, buffers and checkpoints are unchanged.
    """
    enc, dec = model.encoder, model.decoder
    for name in ENCODER_MODULES:
        setattr(enc, name, tracer.wrap(f"model.{name}", getattr(enc, name)))
    enc.layers.mods = [tracer.wrap("model.enc_layers", m) for m in enc.layers.mods]
    dec.layers.mods = [tracer.wrap("model.dec_layers", m) for m in dec.layers.mods]
    dec.out_proj = tracer.wrap("model.out_proj", dec.out_proj)
    model.encode = tracer.wrap("model.encode", model.encode)
    model.decode_logits = tracer.wrap("model.decode_logits", model.decode_logits)
    if model.forcing is not None:
        for name in ("inject_seq", "inject_4d", "inject_decoder"):
            setattr(model.forcing, name, tracer.wrap("forcing.inject", getattr(model.forcing, name)))
    return model
