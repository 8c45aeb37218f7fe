"""Adam with bias correction, operating on named parameters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: list[tuple[str, Tensor]], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update; gradients are zeroed afterwards.

    Parameters without an accumulated gradient are treated as zero-gradient
    (moments still decay). A non-finite gradient aborts, naming the
    parameter, before any parameter, moment or the step counter changes.
    """
    for name, p in params:
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        p.grad = None
