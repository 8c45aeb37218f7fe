"""Small layer abstraction on top of the autodiff core.

Modules own named parameters (dot-separated paths) and numpy buffers
(running statistics); both go into checkpoints.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Module:
    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray):
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield prefix + name, p
        for name, child in self._children.items():
            yield from child.named_parameters(prefix + name + ".")

    def named_buffers(self, prefix: str = ""):
        for name, b in self._buffers.items():
            yield prefix + name, b
        for name, child in self._children.items():
            yield from child.named_buffers(prefix + name + ".")

    def train(self):
        self.training = True
        for c in self._children.values():
            c.train()
        return self

    def eval(self):
        self.training = False
        for c in self._children.values():
            c.eval()
        return self

    def set_rng(self, rng: np.random.Generator):
        """Hand the run's seeded PRNG to every dropout layer."""
        for c in self._children.values():
            c.set_rng(rng)
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        d = {name: p.data for name, p in self.named_parameters()}
        for name, b in self.named_buffers():
            d[name] = b
        return d

    def load_state_dict(self, d: dict[str, np.ndarray]):
        """Copy every entry in, or raise and change nothing: all names and
        shapes are checked before the first assignment."""
        own = {name: p for name, p in self.named_parameters()}
        bufs = dict(self.named_buffers())
        for name, arr in d.items():
            if name in own:
                if own[name].shape != arr.shape:
                    raise ValueError(f"shape mismatch for {name!r}: "
                                     f"{own[name].shape} vs {arr.shape}")
            elif name in bufs:
                if bufs[name].shape != arr.shape:
                    raise ValueError(f"shape mismatch for buffer {name!r}")
            else:
                raise KeyError(f"unexpected entry {name!r} in state dict")
        missing = (set(own) | set(bufs)) - set(d)
        if missing:
            raise KeyError(f"state dict missing entries: {sorted(missing)}")
        for name, arr in d.items():
            if name in own:
                own[name].data = arr.astype(np.float64).copy()
            else:
                bufs[name][...] = arr


class ModuleList(Module):
    def __init__(self, mods):
        super().__init__()
        self.mods = list(mods)
        for i, m in enumerate(self.mods):
            setattr(self, str(i), m)

    def __iter__(self):
        return iter(self.mods)

    def __len__(self):
        return len(self.mods)


def _param(arr) -> Tensor:
    return Tensor(arr, requires_grad=True)


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        super().__init__()
        self.weight = _param(rng.normal(0.0, d_in ** -0.5, (d_in, d_out)))
        self.bias = _param(np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class ConvBlock(Module):
    """3×3 conv (padding 1) -> ReLU -> batch norm, as one ``T.conv_block``
    node. The block owns the conv's ``weight`` and ``bias``, the batch
    norm's ``gamma`` and ``beta``, and its running statistics."""

    def __init__(self, c_in: int, c_out: int, stride, rng: np.random.Generator):
        super().__init__()
        self.stride = tuple(stride)
        self.weight = _param(rng.normal(0.0, (9 * c_in) ** -0.5, (c_out, c_in, 3, 3)))
        self.bias = _param(np.zeros(c_out))
        self.gamma = _param(np.ones(c_out))
        self.beta = _param(np.zeros(c_out))
        self.register_buffer("running_mean", np.zeros(c_out))
        self.register_buffer("running_var", np.ones(c_out))

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv_block(x, self.weight, self.bias, self.gamma, self.beta, self.training,
                            self.running_mean, self.running_var, stride=self.stride)


class LayerNorm(Module):
    """The post-norm residual: layer norm of ``x + y``, as one ``T.add_layer_norm``."""

    def __init__(self, d: int):
        super().__init__()
        self.gamma = _param(np.ones(d))
        self.beta = _param(np.zeros(d))

    def __call__(self, x: Tensor, y: Tensor) -> Tensor:
        return T.add_layer_norm(x, y, self.gamma, self.beta)


class Dropout(Module):
    def __init__(self, p: float):
        super().__init__()
        self.p = p
        self.rng = None

    def set_rng(self, rng):
        self.rng = rng
        return self

    def __call__(self, x: Tensor) -> Tensor:
        return T.dropout(x, self.p, self.training, self.rng)


class Embedding(Module):
    def __init__(self, n: int, d: int, rng: np.random.Generator, std: float | None = None):
        super().__init__()
        self.weight = _param(rng.normal(0.0, std if std is not None else d ** -0.5, (n, d)))

    def __call__(self, ids: np.ndarray) -> Tensor:
        return T.embedding(self.weight, ids)
