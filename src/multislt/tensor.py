"""Minimal reverse-mode autodiff on numpy float64 arrays.

Every differentiable operation builds a node in a DAG; ``Tensor.backward()``
walks the graph once in reverse topological order and accumulates gradients.
All arithmetic is 64-bit so finite-difference checks are meaningful.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """An n-dimensional array with an optional gradient slot.

    Values are immutable after construction apart from ``grad`` accumulation.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._prev = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        # The first gradient is copied, never stored: backward closures pass
        # arrays on (add's ``g``) that other nodes also hold. The copy takes
        # ``data``'s memory layout, as zeros_like did, so later reductions
        # sum in the same order.
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
            self.grad += g

    def backward(self):
        """Reverse-mode sweep from a scalar output.

        Each node's local backward runs exactly once, in reverse
        topological order, so shared subexpressions sum their gradients.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad or p._prev for p in parents):
        out.requires_grad = any(p.requires_grad for p in parents)
        out._prev = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# elementwise -----------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(-_unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.shape))
        b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    data = a.data * c

    def backward(g):
        a._accumulate(g * c)

    return _make(data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accumulate(g * (a.data > 0.0))

    return _make(data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * data)

    return _make(data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - data * data))

    return _make(data, (a,), backward)


# structural ------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 1 or b.ndim < 1 or a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as e:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}") from e

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        a._accumulate(_unbroadcast(ga, a.shape))
        b._accumulate(_unbroadcast(gb, b.shape))

    return _make(data, (a, b), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def backward(g):
        a._accumulate(np.transpose(g, inv))

    return _make(data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return _make(data, (a,), backward)


def broadcast_to(a: Tensor, shape) -> Tensor:
    """Numpy broadcasting to ``shape``; the gradient sums over copies."""
    shape = tuple(shape)
    if a.shape == shape:
        return a
    data = np.broadcast_to(a.data, shape).copy()  # C order fixes backward's sum order

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))

    return _make(data, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    return _make(data, tuple(tensors), backward)


def getitem(a: Tensor, idx) -> Tensor:
    data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        a._accumulate(full)

    return _make(data, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _make(data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# nonlinear blocks with analytic backward --------------------------------

def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        gy = data * g
        a._accumulate(gy - data * gy.sum(axis=axis, keepdims=True))

    return _make(data, (a,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis; gamma/beta broadcast over it."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gamma.data + beta.data

    def backward(g):
        gxhat = g * gamma.data
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        x._accumulate((gxhat - m1 - xhat * m2) * inv)
        red = tuple(range(g.ndim - 1))
        gamma._accumulate(_unbroadcast((g * xhat).sum(axis=red), gamma.shape))
        beta._accumulate(_unbroadcast(g.sum(axis=red), beta.shape))

    return _make(data, (x, gamma, beta), backward)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, training: bool,
               running_mean: np.ndarray, running_var: np.ndarray,
               momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Channel-wise batch norm on B×C×H×W input.

    Training mode normalizes over batch+spatial axes and updates the running
    statistics in place; eval mode uses the running statistics.
    """
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects a 4-axis input, got {x.shape}")
    axes = (0, 2, 3)
    cshape = (1, -1, 1, 1)
    if training:
        if x.shape[0] < 2:
            raise ValueError("batch_norm training mode needs batch size >= 2 "
                             "(variance undefined)")
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        n = x.shape[0] * x.shape[2] * x.shape[3]
        running_var *= 1.0 - momentum
        running_var += momentum * var * n / max(n - 1, 1)
    else:
        mu = running_mean
        var = running_var
    inv = 1.0 / np.sqrt(var + eps).reshape(cshape)
    xhat = (x.data - mu.reshape(cshape)) * inv
    data = xhat * gamma.data.reshape(cshape) + beta.data.reshape(cshape)

    def backward(g):
        gxhat = g * gamma.data.reshape(cshape)
        if training:
            m1 = gxhat.mean(axis=axes, keepdims=True)
            m2 = (gxhat * xhat).mean(axis=axes, keepdims=True)
            x._accumulate((gxhat - m1 - xhat * m2) * inv)
        else:
            x._accumulate(gxhat * inv)
        gamma._accumulate((g * xhat).sum(axis=axes))
        beta._accumulate(g.sum(axis=axes))

    return _make(data, (x, gamma, beta), backward)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; identity in eval mode. Mask drawn from ``rng``."""
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an explicit rng")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    data = x.data * mask

    def backward(g):
        x._accumulate(g * mask)

    return _make(data, (x,), backward)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride=(1, 1)) -> Tensor:
    """3×3 convolution with fixed padding 1.

    Output spatial extent along a strided axis is ceil(in/stride), so stride-2
    layers implement exact ceil-halving.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects B×C×H×W input, got {x.shape}")
    if weight.ndim != 4 or weight.shape[2:] != (3, 3):
        raise ShapeError(f"conv2d expects O×C×3×3 kernel, got {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(f"conv2d: input channels {x.shape} vs kernel {weight.shape}")
    sh, sw = stride
    B, C, H, W = x.shape
    O = weight.shape[0]
    Ho = (H + 2 - 3) // sh + 1
    Wo = (W + 2 - 3) // sw + 1
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"conv2d: non-positive output extent for input {x.shape}")
    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
    taps = [(slice(di, di + sh * (Ho - 1) + 1, sh), slice(dj, dj + sw * (Wo - 1) + 1, sw))
            for di in range(3) for dj in range(3)]
    w2 = weight.data.reshape(O, C * 9)

    def patches():
        """im2col: B×(C·9)×(Ho·Wo), rows in the kernel's (c, di, dj) order."""
        cols = np.empty((B, C, 9, Ho, Wo))
        for k, (si, sj) in enumerate(taps):
            cols[:, :, k] = xp[:, :, si, sj]
        return cols.reshape(B, C * 9, Ho * Wo)

    data = np.matmul(w2, patches()).reshape(B, O, Ho, Wo)
    data += bias.data.reshape(1, O, 1, 1)

    def backward(g):
        g2 = g.reshape(B, O, Ho * Wo)
        # The patches are rebuilt rather than kept by the closure, which would
        # hold 9× each conv's input until backward. The weight gradient is a
        # GEMM per utterance on their transposed view, summed over the batch;
        # tensordot over (batch, positions) would copy them first.
        gw = np.matmul(g2, patches().transpose(0, 2, 1)).sum(axis=0)
        gcols = np.matmul(w2.T, g2).reshape(B, C, 9, Ho, Wo)
        gxp = np.zeros_like(xp)
        for k, (si, sj) in enumerate(taps):  # col2im
            gxp[:, :, si, sj] += gcols[:, :, k]
        x._accumulate(gxp[:, :, 1:1 + H, 1:1 + W])
        weight._accumulate(gw.reshape(weight.shape))
        bias._accumulate(g.sum(axis=(0, 2, 3)))

    return _make(data, (x, weight, bias), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"embedding id out of range [0, {table.shape[0]})")
    data = table.data[ids]

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        table._accumulate(full)

    return _make(data, (table,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, pad_id: int) -> Tensor:
    """Mean negative log-probability over non-pad positions.

    ``logits`` is N×V; pad positions contribute zero.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs targets {targets.shape}")
    V = logits.shape[1]
    valid = targets != pad_id
    n = int(valid.sum())
    if n == 0:
        raise ValueError("cross_entropy: every position is padding")
    bad = valid & ((targets < 0) | (targets >= V))
    if bad.any():
        raise IndexError(f"cross_entropy: target id out of range [0, {V})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    safe = np.where(valid, targets, 0)
    data = -(logp[np.arange(len(targets)), safe] * valid).sum() / n

    def backward(g):
        p = np.exp(logp)
        p[np.arange(len(targets)), safe] -= 1.0
        p *= (valid / n * float(g))[:, None]
        logits._accumulate(p)

    return _make(data, (logits,), backward)


def grad_check(fn, x: Tensor, eps: float = 1e-5,
               sample: int | None = None, rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` maps a Tensor to a scalar Tensor and must be deterministic
    (dropout in eval mode). With ``sample`` set, only that many randomly
    chosen coordinates are probed.
    """
    x.requires_grad = True
    x.zero_grad()
    out = fn(x)
    out.backward()
    analytic = x.grad.copy()

    coords = list(np.ndindex(*x.shape)) if x.ndim else [()]
    if sample is not None and sample < len(coords):
        if rng is None:
            rng = np.random.default_rng(0)
        picked = rng.choice(len(coords), size=sample, replace=False)
        coords = [coords[i] for i in picked]

    worst = 0.0
    for c in coords:
        orig = x.data[c]
        x.data[c] = orig + eps
        hi = fn(x).item()
        x.data[c] = orig - eps
        lo = fn(x).item()
        x.data[c] = orig
        numeric = (hi - lo) / (2.0 * eps)
        a = analytic[c]
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return worst
