"""Minimal reverse-mode autodiff on numpy float64 arrays.

Every differentiable operation builds a node in a DAG; ``Tensor.backward()``
walks the graph once in reverse topological order, accumulates gradients
and releases each node's part of the graph as soon as it has run.
All arithmetic is 64-bit so finite-difference checks are meaningful.
Inside ``no_grad()`` ops build no nodes, which is how inference runs.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

EPS = 1e-5  # added to the variance by layer_norm and batch_norm
BN_MOMENTUM = 0.1  # batch norm's running-statistics update rate


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """An n-dimensional array with an optional gradient slot.

    Values are immutable after construction apart from ``grad`` accumulation.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_released")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._prev = ()
        self._released = False

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

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        # Constants (inputs, masks, attention biases) keep no gradient.
        if not self.requires_grad:
            return
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
        """Reverse-mode sweep from a scalar output, releasing the graph.

        Each node's local backward runs exactly once, in reverse
        topological order, so shared subexpressions sum their gradients.
        No later node writes to a node whose backward has run, so its
        gradient, its backward closure (with the arrays that closure saved)
        and its parent links are dropped at once. A graph therefore takes
        one backward pass; a second raises ``RuntimeError``. Leaves
        (parameters, inputs with ``requires_grad``) keep their ``.grad``,
        and every node keeps its ``data``.
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
            if node._released:
                raise RuntimeError("backward() through a graph that was already released "
                                   "by an earlier backward(); a graph takes one backward pass")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = node._backward = None
            node._prev = ()
            node._released = True

    def __getitem__(self, idx):
        return getitem(self, idx)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_grad_enabled = True  # False inside ``no_grad``


@contextmanager
def no_grad():
    """Inference mode: ops record no graph.

    Inside the block every op returns a constant (no parents, no
    ``requires_grad``), so nothing is kept for a backward pass. The
    previous mode is restored on exit.
    """
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """Whether ops record a graph (outside ``no_grad``)."""
    return _grad_enabled


def _records(parents) -> bool:
    """Whether an op on ``parents`` builds a node, so a backward can run."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = True
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

def _matmul(a: np.ndarray, b: np.ndarray, op: str = "matmul") -> np.ndarray:
    try:
        return np.matmul(a, b)
    except ValueError as e:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} x {b.shape}") from e


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = _matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        a._accumulate(_unbroadcast(ga, a.shape))
        b._accumulate(_unbroadcast(gb, b.shape))

    return _make(data, (a, b), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = np.transpose(a.data, axes)

    def backward(g):
        a._accumulate(np.transpose(g, np.argsort(axes)))

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

    def backward(g):
        splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    return _make(data, tuple(tensors), backward)


def getitem(a: Tensor, idx) -> Tensor:
    data = a.data[idx]
    # slices select each element at most once; index arrays may repeat one
    sliced = all(isinstance(i, slice) for i in (idx if isinstance(idx, tuple) else (idx,)))

    def backward(g):
        full = np.zeros_like(a.data)
        if sliced:
            full[idx] = g
        else:
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

def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    # the ufunc reduces that ndarray.max and ndarray.sum call through wrappers
    e = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def log_softmax_rows(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis of an array, reduced as in ``_softmax``."""
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def _softmax_grad(p: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    gy = p * g
    return gy - p * gy.sum(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    data = _softmax(a.data, axis)

    def backward(g):
        a._accumulate(_softmax_grad(data, g, axis))

    return _make(data, (a,), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` as one node.

    Forward and backward do ``matmul`` then ``add``'s arithmetic in the same
    order, so the results equal that composition bit for bit.
    """
    data = _matmul(x.data, weight.data, "linear")
    data += bias.data

    def backward(g):
        gx = np.matmul(g, np.swapaxes(weight.data, -1, -2))
        gw = np.matmul(np.swapaxes(x.data, -1, -2), g)
        x._accumulate(_unbroadcast(gx, x.shape))
        weight._accumulate(_unbroadcast(gw, weight.shape))
        bias._accumulate(_unbroadcast(g, bias.shape))

    return _make(data, (x, weight, bias), backward)


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """B×T×d -> B×H×T×(d/H), a view."""
    B, T, d = a.shape
    return a.reshape(B, T, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """B×H×T×d_head -> B×T×(H·d_head), the inverse of ``_split_heads``."""
    B, H, T, dh = a.shape
    return a.transpose(0, 2, 1, 3).reshape(B, T, H * dh)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float,
              bias: np.ndarray | None = None, heads: int | None = None) -> Tensor:
    """``softmax(q kᵀ · scale + bias) v`` over the last two axes, as one node.

    ``bias`` is a constant (masks, penalties) that broadcasts to the
    scores' shape; ``k`` and ``v`` of batch 1 serve every query row. With
    ``heads``, q, k and v are B×T×d: each is split into ``heads`` heads of
    d/heads features (views, no copy), and the B×heads×Tq×d_head output is
    merged back to B×Tq×d. The arithmetic is that of ``matmul``, ``scale``,
    ``add``, ``softmax`` and ``matmul`` in sequence (after the ``reshape`` and
    ``transpose`` that split the heads), in the same order, forward and
    backward, so the results equal that composition bit for bit.
    """
    qd, kd, vd = q.data, k.data, v.data
    if heads is not None:
        qd, kd, vd = _split_heads(qd, heads), _split_heads(kd, heads), _split_heads(vd, heads)
    kt = np.swapaxes(kd, -1, -2)
    scores = _matmul(qd, kt, "attention")
    scores *= scale
    if bias is not None:
        scores += bias
    p = _softmax(scores, -1)
    data = _matmul(p, vd, "attention")
    if heads is not None:
        data = _merge_heads(data)

    def backward(g):
        if heads is not None:  # per head, and contiguous as the merge's gradient was
            g = np.ascontiguousarray(_split_heads(g, heads))
        gp = np.matmul(g, np.swapaxes(vd, -1, -2))
        gv = _unbroadcast(np.matmul(np.swapaxes(p, -1, -2), g), vd.shape)
        gs = _softmax_grad(p, _unbroadcast(gp, p.shape), -1)
        gs *= scale
        gq = np.matmul(gs, kd)
        gk = np.swapaxes(_unbroadcast(np.matmul(np.swapaxes(qd, -1, -2), gs), kt.shape), -1, -2)
        if heads is not None:
            gq, gk, gv = _merge_heads(gq), _merge_heads(gk), _merge_heads(gv)
        v._accumulate(gv)
        q._accumulate(gq)
        k._accumulate(gk)

    return _make(data, (q, k, v), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis; gamma/beta broadcast over it."""
    # np.mean is a sum and a true divide; np.var's steps reuse the centred input.
    # np.add.reduce is the ufunc reduce that ndarray.sum calls through a wrapper.
    n = x.shape[-1]
    xc = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / n + EPS)
    xhat = xc * inv
    data = xhat * gamma.data + beta.data

    def backward(g):
        gxhat = g * gamma.data
        m1 = gxhat.sum(axis=-1, keepdims=True) / n
        m2 = (gxhat * xhat).sum(axis=-1, keepdims=True) / n
        x._accumulate((gxhat - m1 - xhat * m2) * inv)
        red = tuple(range(g.ndim - 1))
        gamma._accumulate(_unbroadcast((g * xhat).sum(axis=red), gamma.shape))
        beta._accumulate(_unbroadcast(g.sum(axis=red), beta.shape))

    return _make(data, (x, gamma, beta), backward)


def _batch_norm(h: np.ndarray, gamma: Tensor, beta: Tensor, training: bool,
                running_mean: np.ndarray, running_var: np.ndarray):
    """Channel-wise batch norm of the B×C×H×W array ``h``.

    ``h`` is centred and normalised in place, so it ends as x̂. Returns the
    output and ``backward(g)``, which accumulates gamma's and beta's
    gradients and returns the gradient with respect to ``h``.
    """
    axes = (0, 2, 3)
    cshape = (1, -1, 1, 1)
    if training:
        if h.shape[0] < 2:
            raise ValueError("batch_norm training mode needs batch size >= 2 "
                             "(variance undefined)")
        # np.mean is a sum and a true divide; np.var's steps reuse the centred input
        n = h.shape[0] * h.shape[2] * h.shape[3]
        mu = h.sum(axis=axes) / n
        h -= mu.reshape(cshape)
        var = (h * h).sum(axis=axes) / n
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var * n / max(n - 1, 1)
    else:
        h -= running_mean.reshape(cshape)
        var = running_var
    inv = 1.0 / np.sqrt(var + EPS).reshape(cshape)
    h *= inv
    xhat = h
    data = xhat * gamma.data.reshape(cshape) + beta.data.reshape(cshape)

    def backward(g):
        gxhat = g * gamma.data.reshape(cshape)
        gamma._accumulate((g * xhat).sum(axis=axes))
        beta._accumulate(g.sum(axis=axes))
        if not training:
            return gxhat * inv
        m1 = gxhat.sum(axis=axes, keepdims=True) / n
        m2 = (gxhat * xhat).sum(axis=axes, keepdims=True) / n
        return (gxhat - m1 - xhat * m2) * inv

    return data, backward


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, training: bool,
               running_mean: np.ndarray, running_var: np.ndarray) -> Tensor:
    """Channel-wise batch norm on B×C×H×W input.

    Training mode normalizes over batch+spatial axes and updates the running
    statistics in place; eval mode uses the running statistics.
    """
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects a 4-axis input, got {x.shape}")
    data, bn_backward = _batch_norm(x.data.copy(order="K"), gamma, beta, training,
                                    running_mean, running_var)

    def backward(g):
        x._accumulate(bn_backward(g))

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


def _conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride):
    """3×3 convolution with padding 1, by im2col and one GEMM.

    Returns the output, a new array the caller may overwrite, and
    ``backward(g)``, which accumulates the gradients of ``x`` (by col2im),
    ``weight`` and ``bias`` for the output gradient ``g``.
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
    xp = np.zeros((B, C, H + 2, W + 2))
    xp[:, :, 1:-1, 1:-1] = x.data
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
        if x.requires_grad:  # not for the input features of an unforced model
            gcols = np.matmul(w2.T, g2).reshape(B, C, 9, Ho, Wo)
            gxp = np.zeros_like(xp)
            for k, (si, sj) in enumerate(taps):  # col2im
                gxp[:, :, si, sj] += gcols[:, :, k]
            x._accumulate(gxp[:, :, 1:1 + H, 1:1 + W])
        weight._accumulate(gw.reshape(weight.shape))
        bias._accumulate(g.sum(axis=(0, 2, 3)))

    return data, backward


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride=(1, 1)) -> Tensor:
    """3×3 convolution with fixed padding 1.

    Output spatial extent along a strided axis is ceil(in/stride), so stride-2
    layers implement exact ceil-halving.
    """
    data, backward = _conv2d(x, weight, bias, stride)
    return _make(data, (x, weight, bias), backward)


def conv_block(x: Tensor, weight: Tensor, bias: Tensor, gamma: Tensor, beta: Tensor,
               training: bool, running_mean: np.ndarray, running_var: np.ndarray,
               stride=(1, 1)) -> Tensor:
    """``batch_norm(relu(conv2d(x)))`` as one node.

    The convolution's output is private to the op, so ReLU, centring and
    normalising run in place on it. Besides the convolution's padded input,
    backward keeps x̂, the inverse deviations and a boolean ReLU mask, which
    is built only when a backward can run. Forward and backward do the three
    ops' arithmetic in the same order, so the results (running statistics
    included) equal that composition bit for bit.
    """
    parents = (x, weight, bias, gamma, beta)
    h, conv_backward = _conv2d(x, weight, bias, stride)
    mask = h > 0.0 if _records(parents) else None
    np.maximum(h, 0.0, out=h)
    data, bn_backward = _batch_norm(h, gamma, beta, training, running_mean, running_var)

    def backward(g):
        gh = bn_backward(g)
        gh *= mask
        conv_backward(gh)

    return _make(data, parents, backward)


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
    logp = log_softmax_rows(logits.data)
    safe = np.where(valid, targets, 0)
    data = -(logp[np.arange(len(targets)), safe] * valid).sum() / n

    def backward(g):
        p = np.exp(logp)
        p[np.arange(len(targets)), safe] -= 1.0
        p *= (valid / n * float(g))[:, None]
        logits._accumulate(p)

    return _make(data, (logits,), backward)


def grad_check(fn, x: Tensor, sample: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` maps a Tensor to a scalar Tensor and must be deterministic
    (dropout in eval mode). With ``sample`` set, only that many coordinates,
    drawn from ``rng``, are probed.
    """
    x.requires_grad = True
    x.zero_grad()
    out = fn(x)
    out.backward()
    analytic = x.grad.copy()

    coords = list(np.ndindex(*x.shape)) if x.ndim else [()]
    if sample is not None and sample < len(coords):
        picked = rng.choice(len(coords), size=sample, replace=False)
        coords = [coords[i] for i in picked]

    eps = 1e-5  # the central difference's step
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
