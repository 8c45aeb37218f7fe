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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray, fresh: bool = False):
        # Constants (inputs, masks, attention biases) keep no gradient.
        if not self.requires_grad:
            return
        # A ``fresh`` first gradient, which the calling closure made for this
        # node alone, is kept if it has ``data``'s memory layout. Others are
        # copied, since closures pass on arrays that other nodes also hold
        # (add's ``g``, reshape's views). A copy takes ``data``'s layout, so
        # later reductions sum in the same order either way.
        if self.grad is None:
            if fresh and g.shape == self.data.shape and g.strides == self.data.strides:
                self.grad = g
            else:
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

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(-_unbroadcast(g, b.shape), fresh=True)

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.shape), fresh=True)
        b._accumulate(_unbroadcast(g * a.data, b.shape), fresh=True)

    return _make(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    data = a.data * c

    def backward(g):
        a._accumulate(g * c, fresh=True)

    return _make(data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accumulate(g * (a.data > 0.0), fresh=True)

    return _make(data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * data, fresh=True)

    return _make(data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - data * data), fresh=True)

    return _make(data, (a,), backward)


# structural ------------------------------------------------------------

def _matmul(a: np.ndarray, b: np.ndarray, op: str = "matmul") -> np.ndarray:
    try:
        return np.matmul(a, b)
    except ValueError as e:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} x {b.shape}") from e


def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = _matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        a._accumulate(_unbroadcast(ga, a.shape), fresh=True)
        b._accumulate(_unbroadcast(gb, b.shape), fresh=True)

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
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g):
        splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    return _make(data, tuple(tensors), backward)


def getitem(a: Tensor, idx) -> Tensor:
    # slices only: none selects an element twice, so backward need not sum repeats
    if not all(isinstance(i, slice) for i in (idx if isinstance(idx, tuple) else (idx,))):
        raise IndexError(f"getitem takes slices only, got {idx!r}")
    data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        a._accumulate(full, fresh=True)

    return _make(data, (a,), backward)


def tsum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape).copy(), fresh=True)

    return _make(data, (a,), backward)


def tmean(a: Tensor, axis=None) -> Tensor:
    n = a.data.size if axis is None else a.shape[axis]
    return scale(tsum(a, axis=axis), 1.0 / n)


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
        a._accumulate(_softmax_grad(data, g, axis), fresh=True)

    return _make(data, (a,), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` as one node. The leading axes are flattened once,
    so forward is one 2-D GEMM, backward two (``g @ weightᵀ``, ``xᵀ @ g``)."""
    x2 = x.data.reshape(-1, x.shape[-1])
    data = _matmul(x2, weight.data, "linear")
    data += bias.data

    def backward(g):
        g2 = g.reshape(data.shape)
        x._accumulate((g2 @ weight.data.T).reshape(x.shape), fresh=True)
        weight._accumulate(x2.T @ g2, fresh=True)
        bias._accumulate(g2.sum(axis=0), fresh=True)

    return _make(data.reshape(x.shape[:-1] + data.shape[1:]), (x, weight, bias), backward)


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
        v._accumulate(gv, fresh=True)
        q._accumulate(gq, fresh=True)
        k._accumulate(gk, fresh=True)

    return _make(data, (q, k, v), backward)


def _layer_norm(h: np.ndarray, gamma: Tensor, beta: Tensor):
    """Normalize ``h`` over its last axis. Returns the output and ``backward(g)``,
    which accumulates gamma's and beta's gradients and returns h's."""
    # np.mean is a sum and a true divide; np.var's steps reuse the centred input.
    # np.add.reduce is the ufunc reduce that ndarray.sum calls through a wrapper.
    n = h.shape[-1]
    xc = h - np.add.reduce(h, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / n + EPS)
    xhat = xc * inv
    data = xhat * gamma.data + beta.data

    def backward(g):
        gxhat = g * gamma.data
        m1 = gxhat.sum(axis=-1, keepdims=True) / n
        m2 = (gxhat * xhat).sum(axis=-1, keepdims=True) / n
        red = tuple(range(g.ndim - 1))
        gamma._accumulate(_unbroadcast((g * xhat).sum(axis=red), gamma.shape), fresh=True)
        beta._accumulate(_unbroadcast(g.sum(axis=red), beta.shape), fresh=True)
        return (gxhat - m1 - xhat * m2) * inv

    return data, backward


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis; gamma/beta broadcast over it."""
    data, ln_backward = _layer_norm(x.data, gamma, beta)

    def backward(g):
        x._accumulate(ln_backward(g), fresh=True)

    return _make(data, (x, gamma, beta), backward)


def add_layer_norm(x: Tensor, y: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """``layer_norm(add(x, y), gamma, beta)`` as one node: the post-norm
    residual. The two ops' arithmetic runs in the same order, forward and
    backward, so the results equal that composition bit for bit."""
    data, ln_backward = _layer_norm(x.data + y.data, gamma, beta)

    def backward(g):
        gs = ln_backward(g)
        x._accumulate(gs)  # copied, so y may keep the array
        y._accumulate(gs, fresh=True)

    return _make(data, (x, y, gamma, beta), backward)


def _batch_norm(h: np.ndarray, gamma: Tensor, beta: Tensor, training: bool,
                running_mean: np.ndarray, running_var: np.ndarray):
    """Channel-wise batch norm of the B×C×H×W array ``h``.

    ``h`` is centred and normalised in place, so it ends as x̂. Returns the
    output and ``backward(g)``, which accumulates gamma's and beta's
    gradients and returns the gradient with respect to ``h``, as
    g·a − x̂·b − c with per-channel a, b and c. Sums of products are einsums.
    """
    axes = (0, 2, 3)
    cshape = (1, -1, 1, 1)
    if training:
        if h.shape[0] < 2:
            raise ValueError("batch_norm training mode needs batch size >= 2 "
                             "(variance undefined)")
        # np.mean is a sum and a true divide; the variance reuses the centred input
        n = h.shape[0] * h.shape[2] * h.shape[3]
        mu = h.sum(axis=axes) / n
        h -= mu.reshape(cshape)
        var = np.einsum("bchw,bchw->c", h, h) / n
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var * n / max(n - 1, 1)
    else:
        h -= running_mean.reshape(cshape)
        var = running_var
    inv = 1.0 / np.sqrt(var + EPS)
    h *= inv.reshape(cshape)
    xhat = h
    data = xhat * gamma.data.reshape(cshape)
    data += beta.data.reshape(cshape)

    def backward(g):
        sum_gx = np.einsum("bchw,bchw->c", g, xhat)
        sum_g = g.sum(axis=axes)
        gamma._accumulate(sum_gx, fresh=True)
        beta._accumulate(sum_g, fresh=True)
        a = gamma.data * inv  # Σ(g·γ) = γ·Σg and Σ(g·γ·x̂) = γ·Σ(g·x̂)
        dx = g * a.reshape(cshape)
        if training:
            dx -= xhat * (a * sum_gx / n).reshape(cshape)
            dx -= (a * sum_g / n).reshape(cshape)
        return dx

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
        x._accumulate(bn_backward(g), fresh=True)

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
        x._accumulate(g * mask, fresh=True)

    return _make(data, (x,), backward)


def _phase_slices(n: int, s: int):
    """For each phase p of an axis of ``n`` positions, padded by one and
    strided by ``s``: its input positions (every s-th from f = (p − 1) mod s)
    and the phase positions they fill (from (f + 1) // s)."""
    return [(slice(f, None, s), slice((f + 1) // s, (f + 1) // s + len(range(f, n, s))))
            for f in ((p - 1) % s for p in range(s))]


def _conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride):
    """3×3 convolution with padding 1, by im2col and one GEMM.

    The zero-padded input is split into its sh·sw phases (padded rows ≡ pi
    mod sh by columns ≡ pj mod sw: space-to-depth), each channel-major,
    C × (B·Hq·Wq) plus a tail margin. Output (b, i, j) has the flat index
    (b·Hq + i)·Wq + j, and tap (di, dj) reads phase (di mod sh, dj mod sw)
    from offset (di // sh)·Wq + dj // sw, so each tap is one contiguous
    slice for every stride. The GEMM's extra rows and columns are dropped.

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
    Hq, Wq = Ho + 2 // sh, Wo + 2 // sw
    N = B * Hq * Wq
    taps = [(di % sh * sw + dj % sw, di // sh * Wq + dj // sw)
            for di in range(3) for dj in range(3)]
    split = [(r, c) for r in _phase_slices(H, sh) for c in _phase_slices(W, sw)]
    phases = np.zeros((sh * sw, C, N + 2 // sh * Wq + 2 // sw))
    grid = phases[:, :, :N].reshape(sh * sw, C, B, Hq, Wq)
    for k, ((xr, qr), (xc, qc)) in enumerate(split):
        grid[k, :, :, qr, qc] = x.data[:, :, xr, xc].transpose(1, 0, 2, 3)
    w2 = weight.data.reshape(O, C * 9)

    def patches():
        """im2col: (C·9)×N, rows in the kernel's (c, di, dj) order."""
        cols = np.empty((C, 9, N))
        for k, (p, off) in enumerate(taps):
            cols[:, k] = phases[p, :, off:off + N]
        return cols.reshape(C * 9, N)

    out = (w2 @ patches()).reshape(O, B, Hq, Wq)[:, :, :Ho, :Wo]
    data = np.empty((B, O, Ho, Wo))
    np.add(out.transpose(1, 0, 2, 3), bias.data.reshape(1, O, 1, 1), out=data)

    def backward(g):
        g2 = np.zeros((O, N))
        g2.reshape(O, B, Hq, Wq)[:, :, :Ho, :Wo] = g.transpose(1, 0, 2, 3)
        # The patches are rebuilt rather than kept by the closure, which would
        # hold 9× each conv's input until backward.
        gw = g2 @ patches().T
        if x.requires_grad:  # not for the input features of an unforced model
            gcols = (w2.T @ g2).reshape(C, 9, N)
            gphases = np.zeros_like(phases)
            for k, (p, off) in enumerate(taps):  # col2im
                gphases[p, :, off:off + N] += gcols[:, k]
            ggrid = gphases[:, :, :N].reshape(sh * sw, C, B, Hq, Wq)
            gx = np.empty((B, C, H, W))
            for k, ((xr, qr), (xc, qc)) in enumerate(split):  # de-phase
                gx[:, :, xr, xc] = ggrid[k, :, :, qr, qc].transpose(1, 0, 2, 3)
            x._accumulate(gx, fresh=True)
        weight._accumulate(gw.reshape(weight.shape), fresh=True)
        bias._accumulate(g.sum(axis=(0, 2, 3)), fresh=True)

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
        table._accumulate(full, fresh=True)

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
        logits._accumulate(p, fresh=True)

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
