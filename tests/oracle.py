"""The kernels that ``multislt.tensor`` replaced, kept verbatim as oracles.

``linear`` here runs one GEMM per leading index, ``_batch_norm`` sums its
products through full-size temporaries, and ``_conv2d`` builds im2col from
nine strided taps of the padded input. The current kernels sum in other
orders, so the tests check them against these to 1e-12 relative; these in
turn equal the unfused compositions and numpy witnesses bit for bit.
"""

import numpy as np

from multislt.tensor import (BN_MOMENTUM, EPS, ShapeError, Tensor, _make, _matmul, _records,
                             _unbroadcast)


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
