import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multislt import tensor as T
from multislt.tensor import Tensor, ShapeError, grad_check


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    out = T.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_hand():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_grad_closed_form_and_fd():
    # d/dA sum(A@B) = row-broadcast of column sums of B
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = rng.normal(size=(3, 5))
    out = T.tsum(T.matmul(a, Tensor(b)))
    out.backward()
    expected = np.broadcast_to(b.sum(axis=1), (4, 3))
    np.testing.assert_allclose(a.grad, expected, rtol=1e-12)

    err = grad_check(lambda x: T.tsum(T.matmul(x, Tensor(b))),
                     Tensor(rng.normal(size=(4, 3))))
    assert err < 1e-6


def test_softmax_uniform():
    out = T.softmax(Tensor(np.zeros(5)), axis=0)
    np.testing.assert_allclose(out.data, 0.2, atol=1e-15)


def test_softmax_closed_form():
    out = T.softmax(Tensor([0.0, np.log(3.0)]), axis=0)
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_overflow_guard():
    out = T.softmax(Tensor([1000.0, 1000.0]), axis=0)
    np.testing.assert_allclose(out.data, [0.5, 0.5])
    assert np.all(np.isfinite(out.data))


@given(st.integers(1, 8), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_rows_sum_to_one(rows, cols, seed):
    x = np.random.default_rng(seed).normal(scale=10.0, size=(rows, cols))
    out = T.softmax(Tensor(x), axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(out.data >= 0.0)


def _conv(x, cout=2, stride=(1, 1), rng=None, w=None, b=None):
    rng = rng or np.random.default_rng(0)
    cin = x.shape[1]
    wt = Tensor(w if w is not None else rng.normal(size=(cout, cin, 3, 3)), requires_grad=True)
    bt = Tensor(b if b is not None else rng.normal(size=cout), requires_grad=True)
    return T.conv2d(Tensor(x), wt, bt, stride=stride)


def test_conv2d_strided_shape():
    out = _conv(np.zeros((1, 1, 100, 40)), cout=16, stride=(2, 2))
    assert out.shape == (1, 16, 50, 20)


@given(st.integers(1, 64), st.integers(1, 64), st.sampled_from([(1, 1), (2, 2), (2, 1)]))
@settings(max_examples=40, deadline=None)
def test_conv2d_shape_is_ceil_division(h, w, stride):
    out = _conv(np.zeros((1, 1, h, w)), cout=1, stride=stride)
    assert out.shape[2] == -(-h // stride[0])
    assert out.shape[3] == -(-w // stride[1])


def test_conv2d_zero_input_gives_bias():
    b = np.array([1.5, -2.0])
    out = _conv(np.zeros((2, 1, 5, 5)), cout=2, b=b, w=np.random.default_rng(3).normal(size=(2, 1, 3, 3)))
    np.testing.assert_allclose(out.data, b.reshape(1, 2, 1, 1) * np.ones((2, 2, 5, 5)))


def test_conv2d_identity_kernel():
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    x = np.random.default_rng(4).normal(size=(1, 1, 6, 7))
    out = _conv(x, cout=1, w=w, b=np.zeros(1))
    np.testing.assert_allclose(out.data, x, atol=1e-15)


def test_conv2d_nonpositive_extent_errors():
    # stride 2 on width 1 is fine (ceil=1); a 0-width input is the error case
    with pytest.raises(ShapeError):
        _conv(np.zeros((1, 1, 0, 4)))


def test_relu_values():
    out = T.relu(Tensor([-2.0, 3.0]))
    np.testing.assert_array_equal(out.data, [0.0, 3.0])


def test_layer_norm_constant_vector():
    g, b = Tensor(np.ones(6), requires_grad=True), Tensor(np.zeros(6), requires_grad=True)
    out = T.layer_norm(Tensor(np.full((2, 6), 3.7)), g, b)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_dropout_eval_is_identity():
    x = Tensor(np.random.default_rng(5).normal(size=(3, 4)))
    out = T.dropout(x, 0.1, training=False)
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_train_scales_survivors():
    rng = np.random.default_rng(6)
    x = np.ones((100, 100))
    out = T.dropout(Tensor(x), 0.25, training=True, rng=rng)
    vals = np.unique(out.data)
    np.testing.assert_allclose(vals, [0.0, 1.0 / 0.75])


def test_batch_norm_batch_of_one_errors():
    import multislt.modules as M
    bn = M.BatchNorm2d(3)
    with pytest.raises(ValueError, match="batch size"):
        bn(Tensor(np.zeros((1, 3, 4, 4))))


def test_batch_norm_train_normalizes_per_channel():
    import multislt.modules as M
    bn = M.BatchNorm2d(2)
    x = np.random.default_rng(7).normal(loc=5.0, scale=3.0, size=(4, 2, 6, 6))
    out = bn(Tensor(x))
    np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)


def test_batch_norm_eval_uses_running_stats():
    import multislt.modules as M
    bn = M.BatchNorm2d(2)
    bn.eval()
    x = np.random.default_rng(8).normal(size=(3, 2, 4, 4))
    out = bn(Tensor(x))  # fresh stats: mean 0 var 1
    np.testing.assert_allclose(out.data, x / np.sqrt(1 + bn.eps), atol=1e-12)


def test_cross_entropy_uniform_logits():
    out = T.cross_entropy(Tensor(np.zeros((4, 30))), np.array([1, 2, 3, 4]), pad_id=0)
    np.testing.assert_allclose(out.item(), np.log(30.0), atol=1e-12)


def test_cross_entropy_confident_logits():
    logits = np.zeros((2, 10))
    logits[0, 3] = 50.0
    logits[1, 7] = 50.0
    out = T.cross_entropy(Tensor(logits), np.array([3, 7]), pad_id=0)
    assert out.item() < 1e-12


def test_cross_entropy_pad_positions_ignored():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(3, 8))
    full = T.cross_entropy(Tensor(logits[:2]), np.array([1, 2]), pad_id=0)
    padded = T.cross_entropy(Tensor(logits), np.array([1, 2, 0]), pad_id=0)
    np.testing.assert_allclose(padded.item(), full.item(), atol=1e-14)


def test_cross_entropy_all_pad_errors():
    with pytest.raises(ValueError, match="padding"):
        T.cross_entropy(Tensor(np.zeros((2, 5))), np.array([0, 0]), pad_id=0)


def test_cross_entropy_grad_matches_fd():
    rng = np.random.default_rng(10)
    targets = np.array([1, 4, 0, 2])
    err = grad_check(lambda x: T.cross_entropy(x, targets, pad_id=0),
                     Tensor(rng.normal(size=(4, 6))))
    assert err < 1e-6


def test_grad_check_linear_is_exact():
    w = np.random.default_rng(11).normal(size=5)
    err = grad_check(lambda x: T.tsum(T.mul(x, Tensor(w))),
                     Tensor(np.random.default_rng(12).normal(size=5)))
    assert err < 1e-9


def test_grad_check_relu_away_from_kink():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 4))
    x = np.where(np.abs(x) < 0.1, 0.5, x)
    err = grad_check(lambda t: T.tsum(T.relu(t)), Tensor(x))
    assert err < 1e-6


def test_shared_subexpression_accumulates():
    # y = x*x + x*x through a shared node must equal the duplicated-node oracle
    x = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    sq = T.mul(x, x)
    out = T.tsum(T.add(sq, sq))
    out.backward()
    shared_grad = x.grad.copy()

    x2 = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    out2 = T.tsum(T.add(T.mul(x2, x2), T.mul(x2, x2)))
    out2.backward()
    np.testing.assert_allclose(shared_grad, x2.grad, atol=1e-14)
    np.testing.assert_allclose(shared_grad, 4.0 * np.array([2.0, -3.0]), atol=1e-14)


OPS = {
    "matmul": lambda x, rng: T.tsum(T.matmul(x, Tensor(rng.normal(size=(x.shape[-1], 3))))),
    "softmax": lambda x, rng: T.tsum(T.mul(T.softmax(x, axis=-1),
                                           Tensor(rng.normal(size=x.shape)))),
    "layer_norm": lambda x, rng: T.tsum(T.mul(
        T.layer_norm(x, Tensor(rng.normal(size=x.shape[-1]), requires_grad=True),
                     Tensor(rng.normal(size=x.shape[-1]), requires_grad=True)),
        Tensor(rng.normal(size=x.shape)))),
    "exp": lambda x, rng: T.tsum(T.exp(x)),
    "concat": lambda x, rng: T.tsum(T.mul(
        T.concat([x, x], axis=0), Tensor(rng.normal(size=(2 * x.shape[0],) + x.shape[1:])))),
    "transpose": lambda x, rng: T.tsum(T.mul(
        T.transpose(x, (1, 0)), Tensor(rng.normal(size=x.shape[::-1])))),
    "broadcast_to": lambda x, rng: T.tsum(T.mul(
        T.broadcast_to(T.reshape(x, (3, 1, 4)), (2, 3, 5, 4)),
        Tensor(rng.normal(size=(2, 3, 5, 4))))),
}


@given(st.sampled_from(sorted(OPS)), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_every_op_passes_grad_check(op, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, 4)))
    err = grad_check(lambda t: OPS[op](t, np.random.default_rng(seed + 1)), x)
    assert err < 1e-4


@given(st.integers(0, 10 ** 6), st.sampled_from([(1, 1), (2, 2)]))
@settings(max_examples=20, deadline=None)
def test_conv2d_grad_check(seed, stride):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(2, 1, 3, 3))
    b = rng.normal(size=2)

    def f(t):
        return T.tsum(T.conv2d(t, Tensor(w), Tensor(b), stride=stride))

    err = grad_check(f, Tensor(rng.normal(size=(1, 1, 5, 6))))
    assert err < 1e-4


def _einsum_conv2d(x, w, b, stride, g):
    """The nine-tap einsum convolution, kept as the oracle for ``T.conv2d``.

    Returns the output and the x, weight and bias gradients for the upstream
    gradient ``g``.
    """
    sh, sw = stride
    B, C, H, W = x.shape
    O = w.shape[0]
    Ho, Wo = (H - 1) // sh + 1, (W - 1) // sw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.broadcast_to(b.reshape(1, O, 1, 1), (B, O, Ho, Wo)).copy()
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for di in range(3):
        for dj in range(3):
            tap = (slice(None), slice(None), slice(di, di + sh * (Ho - 1) + 1, sh),
                   slice(dj, dj + sw * (Wo - 1) + 1, sw))
            out += np.einsum("bchw,oc->bohw", xp[tap], w[:, :, di, dj])
            gw[:, :, di, dj] = np.einsum("bohw,bchw->oc", g, xp[tap])
            gxp[tap] += np.einsum("bohw,oc->bchw", g, w[:, :, di, dj])
    return out, gxp[:, :, 1:1 + H, 1:1 + W], gw, g.sum(axis=(0, 2, 3))


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5), st.integers(1, 9),
       st.integers(1, 9), st.sampled_from([(1, 1), (2, 2), (2, 1), (1, 2)]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_conv2d_matches_einsum_oracle(b, c, o, h, w, stride, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(b, c, h, w)), requires_grad=True)
    wt = Tensor(rng.normal(size=(o, c, 3, 3)), requires_grad=True)
    bt = Tensor(rng.normal(size=o), requires_grad=True)
    out = T.conv2d(x, wt, bt, stride=stride)
    g = rng.normal(size=out.shape)
    T.tsum(T.mul(out, Tensor(g))).backward()
    want = _einsum_conv2d(x.data, wt.data, bt.data, stride, g)
    for got, ref in zip((out.data, x.grad, wt.grad, bt.grad), want):
        assert got.shape == ref.shape
        assert _rel_err(got, ref) <= 1e-12


def test_first_gradient_is_a_private_copy():
    # add passes its incoming gradient on unchanged to both operands; the
    # second += into a.grad must not reach y.grad
    a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    y = T.add(a, a)
    T.tsum(y).backward()
    np.testing.assert_array_equal(y.grad, np.ones(3))
    np.testing.assert_array_equal(a.grad, np.full(3, 2.0))


def test_forward_outputs_finite_on_finite_input():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(scale=100.0, size=(4, 8)))
    chain = T.softmax(T.relu(T.matmul(x, Tensor(rng.normal(size=(8, 8))))), axis=-1)
    assert np.all(np.isfinite(chain.data))


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Tensor(np.zeros(3), requires_grad=True).backward()
