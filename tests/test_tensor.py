import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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


def _batch_norm(x: np.ndarray, training: bool) -> Tensor:
    """``T.batch_norm`` with fresh parameters and statistics: gamma 1, beta 0,
    running mean 0 and variance 1."""
    c = x.shape[1]
    return T.batch_norm(Tensor(x), Tensor(np.ones(c), requires_grad=True),
                        Tensor(np.zeros(c), requires_grad=True), training,
                        np.zeros(c), np.ones(c))


def test_batch_norm_batch_of_one_errors():
    with pytest.raises(ValueError, match="batch size"):
        _batch_norm(np.zeros((1, 3, 4, 4)), training=True)


def test_batch_norm_train_normalizes_per_channel():
    x = np.random.default_rng(7).normal(loc=5.0, scale=3.0, size=(4, 2, 6, 6))
    out = _batch_norm(x, training=True)
    np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)


def test_batch_norm_eval_uses_running_stats():
    x = np.random.default_rng(8).normal(size=(3, 2, 4, 4))
    out = _batch_norm(x, training=False)  # fresh stats: mean 0 var 1
    np.testing.assert_allclose(out.data, x / np.sqrt(1 + 1e-5), atol=1e-12)


@given(st.integers(0, 10 ** 6), st.sampled_from([(24, 12, 10, 10), (3, 4, 9, 6), (2, 1, 1, 1)]))
@settings(max_examples=30, deadline=None)
def test_norms_equal_np_var_formulation(seed, shape):
    # the centred input's mean square is how np.var computes, so bit for bit
    rng = np.random.default_rng(seed)
    x = rng.normal(3.0, 2.0, shape)
    gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    out = T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
    mu, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
    np.testing.assert_array_equal(out, (x - mu) * (1.0 / np.sqrt(var + 1e-5)) * gamma + beta)

    c = shape[1]
    gamma, beta = rng.normal(size=c), rng.normal(size=c)
    run_mean, run_var = rng.normal(size=c), rng.uniform(0.5, 2.0, c)
    mean0, var0 = run_mean.copy(), run_var.copy()
    out = T.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), True, run_mean, run_var).data
    mu, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    n = x.size // c
    cs = (1, -1, 1, 1)
    expected = ((x - mu.reshape(cs)) * (1.0 / np.sqrt(var + 1e-5).reshape(cs))
                * gamma.reshape(cs) + beta.reshape(cs))
    np.testing.assert_array_equal(out, expected)
    np.testing.assert_array_equal(run_mean, mean0 * 0.9 + 0.1 * mu)
    np.testing.assert_array_equal(run_var, var0 * 0.9 + 0.1 * var * n / max(n - 1, 1))


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
    "linear": lambda x, rng: T.tsum(T.mul(
        T.linear(x, Tensor(rng.normal(size=(4, 3)), requires_grad=True),
                 Tensor(rng.normal(size=3), requires_grad=True)),
        Tensor(rng.normal(size=(3, 3))))),
    # x is the queries, keys and values at once
    "attention": lambda x, rng: T.tsum(T.mul(
        T.attention(x, x, x, 0.7, rng.normal(size=(3, 3))), Tensor(rng.normal(size=(3, 4))))),
    # one sequence of 3 positions, d = 4 split into 2 heads
    "attention_heads": lambda x, rng: T.tsum(T.mul(
        T.attention(*(T.reshape(x, (1, 3, 4)),) * 3, 0.7, rng.normal(size=(3, 3)), heads=2),
        Tensor(rng.normal(size=(1, 3, 4))))),
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


def _conv_block_operands(rng, b=3, c=2, o=4, h=7, w=6):
    return (rng.normal(size=(b, c, h, w)), rng.normal(size=(o, c, 3, 3)), rng.normal(size=o),
            rng.normal(1.0, 0.5, size=o), rng.normal(size=o))


@given(st.integers(0, 10 ** 6), st.sampled_from([(1, 1), (2, 2)]), st.booleans(),
       st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_conv_block_grad_check(seed, stride, training, operand):
    rng = np.random.default_rng(seed)
    arrays = _conv_block_operands(rng, b=2, c=1, o=2, h=5, w=6)
    mean, var = rng.normal(size=2), rng.uniform(0.5, 2.0, 2)
    # finite differences across the ReLU kink are not derivatives
    pre = T.conv2d(Tensor(arrays[0]), Tensor(arrays[1]), Tensor(arrays[2]), stride=stride)
    assume(np.abs(pre.data).min() > 1e-3)
    w_out = rng.normal(size=pre.shape)

    def f(t):
        ts = [Tensor(a) for a in arrays]
        ts[operand] = t
        out = T.conv_block(*ts, training, mean, var, stride=stride)
        return T.tsum(T.mul(out, Tensor(w_out)))

    assert grad_check(f, Tensor(arrays[operand].copy())) < 1e-4


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


# fused ops against their unfused compositions -----------------------------

def _unfused_linear(x, w, b):
    return T.add(T.matmul(x, w), b)


def _unfused_attention(q, k, v, scale, bias=None):
    swap = tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2)
    scores = T.scale(T.matmul(q, T.transpose(k, swap)), scale)
    if bias is not None:
        scores = T.add(scores, Tensor(bias))
    return T.matmul(T.softmax(scores, axis=-1), v)


def _run(op, arrays, g):
    """``op``'s output and each operand's gradient for upstream gradient ``g``."""
    ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*ts)
    T.tsum(T.mul(out, Tensor(g))).backward()
    return [out.data] + [t.grad for t in ts]


def _assert_all_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


@given(st.sampled_from([(2,), (3, 4), (1, 2, 3)]), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_linear_equals_matmul_plus_bias(lead, d_out, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=lead + (4,))
    w, b = rng.normal(size=(4, d_out)), rng.normal(size=d_out)
    g = rng.normal(size=lead + (d_out,))
    _assert_all_equal(_run(T.linear, (x, w, b), g), _run(_unfused_linear, (x, w, b), g))


@given(st.sampled_from([None, "keys", "full"]), st.booleans(), st.integers(1, 4),
       st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_attention_equals_unfused_composition(bias_kind, shared_kv, tq, tk, d, seed):
    # shared_kv: keys and values of batch 1 serve all B query rows
    rng = np.random.default_rng(seed)
    B, H = 3, 2
    kv_batch = 1 if shared_kv else B
    q = rng.normal(size=(B, H, tq, d))
    k, v = rng.normal(size=(kv_batch, H, tk, d)), rng.normal(size=(kv_batch, H, tk, d + 1))
    bias = {None: None,
            "keys": np.where(rng.random((B, 1, 1, tk)) < 0.3, -1e30, 0.0),
            "full": rng.normal(size=(B, 1, tq, tk))}[bias_kind]
    scale = float(rng.uniform(0.1, 2.0))
    g = rng.normal(size=(B, H, tq, d + 1))
    got = _run(lambda *t: T.attention(*t, scale, bias), (q, k, v), g)
    want = _run(lambda *t: _unfused_attention(*t, scale, bias), (q, k, v), g)
    _assert_all_equal(got, want)

    with T.no_grad():
        out = T.attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)), scale, bias)
    assert out._prev == () and not out.requires_grad
    assert np.array_equal(out.data, want[0])


def _split_heads(x, heads):
    """B×T×d -> B×heads×T×(d/heads), as MultiHeadAttention once built it."""
    return T.transpose(T.reshape(x, x.shape[:2] + (heads, x.shape[2] // heads)), (0, 2, 1, 3))


@given(st.sampled_from([None, "keys", "full"]), st.booleans(), st.integers(1, 3),
       st.integers(1, 4), st.integers(1, 5), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_attention_heads_equal_split_and_merge_composition(bias_kind, shared_kv, heads, tq, tk,
                                                           d_head, seed):
    # shared_kv: keys and values of batch 1 serve all B query rows
    rng = np.random.default_rng(seed)
    B, d = 3, heads * d_head
    kv_batch = 1 if shared_kv else B
    q = rng.normal(size=(B, tq, d))
    k, v = rng.normal(size=(kv_batch, tk, d)), rng.normal(size=(kv_batch, tk, d))
    bias = {None: None,
            "keys": np.where(rng.random((B, 1, 1, tk)) < 0.3, -1e30, 0.0),
            "full": rng.normal(size=(B, 1, tq, tk))}[bias_kind]
    scale = float(rng.uniform(0.1, 2.0))
    g = rng.normal(size=(B, tq, d))

    def composed(q, k, v):
        out = T.attention(*(_split_heads(t, heads) for t in (q, k, v)), scale, bias)
        return T.reshape(T.transpose(out, (0, 2, 1, 3)), (B, tq, d))
    want = _run(composed, (q, k, v), g)
    _assert_all_equal(_run(lambda *t: T.attention(*t, scale, bias, heads=heads), (q, k, v), g),
                      want)

    with T.no_grad():
        out = T.attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)), scale, bias,
                          heads=heads)
    assert out._prev == () and not out.requires_grad
    assert np.array_equal(out.data, want[0])


def _unfused_conv_block(x, w, b, gamma, beta, training, mean, var, stride):
    return T.batch_norm(T.relu(T.conv2d(x, w, b, stride=stride)), gamma, beta,
                        training, mean, var)


def _running_stats(c):
    """Distinct running statistics per channel, so eval mode reads each."""
    return np.linspace(-0.5, 0.5, c), np.linspace(0.5, 2.0, c)


def _run_conv_block(op, arrays, g, training, x_grad, stride):
    """``op``'s output, each parameter's gradient, x's gradient if it has
    one, and the running statistics, for upstream gradient ``g``."""
    x = Tensor(arrays[0].copy(), requires_grad=x_grad)
    params = [Tensor(a.copy(), requires_grad=True) for a in arrays[1:]]
    mean, var = _running_stats(g.shape[1])
    out = op(x, *params, training, mean, var, stride)
    np.testing.assert_array_equal(x.data, arrays[0])  # the input is not written to
    T.tsum(T.mul(out, Tensor(g))).backward()
    assert (x.grad is None) == (not x_grad)
    grads = [p.grad for p in params] + ([x.grad] if x_grad else [])
    return [out.data] + grads + [mean, var]


def _np_batch_norm_of_relu(arrays, training, stride):
    """The output and running statistics from numpy's mean and var, a witness
    that does not share the ops' batch-norm arithmetic."""
    x, w, b, gamma, beta = arrays
    h = np.maximum(T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride).data, 0.0)
    mean, var = _running_stats(h.shape[1])
    if training:
        mu, v = h.mean(axis=(0, 2, 3)), h.var(axis=(0, 2, 3))
        n = h.size // h.shape[1]
        mean, var = mean * 0.9 + 0.1 * mu, var * 0.9 + 0.1 * v * n / (n - 1)
    else:
        mu, v = mean, var
    cs = (1, -1, 1, 1)
    out = ((h - mu.reshape(cs)) * (1.0 / np.sqrt(v + 1e-5).reshape(cs))
           * gamma.reshape(cs) + beta.reshape(cs))
    return out, mean, var


@pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "x_const"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("stride", [(1, 1), (2, 2)], ids=["s1", "s2"])
@pytest.mark.parametrize("seed", [0, 1])
def test_conv_block_equals_unfused_composition(seed, stride, training, x_grad):
    rng = np.random.default_rng(30 + seed)
    b, h, w = 3 + seed, 7 + seed, 6
    arrays = _conv_block_operands(rng, b=b, h=h, w=w)
    g = rng.normal(size=(b, 4, -(-h // stride[0]), -(-w // stride[1])))
    want = _run_conv_block(_unfused_conv_block, arrays, g, training, x_grad, stride)
    got = _run_conv_block(T.conv_block, arrays, g, training, x_grad, stride)
    _assert_all_equal(got, want)
    witness = _np_batch_norm_of_relu(arrays, training, stride)
    _assert_all_equal([got[0]] + got[-2:], witness)
    if not training:  # the inference path: eval mode under no_grad
        with T.no_grad():
            out = T.conv_block(*(Tensor(a, requires_grad=True) for a in arrays), False,
                               *_running_stats(4), stride)
        assert out._prev == () and not out.requires_grad
        assert np.array_equal(out.data, want[0])


def test_sa2d_frequency_attention_on_transposed_views():
    # SA2D's frequency axis attends over transposed (non-contiguous) maps
    rng = np.random.default_rng(15)
    q, k, v = (rng.normal(size=(2, 3, 7, 5)) for _ in range(3))
    g = rng.normal(size=(2, 3, 7, 5))
    sw = (0, 1, 3, 2)

    def fused(*t):
        return T.transpose(T.attention(*(T.transpose(x, sw) for x in t), 0.25), sw)

    def unfused(*t):
        return T.transpose(_unfused_attention(*(T.transpose(x, sw) for x in t), 0.25), sw)
    _assert_all_equal(_run(fused, (q, k, v), g), _run(unfused, (q, k, v), g))


def test_fused_ops_grad_check_every_operand():
    rng = np.random.default_rng(16)
    x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
    q, k, v = rng.normal(size=(2, 3, 4)), rng.normal(size=(1, 5, 4)), rng.normal(size=(1, 5, 2))
    bias, w_out = rng.normal(size=(2, 3, 5)), rng.normal(size=(2, 3, 5))
    ops = [(lambda t: T.linear(t, Tensor(w), Tensor(b)), x),
           (lambda t: T.linear(Tensor(x), t, Tensor(b)), w),
           (lambda t: T.linear(Tensor(x), Tensor(w), t), b),
           (lambda t: T.attention(t, Tensor(k), Tensor(v), 0.5, bias), q),
           (lambda t: T.attention(Tensor(q), t, Tensor(v), 0.5, bias), k),
           (lambda t: T.attention(Tensor(q), Tensor(k), t, 0.5, bias), v)]
    for op, arr in ops:
        def f(t):
            out = op(t)
            return T.tsum(T.mul(out, Tensor(w_out[..., :out.shape[-1]])))
        assert grad_check(f, Tensor(arr.copy())) < 1e-6


def test_first_gradient_is_a_private_copy():
    # add passes its incoming gradient on unchanged to both operands; each
    # operand's first gradient must be its own array
    a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([0.5, 4.0, -1.0]), requires_grad=True)
    T.tsum(T.add(a, b)).backward()
    np.testing.assert_array_equal(a.grad, np.ones(3))
    np.testing.assert_array_equal(b.grad, np.ones(3))
    assert not np.shares_memory(a.grad, b.grad)
    # the second gradient of the same operand is summed into the first
    a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    T.tsum(T.add(a, a)).backward()
    np.testing.assert_array_equal(a.grad, np.full(3, 2.0))


def test_backward_releases_the_graph():
    rng = np.random.default_rng(18)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=(4, 2)))
    h = T.matmul(x, w)
    y = T.relu(h)
    z = T.mul(y, c)
    loss = T.tsum(z)
    value = loss.item()
    loss.backward()
    for node in (h, y, z, loss):
        assert node.grad is None and node._backward is None and node._prev == ()
    # the leaves keep their gradients and every node its data
    gz = (h.data > 0.0) * c.data
    np.testing.assert_array_equal(w.grad, x.data.T @ gz)
    np.testing.assert_array_equal(x.grad, gz @ w.data.T)
    assert c.grad is None
    assert loss.item() == value
    np.testing.assert_array_equal(y.data, np.maximum(h.data, 0.0))


def test_backward_releases_each_node_before_its_parents_run():
    x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
    mid = T.exp(x)
    top = T.scale(mid, 3.0)
    loss = T.tsum(top)
    seen = []
    mid_backward = mid._backward

    def spy(g):
        seen.append((top.grad, top._backward, top._prev, loss.grad))
        mid_backward(g)

    mid._backward = spy
    loss.backward()
    assert seen == [(None, None, (), None)]
    np.testing.assert_array_equal(x.grad, 3.0 * np.exp(x.data))


def test_second_backward_on_a_released_graph_raises():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    y = T.mul(p, p)
    loss = T.tsum(y)
    loss.backward()
    first = p.grad.copy()
    with pytest.raises(RuntimeError, match="already released"):
        loss.backward()
    # a new graph built on a released node cannot reach p either
    with pytest.raises(RuntimeError, match="already released"):
        T.tsum(T.scale(y, 2.0)).backward()
    np.testing.assert_array_equal(p.grad, first)
    # a fresh graph over the same leaf still backpropagates
    T.tsum(T.mul(p, p)).backward()
    np.testing.assert_array_equal(p.grad, 2.0 * first)


def test_constants_get_no_gradient():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    c = Tensor(np.array([3.0, 0.5]))
    T.tsum(T.mul(p, c)).backward()
    assert c.grad is None
    np.testing.assert_array_equal(p.grad, c.data)


def test_no_grad_records_no_graph():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    with T.no_grad():
        outs = [T.add(p, p), T.matmul(T.reshape(p, (1, 3)), T.reshape(p, (3, 1))),
                T.softmax(p), T.relu(p), T.concat([p, p]), T.tsum(p)]
    for out in outs:
        assert not out.requires_grad and out._prev == () and out._backward is None
    # parameters still get gradients after the block
    T.tsum(T.mul(p, p)).backward()
    np.testing.assert_array_equal(p.grad, 2.0 * p.data)


def test_no_grad_restored_after_exception():
    p = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(RuntimeError):
        with T.no_grad():
            with T.no_grad():  # nested blocks restore the outer mode
                pass
            assert not T.add(p, p).requires_grad
            raise RuntimeError("boom")
    assert T.add(p, p).requires_grad


def test_forward_outputs_finite_on_finite_input():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(scale=100.0, size=(4, 8)))
    chain = T.softmax(T.relu(T.matmul(x, Tensor(rng.normal(size=(8, 8))))), axis=-1)
    assert np.all(np.isfinite(chain.data))


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Tensor(np.zeros(3), requires_grad=True).backward()
