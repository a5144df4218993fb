"""Gradient and graph-mechanics checks for the autodiff core.

Every op with a backward rule is validated against the central-difference
oracle in conftest; graph behaviors (accumulation, pruning, detach, tie
rules) are checked analytically since finite differences cannot see them.
The backward sweep is checked bitwise against conftest's serial sweep on
random graphs.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import check_grads, grad_gap, numeric_grad, serial_backward, tensor
from mixsiam import autodiff as ad
from mixsiam.autodiff import Tensor
from mixsiam.errors import ShapeError

RNG_SEEDS = [0, 1, 2, 3, 4]


def _rand(rng, *shape, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=shape)


# -- elementwise ops against finite differences -----------------------


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_add_sub_mul_grads(seed):
    rng = np.random.default_rng(seed)
    a = _rand(rng, 3, 4)
    b = _rand(rng, 3, 4)
    assert check_grads(lambda x, y: ad.tensor_sum(x + y), [a, b]) < 1
    assert check_grads(lambda x, y: ad.tensor_sum(x - y), [a, b]) < 1
    assert check_grads(lambda x, y: ad.tensor_sum(x * y), [a, b]) < 1


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_scalar_variants_grads(seed):
    rng = np.random.default_rng(seed)
    a = _rand(rng, 2, 5)
    assert check_grads(lambda x: ad.tensor_sum(x + 0.7), [a]) < 1
    assert check_grads(lambda x: ad.tensor_sum(x - 1.3), [a]) < 1
    assert check_grads(lambda x: ad.tensor_sum(x * -2.5), [a]) < 1
    assert check_grads(lambda x: ad.tensor_sum(2.5 * x), [a]) < 1
    assert check_grads(lambda x: ad.tensor_sum(-x), [a]) < 1


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_relu_and_maximum_grads(seed):
    rng = np.random.default_rng(seed)
    # keep entries away from the kinks so central differences are valid
    a = _rand(rng, 4, 3)
    a = np.where(np.abs(a) < 0.05, 0.1, a)
    b = _rand(rng, 4, 3)
    b = np.where(np.abs(a - b) < 0.05, b + 0.1, b)
    assert check_grads(lambda x: ad.tensor_sum(x.relu()), [a]) < 1
    assert check_grads(lambda x, y: ad.tensor_sum(ad.maximum(x, y)), [a, b]) < 1


def _channels_last(a):
    """`a`'s values as a [B, C, H, W] view of a [B, H, W, C] buffer, the
    layout conv2d gives batchnorm and relu."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_is_bitwise_where(dtype):
    # the np.where kernel relu replaced is the reference: same bits (signed
    # zeros, and NaN/inf in g, included) and, in backward, the strides of
    # its result for a channels-last mask and a C-order g
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 5, 6, 3)).astype(dtype)
    a.reshape(-1)[:4] = [-0.0, 0.0, -np.inf, np.inf]
    a = _channels_last(a)
    g = rng.standard_normal(a.shape).astype(dtype)
    g.reshape(-1)[:6] = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf]
    g.reshape(-1)[-20:] = np.nan
    x = tensor(a, requires_grad=True)
    out = ad.relu(x)
    want = np.where(a > 0, a, 0)
    assert out.data.tobytes() == want.tobytes() and out.data.strides == want.strides
    (dx,) = out._backward_fn(g)
    want = np.where(a > 0, g, 0)
    assert dx.dtype == want.dtype
    assert dx.tobytes() == want.tobytes() and dx.strides == want.strides


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grad", [False, True])
def test_relu_overwrite_is_bitwise_the_copying_call(dtype, grad):
    # overwrite_a writes into a's buffer, with or without a gradient: the
    # output and the backward gradient keep the bytes and the strides
    rng = np.random.default_rng(8)
    a = _channels_last(rng.standard_normal((4, 5, 6, 3)).astype(dtype))
    a.reshape(-1)[:4] = [-0.0, 0.0, np.nan, -np.inf]
    g = rng.standard_normal(a.shape).astype(dtype)
    want = ad.relu(tensor(a.copy(order="K"), requires_grad=grad))
    given = a.copy(order="K")
    out = ad.relu(tensor(given, requires_grad=grad), overwrite_a=True)
    assert out.data.tobytes() == want.data.tobytes() and out.data.strides == want.data.strides
    assert np.shares_memory(out.data, given)
    if grad:
        (dx,), (ref,) = out._backward_fn(g), want._backward_fn(g)
        assert dx.tobytes() == ref.tobytes() and dx.strides == ref.strides


def test_relu_propagates_nan():
    a = np.array([[np.nan, -1.0, 2.0, -np.nan]])
    for requires_grad in (False, True):
        out = ad.relu(tensor(a, requires_grad=requires_grad)).data
        assert np.isnan(out[0, [0, 3]]).all() and out[0, 1:3].tolist() == [0.0, 2.0]


def test_maximum_tie_sends_grad_to_first_argument():
    a = tensor(np.array([[1.0, 2.0, -3.0]]), requires_grad=True)
    b = tensor(np.array([[1.0, 2.0, -3.0]]), requires_grad=True)
    out = ad.maximum(a, b)
    ad.backward(ad.tensor_sum(out * 3.0))
    assert np.array_equal(a.grad, np.full((1, 3), 3.0))
    assert np.array_equal(b.grad, np.zeros((1, 3)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_maximum_grads_partition_upstream(seed):
    # the two argument gradients always sum to the upstream gradient,
    # including on exact ties
    rng = np.random.default_rng(seed)
    a = rng.integers(-2, 3, size=(3, 5)).astype(np.float64)
    b = rng.integers(-2, 3, size=(3, 5)).astype(np.float64)
    ta, tb = tensor(a, requires_grad=True), tensor(b, requires_grad=True)
    upstream = rng.uniform(-1, 1, size=(3, 5))
    ad.backward(ad.tensor_sum(ad.maximum(ta, tb) * tensor(upstream)))
    assert np.allclose(ta.grad + tb.grad, upstream, atol=0, rtol=0)
    ties = a == b
    assert np.array_equal(tb.grad[ties], np.zeros(int(ties.sum())))


# -- linear algebra ----------------------------------------------------


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_matmul_grads(seed):
    rng = np.random.default_rng(seed)
    a = _rand(rng, 3, 4)
    b = _rand(rng, 4, 2)
    w = tensor(_rand(rng, 3, 2))
    assert check_grads(lambda x, y: ad.tensor_sum((x @ y) * w), [a, b]) < 1


def test_matmul_shape_error_names_both_shapes():
    a = tensor(np.zeros((3, 4)))
    b = tensor(np.zeros((5, 2)))
    with pytest.raises(ShapeError, match=r"\(3, 4\).*\(5, 2\)"):
        a @ b


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_add_bias_grads(seed):
    rng = np.random.default_rng(seed)
    x = _rand(rng, 4, 6)
    b = _rand(rng, 6)
    w = tensor(_rand(rng, 4, 6))
    assert check_grads(lambda u, v: ad.tensor_sum(ad.add_bias(u, v) * w), [x, b]) < 1


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_l2_normalize_grads(seed):
    rng = np.random.default_rng(seed)
    x = _rand(rng, 5, 7, lo=-2.0, hi=2.0)
    x[np.abs(x).sum(axis=1) < 0.5] += 1.0  # keep rows clearly non-degenerate
    w = tensor(_rand(rng, 5, 7))
    assert check_grads(lambda u: ad.tensor_sum(ad.l2_normalize(u) * w), [x]) < 1


def test_l2_normalize_rows_become_unit():
    rng = np.random.default_rng(7)
    x = tensor(rng.normal(size=(8, 5)))
    y = ad.l2_normalize(x)
    assert np.allclose(np.linalg.norm(y.data, axis=1), 1.0, atol=1e-12)


def test_l2_normalize_epsilon_branch():
    # rows clamped at the eps floor forward as x/eps but get a ZERO
    # gradient: the one-sided slope there is 1/eps ~ 1e12, which would
    # blow up any optimizer the moment a representation row collapses,
    # so the safe-norm subgradient is the only usable choice. Healthy
    # rows keep the exact smooth-branch gradient.
    x = np.zeros((2, 3))
    x[1] = [3.0, 0.0, 4.0]
    t = tensor(x, requires_grad=True)
    w = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 0.0]])
    ad.backward(ad.tensor_sum(ad.l2_normalize(t) * tensor(w)))
    assert np.array_equal(t.grad[0], np.zeros(3))
    # the healthy row is untouched by the masking
    def f(x):
        return (ad.l2_normalize(tensor(x)) * tensor(w)).data.sum()
    num = numeric_grad(f, x, step=1e-6)
    assert grad_gap(t.grad[1], num[1]) < 1


def test_l2_normalize_dead_row_cannot_explode_update():
    # a prediction row that collapsed to zero must not shout over the
    # rest of the batch: its contribution to every upstream gradient is
    # exactly nothing
    x = np.zeros((3, 4))
    x[0] = [1.0, 2.0, -1.0, 0.5]
    x[2] = [-2.0, 0.0, 1.0, 1.0]
    t = tensor(x, requires_grad=True)
    target = tensor(np.ones((3, 4)))
    ad.backward(ad.tensor_sum(ad.l2_normalize(t) * target))
    assert np.all(np.isfinite(t.grad))
    assert np.array_equal(t.grad[1], np.zeros(4))
    assert float(np.abs(t.grad).max()) < 10.0


# -- reductions and pooling -------------------------------------------


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_sum_and_gap_grads(seed):
    rng = np.random.default_rng(seed)
    assert check_grads(lambda x: ad.tensor_sum(x), [_rand(rng, 3, 4)]) < 1
    img = _rand(rng, 2, 3, 4, 4)
    w = tensor(_rand(rng, 2, 3))
    assert check_grads(lambda x: ad.tensor_sum(ad.global_avg_pool(x) * w), [img]) < 1


def test_global_avg_pool_forward():
    x = np.arange(2 * 2 * 2 * 2, dtype=np.float64).reshape(2, 2, 2, 2)
    out = ad.global_avg_pool(tensor(x))
    assert np.array_equal(out.data, x.mean(axis=(2, 3)))


# -- batchnorm ---------------------------------------------------------


@pytest.mark.parametrize("seed", RNG_SEEDS)
@pytest.mark.parametrize("shape", [(6, 5), (3, 4, 5, 5)])
def test_batchnorm_train_grads(seed, shape):
    rng = np.random.default_rng(seed)
    x = _rand(rng, *shape, lo=-2.0, hi=2.0)
    nfeat = shape[1]
    gamma = rng.uniform(0.5, 1.5, size=nfeat)
    beta = _rand(rng, nfeat)
    w = tensor(_rand(rng, *shape))

    def f(xt, gt, bt):
        rm, rv = np.zeros(nfeat), np.ones(nfeat)
        return ad.tensor_sum(ad.batchnorm(xt, gt, bt, rm, rv, "train") * w)
    assert check_grads(f, [x, gamma, beta]) < 1


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_batchnorm_eval_grads(seed):
    rng = np.random.default_rng(seed)
    x = _rand(rng, 4, 5)
    gamma = rng.uniform(0.5, 1.5, size=5)
    beta = _rand(rng, 5)
    rm = _rand(rng, 5)
    rv = rng.uniform(0.5, 2.0, size=5)
    w = tensor(_rand(rng, 4, 5))

    def f(xt, gt, bt):
        return ad.tensor_sum(ad.batchnorm(xt, gt, bt, rm.copy(), rv.copy(), "eval") * w)
    assert check_grads(f, [x, gamma, beta]) < 1


def test_batchnorm_running_stats_update():
    # one train step from fresh buffers, checked against the definition:
    # new = 0.9*old + 0.1*batch_stat, variance unbiased by n/(n-1)
    rng = np.random.default_rng(11)
    x = rng.normal(2.0, 3.0, size=(8, 4))
    rm, rv = np.zeros(4), np.ones(4)
    gamma, beta = tensor(np.ones(4)), tensor(np.zeros(4))
    out = ad.batchnorm(tensor(x), gamma, beta, rm, rv, "train")
    mu = x.mean(axis=0)
    var = x.var(axis=0)
    assert np.allclose(rm, 0.1 * mu, rtol=1e-12)
    assert np.allclose(rv, 0.9 + 0.1 * var * (8 / 7), rtol=1e-12)
    # train-mode output normalizes with the *biased* batch variance
    assert np.allclose(out.data, (x - mu) / np.sqrt(var + ad.BATCHNORM_EPS), rtol=1e-12)


def test_batchnorm_eval_uses_running_stats():
    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    rm = np.array([1.0, -1.0])
    rv = np.array([4.0, 0.25])
    out = ad.batchnorm(tensor(x), tensor(np.ones(2)), tensor(np.zeros(2)), rm, rv, "eval")
    expect = (x - rm) / np.sqrt(rv + ad.BATCHNORM_EPS)
    assert np.allclose(out.data, expect, rtol=1e-12)
    # eval never touches the buffers
    assert np.array_equal(rm, [1.0, -1.0]) and np.array_equal(rv, [4.0, 0.25])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("shape,layout", [
    ((6, 5), "c_order"),
    ((4, 3, 5, 5), "c_order"),
    ((4, 3, 5, 5), "channels_last"),  # what conv2d hands batchnorm
])
def test_batchnorm_without_grad_is_bitwise_grad_path(dtype, mode, shape, layout):
    # the no-gradient path finishes in place; it must give the bytes, the
    # strides and the running buffers of the path that keeps xhat
    rng = np.random.default_rng(13)
    x = rng.normal(0.5, 2.0, size=shape).astype(dtype)
    if layout == "channels_last":
        x = _channels_last(x)
    nfeat = shape[1]
    gamma = rng.uniform(0.5, 1.5, size=nfeat).astype(dtype)
    beta = rng.standard_normal(nfeat).astype(dtype)
    rm = rng.standard_normal(nfeat).astype(dtype)
    rv = rng.uniform(0.5, 2.0, size=nfeat).astype(dtype)
    bufs = {}
    outs = {}
    for grad in (False, True):
        bufs[grad] = (rm.copy(), rv.copy())
        outs[grad] = ad.batchnorm(tensor(x), tensor(gamma, requires_grad=grad),
                                  tensor(beta, requires_grad=grad), *bufs[grad], mode)
    fast, ref = outs[False], outs[True]
    assert fast.data.tobytes() == ref.data.tobytes()
    assert fast.data.strides == ref.data.strides
    for a, b in zip(bufs[False], bufs[True]):
        assert a.tobytes() == b.tobytes()
    assert fast._backward_fn is None and not fast._parents and not fast.requires_grad
    # overwrite_x works in x's buffer, with the same bytes and running buffers
    given = x.copy(order="K")
    buffers = (rm.copy(), rv.copy())
    inplace = ad.batchnorm(tensor(given), tensor(gamma), tensor(beta), *buffers, mode,
                           overwrite_x=True)
    assert inplace.data.tobytes() == ref.data.tobytes()
    assert inplace.data.strides == ref.data.strides and np.shares_memory(inplace.data, given)
    for a, b in zip(buffers, bufs[True]):
        assert a.tobytes() == b.tobytes()
    # with a gradient too: xhat is formed in x's buffer, and the output, the
    # running buffers and every backward gradient keep their bytes
    g = rng.standard_normal(shape).astype(dtype)
    given = x.copy(order="K")
    buffers = (rm.copy(), rv.copy())
    over = ad.batchnorm(tensor(given, requires_grad=True), tensor(gamma, requires_grad=True),
                        tensor(beta, requires_grad=True), *buffers, mode, overwrite_x=True)
    full = ad.batchnorm(tensor(x.copy(order="K"), requires_grad=True),
                        tensor(gamma, requires_grad=True), tensor(beta, requires_grad=True),
                        rm.copy(), rv.copy(), mode)
    assert over.data.tobytes() == full.data.tobytes() and over.data.strides == full.data.strides
    assert given.tobytes() != x.tobytes()
    for a, b in zip(buffers, bufs[True]):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(over._backward_fn(g), full._backward_fn(g)):
        assert a.tobytes() == b.tobytes() and a.strides == b.strides


def test_batchnorm_rejects_singleton_train_batch():
    x = tensor(np.zeros((1, 4)))
    with pytest.raises(ShapeError, match="batch size"):
        ad.batchnorm(x, tensor(np.ones(4)), tensor(np.zeros(4)),
                     np.zeros(4), np.ones(4), "train")


# -- conv2d ------------------------------------------------------------


def _conv2d_loops(x, k, stride, padding):
    """Direct quadruple-loop cross-correlation used as the forward oracle."""
    b, c, h, w = x.shape
    kout, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hout = (h + 2 * padding - kh) // stride + 1
    wout = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((b, kout, hout, wout))
    for bi in range(b):
        for ko in range(kout):
            for i in range(hout):
                for j in range(wout):
                    patch = xp[bi, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[bi, ko, i, j] = np.sum(patch * k[ko])
    return out


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
def test_conv2d_forward_matches_loop_oracle(stride, padding):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 6, 5))
    k = rng.normal(size=(4, 3, 3, 3))
    out = ad.conv2d(tensor(x), tensor(k), stride=stride, padding=padding)
    assert np.allclose(out.data, _conv2d_loops(x, k, stride, padding), atol=1e-12)


CONV_STRIDE_PADDING = [(1, 1), (2, 1), (1, 0), (2, 0)]


def _conv2d_grad_gap(rng, xshape, kshape, stride, padding):
    x = _rand(rng, *xshape)
    k = _rand(rng, *kshape)
    out = ad.conv2d(tensor(x), tensor(k), stride=stride, padding=padding)
    w = tensor(_rand(rng, *out.shape))

    def f(xt, kt):
        return ad.tensor_sum(ad.conv2d(xt, kt, stride=stride, padding=padding) * w)
    return check_grads(f, [x, k])


@pytest.mark.parametrize("seed", RNG_SEEDS[:3])
@pytest.mark.parametrize("stride,padding", CONV_STRIDE_PADDING)
def test_conv2d_grads(seed, stride, padding):
    rng = np.random.default_rng(seed)
    assert _conv2d_grad_gap(rng, (2, 2, 5, 5), (3, 2, 3, 3), stride, padding) < 1


@pytest.mark.parametrize("stride,padding", CONV_STRIDE_PADDING)
@pytest.mark.parametrize("xshape,kshape", [
    ((2, 2, 6, 5), (3, 2, 3, 3)),
    ((2, 2, 5, 5), (3, 2, 2, 3)),
    ((3, 2, 5, 6), (3, 2, 3, 2)),
], ids=["input6x5", "kernel2x3", "batch3"])
def test_conv2d_grads_uneven_shapes(xshape, kshape, stride, padding):
    # non-square inputs and kernels give hout != wout and kh != kw, which
    # the col2im indexing must keep apart
    rng = np.random.default_rng(31)
    assert _conv2d_grad_gap(rng, xshape, kshape, stride, padding) < 1


def _conv2d_sliding_window(x, k, g, stride, padding):
    """The row-per-window im2col kernel that conv2d replaced, kept as its
    bitwise reference: forward output, then dx and dk for upstream `g`."""
    bsz, cin, h, w = x.shape
    kout, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    _, _, hout, wout, _, _ = win.shape
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(bsz, hout * wout, -1)
    kmat = k.reshape(kout, -1)
    out = (cols @ kmat.T).transpose(0, 2, 1).reshape(bsz, kout, hout, wout)
    gk = g.reshape(bsz, kout, -1).transpose(1, 0, 2).reshape(kout, -1)
    dk = (gk @ cols.reshape(-1, cols.shape[-1])).reshape(k.shape)
    dcols = (kmat.T @ g.reshape(bsz, kout, hout * wout)).reshape(bsz, cin, kh, kw, hout, wout)
    dxp = np.zeros(xp.shape, dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * (hout - 1) + 1:stride,
                j:j + stride * (wout - 1) + 1:stride] += dcols[:, :, i, j]
    return out, dxp[:, :, padding:padding + h, padding:padding + w], dk


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride,padding", CONV_STRIDE_PADDING)
@pytest.mark.parametrize("layout", ["c_order", "channels_last"])
@pytest.mark.parametrize("xshape,kshape,bitwise", [
    ((32, 3, 32, 32), (16, 3, 3, 3), True),  # the synthetic_small layers
    ((32, 16, 32, 32), (32, 16, 3, 3), True),
    ((32, 32, 16, 16), (64, 32, 3, 3), True),
    # a batch that is no multiple of 16, and the cifar10 config's batch:
    # the column operands' leading dimension grows with the batch
    ((21, 16, 32, 32), (32, 16, 3, 3), True),
    ((64, 16, 32, 32), (32, 16, 3, 3), True),
    # OpenBLAS sends small products to small-matrix kernels that round a
    # transposed operand differently, so at this size the two column
    # layouts agree to rounding only
    ((3, 5, 11, 10), (7, 5, 3, 2), False),
], ids=["layer1", "layer2", "layer3", "layer2_b21", "layer2_b64", "small"])
def test_conv2d_is_bitwise_sliding_window_im2col(dtype, stride, padding, layout,
                                                 xshape, kshape, bitwise):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(xshape).astype(dtype)
    if layout == "channels_last":
        x = _channels_last(x)
    k = rng.standard_normal(kshape).astype(dtype)
    out = ad.conv2d(tensor(x, requires_grad=True), tensor(k, requires_grad=True),
                    stride=stride, padding=padding)
    g = rng.standard_normal(out.shape).astype(dtype)
    want_out, want_dx, want_dk = _conv2d_sliding_window(x, k, g, stride, padding)
    dx, dk = out._backward_fn(g)
    assert out.data.strides == want_out.strides
    assert dx.tobytes() == want_dx.tobytes()
    if bitwise:
        assert out.data.tobytes() == want_out.tobytes()
        assert dk.tobytes() == want_dk.tobytes()
    else:
        rtol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(out.data, want_out, rtol=rtol, atol=rtol)
        np.testing.assert_allclose(dk, want_dk, rtol=rtol, atol=rtol)


# the synthetic_small layers with the stride the model gives each
SMALL_LAYERS = {
    "layer1": ((3, 32, 32), (16, 3, 3, 3), 1),
    "layer2": ((16, 32, 32), (32, 16, 3, 3), 2),
    "layer3": ((32, 16, 16), (64, 32, 3, 3), 2),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["c_order", "channels_last"])
@pytest.mark.parametrize("layer", list(SMALL_LAYERS))
# a train batch, a 256-sample batch, and a batch that is no multiple of 16
# with and without padding
@pytest.mark.parametrize("bsz,padding", [(32, 1), (256, 1), (21, 1), (21, 0)])
def test_conv2d_forward_only_is_bitwise_sliding_window_im2col(dtype, layout, layer, bsz,
                                                              padding):
    # with both inputs constant conv2d keeps no columns and records no
    # backward; its output must have the bytes and strides of the
    # reference and of a call that keeps columns for backward
    xshape, kshape, stride = SMALL_LAYERS[layer]
    rng = np.random.default_rng(7)
    x = rng.standard_normal((bsz,) + xshape).astype(dtype)
    if layout == "channels_last":
        x = _channels_last(x)
    k = rng.standard_normal(kshape).astype(dtype)
    out = ad.conv2d(tensor(x), tensor(k), stride=stride, padding=padding)
    assert out._backward_fn is None and not out._parents and not out.requires_grad
    want, _, _ = _conv2d_sliding_window(x, k, np.zeros(out.shape, dtype=dtype),
                                     stride, padding)
    assert out.data.strides == want.strides
    assert out.data.tobytes() == want.tobytes()
    for grad_x, grad_k in ((True, False), (False, True)):
        ref = ad.conv2d(tensor(x, requires_grad=grad_x), tensor(k, requires_grad=grad_k),
                        stride=stride, padding=padding)
        assert out.data.strides == ref.data.strides
        assert out.data.tobytes() == ref.data.tobytes()


def test_conv2d_rejects_channel_mismatch():
    with pytest.raises(ShapeError):
        ad.conv2d(tensor(np.zeros((1, 3, 8, 8))), tensor(np.zeros((4, 2, 3, 3))))


# -- softmax cross-entropy ---------------------------------------------


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_softmax_cross_entropy_grads(seed):
    rng = np.random.default_rng(seed)
    logits = _rand(rng, 6, 4, lo=-3.0, hi=3.0)
    labels = rng.integers(0, 4, size=6)
    assert check_grads(lambda z: ad.softmax_cross_entropy(z, labels), [logits]) < 1


def test_softmax_cross_entropy_forward_value():
    logits = np.log(np.array([[0.7, 0.2, 0.1], [0.25, 0.25, 0.5]]))
    labels = np.array([0, 2])
    out = ad.softmax_cross_entropy(tensor(logits), labels)
    assert np.isclose(out.data, -(np.log(0.7) + np.log(0.5)) / 2, rtol=1e-12)


def test_softmax_cross_entropy_is_shift_invariant():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(4, 6)) * 50
    labels = rng.integers(0, 6, size=4)
    a = ad.softmax_cross_entropy(tensor(logits), labels)
    b = ad.softmax_cross_entropy(tensor(logits + 1000.0), labels)
    assert np.isclose(a.data, b.data, rtol=1e-9)


# -- graph mechanics ----------------------------------------------------


def test_detach_shares_value_and_blocks_grads():
    x = tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    d = x.detach()
    assert d.data is x.data
    assert not d.requires_grad
    ad.backward(ad.tensor_sum(d * 5.0))
    assert x.grad is None


def test_detach_splits_composite_graph():
    x = tensor(np.array([[3.0, 4.0]]), requires_grad=True)
    y = ad.l2_normalize(x)
    loss = ad.tensor_sum(y * y.detach())
    ad.backward(loss)
    # only the live branch contributes: d/dx sum(y * const) with const = y
    live = tensor(np.array([[3.0, 4.0]]), requires_grad=True)
    const = ad.l2_normalize(tensor(np.array([[3.0, 4.0]])))
    ad.backward(ad.tensor_sum(ad.l2_normalize(live) * const))
    assert np.allclose(x.grad, live.grad, atol=0)


def test_grad_accumulates_across_reuse():
    x = tensor(np.array([2.0, 3.0]), requires_grad=True)
    y = ad.tensor_sum(x * x) + ad.tensor_sum(x * 4.0)
    ad.backward(y)
    assert np.allclose(x.grad, 2 * x.data + 4.0)


def test_repeated_backward_accumulates():
    x = tensor(np.array([1.0, 1.0]), requires_grad=True)
    ad.backward(ad.tensor_sum(x * 3.0))
    first = x.grad.copy()
    ad.backward(ad.tensor_sum(x * 3.0))
    assert np.array_equal(x.grad, 2 * first)


def test_backward_writes_grad_on_leaves_only():
    x = tensor(np.array([1.0, 2.0]), requires_grad=True)
    w = tensor(np.array([3.0, -1.0]), requires_grad=True)
    y = x * w
    z = y + x
    loss = ad.tensor_sum(z * y)
    ad.backward(loss)
    assert y.grad is None and z.grad is None and loss.grad is None
    # d/dx (xw + x) xw = (w + 1) xw + (xw + x) w;  d/dw = (xw + x) x + x xw
    assert np.array_equal(x.grad, (w.data + 1) * x.data * w.data
                          + (x.data * w.data + x.data) * w.data)
    assert np.array_equal(w.grad, (x.data * w.data + x.data) * x.data
                          + x.data * x.data * w.data)


@pytest.mark.parametrize("value", [np.float64(2.5), np.array([2.5], dtype=np.float32)])
def test_backward_of_a_scalar_leaf_gives_it_ones_and_accumulates(value):
    x = tensor(value, requires_grad=True)
    ad.backward(x)
    assert x.grad.dtype == x.data.dtype and x.grad.shape == x.data.shape
    assert np.array_equal(x.grad, np.ones_like(x.data))
    assert x.grad.flags.writeable and not np.shares_memory(x.grad, x.data)
    ad.backward(x)
    assert np.array_equal(x.grad, np.full_like(x.data, 2.0))
    assert np.array_equal(x.data, value)


def test_backward_requires_scalar():
    x = tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        ad.backward(x * 2.0)


def test_constant_subgraphs_are_pruned():
    a = tensor(np.ones((2, 2)))
    b = tensor(np.ones((2, 2)))
    out = a * b
    assert not out.requires_grad
    assert out._parents == ()


def test_graph_orders_parents_before_children():
    x = tensor(np.ones((2, 2)), requires_grad=True)
    y = x * 2.0
    z = y + x
    loss = ad.tensor_sum(z)
    nodes = ad.Graph(loss)
    pos = {id(n): i for i, n in enumerate(nodes)}
    for node in nodes:
        for parent in node._parents:
            if parent.requires_grad:
                assert pos[id(parent)] < pos[id(node)]
    assert nodes[-1] is loss


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_diamond_graph_gradient(seed):
    # f(x) = sum((x*2) * (x+1)) has d/dx = 4x + 2 regardless of sharing
    rng = np.random.default_rng(seed)
    data = rng.uniform(-2, 2, size=(3,))
    x = tensor(data, requires_grad=True)
    ad.backward(ad.tensor_sum((x * 2.0) * (x + 1.0)))
    assert np.allclose(x.grad, 4 * data + 2, rtol=1e-12)


# op -> (forward over the argument tensors, argument shapes)
CONSTANT_ARG_OPS = {
    "add": (lambda a, b: a + b, [(3, 4), (3, 4)]),
    "sub": (lambda a, b: a - b, [(3, 4), (3, 4)]),
    "mul": (lambda a, b: a * b, [(3, 4), (3, 4)]),
    "maximum": (ad.maximum, [(3, 4), (3, 4)]),
    "matmul": (ad.matmul, [(3, 4), (4, 2)]),
    "add_bias": (ad.add_bias, [(3, 4), (4,)]),
    "conv2d": (lambda x, k: ad.conv2d(x, k, stride=2, padding=1), [(2, 2, 5, 5), (3, 2, 3, 3)]),
    "batchnorm_train": (lambda x, g, b: ad.batchnorm(x, g, b, np.zeros(4), np.ones(4), "train"),
                        [(6, 4), (4,), (4,)]),
    "batchnorm_eval": (lambda x, g, b: ad.batchnorm(x, g, b, np.zeros(4), np.ones(4), "eval"),
                       [(6, 4), (4,), (4,)]),
}


@pytest.mark.parametrize("op,constant", [
    (op, constant) for op, (_, shapes) in CONSTANT_ARG_OPS.items()
    for constant in ([(0,), (1,)] if len(shapes) == 2 else [(1, 2)])])
def test_constant_argument_leaves_other_grads_unchanged(op, constant):
    # a parent without requires_grad gets no grad, and the others get
    # exactly the grads they get when every argument is trainable
    fn, shapes = CONSTANT_ARG_OPS[op]
    rng = np.random.default_rng(23)
    arrays = [_rand(rng, *shape) for shape in shapes]
    w = tensor(_rand(rng, *fn(*map(tensor, arrays)).shape))

    def grads(trainable):
        tensors = [tensor(a, requires_grad=i in trainable) for i, a in enumerate(arrays)]
        ad.backward(ad.tensor_sum(fn(*tensors) * w))
        return [t.grad for t in tensors]

    everything = range(len(arrays))
    full = grads(set(everything))
    partial = grads(set(everything) - set(constant))
    for i in everything:
        if i in constant:
            assert partial[i] is None
        else:
            assert np.array_equal(partial[i], full[i])


# Normwise bound for float32 grads against float64 ones at the same
# inputs: about 840 float32 ulps of the largest gradient entry.
F32_REL_TOL = 1e-4

# op -> (forward over the argument tensors, argument shapes)
FLOAT32_OPS = {
    "conv2d": (lambda x, k: ad.conv2d(x, k, stride=2, padding=1), [(3, 2, 6, 5), (4, 2, 2, 3)]),
    "batchnorm_train": (lambda x, g, b: ad.batchnorm(x, g, b, np.zeros(4), np.ones(4), "train"),
                        [(5, 4, 3, 3), (4,), (4,)]),
    "batchnorm_eval": (lambda x, g, b: ad.batchnorm(x, g, b, np.full(4, 0.3), np.full(4, 2.0),
                                                    "eval"),
                       [(5, 4, 3, 3), (4,), (4,)]),
}


@pytest.mark.parametrize("op", list(FLOAT32_OPS))
def test_float32_grads_keep_dtype_and_match_float64(op):
    fn, shapes = FLOAT32_OPS[op]
    rng = np.random.default_rng(29)
    arrays = [_rand(rng, *shape).astype(np.float32) for shape in shapes]
    w = _rand(rng, *fn(*map(tensor, arrays)).shape).astype(np.float32)

    def grads(dtype):
        tensors = [tensor(a, requires_grad=True, dtype=dtype) for a in arrays]
        ad.backward(ad.tensor_sum(fn(*tensors) * tensor(w, dtype=dtype)))
        return [t.grad for t in tensors]

    for g32, g64 in zip(grads(np.float32), grads(np.float64)):
        assert g32.dtype == np.float32 and g64.dtype == np.float64
        assert np.max(np.abs(g32 - g64)) <= F32_REL_TOL * np.max(np.abs(g64))


def test_dtype_mismatch_raises():
    a = tensor(np.zeros((2, 2)), dtype=np.float32)
    b = tensor(np.zeros((2, 2)), dtype=np.float64)
    with pytest.raises(TypeError, match="dtypes"):
        a + b


def test_composite_chain_grad():
    # conv -> bn -> relu -> gap -> normalize -> weighted sum, all in one graph
    rng = np.random.default_rng(17)
    x = rng.normal(size=(2, 2, 5, 5))
    k = rng.normal(size=(3, 2, 3, 3)) * 0.5
    gamma = rng.uniform(0.8, 1.2, size=3)
    beta = rng.normal(size=3) * 0.1
    w = tensor(rng.normal(size=(2, 3)))

    def f(xt, kt, gt, bt):
        h = ad.conv2d(xt, kt, stride=1, padding=1)
        h = ad.batchnorm(h, gt, bt, np.zeros(3), np.ones(3), "train")
        h = h.relu()
        h = ad.global_avg_pool(h)
        return ad.tensor_sum(ad.l2_normalize(h) * w)
    assert check_grads(f, [x, k, gamma, beta]) < 1


# -- backward rules ---------------------------------------------------


# op -> (forward over the argument tensors, argument shapes)
RULE_OPS = {
    "add": (lambda a, b: a + b, [(3, 4), (3, 4)]),
    "sub": (lambda a, b: a - b, [(3, 4), (3, 4)]),
    "mul": (lambda a, b: a * b, [(3, 4), (3, 4)]),
    "add_scalar": (lambda a: a + 2.0, [(3, 4)]),
    "sub_scalar": (lambda a: a - 2.0, [(3, 4)]),
    "scale": (lambda a: a * 3.0, [(3, 4)]),
    "maximum": (ad.maximum, [(3, 4), (3, 4)]),
    "relu": (ad.relu, [(2, 3, 4, 5)]),
    "matmul": (ad.matmul, [(3, 4), (4, 2)]),
    "add_bias": (ad.add_bias, [(3, 4), (4,)]),
    "sum": (ad.tensor_sum, [(3, 4)]),
    "l2_normalize": (ad.l2_normalize, [(3, 4)]),
    "batchnorm_train": (lambda x, g, b: ad.batchnorm(x, g, b, np.zeros(3), np.ones(3), "train"),
                        [(4, 3, 2, 2), (3,), (3,)]),
    "batchnorm_eval": (lambda x, g, b: ad.batchnorm(x, g, b, np.zeros(4), np.ones(4), "eval"),
                       [(6, 4), (4,), (4,)]),
    "conv2d_padded": (lambda x, k: ad.conv2d(x, k, stride=2, padding=1),
                      [(2, 2, 5, 5), (3, 2, 3, 3)]),
    "conv2d": (lambda x, k: ad.conv2d(x, k), [(2, 2, 5, 4), (3, 2, 2, 3)]),
    "global_avg_pool": (ad.global_avg_pool, [(2, 3, 4, 5)]),
    "softmax_cross_entropy": (lambda x: ad.softmax_cross_entropy(x, np.array([0, 2, 1])),
                              [(3, 4)]),
}


@pytest.mark.parametrize("op", list(RULE_OPS))
def test_rules_never_write_g_and_return_g_or_dense_arrays(op):
    # backward hands a node's only gradient to its rule as it is, and the
    # same array may reach several rules: a rule must not write into it,
    # and must not return a view whose layout a copy would change
    fn, shapes = RULE_OPS[op]
    rng = np.random.default_rng(37)
    out = fn(*(tensor(_rand(rng, *shape), requires_grad=True) for shape in shapes))
    g = np.asarray(_rand(rng, *out.shape))
    g.flags.writeable = False  # a write raises
    for pg in out._backward_fn(g):
        assert pg is g or np.array(pg, copy=True).strides == np.asarray(pg).strides, op


def test_conv2d_dx_of_a_padded_call_is_dense():
    out = ad.conv2d(tensor(np.ones((2, 3, 6, 6)), requires_grad=True),
                    tensor(np.ones((4, 3, 3, 3))), stride=2, padding=1)
    dx, dk = out._backward_fn(np.ones(out.shape))
    assert dk is None and dx.flags.c_contiguous and dx.base is None


# -- the backward sweep -----------------------------------------------


def _dag(spec, dtype):
    """(leaves, loss) of the random graph `spec` describes, built afresh.

    The graph starts from [3, 4] leaves, some trainable, and four shared
    parameter leaves; each op reads one or two earlier nodes by index, so
    subexpressions and leaves get several consumers. The loss sums every
    op output, each scaled by its own constant."""
    rng = np.random.default_rng(spec["seed"])
    leaves = [tensor(rng.uniform(-1, 1, (3, 4)).astype(dtype), requires_grad=flag)
              for flag in spec["trainable"]]
    w = tensor(rng.uniform(-1, 1, (4, 4)).astype(dtype), requires_grad=True)
    bias, gamma, beta = (tensor(rng.uniform(0.5, 1.5, 4).astype(dtype), requires_grad=True)
                         for _ in range(3))
    ops = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "square": lambda a, b: a * a,
        "scale": lambda a, b: a * 0.75,
        "maximum": ad.maximum,
        "relu": lambda a, b: ad.relu(a),
        "detached": lambda a, b: a * b.detach(),
        "l2_normalize": lambda a, b: ad.l2_normalize(a),
        "matmul": lambda a, b: ad.matmul(a, w),
        "add_bias": lambda a, b: ad.add_bias(a, bias),
        "batchnorm": lambda a, b: ad.batchnorm(a, gamma, beta, np.zeros(4, dtype),
                                               np.ones(4, dtype), "train"),
    }
    nodes = list(leaves)
    for op, i, j in spec["ops"]:
        nodes.append(ops[op](nodes[i % len(nodes)], nodes[j % len(nodes)]))
    loss = None
    for node in nodes[len(leaves):]:
        term = ad.tensor_sum(node) * float(rng.uniform(0.5, 2.0))
        loss = term if loss is None else loss + term
    return leaves + [w, bias, gamma, beta], loss


DAG_SPECS = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "trainable": st.lists(st.booleans(), min_size=1, max_size=4),
    "ops": st.lists(st.tuples(st.sampled_from(["add", "sub", "mul", "square", "scale",
                                               "maximum", "relu", "detached",
                                               "l2_normalize", "matmul", "add_bias",
                                               "batchnorm"]),
                              st.integers(0, 63), st.integers(0, 63)),
                    min_size=1, max_size=14),
})


@given(DAG_SPECS, st.sampled_from([np.float32, np.float64]))
@settings(max_examples=60, deadline=None)
def test_backward_gives_the_serial_sweeps_bits(spec, dtype):
    want_leaves, want_loss = _dag(spec, dtype)
    serial_backward(want_loss)
    leaves, loss = _dag(spec, dtype)
    ad.backward(loss)
    got = [t.grad for t in leaves]
    for g, ref in zip(got, (t.grad for t in want_leaves)):
        assert (g is None) == (ref is None)
        if g is not None:
            assert g.dtype == ref.dtype and g.tobytes() == ref.tobytes()
            assert g.flags.writeable
    owned = [g for g in got if g is not None]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(owned) for b in owned[i + 1:])


def test_backward_drops_each_rule_and_refuses_a_second_sweep():
    x = tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = x * 3.0
    loss = ad.tensor_sum(y * y)
    ad.backward(loss)
    assert all(node._backward_fn is None and node._parents == () for node in (y, loss))
    with pytest.raises(RuntimeError, match="already swept"):
        ad.backward(loss)


class RuleFault(Exception):
    pass


def _probe_op(x, rule):
    """x unchanged, with backward rule `rule`."""
    return Tensor(x.data, requires_grad=True, _parents=(x,), _backward_fn=rule, _op="probe")


def test_a_rule_that_raises_leaves_every_grad_as_it_was():
    raised = []

    def fails(g):
        raised.append(g)
        raise RuleFault("in a rule")

    for failing_first in (True, False):
        a = tensor(np.ones(3), requires_grad=True)
        b = tensor(np.ones(3), requires_grad=True)
        a.grad, b.grad = np.full(3, 5.0), None
        kept = a.grad
        terms = [ad.tensor_sum(_probe_op(b, fails)), ad.tensor_sum(a * 2.0)]
        if not failing_first:
            terms.reverse()
        with pytest.raises(RuleFault, match="in a rule"):
            ad.backward(terms[0] + terms[1])
        assert a.grad is kept and np.array_equal(kept, np.full(3, 5.0)) and b.grad is None
    assert len(raised) == 2


def test_backward_runs_every_rule_on_the_calling_thread(monkeypatch):
    ran_on = []

    def traced(rule):
        def run(g):
            ran_on.append(threading.current_thread())
            return rule(g)
        return run

    class NoPool:
        def submit(self, *args, **kwargs):
            raise AssertionError("backward submitted to the pool")

    monkeypatch.setattr(ad, "_POOL", NoPool())
    a = tensor(np.ones(3), requires_grad=True)
    b = tensor(np.ones(3), requires_grad=True)
    loss = ad.tensor_sum(a * 2.0) + ad.tensor_sum(b * 3.0)  # the root readies both sums
    nodes = [node for node in ad.Graph(loss) if node._backward_fn is not None]
    for node in nodes:
        node._backward_fn = traced(node._backward_fn)
    ad.backward(loss)
    assert ran_on == [threading.current_thread()] * len(nodes) and len(nodes) == 5
    assert np.array_equal(a.grad, np.full(3, 2.0)) and np.array_equal(b.grad, np.full(3, 3.0))
