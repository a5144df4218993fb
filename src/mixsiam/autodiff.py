"""Define-by-run reverse-mode autodiff over dense numpy arrays.

Every numeric operation used by the model, losses and probes lives here.
The graph is rebuilt on every forward pass and garbage-collected once the
loss tensor is dropped; `backward` walks it exactly once in reverse
topological order. All kernels are plain single-threaded numpy calls, so
results are bitwise reproducible run to run.

Op contract: an op records its parents and a backward rule `bw(g)`, a pure
function of the upstream gradient `g` that returns one gradient per parent,
in parent order, with `None` for a gradient it does not compute. Returned
arrays may be views (of `g`, or broadcasts); `backward` is the one place
that accumulates them onto the parents.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

# Config-visible numeric constants (see also TrainConfig.precision).
L2_NORM_EPS = 1e-12
BATCHNORM_EPS = 1e-5
BATCHNORM_MOMENTUM = 0.1

DTYPES = {32: np.float32, 64: np.float64}


class Tensor:
    """Dense n-d value recorded in a differentiation graph.

    `data` is the flat row-major numpy buffer (viewed with its shape),
    `grad` is populated by `backward` only for tensors with
    `requires_grad=True`; everything else stays grad-free.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad=False, _parents=(), _backward_fn=None, _op="leaf"):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- sugar ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def relu(self):
        return relu(self)

    def sum(self):
        return tensor_sum(self)

    def detach(self):
        return detach(self)

    def backward(self):
        backward(self)


def tensor(data, requires_grad=False, dtype=None):
    """Leaf tensor; copies/casts only when `dtype` demands it."""
    arr = np.asarray(data, dtype=dtype)
    return Tensor(arr, requires_grad=requires_grad)


def _result(data, parents, backward_fn, op):
    # Outputs that cannot carry gradient drop their parent links, which
    # prunes constant subgraphs (and is what makes detach exact).
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _backward_fn=backward_fn, _op=op)
    return Tensor(data, requires_grad=False, _op=op)


def _as_pair(a, b, op):
    """Coerce `b` to a same-shape tensor or a scalar of `a`'s dtype."""
    if isinstance(b, Tensor):
        if a.data.shape != b.data.shape:
            raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")
        if a.data.dtype != b.data.dtype:
            raise TypeError(f"{op}: dtypes {a.data.dtype} and {b.data.dtype} differ")
        return b, False
    return a.data.dtype.type(b), True


def Graph(root):
    """The ops reachable from `root` that carry gradient, parents first.

    Recording order is a valid forward order; one backward sweep over the
    reversed list visits each node exactly once.
    """
    nodes = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            nodes.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return nodes


def backward(loss):
    """Populate `grad` on every requires-grad leaf reachable from `loss`.

    One reverse sweep: every consumer of a node comes before it in
    reverse topological order, so a node's gradient is complete when the
    sweep reaches it and is dropped once passed on to its parents. Only
    leaves (tensors without a backward rule) receive `.grad`; repeated
    calls without clearing grads accumulate onto it.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(Graph(loss)):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward_fn is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] += pg
            else:  # copy: a rule may return a view of `g` or a broadcast
                grads[key] = np.array(pg, dtype=parent.data.dtype, copy=True)


# -- elementwise ------------------------------------------------------


def add(a, b):
    b, scalar = _as_pair(a, b, "add")
    if scalar:
        return _result(a.data + b, (a,), lambda g: (g,), "add")
    return _result(a.data + b.data, (a, b), lambda g: (g, g), "add")


def sub(a, b):
    b, scalar = _as_pair(a, b, "sub")
    if scalar:
        return _result(a.data - b, (a,), lambda g: (g,), "sub")
    return _result(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def mul(a, b):
    """Elementwise product, or scale-by-constant when `b` is a scalar."""
    b, scalar = _as_pair(a, b, "mul")
    if scalar:
        return _result(a.data * b, (a,), lambda g: (g * b,), "scale")
    return _result(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data), "mul")


def maximum(a, b):
    """Elementwise max; on exact ties the gradient goes to `a` (the first
    argument), so the two argument grads always sum to the incoming one."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"maximum: shapes {a.data.shape} and {b.data.shape} differ")
    first = a.data >= b.data
    return _result(np.where(first, a.data, b.data), (a, b),
                   lambda g: (np.where(first, g, 0), np.where(first, 0, g)), "maximum")


def relu(a):
    """max(a, 0); NaN propagates, and -0.0 maps to +0.0 as with `where`.

    Backward is branch-free: it multiplies the bits of `g`, as unsigned
    integers, by the 0/1 mask kept from forward, into a buffer laid out
    like `g`. That is the layout (and the bits) `np.where(mask, g, 0)`
    gives, which the batchnorm-backward sums downstream depend on.
    """
    out = np.maximum(a.data, 0)
    if not a.requires_grad:  # no backward will run, so no mask
        return _result(out, (a,), None, "relu")
    mask = a.data > 0
    bits = np.dtype(f"u{a.data.dtype.itemsize}")

    def bw(g):
        dx = np.empty_like(g)
        np.multiply(g.view(bits), mask, out=dx.view(bits))
        return (dx,)
    return _result(out, (a,), bw, "relu")


def detach(a):
    """Value-identical leaf: shares `a`'s buffer, blocks all gradient flow."""
    return Tensor(a.data, requires_grad=False, _op="detach")


# -- linear algebra ---------------------------------------------------


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: shapes {a.data.shape} and {b.data.shape} incompatible")
    return _result(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g), "matmul")


def add_bias(x, b):
    """Add a length-D bias row-wise to a [B, D] tensor."""
    if x.data.ndim != 2 or b.data.shape != (x.data.shape[1],):
        raise ShapeError(f"add_bias: shapes {x.data.shape} and {b.data.shape} incompatible")
    return _result(x.data + b.data, (x, b), lambda g: (g, g.sum(axis=0)), "add_bias")


def tensor_sum(a):
    """Sum of all elements, as a scalar tensor."""
    return _result(np.sum(a.data, dtype=a.data.dtype), (a,),
                   lambda g: (np.broadcast_to(g, a.data.shape),), "sum")


def l2_normalize(x, eps=L2_NORM_EPS):
    """Divide each row of a [B, D] tensor by max(||row||, eps).

    Rows clamped at the floor get a zero gradient (the safe-norm
    subgradient choice). The function is not differentiable there, and
    the one-sided slope 1/eps would inject enormous updates whenever a
    row collapses to zero — e.g. a prediction row whose hidden units all
    died at the ReLU, which is exactly the zero bias at initialization.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"l2_normalize: expected [B, D], got shape {x.data.shape}")
    eps = x.data.dtype.type(eps)
    norms = np.sqrt(np.sum(x.data * x.data, axis=1, keepdims=True))
    denom = np.maximum(norms, eps)
    y = x.data / denom
    active = norms >= eps  # rows where the norm (first max argument) won

    def bw(g):
        rowdot = np.sum(g * y, axis=1, keepdims=True)
        zero = x.data.dtype.type(0)
        return (np.where(active, (g - y * rowdot) / denom, zero),)
    return _result(y, (x,), bw, "l2_normalize")


# -- normalization ----------------------------------------------------


def batchnorm(x, gamma, beta, running_mean, running_var, mode,
              momentum=BATCHNORM_MOMENTUM, eps=BATCHNORM_EPS):
    """Batch normalization over a [B, D] or [B, C, H, W] tensor.

    Train mode normalizes with biased batch statistics and updates the
    running buffers in place (unbiased variance, momentum as given); eval
    mode reads the running buffers. `running_mean`/`running_var` are plain
    numpy arrays, not graph tensors.
    """
    nd = x.data.ndim
    if nd == 2:
        axes, pshape = (0,), (1, -1)
    elif nd == 4:
        axes, pshape = (0, 2, 3), (1, -1, 1, 1)
    else:
        raise ShapeError(f"batchnorm: expected 2-d or 4-d input, got shape {x.data.shape}")
    nfeat = x.data.shape[1]
    if gamma.data.shape != (nfeat,) or beta.data.shape != (nfeat,):
        raise ShapeError(
            f"batchnorm: gamma/beta shapes {gamma.data.shape}/{beta.data.shape}"
            f" do not match {nfeat} features")
    if mode not in ("train", "eval"):
        raise ValueError(f"batchnorm: unknown mode {mode!r}")

    eps = x.data.dtype.type(eps)
    gview = gamma.data.reshape(pshape)
    bview = beta.data.reshape(pshape)

    if mode == "train":
        if x.data.shape[0] < 2:
            raise ShapeError(
                f"batchnorm: train mode needs batch size >= 2, got {x.data.shape[0]}"
                " (batch variance undefined)")
        n = 1
        for ax in axes:
            n *= x.data.shape[ax]
        mu = np.mean(x.data, axis=axes, keepdims=True)
        xhat = x.data - mu  # centred once; becomes xhat in place below
        var = np.mean(np.square(xhat), axis=axes, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mu.reshape(-1).astype(running_mean.dtype)
        unbiased = var.reshape(-1) * (n / (n - 1))
        running_var *= (1.0 - momentum)
        running_var += momentum * unbiased.astype(running_var.dtype)
    else:
        inv_std = 1.0 / np.sqrt(running_var.reshape(pshape).astype(x.data.dtype) + eps)
        xhat = x.data - running_mean.reshape(pshape).astype(x.data.dtype)
    xhat *= inv_std
    if not (x.requires_grad or gamma.requires_grad or beta.requires_grad):
        xhat *= gview  # no backward will read xhat: finish in place
        xhat += bview
        return _result(xhat, (x, gamma, beta), None, "batchnorm")
    out = gview * xhat
    out += bview

    def bw(g):
        dbeta = np.sum(g, axis=axes)
        dgamma = np.sum(g * xhat, axis=axes)
        scale = gview * inv_std
        if mode == "train":  # the batch statistics depend on x too
            # gamma*inv_std*(g - dbeta/n - xhat*dgamma/n), subtracted in this
            # order: criterion 2 of tests/test_acceptance.py sees the rounding
            dx = g - (dbeta / n).reshape(pshape)
            dx -= xhat * (dgamma / n).reshape(pshape)
            dx *= scale
        else:
            dx = g * scale
        return dx, dgamma, dbeta
    return _result(out, (x, gamma, beta), bw, "batchnorm")


# -- convolution ------------------------------------------------------


def conv2d(x, k, stride=1, padding=0):
    """Cross-correlate [B, C, H, W] with kernels [K, C, kh, kw].

    Forward runs as an im2col matmul. The columns are built channel-major,
    [C, kh, kw, B, hout, wout], by kh*kw strided slice copies; the GEMM
    reads them through the per-sample [B, N, C*kh*kw] view, so the output
    has the [B, N, K] memory layout of a row-per-window im2col, and its
    bits wherever BLAS packs both operand layouts alike. Backward is two
    GEMMs (the kernel grad against the saved columns as one [C*kh*kw, B*N]
    operand, the column grads against the kernel) plus a col2im scatter
    back through the same window layout. When neither input needs a
    gradient, `_conv2d_forward_only` gives the same bits faster and keeps
    nothing; training keeps the channel-major columns, because the
    summation order of `dk` depends on them.
    """
    if x.data.ndim != 4 or k.data.ndim != 4 or x.data.shape[1] != k.data.shape[1]:
        raise ShapeError(f"conv2d: shapes {x.data.shape} and {k.data.shape} incompatible")
    bsz, cin, h, w = x.data.shape
    kout, _, kh, kw = k.data.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    if hp < kh or wp < kw:
        raise ShapeError(
            f"conv2d: padded input {hp}x{wp} smaller than kernel {kh}x{kw}")
    hout = (hp - kh) // stride + 1
    wout = (wp - kw) // stride + 1

    kmat = k.data.reshape(kout, -1)
    if not (x.requires_grad or k.requires_grad):
        out = _conv2d_forward_only(x.data, kmat, kh, kw, stride, padding, hout, wout)
        return _result(out, (x, k), None, "conv2d")
    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x.data
    xt = xp.transpose(1, 0, 2, 3)
    cols = np.empty((cin, kh, kw, bsz, hout, wout), dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xt[:, :, i:i + stride * (hout - 1) + 1:stride,
                               j:j + stride * (wout - 1) + 1:stride]
    cols = cols.reshape(-1, bsz * hout * wout)  # [C*kh*kw, B*N]
    out = (cols.reshape(-1, bsz, hout * wout).transpose(1, 2, 0) @ kmat.T
           ).transpose(0, 2, 1).reshape(bsz, kout, hout, wout)

    def bw(g):
        dxp = dk = None
        if k.requires_grad:  # [K, B*N] @ [B*N, C*kh*kw]
            gk = g.reshape(bsz, kout, -1).transpose(1, 0, 2).reshape(kout, -1)
            dk = (gk @ cols.T).reshape(k.data.shape)
        if x.requires_grad:
            # [C*kh*kw, K] @ [B, K, N] is already [B, C, kh, kw, hout, wout]
            dcols = (kmat.T @ g.reshape(bsz, kout, hout * wout)).reshape(
                bsz, cin, kh, kw, hout, wout)
            dxp = np.zeros((bsz, cin, hp, wp), dtype=x.data.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i:i + stride * (hout - 1) + 1:stride,
                        j:j + stride * (wout - 1) + 1:stride] += dcols[:, :, i, j]
            if padding:
                dxp = dxp[:, :, padding:padding + h, padding:padding + w]
        return dxp, dk
    return _result(out, (x, k), bw, "conv2d")


CONV_FORWARD_BLOCK = 16  # samples per padded, sample-major column block


def _conv2d_forward_only(x, kmat, kh, kw, stride, padding, hout, wout):
    """conv2d's output when nothing needs a gradient, with its bits and
    layout, built CONV_FORWARD_BLOCK samples at a time.

    Each block is padded and laid out as sample-major columns
    [b, C, kh, kw, hout, wout], then multiplied while it is still in cache.
    The per-sample GEMM reads its [N, C*kh*kw] operand transposed with
    leading dimension N rather than B*N, in the same summation order, and
    no full-batch column buffer is kept.
    """
    bsz, cin, h, w = x.shape
    n = hout * wout
    blk = min(bsz, CONV_FORWARD_BLOCK)
    xp = np.zeros((blk, cin, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    cols = np.empty((blk, cin, kh, kw, hout, wout), dtype=x.dtype)
    out = np.empty((bsz, n, kmat.shape[0]), dtype=x.dtype)
    for start in range(0, bsz, blk):
        stop = min(start + blk, bsz)
        xb, cb = xp[:stop - start], cols[:stop - start]
        xb[:, :, padding:padding + h, padding:padding + w] = x[start:stop]
        for i in range(kh):
            for j in range(kw):
                cb[:, :, i, j] = xb[:, :, i:i + stride * (hout - 1) + 1:stride,
                                    j:j + stride * (wout - 1) + 1:stride]
        np.matmul(cb.reshape(stop - start, -1, n).transpose(0, 2, 1), kmat.T,
                  out=out[start:stop])
    return out.transpose(0, 2, 1).reshape(bsz, -1, hout, wout)


def global_avg_pool(x):
    """Mean over the spatial dims of a [B, C, H, W] tensor -> [B, C]."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: expected 4-d input, got shape {x.data.shape}")
    _, _, h, w = x.data.shape
    scale = x.data.dtype.type(1.0 / (h * w))
    return _result(np.mean(x.data, axis=(2, 3)), (x,),
                   lambda g: (np.broadcast_to((g * scale)[:, :, None, None], x.data.shape),),
                   "global_avg_pool")


# -- classification head ----------------------------------------------


def softmax_cross_entropy(logits, labels):
    """Mean softmax cross-entropy of [B, K] logits against integer labels."""
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: expected [B, K], got {logits.data.shape}")
    labels = np.asarray(labels)
    bsz = logits.data.shape[0]
    if labels.shape != (bsz,):
        raise ShapeError(f"softmax_cross_entropy: {bsz} rows but {labels.shape} labels")
    z = logits.data - np.max(logits.data, axis=1, keepdims=True)
    expz = np.exp(z)
    sumexp = np.sum(expz, axis=1, keepdims=True)
    logp = z - np.log(sumexp)
    loss = -np.mean(logp[np.arange(bsz), labels], dtype=logits.data.dtype)

    def bw(g):
        dlogits = expz / sumexp
        dlogits[np.arange(bsz), labels] -= 1.0
        return (dlogits * (g / bsz),)
    return _result(np.asarray(loss, dtype=logits.data.dtype), (logits,), bw, "softmax_cross_entropy")
