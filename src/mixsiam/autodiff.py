"""Define-by-run reverse-mode autodiff over dense numpy arrays.

Every numeric operation used by the model, losses and probes lives here,
and so does the package's one thread pool (`thread_pool`). The graph is
rebuilt on every forward pass; `backward` walks it once in reverse
topological order, runs each node's rule once and frees what the rule
kept. Every kernel is a plain numpy call, and every gradient is summed in
one fixed order, so results are bitwise reproducible run to run, on any
number of threads.

Op contract: an op records its parents and a backward rule `bw(g)`, a pure
function of the upstream gradient `g` that returns one gradient per parent,
in parent order, with `None` for a gradient it does not compute. A rule
never writes into `g`. A returned array is `g` itself or a dense array
(fresh, or a contiguous reshape of one), never a broadcast or a strided
view: `backward` hands a node's only gradient to its rule as it is, and
accumulates several onto a copy.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ShapeError

# Numeric constants shared by every run.
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

    def detach(self):
        return detach(self)


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


_POOL = None  # the package's one thread pool, made on first use


def thread_pool():
    """The package's one thread pool, shared by every caller of `on_pool`:
    one worker per CPU this process may run on (`taskset` and cpusets
    restrict it). `concurrent.futures` loads here, not at import."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            workers = os.cpu_count() or 1
        _POOL = ThreadPoolExecutor(max_workers=workers)
    return _POOL


def on_pool(fn, items):
    """[fn(item) for item in items], the calls run concurrently on the
    thread pool. An exception of any call is raised here, with its own
    type, once every call has ended."""
    from concurrent.futures import wait
    futures = [thread_pool().submit(fn, item) for item in items]
    wait(futures)
    return [f.result() for f in futures]


def leaf_grads(root, g):
    """The (leaf, gradient) pairs of one reverse sweep over `Graph(root)`
    from upstream gradient `g`, leaves in the order the sweep reaches them.

    Every consumer of a node comes before it in the reversed graph, so a
    node's gradient is complete when the sweep reaches it. A node's only
    gradient goes to its rule as it is; several are summed in arrival
    order onto a copy of the first. Each leaf's gradient is an array of its
    own. A node's rule and parent links are dropped once the rule has run,
    so the sweep frees what the rule kept; sweeping a graph twice raises
    RuntimeError.
    """
    order = Graph(root)
    grads = {id(root): g}
    summed = set()  # nodes whose gradient is a copy this sweep made
    out = []
    while order:
        node = order.pop()  # the list lets go of each node as it is swept
        key = id(node)
        g = grads.pop(key, None)
        rule, parents = node._backward_fn, node._parents
        if rule is None:
            if node._op != "leaf":
                raise RuntimeError(f"backward: the graph through a {node._op} node"
                                   " was already swept")
            if g is not None:
                out.append((node, g if key in summed else np.array(g, dtype=node.data.dtype)))
            continue
        pgs = rule(g) if g is not None else ()
        node._backward_fn, node._parents = None, ()
        for parent, pg in zip(parents, pgs):
            if pg is None or not parent.requires_grad:
                continue
            pkey = id(parent)
            if pkey not in grads:
                grads[pkey] = np.asarray(pg, dtype=parent.data.dtype)
                continue
            if pkey not in summed:
                grads[pkey] = np.array(grads[pkey], copy=True)
                summed.add(pkey)
            grads[pkey] += pg
    return out


def backward(loss):
    """Populate `grad` on every requires-grad leaf reachable from `loss`,
    by one `leaf_grads` sweep on the calling thread.

    Only leaves (tensors without a backward rule) receive `.grad`,
    assigned once the whole sweep has succeeded: a rule that raises leaves
    every `.grad` as it was. Repeated calls without clearing grads
    accumulate onto it. A `loss` that is itself a leaf receives ones.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    for leaf, g in leaf_grads(loss, np.ones_like(loss.data)):
        leaf.grad = g if leaf.grad is None else leaf.grad + g


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


def relu(a, overwrite_a=False):
    """max(a, 0); NaN propagates, and -0.0 maps to +0.0 as with `where`.

    Backward is branch-free: it multiplies the bits of `g`, as unsigned
    integers, by the 0/1 mask kept from forward, into a buffer laid out
    like `g`. That is the layout (and the bits) `np.where(mask, g, 0)`
    gives, which the batchnorm-backward sums downstream depend on.

    With `overwrite_a`, the result is written into a's own buffer, with or
    without a gradient (backward reads only the mask); the caller gives
    `a` up.
    """
    into = a.data if overwrite_a else None
    if not a.requires_grad:  # no backward will run, so no mask
        return _result(np.maximum(a.data, 0, out=into), (a,), None, "relu")
    mask = a.data > 0
    out = np.maximum(a.data, 0, out=into)
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
    return _result(a.data @ b.data, (a, b),
                   lambda g: (g @ b.data.T if a.requires_grad else None,
                              a.data.T @ g if b.requires_grad else None), "matmul")


def add_bias(x, b):
    """Add a length-D bias row-wise to a [B, D] tensor."""
    if x.data.ndim != 2 or b.data.shape != (x.data.shape[1],):
        raise ShapeError(f"add_bias: shapes {x.data.shape} and {b.data.shape} incompatible")
    return _result(x.data + b.data, (x, b), lambda g: (g, g.sum(axis=0)), "add_bias")


def tensor_sum(a):
    """Sum of all elements, as a scalar tensor."""
    return _result(np.sum(a.data, dtype=a.data.dtype), (a,),
                   lambda g: (np.full(a.data.shape, g, dtype=a.data.dtype),), "sum")


def l2_normalize(x):
    """Divide each row of a [B, D] tensor by max(||row||, L2_NORM_EPS).

    Rows clamped at the floor get a zero gradient (the safe-norm
    subgradient choice). The function is not differentiable there, and
    the one-sided slope 1/L2_NORM_EPS would inject enormous updates
    whenever a row collapses to zero — e.g. a prediction row whose hidden
    units all died at the ReLU, which is exactly the zero bias at
    initialization.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"l2_normalize: expected [B, D], got shape {x.data.shape}")
    eps = x.data.dtype.type(L2_NORM_EPS)
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


def update_running_stats(running_mean, running_var, mu, unbiased_var):
    """Move the running buffers BATCHNORM_MOMENTUM of the way to one train
    batch's mean and unbiased variance, in place."""
    running_mean *= (1.0 - BATCHNORM_MOMENTUM)
    running_mean += BATCHNORM_MOMENTUM * mu.astype(running_mean.dtype)
    running_var *= (1.0 - BATCHNORM_MOMENTUM)
    running_var += BATCHNORM_MOMENTUM * unbiased_var.astype(running_var.dtype)


def batchnorm(x, gamma, beta, running_mean, running_var, mode, overwrite_x=False,
              deferred=None):
    """Batch normalization over a [B, D] or [B, C, H, W] tensor.

    Train mode normalizes with biased batch statistics and updates the
    running buffers through update_running_stats (unbiased variance,
    BATCHNORM_MOMENTUM); given a `deferred` list, it appends that call's
    arguments to it instead, for the caller to apply. Eval mode reads the
    running buffers. `running_mean`/`running_var` are plain numpy arrays,
    not graph tensors. With `overwrite_x`, the centred and scaled input is
    formed in x's own buffer, with or without a gradient (backward keeps
    it and never reads x); the caller gives `x` up.
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

    eps = x.data.dtype.type(BATCHNORM_EPS)
    gview = gamma.data.reshape(pshape)
    bview = beta.data.reshape(pshape)
    no_grad = not (x.requires_grad or gamma.requires_grad or beta.requires_grad)
    into = x.data if overwrite_x else None

    if mode == "train":
        if x.data.shape[0] < 2:
            raise ShapeError(
                f"batchnorm: train mode needs batch size >= 2, got {x.data.shape[0]}"
                " (batch variance undefined)")
        n = 1
        for ax in axes:
            n *= x.data.shape[ax]
        mu = np.mean(x.data, axis=axes, keepdims=True)
        xhat = np.subtract(x.data, mu, out=into)  # centred once; becomes xhat in place below
        var = np.mean(np.square(xhat), axis=axes, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        update = (running_mean, running_var, mu.reshape(-1), var.reshape(-1) * (n / (n - 1)))
        if deferred is None:
            update_running_stats(*update)
        else:
            deferred.append(update)
    else:
        inv_std = 1.0 / np.sqrt(running_var.reshape(pshape).astype(x.data.dtype) + eps)
        xhat = np.subtract(x.data, running_mean.reshape(pshape).astype(x.data.dtype), out=into)
    xhat *= inv_std
    if no_grad:
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


def _tap_reach(t, padding, stride, size, nout):
    """(input slice, output slice) of the output positions at which kernel
    tap `t` reads the unpadded input along one axis, or None if it reads
    only padding there."""
    lo = max(0, -((t - padding) // stride))
    hi = min(nout - 1, (size - 1 + padding - t) // stride)
    if hi < lo:
        return None
    start = t + stride * lo - padding
    return slice(start, start + stride * (hi - lo) + 1, stride), slice(lo, hi + 1)


def conv2d(x, k, stride=1, padding=0):
    """Cross-correlate [B, C, H, W] with kernels [K, C, kh, kw].

    Forward runs as an im2col matmul: the batch is copied into one zeroed,
    padded buffer, laid out as channel-major columns [C, kh, kw, B, hout,
    wout] by kh*kw strided slice copies, and multiplied per sample through
    the [B, N, C*kh*kw] view. The output has the [B, N, K] memory layout of
    a row-per-window im2col, and its bits wherever BLAS packs both operand
    layouts alike. A call that needs no gradient keeps nothing; one that
    does keeps the columns for backward.
    Backward is two GEMMs (the kernel grad against the kept columns as one
    [C*kh*kw, B*N] operand, whose order sets the bits of `dk`; the column
    grads against the kernel) plus a col2im scatter back through the same
    window layout, tap by tap, clipped to the unpadded input: every input
    element gets the sums a padded buffer would, in the same order.
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
    n = hout * wout
    xp = np.zeros((bsz, cin, hp, wp), dtype=x.data.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x.data
    xt = xp.transpose(1, 0, 2, 3)
    cols = np.empty((cin, kh, kw, bsz, hout, wout), dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xt[:, :, i:i + stride * (hout - 1) + 1:stride,
                               j:j + stride * (wout - 1) + 1:stride]
    out = np.matmul(cols.reshape(-1, bsz, n).transpose(1, 2, 0), kmat.T)
    out = out.transpose(0, 2, 1).reshape(bsz, kout, hout, wout)
    if not (x.requires_grad or k.requires_grad):
        return _result(out, (x, k), None, "conv2d")
    cols = cols.reshape(-1, bsz * n)  # [C*kh*kw, B*N]

    def bw(g):
        dx = dk = None
        if k.requires_grad:  # [K, B*N] @ [B*N, C*kh*kw]
            gk = g.reshape(bsz, kout, -1).transpose(1, 0, 2).reshape(kout, -1)
            dk = (gk @ cols.T).reshape(k.data.shape)
        if x.requires_grad:
            # [C*kh*kw, K] @ [B, K, N] is already [B, C, kh, kw, hout, wout]
            dcols = (kmat.T @ g.reshape(bsz, kout, n)).reshape(
                bsz, cin, kh, kw, hout, wout)
            dx = np.zeros(x.data.shape, dtype=x.data.dtype)
            for i in range(kh):
                down = _tap_reach(i, padding, stride, h, hout)
                for j in range(kw):
                    across = _tap_reach(j, padding, stride, w, wout)
                    if down and across:
                        dx[:, :, down[0], across[0]] += dcols[:, :, i, j, down[1], across[1]]
        return dx, dk
    return _result(out, (x, k), bw, "conv2d")


def global_avg_pool(x):
    """Mean over the spatial dims of a [B, C, H, W] tensor -> [B, C]."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: expected 4-d input, got shape {x.data.shape}")
    _, _, h, w = x.data.shape
    scale = x.data.dtype.type(1.0 / (h * w))
    def bw(g):
        dx = np.empty(x.data.shape, dtype=x.data.dtype)
        dx[...] = (g * scale)[:, :, None, None]
        return (dx,)
    return _result(np.mean(x.data, axis=(2, 3)), (x,), bw, "global_avg_pool")


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
