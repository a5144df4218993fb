"""Shared numeric oracles for the test suite.

The central-difference checker here is the ground truth that every
backward pass in the package is judged against: float64 throughout,
step 1e-5, relative error below 1e-4 (absolute 1e-7 when the reference
gradient is ~0).

`serial_backward` is an independently written reverse sweep over one
whole graph: the bitwise oracle of `autodiff.backward` and of a train
step, whose branches are swept apart on the thread pool;
`finishes_within` bounds how long a test waits on threaded code.

`tiny_config` is the small float64 training config shared by the trainer,
probe and CLI tests; TINY_ENCODER and TINY_PREDICTOR are its model, at the
scale where every finite-difference probe stays cheap. `batch_step` is a
train step on one batch of records, whose views it makes first. `tensor`
builds a leaf Tensor from any array-like, which only the tests need.
"""

import threading

import numpy as np

from mixsiam import train as train_module
from mixsiam.augment import AugmentConfig
from mixsiam.autodiff import Graph, Tensor, backward
from mixsiam.model import ConvStage, EncoderSpec, PredictorSpec
from mixsiam.train import DatasetConfig, TrainConfig

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_TOL = 1e-7

TINY_ENCODER = EncoderSpec(stages=(ConvStage(4, 2), ConvStage(8, 2)), projector=(8, 8, 8))
TINY_PREDICTOR = PredictorSpec(hidden_dim=2)


def tensor(data, requires_grad=False, dtype=None):
    """Leaf tensor; copies/casts only when `dtype` demands it."""
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=requires_grad)


def serial_backward(loss):
    """One reverse sweep over `Graph(loss)` on this thread: a node's
    gradient is complete when the sweep reaches it, the first gradient to
    arrive is copied (cast to the node's dtype) and later ones are added
    into the copy, and leaves get `.grad` as they are reached. Leaves the
    graph as it found it."""
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
            else:
                grads[key] = np.array(pg, dtype=parent.data.dtype, copy=True)


def finishes_within(seconds, fn, *args):
    """fn(*args) on a thread of its own: its result, or its exception
    raised here. Fails the test when fn is still running after `seconds`."""
    outcome = {}

    def target():
        try:
            outcome["result"] = fn(*args)
        except BaseException as exc:  # re-raised on the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{fn.__name__} still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def numeric_grad(f, x, step=FD_STEP):
    """Central-difference gradient of scalar-valued f at float64 array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = float(f(x))
        flat[i] = keep - step
        lo = float(f(x))
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * step)
    return g


def grad_gap(analytic, numeric):
    """Worst-case discrepancy: relative where the reference is sizable,
    absolute where it vanishes. Pass means `gap < 1`."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.abs(numeric)
    rel = np.abs(analytic - numeric) / np.maximum(scale, 1e-30)
    abs_err = np.abs(analytic - numeric)
    gap = np.where(scale > 1e-3, rel / REL_TOL, abs_err / ABS_TOL)
    return float(np.max(gap)) if gap.size else 0.0


def param_fd_check(params, forward, step=FD_STEP):
    """Check autodiff grads of `forward() -> scalar Tensor` against central
    differences for every model parameter, perturbing buffers in place.
    Returns the worst gap (pass < 1)."""
    loss = forward()
    backward(loss)
    worst = 0.0
    for name, t in params.tensors.items():
        assert t.grad is not None, f"{name} received no gradient"
        flat = t.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = float(forward().data)
            flat[i] = keep - step
            lo = float(forward().data)
            flat[i] = keep
            num[i] = (hi - lo) / (2.0 * step)
        worst = max(worst, grad_gap(t.grad.reshape(-1), num))
    return worst


def check_grads(f, arrays, step=FD_STEP):
    """Compare autodiff grads of scalar `f(*tensors)` against central
    differences for every input array. Returns the worst gap (pass < 1)."""
    tensors = [tensor(np.asarray(a, dtype=np.float64), requires_grad=True) for a in arrays]
    out = f(*tensors)
    backward(out)
    worst = 0.0
    for i, t in enumerate(tensors):
        def scalar_f(x, i=i):
            probe = [np.array(a, dtype=np.float64) for a in arrays]
            probe[i] = x
            probe_t = [tensor(p) for p in probe]
            return f(*probe_t).data
        num = numeric_grad(scalar_f, np.asarray(arrays[i], dtype=np.float64), step=step)
        assert t.grad is not None, f"input {i} received no gradient"
        worst = max(worst, grad_gap(t.grad, num))
    return worst


def tiny_config(**overrides):
    base = dict(
        dataset=DatasetConfig(classes=2, per_class=6, size=8, seed=5),
        encoder=TINY_ENCODER,
        predictor=TINY_PREDICTOR,
        augment=AugmentConfig(output_size=8, seed=11),
        batch_size=4,
        epochs=2,
        seed=11,
        precision=64,
    )
    base.update(overrides)
    return TrainConfig(**base)


def batch_step(state, batch, cfg, total_steps):
    """`train_step` on the views that `train.make_triplet` (looked up at
    each call) makes of `batch` for `state.epoch`: the step's metrics."""
    views = train_module.make_triplet(batch, cfg.augment, cfg.lambda_mix, state.epoch, cfg.dtype)
    return train_module.train_step(state, views, cfg, total_steps)[0]


def identity_config(output_size, seed=0):
    """All stochastic stages off: augment_view == bilinear resize."""
    return AugmentConfig(crop_scale_range=(1.0, 1.0), output_size=output_size,
                         hflip_prob=0.0, jitter_prob=0.0, grayscale_prob=0.0,
                         blur_prob=0.0, aspect_ratio_range=(1.0, 1.0), seed=seed)
