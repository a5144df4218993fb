"""Model construction, forward contracts, and parameter gradients."""

import dataclasses
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import TINY_ENCODER, TINY_PREDICTOR, param_fd_check
from mixsiam import autodiff as ad
from mixsiam import model
from mixsiam.autodiff import Tensor
from mixsiam.errors import ConfigError, ShapeError
from mixsiam.model import ConvStage, EncoderSpec, ModelParams, PredictorSpec, encode, init, predict


def _tiny_params(seed=0):
    return init(TINY_ENCODER, TINY_PREDICTOR, seed=seed)


def _images(rng, n, size=8):
    return rng.uniform(0, 1, size=(n, 3, size, size))


# -- spec validation ----------------------------------------------------


def test_default_spec_keeps_4to1_embed_predictor_ratio():
    enc, pred = EncoderSpec(), PredictorSpec()
    assert enc.embed_dim == 32 and pred.hidden_dim == 8
    assert enc.embed_dim / pred.hidden_dim == 4
    assert len(enc.projector) == 3 and enc.projector[-1] == enc.embed_dim


@pytest.mark.parametrize("kwargs", [
    {"projector": (64, 64)},
    {"projector": (64, 64, 64, 64)},
    {"projector": (64, 64, 0)},
    {"stages": ()},
])
def test_invalid_encoder_spec(kwargs):
    with pytest.raises(ConfigError):
        EncoderSpec(**kwargs)


def test_invalid_stage_and_predictor():
    with pytest.raises(ConfigError):
        ConvStage(channels=0)
    with pytest.raises(ConfigError):
        ConvStage(channels=8, stride=0)
    with pytest.raises(ConfigError):
        PredictorSpec(hidden_dim=0)


def test_embed_dim_is_the_last_projector_width():
    enc = EncoderSpec(projector=(8, 8, 16))
    assert enc.embed_dim == 16
    params = init(enc, TINY_PREDICTOR, seed=0)
    assert params.tensors["predictor.0.w"].shape == (16, 2)
    assert params.tensors["predictor.1.w"].shape == (2, 16)
    assert params.tensors["predictor.1.b"].shape == (16,)


# -- initialization ------------------------------------------------------


def test_init_deterministic_bitwise():
    a, b = _tiny_params(3), _tiny_params(3)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name].data, b.tensors[name].data), name
    c = _tiny_params(4)
    assert not np.array_equal(a.tensors["backbone.0.conv.w"].data,
                              c.tensors["backbone.0.conv.w"].data)


def test_init_values_finite_and_fan_in_scaled():
    params = init(EncoderSpec(), PredictorSpec(), seed=1)
    for name, t in params.named():
        assert np.all(np.isfinite(t.data)), name
    # U(-a, a) with a = 1/sqrt(fan_in) has std a/sqrt(3)
    w = params.tensors["projector.0.w"].data
    fan_in = w.shape[0]
    predicted = 1.0 / np.sqrt(3.0 * fan_in)
    assert predicted / 3 < w.std() < predicted * 3
    k = params.tensors["backbone.1.conv.w"].data
    predicted = 1.0 / np.sqrt(3.0 * k.shape[1] * 9)
    assert predicted / 3 < k.std() < predicted * 3


def test_init_bn_and_bias_values():
    params = _tiny_params()
    assert np.all(params.tensors["backbone.0.bn.gamma"].data == 1.0)
    assert np.all(params.tensors["projector.2.bn.beta"].data == 0.0)
    assert np.all(params.tensors["predictor.1.b"].data == 0.0)
    assert np.all(params.running["backbone.0.bn.mean"] == 0.0)
    assert np.all(params.running["backbone.0.bn.var"] == 1.0)


def test_no_decay_covers_bn_and_biases_only():
    params = _tiny_params()
    for name in params.no_decay:
        assert ".bn." in name or name.endswith(".b")
    decayed = set(params.tensors) - set(params.no_decay)
    assert all(name.endswith(".w") for name in decayed)


def test_init_embeddings_roughly_uncorrelated():
    params = init(EncoderSpec(), PredictorSpec(), seed=5)
    rng = np.random.default_rng(0)
    z = encode(params, _images(rng, 200, 16), "train").data
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    cos = np.sum(zn[0::2] * zn[1::2], axis=1)
    assert abs(float(cos.mean())) < 0.2


# -- forward contracts ----------------------------------------------------


def test_encode_shapes_and_eval_determinism():
    params = _tiny_params()
    rng = np.random.default_rng(1)
    x = _images(rng, 3)
    z = encode(params, x, "eval")
    assert z.shape == (3, 8)
    z2 = encode(params, x, "eval")
    assert np.array_equal(z.data, z2.data)


def test_encode_identical_images_identical_rows():
    params = _tiny_params()
    img = np.random.default_rng(2).uniform(0, 1, size=(3, 8, 8))
    z = encode(params, np.stack([img, img]), "eval").data
    assert np.array_equal(z[0], z[1])


def test_encode_branch_symmetry_bitwise():
    # "branch 1" and "branch 2" are the same function of the same weights
    params = _tiny_params()
    x = _images(np.random.default_rng(3), 4)
    z1 = encode(params, x, "train")
    z2 = encode(params, x, "train")
    assert np.array_equal(z1.data, z2.data)


def test_encode_rejects_singleton_train_batch():
    params = _tiny_params()
    with pytest.raises(ShapeError, match="batch size"):
        encode(params, np.zeros((1, 3, 8, 8)), "train")
    with pytest.raises(ShapeError, match="batch size"):
        predict(params, np.zeros((1, 8)))


def test_encode_not_normalized():
    params = _tiny_params()
    z = encode(params, _images(np.random.default_rng(4), 4), "train").data
    norms = np.linalg.norm(z, axis=1)
    assert not np.allclose(norms, 1.0, atol=1e-3)


def test_predict_shape_and_determinism():
    # the predictor runs in training only: its output reads no running buffer
    params = _tiny_params()
    z = Tensor(np.random.default_rng(5).normal(size=(4, 8)))
    p = predict(params, z)
    assert p.shape == (4, 8)
    assert np.array_equal(p.data, predict(params, z).data)


def test_deferred_running_stat_updates_are_the_serial_ones():
    # with a list, a train-mode encode and predict leave the running
    # buffers alone; applying the listed updates in order gives the bytes
    # the serial calls write
    x = _images(np.random.default_rng(6), 4)
    serial, deferring = _tiny_params(), _tiny_params()
    z = encode(serial, x, "train")
    p = predict(serial, z)
    updates = []
    z_d = encode(deferring, x, "train", updates)
    p_d = predict(deferring, z_d, updates)
    assert np.array_equal(z_d.data, z.data) and np.array_equal(p_d.data, p.data)
    assert all(np.array_equal(buf, init(TINY_ENCODER, TINY_PREDICTOR, seed=0).running[name])
               for name, buf in deferring.running.items())
    assert len(updates) == len(deferring.running) // 2
    for update in updates:
        ad.update_running_stats(*update)
    for name, buf in serial.running.items():
        assert deferring.running[name].tobytes() == buf.tobytes(), name


def test_weight_sharing_by_identity():
    params = _tiny_params()
    x = _images(np.random.default_rng(7), 2)
    before = encode(params, x, "eval").data
    params.tensors["backbone.0.conv.w"].data *= 0.5
    after = encode(params, x, "eval").data
    assert not np.array_equal(before, after)


# -- the forward-only backbone ----------------------------------------------


def _frozen(params):
    """Detached views of the parameter tensors, same buffers."""
    return dataclasses.replace(params, tensors={n: t.detach() for n, t in params.named()})


def _eval_params(dtype, seed=13):
    # eval batchnorm reads the running buffers: give them values init does not
    params = init(EncoderSpec(), PredictorSpec(), seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for name, buf in params.running.items():
        buf[...] = (rng.uniform(0.5, 2.0, buf.shape) if name.endswith(".var")
                    else rng.normal(0.0, 0.2, buf.shape))
    return params


def _full_batch_eval_graph(params, x):
    """Eval-mode encode written out as one full-batch graph pass."""
    h = model._backbone(params, Tensor(x), "eval")
    for j in range(3):
        h = ad.matmul(h, params.tensors[f"projector.{j}.w"])
        h = model._bn(params, f"projector.{j}", h, "eval")
        if j < 2:
            h = ad.relu(h)
    return h


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bsz", [1, 15, 16, 17, 33])
def test_eval_encode_is_forward_only_and_bitwise_the_full_batch_graph(dtype, bsz):
    # blocks of model.CONV_FORWARD_BLOCK samples around the block edges
    params = _eval_params(dtype)
    x = _images(np.random.default_rng(bsz), bsz, 16).astype(dtype)
    graph = _full_batch_eval_graph(params, x)
    blocked = encode(params, x, "eval")
    assert graph.requires_grad and not blocked.requires_grad
    assert not blocked._parents and blocked._backward_fn is None
    assert blocked.data.dtype == dtype and blocked.shape == (bsz, 32)
    assert np.array_equal(blocked.data, graph.data)


def test_forward_only_eval_does_not_depend_on_the_worker_count(monkeypatch):
    params = _eval_params(np.float32)
    x = _images(np.random.default_rng(0), 40, 16).astype(np.float32)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert ad.thread_pool()._max_workers == cpus
    default = encode(params, x, "eval").data
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)  # hand the interpreter between workers often
        for workers in (1, 2 * cpus + 1):
            with ThreadPoolExecutor(max_workers=workers) as other:
                monkeypatch.setattr(ad, "_POOL", other)
                assert np.array_equal(encode(params, x, "eval").data, default), workers
    finally:
        sys.setswitchinterval(interval)


def test_train_mode_without_gradients_updates_running_buffers_as_the_graph_path():
    x = _images(np.random.default_rng(1), 20, 16)
    graph, frozen = _eval_params(np.float64), _eval_params(np.float64)
    z_graph = encode(graph, x, "train").data
    z_frozen = encode(_frozen(frozen), x, "train").data
    assert np.array_equal(z_frozen, z_graph)
    for name, buf in graph.running.items():
        assert np.array_equal(frozen.running[name], buf), name


def test_forward_only_eval_raises_a_workers_shape_error(monkeypatch):
    raised_in = []
    conv2d = ad.conv2d

    def recording_conv2d(*args, **kwargs):
        try:
            return conv2d(*args, **kwargs)
        except ShapeError:
            raised_in.append(threading.current_thread())
            raise
    monkeypatch.setattr(ad, "conv2d", recording_conv2d)
    params = _eval_params(np.float64)
    with pytest.raises(ShapeError, match="conv2d"):
        encode(params, np.zeros((20, 4, 8, 8)), "eval")
    assert raised_in and threading.main_thread() not in raised_in


# -- parameter gradients ---------------------------------------------------


def test_encode_param_grads_match_fd():
    params = _tiny_params(seed=11)
    x = np.random.default_rng(8).uniform(0, 1, size=(2, 3, 8, 8))
    w = Tensor(np.random.default_rng(9).normal(size=(2, 8)))

    def forward():
        return ad.tensor_sum(encode(params, x, "train") * w)
    names = [n for n in params.tensors if not n.startswith("predictor")]
    sub = ModelParams(tensors={n: params.tensors[n] for n in names},
                      running=params.running, no_decay=params.no_decay,
                      encoder=params.encoder, predictor=params.predictor)
    assert param_fd_check(sub, forward) < 1


def test_predict_param_grads_match_fd():
    params = _tiny_params(seed=12)
    z = np.random.default_rng(10).normal(size=(4, 8))
    w = Tensor(np.random.default_rng(11).normal(size=(4, 8)))

    def forward():
        return ad.tensor_sum(predict(params, Tensor(z)) * w)
    names = [n for n in params.tensors if n.startswith("predictor")]
    for n in params.tensors:
        if n not in names:
            params.tensors[n].requires_grad = False  # freeze unused branch
    sub = ModelParams(tensors={n: params.tensors[n] for n in names},
                      running=params.running, no_decay=params.no_decay,
                      encoder=params.encoder, predictor=params.predictor)
    assert param_fd_check(sub, forward) < 1
