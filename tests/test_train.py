"""Trainer tests.

The optimizer arithmetic is checked against a hand-stepped oracle that
replays the exact update formula; run() is checked for bitwise determinism,
checkpoint round-trips, and resume-equals-uninterrupted behavior; and the
lam=1 configuration is compared step-for-step against an independently
written two-view reference loop.
"""

import dataclasses
import json
import os
import platform
import stat
import struct
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import augment_oracle as oracle
from conftest import (
    TINY_ENCODER,
    TINY_PREDICTOR,
    batch_step,
    finishes_within,
    serial_backward,
    tiny_config,
    two_view_reference,
)
from mixsiam import autodiff as ad
from mixsiam import train as train_module
from mixsiam.augment import LambdaMixPolicy, make_triplet
from mixsiam.cli import main
from mixsiam.data import SyntheticConfig, batches, make_synthetic
from mixsiam.errors import ConfigError, ParseError, TrainingAborted
from mixsiam.loss import AggregationStrategy, aggregate, mix_loss, siam_loss, total_loss
from mixsiam.model import encode, init, predict
from mixsiam.train import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    METRICS_COLUMNS,
    DatasetConfig,
    TrainConfig,
    TrainState,
    apply_sgd,
    checkpoint_path,
    config_from_dict,
    config_hash,
    config_to_dict,
    cosine_lr,
    embedding_std,
    load_checkpoint,
    metrics_path,
    run,
    save_checkpoint,
)


def read_checkpoint_header(path):
    """The JSON header of a checkpoint file (see save_checkpoint)."""
    with open(path, "rb") as f:
        f.seek(8)
        (hlen,) = struct.unpack("<Q", f.read(8))
        return json.loads(f.read(hlen).decode())


def tiny_dataset(seed=5):
    return make_synthetic(SyntheticConfig(classes=2, per_class=6, size=8, seed=seed))


# -- cosine schedule -------------------------------------------------------


def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 0.05) == 0.05
    assert cosine_lr(100, 100, 0.05) == 0.0
    assert cosine_lr(50, 100, 0.05) == pytest.approx(0.025, abs=1e-12)


def test_cosine_lr_monotone_nonincreasing():
    lrs = [cosine_lr(s, 40, 0.1) for s in range(41)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))
    assert all(lr >= 0.0 for lr in lrs)


def test_cosine_lr_rejects_out_of_range_step():
    with pytest.raises(ConfigError):
        cosine_lr(-1, 10, 0.1)
    with pytest.raises(ConfigError):
        cosine_lr(11, 10, 0.1)


# -- collapse sentinel -----------------------------------------------------


def test_embedding_std_vanishes_for_identical_rows():
    # not exactly zero: the column means round, leaving ~1e-16 of noise
    z = np.tile(np.array([1.0, 2.0, 3.0]), (6, 1))
    assert embedding_std(z) < 1e-15


def test_embedding_std_matches_numpy_recompute():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((32, 8)).astype(np.float32)
    z64 = z.astype(np.float64)
    norms = np.maximum(np.linalg.norm(z64, axis=1, keepdims=True), ad.L2_NORM_EPS)
    want = float((z64 / norms).std(axis=0).mean())
    assert embedding_std(z) == want


def test_embedding_std_zero_rows_are_finite():
    assert embedding_std(np.zeros((4, 8))) == 0.0


@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(2, 12))
@settings(max_examples=30, deadline=None)
def test_embedding_std_bounded_by_isotropic_ceiling(seed, n, d):
    # mean per-dim std of unit rows is at most sqrt(1/d) (Jensen).
    z = np.random.default_rng(seed).standard_normal((n, d))
    assert embedding_std(z) <= 1.0 / np.sqrt(d) + 1e-12


# -- config serialization --------------------------------------------------


def test_config_round_trips_through_dict():
    cfg = tiny_config(
        lam=0.25,
        lambda_mix=LambdaMixPolicy(kind="pick_view", value=0.25),
        aggregation=AggregationStrategy(kind="none"),
        weight_decay=5e-4,
        stop_gradient=False,
    )
    payload = config_to_dict(cfg)
    json.dumps(payload)  # must be a plain JSON document
    assert config_from_dict(payload) == cfg


def test_config_dict_uses_lambda_key():
    payload = config_to_dict(tiny_config(lam=0.75))
    assert payload["lambda"] == 0.75
    assert "lam" not in payload


def test_config_from_empty_dict_is_default():
    assert config_from_dict({}) == TrainConfig()


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown field"):
        config_from_dict({"learning_rate": 0.1})
    with pytest.raises(ConfigError, match="augment"):
        config_from_dict({"augment": {"output_size": 8, "bogus": 1}})
    with pytest.raises(ConfigError):
        config_from_dict([1, 2, 3])


@pytest.mark.parametrize("payload", [
    {"encoder": {"stages": "abc"}},
    {"encoder": {"projector": 5}},
    {"augment": {"crop_scale_range": 0.5}},
])
def test_config_rejects_a_non_list_for_a_tuple_field(payload):
    with pytest.raises(ConfigError, match="expected a list"):
        config_from_dict(payload)


@pytest.mark.parametrize("key, value", [
    ("batch_size", 32.5),
    ("epochs", 1.5),
    ("epochs", True),
    ("dataset.per_class", 10.5),
    ("seed", "x"),
    ("augment.seed", "x"),
    ("augment.output_size", 31.5),
    ("stop_gradient", "no"),
    ("stop_gradient", 0),
    ("lambda", True),
    ("lambda", "0.5"),
    ("aggregation.kind", 3),
    ("encoder.projector", [32, 32.5, 32]),
    ("augment.crop_scale_range", [0.2, "1"]),
    ("encoder.stages", [{"channels": 16.0}]),
    pytest.param("lr_base", 10 ** 400, id="lr_base-int_past_float_range"),
])
def test_config_rejects_a_scalar_of_the_wrong_type(key, value):
    payload = config_to_dict(TrainConfig())
    *parents, leaf = key.split(".")
    node = payload
    for part in parents:
        node = node[part]
    node[leaf] = value
    with pytest.raises(ConfigError, match=rf"config\.{key.replace('.', '[.]')}"):
        config_from_dict(payload)


def test_config_float_field_takes_an_int():
    cfg = config_from_dict({"lambda": 1, "augment": {"blur_sigma_range": [1, 2]}})
    assert cfg.lam == 1 and cfg.augment.blur_sigma_range == (1, 2)
    assert type(cfg.lam) is float and {type(s) for s in cfg.augment.blur_sigma_range} == {float}


@pytest.mark.parametrize("as_int, as_float", [
    ({"lambda": 1}, {"lambda": 1.0}),
    ({"augment": {"crop_scale_range": [1, 1]}}, {"augment": {"crop_scale_range": [1.0, 1.0]}}),
])
def test_an_int_in_a_float_field_hashes_as_the_float(as_int, as_float):
    a, b = config_from_dict(as_int), config_from_dict(as_float)
    assert a == b and config_hash(a) == config_hash(b)
    assert json.dumps(config_to_dict(a)) == json.dumps(config_to_dict(b))


def test_a_config_built_with_an_int_float_field_resumes_under_either_spelling(tmp_path):
    # its checkpoint passes the hash check of the config that wrote it,
    # and of the equal config spelled with a float
    as_int, as_float = tiny_config(lam=1), tiny_config(lam=1.0)
    assert config_hash(as_int) == config_hash(as_float)
    assert json.dumps(config_to_dict(as_int)) == json.dumps(config_to_dict(as_float))
    run(as_int, tiny_dataset(), tmp_path / "first")
    for i, cfg in enumerate((as_int, as_float)):
        state = run(cfg, tiny_dataset(), tmp_path / f"resumed{i}",
                    resume=checkpoint_path(tmp_path / "first", 1))
        assert state.step == 6


_json_scalars = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
                 | st.floats())
_json_values = _json_scalars | st.lists(_json_scalars, max_size=4)


def _paths(node, prefix=()):
    """Every key path into a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


SMALL_CONFIG = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "synthetic_small.json").read_text())


@given(path=st.sampled_from(sorted(_paths(SMALL_CONFIG), key=str)), value=_json_values)
@settings(max_examples=300, deadline=None)
def test_config_with_any_json_value_in_any_field_loads_or_raises_config_error(path, value):
    payload = json.loads(json.dumps(SMALL_CONFIG))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        config_from_dict(payload)
    except ConfigError:
        pass


def test_config_hash_is_stable_and_sensitive():
    a = config_hash(tiny_config())
    b = config_hash(tiny_config())
    c = config_hash(tiny_config(lam=0.75))
    assert a == b
    assert a != c
    assert len(a) == 16
    int(a, 16)  # hex


def test_dataset_config_validation():
    with pytest.raises(ConfigError, match="kind"):
        DatasetConfig(kind="imagenet")
    with pytest.raises(ConfigError, match="dir"):
        DatasetConfig(kind="cifar10").build()
    ds = DatasetConfig(classes=2, per_class=6, size=8, seed=5).build()
    assert len(ds) == 12
    assert ds.class_count == 2


def test_train_config_validation():
    with pytest.raises(ConfigError, match="lambda"):
        tiny_config(lam=1.5)
    with pytest.raises(ConfigError, match="batch_size"):
        tiny_config(batch_size=1)
    with pytest.raises(ConfigError, match="precision"):
        tiny_config(precision=16)
    assert tiny_config().dtype is np.float64
    assert tiny_config(precision=32).dtype is np.float32


# -- batched augmentation against the per-record oracle ---------------------


def oracle_make_triplet(records, cfg, policy, epoch, dtype=np.float64):
    """The views as train_step built them before augmentation was batched:
    one oracle triplet per record, stacked, then cast."""
    trips = [oracle.make_triplet(r, cfg, policy, epoch) for r in records]
    return SimpleNamespace(**{name: np.stack([getattr(t, name) for t in trips]).astype(dtype)
                              for name in ("x1", "x2", "xm")})


@pytest.mark.parametrize("cfg", [
    tiny_config(),
    tiny_config(precision=32, lambda_mix=LambdaMixPolicy(kind="pick_view"),
                dataset=DatasetConfig(classes=2, per_class=5, size=12, seed=3),
                augment=train_module.AugmentConfig(output_size=9, blur_prob=0.9, seed=2)),
], ids=["float64", "float32_odd_size"])
def test_train_steps_match_the_per_record_oracle_views(monkeypatch, cfg):
    ds = cfg.dataset.build()

    def steps():
        state = TrainState.fresh(cfg)
        rows = []
        for epoch in range(2):
            state.epoch = epoch
            for batch in batches(ds, cfg.batch_size, cfg.seed, epoch):
                rows.append(batch_step(state, batch, cfg, total_steps=10).row())
        return rows, {n: t.data.tobytes() for n, t in state.params.named()}

    batched = steps()
    monkeypatch.setattr(train_module, "make_triplet", oracle_make_triplet)
    assert steps() == batched


# -- SGD update oracle -----------------------------------------------------


def synthetic_grads(params, seed):
    rng = np.random.default_rng(seed)
    grads = {}
    for name, t in params.named():
        g = rng.standard_normal(t.data.shape).astype(t.data.dtype)
        t.grad = g.copy()
        grads[name] = g
    return grads


def test_apply_sgd_matches_hand_stepped_oracle():
    params = init(TINY_ENCODER, TINY_PREDICTOR, seed=1, dtype=np.float64)
    velocity = {n: np.zeros_like(t.data) for n, t in params.named()}
    before = {n: t.data.copy() for n, t in params.named()}
    lr, momentum, wd = 0.1, 0.9, 0.01

    grads = synthetic_grads(params, seed=2)
    sq = apply_sgd(params.tensors, velocity, lr, momentum, wd, params.no_decay)

    expected_sq = 0.0
    exp_vel = {}
    for name, t in params.named():
        g = grads[name]
        expected_sq += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
        if name not in params.no_decay:
            g = g + np.float64(wd) * before[name]
        exp_vel[name] = g.copy()  # momentum buffer started at zero
        want = before[name] - np.float64(lr) * g
        assert np.array_equal(t.data, want), name
        assert np.array_equal(velocity[name], exp_vel[name]), name
        assert t.grad is None
    assert sq == expected_sq

    # second step carries the momentum buffer
    mid = {n: t.data.copy() for n, t in params.named()}
    grads2 = synthetic_grads(params, seed=3)
    apply_sgd(params.tensors, velocity, lr, momentum, wd, params.no_decay)
    for name, t in params.named():
        g = grads2[name]
        if name not in params.no_decay:
            g = g + np.float64(wd) * mid[name]
        buf = exp_vel[name]
        buf *= np.float64(momentum)
        buf += g
        assert np.array_equal(t.data, mid[name] - np.float64(lr) * buf), name


def test_apply_sgd_weight_decay_skips_no_decay_params():
    params = init(TINY_ENCODER, TINY_PREDICTOR, seed=1, dtype=np.float64)
    velocity = {n: np.zeros_like(t.data) for n, t in params.named()}
    before = {n: t.data.copy() for n, t in params.named()}
    for _, t in params.named():
        t.grad = np.zeros_like(t.data)
    apply_sgd(params.tensors, velocity, lr=0.5, momentum=0.0, weight_decay=0.1,
              no_decay=params.no_decay)

    decayed = [n for n, _ in params.named() if n not in params.no_decay]
    exempt = [n for n in params.no_decay]
    assert decayed and exempt
    tensors = dict(params.named())
    for name in exempt:
        assert np.array_equal(tensors[name].data, before[name]), name
    for name in decayed:
        want = before[name] - np.float64(0.5) * (np.float64(0.1) * before[name])
        assert np.array_equal(tensors[name].data, want), name


def test_apply_sgd_lr_zero_leaves_params_untouched():
    params = init(TINY_ENCODER, TINY_PREDICTOR, seed=1, dtype=np.float64)
    velocity = {n: np.zeros_like(t.data) for n, t in params.named()}
    before = {n: t.data.copy() for n, t in params.named()}
    synthetic_grads(params, seed=4)
    apply_sgd(params.tensors, velocity, lr=0.0, momentum=0.9, weight_decay=0.01,
              no_decay=params.no_decay)
    for name, t in params.named():
        assert np.array_equal(t.data, before[name]), name
    assert any(np.any(v != 0) for v in velocity.values())  # buffers still advanced


def test_apply_sgd_missing_grads_count_as_zero():
    params = init(TINY_ENCODER, TINY_PREDICTOR, seed=1, dtype=np.float64)
    velocity = {n: np.zeros_like(t.data) for n, t in params.named()}
    before = {n: t.data.copy() for n, t in params.named()}
    sq = apply_sgd(params.tensors, velocity, lr=0.1, momentum=0.9, weight_decay=0.0)
    assert sq == 0.0
    for name, t in params.named():
        assert np.array_equal(t.data, before[name]), name


@pytest.mark.parametrize("which", [0, -1], ids=["first", "last"])
def test_apply_sgd_rejects_non_finite_grad(which):
    # every grad is checked before any tensor moves, and every grad is cleared
    params = init(TINY_ENCODER, TINY_PREDICTOR, seed=1, dtype=np.float64)
    velocity = {n: np.full_like(t.data, 0.5) for n, t in params.named()}
    synthetic_grads(params, seed=5)
    before = [t.data.tobytes() for _, t in params.named()]
    name = list(params.tensors)[which]
    params.tensors[name].grad[(0,) * params.tensors[name].data.ndim] = np.inf
    with pytest.raises(TrainingAborted, match=name.replace(".", r"\.")):
        apply_sgd(params.tensors, velocity, lr=0.1, momentum=0.9, weight_decay=0.0)
    assert [t.data.tobytes() for _, t in params.named()] == before
    assert all(np.all(v == 0.5) for v in velocity.values())
    assert all(t.grad is None for _, t in params.named())


# -- a single training step ------------------------------------------------


def first_batch(ds, cfg):
    return next(iter(batches(ds, cfg.batch_size, cfg.seed, 0)))


def test_train_step_metrics_and_bookkeeping():
    ds = tiny_dataset()
    cfg = tiny_config()
    state = TrainState.fresh(cfg)
    m = batch_step(state, first_batch(ds, cfg), cfg, total_steps=10)

    assert m.step == 0 and m.epoch == 0
    assert state.step == 1
    assert m.lr == cosine_lr(0, 10, cfg.lr_base)
    for value in (m.l_siam, m.l_mix, m.total, m.grad_norm, m.embedding_std):
        assert np.isfinite(value)
    assert -1.0 <= m.l_siam <= 1.0 and -1.0 <= m.l_mix <= 1.0
    assert m.grad_norm > 0


def test_train_step_is_deterministic():
    ds = tiny_dataset()
    cfg = tiny_config()
    runs = []
    for _ in range(2):
        state = TrainState.fresh(cfg)
        runs.append(batch_step(state, first_batch(ds, cfg), cfg, total_steps=10))
    assert runs[0] == runs[1]


def test_train_step_row_round_trips_floats():
    ds = tiny_dataset()
    cfg = tiny_config()
    state = TrainState.fresh(cfg)
    m = batch_step(state, first_batch(ds, cfg), cfg, total_steps=10)
    fields = m.row().split(",")
    assert len(fields) == len(METRICS_COLUMNS)
    assert int(fields[0]) == m.step and int(fields[1]) == m.epoch
    parsed = [float(f) for f in fields[2:]]
    assert parsed == [m.lr, m.l_siam, m.l_mix, m.total, m.grad_norm, m.embedding_std]


def test_train_step_aborts_on_poisoned_params():
    ds = tiny_dataset()
    cfg = tiny_config()
    state = TrainState.fresh(cfg)
    first = next(iter(state.params.tensors.values()))
    first.data[(0,) * first.data.ndim] = np.nan
    with pytest.raises(TrainingAborted, match="non-finite"):
        batch_step(state, first_batch(ds, cfg), cfg, total_steps=10)


def test_collapse_ablation_changes_the_update():
    ds = tiny_dataset()
    batch = first_batch(ds, tiny_config())
    outcomes = {}
    for flag in (True, False):
        cfg = tiny_config(stop_gradient=flag)
        state = TrainState.fresh(cfg)
        m = batch_step(state, batch, cfg, total_steps=10)
        outcomes[flag] = (m, {n: t.data.copy() for n, t in state.params.named()})
    m_on, params_on = outcomes[True]
    m_off, params_off = outcomes[False]
    # same forward values at step 0 (targets only differ in gradient flow)
    assert m_on.l_siam == m_off.l_siam
    assert m_on.l_mix == m_off.l_mix
    # but the updates diverge once target gradients flow
    assert any(not np.array_equal(params_on[n], params_off[n]) for n in params_on)
    assert m_on.grad_norm != m_off.grad_norm


# -- checkpoints -----------------------------------------------------------


def stepped_state(cfg, ds, steps=2):
    state = TrainState.fresh(cfg)
    batch_iter = iter(batches(ds, cfg.batch_size, cfg.seed, 0))
    for _ in range(steps):
        batch_step(state, next(batch_iter), cfg, total_steps=10)
    return state


def assert_states_equal(a, b):
    for (name, ta), (_, tb) in zip(a.params.named(), b.params.named()):
        assert np.array_equal(ta.data, tb.data), name
        assert ta.data.dtype == tb.data.dtype
    for name in a.velocity:
        assert np.array_equal(a.velocity[name], b.velocity[name]), name
    for name in a.params.running:
        assert np.array_equal(a.params.running[name], b.params.running[name]), name
    assert a.step == b.step and a.epoch == b.epoch


@pytest.mark.parametrize("precision", [32, 64])
def test_checkpoint_round_trip_is_bitwise(tmp_path, precision):
    cfg = tiny_config(precision=precision)
    ds = tiny_dataset()
    state = stepped_state(cfg, ds)
    state.epoch = 1
    path = tmp_path / "ckpt.bin"
    save_checkpoint(state, cfg, path)

    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    assert_states_equal(loaded, state)


def test_checkpoint_is_synced_before_and_after_its_rename(tmp_path, monkeypatch):
    # a power loss must not leave a renamed but incomplete checkpoint: the
    # file reaches the disk before the rename, and the rename after it
    calls = []
    fsync, replace = os.fsync, os.replace

    def logged_fsync(fd):
        calls.append(("fsync", "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"))
        fsync(fd)

    def logged_replace(src, dst):
        calls.append(("replace", Path(dst).name))
        replace(src, dst)
    monkeypatch.setattr(os, "fsync", logged_fsync)
    monkeypatch.setattr(os, "replace", logged_replace)
    cfg = tiny_config()
    save_checkpoint(TrainState.fresh(cfg), cfg, tmp_path / "ckpt.bin")
    assert calls == [("fsync", "file"), ("replace", "ckpt.bin"), ("fsync", "dir")]
    assert load_checkpoint(tmp_path / "ckpt.bin")[1] == cfg


def test_checkpoint_header_contents(tmp_path):
    cfg = tiny_config()
    state = stepped_state(cfg, tiny_dataset())
    path = tmp_path / "ckpt.bin"
    save_checkpoint(state, cfg, path)

    header = read_checkpoint_header(path)
    assert header["format_version"] == CHECKPOINT_VERSION
    assert header["config_hash"] == config_hash(cfg)
    assert header["step"] == state.step
    assert "loss_tail" not in header
    assert header["dtype"] == "<f8"
    offset = 0
    itemsize = 8
    for entry in header["arrays"]:
        assert entry["offset"] == offset
        assert entry["nbytes"] == int(np.prod(entry["shape"])) * itemsize
        offset += entry["nbytes"]
    kinds = {e["kind"] for e in header["arrays"]}
    assert kinds == {"param", "velocity", "running"}


def test_checkpoint_rejects_bad_magic(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(TrainState.fresh(cfg), cfg, path)
    blob = path.read_bytes()
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ParseError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(TrainState.fresh(cfg), cfg, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<I", 99) + blob[8:])
    with pytest.raises(ParseError, match="version"):
        load_checkpoint(path)


def rewrite_header(path, mutate):
    with open(path, "rb") as f:
        front = f.read(8)
        (hlen,) = struct.unpack("<Q", f.read(8))
        header = json.loads(f.read(hlen).decode())
        payload = f.read()
    replacement = mutate(header)  # edits in place, or returns a new header
    hbytes = json.dumps(header if replacement is None else replacement,
                        sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(front)
        f.write(struct.pack("<Q", len(hbytes)))
        f.write(hbytes)
        f.write(payload)


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(TrainState.fresh(cfg), cfg, path)

    def swap_first_matrix(header):
        for entry in header["arrays"]:
            shape = entry["shape"]
            if len(shape) == 2 and shape[0] != shape[1]:
                entry["shape"] = shape[::-1]
                return
        raise AssertionError("no rectangular matrix in manifest")

    rewrite_header(path, swap_first_matrix)
    with pytest.raises(ParseError, match="shape"):
        load_checkpoint(path)


HEADER_FAULTS = {
    "not_an_object": lambda h: [],
    "no_config": lambda h: {k: v for k, v in h.items() if k != "config"},
    "step_not_an_int": lambda h: h.update(step="7"),
    "step_negative": lambda h: h.update(step=-1),
    "step_a_bool": lambda h: h.update(step=True),
    "epoch_negative": lambda h: h.update(epoch=-1),
    "epoch_a_bool": lambda h: h.update(epoch=True),
    "unknown_kind": lambda h: h["arrays"][0].update(kind="bogus"),
    "bad_dtype": lambda h: h.update(dtype="zz"),
    "wrong_dtype": lambda h: h.update(dtype="<f4"),
    "arrays_cut": lambda h: h.update(arrays=h["arrays"][:-3]),
    "arrays_reordered": lambda h: h.update(arrays=h["arrays"][::-1]),
    "offset_moved": lambda h: h["arrays"][1].update(offset=h["arrays"][1]["offset"] + 8),
}


@pytest.mark.parametrize("fault", list(HEADER_FAULTS))
def test_checkpoint_rejects_a_manifest_its_config_would_not_write(tmp_path, capsys, fault):
    cfg = tiny_config()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(TrainState.fresh(cfg), cfg, path)
    rewrite_header(path, HEADER_FAULTS[fault])
    with pytest.raises(ParseError):
        load_checkpoint(path)
    assert main(["eval", "--resume", str(path), "--out", str(tmp_path / "eval")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("where", ["magic", "version", "length", "header", "payload"])
def test_checkpoint_rejects_truncated_payload(tmp_path, capsys, where):
    cfg = tiny_config()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(TrainState.fresh(cfg), cfg, path)
    blob = path.read_bytes()
    hlen = struct.unpack("<Q", blob[8:16])[0]
    cut = {"magic": 2, "version": 6, "length": 10, "header": 16 + hlen // 2,
           "payload": len(blob) - 16}[where]
    path.write_bytes(blob[:cut])
    with pytest.raises(ParseError, match="truncated"):
        load_checkpoint(path)
    assert main(["eval", "--resume", str(path), "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert "truncated" in err and "not valid JSON" not in err
    assert err.count(str(path)) == 1
    assert not (tmp_path / "eval").exists()


def test_checkpoint_rejects_trailing_bytes(tmp_path, capsys):
    cfg = tiny_config()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(TrainState.fresh(cfg), cfg, path)
    path.write_bytes(path.read_bytes() + b"\0" * 1000)
    with pytest.raises(ParseError, match="trailing bytes"):
        load_checkpoint(path)
    assert main(["eval", "--resume", str(path), "--out", str(tmp_path / "eval")]) == 2
    assert "trailing bytes" in capsys.readouterr().err


def test_checkpoint_rejects_corrupt_header(tmp_path, capsys):
    cfg = tiny_config()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(TrainState.fresh(cfg), cfg, path)
    blob = bytearray(path.read_bytes())
    blob[16] = 0xFF  # not UTF-8, and not the opening brace of the JSON header
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="not valid JSON"):
        load_checkpoint(path)
    assert main(["eval", "--resume", str(path), "--out", str(tmp_path / "eval")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_checkpoint_with_a_removed_config_key_exits_2(tmp_path, capsys):
    cfg = tiny_config()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(TrainState.fresh(cfg), cfg, path)
    rewrite_header(path, lambda h: h["config"]["lambda_mix"].update(alpha=1.0))
    with pytest.raises(ConfigError, match="alpha"):
        load_checkpoint(path)
    assert main(["eval", "--resume", str(path), "--out", str(tmp_path / "eval")]) == 2
    assert "config.lambda_mix: unknown field(s) ['alpha']" in capsys.readouterr().err


# -- the outer loop ----------------------------------------------------------


def read_metrics(out_dir):
    with open(metrics_path(out_dir)) as f:
        lines = f.read().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == ",".join(METRICS_COLUMNS)
    return lines


def test_run_writes_metrics_and_checkpoints(tmp_path):
    cfg = tiny_config()
    ds = tiny_dataset()
    out = tmp_path / "run"
    state = run(cfg, ds, out)

    lines = read_metrics(out)
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 6  # 12 records / batch 4 = 3 steps x 2 epochs
    assert [int(r[0]) for r in rows] == list(range(6))
    assert [int(r[1]) for r in rows] == [0, 0, 0, 1, 1, 1]
    assert lines[0] == f"# config_hash={config_hash(cfg)}"

    assert os.path.exists(checkpoint_path(out, 1))
    assert os.path.exists(checkpoint_path(out, 2))
    final = os.path.join(out, "ckpt_final.bin")
    header = read_checkpoint_header(final)
    assert header["epoch"] == 2 and header["step"] == 6
    assert state.step == 6
    # final checkpoint is the last epoch checkpoint, byte for byte
    with open(final, "rb") as a, open(checkpoint_path(out, 2), "rb") as b:
        assert a.read() == b.read()


def test_a_fresh_run_deletes_an_earlier_runs_checkpoints(tmp_path):
    out = tmp_path / "run"
    run(tiny_config(epochs=4), tiny_dataset(), out)
    (out / "ckpt_epoch_9.bin.tmp").write_bytes(b"cut short")
    (out / "ckpt_final.bin.tmp").write_bytes(b"cut short")
    (out / "notes.txt").write_text("not a checkpoint")
    cfg = tiny_config(lr_base=0.07)
    run(cfg, tiny_dataset(), out)
    names = sorted(os.listdir(out))
    assert names == ["ckpt_epoch_1.bin", "ckpt_epoch_2.bin", "ckpt_final.bin",
                     "metrics.csv", "notes.txt"]
    for name in names[:3]:
        assert read_checkpoint_header(out / name)["config_hash"] == config_hash(cfg)


def test_run_is_bitwise_deterministic(tmp_path):
    cfg = tiny_config()
    ds = tiny_dataset()
    run(cfg, ds, tmp_path / "a")
    run(cfg, ds, tmp_path / "b")
    with open(metrics_path(tmp_path / "a"), "rb") as fa:
        with open(metrics_path(tmp_path / "b"), "rb") as fb:
            assert fa.read() == fb.read()
    with open(tmp_path / "a" / "ckpt_final.bin", "rb") as fa:
        with open(tmp_path / "b" / "ckpt_final.bin", "rb") as fb:
            assert fa.read() == fb.read()


def test_run_on_metrics_callback_sees_every_step(tmp_path):
    cfg = tiny_config(epochs=1)
    seen = []
    run(cfg, tiny_dataset(), tmp_path / "run", on_metrics=seen.append)
    assert [m.step for m in seen] == [0, 1, 2]


def test_run_rejects_oversized_batch(tmp_path):
    cfg = tiny_config(batch_size=64)
    with pytest.raises(ConfigError, match="batch_size"):
        run(cfg, tiny_dataset(), tmp_path / "run")


def test_resume_matches_uninterrupted_run(tmp_path):
    cfg = tiny_config(epochs=4)
    ds = tiny_dataset()
    full = tmp_path / "full"
    run(cfg, ds, full)

    # replay the back half from the epoch-2 checkpoint
    resumed = tmp_path / "resumed"
    os.makedirs(resumed)
    with open(metrics_path(full)) as f:
        lines = f.read().splitlines()
    kept = lines[:2] + [l for l in lines[2:] if int(l.split(",")[1]) < 2]
    with open(metrics_path(resumed), "w") as f:
        f.write("\n".join(kept) + "\n")
    run(cfg, ds, resumed, resume=checkpoint_path(full, 2))

    with open(metrics_path(full), "rb") as fa:
        with open(metrics_path(resumed), "rb") as fb:
            assert fa.read() == fb.read()
    with open(full / "ckpt_final.bin", "rb") as fa:
        with open(resumed / "ckpt_final.bin", "rb") as fb:
            assert fa.read() == fb.read()


def test_resume_in_place_replaces_rows_past_the_checkpoint(tmp_path):
    # the crash-recovery path: resume from an epoch checkpoint into the
    # directory of the run that wrote it, whose metrics.csv already holds
    # the rows of the later epochs
    cfg = tiny_config(epochs=4)
    ds = tiny_dataset()
    out = tmp_path / "run"
    run(cfg, ds, out)
    with open(metrics_path(out), "rb") as f:
        uninterrupted = f.read()
    with open(out / "ckpt_final.bin", "rb") as f:
        final = f.read()

    run(cfg, ds, out, resume=checkpoint_path(out, 2))
    with open(metrics_path(out), "rb") as f:
        assert f.read() == uninterrupted
    with open(out / "ckpt_final.bin", "rb") as f:
        assert f.read() == final


def test_resume_in_place_drops_an_unfinished_row(tmp_path):
    cfg = tiny_config(epochs=2)
    ds = tiny_dataset()
    out = tmp_path / "run"
    run(cfg, ds, out)
    with open(metrics_path(out), "rb") as f:
        uninterrupted = f.read()
    with open(metrics_path(out), "ab") as f:
        f.write(b"6,2,0.0")  # a row cut short by a crash
    run(cfg, ds, out, resume=checkpoint_path(out, 1))
    with open(metrics_path(out), "rb") as f:
        assert f.read() == uninterrupted


def test_resume_rejects_config_hash_mismatch(tmp_path):
    cfg = tiny_config(epochs=2)
    ds = tiny_dataset()
    first = tmp_path / "first"
    run(cfg, ds, first)

    changed = dataclasses.replace(cfg, lam=0.25, epochs=3)
    with pytest.raises(ConfigError, match="config hash"):
        run(changed, ds, tmp_path / "second", resume=checkpoint_path(first, 2))


def test_resume_rejects_a_metrics_csv_of_another_config(tmp_path):
    # resuming into a directory whose metrics.csv another config wrote
    # would append rows under that run's hash line
    ds = tiny_dataset()
    other, cfg = tiny_config(lr_base=0.05), tiny_config(lr_base=0.07)
    run(other, ds, tmp_path / "other")
    run(cfg, ds, tmp_path / "mine")
    before = (tmp_path / "other" / "metrics.csv").read_bytes()
    files = sorted(os.listdir(tmp_path / "other"))
    with pytest.raises(ConfigError, match=f"another config.*config_hash={config_hash(cfg)}"):
        run(cfg, ds, tmp_path / "other", resume=checkpoint_path(tmp_path / "mine", 1))
    assert (tmp_path / "other" / "metrics.csv").read_bytes() == before
    assert sorted(os.listdir(tmp_path / "other")) == files


def test_resume_rejects_a_metrics_csv_that_is_not_utf8(tmp_path, capsys):
    cfg = tiny_config()
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(config_to_dict(cfg)))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cpath), "--out", str(out)]) == 0
    mpath = out / "metrics.csv"
    with open(mpath, "ab") as f:
        f.write(b"\xff\xfe")
    before = mpath.read_bytes()
    files = sorted(os.listdir(out))
    with pytest.raises(ConfigError, match="not a metrics file"):
        run(cfg, tiny_dataset(), out, resume=checkpoint_path(out, 1))
    capsys.readouterr()
    assert main(["train", "--config", str(cpath), "--out", str(out),
                 "--resume", str(checkpoint_path(out, 1))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "metrics.csv" in err
    assert mpath.read_bytes() == before
    assert sorted(os.listdir(out)) == files


@pytest.fixture(scope="module")
def resumable_run(tmp_path_factory):
    """A finished 2-epoch CLI run of 3 steps an epoch: its config path, its
    files, and a checkpoint of the fresh state, the run's epoch-0 position."""
    root = tmp_path_factory.mktemp("resumable")
    cfg = tiny_config(epochs=2)
    cpath = root / "config.json"
    cpath.write_text(json.dumps(config_to_dict(cfg)))
    assert main(["train", "--config", str(cpath), "--out", str(root / "run")]) == 0
    save_checkpoint(TrainState.fresh(cfg), cfg, root / "run" / "ckpt_epoch_0.bin")
    files = {p.name: p.read_bytes() for p in (root / "run").iterdir()}
    return cfg, cpath, files


@given(epoch=st.one_of(st.integers(-2, 4), st.booleans()),
       step=st.one_of(st.integers(-2, 9), st.booleans()))
@settings(max_examples=40, deadline=None)
def test_resume_in_place_replays_its_epoch_or_exits_2_leaving_out_untouched(
        resumable_run, tmp_path_factory, epoch, step):
    # checkpoints are written at epoch boundaries only, so a header whose
    # (epoch, step) is none of them cannot be resumed: the run must refuse
    # before it drops rows from metrics.csv or writes anything
    cfg, cpath, files = resumable_run
    out = tmp_path_factory.mktemp("resume")
    for name, blob in files.items():
        (out / name).write_bytes(blob)
    boundary = (not isinstance(epoch, bool) and not isinstance(step, bool)
                and 0 <= epoch <= cfg.epochs and step == 3 * epoch)
    ckpt = out / f"ckpt_epoch_{epoch if boundary else 1}.bin"
    rewrite_header(ckpt, lambda h: h.update(epoch=epoch, step=step))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code = main(["train", "--config", str(cpath), "--out", str(out), "--resume", str(ckpt)])
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    if boundary:
        assert code == 0
        assert after == files
    else:
        assert code == 2
        assert after == before


# -- lam=1 against an independent two-view reference loop -------------------


def test_lambda_one_matches_reference_two_view_loop():
    """With the mixed branch weighted to zero, per-step l_siam and the
    final parameters must match a plain two-view stop-gradient loop that
    never builds a mixed view at all."""
    ds = tiny_dataset()
    cfg = tiny_config(lam=1.0)
    steps_per_epoch = len(ds) // cfg.batch_size
    total_steps = steps_per_epoch * cfg.epochs

    state = TrainState.fresh(cfg)
    got = []
    for epoch in range(cfg.epochs):
        state.epoch = epoch
        for batch in batches(ds, cfg.batch_size, cfg.seed, epoch):
            got.append(batch_step(state, batch, cfg, total_steps).l_siam)

    want, params = two_view_reference(cfg, ds)
    assert got == want
    ref = dict(params.named())
    for name, t in state.params.named():
        assert np.array_equal(t.data, ref[name].data), name


# -- threads ------------------------------------------------------------------


def _artifacts(out):
    """Bytes of every file a run writes, by name."""
    return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}


@pytest.mark.parametrize("overrides", [
    {}, {"stop_gradient": False}, {"precision": 32},
], ids=["intact", "no_stop_gradient", "float32"])
def test_run_bytes_do_not_depend_on_the_pool(tmp_path, monkeypatch, overrides):
    # the branches and the backward sweep run on autodiff._POOL: one
    # worker, the default (one per CPU) and more workers than CPUs give one
    # set of metrics.csv and checkpoint bytes
    cfg = tiny_config(**overrides)
    ds = tiny_dataset()
    runs = {}
    for workers in (1, None, 4):  # None: the pool thread_pool makes
        monkeypatch.setattr(ad, "_POOL", None if workers is None else ThreadPoolExecutor(workers))
        run(cfg, ds, tmp_path / str(workers))
        runs[workers] = _artifacts(tmp_path / str(workers))
        ad._POOL.shutdown()
    assert "metrics.csv" in runs[1] and "ckpt_final.bin" in runs[1]
    assert runs[None] == runs[1] and runs[4] == runs[1]


class BranchFault(Exception):
    pass


def _state_bytes(state):
    return ([t.data.tobytes() for _, t in state.params.named()]
            + [v.tobytes() for v in state.velocity.values()]
            + [r.tobytes() for r in state.params.running.values()])


def test_a_branch_that_raises_on_a_worker_moves_nothing(monkeypatch):
    cfg = tiny_config()
    batch = first_batch(tiny_dataset(), cfg)
    state = TrainState.fresh(cfg)
    before = _state_bytes(state)
    encode_real = train_module.encode
    threads = []

    def encode(params, x, mode, deferred=None):
        threads.append(threading.current_thread())
        if len(threads) == 2:
            raise BranchFault("second branch")
        return encode_real(params, x, mode, deferred)

    monkeypatch.setattr(train_module, "encode", encode)
    with pytest.raises(BranchFault, match="second branch"):
        finishes_within(60, batch_step, state, batch, cfg, 10)
    assert len(threads) == 3 and threading.main_thread() not in threads
    assert state.step == 0 and _state_bytes(state) == before  # running buffers too
    assert all(t.grad is None for _, t in state.params.named())
    monkeypatch.setattr(train_module, "encode", encode_real)
    got = finishes_within(60, batch_step, state, batch, cfg, 10)
    fresh = TrainState.fresh(cfg)
    assert got == batch_step(fresh, batch, cfg, total_steps=10)
    assert _state_bytes(state) == _state_bytes(fresh)


def test_a_branch_sweep_that_raises_on_a_worker_moves_nothing(monkeypatch):
    # one branch's backward sweep raises on a pool worker; the step raises
    # once the other two sweeps have ended, and no grad, parameter,
    # velocity or running buffer has moved
    cfg = tiny_config()
    batch = first_batch(tiny_dataset(), cfg)
    state = TrainState.fresh(cfg)
    before = _state_bytes(state)
    pool_real, conv_real = ad.global_avg_pool, ad.conv2d
    lock = threading.Lock()
    failed_on, swept, ended = [], [], []

    def global_avg_pool(x):
        out = pool_real(x)
        rule = out._backward_fn

        def fails_first(g):  # the first branch sweep to get here raises
            with lock:
                first = not failed_on
                failed_on.append(threading.current_thread())
            if first:
                swept.append(_state_bytes(state))
                raise BranchFault("global_avg_pool backward")
            return rule(g)
        out._backward_fn = fails_first
        return out

    def conv2d(x, k, stride=1, padding=0):
        out = conv_real(x, k, stride=stride, padding=padding)
        rule = out._backward_fn
        if not x.requires_grad and rule is not None:  # a branch's first layer: its last rule

            def slow_last_rule(g):
                time.sleep(0.1)
                grads = rule(g)
                ended.append(threading.current_thread())
                return grads
            out._backward_fn = slow_last_rule
        return out

    monkeypatch.setattr(ad, "global_avg_pool", global_avg_pool)
    monkeypatch.setattr(ad, "conv2d", conv2d)
    with pytest.raises(BranchFault, match="global_avg_pool backward"):
        finishes_within(60, batch_step, state, batch, cfg, 10)
    assert len(failed_on) == 3 and threading.main_thread() not in failed_on
    assert len(ended) == 2 and threading.main_thread() not in ended
    assert state.step == 0 and all(t.grad is None for _, t in state.params.named())
    assert _state_bytes(state) == swept[0] == before  # running buffers too
    monkeypatch.setattr(ad, "global_avg_pool", pool_real)
    monkeypatch.setattr(ad, "conv2d", conv_real)
    fresh = TrainState.fresh(cfg)
    assert finishes_within(60, batch_step, state, batch, cfg, 10) == batch_step(
        fresh, batch, cfg, total_steps=10)
    assert _state_bytes(state) == _state_bytes(fresh)


class RecordingPool(ThreadPoolExecutor):
    """A pool that numbers the jobs it is given in submission order; a job's
    number is `local.job` on its thread while it runs."""

    def __init__(self, workers):
        super().__init__(workers)
        self.submitted = 0
        self.local = threading.local()

    def submit(self, fn, *args):
        number = self.submitted  # only the calling thread submits
        self.submitted += 1

        def job():
            self.local.job = number
            try:
                return fn(*args)
            finally:
                del self.local.job
        return super().submit(job)


def _record_pool_jobs(monkeypatch, pool):
    """What each job of `pool` runs, by job number: "encode", "sweep", or
    ("views", epoch, source indices) for a `make_triplet` call. Calls on
    the calling thread go to the list under None. Also the number of the
    first job of each `on_pool` dispatch."""
    log, dispatches = {}, []
    on_pool_real = ad.on_pool
    encode_real, sweep_real, views_real = (train_module.encode, ad.leaf_grads,
                                           train_module.make_triplet)

    def note(what):
        log.setdefault(getattr(pool.local, "job", None), []).append(what)

    def encode(params, x, mode, deferred=None):
        note("encode")
        return encode_real(params, x, mode, deferred)

    def leaf_grads(root, g):
        note("sweep")
        return sweep_real(root, g)

    def make_triplet(records, cfg, policy, epoch, dtype):
        note(("views", epoch, [r.source_index for r in records]))
        return views_real(records, cfg, policy, epoch, dtype)

    def on_pool(fn, items):
        dispatches.append(pool.submitted)
        return on_pool_real(fn, items)

    monkeypatch.setattr(ad, "_POOL", pool)
    monkeypatch.setattr(ad, "on_pool", on_pool)
    monkeypatch.setattr(train_module, "encode", encode)
    monkeypatch.setattr(ad, "leaf_grads", leaf_grads)
    monkeypatch.setattr(train_module, "make_triplet", make_triplet)
    return log, dispatches


@pytest.mark.parametrize("workers", [1, 2])
def test_each_step_queues_the_next_batchs_views_behind_its_branch_sweeps(
        tmp_path, monkeypatch, workers):
    cfg = tiny_config(epochs=2)
    ds = tiny_dataset()
    pool = RecordingPool(workers)
    log, dispatches = _record_pool_jobs(monkeypatch, pool)
    ends = [0]
    run(cfg, ds, tmp_path / "run", on_metrics=lambda m: ends.append(pool.submitted))
    pool.shutdown()

    stream = [("views", epoch, [r.source_index for r in batch])
              for epoch in range(cfg.epochs)
              for batch in batches(ds, cfg.batch_size, cfg.seed, epoch)]
    # the calling thread makes the first views and sweeps each step's head
    assert log.pop(None) == [stream[0]] + ["sweep"] * len(stream)
    # each step dispatches its three encodes, then its three branch sweeps
    # and, queued behind them, the next (epoch, batch)'s views; the last
    # step makes none
    for step, (start, end) in enumerate(zip(ends, ends[1:])):
        starts = [n for n in dispatches if start <= n < end]
        jobs = [[log.pop(n) for n in range(a, b)] for a, b in zip(starts, starts[1:] + [end])]
        prepared = [[stream[step + 1]]] if step + 1 < len(stream) else []
        assert jobs == [[["encode"]] * 3, [["sweep"]] * 3 + prepared], step
    assert log == {}


class ViewsFault(Exception):
    pass


@pytest.mark.parametrize("k", [1, 2], ids=["mid_epoch", "last_of_epoch"])
def test_a_fault_preparing_the_next_views_is_raised_by_the_step_that_prepared_them(
        tmp_path, monkeypatch, k):
    # step k prepares step k+1's views on a worker and fails: run raises
    # that fault once step k's sweeps have ended, and step k has moved no
    # parameter, velocity or running buffer and written no row
    cfg = tiny_config(epochs=2)
    ds = tiny_dataset()
    before = []  # state bytes before each step of an uninterrupted run
    step_real = train_module.train_step

    def train_step(state, *args):
        before.append(_state_bytes(state))
        return step_real(state, *args)

    monkeypatch.setattr(train_module, "train_step", train_step)
    run(cfg, ds, tmp_path / "full")
    full_rows = read_metrics(tmp_path / "full")

    states, caller, swept, calls = [], [], [], []
    views_real = train_module.make_triplet
    sweep_real = ad.leaf_grads

    def holding(state, *args):
        states.append(state)
        caller.append(threading.current_thread())
        return step_real(state, *args)

    def leaf_grads(root, g):  # a slow sweep ends after the fault is raised
        out = sweep_real(root, g)
        time.sleep(0.05)
        swept.append(threading.current_thread())
        return out

    def make_triplet(*args):
        calls.append(threading.current_thread())
        if len(calls) == k + 2:
            raise ViewsFault(f"views of step {k + 1}")
        return views_real(*args)

    monkeypatch.setattr(train_module, "train_step", holding)
    monkeypatch.setattr(ad, "leaf_grads", leaf_grads)
    monkeypatch.setattr(train_module, "make_triplet", make_triplet)
    out = tmp_path / "failed"
    with pytest.raises(ViewsFault) as raised:
        finishes_within(60, run, cfg, ds, out)
    assert type(raised.value) is ViewsFault and str(raised.value) == f"views of step {k + 1}"
    assert calls[0] is caller[0] and caller[0] not in calls[1:]
    assert len(swept) == 4 * (k + 1)  # each step's head sweep and three branch sweeps
    state = states[-1]
    assert len(states) == k + 1 and state.step == k
    assert _state_bytes(state) == before[k]
    assert all(t.grad is None for _, t in state.params.named())
    assert read_metrics(out) == full_rows[:2 + k]
    assert sorted(os.listdir(out)) == ["metrics.csv"]
    assert ad.thread_pool()._work_queue.empty()


@pytest.mark.parametrize("fault", ["loss", "prepare", "gradient"])
def test_a_step_that_raises_changes_nothing(monkeypatch, fault):
    # a non-finite loss, a fault of `prepare` and a non-finite gradient of
    # the last parameter SGD would step: the step writes its state at one
    # commit point, after every part of it has succeeded
    cfg = tiny_config()
    batch = first_batch(tiny_dataset(), cfg)
    state = TrainState.fresh(cfg)
    views = make_triplet(batch, cfg.augment, cfg.lambda_mix, 0, cfg.dtype)
    prepare = None
    if fault == "loss":
        total_loss_real = train_module.total_loss

        def total_loss(*args):
            total, breakdown = total_loss_real(*args)
            total.data[...] = np.nan
            return total, breakdown
        monkeypatch.setattr(train_module, "total_loss", total_loss)
        raised = pytest.raises(TrainingAborted, match="non-finite values in loss at step 0")
    elif fault == "prepare":
        def prepare():
            raise ViewsFault("views of step 1")
        raised = pytest.raises(ViewsFault, match="views of step 1")
    else:
        last = list(state.params.tensors)[-1]
        sweep_real = ad.leaf_grads

        def leaf_grads(root, g):
            out = sweep_real(root, g)
            for leaf, grad in out:
                if leaf is state.params.tensors[last]:
                    grad[...] = np.nan
            return out
        monkeypatch.setattr(ad, "leaf_grads", leaf_grads)
        raised = pytest.raises(TrainingAborted, match=f"gradient of {last} at step 0")
    with raised:
        train_module.train_step(state, views, cfg, 10, prepare)
    monkeypatch.undo()
    fresh = TrainState.fresh(cfg)
    assert state.step == 0 and _state_bytes(state) == _state_bytes(fresh)
    assert all(t.grad is None for _, t in state.params.named())
    assert batch_step(state, batch, cfg, 10) == batch_step(fresh, batch, cfg, 10)
    assert _state_bytes(state) == _state_bytes(fresh)


def _whole_graph_step(cfg, batch):
    """One step's forward as one graph on this thread, swept by the
    serial oracle: the parameter gradients, and the running buffers."""
    params = TrainState.fresh(cfg).params
    views = make_triplet(batch, cfg.augment, cfg.lambda_mix, 0, cfg.dtype)
    z1, z2, zm = [encode(params, x, "train") for x in (views.x1, views.x2, views.xm)]
    p1, p2, pm = [predict(params, z) for z in (z1, z2, zm)]
    l_siam = siam_loss(p1, p2, z1, z2, stop_gradient=cfg.stop_gradient)
    l_mix = mix_loss(pm, aggregate(z1, z2, cfg.aggregation), cfg.stop_gradient)
    serial_backward(total_loss(l_siam, l_mix, cfg.lam)[0])
    return {n: t.grad for n, t in params.named()}, params.running


@given(kind=st.sampled_from(["maximum", "average", "none"]), stop_gradient=st.booleans(),
       precision=st.sampled_from([32, 64]), lam=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_train_step_gradients_are_one_serial_sweeps_over_the_step_graph(
        kind, stop_gradient, precision, lam, seed):
    cfg = tiny_config(aggregation=AggregationStrategy(kind), stop_gradient=stop_gradient,
                      precision=precision, lam=lam, seed=seed)
    batch = first_batch(tiny_dataset(), cfg)
    want, want_running = _whole_graph_step(cfg, batch)
    state = TrainState.fresh(cfg)
    got = {}
    apply_sgd_real = train_module.apply_sgd

    def apply_sgd(tensors, *args, **kwargs):
        got.update((n, t.grad.copy()) for n, t in tensors.items())
        return apply_sgd_real(tensors, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(train_module, "apply_sgd", apply_sgd)
        batch_step(state, batch, cfg, total_steps=10)
    assert list(got) == list(want)
    for name, g in got.items():
        assert g.dtype == want[name].dtype and g.tobytes() == want[name].tobytes(), name
    for name, buf in state.params.running.items():
        assert buf.tobytes() == want_running[name].tobytes(), name


# -- allocator --------------------------------------------------------------

_REFAULT_PROBE = """
import resource, sys
import numpy as np
from mixsiam import train
if sys.argv[1] == "1":
    train._keep_freed_heap()
def step():  # ten 4 MB temporaries alive at once, then all freed
    live = [np.ones(1 << 19) for _ in range(10)]
step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's allocator")
def test_keep_freed_heap_stops_refaulting_freed_blocks():
    # a fresh interpreter each, since the setting is process-wide: under
    # glibc's starting thresholds the freed blocks of one step go back to
    # the kernel and fault in again in the next
    src = os.path.dirname(os.path.dirname(train_module.__file__))
    faults = {}
    for on in ("0", "1"):
        out = subprocess.run([sys.executable, "-c", _REFAULT_PROBE, on], check=True,
                             capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": src})
        faults[on] = int(out.stdout)
    assert faults["1"] * 10 < faults["0"]


_ARENA_PROBE = """
import re, threading
import numpy as np
from mixsiam import train
train._keep_freed_heap()
def peak_kb():  # ru_maxrss would start at the forking parent's size
    with open("/proc/self/status") as f:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", f.read()).group(1))
def step():  # ten 4 MB temporaries alive at once, then all freed
    live = [np.ones(1 << 19) for _ in range(10)]
before = peak_kb()
worker = threading.Thread(target=step)
worker.start()
worker.join()
step()
print(peak_kb() - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/status"),
                    reason="sets glibc's allocator; reads the peak RSS from /proc")
def test_keep_freed_heap_shares_one_kept_heap_between_threads():
    # the blocks a worker thread frees are kept for the main thread to
    # reuse: with an arena per thread, each arena would keep its own copy
    src = os.path.dirname(os.path.dirname(train_module.__file__))
    out = subprocess.run([sys.executable, "-c", _ARENA_PROBE], check=True,
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    grown_kb, copy_kb = int(out.stdout), 40 << 10
    assert copy_kb * 0.9 < grown_kb < copy_kb * 1.5


# -- a killed training process, resumed in place ------------------------------

# `mixsiam train` (argv[3:]) in a process that ends itself with os._exit(9)
# at a fixed point: "views" N ends it while a worker makes the views of
# step N, after N - 1 metrics rows; "tmp" NAME ends it partway through the
# write of NAME's .tmp, after five chunks (a checkpoint's header and first
# array, or the first five lines of a metrics.csv that a resume rewrites)
_CRASHING_TRAIN = """
import os, sys
from mixsiam import cli, train
how, at = sys.argv[1], sys.argv[2]
if how == "views":
    make_triplet, calls = train.make_triplet, []
    def views(*args):
        calls.append(args)
        if len(calls) == int(at) + 1:
            os._exit(9)
        return make_triplet(*args)
    train.make_triplet = views
else:
    class CutShort:
        def __init__(self, f):
            self.f, self.writes = f, 0
        def __enter__(self):
            return self
        def __exit__(self, *exc):
            self.f.close()
        def write(self, data):
            self.f.write(data)
            self.writes += 1
            if self.writes == 5:
                self.f.flush()
                os._exit(9)
    def cut_open(path, *args, **kwargs):
        f = open(path, *args, **kwargs)
        return CutShort(f) if str(path).endswith(at + ".tmp") else f
    train.open = cut_open
sys.exit(cli.main(sys.argv[3:]))
"""


@pytest.mark.parametrize("crashes, saved", [
    ([("views", "2")], []),
    ([("views", "5")], ["ckpt_epoch_1.bin"]),
    ([("tmp", "ckpt_epoch_2.bin")], ["ckpt_epoch_1.bin", "ckpt_epoch_2.bin.tmp"]),
    ([("views", "8"), ("tmp", "metrics.csv")], ["ckpt_epoch_1.bin", "ckpt_epoch_2.bin"]),
], ids=["views_in_epoch_0", "views_in_epoch_1", "checkpoint_tmp", "metrics_rewrite"])
def test_a_killed_train_resumed_in_place_writes_the_uninterrupted_bytes(tmp_path, crashes,
                                                                        saved):
    # the crash-recovery path of the README, on real processes: after each
    # crash, rerun from the newest epoch checkpoint into the same --out, or
    # afresh without one
    cfg = tiny_config(epochs=3)  # 3 steps an epoch
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config_to_dict(cfg)))
    src = os.path.dirname(os.path.dirname(train_module.__file__))

    def train(out, *args, crash=()):
        code = ["-c", _CRASHING_TRAIN, *crash] if crash else ["-m", "mixsiam"]
        return subprocess.run([sys.executable, *code, "train", "--config", str(cpath),
                               "--out", str(out), *args], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})

    def artifacts(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.name == "metrics.csv" or p.name.startswith("ckpt_")}

    def resume_args(out):
        newest = sorted(out.glob("ckpt_epoch_*.bin"), key=lambda p: int(p.stem.split("_")[-1]))
        return ["--resume", str(newest[-1])] if newest else []

    assert train(tmp_path / "full").returncode == 0
    out = tmp_path / "killed"
    out.mkdir()
    for crash in crashes:
        assert train(out, *resume_args(out), crash=crash).returncode == 9
    assert sorted(p.name for p in out.glob("ckpt_*")) == saved
    resumed = train(out, *resume_args(out))
    assert resumed.returncode == 0, resumed.stderr
    assert artifacts(out) == artifacts(tmp_path / "full")
    assert not list(out.glob("*.tmp"))
