"""End-to-end training: triplet construction, three weight-shared forward
branches, blended loss, SGD-with-momentum under a cosine schedule,
per-epoch checkpoints, and a per-step metrics CSV.

Everything is deterministic from (config, seed): augmentation randomness is
keyed per (seed, epoch, sample, slot), epoch shuffles per (seed, epoch),
and no other entropy source exists, so a resumed run replays the exact
step sequence of an uninterrupted one.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import json
import os
import re
import struct
import sys
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .augment import AugmentConfig, LambdaMixPolicy, make_triplet
from .data import Dataset, SyntheticConfig, batches, load_cifar10, make_synthetic
from .errors import ConfigError, ParseError, TrainingAborted
from .loss import AggregationStrategy, aggregate, mix_loss, siam_loss, total_loss
from .model import EncoderSpec, ModelParams, PredictorSpec, encode, init, predict

CHECKPOINT_MAGIC = b"MXSM"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class DatasetConfig:
    """What to train on. kind "synthetic" generates `classes` x `per_class`
    gratings of side `size` from `seed` in-process; "cifar10" reads every
    record of the binary batches in `dir`. For "cifar10", `classes`,
    `per_class`, `size` and `seed` select nothing: only the config hash
    reads them."""

    kind: str = "synthetic"
    classes: int = 3
    per_class: int = 100
    size: int = 32
    seed: int = 0
    dir: str = ""

    def __post_init__(self):
        if self.kind not in ("synthetic", "cifar10"):
            raise ConfigError(f"dataset kind must be synthetic|cifar10, got {self.kind!r}")
        if self.seed < 0:
            raise ConfigError(f"dataset seed must be >= 0, got {self.seed}")

    def build(self) -> Dataset:
        if self.kind == "synthetic":
            return make_synthetic(SyntheticConfig(
                classes=self.classes, per_class=self.per_class,
                size=self.size, seed=self.seed))
        if not self.dir:
            raise ConfigError("dataset kind cifar10 requires a data dir")
        return load_cifar10(self.dir, split="train")


@dataclass(frozen=True)
class TrainConfig:
    dataset: DatasetConfig = DatasetConfig()
    encoder: EncoderSpec = EncoderSpec()
    predictor: PredictorSpec = PredictorSpec()
    augment: AugmentConfig = AugmentConfig()
    lam: float = 0.5                       # serialized as "lambda"
    lambda_mix: LambdaMixPolicy = LambdaMixPolicy()
    aggregation: AggregationStrategy = AggregationStrategy()
    lr_base: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 32
    epochs: int = 20
    seed: int = 0
    precision: int = 32
    stop_gradient: bool = True             # False is the collapse ablation

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lambda must be in [0,1], got {self.lam}")
        if self.lr_base <= 0:
            raise ConfigError(f"lr_base must be > 0, got {self.lr_base}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0,1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.precision not in (32, 64):
            raise ConfigError(f"precision must be 32 or 64, got {self.precision}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def dtype(self):
        return ad.DTYPES[self.precision]


# -- config (de)serialization -------------------------------------------


RENAMED = {"lam": "lambda"}  # field name -> JSON key
# a field without a default is typed by its annotation, through this value
ANNOTATED_DEFAULT = {"bool": False, "int": 0, "float": 0.0, "str": ""}


def _field_default(f):
    """The default of dataclass field `f`, or a value of its annotated type."""
    return ANNOTATED_DEFAULT[f.type] if f.default is dataclasses.MISSING else f.default


def _as_field_type(value, default):
    """An int where the default is a float as that float: equal configs hash equally."""
    return float(value) if isinstance(default, float) and type(value) is int else value


def config_to_dict(cfg):
    """Plain JSON document of a config dataclass, recursively: tuples
    become lists, the fields in RENAMED take their JSON key, and an int
    where the default is a float (a field's or a tuple item's) a float."""
    def plain(value, default):
        if dataclasses.is_dataclass(value):
            return config_to_dict(value)
        if isinstance(value, tuple):
            return [plain(v, default[0]) for v in value]
        return _as_field_type(value, default)
    return {RENAMED.get(f.name, f.name): plain(getattr(cfg, f.name), _field_default(f))
            for f in dataclasses.fields(cfg)}


def _check_scalar(value, default, where):
    """`value` in the type of `default`, or ConfigError: a bool field takes
    only a bool, an int field an int that is not a bool, a float field a
    finite float or an int within float range (read as a float), and a str
    field a str. Config files, grid and sweep specs and checkpoint headers
    all pass through here, so NaN and Infinity never reach a run."""
    if isinstance(default, bool):
        ok = isinstance(value, bool)
    elif isinstance(default, (int, float)):
        number = (int, float) if isinstance(default, float) else int
        ok = isinstance(value, number) and not isinstance(value, bool)
    else:
        ok = isinstance(value, type(default))
    if not ok:
        raise ConfigError(f"{where}: expected {type(default).__name__},"
                          f" got {type(value).__name__} {value!r}")
    if isinstance(default, float) and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where}: expected a finite float, got {value!r}")
    return _as_field_type(value, default)


def config_from_dict(payload, cls=TrainConfig, context="config"):
    """Inverse of config_to_dict for the config dataclass `cls`.

    A value takes its type from the field's default: a dataclass, a tuple
    of dataclasses (EncoderSpec.stages), a tuple of scalars, or a scalar.
    Where the default is a tuple the value must be a list, which becomes a
    tuple, and each item must have the type of the default's first item.
    A scalar of the wrong type or an unknown key raises ConfigError.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"{context}: expected an object, got {type(payload).__name__}")
    fields = {RENAMED.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    unknown = set(payload) - set(fields)
    if unknown:
        raise ConfigError(f"{context}: unknown field(s) {sorted(unknown)}")
    kwargs = {}
    for key, value in payload.items():
        f, where = fields[key], f"{context}.{key}"
        default = _field_default(f)
        if dataclasses.is_dataclass(default):
            value = config_from_dict(value, type(default), where)
        elif isinstance(default, tuple):
            if not isinstance(value, list):
                raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
            if dataclasses.is_dataclass(default[0]):
                value = [config_from_dict(v, type(default[0]), where) for v in value]
            else:
                value = [_check_scalar(v, default[0], f"{where}[{i}]") for i, v in enumerate(value)]
            value = tuple(value)
        else:
            value = _check_scalar(value, default, where)
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except TypeError as e:
        raise ConfigError(f"{context}: {e}") from None


def config_hash(cfg: TrainConfig) -> str:
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# -- schedule and diagnostics --------------------------------------------


def cosine_lr(step: int, total_steps: int, lr_base: float) -> float:
    """lr_base * 0.5 * (1 + cos(pi * step / total_steps))."""
    if not 0 <= step <= total_steps:
        raise ConfigError(f"cosine_lr: step {step} outside [0, {total_steps}]")
    return float(lr_base * 0.5 * (1.0 + np.cos(np.pi * step / total_steps)))


def unit_rows(z) -> np.ndarray:
    """The rows of `z` in float64, each divided by max(||row||, L2_NORM_EPS)."""
    z = np.asarray(z, dtype=np.float64)
    return z / np.maximum(np.linalg.norm(z, axis=1, keepdims=True), ad.L2_NORM_EPS)


def embedding_std(z: np.ndarray) -> float:
    """Collapse sentinel: mean per-dimension std of L2-normalized rows.

    A constant representation drives this to 0; a healthy, spread-out one
    keeps it near the isotropic ceiling 1/sqrt(dim).
    """
    return float(unit_rows(z).std(axis=0).mean())


@dataclass(frozen=True)
class StepMetrics:
    step: int
    epoch: int
    lr: float
    l_siam: float
    l_mix: float
    total: float
    grad_norm: float
    embedding_std: float

    def row(self):
        return ",".join(map(repr, dataclasses.astuple(self)))


METRICS_COLUMNS = tuple(f.name for f in dataclasses.fields(StepMetrics))


@dataclass
class TrainState:
    params: ModelParams
    velocity: dict          # name -> momentum buffer, same shapes as params
    step: int = 0
    epoch: int = 0

    @classmethod
    def fresh(cls, cfg: TrainConfig):
        params = init(cfg.encoder, cfg.predictor, seed=cfg.seed, dtype=cfg.dtype)
        velocity = {name: np.zeros_like(t.data) for name, t in params.named()}
        return cls(params=params, velocity=velocity)


def _check_finite(name, arr, step):
    if not np.all(np.isfinite(arr)):
        raise TrainingAborted(f"non-finite values in {name} at step {step}")


def apply_sgd(tensors: dict, velocity: dict, lr: float, momentum: float,
              weight_decay: float, no_decay=frozenset(), step: int = 0) -> float:
    """SGD with momentum, consuming .grad on every tensor of `tensors`
    (name -> Tensor).

    For each tensor:  buf = momentum*buf + (grad + wd*param);
    param -= lr*buf.  Weight decay is skipped for names in `no_decay`
    (the model's batchnorm scales/shifts and biases).  Mutates data and
    velocity in place and returns the squared global gradient norm
    (pre-decay, accumulated in float64).  A missing grad counts as zero.
    Every grad is checked before any tensor moves: a non-finite one raises
    TrainingAborted with data and velocity untouched.  Either way every
    .grad is cleared.
    """
    grads = {name: np.zeros_like(t.data) if t.grad is None else t.grad
             for name, t in tensors.items()}
    for t in tensors.values():
        t.grad = None
    for name, g in grads.items():
        _check_finite(f"gradient of {name}", g, step)
    sq_norm = 0.0
    for name, t in tensors.items():
        dtype = t.data.dtype.type
        g = grads[name]
        sq_norm += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
        if weight_decay and name not in no_decay:
            g = g + dtype(weight_decay) * t.data
        buf = velocity[name]
        buf *= dtype(momentum)
        buf += g
        t.data -= dtype(lr) * buf
    return sq_norm


def train_step(state: TrainState, views, cfg: TrainConfig, total_steps: int,
               prepare=None):
    """One optimizer step on `views`, the `make_triplet` views of one batch:
    the step's StepMetrics, and what `prepare` returned (None without it).

    Three forward branches share the one parameter set; branch gradients
    accumulate on the shared tensors before the single SGD update. Weight
    decay is the classic gradient addition wd*param, skipped for
    batch-norm gamma/beta and biases.

    The three encoder passes run on the package's thread pool. The
    predictor and the losses run here, on leaf proxies of the three
    encoder outputs, and their (head) graph is swept here; then each
    branch is swept from its output, with its proxy's gradient, on the
    pool. Each encoder parameter sums its branch parts in the order in
    which the head sweep reached the proxies, which is the order of one
    sweep over the whole step graph.

    `prepare`, a callable of no arguments (in `run`, the next step's
    `make_triplet`), is queued on the pool behind the branch sweeps, so it
    runs on the first worker to finish its sweep. It must not submit to
    the pool itself: on a one-worker pool it would wait for itself. An
    exception of a sweep or of `prepare` is raised, with its own type,
    once all of them have ended.

    The forwards and sweeps only compute; the state is written in one
    place once every part has succeeded. SGD moves the parameters and
    velocities, then the batch-norm statistics advance in the order of the
    serial passes (encoder x1, x2, xm, then predictor p1, p2, pm), so the
    bytes do not depend on the CPU count. A step that raises changes
    nothing, `state.step` included, and leaves no `.grad` set.
    """
    params = state.params
    updates = [[], [], [], []]  # batch-norm updates of each encoder branch, then the predictor

    zs = ad.on_pool(lambda branch: encode(params, branch[0], "train", branch[1]),
                    list(zip((views.x1, views.x2, views.xm), updates)))
    h1, h2, hm = proxies = [ad.Tensor(z.data, requires_grad=True) for z in zs]
    p1, p2, pm = [predict(params, h, updates[3]) for h in proxies]

    l_siam = siam_loss(p1, p2, h1, h2, stop_gradient=cfg.stop_gradient)
    z_f = aggregate(h1, h2, cfg.aggregation)
    l_mix = mix_loss(pm, z_f, cfg.stop_gradient)
    total, breakdown = total_loss(l_siam, l_mix, cfg.lam)

    _check_finite("loss", total.data, state.step)
    grads = dict(ad.leaf_grads(total, np.ones_like(total.data)))
    branch_of = dict(zip(proxies, zs))
    sweeps = [functools.partial(ad.leaf_grads, branch_of[h], grads.pop(h))
              for h in list(grads) if h in branch_of]
    done = ad.on_pool(lambda job: job(), sweeps + ([prepare] if prepare else []))
    for parts in done[:len(sweeps)]:
        for leaf, g in parts:
            if leaf in grads:
                grads[leaf] += g
            else:
                grads[leaf] = g

    # the commit: nothing above wrote the state
    for leaf, g in grads.items():
        leaf.grad = g
    lr = cosine_lr(state.step, total_steps, cfg.lr_base)
    sq_norm = apply_sgd(params.tensors, state.velocity, lr, cfg.momentum,
                        cfg.weight_decay, params.no_decay, step=state.step)
    for update in (u for branch in updates for u in branch):
        ad.update_running_stats(*update)

    metrics = StepMetrics(
        step=state.step, epoch=state.epoch, lr=lr,
        l_siam=breakdown.l_siam, l_mix=breakdown.l_mix, total=breakdown.total,
        grad_norm=float(np.sqrt(sq_norm)),
        embedding_std=embedding_std(zs[0].data),
    )
    state.step += 1
    return metrics, (done[-1] if prepare else None)


# -- checkpoints ----------------------------------------------------------


HEADER_FIELDS = {"config": dict, "epoch": int, "step": int, "dtype": str, "arrays": list}


def _manifest(state: TrainState, cfg: TrainConfig):
    """The payload dtype of `cfg`, and (entry, array) pairs in the fixed
    serialization order, where `entry` is the header's record of the array:
    kind, name, shape, and the byte offset and length of its payload bytes."""
    dtype = np.dtype(cfg.dtype).newbyteorder("<")
    arrays = ([("param", name, t.data) for name, t in state.params.named()]
              + [("velocity", name, state.velocity[name]) for name, _ in state.params.named()]
              + [("running", name, arr) for name, arr in state.params.running.items()])
    out, offset = [], 0
    for kind, name, arr in arrays:
        nbytes = arr.size * dtype.itemsize
        out.append(({"kind": kind, "name": name, "shape": list(arr.shape),
                     "offset": offset, "nbytes": nbytes}, arr))
        offset += nbytes
    return dtype, out


def save_checkpoint(state: TrainState, cfg: TrainConfig, path):
    """Binary checkpoint: MXSM magic, u32 version, u64 header length, JSON
    header, then the little-endian float payload (params, momentum buffers
    and batch-norm running stats — everything bitwise resume needs).

    The file is written through `_write_replacing`, so after a crash
    `path` holds either the old checkpoint or the whole new one."""
    dtype, manifest = _manifest(state, cfg)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": config_to_dict(cfg),
        "config_hash": config_hash(cfg),
        "epoch": state.epoch,
        "step": state.step,
        "dtype": dtype.str,
        "rng": {"scheme": "keyed", "note": "streams derive from (seed, epoch, "
                "sample, slot); no mutable rng state exists"},
        "arrays": [entry for entry, _ in manifest],
    }
    hbytes = json.dumps(header, sort_keys=True).encode()
    _write_replacing(path, [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
                            struct.pack("<Q", len(hbytes)), hbytes]
                     + [np.ascontiguousarray(arr, dtype=dtype).tobytes() for _, arr in manifest])


def _write_replacing(path, chunks):
    """Replace `path` by the bytes `chunks`, whole or not at all: they are
    written to `path`.tmp, which is synced and renamed over `path`, and
    then the directory is synced."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        for chunk in chunks:
            f.write(chunk)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    dirfd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dirfd)
    finally:
        os.close(dirfd)


def _read_exact(f, n, path, what):
    offset = f.tell()
    left = os.fstat(f.fileno()).st_size - offset
    if n > left:
        raise ParseError(f"{path}: truncated checkpoint, {what} needs {n} bytes"
                         f" at byte offset {offset} but {left} remain")
    return f.read(n)


def _read_header(f, path):
    magic = _read_exact(f, 4, path, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: bad checkpoint magic {magic!r} at byte offset 0")
    (version,) = struct.unpack("<I", _read_exact(f, 4, path, "version"))
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<Q", _read_exact(f, 8, path, "header length"))
    hbytes = _read_exact(f, hlen, path, "header")
    try:
        return json.loads(hbytes.decode())
    except ValueError as e:  # bad UTF-8 or bad JSON
        raise ParseError(f"{path}: checkpoint header at byte offset 16 is not"
                         f" valid JSON: {e}") from None


def load_checkpoint(path) -> tuple:
    """Rebuild (TrainState, TrainConfig) from a checkpoint file.

    The header must list exactly the arrays that `save_checkpoint` writes
    for its config, in order; the payload is read in that order.
    """
    try:
        with open(path, "rb") as f:
            header = _read_header(f, path)
            payload = f.read()
    except OSError as e:  # a directory, or no permission to read
        raise ParseError(f"{path}: checkpoint cannot be read: {e}") from None
    if not isinstance(header, dict):
        raise ParseError(f"{path}: checkpoint header is a {type(header).__name__},"
                         " expected a JSON object")
    for key, kind in HEADER_FIELDS.items():
        if not isinstance(header.get(key), kind):
            raise ParseError(f"{path}: checkpoint header field {key!r} is missing"
                             f" or not of type {kind.__name__}")
    for key in ("epoch", "step"):
        if isinstance(header[key], bool) or header[key] < 0:
            raise ParseError(f"{path}: checkpoint header field {key!r} is"
                             f" {header[key]!r}, expected a non-negative integer")
    cfg = config_from_dict(header["config"])
    state = TrainState.fresh(cfg)
    state.epoch = header["epoch"]
    state.step = header["step"]
    dtype, manifest = _manifest(state, cfg)
    if header["dtype"] != dtype.str:
        raise ParseError(f"{path}: checkpoint dtype {header['dtype']!r} does not match"
                         f" {dtype.str!r} of precision {cfg.precision}")
    if len(header["arrays"]) != len(manifest):
        raise ParseError(f"{path}: checkpoint lists {len(header['arrays'])} arrays,"
                         f" its config needs {len(manifest)}")
    for i, (have, (want, _)) in enumerate(zip(header["arrays"], manifest)):
        if have != want:
            raise ParseError(f"{path}: checkpoint array entry {i} is {have!r}, its config"
                             f" needs {want!r} (kind, name, shape, offset and nbytes)")
    need = sum(entry["nbytes"] for entry, _ in manifest)
    if len(payload) != need:
        fault = "truncated payload" if len(payload) < need else "trailing bytes after the payload"
        raise ParseError(f"{path}: {fault}, the arrays need {need} bytes"
                         f" but {len(payload)} are present")
    for entry, dest in manifest:
        raw = payload[entry["offset"]:entry["offset"] + entry["nbytes"]]
        dest[...] = np.frombuffer(raw, dtype=dtype).reshape(dest.shape).astype(dest.dtype)
    return state, cfg


# -- the outer loop ---------------------------------------------------------


def metrics_path(out_dir):
    return os.path.join(out_dir, "metrics.csv")


def checkpoint_path(out_dir, epoch):
    return os.path.join(out_dir, f"ckpt_epoch_{epoch}.bin")


def _drop_rows_from(mpath, step, hash_line):
    """Keep the two header lines and the complete rows before `step`: a run
    resumed in place must not repeat the rows its first attempt wrote past
    the checkpoint, nor keep a row that a crash cut short. The kept lines
    replace the file through `_write_replacing`, so a crash leaves the old
    file or the new one. A file whose first line is not `hash_line` holds
    another config's rows, and one that is not UTF-8 is no metrics file:
    either raises ConfigError and leaves it as it is."""
    try:
        with open(mpath, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{mpath} is not a metrics file: {e}") from None
    if lines[:1] != [hash_line]:
        head = lines[0].rstrip("\n") if lines else ""
        raise ConfigError(f"{mpath} holds the metrics of another config: its first line"
                          f" is {head!r}, this run writes {hash_line.rstrip()!r}")
    kept = lines[:2] + [line for line in lines[2:] if line.endswith("\n")
                        and (first := line.split(",", 1)[0]).isdigit()
                        and int(first) < step]
    _write_replacing(mpath, [line.encode() for line in kept])


# glibc's mallopt parameters (malloc.h) and the values its own dynamic rule
# reaches once a 32 MB block is freed: blocks under 32 MB come from the
# heap, and up to 64 MB of free heap is kept instead of being trimmed
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8
HEAP_MMAP_THRESHOLD = 32 << 20
HEAP_TRIM_THRESHOLD = 64 << 20


def _keep_freed_heap():
    """Stop the C allocator from handing a train step's temporaries back
    to the kernel.

    Every step frees and reallocates the same tens of MB of arrays. Under
    glibc's starting thresholds they are unmapped or trimmed after each
    step and faulted back in by the next: about 12k minor page faults per
    synthetic_small step. Which regime a step runs in otherwise depends on
    the largest block the process happened to free before it. The kept
    heap is one arena for every thread: a thread arena of its own would
    keep each pool worker's freed blocks (of the training branches, their
    backward sweeps, the next step's views and evaluation) beside the main
    thread's.
    Sets three process-wide allocator parameters; a no-op where libc has
    no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library symbols, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)
    mallopt(M_ARENA_MAX, 1)


def run(cfg: TrainConfig, dataset: Dataset, out_dir, resume=None, on_metrics=None):
    """Train for cfg.epochs over `dataset`, writing per-epoch checkpoints
    and appending one metrics row per step.

    `resume` names a checkpoint written by a run with the same config
    hash. Resumption happens at an epoch boundary and replays the
    remaining epochs exactly as the uninterrupted run would have: the
    checkpoint's epoch must be at most cfg.epochs and its step the first
    step of that epoch, or ConfigError is raised before anything is
    written. Resuming into a directory that holds a metrics.csv requires
    that file to carry the same config hash, and first drops its rows
    from the checkpoint's step on. A fresh run truncates metrics.csv and
    deletes every checkpoint in `out_dir` first; a resumed run deletes
    nothing.

    The steps form one stream of (epoch, batch) pairs across epochs. The
    run's first views are made here; each step then makes the next pair's
    views on the pool beside its own branch sweeps (`train_step`'s
    `prepare`), so the last step of an epoch makes the next epoch's first.
    A step that raises, making those views or otherwise, has changed no
    state and written no row (see `train_step`).
    """
    steps_per_epoch = len(dataset) // cfg.batch_size
    if steps_per_epoch < 1:
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds dataset size {len(dataset)}")
    total_steps = steps_per_epoch * cfg.epochs
    if resume is not None:
        state, ckpt_cfg = load_checkpoint(resume)
        if config_hash(ckpt_cfg) != config_hash(cfg):
            raise ConfigError(f"resume config hash {config_hash(ckpt_cfg)} does not match"
                              f" current {config_hash(cfg)}")
        if state.epoch > cfg.epochs or state.step != state.epoch * steps_per_epoch:
            raise ConfigError(
                f"{resume}: checkpoint at epoch {state.epoch}, step {state.step} is not"
                f" an epoch boundary of this run ({cfg.epochs} epochs of"
                f" {steps_per_epoch} steps)")
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise ConfigError(f"output dir {out_dir} is not writable")

    _keep_freed_heap()
    mpath = metrics_path(out_dir)
    hash_line = f"# config_hash={config_hash(cfg)}\n"
    if resume is not None:
        mode = "a" if os.path.exists(mpath) else "w"
        if mode == "a":
            _drop_rows_from(mpath, state.step, hash_line)
    else:
        state = TrainState.fresh(cfg)
        mode = "w"
        for name in os.listdir(out_dir):  # an earlier run's checkpoints are stale
            if re.fullmatch(r"ckpt_(epoch_\d+|final)\.bin(\.tmp)?", name):
                os.remove(os.path.join(out_dir, name))

    with open(mpath, mode) as mfile:
        if mode == "w":
            mfile.write(hash_line)
            mfile.write(",".join(METRICS_COLUMNS) + "\n")
        stream = ((epoch, batch) for epoch in range(state.epoch, cfg.epochs)
                  for batch in batches(dataset, cfg.batch_size, cfg.seed, epoch))

        def views_of(epoch, batch):  # `make_triplet` looked up at each call
            return make_triplet(batch, cfg.augment, cfg.lambda_mix, epoch, cfg.dtype)

        pair = next(stream, None)  # the (epoch, batch) of the coming step
        views = None if pair is None else views_of(*pair)
        while pair is not None:
            epoch, pair = pair[0], next(stream, None)
            state.epoch = epoch
            prepare = None if pair is None else functools.partial(views_of, *pair)
            metrics, views = train_step(state, views, cfg, total_steps, prepare)
            mfile.write(metrics.row() + "\n")
            if on_metrics is not None:
                on_metrics(metrics)
            if pair is None or pair[0] != epoch:
                state.epoch = epoch + 1
                mfile.flush()  # an epoch's rows reach the file before its checkpoint
                save_checkpoint(state, cfg, checkpoint_path(out_dir, epoch + 1))
    save_checkpoint(state, cfg, os.path.join(out_dir, "ckpt_final.bin"))
    return state
