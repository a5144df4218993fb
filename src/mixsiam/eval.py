"""Frozen-encoder evaluation: feature extraction, a k-NN probe, a linear
probe, and the packaged EvalReport.

Both probes treat the encoder as read-only — evaluate() checksums the
parameters before and after and refuses to return if they moved. The k-NN
probe is exactly reproducible: similarity ties resolve by training-set
order and vote ties by smallest class id, so there is no hidden entropy.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .augment import resize_bilinear
from .autodiff import Tensor
from .data import Dataset, SyntheticConfig, load_cifar10, make_synthetic, stack_pixels
from .errors import ConfigError, ShapeError, TrainingAborted
from .model import ModelParams, encode, init
from .train import (
    DatasetConfig,
    TrainConfig,
    config_to_dict,
    cosine_lr,
    embedding_std,
)


@dataclass(frozen=True)
class ProbeConfig:
    k: int = 20
    linear_lr: float = 0.02
    linear_momentum: float = 0.9
    linear_batch: int = 256
    linear_epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"probe k must be >= 1, got {self.k}")
        if self.linear_lr <= 0:
            raise ConfigError(f"linear_lr must be > 0, got {self.linear_lr}")
        if self.linear_batch < 1:
            raise ConfigError(f"linear_batch must be >= 1, got {self.linear_batch}")
        if self.linear_epochs < 1:
            raise ConfigError(f"linear_epochs must be >= 1, got {self.linear_epochs}")


@dataclass(frozen=True)
class EvalReport:
    knn_top1: float
    linear_top1: float
    embedding_std: float
    per_class_accuracy: dict    # class id -> {count, knn, linear}
    config: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "knn_top1": self.knn_top1,
            "linear_top1": self.linear_top1,
            "embedding_std": self.embedding_std,
            "per_class_accuracy": {str(c): dict(v)
                                   for c, v in self.per_class_accuracy.items()},
            "config": self.config,
        }


def params_checksum(params: ModelParams) -> str:
    """Order-sensitive digest of every parameter and running buffer."""
    h = hashlib.sha256()
    for name, t in params.named():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    for name, arr in params.running.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def extract_features(params: ModelParams, dataset: Dataset, output_size=None,
                     batch_size=256):
    """Eval-mode embeddings for every record, in dataset order.

    No augmentation is applied; when `output_size` differs from the stored
    image size the only transform is a bilinear resize. Returns a pair
    ([N, embed_dim] array, [N] label array); the features are independent
    of batch_size because eval-mode batchnorm reads the running buffers.
    The encoder runs on detached views of the parameters (same buffers),
    so no batch builds a differentiation graph.
    """
    frozen = replace(params, tensors={name: t.detach() for name, t in params.named()})
    first = next(iter(params.named()))[1]
    dtype = first.data.dtype
    resize = (output_size is not None
              and dataset.image_shape[1:] != (output_size, output_size))
    chunks = []
    records = dataset.records
    for start in range(0, len(records), batch_size):
        batch = records[start:start + batch_size]
        if resize:
            x = np.stack([resize_bilinear(r.pixels, output_size, output_size)
                          for r in batch]).astype(dtype)
        else:
            x = stack_pixels(batch, dtype)
        chunks.append(encode(frozen, x, "eval").data)
    return np.concatenate(chunks, axis=0), dataset.labels()


# -- k-NN probe --------------------------------------------------------------

KNN_CHUNK = 256  # query rows ranked per similarity block


def _normalized(feats, name):
    f = np.asarray(feats, dtype=np.float64)
    if f.ndim != 2:
        raise ShapeError(f"{name}: expected [N, D] features, got shape {f.shape}")
    if f.shape[0] == 0:
        raise ConfigError(f"{name}: empty feature set")
    norms = np.maximum(np.linalg.norm(f, axis=1, keepdims=True), ad.L2_NORM_EPS)
    return f / norms


def knn_predict(train_feats, train_labels, test_feats, k=20, class_count=None):
    """Majority vote over the k most cosine-similar training features.

    Deterministic by construction: similarity ties keep training-set
    order (the neighbours a stable sort would rank first) and vote ties
    go to the smallest class id.
    """
    tn = _normalized(train_feats, "knn train")
    qn = _normalized(test_feats, "knn test")
    labels = np.asarray(train_labels)
    if labels.shape != (tn.shape[0],):
        raise ShapeError(
            f"knn: {tn.shape[0]} training rows but labels shape {labels.shape}")
    if not 1 <= k <= tn.shape[0]:
        raise ConfigError(f"knn: k={k} outside [1, {tn.shape[0]}]")
    if labels.min() < 0:
        raise ConfigError("knn: training labels must be non-negative")
    classes = max(int(class_count or 0), int(labels.max()) + 1)

    # Queries are ranked KNN_CHUNK rows at a time, so the similarity matrix
    # stays [KNN_CHUNK, N_train] instead of [N_test, N_train]; a GEMM row has
    # the same bits whatever the row count. A one-row product runs as a
    # GEMV, which rounds differently, so a one-row tail joins the chunk
    # before it. Negating tn rather than the product is exact.
    n = qn.shape[0]
    starts = [s for s in range(0, n, KNN_CHUNK) if s == 0 or n - s > 1]
    neg_tn_t = -tn.T
    preds = np.empty(n, dtype=np.int64)
    for start, stop in zip(starts, starts[1:] + [n]):
        nearest = _k_smallest(qn[start:stop] @ neg_tn_t, k)
        rows, cols = np.divmod(np.flatnonzero(nearest), tn.shape[0])
        counts = np.bincount(rows * classes + labels[cols],
                             minlength=(stop - start) * classes)
        # first maximum = smallest class id
        preds[start:stop] = np.argmax(counts.reshape(-1, classes), axis=1)
    return preds


def _k_smallest(d, k):
    """Boolean mask of the k entries of each row of `d` that a stable
    ascending sort puts first: every entry below the row's k-th smallest
    value, then the earliest-indexed entries equal to it.

    A partial selection (np.partition) finds the k-th value; only rows
    with surplus ties at it pay for a running count. Rows whose k-th value
    is NaN (sorted last, and never equal to itself) take the sort.
    """
    kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
    mask = d <= kth
    surplus = np.flatnonzero(np.count_nonzero(mask, axis=1) > k)
    if surplus.size:
        ds, ks = d[surplus], kth[surplus]
        ties = ds == ks
        below = ds < ks
        need = k - np.count_nonzero(below, axis=1, keepdims=True)
        mask[surplus] = below | (ties & (np.cumsum(ties, axis=1) <= need))
    nan_rows = np.flatnonzero(np.isnan(kth[:, 0]))
    if nan_rows.size:
        order = np.argsort(d[nan_rows], axis=1, kind="stable")[:, :k]
        mask[nan_rows] = False
        mask[nan_rows[:, None], order] = True
    return mask


def knn_probe(train_feats, train_labels, test_feats, test_labels, k=20) -> float:
    preds = knn_predict(train_feats, train_labels, test_feats, k=k)
    return float(np.mean(preds == np.asarray(test_labels)))


# -- linear probe ------------------------------------------------------------


def linear_probe(train_feats, train_labels, test_feats, test_labels,
                 class_count, probe: ProbeConfig = ProbeConfig()):
    """Softmax regression on frozen features.

    One linear layer trained with SGD + momentum under a cosine schedule;
    no weight decay. The final (short) batch of each epoch is kept — there
    is no batch statistic anywhere in the probe to make it degenerate.
    Returns (top-1 accuracy, predictions).
    """
    X = np.asarray(train_feats, dtype=np.float64)
    y = np.asarray(train_labels)
    Xt = np.asarray(test_feats, dtype=np.float64)
    yt = np.asarray(test_labels)
    if X.ndim != 2 or Xt.ndim != 2:
        raise ShapeError("linear probe: features must be [N, D]")
    if X.shape[0] == 0 or Xt.shape[0] == 0:
        raise ConfigError("linear probe: empty feature set")
    n, dim = X.shape

    w = Tensor(np.zeros((dim, class_count)), requires_grad=True)
    b = Tensor(np.zeros(class_count), requires_grad=True)
    vel = {"w": np.zeros_like(w.data), "b": np.zeros_like(b.data)}
    steps_per_epoch = -(-n // probe.linear_batch)
    total_steps = steps_per_epoch * probe.linear_epochs
    momentum = np.float64(probe.linear_momentum)

    step = 0
    for epoch in range(probe.linear_epochs):
        perm = np.random.default_rng([probe.seed, epoch]).permutation(n)
        for start in range(0, n, probe.linear_batch):
            idx = perm[start:start + probe.linear_batch]
            logits = ad.add_bias(ad.matmul(Tensor(X[idx]), w), b)
            loss = ad.softmax_cross_entropy(logits, y[idx])
            if not np.isfinite(loss.data):
                raise TrainingAborted(
                    f"linear probe: non-finite loss at step {step}")
            ad.backward(loss)
            lr = np.float64(cosine_lr(step, total_steps, probe.linear_lr))
            for t, buf in ((w, vel["w"]), (b, vel["b"])):
                buf *= momentum
                buf += t.grad
                t.data -= lr * buf
                t.grad = None
            step += 1

    preds = np.argmax(Xt @ w.data + b.data, axis=1)
    return float(np.mean(preds == yt)), preds


# -- packaged evaluation -----------------------------------------------------


def eval_datasets(dataset_cfg: DatasetConfig):
    """(train, held-out test) pair for a dataset config.

    Synthetic data holds out a fresh half-sized draw under a shifted seed;
    cifar10 uses the file-level train/test split.
    """
    train = dataset_cfg.build()
    if dataset_cfg.kind == "synthetic":
        return train, make_synthetic(SyntheticConfig(
            classes=dataset_cfg.classes,
            per_class=max(1, dataset_cfg.per_class // 2),
            size=dataset_cfg.size, seed=dataset_cfg.seed + 1))
    return train, load_cifar10(dataset_cfg.dir, split="test")


def evaluate(params: ModelParams, cfg: TrainConfig, train_ds: Dataset,
             test_ds: Dataset, probe: ProbeConfig = ProbeConfig()) -> EvalReport:
    """Run both probes on frozen features and package the result.

    The per-class accuracies are exact decompositions: their count-weighted
    average reproduces the top-1 numbers.
    """
    before = params_checksum(params)
    size = cfg.augment.output_size
    feats_train, y_train = extract_features(params, train_ds, output_size=size)
    feats_test, y_test = extract_features(params, test_ds, output_size=size)

    k = min(probe.k, feats_train.shape[0])
    knn_preds = knn_predict(feats_train, y_train, feats_test, k=k,
                            class_count=test_ds.class_count)
    lin_top1, lin_preds = linear_probe(
        feats_train, y_train, feats_test, y_test,
        class_count=test_ds.class_count, probe=probe)

    per_class = {}
    for c in range(test_ds.class_count):
        mask = y_test == c
        count = int(mask.sum())
        per_class[c] = {
            "count": count,
            "knn": float(np.mean(knn_preds[mask] == c)) if count else 0.0,
            "linear": float(np.mean(lin_preds[mask] == c)) if count else 0.0,
        }

    after = params_checksum(params)
    if after != before:
        raise RuntimeError("evaluation mutated the encoder parameters")
    return EvalReport(
        knn_top1=float(np.mean(knn_preds == y_test)),
        linear_top1=lin_top1,
        embedding_std=embedding_std(feats_test),
        per_class_accuracy=per_class,
        config=config_to_dict(cfg),
    )


def random_baseline_report(cfg: TrainConfig, train_ds: Dataset, test_ds: Dataset,
                           probe: ProbeConfig = ProbeConfig(), seed_offset=1) -> EvalReport:
    """The same evaluation on a freshly initialized (untrained) encoder."""
    params = init(cfg.encoder, cfg.predictor, seed=cfg.seed + seed_offset,
                  dtype=cfg.dtype)
    return evaluate(params, cfg, train_ds, test_ds, probe)


def write_report(report: EvalReport, path, **extra):
    """report.json: the report plus any `extra` top-level keys, sorted."""
    with open(path, "w") as f:
        json.dump({**report.to_json(), **extra}, f, indent=2, sort_keys=True)
        f.write("\n")


def write_per_class_csv(report: EvalReport, path):
    with open(path, "w") as f:
        f.write("class,count,knn,linear\n")
        for c in sorted(report.per_class_accuracy):
            row = report.per_class_accuracy[c]
            f.write(f"{c},{row['count']},{row['knn']!r},{row['linear']!r}\n")
