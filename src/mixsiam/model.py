"""The siamese network: encoder f (conv backbone + 3-layer projection MLP)
and predictor h. One parameter set serves every branch; "branches" exist
only in the loss wiring, so weight sharing is by construction.

Batch-norm running statistics advance once per train-mode forward, so
each of the three branch passes in a training step advances them
(documented behavior for weight-shared siamese training). Given a
`deferred` list, a train-mode forward hands its updates to the list
instead, for the train step to apply once the whole step has succeeded.
The predictor runs in training only: evaluation reads the encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError

IN_CHANNELS = 3  # every dataset is RGB, and color jitter and grayscale need 3
CONV_FORWARD_BLOCK = 16  # samples per eval-mode backbone block


@dataclass(frozen=True)
class ConvStage:
    channels: int
    stride: int = 1

    def __post_init__(self):
        if self.channels < 1 or self.stride < 1:
            raise ConfigError(f"conv stage needs positive channels/stride, got {self}")


@dataclass(frozen=True)
class EncoderSpec:
    """Backbone stages (3x3 convs, BN, ReLU, stride-2 downsamples, global
    average pool) on RGB input, followed by a 3-layer projection MLP whose
    last width is the embedding width. The last projector layer carries
    batch-norm but no nonlinearity.

    The default is sized so that collapse diagnostics stay informative: the
    mean per-dimension std of unit-norm embeddings is bounded by
    1/sqrt(embed_dim), so a >0.1 healthy regime needs embed_dim < 100."""

    stages: tuple = (ConvStage(16), ConvStage(32, 2), ConvStage(64, 2))
    projector: tuple = (32, 32, 32)

    def __post_init__(self):
        if not self.stages:
            raise ConfigError("encoder needs at least one conv stage")
        if len(self.projector) != 3:
            raise ConfigError(f"projector must list exactly 3 layer widths, got {self.projector}")
        if any(w < 1 for w in self.projector):
            raise ConfigError(f"projector widths must be positive, got {self.projector}")

    @property
    def embed_dim(self) -> int:
        """Width of z, shared by every branch and the predictor output."""
        return self.projector[-1]


@dataclass(frozen=True)
class PredictorSpec:
    """Two linear layers embed -> hidden -> embed, where embed is the
    encoder's embedding width; batch-norm and ReLU on the hidden layer only,
    output layer bare (bias, no BN, no ReLU)."""

    hidden_dim: int = 8

    def __post_init__(self):
        if self.hidden_dim < 1:
            raise ConfigError(f"predictor hidden_dim must be positive, got {self.hidden_dim}")


@dataclass
class ModelParams:
    tensors: dict           # name -> Tensor, ordered
    running: dict           # name -> np.ndarray batch-norm buffers
    no_decay: frozenset     # parameter names exempt from weight decay
    encoder: EncoderSpec
    predictor: PredictorSpec

    def named(self):
        return self.tensors.items()


def _uniform(rng, shape, fan_in, dtype):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init(encoder: EncoderSpec, predictor: PredictorSpec, seed: int, dtype=np.float64) -> ModelParams:
    """Deterministic fan-in-uniform initialization.

    Weights ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)); biases and batch-norm
    beta start at zero, gamma at one.
    """
    dtype = np.dtype(dtype)
    rng = np.random.default_rng(seed)
    tensors = {}
    running = {}
    no_decay = set()

    def bn(prefix, width):
        tensors[f"{prefix}.bn.gamma"] = Tensor(np.ones(width, dtype=dtype), requires_grad=True)
        tensors[f"{prefix}.bn.beta"] = Tensor(np.zeros(width, dtype=dtype), requires_grad=True)
        no_decay.update({f"{prefix}.bn.gamma", f"{prefix}.bn.beta"})
        running[f"{prefix}.bn.mean"] = np.zeros(width, dtype=dtype)
        running[f"{prefix}.bn.var"] = np.ones(width, dtype=dtype)

    cin = IN_CHANNELS
    for i, stage in enumerate(encoder.stages):
        shape = (stage.channels, cin, 3, 3)
        tensors[f"backbone.{i}.conv.w"] = Tensor(
            _uniform(rng, shape, cin * 9, dtype), requires_grad=True)
        bn(f"backbone.{i}", stage.channels)
        cin = stage.channels

    width = cin
    for j, out in enumerate(encoder.projector):
        tensors[f"projector.{j}.w"] = Tensor(
            _uniform(rng, (width, out), width, dtype), requires_grad=True)
        bn(f"projector.{j}", out)
        width = out

    embed, hidden = encoder.embed_dim, predictor.hidden_dim
    tensors["predictor.0.w"] = Tensor(
        _uniform(rng, (embed, hidden), embed, dtype), requires_grad=True)
    bn("predictor.0", hidden)
    tensors["predictor.1.w"] = Tensor(
        _uniform(rng, (hidden, embed), hidden, dtype), requires_grad=True)
    tensors["predictor.1.b"] = Tensor(np.zeros(embed, dtype=dtype), requires_grad=True)
    no_decay.add("predictor.1.b")

    return ModelParams(tensors=tensors, running=running, no_decay=frozenset(no_decay),
                       encoder=encoder, predictor=predictor)


def _bn(params, prefix, x, mode, overwrite_x=False, deferred=None):
    return ad.batchnorm(x,
                        params.tensors[f"{prefix}.bn.gamma"],
                        params.tensors[f"{prefix}.bn.beta"],
                        params.running[f"{prefix}.bn.mean"],
                        params.running[f"{prefix}.bn.var"],
                        mode, overwrite_x=overwrite_x, deferred=deferred)


def _backbone(params: ModelParams, h: Tensor, mode: str, deferred=None) -> Tensor:
    """conv2d -> batchnorm -> relu per stage, then global average pool.
    Batchnorm and ReLU consume the intermediate they are given and work in
    its buffer."""
    for i, stage in enumerate(params.encoder.stages):
        h = ad.conv2d(h, params.tensors[f"backbone.{i}.conv.w"], stride=stage.stride, padding=1)
        h = _bn(params, f"backbone.{i}", h, mode, overwrite_x=True, deferred=deferred)
        h = ad.relu(h, overwrite_a=True)
    return ad.global_avg_pool(h)


def encode(params: ModelParams, x, mode: str, deferred=None) -> Tensor:
    """z = f(x): backbone -> global average pool -> projector.

    `x` is a [B, C, H, W] array or Tensor; the output is NOT normalized
    (normalization belongs to the loss). Train mode requires batch >= 2.
    Given a `deferred` list, train mode appends each batchnorm layer's
    running-stat update to it (see ad.batchnorm) instead of applying it.

    Eval mode is forward-only: it runs on detached views of `params` (the
    same buffers), so no call builds a graph and the output carries no
    gradient. Its backbone runs on CONV_FORWARD_BLOCK-sample blocks in
    parallel and concatenates the pooled rows in block order. Each eval
    backbone op works on each sample alone, so the bytes depend on neither
    the split nor the worker count. The projector always runs on the
    whole batch: its 2-D matmul may round by row count. Train mode
    normalizes by whole-batch statistics, so it keeps one full-batch
    backbone pass.
    """
    if not isinstance(x, Tensor):
        x = Tensor(np.asarray(x))
    if x.data.ndim != 4:
        raise ShapeError(f"encode: expected [B, C, H, W], got shape {x.data.shape}")
    if mode == "train" and x.data.shape[0] < 2:
        raise ShapeError(
            f"encode: train mode needs batch size >= 2, got {x.data.shape[0]}")
    if mode == "eval":
        params = replace(params, tensors={n: t.detach() for n, t in params.named()})
        blocks = [Tensor(x.data[start:start + CONV_FORWARD_BLOCK])
                  for start in range(0, x.data.shape[0], CONV_FORWARD_BLOCK)]
        pooled = ad.on_pool(lambda xb: _backbone(params, xb, mode).data, blocks)
        h = Tensor(np.concatenate(pooled))
    else:
        h = _backbone(params, x, mode, deferred)
    for j in range(3):
        h = ad.matmul(h, params.tensors[f"projector.{j}.w"])
        h = _bn(params, f"projector.{j}", h, mode, overwrite_x=True, deferred=deferred)
        if j < 2:
            h = ad.relu(h, overwrite_a=True)
    return h


def predict(params: ModelParams, z: Tensor, deferred=None) -> Tensor:
    """p = h(z): embed -> hidden (BN+ReLU) -> embed (bias only).

    The predictor only runs in training, so its batch-norm always
    normalizes by batch statistics (batch >= 2) and advances the running
    buffers, or appends the update to `deferred` (see ad.batchnorm)."""
    if not isinstance(z, Tensor):
        z = Tensor(np.asarray(z))
    h = ad.matmul(z, params.tensors["predictor.0.w"])
    h = _bn(params, "predictor.0", h, "train", deferred=deferred)
    h = h.relu()
    h = ad.matmul(h, params.tensors["predictor.1.w"])
    return ad.add_bias(h, params.tensors["predictor.1.b"])
