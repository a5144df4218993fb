"""Objective math: negative cosine distance, the symmetrized siamese loss,
feature aggregation, the mixed-branch loss, and the blended total.

Stop-gradient placement is the load-bearing detail throughout: targets are
detached *inside* siam_loss and *after* aggregation for the mixed branch,
so gradients reach the encoder only through the predictor-side paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError

AGGREGATION_KINDS = ("maximum", "average", "none")


@dataclass(frozen=True)
class AggregationStrategy:
    """How the two view embeddings combine into the mixed-branch target z_f.

    "maximum" is the element-wise max, "average" the arithmetic mean, and
    "none" adopts the first view's embedding z1.
    """

    kind: str = "maximum"

    def __post_init__(self):
        if self.kind not in AGGREGATION_KINDS:
            raise ConfigError(f"aggregation kind must be one of {AGGREGATION_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class LossBreakdown:
    """Logged scalars for one step. Values are clamped into the cosine
    range [-1, 1] (normalization rounding can overshoot by ~1e-16), and
    `total` is the float64 blend of the clamped branch losses, so
    total == lam*l_siam + (1-lam)*l_mix holds bitwise."""

    l_siam: float
    l_mix: float
    total: float
    lam: float


def neg_cosine(p: Tensor, z: Tensor) -> Tensor:
    """Mean over the batch of -<p/||p||, z/||z||>.

    Differentiable in both arguments; callers that want a stop-gradient
    target pass a detached z (this op never detaches).
    """
    if p.data.shape != z.data.shape:
        raise ShapeError(f"neg_cosine: shapes {p.data.shape} and {z.data.shape} differ")
    batch = p.data.shape[0]
    dots = ad.tensor_sum(ad.l2_normalize(p) * ad.l2_normalize(z))
    return dots * (-1.0 / batch)


def siam_loss(p1, p2, z1, z2, stop_gradient=True) -> Tensor:
    """Symmetrized siamese loss:
    0.5 * D(p1, detach(z2)) + 0.5 * D(p2, detach(z1)).

    `stop_gradient=False` is the collapse ablation: targets stay attached
    to the graph and gradients flow into both sides.
    """
    t2 = z2.detach() if stop_gradient else z2
    t1 = z1.detach() if stop_gradient else z1
    return neg_cosine(p1, t2) * 0.5 + neg_cosine(p2, t1) * 0.5


def aggregate(z1: Tensor, z2: Tensor, strategy: AggregationStrategy) -> Tensor:
    """z_f from the two view embeddings; mix_loss detaches it."""
    if strategy.kind == "maximum":
        return ad.maximum(z1, z2)
    if strategy.kind == "average":
        return (z1 + z2) * 0.5
    return z1


def mix_loss(p_m: Tensor, z_f: Tensor, stop_gradient=True) -> Tensor:
    """Mixed-branch loss D(p_m, detach(z_f)).

    `stop_gradient=False` is the collapse ablation, as in siam_loss: the
    target stays attached and gradients flow into z_f too.
    """
    return neg_cosine(p_m, z_f.detach() if stop_gradient else z_f)


def total_loss(l_siam: Tensor, l_mix: Tensor, lam: float):
    """Blend: total = lam * l_siam + (1 - lam) * l_mix.

    Returns the differentiable total plus the logged LossBreakdown. At
    lam == 1 the tensor total equals l_siam bitwise (the mixed branch
    contributes an exact zero), and symmetrically at lam == 0.
    """
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"lambda must be in [0,1], got {lam}")
    total = l_siam * lam + l_mix * (1.0 - lam)
    ls = min(max(float(l_siam.data), -1.0), 1.0)
    lm = min(max(float(l_mix.data), -1.0), 1.0)
    return total, LossBreakdown(l_siam=ls, l_mix=lm,
                                total=lam * ls + (1.0 - lam) * lm, lam=lam)
