"""Stochastic view generation and linear image mixture, over whole batches.

Each training image yields a (x1, x2, xm) triplet: two independently
augmented views plus their convex pixel-space combination. All randomness
comes from numpy Generators keyed by (seed, epoch, source_index, slot),
so a sample's views never depend on batch composition or worker order.

A view's generator is consumed by a fixed 13-draw schedule, one
`rng.random(13)` read as (crop fraction, aspect, top, left, flip gate,
jitter gate, brightness, contrast, saturation, hue, grayscale gate, blur
gate, sigma), whether or not each gated stage fires. A ranged parameter
is `lo + (hi - lo) * u`, the bits `rng.uniform(lo, hi)` would give.

`augment_view` runs each stage once over the batch, in this order:
random resized crop plus bilinear resize (one gather with per-sample
windows), horizontal flip, color jitter (brightness, contrast,
saturation, hue; fixed order), grayscale, Gaussian blur, clip to [0, 1].
Flip, jitter and grayscale are masked batch ops: they run on every
sample, with per-sample factors broadcast, and are kept where the
sample's gate fired. Blur runs once per radius ceil(3*sigma) over the
samples of that radius, each summed from +0.0 over its own taps in order.
Every value equals the one a per-sample pipeline computes, bit for bit.

Layout rule for the three-channel dot products, which OpenBLAS rounds
differently depending on the operand's memory: the hue stage's luma and
chroma products read an operand whose channel is the fastest axis
([B, H, W, C] memory), while every other luma product is a GEMV over one
sample's C-order [C, H*W] plane. A batched GEMV over [C, B*H*W] is not
used: its kernel rounds some trailing pixels of a sample differently
when H*W is odd. Arrays pass between stages channel-major, [C, B, H, W]
in memory; the public functions take and return [B, C, H, W]-shaped
arrays (views of that memory), and `make_triplet` returns C-order copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import stack_pixels
from .errors import ConfigError, ShapeError

LUMA = np.array([0.299, 0.587, 0.114])

# RGB <-> YIQ, used for hue rotation (chroma-plane rotation).
_RGB_TO_IQ = np.array([[0.595716, -0.274453, -0.321263],
                       [0.211456, -0.522591, 0.088985]])
_YIQ_TO_RGB = np.array([[1.0, 0.9563, 0.6210],
                        [1.0, -0.2721, -0.6474],
                        [1.0, -1.1070, 1.7046]])

VIEW1_SLOT = 0
VIEW2_SLOT = 1
MIX_SLOT = 2

VIEW_DRAWS = 13  # per-view schedule length; see the module docstring


@dataclass(frozen=True)
class AugmentConfig:
    crop_scale_range: tuple = (0.2, 1.0)
    output_size: int = 32
    hflip_prob: float = 0.5
    jitter_prob: float = 0.8
    jitter_strengths: tuple = (0.4, 0.4, 0.4, 0.1)
    grayscale_prob: float = 0.2
    blur_prob: float = 0.5
    blur_sigma_range: tuple = (0.1, 2.0)
    aspect_ratio_range: tuple = (3 / 4, 4 / 3)
    seed: int = 0

    def __post_init__(self):
        for name in ("crop_scale_range", "blur_sigma_range", "aspect_ratio_range"):
            if len(getattr(self, name)) != 2:
                raise ConfigError(f"{name} must be a (lo, hi) pair, got {getattr(self, name)}")
        lo, hi = self.crop_scale_range
        if not 0 < lo <= hi <= 1:
            raise ConfigError(f"crop_scale_range must satisfy 0 < lo <= hi <= 1, got {self.crop_scale_range}")
        if self.output_size < 8:
            raise ConfigError(f"output_size must be >= 8, got {self.output_size}")
        for name in ("hflip_prob", "jitter_prob", "grayscale_prob", "blur_prob"):
            p = getattr(self, name)
            if not 0 <= p <= 1:
                raise ConfigError(f"{name} must be in [0,1], got {p}")
        if len(self.jitter_strengths) != 4 or any(s < 0 for s in self.jitter_strengths):
            raise ConfigError(f"jitter_strengths must be 4 nonnegative reals, got {self.jitter_strengths}")
        blo, bhi = self.blur_sigma_range
        if not 0 < blo <= bhi:
            raise ConfigError(f"blur_sigma_range must satisfy 0 < lo <= hi, got {self.blur_sigma_range}")
        alo, ahi = self.aspect_ratio_range
        if not 0 < alo <= ahi:
            raise ConfigError(f"aspect_ratio_range must satisfy 0 < lo <= hi, got {self.aspect_ratio_range}")
        if self.seed < 0:
            raise ConfigError(f"augment seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class LambdaMixPolicy:
    """How lambda_mix is drawn per sample.

    kind "fixed" always returns `value`; "pick_view" returns 0.0 or 1.0
    with equal probability, which makes the mixed image an exact copy of
    one augmented view (the no-mixture ablation: one of the augmented
    images is selected at random).
    """

    kind: str = "fixed"
    value: float = 0.5

    def __post_init__(self):
        if self.kind not in ("fixed", "pick_view"):
            raise ConfigError(f"lambda_mix policy kind must be fixed|pick_view, got {self.kind!r}")
        if not 0 <= self.value <= 1:
            raise ConfigError(f"lambda_mix value must be in [0,1], got {self.value}")

    def sample(self, rng):
        if self.kind == "fixed":
            return float(self.value)
        return float(rng.integers(0, 2))

    def draw(self, seed, epoch, sources):
        """[B] lambda_mix, sample b's from the generator keyed by
        (seed, epoch, sources[b], MIX_SLOT)."""
        if self.kind == "fixed":  # draws nothing, so builds no generator
            return np.full(len(sources), float(self.value))
        return np.array([self.sample(view_rng(seed, epoch, i, MIX_SLOT)) for i in sources])


@dataclass(frozen=True)
class ViewTriplet:
    """A batch's views: x1, x2, xm are C-order [B, C, S, S]; lambda_mix
    and source_index hold one entry per sample."""

    x1: np.ndarray
    x2: np.ndarray
    xm: np.ndarray
    lambda_mix: np.ndarray
    source_index: np.ndarray


def view_rng(seed, epoch, source_index, slot):
    """The per-(sample, view) generator; scheduling-independent by keying."""
    return np.random.default_rng([seed, epoch, source_index, slot])


def _channel_major(images):
    """The [C, B, H, W] view of a [B, C, H, W] array, and back."""
    return images.transpose(1, 0, 2, 3)


def _bilinear_taps(extent, size):
    """Per-sample source rows (or columns) and weights of a half-pixel
    centered resample of `extent` pixels to `size`: ([B, size] x 3)."""
    coords = (np.arange(size) + 0.5) * (extent / size)[:, None] - 0.5
    i0 = np.floor(coords).astype(np.int64)
    last = (extent - 1)[:, None]
    return np.clip(i0, 0, last), np.clip(i0 + 1, 0, last), coords - i0


def resize_bilinear(images, size, windows=None):
    """Half-pixel-centered bilinear resample of each image's crop window
    to size x size: [B, C, H, W] -> [B, C, size, size].

    `windows` is an int [B, 4] array of (top, left, height, width), the
    whole image when None. Same-size resample of a whole image is an
    exact identity (all interpolation weights collapse to 0/1).
    """
    b, c, h, w = images.shape
    if windows is None:
        windows = np.tile(np.array([0, 0, h, w], dtype=np.int64), (b, 1))
    first_row, first_col, height, width = np.asarray(windows, dtype=np.int64).T
    y0, y1, wy = _bilinear_taps(height, size)
    x0, x1, wx = _bilinear_taps(width, size)
    src = np.ascontiguousarray(_channel_major(images)).reshape(c, b * h * w)
    base = (np.arange(b) * (h * w) + first_row * w)[:, None, None]
    col0 = (first_col[:, None] + x0)[:, None, :]
    col1 = (first_col[:, None] + x1)[:, None, :]
    wx = wx[None, :, None, :]

    def along_row(rows, weight):
        """(c0*(1-wx) + c1*wx) * weight over the source rows `rows`."""
        out = np.take(src, base + rows[:, :, None] * w + col0, axis=1)
        out *= 1 - wx
        right = np.take(src, base + rows[:, :, None] * w + col1, axis=1)
        right *= wx
        out += right
        out *= weight[None, :, :, None]
        return out
    top = along_row(y0, 1 - wy)
    top += along_row(y1, wy)
    return _channel_major(top)


def gaussian_kernel1d(sigma):
    """Normalized 1-d Gaussian taps with radius ceil(3*sigma)."""
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _reflect_index(n, r):
    """Source index of each position of an axis of n padded by r on both
    sides in np.pad's "reflect" mode (mirror about the edge pixels)."""
    period = 2 * (n - 1)
    i = np.abs(np.arange(-r, n + r)) % period
    return np.where(i < n, i, period - i)


def _blur_rows(x, taps):
    """Reflect-padded 1-d convolution along axis 2 of x [C, n, H, W],
    sample b with the taps in row b of taps [n, 2r+1].

    Each sum starts from +0.0 and adds the sample's own taps in order, as
    a per-image Python sum(...) over the taps does. Returns a C-order array.
    """
    h = x.shape[2]
    r = taps.shape[1] // 2
    pad = np.take(x, _reflect_index(h, r), axis=2)
    acc = np.zeros(x.shape)
    for i in range(2 * r + 1):
        acc += taps[:, i][None, :, None, None] * pad[:, :, i:i + h]
    return acc


def gaussian_blur(images, sigmas):
    """Separable Gaussian blur with reflect padding, per channel, with
    sample b blurred at sigmas[b]; a sigma of 0 leaves the sample as it
    is: [B, C, H, W] -> [B, C, H, W].

    The samples that share a radius ceil(3*sigma) are blurred together,
    each with its own taps. Padding every kernel to one common radius with
    zero taps gives the same bits, but costs time on the narrow kernels.
    The column pass runs on the transposed rows, so that both passes read
    contiguous windows.
    """
    x = _channel_major(images)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    radii = np.where(sigmas > 0, np.ceil(3.0 * sigmas), 0).astype(np.int64)
    out = np.array(x, order="C")
    for r in np.unique(radii[radii > 0]):
        group = np.flatnonzero(radii == r)
        taps = np.stack([gaussian_kernel1d(s) for s in sigmas[group]])
        rows = _blur_rows(np.take(x, group, axis=1), taps)
        out[:, group] = _blur_rows(rows.transpose(0, 1, 3, 2), taps).transpose(0, 1, 3, 2)
    return _channel_major(out)


def _luma_planes(x):
    """[B, H*W] luma of channel-major x [3, B, H, W], one GEMV per sample
    (see the layout rule in the module docstring)."""
    row = LUMA[None]
    out = np.empty((x.shape[1], x.shape[2] * x.shape[3]))
    for b in range(x.shape[1]):
        np.dot(row, x[:, b].reshape(3, -1), out=out[b:b + 1])
    return out


def to_grayscale(images):
    """Replicate the luma channel (0.299, 0.587, 0.114) to all channels."""
    x = _channel_major(images)
    luma = _luma_planes(x).reshape(x.shape[1:])
    return _channel_major(np.broadcast_to(luma, x.shape).copy())


def _rotate_hue(x, angle):
    """Rotate the YIQ chroma plane of channel-major x by per-sample
    `angle`. x must have [B, H, W, C] memory: the luma and chroma products
    then read a channel-fastest [3, B*H*W] operand."""
    _, n, h, w = x.shape
    flat = x.transpose(1, 2, 3, 0).reshape(-1, 3).T
    yiq_y = np.tensordot(LUMA, flat, axes=(0, 0))
    iq = np.tensordot(_RGB_TO_IQ, flat, axes=(1, 0)).reshape(2, n, h * w)
    c, s = np.cos(angle)[:, None], np.sin(angle)[:, None]
    yiq = np.empty((3, n, h * w))
    yiq[0] = yiq_y.reshape(n, h * w)
    np.multiply(c, iq[0], out=yiq[1])
    yiq[1] -= s * iq[1]
    np.multiply(s, iq[0], out=yiq[2])
    yiq[2] += c * iq[1]
    return np.tensordot(_YIQ_TO_RGB, yiq.reshape(3, -1), axes=(1, 0)).reshape(3, n, h, w)


def _color_jitter(x, fb, fc, fs, dh):
    """Brightness, contrast, saturation and hue on channel-major x with
    per-sample factors, in place where it can; returns channel-major
    [3, B, H, W]."""
    _, b, h, w = x.shape

    def per_sample(v):
        return v[None, :, None, None]
    x *= per_sample(fb)
    mean_gray = per_sample(_luma_planes(x).mean(axis=1))
    x -= mean_gray
    x *= per_sample(fc)
    x += mean_gray
    gray = _luma_planes(x).reshape(1, b, h, w)
    hwc = np.empty((b, h, w, 3)).transpose(3, 0, 1, 2)
    np.subtract(x, gray, out=hwc)
    hwc *= per_sample(fs)
    hwc += gray
    return _rotate_hue(hwc, 2.0 * np.pi * dh)


def _uniform(u, lo, hi):
    lo, hi = float(lo), float(hi)
    return lo + (hi - lo) * u


def _crop_windows(u, cfg, h, w):
    """[B, 4] (top, left, height, width) random-resized-crop windows."""
    frac = _uniform(u[:, 0], *cfg.crop_scale_range)
    aspect = _uniform(u[:, 1], *cfg.aspect_ratio_range)
    area = frac * h * w
    cw = np.clip(np.rint(np.sqrt(area * aspect)), 1, w).astype(np.int64)
    ch = np.clip(np.rint(np.sqrt(area / aspect)), 1, h).astype(np.int64)
    top = (u[:, 2] * (h - ch + 1)).astype(np.int64)
    left = (u[:, 3] * (w - cw + 1)).astype(np.int64)
    return np.stack([top, left, ch, cw], axis=1)


def augment_view(images, cfg: AugmentConfig, rngs):
    """One stochastic view of each image of the [B, C, H, W] batch
    `images`; sample b draws its 13 parameters from rngs[b].

    Stage order: random resized crop, horizontal flip, color jitter
    (brightness, contrast, saturation, hue — fixed order), grayscale,
    Gaussian blur; the result is clamped to [0, 1]. Returns
    [B, C, S, S] float64 with S = cfg.output_size.
    """
    _, _, h, w = images.shape
    u = np.empty((len(rngs), VIEW_DRAWS))
    for row, rng in zip(u, rngs):
        rng.random(out=row)
    views = resize_bilinear(images, cfg.output_size, _crop_windows(u, cfg, h, w))
    x = _channel_major(views)

    def keep_where(gate, stage_output):
        np.copyto(x, stage_output, where=gate[None, :, None, None])

    flip = u[:, 4] < cfg.hflip_prob
    if flip.any():
        keep_where(flip, x[:, :, :, ::-1].copy())

    jitter = u[:, 5] < cfg.jitter_prob
    if jitter.any():
        sb, sc, ss, sh = cfg.jitter_strengths
        keep_where(jitter, _color_jitter(
            x.copy(),
            _uniform(u[:, 6], max(0.0, 1 - sb), 1 + sb),
            _uniform(u[:, 7], max(0.0, 1 - sc), 1 + sc),
            _uniform(u[:, 8], max(0.0, 1 - ss), 1 + ss),
            _uniform(u[:, 9], -sh, sh)))

    gray = u[:, 10] < cfg.grayscale_prob
    if gray.any():
        keep_where(gray, _channel_major(to_grayscale(views)))

    blur = u[:, 11] < cfg.blur_prob
    if blur.any():
        views = gaussian_blur(views, np.where(blur, _uniform(u[:, 12], *cfg.blur_sigma_range), 0.0))
        x = _channel_major(views)

    np.clip(x, 0.0, 1.0, out=x)
    return views


def mix(x1, x2, lambda_mix):
    """Per-sample convex combination lambda[b]*x1[b] + (1-lambda[b])*x2[b]
    of two batches of the same shape.

    Computed with the larger coefficient on its own side, which makes
    mix(a, b, lam) == mix(b, a, 1-lam) hold bitwise (1-lam is exact for
    lam in [0.5, 1]) and the lam in {0, 1} endpoints exact copies.
    """
    lam = np.asarray(lambda_mix, dtype=np.float64)
    if x1.shape != x2.shape:
        raise ShapeError(f"mix: shapes {x1.shape} and {x2.shape} differ")
    if lam.shape != x1.shape[:1]:
        raise ShapeError(f"mix: {lam.shape} lambdas for a batch of shape {x1.shape}")
    if not np.all((lam >= 0.0) & (lam <= 1.0)):
        raise ConfigError(f"lambda_mix must be in [0,1], got {lam}")
    per_sample = (-1,) + (1,) * (x1.ndim - 1)
    comp = 1.0 - lam
    own = np.where(lam >= 0.5, lam, 1.0 - comp)
    return own.reshape(per_sample) * x1 + comp.reshape(per_sample) * x2


def make_triplet(records, cfg: AugmentConfig, policy: LambdaMixPolicy, epoch: int,
                 dtype=np.float64):
    """Two independent views of each record plus their mixture.

    Randomness is keyed by (cfg.seed, epoch, record.source_index, slot)
    with slots 0/1 for the views and 2 for the lambda draw, so a sample's
    triplet is a pure function of those four integers. The views are
    mixed in float64 and cast to `dtype` once.
    """
    sources = [r.source_index for r in records]
    size = cfg.output_size
    out = np.empty((3, len(sources), 3, size, size), dtype=dtype)  # x1, x2, xm of RGB views
    images = stack_pixels(records)
    x1 = augment_view(images, cfg, [view_rng(cfg.seed, epoch, i, VIEW1_SLOT) for i in sources])
    x2 = augment_view(images, cfg, [view_rng(cfg.seed, epoch, i, VIEW2_SLOT) for i in sources])
    lam = policy.draw(cfg.seed, epoch, sources)
    out[0], out[1], out[2] = x1, x2, mix(x1, x2, lam)
    return ViewTriplet(x1=out[0], x2=out[1], xm=out[2],
                       lambda_mix=lam, source_index=np.array(sources, dtype=np.int64))
