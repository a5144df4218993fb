"""The per-record augmentation pipeline that `mixsiam.augment` replaced,
kept verbatim as the oracle for the batched one.

Every view, resize and mixture the batched pipeline computes must equal
what these functions give for each record, bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from mixsiam.augment import AugmentConfig, LambdaMixPolicy
from mixsiam.data import ImageRecord
from mixsiam.errors import ConfigError, ShapeError

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


@dataclass(frozen=True)
class ViewTriplet:
    x1: np.ndarray
    x2: np.ndarray
    xm: np.ndarray
    lambda_mix: float
    source_index: int


def view_rng(seed, epoch, source_index, slot):
    """The per-(sample, view) generator; scheduling-independent by keying."""
    return np.random.default_rng([seed, epoch, source_index, slot])


def resize_bilinear(img, out_h, out_w):
    """Half-pixel-centered bilinear resample of a [C, H, W] image.

    Same-size resample is an exact identity (all interpolation weights
    collapse to 0/1 on integer coordinates).
    """
    _, h, w = img.shape
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    y0c, y1c = np.clip(y0, 0, h - 1), np.clip(y0 + 1, 0, h - 1)
    x0c, x1c = np.clip(x0, 0, w - 1), np.clip(x0 + 1, 0, w - 1)
    top = img[:, y0c][:, :, x0c] * (1 - wx) + img[:, y0c][:, :, x1c] * wx
    bot = img[:, y1c][:, :, x0c] * (1 - wx) + img[:, y1c][:, :, x1c] * wx
    return top * (1 - wy) + bot * wy


def gaussian_kernel1d(sigma):
    """Normalized 1-d Gaussian taps with radius ceil(3*sigma)."""
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_blur(img, sigma):
    """Separable Gaussian blur with reflect padding, per channel."""
    k = gaussian_kernel1d(sigma)
    r = (len(k) - 1) // 2
    pad = np.pad(img, ((0, 0), (r, r), (0, 0)), mode="reflect")
    img = sum(k[i] * pad[:, i:i + img.shape[1], :] for i in range(len(k)))
    pad = np.pad(img, ((0, 0), (0, 0), (r, r)), mode="reflect")
    return sum(k[i] * pad[:, :, i:i + img.shape[2]] for i in range(len(k)))


def to_grayscale(img):
    """Replicate the luma channel (0.299, 0.587, 0.114) to all channels."""
    luma = np.tensordot(LUMA, img, axes=(0, 0))
    return np.broadcast_to(luma, img.shape).copy()


def _rotate_hue(img, angle):
    yiq_y = np.tensordot(LUMA, img, axes=(0, 0))
    iq = np.tensordot(_RGB_TO_IQ, img, axes=(1, 0))
    c, s = np.cos(angle), np.sin(angle)
    rot = np.stack([c * iq[0] - s * iq[1], s * iq[0] + c * iq[1]])
    yiq = np.concatenate([yiq_y[None], rot])
    return np.tensordot(_YIQ_TO_RGB, yiq, axes=(1, 0))


def _random_resized_crop(img, cfg, rng):
    _, h, w = img.shape
    frac = rng.uniform(*cfg.crop_scale_range)
    aspect = rng.uniform(*cfg.aspect_ratio_range)
    target_area = frac * h * w
    cw = int(np.clip(round(np.sqrt(target_area * aspect)), 1, w))
    ch = int(np.clip(round(np.sqrt(target_area / aspect)), 1, h))
    top = int(rng.random() * (h - ch + 1))
    left = int(rng.random() * (w - cw + 1))
    crop = img[:, top:top + ch, left:left + cw]
    return resize_bilinear(crop, cfg.output_size, cfg.output_size)


def augment_view(img, cfg: AugmentConfig, rng):
    """One stochastic view of `img` (an ImageRecord or [C, H, W] array).

    Stage order: random resized crop, horizontal flip, color jitter
    (brightness, contrast, saturation, hue — fixed order), grayscale,
    Gaussian blur; the result is clamped to [0, 1].
    """
    x = img.pixels if isinstance(img, ImageRecord) else img
    x = _random_resized_crop(x, cfg, rng)

    if rng.random() < cfg.hflip_prob:
        x = x[:, :, ::-1]

    jitter_gate = rng.random() < cfg.jitter_prob
    sb, sc, ss, sh = cfg.jitter_strengths
    fb = rng.uniform(max(0.0, 1 - sb), 1 + sb)
    fc = rng.uniform(max(0.0, 1 - sc), 1 + sc)
    fs = rng.uniform(max(0.0, 1 - ss), 1 + ss)
    dh = rng.uniform(-sh, sh)
    if jitter_gate:
        x = x * fb
        mean_gray = float(np.tensordot(LUMA, x, axes=(0, 0)).mean())
        x = (x - mean_gray) * fc + mean_gray
        gray = np.tensordot(LUMA, x, axes=(0, 0))[None]
        x = (x - gray) * fs + gray
        x = _rotate_hue(x, 2.0 * np.pi * dh)

    if rng.random() < cfg.grayscale_prob:
        x = to_grayscale(x)

    blur_gate = rng.random() < cfg.blur_prob
    sigma = rng.uniform(*cfg.blur_sigma_range)
    if blur_gate:
        x = gaussian_blur(x, sigma)

    return np.clip(x, 0.0, 1.0)


def mix(x1, x2, lambda_mix):
    """Convex pixel combination lambda*x1 + (1-lambda)*x2.

    Computed with the larger coefficient on its own side, which makes
    mix(a, b, lam) == mix(b, a, 1-lam) hold bitwise (1-lam is exact for
    lam in [0.5, 1]) and the lam in {0, 1} endpoints exact copies.
    """
    if not 0.0 <= lambda_mix <= 1.0:
        raise ConfigError(f"lambda_mix must be in [0,1], got {lambda_mix}")
    if x1.shape != x2.shape:
        raise ShapeError(f"mix: shapes {x1.shape} and {x2.shape} differ")
    if lambda_mix >= 0.5:
        return lambda_mix * x1 + (1.0 - lambda_mix) * x2
    comp = 1.0 - lambda_mix
    return comp * x2 + (1.0 - comp) * x1


def make_triplet(img: ImageRecord, cfg: AugmentConfig, policy: LambdaMixPolicy, epoch: int):
    """Two independent views of `img` plus their mixture.

    Randomness is keyed by (cfg.seed, epoch, img.source_index, slot) with
    slots 0/1 for the views and 2 for the lambda draw, so the triplet is a
    pure function of those four integers.
    """
    x1 = augment_view(img, cfg, view_rng(cfg.seed, epoch, img.source_index, VIEW1_SLOT))
    x2 = augment_view(img, cfg, view_rng(cfg.seed, epoch, img.source_index, VIEW2_SLOT))
    lam = policy.sample(view_rng(cfg.seed, epoch, img.source_index, MIX_SLOT))
    return ViewTriplet(x1=x1, x2=x2, xm=mix(x1, x2, lam),
                       lambda_mix=lam, source_index=img.source_index)
