"""Dataset ingestion and generation: CIFAR-10 binary batches, a synthetic
grating dataset for fast controlled experiments, and epoch batching.

Pixels are channel-first in [0,1]. A CIFAR-10 record keeps its raw bytes
(uint8, 3072 per image) and reads byte b as exactly b/255.0 in float64, so
every consumer sees the bytes a float64 parse would give; the writer puts
the stored bytes back unchanged. Synthetic records store float64.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 1024 pixel bytes
CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR_TEST_FILES = ("test_batch.bin",)
CIFAR_CLASSES = 10

# synthetic gratings: cycles across the image (shared by all classes), the
# per-sample phase jitter in radians (uniform in [-j, +j]) and pixel noise
SYNTHETIC_FREQUENCY = 3.0
SYNTHETIC_PHASE_JITTER = 0.6
SYNTHETIC_NOISE_SIGMA = 0.02


@dataclass(frozen=True)
class ImageRecord:
    """One labeled image. `stored` is [C, H, W]: float pixels in [0,1], or
    raw uint8 bytes b, which `pixels` reads as b/255.0."""

    stored: np.ndarray
    label: int
    source_index: int

    def __init__(self, pixels, label, source_index):
        object.__setattr__(self, "stored", pixels)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "source_index", source_index)

    @property
    def pixels(self):
        """[C, H, W] pixels in [0,1]; float64 for byte-stored records."""
        return self.stored / 255.0 if self.stored.dtype == np.uint8 else self.stored


@dataclass
class Dataset:
    records: list[ImageRecord]
    class_count: int
    name: str

    def __post_init__(self):
        if not self.records:
            raise ConfigError(f"dataset {self.name!r} is empty")
        shape = self.image_shape
        for r in self.records:
            if r.stored.shape != shape:
                raise ConfigError(
                    f"dataset {self.name!r}: record {r.source_index} has shape"
                    f" {r.stored.shape}, expected {shape}")
            if not 0 <= r.label < self.class_count:
                raise ConfigError(
                    f"dataset {self.name!r}: record {r.source_index} has label"
                    f" {r.label}, class_count {self.class_count}")

    def __len__(self):
        return len(self.records)

    @property
    def image_shape(self):
        return self.records[0].stored.shape

    def labels(self):
        return np.array([r.label for r in self.records], dtype=np.int64)


def _parse_cifar_file(path, start_index=0):
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except FileNotFoundError:
        raise ParseError(f"{path}: file not found") from None
    extra = len(raw) % CIFAR_RECORD_BYTES
    if extra or not raw:
        raise ParseError(
            f"{path}: truncated record at byte offset {len(raw) - extra}"
            f" ({extra} trailing bytes, need {CIFAR_RECORD_BYTES})")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = arr[:, 0]
    bad = np.nonzero(labels >= CIFAR_CLASSES)[0]
    if bad.size:
        i = int(bad[0])
        raise ParseError(
            f"{path}: label byte {labels[i]} > {CIFAR_CLASSES - 1}"
            f" at byte offset {i * CIFAR_RECORD_BYTES}")
    # copy the pixel bytes out, so the file buffer and its labels can be freed
    pixels = np.ascontiguousarray(arr[:, 1:]).reshape(-1, 3, 32, 32)
    return [
        ImageRecord(pixels=pixels[i], label=int(labels[i]), source_index=start_index + i)
        for i in range(pixels.shape[0])
    ]


def load_cifar10(dir_path, split="train", files=None):
    """Parse CIFAR-10 binary batch files from `dir_path`.

    Each 3073-byte record is one label byte then 1024 red, 1024 green and
    1024 blue bytes, row-major 32x32. `files` overrides the conventional
    per-split names.
    """
    if files is None:
        if split == "train":
            files = CIFAR_TRAIN_FILES
        elif split == "test":
            files = CIFAR_TEST_FILES
        else:
            raise ConfigError(f"load_cifar10: unknown split {split!r}")
    records = []
    for name in files:
        records.extend(_parse_cifar_file(os.path.join(dir_path, name),
                                         start_index=len(records)))
    return Dataset(records=records, class_count=CIFAR_CLASSES, name=f"cifar10-{split}")


def write_cifar10_batch(records, path):
    """Write records back to the binary batch layout (inverse of the parser)."""
    out = np.empty((len(records), CIFAR_RECORD_BYTES), dtype=np.uint8)
    for i, r in enumerate(records):
        if r.stored.shape != (3, 32, 32):
            raise ConfigError(
                f"write_cifar10_batch: record {i} has shape {r.stored.shape},"
                " format requires (3, 32, 32)")
        out[i, 0] = r.label
        if r.stored.dtype == np.uint8:
            out[i, 1:] = r.stored.reshape(-1)
        else:
            out[i, 1:] = np.round(r.stored * 255.0).astype(np.uint8).reshape(-1)
    with open(path, "wb") as f:
        f.write(out.tobytes())


@dataclass(frozen=True)
class SyntheticConfig:
    """Oriented-grating dataset: class c's gratings run at angle pi*c/classes."""

    classes: int = 3
    per_class: int = 100
    size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError(f"synthetic: classes must be >= 2, got {self.classes}")
        if self.per_class < 1:
            raise ConfigError(f"synthetic: per_class must be >= 1, got {self.per_class}")
        if self.size < 8:
            raise ConfigError(f"synthetic: size must be >= 8, got {self.size}")


def make_synthetic(cfg: SyntheticConfig) -> Dataset:
    """Deterministic labeled dataset whose only class signal is grating
    orientation; per-sample phase, contrast, channel gain and pixel noise
    provide the intra-class variation."""
    rng = np.random.default_rng(cfg.seed)
    coords = (np.arange(cfg.size) + 0.5) / cfg.size  # pixel centers in [0,1]
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    records = []
    idx = 0
    for c in range(cfg.classes):
        theta = np.pi * c / cfg.classes
        axis = xx * np.cos(theta) + yy * np.sin(theta)
        for _ in range(cfg.per_class):
            phase = rng.uniform(-SYNTHETIC_PHASE_JITTER, SYNTHETIC_PHASE_JITTER)
            contrast = rng.uniform(0.55, 0.95)
            gains = rng.uniform(0.75, 1.0, size=3)
            wave = np.sin(2.0 * np.pi * SYNTHETIC_FREQUENCY * axis + phase)
            img = 0.5 + 0.5 * contrast * gains[:, None, None] * wave[None]
            img = img + rng.normal(0.0, SYNTHETIC_NOISE_SIGMA, size=img.shape)
            np.clip(img, 0.0, 1.0, out=img)
            records.append(ImageRecord(pixels=img, label=c, source_index=idx))
            idx += 1
    return Dataset(records=records, class_count=cfg.classes,
                   name=f"synthetic-{cfg.classes}x{cfg.per_class}")


def batches(ds: Dataset, batch_size: int, seed: int, epoch: int):
    """Yield lists of records under a fresh (seed, epoch)-keyed permutation.

    A final batch shorter than batch_size is dropped so every batch feeds
    batch-norm the same way.
    """
    if batch_size < 2:
        raise ConfigError(f"batches: batch_size must be >= 2, got {batch_size}")
    order = np.random.default_rng([seed, epoch]).permutation(len(ds.records))
    for start in range(0, len(order) - batch_size + 1, batch_size):
        yield [ds.records[i] for i in order[start:start + batch_size]]


def stack_pixels(records, dtype=np.float64):
    """[B, C, H, W] array of the records' pixels in the requested dtype.

    Byte-stored records are stacked as bytes and divided once; division
    rounds per element, so the values are those of `pixels`.
    """
    stored = [r.stored for r in records]
    if all(s.dtype == np.uint8 for s in stored):
        x = np.stack(stored) / 255.0
    else:
        x = np.stack([r.pixels for r in records])
    return x.astype(dtype, copy=False)
