"""Dataset parsing, generation and batching checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsiam.data import (
    CIFAR_RECORD_BYTES,
    Dataset,
    ImageRecord,
    SyntheticConfig,
    batches,
    load_cifar10,
    make_synthetic,
    stack_pixels,
    write_cifar10_batch,
)
from mixsiam.errors import ConfigError, ParseError


def _raw_batch(rng, n):
    arr = rng.integers(0, 256, size=(n, CIFAR_RECORD_BYTES), dtype=np.uint8)
    arr[:, 0] = rng.integers(0, 10, size=n)
    return arr.tobytes()


# -- CIFAR-10 binary format --------------------------------------------


def test_cifar_parse_shapes_and_values(tmp_path):
    rng = np.random.default_rng(0)
    raw = _raw_batch(rng, 5)
    p = tmp_path / "test_batch.bin"
    p.write_bytes(raw)
    ds = load_cifar10(tmp_path, split="test")
    assert len(ds) == 5 and ds.class_count == 10
    assert ds.image_shape == (3, 32, 32)
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(5, -1)
    # channel planes: 1024 red then green then blue, row-major 32x32
    assert np.array_equal(ds.records[2].pixels[1].reshape(-1),
                          arr[2, 1 + 1024:1 + 2048] / 255.0)
    assert ds.records[2].label == arr[2, 0]


def test_cifar_normalization_exact_for_every_byte(tmp_path):
    rec = np.zeros(CIFAR_RECORD_BYTES, dtype=np.uint8)
    rec[1:257] = np.arange(256)
    p = tmp_path / "test_batch.bin"
    p.write_bytes(rec.tobytes())
    ds = load_cifar10(tmp_path, split="test")
    got = ds.records[0].pixels.reshape(-1)[:256]
    want = np.arange(256) / 255.0
    assert np.array_equal(got, want)  # bitwise: parse(b) == b/255.0


def test_cifar_single_record_file(tmp_path):
    (tmp_path / "test_batch.bin").write_bytes(bytes(CIFAR_RECORD_BYTES))
    assert len(load_cifar10(tmp_path, split="test")) == 1


def test_cifar_truncation_error_offset_zero(tmp_path):
    (tmp_path / "test_batch.bin").write_bytes(bytes(CIFAR_RECORD_BYTES - 1))
    with pytest.raises(ParseError, match="byte offset 0"):
        load_cifar10(tmp_path, split="test")


def test_cifar_truncation_error_mid_file(tmp_path):
    (tmp_path / "test_batch.bin").write_bytes(bytes(2 * CIFAR_RECORD_BYTES + 7))
    with pytest.raises(ParseError, match=f"byte offset {2 * CIFAR_RECORD_BYTES}"):
        load_cifar10(tmp_path, split="test")


def test_cifar_bad_label_error_offset(tmp_path):
    rec = np.zeros((3, CIFAR_RECORD_BYTES), dtype=np.uint8)
    rec[2, 0] = 11
    (tmp_path / "test_batch.bin").write_bytes(rec.tobytes())
    with pytest.raises(ParseError, match=f"label byte 11 > 9 at byte offset {2 * CIFAR_RECORD_BYTES}"):
        load_cifar10(tmp_path, split="test")


def test_cifar_missing_file(tmp_path):
    with pytest.raises(ParseError, match="not found"):
        load_cifar10(tmp_path, split="train")


def test_cifar_unknown_split(tmp_path):
    with pytest.raises(ConfigError, match="split"):
        load_cifar10(tmp_path, split="validation")


def test_cifar_train_split_concatenates_batches(tmp_path):
    rng = np.random.default_rng(4)
    for i in range(1, 6):
        (tmp_path / f"data_batch_{i}.bin").write_bytes(_raw_batch(rng, 2))
    ds = load_cifar10(tmp_path, split="train")
    assert len(ds) == 10
    assert [r.source_index for r in ds.records] == list(range(10))


def test_cifar_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(9)
    raw = _raw_batch(rng, 4)
    src = tmp_path / "test_batch.bin"
    src.write_bytes(raw)
    ds = load_cifar10(tmp_path, split="test")
    out = tmp_path / "rewritten.bin"
    write_cifar10_batch(ds.records, out)
    assert out.read_bytes() == raw


def test_byte_record_reads_every_byte_as_b_over_255():
    # all 256 byte values: `pixels` and `stack_pixels` must give the bits
    # of b / 255.0 in float64, the values a float64 parse stores
    b = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
    want = (np.arange(256) / 255.0).reshape(1, 16, 16)
    rec = ImageRecord(pixels=b, label=0, source_index=0)
    assert rec.pixels.dtype == np.float64
    assert rec.pixels.tobytes() == want.tobytes()
    assert stack_pixels([rec, rec]).tobytes() == np.stack([want, want]).tobytes()
    assert (stack_pixels([rec], np.float32).tobytes()
            == want[None].astype(np.float32).tobytes())


def test_cifar_record_keeps_its_3072_bytes(tmp_path):
    rng = np.random.default_rng(2)
    raw = _raw_batch(rng, 3)
    (tmp_path / "test_batch.bin").write_bytes(raw)
    ds = load_cifar10(tmp_path, split="test")
    for i, r in enumerate(ds.records):
        assert r.stored.dtype == np.uint8 and r.stored.nbytes == 3072
        assert r.stored.tobytes() == raw[i * CIFAR_RECORD_BYTES + 1:(i + 1) * CIFAR_RECORD_BYTES]
    # the records share one block of pixel bytes, not the file buffer
    assert ds.records[0].stored.base.nbytes == 3 * 3072


def test_write_puts_byte_records_back_unchanged(tmp_path):
    b = np.arange(3072).astype(np.uint8).reshape(3, 32, 32)
    rec = ImageRecord(pixels=b, label=7, source_index=0)
    write_cifar10_batch([rec], tmp_path / "test_batch.bin")
    assert (tmp_path / "test_batch.bin").read_bytes() == bytes([7]) + b.tobytes()
    back = load_cifar10(tmp_path, split="test").records[0]
    assert back.stored.tobytes() == b.tobytes()
    # a float record holding the same values writes the same bytes
    write_cifar10_batch([ImageRecord(rec.pixels, 7, 0)], tmp_path / "float.bin")
    assert (tmp_path / "float.bin").read_bytes() == bytes([7]) + b.tobytes()


def test_write_rejects_non_cifar_shape(tmp_path):
    rec = ImageRecord(pixels=np.zeros((3, 16, 16)), label=0, source_index=0)
    with pytest.raises(ConfigError, match="3, 32, 32"):
        write_cifar10_batch([rec], tmp_path / "x.bin")


# -- synthetic generator -----------------------------------------------


def test_synthetic_counts_and_balance():
    ds = make_synthetic(SyntheticConfig(classes=3, per_class=100, size=32, seed=7))
    assert len(ds) == 300 and ds.class_count == 3
    labels = ds.labels()
    assert np.array_equal(np.bincount(labels), [100, 100, 100])
    assert [r.source_index for r in ds.records] == list(range(300))


def test_synthetic_determinism_bitwise():
    a = make_synthetic(SyntheticConfig(classes=2, per_class=5, size=16, seed=3))
    b = make_synthetic(SyntheticConfig(classes=2, per_class=5, size=16, seed=3))
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.pixels, rb.pixels) and ra.label == rb.label


def test_synthetic_pixels_in_unit_interval():
    ds = make_synthetic(SyntheticConfig(classes=4, per_class=3, size=12, seed=1))
    arr = stack_pixels(ds.records)
    assert arr.min() >= 0.0 and arr.max() <= 1.0


@pytest.mark.parametrize("kwargs", [
    {"classes": 1}, {"per_class": 0}, {"size": 7},
])
def test_synthetic_invalid_config(kwargs):
    with pytest.raises(ConfigError):
        SyntheticConfig(**kwargs)


def test_synthetic_raw_pixel_1nn_separability():
    # the documented separability oracle: 80/20 split per class, plain
    # euclidean 1-NN on raw pixels must clear 90%
    ds = make_synthetic(SyntheticConfig(classes=2, per_class=50, size=32, seed=1))
    X = stack_pixels(ds.records).reshape(len(ds), -1)
    y = ds.labels()
    train_idx = np.concatenate([np.arange(0, 40), np.arange(50, 90)])
    test_idx = np.concatenate([np.arange(40, 50), np.arange(90, 100)])
    d2 = ((X[test_idx][:, None, :] - X[train_idx][None, :, :]) ** 2).sum(axis=2)
    pred = y[train_idx][np.argmin(d2, axis=1)]
    acc = float(np.mean(pred == y[test_idx]))
    assert acc > 0.9, f"raw-pixel 1-NN accuracy {acc:.3f}"


# -- batching -----------------------------------------------------------


def _tiny_dataset(n=10):
    recs = [ImageRecord(pixels=np.full((1, 8, 8), i / n), label=i % 2, source_index=i)
            for i in range(n)]
    return Dataset(records=recs, class_count=2, name="tiny")


def test_batches_drop_short_final():
    got = list(batches(_tiny_dataset(10), batch_size=4, seed=0, epoch=0))
    assert len(got) == 2 and all(len(b) == 4 for b in got)


def test_batches_same_key_same_order():
    ds = _tiny_dataset(12)
    a = [[r.source_index for r in b] for b in batches(ds, 4, seed=5, epoch=2)]
    b = [[r.source_index for r in b] for b in batches(ds, 4, seed=5, epoch=2)]
    assert a == b


def test_batches_epochs_reshuffle():
    ds = _tiny_dataset(30)
    orders = set()
    for epoch in range(20):
        order = tuple(r.source_index for b in batches(ds, 5, seed=1, epoch=epoch) for r in b)
        orders.add(order)
    assert len(orders) == 20  # collisions for n=30 are ~1e-32 likely


@given(st.integers(0, 10_000), st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_batches_are_a_permutation(seed, epoch):
    ds = _tiny_dataset(12)
    seen = [r.source_index for b in batches(ds, 4, seed=seed, epoch=epoch) for r in b]
    assert sorted(seen) == list(range(12))


def test_batches_reject_tiny_batch_size():
    with pytest.raises(ConfigError, match="batch_size"):
        next(batches(_tiny_dataset(), batch_size=1, seed=0, epoch=0))


def test_dataset_invariants():
    rec = ImageRecord(pixels=np.zeros((1, 4, 4)), label=0, source_index=0)
    odd = ImageRecord(pixels=np.zeros((1, 5, 4)), label=0, source_index=1)
    with pytest.raises(ConfigError, match="shape"):
        Dataset(records=[rec, odd], class_count=1, name="bad")
    with pytest.raises(ConfigError, match="empty"):
        Dataset(records=[], class_count=1, name="none")
    with pytest.raises(ConfigError, match="label"):
        Dataset(records=[ImageRecord(np.zeros((1, 4, 4)), 3, 0)], class_count=2, name="lbl")
