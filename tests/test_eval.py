"""Probe tests: the k-NN rule against a brute-force oracle, tie-break
determinism, linear-probe sanity on separable/permuted/collapsed features,
and the EvalReport packaging invariants."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from mixsiam import eval as eval_module
from mixsiam.data import SyntheticConfig, load_cifar10, make_synthetic, write_cifar10_batch
from mixsiam.errors import ConfigError, ShapeError
from mixsiam.eval import (
    KNN_CHUNK,
    EvalReport,
    ProbeConfig,
    eval_datasets,
    evaluate,
    extract_features,
    knn_predict,
    knn_probe,
    linear_probe,
    params_checksum,
    random_baseline_report,
    write_per_class_csv,
    write_report,
)
from mixsiam.model import EncoderSpec, PredictorSpec, encode, init
from mixsiam.train import DatasetConfig, config_from_dict


def blobs(seed, per_class=20, classes=3, dim=6, spread=0.1):
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for c in range(classes):
        center = np.zeros(dim)
        center[c] = 5.0
        feats.append(center + spread * rng.standard_normal((per_class, dim)))
        labels.append(np.full(per_class, c))
    return np.concatenate(feats), np.concatenate(labels)


# -- k-NN rule ---------------------------------------------------------------


def test_knn_hand_worked_instance():
    train = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9], [-1.0, 0.0]])
    labels = np.array([0, 0, 1, 1, 2])
    queries = np.array([[1.0, 0.05], [0.05, 1.0]])
    # top-3 for the first query: both class-0 points plus one class-1 point
    assert knn_predict(train, labels, queries, k=3).tolist() == [0, 1]
    assert knn_predict(train, labels, queries, k=1).tolist() == [0, 1]
    # k=5 sees two votes each for 0 and 1; the tie goes to class 0
    assert knn_predict(train, labels, queries, k=5).tolist() == [0, 0]


def test_knn_vote_tie_prefers_smallest_class():
    train = np.array([[1.0, 0.0], [0.0, 1.0]])
    query = np.array([[1.0, 1.0]])
    assert knn_predict(train, np.array([0, 1]), query, k=2).tolist() == [0]
    assert knn_predict(train, np.array([1, 0]), query, k=2).tolist() == [0]
    assert knn_predict(train, np.array([2, 1]), query, k=2).tolist() == [1]


def test_knn_similarity_tie_keeps_training_order():
    # two identical training rows with different labels: the earlier row
    # wins the k=1 neighborhood
    train = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    query = np.array([[2.0, 0.0]])
    assert knn_predict(train, np.array([0, 1, 2]), query, k=1).tolist() == [0]
    assert knn_predict(train, np.array([1, 0, 2]), query, k=1).tolist() == [1]


def knn_oracle(train, labels, queries, k, classes):
    tn = train / np.linalg.norm(train, axis=1, keepdims=True)
    preds = []
    for q in queries:
        sims = tn @ (q / np.linalg.norm(q))
        order = sorted(range(len(labels)), key=lambda i: (-sims[i], i))[:k]
        counts = [0] * classes
        for i in order:
            counts[labels[i]] += 1
        preds.append(max(range(classes), key=lambda c: (counts[c], -c)))
    return preds


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_knn_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    train = rng.standard_normal((30, 4))
    labels = rng.integers(0, 3, size=30)
    queries = rng.standard_normal((10, 4))
    k = int(rng.integers(1, 12))
    got = knn_predict(train, labels, queries, k=k, class_count=3)
    assert got.tolist() == knn_oracle(train, labels, queries, k, 3)


def _knn_unchunked(train, labels, queries, k, classes):
    """knn_predict as one [N_test, N_train] similarity matrix and one stable
    argsort: the chunked ranking must give exactly these predictions."""
    tn = train / np.linalg.norm(train, axis=1, keepdims=True)
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    order = np.argsort(qn @ -tn.T, axis=1, kind="stable")[:, :k]
    return [int(np.argmax(np.bincount(v, minlength=classes))) for v in labels[order]]


@pytest.mark.parametrize("extra", [-1, 0, 1, KNN_CHUNK + 1])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_knn_chunk_edges_match_unchunked_ranking(seed, extra):
    # groups of near-duplicate training rows put similarities within an ulp
    # of each other, where a block whose rows round differently would
    # reorder neighbours; the repeated rows add exact ties
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((8, 6))
    train = np.repeat(base, 16, axis=0) * (1 + 1e-15 * rng.standard_normal((128, 1)))
    train = np.concatenate([train, train[:16]])
    labels = rng.integers(0, 5, size=len(train))
    queries = rng.standard_normal((KNN_CHUNK + extra, 6))
    for k in (1, 3):
        got = knn_predict(train, labels, queries, k=k, class_count=5)
        assert got.tolist() == _knn_unchunked(train, labels, queries, k, 5)


@given(data=st.data(), seed=st.integers(0, 2**32 - 1),
       n_test=st.sampled_from([KNN_CHUNK - 1, KNN_CHUNK, KNN_CHUNK + 1, 2 * KNN_CHUNK + 1]),
       n_train=st.integers(1, 40), dim=st.integers(1, 4),
       nan_rows=st.sampled_from([False, True]))
@settings(max_examples=60, deadline=None)
def test_knn_partial_selection_matches_stable_argsort(data, seed, n_test, n_train, dim,
                                                      nan_rows):
    # integer-valued rows drawn from a few distinct ones give exact
    # similarity ties, which the partial selection must break by training
    # order just as the stable sort does; NaN rows sort last
    rng = np.random.default_rng(seed)
    distinct = rng.integers(-2, 3, size=(4, dim)).astype(float)
    distinct[np.all(distinct == 0, axis=1), 0] = 1.0  # no zero rows
    train = distinct[rng.integers(0, 4, size=n_train)]
    queries = distinct[rng.integers(0, 4, size=n_test)]
    if nan_rows:
        train[rng.random(n_train) < 0.2] = np.nan
        queries[rng.random(n_test) < 0.05] = np.nan
    labels = rng.integers(0, 3, size=n_train)
    k = data.draw(st.integers(1, n_train), label="k")
    got = knn_predict(train, labels, queries, k=k, class_count=3)
    assert got.tolist() == _knn_unchunked(train, labels, queries, k, 3)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_knn_self_neighbors_reproduce_labels(seed):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((15, 5))
    labels = rng.integers(0, 4, size=15)
    assert knn_probe(feats, labels, feats, labels, k=1) == 1.0


def test_knn_rejects_bad_inputs():
    feats = np.ones((3, 2))
    labels = np.array([0, 1, 0])
    with pytest.raises(ConfigError, match="empty"):
        knn_predict(np.empty((0, 2)), np.empty(0, dtype=int), feats)
    with pytest.raises(ConfigError, match="empty"):
        knn_predict(feats, labels, np.empty((0, 2)))
    with pytest.raises(ConfigError, match="k="):
        knn_predict(feats, labels, feats, k=0)
    with pytest.raises(ConfigError, match="k="):
        knn_predict(feats, labels, feats, k=4)
    with pytest.raises(ShapeError):
        knn_predict(feats, np.array([0, 1]), feats, k=1)
    with pytest.raises(ShapeError):
        knn_predict(np.ones(3), labels, feats, k=1)
    with pytest.raises(ConfigError, match="non-negative"):
        knn_predict(feats, np.array([0, -1, 0]), feats, k=1)


# -- linear probe ------------------------------------------------------------


def test_probes_solve_separable_blobs():
    train_f, train_y = blobs(seed=0)
    test_f, test_y = blobs(seed=1, per_class=10)
    assert knn_probe(train_f, train_y, test_f, test_y, k=5) >= 0.99
    acc, preds = linear_probe(train_f, train_y, test_f, test_y, class_count=3,
                              probe=ProbeConfig(linear_epochs=10))
    assert acc >= 0.99
    assert preds.shape == (30,)


def test_probes_near_chance_on_uninformative_features():
    # pure-noise features carry no label signal, so both probes should sit
    # near the 1/3 chance rate (the margin allows for small-sample noise)
    rng = np.random.default_rng(2)
    train_f = rng.standard_normal((60, 6))
    train_y = rng.integers(0, 3, size=60)
    test_f = rng.standard_normal((60, 6))
    test_y = rng.integers(0, 3, size=60)
    assert knn_probe(train_f, train_y, test_f, test_y, k=5) < 0.55
    acc, _ = linear_probe(train_f, train_y, test_f, test_y, class_count=3,
                          probe=ProbeConfig(linear_epochs=10))
    assert acc < 0.55


def test_probes_on_collapsed_features_pick_one_class():
    train_f = np.ones((10, 4))
    train_y = np.array([0, 0, 1, 1, 2, 2, 2, 1, 0, 1])
    test_f = np.ones((6, 4))
    test_y = np.array([0, 1, 2, 0, 1, 2])
    preds = knn_predict(train_f, train_y, test_f, k=5)
    assert len(set(preds.tolist())) == 1
    acc, lpreds = linear_probe(train_f, train_y, test_f, test_y, class_count=3,
                               probe=ProbeConfig(linear_epochs=5))
    assert len(set(lpreds.tolist())) == 1
    assert acc == float(np.mean(test_y == lpreds[0]))


def test_linear_probe_is_deterministic():
    train_f, train_y = blobs(seed=4, per_class=8)
    test_f, test_y = blobs(seed=5, per_class=4)
    a = linear_probe(train_f, train_y, test_f, test_y, 3)
    b = linear_probe(train_f, train_y, test_f, test_y, 3)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_probe_config_validation():
    with pytest.raises(ConfigError):
        ProbeConfig(k=0)
    with pytest.raises(ConfigError):
        ProbeConfig(linear_lr=0.0)
    with pytest.raises(ConfigError):
        ProbeConfig(linear_epochs=0)


# -- feature extraction ------------------------------------------------------


def test_extract_features_shape_and_determinism():
    ds = make_synthetic(SyntheticConfig(classes=2, per_class=4, size=8, seed=5))
    params = init(EncoderSpec.tiny(), PredictorSpec.tiny(), seed=1, dtype=np.float64)
    before = params_checksum(params)
    a, ya = extract_features(params, ds, output_size=8)
    b, yb = extract_features(params, ds, output_size=8)
    assert a.shape == (8, 8)
    assert np.array_equal(a, b)
    assert np.array_equal(ya, ds.labels()) and np.array_equal(ya, yb)
    assert params_checksum(params) == before  # eval mode never writes


def test_extract_features_independent_of_batch_size():
    ds = make_synthetic(SyntheticConfig(classes=2, per_class=6, size=8, seed=5))
    params = init(EncoderSpec.tiny(), PredictorSpec.tiny(), seed=1, dtype=np.float64)
    a, _ = extract_features(params, ds, output_size=8, batch_size=3)
    b, _ = extract_features(params, ds, output_size=8, batch_size=128)
    assert np.array_equal(a, b)


def test_extract_features_builds_no_graph(monkeypatch):
    ds = make_synthetic(SyntheticConfig(classes=2, per_class=4, size=8, seed=5))
    params = init(EncoderSpec.tiny(), PredictorSpec.tiny(), seed=1, dtype=np.float32)
    outputs = []

    def recording_encode(*args):
        outputs.append(encode(*args))
        return outputs[-1]
    monkeypatch.setattr(eval_module, "encode", recording_encode)
    feats, _ = extract_features(params, ds, output_size=8)
    assert outputs and not any(z.requires_grad or z._parents for z in outputs)
    x = np.stack([r.pixels for r in ds.records]).astype(np.float32)
    assert feats.tobytes() == encode(params, x, "eval").data.tobytes()
    assert all(t.requires_grad and t.grad is None for _, t in params.named())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("source", ["synthetic", "cifar10"])
def test_extract_features_is_bitwise_encode_with_grad(tmp_path, dtype, source):
    # extract_features runs the forward-only conv2d and batchnorm, and
    # stacks byte-stored pixels before dividing; encode on requires-grad
    # parameters runs the training kernels on each record's pixels
    ds = make_synthetic(SyntheticConfig(classes=3, per_class=12, size=32, seed=2))
    if source == "cifar10":
        write_cifar10_batch(ds.records, tmp_path / "test_batch.bin")
        ds = load_cifar10(tmp_path, split="test")
        assert ds.records[0].stored.dtype == np.uint8
    params = init(EncoderSpec.small(), PredictorSpec.small(), seed=4, dtype=dtype)
    feats, _ = extract_features(params, ds, output_size=32, batch_size=20)
    x = np.stack([r.pixels for r in ds.records]).astype(dtype)
    want = np.concatenate([encode(params, x[s:s + 20], "eval").data for s in (0, 20)])
    assert feats.tobytes() == want.tobytes()


def test_extract_features_resizes_when_needed():
    ds = make_synthetic(SyntheticConfig(classes=2, per_class=3, size=12, seed=5))
    params = init(EncoderSpec.tiny(), PredictorSpec.tiny(), seed=1, dtype=np.float64)
    feats, labels = extract_features(params, ds, output_size=8)
    assert feats.shape == (6, 8)
    assert labels.shape == (6,)
    assert np.all(np.isfinite(feats))


# -- packaged evaluation -----------------------------------------------------


def small_eval_setup():
    cfg = tiny_config()
    train_ds = make_synthetic(SyntheticConfig(classes=2, per_class=6, size=8, seed=5))
    test_ds = make_synthetic(SyntheticConfig(classes=2, per_class=3, size=8, seed=6))
    params = init(cfg.encoder, cfg.predictor, seed=cfg.seed, dtype=cfg.dtype)
    probe = ProbeConfig(k=5, linear_epochs=3)
    return cfg, train_ds, test_ds, params, probe


def test_evaluate_report_invariants():
    cfg, train_ds, test_ds, params, probe = small_eval_setup()
    before = params_checksum(params)
    report = evaluate(params, cfg, train_ds, test_ds, probe)
    assert params_checksum(params) == before

    for value in (report.knn_top1, report.linear_top1):
        assert 0.0 <= value <= 1.0
    assert report.embedding_std >= 0.0
    assert set(report.per_class_accuracy) == {0, 1}

    total = sum(v["count"] for v in report.per_class_accuracy.values())
    assert total == len(test_ds)
    for probe_name, top1 in (("knn", report.knn_top1), ("linear", report.linear_top1)):
        weighted = sum(v["count"] * v[probe_name]
                       for v in report.per_class_accuracy.values()) / total
        assert weighted == pytest.approx(top1, abs=1e-12)

    # the config snapshot is the full, loadable config
    assert config_from_dict(report.config) == cfg


def test_random_baseline_report_runs():
    cfg, train_ds, test_ds, _, probe = small_eval_setup()
    report = random_baseline_report(cfg, train_ds, test_ds, probe)
    assert 0.0 <= report.knn_top1 <= 1.0


def test_report_files(tmp_path):
    cfg, train_ds, test_ds, params, probe = small_eval_setup()
    report = evaluate(params, cfg, train_ds, test_ds, probe)

    jpath = tmp_path / "report.json"
    write_report(report, jpath)
    loaded = json.loads(jpath.read_text())
    assert loaded["knn_top1"] == report.knn_top1
    assert set(loaded["per_class_accuracy"]) == {"0", "1"}
    assert loaded["config"]["lambda"] == cfg.lam

    cpath = tmp_path / "per_class.csv"
    write_per_class_csv(report, cpath)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "class,count,knn,linear"
    assert len(lines) == 3
    cls, count, knn_acc, lin_acc = lines[1].split(",")
    assert int(cls) == 0
    assert float(knn_acc) == report.per_class_accuracy[0]["knn"]


def test_eval_datasets_cifar10_requires_a_dir():
    with pytest.raises(ConfigError, match="dir"):
        eval_datasets(DatasetConfig(kind="cifar10"))


def test_eval_datasets_synthetic_holdout():
    dcfg = DatasetConfig(classes=2, per_class=6, size=8, seed=5)
    train, test = eval_datasets(dcfg)
    assert len(train) == 12
    assert len(test) == 6
    assert test.class_count == train.class_count
    # the held-out draw really is fresh data, not a re-draw of train
    train_pix = {r.pixels.tobytes() for r in train.records}
    assert all(r.pixels.tobytes() not in train_pix for r in test.records)


# -- chance-level and baseline oracles ----------------------------------------


def test_knn_chance_level_on_random_features():
    # With featureless (pure noise) inputs and balanced classes the k-NN
    # probe has no signal to exploit: accuracy must sit at the 1/classes
    # chance line.  10 classes, N >= 1000 keeps the noise band tight.
    rng = np.random.default_rng(7)
    classes, per_class = 10, 120
    n = classes * per_class
    train = rng.normal(size=(n, 16))
    test = rng.normal(size=(n, 16))
    labels = np.repeat(np.arange(classes), per_class)
    acc = knn_probe(train, labels, test, labels, k=20)
    assert abs(acc - 1.0 / classes) < 0.05


def test_linear_probe_on_raw_pixels_is_a_valid_baseline():
    # Flattened pixels are a legitimate feature matrix: the probe makes no
    # assumption about where features come from.  This run is the baseline
    # a learned representation is compared against.
    train, test = eval_datasets(DatasetConfig(classes=3, per_class=10, size=8, seed=5))
    Xtr = np.stack([r.pixels.reshape(-1) for r in train.records])
    Xte = np.stack([r.pixels.reshape(-1) for r in test.records])
    acc, preds = linear_probe(Xtr, train.labels(), Xte, test.labels(),
                              class_count=3, probe=ProbeConfig(linear_epochs=5))
    assert 0.0 <= acc <= 1.0
    assert preds.shape == (len(test),)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_linear_probe_aborts_on_non_finite_loss():
    from mixsiam.errors import TrainingAborted

    X = np.array([[1.0, np.inf], [0.0, 1.0]])
    y = np.array([0, 1])
    with pytest.raises(TrainingAborted, match="non-finite"):
        linear_probe(X, y, X, y, class_count=2,
                     probe=ProbeConfig(linear_epochs=1))
