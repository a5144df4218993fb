"""Release gate: one end-to-end check per shipping criterion.

Every test here drives the package through its public surface (trainer,
evaluator, CLI) and judges the outcome against a fixed threshold written
into the test. The oracles are independent of the implementation: central
finite differences for gradients, a hand-rolled two-view reference loop
for the lambda=1 reduction, byte comparisons for reproducibility, and
exact algebra for the mixing identities. Each test prints one
`criterion N PASS/FAIL` line with the measured numbers.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np

from conftest import TINY_ENCODER, TINY_PREDICTOR, batch_step, tensor, two_view_reference
from mixsiam.augment import AugmentConfig, LambdaMixPolicy, make_triplet, mix
from mixsiam.autodiff import Tensor, backward
from mixsiam.cli import main
from mixsiam.data import (
    ImageRecord,
    batches,
    load_cifar10,
    write_cifar10_batch,
)
from mixsiam.eval import eval_datasets, evaluate, random_baseline_report
from mixsiam.loss import (
    AggregationStrategy,
    aggregate,
    mix_loss,
    neg_cosine,
    siam_loss,
    total_loss,
)
from mixsiam.model import encode, init, predict
from mixsiam.train import (
    DatasetConfig,
    TrainConfig,
    TrainState,
    config_to_dict,
    run,
)


def verdict(number, ok, detail):
    print(f"criterion {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- 1. gradient integrity ----------------------------------------------------

GRAD_REL_TOL = 1e-4
GRAD_ABS_TOL = 1e-7       # used only where the reference gradient is ~0
FD_STEPS = (1e-5, 1e-6, 1e-7)
COORDS_PER_TENSOR = 8
MIX_LAM = 0.31
BLEND_LAM = 0.37


def _grad_case(seed):
    rng = np.random.default_rng(seed)
    params = init(TINY_ENCODER, TINY_PREDICTOR, seed=seed,
                  dtype=np.float64)
    # nudge every tensor off the exact-zero init so the evaluation point
    # is generic (no bias sitting exactly on a ReLU kink)
    for _, t in params.named():
        t.data = t.data + 0.01 * rng.normal(size=t.data.shape)
    x1 = rng.uniform(size=(4, 3, 8, 8))
    x2 = rng.uniform(size=(4, 3, 8, 8))
    return params, x1, x2, MIX_LAM * x1 + (1.0 - MIX_LAM) * x2


def _frozen_total(params, x1, x2, xm, c1, c2, cf):
    """The composite objective with the targets frozen at the base point,
    which is exactly the function whose gradient the stop-gradient graph
    computes."""
    z1 = encode(params, x1, "train")
    z2 = encode(params, x2, "train")
    p1 = predict(params, z1)
    p2 = predict(params, z2)
    pm = predict(params, encode(params, xm, "train"))
    ls = neg_cosine(p1, c2) * 0.5 + neg_cosine(p2, c1) * 0.5
    total, _ = total_loss(ls, neg_cosine(pm, cf), BLEND_LAM)
    return float(total.data)


def test_criterion_1_composite_gradient_matches_finite_differences():
    """d(total)/d(theta) for every parameter tensor of the tiny model
    (embed_dim 8, batch 4, float64) agrees with central differences at
    relative error < 1e-4 over 20 seeds, in under a minute. Coordinates
    whose reference gradient is ~0 are held to 1e-7 absolute instead.
    A failing coordinate is retried at smaller steps before it counts:
    a kink (ReLU, element-wise max) inside the probe interval breaks the
    finite-difference quadrature without being a gradient bug."""
    t0 = time.time()
    strat = AggregationStrategy(kind="maximum")
    worst = 0.0
    checked = 0
    for seed in range(20):
        params, x1, x2, xm = _grad_case(seed)
        z1 = encode(params, x1, "train")
        z2 = encode(params, x2, "train")
        p1 = predict(params, z1)
        p2 = predict(params, z2)
        pm = predict(params, encode(params, xm, "train"))
        l_siam = siam_loss(p1, p2, z1, z2)
        z_f = aggregate(z1, z2, strat).detach()
        total, _ = total_loss(l_siam, mix_loss(pm, z_f), BLEND_LAM)
        backward(total)
        c1, c2, cf = Tensor(z1.data.copy()), Tensor(z2.data.copy()), Tensor(z_f.data.copy())

        coord_rng = np.random.default_rng(seed + 10_000)
        for name, t in params.named():
            assert t.grad is not None, f"{name} received no gradient"
            flat = t.data.reshape(-1)
            gflat = t.grad.reshape(-1)
            idx = (np.arange(flat.size) if flat.size <= COORDS_PER_TENSOR
                   else coord_rng.choice(flat.size, COORDS_PER_TENSOR, replace=False))
            for i in idx:
                best = math.inf
                for step in FD_STEPS:
                    keep = flat[i]
                    flat[i] = keep + step
                    hi = _frozen_total(params, x1, x2, xm, c1, c2, cf)
                    flat[i] = keep - step
                    lo = _frozen_total(params, x1, x2, xm, c1, c2, cf)
                    flat[i] = keep
                    num = (hi - lo) / (2.0 * step)
                    err = abs(gflat[i] - num)
                    gap = (err / abs(num) if abs(num) > 1e-3
                           else err / GRAD_ABS_TOL * GRAD_REL_TOL)
                    best = min(best, gap)
                    if gap < GRAD_REL_TOL:
                        break
                worst = max(worst, best)
                checked += 1
                assert best < GRAD_REL_TOL, \
                    f"seed {seed} {name}[{i}]: gradient gap {best:.3e}"
    elapsed = time.time() - t0
    ok = worst < GRAD_REL_TOL and elapsed < 60.0
    verdict(1, ok, f"worst relative gap {worst:.3e} over 20 seeds, "
                   f"{checked} coordinates, {elapsed:.1f}s")


# -- 2. collapse ablation ------------------------------------------------------


def test_criterion_2_stop_gradient_ablation_collapses():
    """Training 5 epochs with targets left attached to the graph drives
    the embedding spread below 0.01 while the intact run holds above 0.1,
    inside a 5-minute budget. The runs are pure two-view (lam=1): the
    mixed-branch target otherwise anchors some diversity and masks the
    collapse this check is about."""
    t0 = time.time()
    base = TrainConfig(epochs=5, lr_base=0.15, batch_size=8, lam=1.0)
    train_ds, test_ds = eval_datasets(base.dataset)
    stds = {}
    for label, cfg in [("intact", base),
                       ("ablated", dataclasses.replace(base, stop_gradient=False))]:
        state = TrainState.fresh(cfg)
        steps = (len(train_ds) // cfg.batch_size) * cfg.epochs
        for epoch in range(cfg.epochs):
            state.epoch = epoch
            for batch in batches(train_ds, cfg.batch_size, cfg.seed, epoch):
                batch_step(state, batch, cfg, steps)
        report = evaluate(state.params, cfg, train_ds, test_ds)
        stds[label] = report.embedding_std
    elapsed = time.time() - t0
    ok = stds["ablated"] < 0.01 and stds["intact"] > 0.1 and elapsed < 300.0
    verdict(2, ok, f"embedding_std ablated {stds['ablated']:.4f} (< 0.01) vs "
                   f"intact {stds['intact']:.4f} (> 0.1), {elapsed:.0f}s")


# -- 3. lambda=1 reduction ------------------------------------------------------


def test_criterion_3_lambda_one_reduces_to_plain_siamese(tmp_path):
    """With the mixed branch weighted to zero, 100 consecutive steps log
    the same l_siam bitwise as an independently coded two-view loop, and
    the final parameters are bitwise identical too."""
    cfg = TrainConfig(
        dataset=DatasetConfig(classes=2, per_class=10, size=8, seed=3),
        encoder=TINY_ENCODER,
        predictor=TINY_PREDICTOR,
        augment=AugmentConfig(output_size=8, seed=11),
        lam=1.0,
        batch_size=4,
        epochs=20,
        seed=11,
        precision=64,
    )
    ds = cfg.dataset.build()
    assert (len(ds) // cfg.batch_size) * cfg.epochs == 100

    got = []
    run(cfg, ds, tmp_path / "trainer", on_metrics=lambda m: got.append(m.l_siam))

    want, params = two_view_reference(cfg, ds)
    matches = sum(a == b for a, b in zip(got, want))
    final_state, _ = _final_params_equal(cfg, tmp_path / "trainer", params)
    ok = len(got) == 100 and matches == 100 and final_state
    verdict(3, ok, f"{matches}/100 steps bitwise equal to the two-view "
                   f"reference loop; final parameters identical: {final_state}")


def _final_params_equal(cfg, out_dir, reference_params):
    from mixsiam.train import load_checkpoint
    state, _ = load_checkpoint(os.path.join(out_dir, "ckpt_final.bin"))
    ref = dict(reference_params.named())
    same = all(np.array_equal(t.data, ref[name].data)
               for name, t in state.params.named())
    return same, state


# -- 4. mixing and aggregation identities --------------------------------------


def test_criterion_4_mixing_and_aggregation_identities():
    """lambda_mix=1 copies view one bitwise, the mix swap identity is
    exact, and the element-wise maximum satisfies its algebra exactly on
    1000 random vectors (commutativity, idempotence, dominance)."""
    rng = np.random.default_rng(12)
    a = rng.normal(size=(1000, 16))
    b = rng.normal(size=(1000, 16))

    strat = AggregationStrategy(kind="maximum")
    m_ab = aggregate(tensor(a), tensor(b), strat).data
    m_ba = aggregate(tensor(b), tensor(a), strat).data
    m_aa = aggregate(tensor(a), tensor(a), strat).data
    commut = np.array_equal(m_ab, m_ba)
    idem = np.array_equal(m_aa, a)
    dominance = bool(np.all(m_ab >= a) and np.all(m_ab >= b))

    avg_ab = aggregate(tensor(a), tensor(b), AggregationStrategy(kind="average")).data
    avg_ba = aggregate(tensor(b), tensor(a), AggregationStrategy(kind="average")).data
    avg_aa = aggregate(tensor(a), tensor(a), AggregationStrategy(kind="average")).data
    avg_ok = np.array_equal(avg_ab, avg_ba) and np.array_equal(avg_aa, a)

    imgs = rng.uniform(size=(2, 3, 8, 8))
    copy_exact = np.array_equal(mix(imgs[:1], imgs[1:], [1.0]), imgs[:1])
    rec = ImageRecord(pixels=imgs[0], label=0, source_index=0)
    trip = make_triplet([rec], AugmentConfig(output_size=8, seed=4),
                        LambdaMixPolicy(kind="fixed", value=1.0), epoch=0)
    triplet_copy = np.array_equal(trip.xm, trip.x1)

    lams = rng.uniform(size=1000)
    swap = all(np.array_equal(mix(a[i % 3:i % 3 + 1], b[i % 3:i % 3 + 1], [lam]),
                              mix(b[i % 3:i % 3 + 1], a[i % 3:i % 3 + 1], [1.0 - lam]))
               for i, lam in enumerate(lams))

    ok = all([commut, idem, dominance, avg_ok, copy_exact, triplet_copy, swap])
    verdict(4, ok, "maximum algebra "
            f"(commut={commut}, idem={idem}, dominance={dominance}), "
            f"average={avg_ok}, lambda_mix=1 copy={copy_exact and triplet_copy}, "
            f"swap identity over 1000 draws={swap}")


# -- 5. loss bookkeeping --------------------------------------------------------


def test_criterion_5_loss_bookkeeping_and_scale_invariance(tmp_path):
    """Over a full 10-epoch run every logged similarity stays in [-1, 1]
    and the logged total equals lam*l_siam + (1-lam)*l_mix to within one
    ulp on every step; the cosine itself is scale invariant to 1e-9."""
    cfg = TrainConfig(
        dataset=DatasetConfig(classes=3, per_class=20, size=32, seed=0),
        lam=0.37,
        batch_size=16,
        epochs=10,
        seed=4,
    )
    ds = cfg.dataset.build()
    rows = []
    run(cfg, ds, tmp_path / "book", on_metrics=rows.append)
    assert len(rows) == (len(ds) // cfg.batch_size) * cfg.epochs

    in_range = all(-1.0 <= m.l_siam <= 1.0 and -1.0 <= m.l_mix <= 1.0
                   for m in rows)
    worst_ulp = 0.0
    for m in rows:
        want = cfg.lam * m.l_siam + (1.0 - cfg.lam) * m.l_mix
        tol = math.ulp(max(abs(want), abs(m.total), 1e-300))
        worst_ulp = max(worst_ulp, abs(m.total - want) / tol)
    blend_ok = worst_ulp <= 1.0

    rng = np.random.default_rng(9)
    worst_scale = 0.0
    for _ in range(200):
        p = rng.normal(size=(4, 16))
        z = rng.normal(size=(4, 16))
        sa, sb = np.exp(rng.uniform(-7, 7, size=2))
        base = float(neg_cosine(tensor(p), tensor(z)).data)
        scaled = float(neg_cosine(tensor(sa * p), tensor(sb * z)).data)
        worst_scale = max(worst_scale, abs(scaled - base))
    scale_ok = worst_scale < 1e-9

    ok = in_range and blend_ok and scale_ok
    verdict(5, ok, f"{len(rows)} steps: similarities in range={in_range}, "
                   f"worst blend error {worst_ulp:.2f} ulp, "
                   f"cosine scale drift {worst_scale:.2e}")


# -- 6. learning signal ---------------------------------------------------------


def test_criterion_6_learning_signal_on_synthetic_data():
    """The default small config trained 20 epochs on the 3-class synthetic
    set reaches k-NN top-1 >= 0.80 against a 1/3 chance floor, and its
    linear-probe accuracy beats a random-init encoder by >= 10 points,
    inside a 10-minute budget. (The k-NN probe saturates even for random
    conv features on this data, so the headroom claim is read on the
    linear probe.)"""
    t0 = time.time()
    cfg = TrainConfig()
    assert cfg.epochs == 20 and cfg.dataset.classes == 3
    assert cfg.dataset.per_class == 100 and cfg.dataset.size == 32
    train_ds, test_ds = eval_datasets(cfg.dataset)
    assert len(train_ds) == 300 and len(test_ds) == 150

    state = TrainState.fresh(cfg)
    steps = (len(train_ds) // cfg.batch_size) * cfg.epochs
    for epoch in range(cfg.epochs):
        state.epoch = epoch
        for batch in batches(train_ds, cfg.batch_size, cfg.seed, epoch):
            batch_step(state, batch, cfg, steps)
    trained = evaluate(state.params, cfg, train_ds, test_ds)
    random_rep = random_baseline_report(cfg, train_ds, test_ds)

    elapsed = time.time() - t0
    gap = trained.linear_top1 - random_rep.linear_top1
    ok = trained.knn_top1 >= 0.80 and gap >= 0.10 and elapsed < 600.0
    verdict(6, ok, f"knn {trained.knn_top1:.4f} (chance 0.333), linear "
                   f"{trained.linear_top1:.4f} vs random-init "
                   f"{random_rep.linear_top1:.4f} (gap {gap * 100:.1f} points), "
                   f"{elapsed:.0f}s")


# -- 7. ablation harness ---------------------------------------------------------


def _tiny_cli_config(**overrides):
    base = dict(
        dataset=DatasetConfig(classes=2, per_class=8, size=8, seed=5),
        encoder=TINY_ENCODER,
        predictor=TINY_PREDICTOR,
        augment=AugmentConfig(output_size=8, seed=11),
        batch_size=4,
        epochs=1,
        seed=11,
        precision=64,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_criterion_7_ablation_harness_integrity(tmp_path):
    """`ablate` over {maximum, average, none} x {mixture, no_mixture}
    with repeats 2 completes and writes the summary table: one row per
    cell with mean and std over repeats, reference numbers carried as
    metadata only. The maximum-vs-average direction is reported, never
    asserted: at this scale it is noise."""
    grid = {
        "base": config_to_dict(_tiny_cli_config()),
        "aggregations": ["maximum", "average", "none"],
        "mixtures": ["mixture", "no_mixture"],
        "repeats": 2,
    }
    gpath = tmp_path / "grid.json"
    gpath.write_text(json.dumps(grid))
    out = tmp_path / "out"
    code = main(["ablate", "--config", str(gpath), "--out", str(out)])

    lines = (out / "ablation.csv").read_text().splitlines()
    meta = lines[1]
    header = lines[2].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[3:]]
    cells = {(r["aggregation"], r["mixture"]) for r in rows}
    expected = {(a, m) for a in ("maximum", "average", "none")
                for m in ("mixture", "no_mixture")}
    shape_ok = (
        code == 0 and len(rows) == 6 and cells == expected
        and all(r["repeats_ok"] == "2" and r["status"] == "ok" for r in rows)
        and {"knn_mean", "knn_std", "linear_mean", "linear_std"} <= set(header)
        and all(0.0 <= float(r["knn_mean"]) <= 1.0 for r in rows)
        and all(float(r["knn_std"]) >= 0.0 for r in rows)
    )
    meta_ok = all(v in meta for v in ("93.35", "92.71", "92.86", "90.71"))
    meta_ok = meta_ok and "not asserted" in meta

    by_cell = {(r["aggregation"], r["mixture"]): float(r["knn_mean"]) for r in rows}
    direction = by_cell[("maximum", "mixture")] - by_cell[("average", "mixture")]
    ok = shape_ok and meta_ok
    verdict(7, ok, f"6 cells x 2 repeats all ok={shape_ok}, reference "
                   f"metadata={meta_ok}; maximum-vs-average knn delta "
                   f"{direction:+.4f} (reported only)")


# -- 8. lambda sweep -------------------------------------------------------------


def test_criterion_8_lambda_sweep_shape(tmp_path):
    """`sweep-lambda` over {0, 0.25, 0.5, 0.75, 1} emits a CSV whose
    lambda column is monotone ascending plus an SVG plot, and the
    lambda=0 cell lands markedly below lambda=0.5 on the linear probe."""
    t0 = time.time()
    spec = {
        "base": config_to_dict(TrainConfig(
            dataset=DatasetConfig(per_class=60), epochs=10)),
        "lambda_values": [0.0, 0.25, 0.5, 0.75, 1.0],
        "repeats": 1,
    }
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps(spec))
    out = tmp_path / "out"
    code = main(["sweep-lambda", "--config", str(spath), "--out", str(out)])

    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[2].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[3:]]
    lams = [float(r["lambda"]) for r in rows]
    linear = {float(r["lambda"]): float(r["linear_mean"]) for r in rows}
    monotone = lams == sorted(lams) and len(set(lams)) == len(lams)
    svg = (out / "sweep.svg").read_text()
    plot_ok = svg.startswith("<svg") and svg.count("<circle") == 5
    drop = linear[0.5] - linear[0.0]
    anchor_ok = drop >= 0.05
    elapsed = time.time() - t0

    ok = (code == 0 and len(rows) == 5 and monotone and plot_ok
          and all(r["status"] == "ok" for r in rows)
          and "23.76" in lines[1] and anchor_ok)
    verdict(8, ok, f"lambdas {lams} monotone={monotone}, linear accuracy "
                   f"lambda=0 {linear[0.0]:.4f} vs lambda=0.5 {linear[0.5]:.4f} "
                   f"(drop {drop * 100:.1f} points), svg={plot_ok}, {elapsed:.0f}s")


# -- 9. reproducibility and round trips ------------------------------------------


def test_criterion_9_reproducibility_and_round_trips(tmp_path):
    """Bitwise determinism of the metrics CSV, bitwise equality of a
    resumed run with the uninterrupted one at every epoch boundary, and a
    lossless binary round trip for the image archive format."""
    cfg = _tiny_cli_config(epochs=3)
    ds = cfg.dataset.build()

    run(cfg, ds, tmp_path / "a")
    run(cfg, ds, tmp_path / "b")
    csv_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    determinism = (csv_a == (tmp_path / "b" / "metrics.csv").read_bytes()
                   and (tmp_path / "a" / "ckpt_final.bin").read_bytes()
                   == (tmp_path / "b" / "ckpt_final.bin").read_bytes())

    resume_ok = True
    for boundary in (1, 2):
        rdir = tmp_path / f"resume{boundary}"
        run(cfg, ds, rdir)
        # drop everything after the boundary, then resume from its checkpoint
        kept = []
        for line in (rdir / "metrics.csv").read_text().splitlines():
            if line.startswith("#") or line.startswith("step"):
                kept.append(line)
            elif int(line.split(",")[1]) < boundary:
                kept.append(line)
        (rdir / "metrics.csv").write_text("\n".join(kept) + "\n")
        run(cfg, ds, rdir, resume=str(rdir / f"ckpt_epoch_{boundary}.bin"))
        resume_ok = resume_ok and (
            (rdir / "metrics.csv").read_bytes() == csv_a
            and (rdir / "ckpt_final.bin").read_bytes()
            == (tmp_path / "a" / "ckpt_final.bin").read_bytes())

    rng = np.random.default_rng(3)
    raw = rng.integers(0, 256, size=(25, 3, 32, 32), dtype=np.uint8)
    labels = rng.integers(0, 10, size=25)
    records = [ImageRecord(pixels=raw[i] / 255.0, label=int(labels[i]),
                           source_index=i) for i in range(25)]
    write_cifar10_batch(records, tmp_path / "test_batch.bin")
    loaded = load_cifar10(str(tmp_path), split="test")
    pixels_ok = all(np.array_equal(loaded.records[i].pixels, records[i].pixels)
                    for i in range(25))
    labels_ok = np.array_equal(loaded.labels(), labels)
    write_cifar10_batch(loaded.records, tmp_path / "batch2.bin")
    bytes_ok = (tmp_path / "test_batch.bin").read_bytes() == \
        (tmp_path / "batch2.bin").read_bytes()
    round_trip = pixels_ok and labels_ok and bytes_ok

    ok = determinism and resume_ok and round_trip
    verdict(9, ok, f"bitwise rerun={determinism}, bitwise resume at epochs "
                   f"1 and 2={resume_ok}, archive round trip={round_trip}")
