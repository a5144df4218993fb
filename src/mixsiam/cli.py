"""Command-line entry points.

Subcommands: train, eval, ablate, sweep-lambda, dump-views. All take JSON
configs and write their artifacts (CSV metrics, JSON reports, SVG plots,
PPM contact sheets, binary checkpoints) under --out, each stamped with the
config hash so results stay traceable to the exact settings that produced
them.

Exit codes: 0 on success, 1 for runtime failures (divergence, I/O during
a run), 2 for configuration and usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .augment import LambdaMixPolicy, make_triplet, resize_bilinear
from .errors import ConfigError, ParseError, TrainingAborted
from .eval import eval_datasets, evaluate, write_per_class_csv, write_report
from .loss import AGGREGATION_KINDS, AggregationStrategy
from .train import (
    TrainConfig,
    config_from_dict,
    config_hash,
    load_checkpoint,
    run,
)

MIXTURE_VARIANTS = ("mixture", "no_mixture")

# Reported accuracies from the original CIFAR-10 experiments, carried in
# output metadata for orientation only — nothing here asserts them.
REFERENCE_TABLE = {"maximum": 93.35, "average": 92.71, "none": 92.86,
                   "no_mixture": 90.71}
REFERENCE_LAMBDA_ZERO = 23.76


@dataclass(frozen=True)
class AblationGrid:
    base: TrainConfig = TrainConfig()
    aggregations: tuple = AGGREGATION_KINDS
    mixtures: tuple = MIXTURE_VARIANTS
    repeats: int = 1

    def __post_init__(self):
        for name, values, known in (("aggregation", self.aggregations, AGGREGATION_KINDS),
                                    ("mixture", self.mixtures, MIXTURE_VARIANTS)):
            if not values:
                raise ConfigError(f"ablation grid needs at least one {name} variant")
            bad = [v for v in values if v not in known]
            if bad:
                raise ConfigError(f"unknown {name} variant(s) {bad}; choose from {known}")
            if len(set(values)) != len(values):
                raise ConfigError(f"ablation grid {name} variants must be unique, got {values}")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")


@dataclass(frozen=True)
class SweepSpec:
    base: TrainConfig = TrainConfig()
    lambda_values: tuple = (0.0, 0.5, 1.0)
    repeats: int = 1

    def __post_init__(self):
        if not self.lambda_values:
            raise ConfigError("sweep spec: lambda_values needs at least one value")
        for v in self.lambda_values:
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"sweep lambda {v} outside [0, 1]")
        if len(set(self.lambda_values)) != len(self.lambda_values):
            raise ConfigError("sweep lambda values must be unique")
        if tuple(sorted(self.lambda_values)) != tuple(self.lambda_values):
            raise ConfigError("sweep lambda values must be sorted ascending")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")


def _load_json(path, what):
    try:
        with open(path, "rb") as f:
            return json.loads(f.read().decode())
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except OSError as e:  # a directory, or no permission to read
        raise ConfigError(f"{what} file {path} cannot be read: {e}") from None
    except ValueError as e:  # bad UTF-8 or bad JSON
        raise ConfigError(f"{what} file {path} is not valid JSON: {e}") from None


def ablation_grid_from_dict(payload) -> AblationGrid:
    return config_from_dict(payload, AblationGrid, "ablation grid")


def sweep_spec_from_dict(payload) -> SweepSpec:
    return config_from_dict(payload, SweepSpec, "sweep spec")


def derive_seed(base_seed: int, cell_id: str, repeat: int) -> int:
    """Distinct, stable seed per (base seed, grid cell, repeat)."""
    digest = hashlib.sha256(f"{base_seed}:{cell_id}:{repeat}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _with_seed(cfg: TrainConfig, seed: int) -> TrainConfig:
    return dataclasses.replace(
        cfg, seed=seed, augment=dataclasses.replace(cfg.augment, seed=seed))


def cell_config(base: TrainConfig, aggregation: str, mixture: str, seed: int) -> TrainConfig:
    """One ablation cell: swap the aggregation rule and, for no_mixture,
    replace the mixed view with a per-sample coin flip between the two
    plain views (lambda drawn from {0, 1})."""
    cfg = dataclasses.replace(base, aggregation=AggregationStrategy(kind=aggregation))
    if mixture == "no_mixture":
        cfg = dataclasses.replace(cfg, lambda_mix=LambdaMixPolicy(kind="pick_view"))
    return _with_seed(cfg, seed)


# -- artifact writers --------------------------------------------------------


def write_ppm(pixels: np.ndarray, path, comment: str = ""):
    """Binary PPM (P6, maxval 255) from [H, W, 3] floats in [0, 1]."""
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ConfigError(f"ppm: expected [H, W, 3], got shape {pixels.shape}")
    h, w = pixels.shape[:2]
    body = np.round(np.clip(pixels, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(b"P6\n")
        if comment:
            f.write(f"# {comment}\n".encode())
        f.write(f"{w} {h}\n255\n".encode())
        f.write(body.tobytes())


def write_accuracy_svg(points, path, digest):
    """Small self-contained line plot of linear-probe accuracy against
    lambda: one marker per (lambda, accuracy) pair."""
    width, height = 640, 400
    ml, mr, mt, mb = 70, 25, 45, 55
    xs = [p[0] for p in points]
    lo, hi = min(xs), max(xs)
    span = (hi - lo) or 1.0

    def px(x):
        return ml + (x - lo) / span * (width - ml - mr)

    def py(acc):
        return height - mb - acc * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="monospace" font-size="13">',
        f"<!-- config_hash={digest} -->",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="24" text-anchor="middle" font-size="16">'
        'accuracy vs lambda</text>',
        # axes
        f'<line x1="{ml}" y1="{py(0)}" x2="{width-mr}" y2="{py(0)}" stroke="black"/>',
        f'<line x1="{ml}" y1="{py(0)}" x2="{ml}" y2="{py(1)}" stroke="black"/>',
        f'<text x="{(ml+width-mr)/2:.1f}" y="{height-12}" text-anchor="middle">lambda</text>',
        f'<text x="18" y="{(py(0)+py(1))/2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(py(0)+py(1))/2:.1f})">linear top-1</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = py(frac)
        parts.append(f'<line x1="{ml-4}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml-8}" y="{y+4:.1f}" text-anchor="end">{frac:.2f}</text>')
        if frac:
            parts.append(f'<line x1="{ml}" y1="{y:.1f}" x2="{width-mr}" y2="{y:.1f}" '
                         f'stroke="lightgray" stroke-dasharray="3,4"/>')
    for x in xs:
        parts.append(f'<line x1="{px(x):.1f}" y1="{py(0)}" x2="{px(x):.1f}" '
                     f'y2="{py(0)+4}" stroke="black"/>')
        parts.append(f'<text x="{px(x):.1f}" y="{py(0)+20:.1f}" '
                     f'text-anchor="middle">{x:g}</text>')
    coords = " ".join(f"{px(x):.1f},{py(a):.1f}" for x, a in points)
    parts.append(f'<polyline points="{coords}" fill="none" stroke="steelblue" '
                 f'stroke-width="2"/>')
    for x, a in points:
        parts.append(f'<circle cx="{px(x):.1f}" cy="{py(a):.1f}" r="4" fill="steelblue">'
                     f'<title>lambda={x:g}: {a:.4f}</title></circle>')
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


def view_strip(record, cfg: TrainConfig, epoch=0) -> np.ndarray:
    """[S, 4*S, 3] panel row for one image: original | view 1 | view 2 | mixed."""
    size = cfg.augment.output_size
    trip = make_triplet([record], cfg.augment, cfg.lambda_mix, epoch)
    original = record.pixels
    if original.shape[1:] != (size, size):
        original = resize_bilinear(original[None], size)[0]
    tiles = [original, trip.x1[0], trip.x2[0], trip.xm[0]]
    return np.concatenate([np.transpose(t, (1, 2, 0)) for t in tiles], axis=1)


def _stats(values):
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


@dataclass(frozen=True)
class CellSummary:
    """One grid cell over its repeats: how many succeeded and the (mean,
    std) of each probe's top-1, None when every repeat failed."""

    ok: int
    knn: tuple | None = None
    linear: tuple | None = None
    status: str = "failed"

    @classmethod
    def of(cls, knn, linear, repeats):
        if not knn:
            return cls(0)
        status = "ok" if len(knn) == repeats else f"partial({len(knn)}/{repeats})"
        return cls(len(knn), _stats(knn), _stats(linear), status)

    def csv_fields(self) -> str:
        """The CSV columns from repeats_ok on (see SUMMARY_COLUMNS)."""
        if not self.ok:
            return "0,,,,,failed"
        return ",".join([str(self.ok), *map(repr, self.knn + self.linear), self.status])


SUMMARY_COLUMNS = "repeats_ok,knn_mean,knn_std,linear_mean,linear_std,status"


def write_summary_csv(path, comments, key_columns, rows):
    """Per-cell summary CSV: `# ` comment lines, a header, then one row of
    key fields plus CellSummary.csv_fields per (key, summary) pair."""
    with open(path, "w") as f:
        for line in comments:
            f.write(f"# {line}\n")
        f.write(f"{key_columns},{SUMMARY_COLUMNS}\n")
        for key, summary in rows:
            f.write(f"{key},{summary.csv_fields()}\n")


# -- subcommands -------------------------------------------------------------


def _load_train_config(args) -> TrainConfig:
    if not args.config:
        raise ConfigError("this command requires --config PATH")
    cfg = config_from_dict(_load_json(args.config, "config"))
    if args.seed is not None:
        cfg = _with_seed(cfg, args.seed)
    return cfg


def _write_report_files(report, cfg, out_dir, **extra):
    """report.json (stamped with the config hash) and per_class.csv."""
    write_report(report, os.path.join(out_dir, "report.json"),
                 config_hash=config_hash(cfg), **extra)
    write_per_class_csv(report, os.path.join(out_dir, "per_class.csv"))


def _train_and_evaluate(cfg, datasets, out_dir, resume=None):
    train_ds, test_ds = datasets
    state = run(cfg, train_ds, out_dir, resume=resume)
    report = evaluate(state.params, cfg, train_ds, test_ds)
    _write_report_files(report, cfg, out_dir)
    return report


def cmd_train(args) -> int:
    cfg = _load_train_config(args)
    if args.resume and not os.path.exists(args.resume):
        raise ConfigError(f"resume checkpoint not found: {args.resume}")
    report = _train_and_evaluate(cfg, eval_datasets(cfg.dataset), args.out, resume=args.resume)
    print(f"train done: knn_top1={report.knn_top1:.4f} "
          f"linear_top1={report.linear_top1:.4f} "
          f"embedding_std={report.embedding_std:.4f} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    if not args.resume:
        raise ConfigError("eval requires --resume CHECKPOINT")
    if not os.path.exists(args.resume):
        raise ConfigError(f"checkpoint not found: {args.resume}")
    state, cfg = load_checkpoint(args.resume)
    train_ds, test_ds = eval_datasets(cfg.dataset)
    os.makedirs(args.out, exist_ok=True)
    report = evaluate(state.params, cfg, train_ds, test_ds)
    _write_report_files(report, cfg, args.out, checkpoint=os.path.abspath(args.resume))
    print(f"eval done: knn_top1={report.knn_top1:.4f} "
          f"linear_top1={report.linear_top1:.4f} -> {args.out}")
    return 0


def _run_cells(base, cells, datasets, out_dir, repeats):
    """Train/evaluate every (cell_id, config-builder) pair on the shared
    (train, test) `datasets`; never let one failed cell abort the rest.
    Returns one CellSummary per cell, in order."""
    results = []
    for cell_id, make_cfg in cells:
        knn, linear = [], []
        for rep in range(repeats):
            seed = derive_seed(base.seed, cell_id, rep)
            cfg = make_cfg(seed)
            cell_dir = os.path.join(out_dir, "cells", f"{cell_id}_rep{rep}")
            os.makedirs(cell_dir, exist_ok=True)
            try:
                report = _train_and_evaluate(cfg, datasets, cell_dir)
            except Exception as e:  # noqa: BLE001 - cell isolation is the point
                print(f"cell {cell_id} rep {rep} failed: {e}", file=sys.stderr)
                continue
            knn.append(report.knn_top1)
            linear.append(report.linear_top1)
        results.append(CellSummary.of(knn, linear, repeats))
    return results


def _grid_setup(base: TrainConfig, args):
    """(seeded base, (train, test) datasets, base config hash) for
    ablate/sweep-lambda. No cell changes `dataset`, so every cell trains on
    the one pair; a batch larger than it fails here, before the grid runs."""
    if args.seed is not None:
        base = _with_seed(base, args.seed)
    train_ds, test_ds = eval_datasets(base.dataset)
    if len(train_ds) // base.batch_size < 1:
        raise ConfigError(
            f"batch_size {base.batch_size} exceeds dataset size {len(train_ds)}")
    os.makedirs(args.out, exist_ok=True)
    return base, (train_ds, test_ds), config_hash(base)


def cmd_ablate(args) -> int:
    grid = ablation_grid_from_dict(_load_json(args.config, "ablation grid")
                                   if args.config else {})
    base, datasets, digest = _grid_setup(grid.base, args)
    keys = [(agg, mixture) for agg in grid.aggregations for mixture in grid.mixtures]
    summaries = _run_cells(base, [(f"{a}-{m}", lambda s, a=a, m=m: cell_config(base, a, m, s))
                                  for a, m in keys], datasets, args.out, grid.repeats)

    ref = " ".join(f"{k}={v}" for k, v in REFERENCE_TABLE.items())
    write_summary_csv(
        os.path.join(args.out, "ablation.csv"),
        [f"config_hash={digest}",
         f"reference top-1 % from the original CIFAR-10 experiments: {ref}"
         " (metadata only, not asserted)"],
        "aggregation,mixture",
        [(f"{a},{m}", summary) for (a, m), summary in zip(keys, summaries)])

    lines = [f"ablation over aggregation x mixture (knn top-1, {grid.repeats} repeat(s))",
             f"config_hash={digest}", ""]
    header = f"{'aggregation':<12} {'mixture':<12} {'knn top-1':<20} {'linear top-1':<20}"
    lines += [header, "-" * len(header)]
    for (agg, mixture), summary in zip(keys, summaries):
        knn_txt, lin_txt = (("{:.4f} +/- {:.4f}".format(*summary.knn),
                             "{:.4f} +/- {:.4f}".format(*summary.linear))
                            if summary.ok else ("failed", "failed"))
        lines.append(f"{agg:<12} {mixture:<12} {knn_txt:<20} {lin_txt:<20}")
    lines += ["", "reference top-1 % from the original CIFAR-10 experiments "
              "(metadata only): " + ref]
    with open(os.path.join(args.out, "ablation.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if any(summary.ok for summary in summaries) else 1


def cmd_sweep_lambda(args) -> int:
    spec = sweep_spec_from_dict(_load_json(args.config, "sweep spec") if args.config else {})
    base, datasets, digest = _grid_setup(spec.base, args)
    summaries = _run_cells(
        base, [(f"lambda-{lam:g}", lambda s, l=lam:
                _with_seed(dataclasses.replace(base, lam=l), s))
               for lam in spec.lambda_values], datasets, args.out, spec.repeats)

    write_summary_csv(
        os.path.join(args.out, "sweep.csv"),
        [f"config_hash={digest}",
         f"reference: lambda=0 reached {REFERENCE_LAMBDA_ZERO}% top-1 in the"
         " original CIFAR-10 experiments (metadata only, not asserted)"],
        "lambda",
        [(repr(lam), summary) for lam, summary in zip(spec.lambda_values, summaries)])
    points = [(lam, summary.knn[0], summary.linear[0])
              for lam, summary in zip(spec.lambda_values, summaries) if summary.ok]
    if points:
        # plot the linear-probe accuracy: it separates the blend settings
        # long before the k-NN numbers move off their ceiling
        write_accuracy_svg([(lam, lm) for lam, _, lm in points],
                           os.path.join(args.out, "sweep.svg"), digest)
    for lam, km, lm in points:
        print(f"lambda={lam:g}: knn_top1={km:.4f} linear_top1={lm:.4f}")
    return 0 if points else 1


def cmd_dump_views(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be positive, got {args.count}")
    cfg = _load_train_config(args)
    dataset = cfg.dataset.build()
    os.makedirs(args.out, exist_ok=True)
    count = min(args.count, len(dataset))
    comment = f"config_hash={config_hash(cfg)}"
    for i, record in enumerate(dataset.records[:count]):
        strip = view_strip(record, cfg)
        write_ppm(strip, os.path.join(args.out, f"views_{i:03d}.ppm"), comment=comment)
    print(f"wrote {count} sheet(s) to {args.out}: "
          "panels are original | view 1 | view 2 | mixed")
    return 0


# -- argument plumbing -------------------------------------------------------


FLAGS = {
    "config": dict(help="JSON config path"),
    "seed": dict(type=int, default=None,
                 help="override the config seed (training and augmentation)"),
    "resume": dict(default=None, help="checkpoint to resume from"),
    "count": dict(type=int, default=8, help="number of images to render (default 8)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixsiam",
        description="Siamese representation learning with mixed hard views.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, flags, help_text in [
            ("train", cmd_train, ("config", "seed", "resume"),
             "train and write a final evaluation report"),
            ("eval", cmd_eval, ("resume",), "evaluate a checkpoint (--resume)"),
            ("ablate", cmd_ablate, ("config", "seed"), "run the aggregation x mixture grid"),
            ("sweep-lambda", cmd_sweep_lambda, ("config", "seed"),
             "accuracy versus loss-blend lambda"),
            ("dump-views", cmd_dump_views, ("config", "seed", "count"),
             "write one original/view1/view2/mixed sheet per image")]:
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--out", required=True, help="output directory")
        for flag in flags:
            command.add_argument(f"--{flag}", **FLAGS[flag])
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        with warnings.catch_warnings():
            # numpy's floating-point notices, on any thread (the filters are
            # process-wide): a diverging run ends in TrainingAborted's one line
            warnings.filterwarnings("ignore", "(overflow|invalid value|divide by zero)"
                                    " encountered", RuntimeWarning)
            return args.func(args)
    except (ConfigError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TrainingAborted as e:
        print(f"training aborted: {e}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError) as e:  # I/O, or evaluation moved the frozen encoder
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy's names the array it could not allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
