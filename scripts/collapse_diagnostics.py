"""Stop-gradient collapse experiment: intact vs targets-attached training.

Runs the same config twice, once as shipped and once with stop_gradient
switched off, printing the per-epoch embedding spread of both. With the
targets attached the spread falls toward zero (all embeddings align);
the intact run keeps a healthy spread. Pure two-view training (lam=1)
shows the effect fastest because the mixed-branch target otherwise
anchors some diversity.
"""

import argparse
import dataclasses
import tempfile

from mixsiam.eval import eval_datasets, evaluate
from mixsiam.train import DatasetConfig, TrainConfig, run


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=5)
    ap.add_argument("--per-class", type=int, default=100)
    ap.add_argument("--lr", type=float, default=0.15)
    ap.add_argument("--batch-size", type=int, default=8)
    ap.add_argument("--lam", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args()


def spread_trajectory(cfg, train_ds):
    per_epoch = []
    last_in_epoch = {}

    def record(m):
        last_in_epoch[m.epoch] = m.embedding_std

    with tempfile.TemporaryDirectory() as d:
        state = run(cfg, train_ds, d, on_metrics=record)
    for epoch in sorted(last_in_epoch):
        per_epoch.append(last_in_epoch[epoch])
    return state, per_epoch


if __name__ == "__main__":
    args = parse_args()
    base = TrainConfig(
        dataset=DatasetConfig(per_class=args.per_class, seed=args.seed),
        epochs=args.epochs, lr_base=args.lr, batch_size=args.batch_size,
        lam=args.lam, seed=args.seed,
    )
    train_ds, test_ds = eval_datasets(base.dataset)
    for label, cfg in [("intact", base),
                       ("no stop-grad", dataclasses.replace(base, stop_gradient=False))]:
        state, traj = spread_trajectory(cfg, train_ds)
        report = evaluate(state.params, cfg, train_ds, test_ds)
        path = " -> ".join(f"{v:.4f}" for v in traj)
        print(f"{label:>13}: per-epoch spread {path}")
        print(f"{'':>13}  final embedding_std {report.embedding_std:.4f}, "
              f"knn {report.knn_top1:.4f}")
