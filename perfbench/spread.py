"""Run the benchmark once per seed and report, for every metric, the
median, the quartiles and the spread (distance between the quartiles as a
share of the median, from statistics.quantiles(values, n=4)), next to the
bound that BENCHMARK.json fixes.

Run from the repository root, one run at a time:

    python3 perfbench/spread.py --workload train_synth --seeds 1-10
    python3 perfbench/spread.py --workload eval_cifar --seeds 1-10 --out perfbench/baseline.json

--out merges the summary for the workload into a JSON file, keeping the
other workloads already in it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"]})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    print(f"\n{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "values": vals}
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
        print(f"{name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '-':>6}{flag}")

    if args.out:
        stem = f"{args.workload}_seed{args.seeds[-1]}_trace{args.trace}"
        record = json.loads((ROOT / ".bench_out" / f"{stem}.json").read_text())
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc[args.workload] = {"seeds": args.seeds, "run_seconds": bench["run_seconds"],
                              "trace": args.trace, "environment": record["environment"],
                              "runs": runs, "metrics": summary}
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
