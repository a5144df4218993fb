"""The benchmark's own tests: a smoke-size run of every workload, traced
and untraced, checked against the result schema that BENCHMARK.json
defines; a refusal check with the program absent; and the probe-accuracy
floor of train_synth at full length.

Run from the repository root (about two minutes on two cores):

    python3 perfbench/selftest.py

The file is not named test_*.py so that the repository's own test
command does not collect it.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload, trace, cwd=ROOT):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


class BenchmarkFile(unittest.TestCase):
    def test_contract(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertEqual(BENCH["paths"], ["perfbench"])
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(run.WORKLOADS))
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        names += [w["name"] for w in BENCH["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in BENCH["end_to_end"]))


class Smoke(unittest.TestCase):
    def check_result(self, proc, metrics):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return result

    def test_end_to_end(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_result(bench(workload, 0), BENCH["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(bench(workload, 1), BENCH["per_layer"])
                record = json.loads(
                    (run.OUT / f"{workload}_seed3_trace1.json").read_text())
                self.assertIs(record["checks"]["traced_output_identical"], True)
                self.assertTrue((run.OUT / f"{workload}_seed3_trace1_spans.json").is_file())

    def test_refuses_without_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("train_synth", 0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class FullLength(unittest.TestCase):
    def test_train_synth_probe_floor(self):
        """At the config's full length the trained encoder clears the floor
        of acceptance criterion 6: k-NN >= 0.80 and a linear probe at least
        10 points above a random-init encoder."""
        np, data, ev, train = run.load_program()
        cfg = run.seeded_config(train, run.WORKLOADS["train_synth"]["config"], seed=3)
        train_ds, test_ds = ev.eval_datasets(cfg.dataset)
        with tempfile.TemporaryDirectory() as tmp:
            state = train.run(cfg, train_ds, tmp)
        report = ev.evaluate(state.params, cfg, train_ds, test_ds)
        baseline = ev.random_baseline_report(cfg, train_ds, test_ds)
        self.assertGreaterEqual(report.knn_top1, 0.80)
        self.assertGreaterEqual(report.linear_top1 - baseline.linear_top1, 0.10)


if __name__ == "__main__":
    unittest.main(verbosity=2)
