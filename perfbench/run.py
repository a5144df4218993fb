"""mixsiam benchmark: one workload in one fresh process, one closed-loop caller.

Run from the repository root:

    python3 perfbench/run.py --workload train_synth --seed 1 --seconds 30 --trace 0

Workloads (every input is generated from --seed; nothing is downloaded):

  train_synth  configs/synthetic_small.json through train.run, then
               eval.evaluate: the README quick start. Backward and
               augmentation dominate; evaluation is cheap.
  train_cifar  configs/cifar10.json (batch 64, 10 classes) on generated
               CIFAR-10-format files, through train.run and evaluate. Adds
               the binary parser and a larger resident dataset.
  eval_cifar   train.load_checkpoint then eval.evaluate on larger
               CIFAR-10-format files. Forward only, eval-mode batchnorm,
               batch 256; the k-NN similarity matrix and float64 pixels set
               the memory. No augmentation and no backward run here.

A train workload repeats "train.run for a few epochs, then evaluate" with
the same seed until --seconds are used (at least twice), so every run
checks the determinism contract: all repetitions write the same
metrics.csv bytes. eval_cifar repeats "load_checkpoint, then evaluate".

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions, prints the per-layer metrics, checks that a traced
repetition writes the same bytes as an untraced one, and reports the
tracing overhead. The last line of stdout is the JSON result; a fuller
record (environment, sample counts, checks, spans) goes to .bench_out/.
Exit code 2 means the program to measure was not found.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# Pin BLAS to one thread before numpy loads: the host has few cores and
# is shared, and one thread keeps the float sums and the timings steady.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing as tr  # noqa: E402

# How much work one repetition does: `epochs` of train.run, then `evals`
# evaluate calls (default 1; the train workloads' evaluate calls are short,
# and one sample per repetition is not steady). SMOKE is
# the size the benchmark's own tests use.
WORKLOADS = {
    "train_synth": {"config": "configs/synthetic_small.json", "epochs": 3, "evals": 3},
    "train_cifar": {"config": "configs/cifar10.json", "epochs": 1, "evals": 2,
                    "n_train": 1280, "n_test": 256},
    "eval_cifar": {"config": "configs/cifar10.json", "n_train": 5120, "n_test": 1024},
}
SMOKE = {
    "train_synth": {"epochs": 1, "per_class": 22},
    "train_cifar": {"n_train": 256, "n_test": 64},
    "eval_cifar": {"n_train": 512, "n_test": 256},
}
EVAL_BATCH = 256          # eval.extract_features' default batch
SETUP_REPEATS = 5
MIN_REPS = 2


def median(xs):
    return statistics.median(xs) if xs else 0.0


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# -- the program under test -------------------------------------------------


def load_program():
    """Import mixsiam from this checkout's src/, or exit 2 if it is absent."""
    src = ROOT / "src"
    needed = [src / "mixsiam" / "__init__.py"] + [ROOT / w["config"] for w in WORKLOADS.values()]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: program not found, missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import numpy as np
    import mixsiam
    from mixsiam import data, eval as ev, train
    if Path(mixsiam.__file__).resolve().parent != (src / "mixsiam").resolve():
        print(f"perfbench: imported mixsiam from {mixsiam.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return np, data, ev, train


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), "")
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": None,
        "git_dirty": None,
        "src_sha256": None,
    }
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    env["src_sha256"] = h.hexdigest()
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            env["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
            env["git_dirty"] = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                capture_output=True, text=True, timeout=30, check=True).stdout.strip())
    return env


def import_seconds(repeats):
    """Median wall time of a fresh interpreter importing the package, as a
    `mixsiam` command pays it on every start."""
    code = "import sys; sys.path.insert(0, 'src'); import mixsiam.train, mixsiam.eval"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return median(times)


# -- inputs -------------------------------------------------------------------


def seeded_config(train, path, seed, **dataset):
    with open(ROOT / path) as f:
        cfg = train.config_from_dict(json.load(f))
    return dataclasses.replace(
        cfg, seed=seed, augment=dataclasses.replace(cfg.augment, seed=seed),
        dataset=dataclasses.replace(cfg.dataset, seed=seed, **dataset))


def write_cifar_files(np, data, directory, n_train, n_test, seed):
    """CIFAR-10-format train/test files holding 10-class gratings, shuffled
    so that every file holds every class."""
    per_class = -(-(n_train + n_test) // 10)
    ds = data.make_synthetic(data.SyntheticConfig(classes=10, per_class=per_class, seed=seed))
    order = np.random.default_rng(seed).permutation(len(ds.records))
    recs = [ds.records[i] for i in order[:n_train + n_test]]
    os.makedirs(directory, exist_ok=True)
    per_file = n_train // len(data.CIFAR_TRAIN_FILES)
    for i, name in enumerate(data.CIFAR_TRAIN_FILES):
        end = n_train if i == len(data.CIFAR_TRAIN_FILES) - 1 else (i + 1) * per_file
        data.write_cifar10_batch(recs[i * per_file:end], os.path.join(directory, name))
    data.write_cifar10_batch(recs[n_train:], os.path.join(directory, data.CIFAR_TEST_FILES[0]))


# -- checks -------------------------------------------------------------------


def losses_finite(metrics_csv):
    """Number of metrics.csv rows, and how many carry a non-finite loss."""
    rows = bad = 0
    with open(metrics_csv) as f:
        cols = None
        for line in f:
            if line.startswith("#"):
                continue
            fields = line.rstrip("\n").split(",")
            if cols is None:
                cols = fields
                idx = [cols.index(c) for c in ("l_siam", "l_mix", "total")]
                continue
            rows += 1
            if not all(math.isfinite(float(fields[i])) for i in idx):
                bad += 1
    return rows, bad


def report_consistent(report, n_test):
    """Accuracies lie in [0, 1] and the per-class rows decompose top-1."""
    pcs = report.per_class_accuracy.values()
    if sum(r["count"] for r in pcs) != n_test:
        return False
    for key, top1 in (("knn", report.knn_top1), ("linear", report.linear_top1)):
        if not 0.0 <= top1 <= 1.0:
            return False
        if abs(sum(r["count"] * r[key] for r in pcs) / n_test - top1) > 1e-9:
            return False
    return True


def knn_bruteforce(np, train_feats, train_labels, test_feats, k, classes):
    """k-NN votes recomputed row by row: neighbours ordered by descending
    cosine similarity, ties by training index; vote ties to the smallest
    class id."""
    def unit(f):
        f = np.asarray(f, dtype=np.float64)
        return f / np.maximum(np.linalg.norm(f, axis=1, keepdims=True), 1e-12)
    tn, qn = unit(train_feats), unit(test_feats)
    labels = np.asarray(train_labels)
    index = np.arange(tn.shape[0])
    preds = []
    for start in range(0, qn.shape[0], EVAL_BATCH):
        for row in qn[start:start + EVAL_BATCH] @ tn.T:
            nearest = np.lexsort((index, -row))[:k]
            votes = np.bincount(labels[nearest], minlength=classes)
            preds.append(int(np.flatnonzero(votes == votes.max())[0]))
    return np.array(preds, dtype=np.int64)


def step_times(reps):
    return [b - a for r in reps for a, b in r["intervals"]]


def all_reports(reps, traced=None):
    return [r["reports"] for r in reps if traced is None or r["traced"] == traced]


def timed(inner, intervals):
    """`inner`, appending the (start, end) of every call to `intervals`."""
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            intervals.append((t0, time.perf_counter()))
    return wrapper


def capture(inner, into):
    """`inner`, keeping the named arguments and the result of the last call
    in `into`."""
    signature = inspect.signature(inner)

    def wrapper(*args, **kwargs):
        result = inner(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        into.update(bound.arguments, result=result)
        return result
    return wrapper


# -- one run ------------------------------------------------------------------


class Run:
    """State of one benchmark process: the inputs, the timings and the
    outcome of every operation and check."""

    def __init__(self, args):
        self.args = args
        self.spec = dict(WORKLOADS[args.workload])
        if args.smoke:
            self.spec.update(SMOKE[args.workload])
        self.np, self.data, self.ev, self.train = load_program()
        self.work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.tracer = tr.Tracer()

    # bookkeeping

    def op(self, n=1, failed=0):
        self.attempted += n
        self.failed += int(failed)

    def check(self, name, ok):
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        self.op(failed=not ok)

    @contextlib.contextmanager
    def traced(self, on):
        with contextlib.ExitStack() as stack:
            if on:
                tr.install(self.tracer, stack)
            yield

    # set-up

    def config(self):
        overrides = {k: self.spec[k] for k in ("per_class",) if k in self.spec}
        if self.args.workload != "train_synth":
            overrides["dir"] = str(self.work / "cifar10")
        cfg = seeded_config(self.train, self.spec["config"], self.args.seed, **overrides)
        if "epochs" in self.spec:
            cfg = dataclasses.replace(cfg, epochs=self.spec["epochs"])
        return cfg

    def prepare(self):
        """Write the generated input files and the checkpoint. Not timed:
        a user already has these."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        cfg = self.config()
        if self.args.workload != "train_synth":
            write_cifar_files(self.np, self.data, cfg.dataset.dir, self.spec["n_train"],
                              self.spec["n_test"], self.args.seed)
        if self.args.workload == "eval_cifar":
            self.ckpt = self.work / "ckpt.bin"
            self.train.save_checkpoint(self.train.TrainState.fresh(cfg), cfg, self.ckpt)

    def setup_once(self):
        """What a user pays before the first operation: config, datasets
        and, for eval_cifar, the checkpoint."""
        self.train_ds = self.test_ds = None  # free the previous copy first
        self.cfg = self.config()
        if self.args.workload == "eval_cifar":
            self.train.load_checkpoint(self.ckpt)
        self.train_ds, self.test_ds = self.ev.eval_datasets(self.cfg.dataset)

    def setup(self, trace_on):
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            with self.traced(trace_on):
                self.setup_once()
            times.append(time.perf_counter() - t0)
        return median(times)

    # the measured loop

    def repetitions(self, body):
        """Call body(i, traced) until --seconds are used, at least MIN_REPS
        times; with --trace 1 odd repetitions are traced."""
        deadline = time.perf_counter() + self.args.seconds
        durations = []
        i = 0
        while i < MIN_REPS or time.perf_counter() + median(durations) <= deadline:
            t0 = time.perf_counter()
            body(i, bool(self.args.trace) and i % 2 == 1)
            durations.append(time.perf_counter() - t0)
            i += 1

    def measure_train(self):
        train, ev = self.train, self.ev
        reps = []

        def body(i, traced):
            out = self.work / f"rep{i}"
            stamps = [time.perf_counter()]
            try:
                with self.traced(traced):
                    state = train.run(self.cfg, self.train_ds, str(out),
                                      on_metrics=lambda m: stamps.append(time.perf_counter()))
                    evals = [time.perf_counter()]
                    reports = []
                    for _ in range(self.spec.get("evals", 1)):
                        reports.append(ev.evaluate(state.params, self.cfg,
                                                   self.train_ds, self.test_ds))
                        evals.append(time.perf_counter())
            except Exception:
                traceback.print_exc()
                self.op(n=len(stamps), failed=1)   # steps done plus the one that raised
                return
            rows, bad = losses_finite(out / "metrics.csv")
            self.op(n=rows, failed=bad)
            self.check("metrics_csv_row_per_step", rows == len(stamps) - 1)
            for report in reports:
                self.op(failed=not report_consistent(report, len(self.test_ds)))
            reps.append({"traced": traced, "intervals": list(zip(stamps, stamps[1:])),
                         "run_s": evals[1] - stamps[0], "evals": list(zip(evals, evals[1:])),
                         "csv": sha256_file(out / "metrics.csv"),
                         "reports": {json.dumps(r.to_json(), sort_keys=True) for r in reports}})
            shutil.rmtree(out, ignore_errors=True)

        self.repetitions(body)
        self.reps = reps
        self.images_per_step = self.cfg.batch_size
        self.check("metrics_csv_equal_across_repetitions", len({r["csv"] for r in reps}) == 1)
        self.check("report_equal_across_repetitions", len(set().union(*all_reports(reps))) == 1)

    def measure_eval(self):
        train, ev, np = self.train, self.ev, self.np
        reps = []
        captured = {}

        def body(i, traced):
            spans = []
            try:
                with self.traced(traced), contextlib.ExitStack() as stack:
                    # wrap whatever is installed now, so traced repetitions
                    # still reach the tracing wrappers
                    stack.enter_context(tr.Patch(ev.encode, timed(ev.encode, spans)))
                    stack.enter_context(tr.Patch(ev.knn_predict,
                                                 capture(ev.knn_predict, captured)))
                    t0 = time.perf_counter()
                    state, cfg = train.load_checkpoint(self.ckpt)
                    t1 = time.perf_counter()
                    report = ev.evaluate(state.params, cfg, self.train_ds, self.test_ds)
                    t2 = time.perf_counter()
            except Exception:
                traceback.print_exc()
                self.op(failed=1)
                return
            self.op(failed=not report_consistent(report, len(self.test_ds)))
            reps.append({"traced": traced, "intervals": spans, "run_s": t2 - t0,
                         "evals": [(t1, t2)],
                         "reports": {json.dumps(report.to_json(), sort_keys=True)}})

        self.repetitions(body)
        self.reps = reps
        self.images_per_step = EVAL_BATCH
        self.check("report_equal_across_repetitions", len(set().union(*all_reports(reps))) == 1)
        if captured:
            labels = captured["train_labels"]
            expect = knn_bruteforce(np, captured["train_feats"], labels, captured["test_feats"],
                                    captured["k"], captured["class_count"] or max(labels) + 1)
            self.check("knn_matches_bruteforce", np.array_equal(expect, captured["result"]))

    # results

    def end_to_end(self, setup_s):
        reps = [r for r in self.reps if not r["traced"]]
        steps = step_times(reps)
        if not steps:
            return None
        return {
            "setup_s": (setup_s, "s"),
            "step_ms_p50": (1e3 * median(steps), "ms"),
            "step_ms_p90": (1e3 * statistics.quantiles(steps, n=10, method="inclusive")[-1],
                            "ms"),
            "img_per_s": (self.images_per_step * len(steps) / sum(steps), "1/s"),
            "run_s": (median([r["run_s"] for r in reps]), "s"),
            "eval_s": (median([b - a for r in reps for a, b in r["evals"]]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }


# -- per-layer metrics from the spans ------------------------------------------
#
# A "step" is one train step on the train workloads and one 256-image
# forward batch of extract_features on eval_cifar. Which end-to-end metric
# each layer metric should move, and where:
#   train.augment_ms, augment.*: step_ms_p50 and img_per_s on both train
#     workloads; no change on eval_cifar (no augmentation runs there).
#   autodiff.backward_ms: step_ms_p50 on the train workloads; none on eval_cifar.
#   autodiff.fwd.*, model.*: step_ms_p50 on the train workloads, step_ms_p50
#     and eval_s on eval_cifar.
#   eval.*_s: eval_s everywhere, run_s on the train workloads.
#   data.load_s, data.pixel_bytes: setup_s and peak_rss_mb on the cifar workloads.
#   eval.sim_bytes: peak_rss_mb on eval_cifar.
#   train.ckpt_save_ms: run_s, and step_ms_p90 on train_synth, whose epoch
#     boundaries fall inside step intervals.
#   train.ckpt_load_ms: setup_s and run_s on eval_cifar.
#   train.sgd_ms, loss.ms, data.batch_ms: each under 1% of a step; no
#     visible end-to-end change predicted.
# Counts (autodiff.op_calls, graph_nodes, conv2d_macs, im2col_bytes) are
# exact per step; the conv2d ones are computed from shapes.

FWD_NAMED = ("conv2d", "batchnorm", "relu", "matmul", "l2_normalize")
# per-step self time, ms: metric -> span names
STEP_SELF = {
    "train.augment_ms": ("train.make_triplet",),
    "augment.view_ms": ("augment.augment_view",),
    "augment.resize_ms": ("augment.resize_bilinear",),
    "augment.blur_ms": ("augment.gaussian_blur",),
    "augment.mix_ms": ("augment.mix",),
    "autodiff.backward_ms": ("autodiff.backward",),
    **{f"autodiff.fwd.{op}_ms": (f"autodiff.fwd.{op}",) for op in FWD_NAMED},
    "autodiff.fwd.other_ms": tuple(f"autodiff.fwd.{op}" for op in tr.AUTODIFF_OPS
                                   if op not in FWD_NAMED),
    "model.encode_ms": ("model.encode",),
    "model.predict_ms": ("model.predict",),
    "train.sgd_ms": ("train.apply_sgd",),
    "loss.ms": tuple(n for n in tr.TRACED.values() if n.startswith("loss.")),
    "data.batch_ms": ("data.batches",),
}
# per-evaluate inclusive time, s: the four phases of evaluate
EVAL_TOTAL = {
    "eval.extract_s": "eval.extract_features",
    "eval.knn_s": "eval.knn_predict",
    "eval.linear_s": "eval.linear_probe",
    "eval.checksum_s": "eval.params_checksum",
}
# per-call inclusive time: metric -> (span names, scale to the unit)
CALL_TOTAL = {
    "data.load_s": (("data.load_cifar10", "data.make_synthetic"), 1.0),
    "train.ckpt_save_ms": (("train.save_checkpoint",), 1e3),
    "train.ckpt_load_ms": (("train.load_checkpoint",), 1e3),
}
STEP_COUNTS = ("autodiff.graph_nodes", "autodiff.conv2d_macs", "autodiff.im2col_bytes")
UNITS = {"_ms": "ms", "_s": "s", ".ms": "ms", "_bytes": "bytes"}


def _unit(name):
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def layer_metrics(run):
    spans, selfs = run.tracer.spans, tr.self_times(run.tracer.spans)
    traced = [r for r in run.reps if r["traced"]]
    steps = sorted(span for r in traced for span in r["intervals"])
    evals = sorted(span for r in traced for span in r["evals"])

    def bucket(t, intervals):
        lo, hi = 0, len(intervals)
        while lo < hi:           # last interval starting at or before t
            mid = (lo + hi) // 2
            if intervals[mid][0] <= t:
                lo = mid + 1
            else:
                hi = mid
        i = lo - 1
        return i if i >= 0 and t <= intervals[i][1] else None

    per_step = [dict() for _ in steps]
    per_eval = [dict() for _ in evals]
    calls = {}
    for s, self_t in zip(spans, selfs):
        calls.setdefault(s.name, []).append(s.end - s.start)
        i = bucket(s.start, steps)
        if i is not None:
            acc = per_step[i]
            acc[s.name] = acc.get(s.name, 0.0) + self_t
            if s.name.startswith("autodiff.fwd."):
                acc["autodiff.op_calls"] = acc.get("autodiff.op_calls", 0) + 1
        j = bucket(s.start, evals)
        if j is not None:
            per_eval[j][s.name] = per_eval[j].get(s.name, 0.0) + (s.end - s.start)
    for name, t, value in run.tracer.counts:
        i = bucket(t, steps)
        if i is not None:
            per_step[i][name] = per_step[i].get(name, 0) + value

    out = {}
    for metric, names in STEP_SELF.items():
        out[metric] = 1e3 * median([sum(acc.get(n, 0.0) for n in names) for acc in per_step])
    for metric in ("autodiff.op_calls",) + STEP_COUNTS:
        out[metric] = median([acc.get(metric, 0) for acc in per_step])
    for metric, name in EVAL_TOTAL.items():
        out[metric] = median([acc.get(name, 0.0) for acc in per_eval])
    for metric, (names, scale) in CALL_TOTAL.items():
        out[metric] = scale * median([d for n in names for d in calls.get(n, [])])
    records = run.train_ds.records + run.test_ds.records
    out["data.pixel_bytes"] = sum(r.pixels.nbytes for r in records)
    out["eval.sim_bytes"] = len(run.test_ds) * len(run.train_ds) * 8
    untraced = [r for r in run.reps if not r["traced"]]
    out["trace.overhead_ms"] = 1e3 * (median(step_times(traced)) - median(step_times(untraced)))
    return {k: (v, _unit(k)) for k, v in out.items()}


# -- entry point ----------------------------------------------------------------


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)

    run = Run(args)
    t_imported = time.perf_counter()
    try:
        run.prepare()
        t_prepared = time.perf_counter()
        setup_s = import_seconds(SETUP_REPEATS) + run.setup(bool(args.trace))
        if args.workload == "eval_cifar":
            run.measure_eval()
        else:
            run.measure_train()
        if args.trace:
            traced_csv = {r.get("csv") for r in run.reps if r["traced"]}
            plain_csv = {r.get("csv") for r in run.reps if not r["traced"]}
            run.check("traced_output_identical",
                      traced_csv == plain_csv and
                      set().union(*all_reports(run.reps, True)) ==
                      set().union(*all_reports(run.reps, False)))
            metrics = layer_metrics(run)
        else:
            metrics = run.end_to_end(setup_s)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    if metrics is None or not run.reps:
        run.op(failed=1)
        metrics = {}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": environment(run.np),
        "attempted": run.attempted, "failed": run.failed,
        "fail_frac": run.failed / max(run.attempted, 1),
        "checks": run.checks,
        "step_ms": [1e3 * s for s in step_times(r for r in run.reps if not r["traced"])],
        "samples": {"repetitions": len(run.reps),
                    "steps": len(step_times(r for r in run.reps if not r["traced"])),
                    "traced_steps": len(step_times(r for r in run.reps if r["traced"]))},
        "harness_s": {"imports": t_imported - T_START, "prepare": t_prepared - t_imported},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if args.trace:
        with open(OUT / f"{stem}_spans.json", "w") as f:
            json.dump({"spans": [[s.name, s.start, s.end, s.parent] for s in run.tracer.spans],
                       "counts": run.tracer.counts}, f)

    for k, (v, u) in metrics.items():
        print(f"{k:28s} {v:14.6g} {u}")
    print(f"{'fail_frac':28s} {record['fail_frac']:14.6g} ({run.failed}/{run.attempted})"
          f"  checks {run.checks}  samples {record['samples']}")
    env = record["environment"]
    print(f"env python {env['python']} numpy {env['numpy']} blas {env['blas']['name']}"
          f" {env['blas']['version']} threads {env['threads']} nproc {env['nproc']}"
          f" cpu {env['cpu']!r} git {env['git_sha']} dirty {env['git_dirty']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
