"""End-to-end CLI tests: every subcommand against tiny synthetic runs,
exit-code contracts, artifact formats (CSV, JSON, SVG, PPM), and the
seed-override and cell-isolation behaviors."""

import dataclasses
import functools
import json
import pathlib
import threading

import numpy as np
import pytest

import mixsiam.cli as cli
import mixsiam.eval as eval_module
import mixsiam.model as model_module
import mixsiam.train as train_module
from conftest import identity_config
from conftest import tiny_config as shared_tiny_config
from mixsiam.augment import make_triplet
from mixsiam.cli import (
    AblationGrid,
    SweepSpec,
    ablation_grid_from_dict,
    cell_config,
    derive_seed,
    main,
    sweep_spec_from_dict,
    write_accuracy_svg,
    write_ppm,
)
from mixsiam.errors import ConfigError, TrainingAborted
from mixsiam.train import DatasetConfig, config_from_dict, config_hash, config_to_dict

tiny_config = functools.partial(shared_tiny_config, epochs=1)
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config_to_dict(cfg)))
    return str(path)


def read_ppm(path):
    blob = path.read_bytes()
    assert blob[:3] == b"P6\n"
    idx = 3
    comments = []
    while blob[idx:idx + 1] == b"#":
        nl = blob.index(b"\n", idx)
        comments.append(blob[idx:nl].decode())
        idx = nl + 1
    nl = blob.index(b"\n", idx)
    w, h = map(int, blob[idx:nl].split())
    idx = nl + 1
    nl = blob.index(b"\n", idx)
    assert blob[idx:nl] == b"255"
    pixels = np.frombuffer(blob[nl + 1:], dtype=np.uint8).reshape(h, w, 3)
    return comments, pixels


# -- train and eval ----------------------------------------------------------


def test_train_command_end_to_end(tmp_path, capsys):
    cfg = tiny_config()
    cpath = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["train", "--config", cpath, "--out", str(out)]) == 0

    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == f"# config_hash={config_hash(cfg)}"
    assert len(metrics) == 2 + 3  # hash line, header, 3 steps
    assert (out / "ckpt_final.bin").exists()

    report = json.loads((out / "report.json").read_text())
    assert report["config_hash"] == config_hash(cfg)
    assert 0.0 <= report["knn_top1"] <= 1.0
    assert (out / "per_class.csv").exists()
    assert "train done" in capsys.readouterr().out


def test_train_missing_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["train", "--config", missing, "--out", str(tmp_path / "o")]) == 2
    assert missing in capsys.readouterr().err


def test_train_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "ablate", "sweep-lambda"])
def test_a_config_that_is_not_utf8_exits_2_with_one_line(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe" + b"{}")
    out = tmp_path / "o"
    assert main([command, "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err and "utf-8" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate", "sweep-lambda"])
def test_a_config_that_is_a_directory_exits_2_with_one_line(tmp_path, capsys, command):
    folder = tmp_path / "configs"
    folder.mkdir()
    out = tmp_path / "o"
    assert main([command, "--config", str(folder), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{folder} cannot be read" in err
    assert not out.exists()


def test_train_unknown_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"learning_rate": 0.1}))
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "unknown field" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, message", [
    ("augment", "crop_scale_range", [0.2, 0.5, 1.0], "crop_scale_range"),
    ("augment", "aspect_ratio_range", [1.0], "aspect_ratio_range"),
    ("augment", "output_size", 31.5, "config.augment.output_size"),
    (None, "batch_size", 32.5, "config.batch_size"),
    (None, "epochs", 1.5, "config.epochs"),
    ("dataset", "per_class", 10.5, "config.dataset.per_class"),
    (None, "seed", "x", "config.seed"),
    ("augment", "seed", "x", "config.augment.seed"),
    (None, "stop_gradient", "no", "config.stop_gradient"),
])
def test_train_field_of_the_wrong_shape_or_type_exits_2(tmp_path, capsys, section, key,
                                                        value, message):
    payload = config_to_dict(shared_tiny_config())
    (payload[section] if section else payload)[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("path", [("lr_base",), ("weight_decay",),
                                  ("augment", "jitter_strengths", 0)],
                         ids=["lr_base", "weight_decay", "jitter_strengths0"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_train_non_finite_float_exits_2_before_any_side_effect(tmp_path, capsys, path, value):
    # Python's json reads these spellings as floats; a run must not start
    payload = config_to_dict(shared_tiny_config())
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = float(value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert value in bad.read_text()
    out = tmp_path / "o"
    assert main(["train", "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("section, flag", [(None, None), ("augment", None),
                                           ("dataset", None), (None, "-3")],
                         ids=["seed", "augment_seed", "dataset_seed", "seed_flag"])
def test_a_negative_seed_exits_2_with_one_line_before_creating_out(tmp_path, capsys,
                                                                   section, flag):
    payload = config_to_dict(shared_tiny_config())
    if flag is None:
        (payload[section] if section else payload)["seed"] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "o"
    argv = ["train", "--config", str(bad), "--out", str(out)]
    assert main(argv + (["--seed", flag] if flag else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "seed must be >= 0" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, payload", [("ablate", lambda: grid_payload()),
                                              ("sweep-lambda", lambda: sweep_payload())],
                         ids=["ablate", "sweep-lambda"])
def test_a_negative_seed_flag_on_a_grid_exits_2_before_creating_out(tmp_path, capsys,
                                                                   command, payload):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload()))
    out = tmp_path / "o"
    assert main([command, "--config", str(spec), "--out", str(out), "--seed", "-3"]) == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err and err.count("\n") == 1
    assert not out.exists()


def test_train_requires_config_flag(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path / "o")]) == 2
    assert "--config" in capsys.readouterr().err


def test_seed_flag_overrides_config_and_augment_seed(tmp_path):
    cfg = tiny_config()
    cpath = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["train", "--config", cpath, "--out", str(out), "--seed", "3"]) == 0

    overridden = dataclasses.replace(
        cfg, seed=3, augment=dataclasses.replace(cfg.augment, seed=3))
    first = (out / "metrics.csv").read_text().splitlines()[0]
    assert first == f"# config_hash={config_hash(overridden)}"


def test_same_seed_flag_twice_gives_identical_metrics(tmp_path):
    cpath = write_config(tmp_path, tiny_config())
    for d in ("a", "b"):
        assert main(["train", "--config", cpath, "--out", str(tmp_path / d),
                     "--seed", "7"]) == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()


def test_eval_command_reproduces_train_report(tmp_path):
    cfg = tiny_config()
    cpath = write_config(tmp_path, cfg)
    train_out = tmp_path / "train"
    assert main(["train", "--config", cpath, "--out", str(train_out)]) == 0

    eval_out = tmp_path / "eval"
    ckpt = str(train_out / "ckpt_final.bin")
    assert main(["eval", "--resume", ckpt, "--out", str(eval_out)]) == 0

    train_report = json.loads((train_out / "report.json").read_text())
    eval_report = json.loads((eval_out / "report.json").read_text())
    assert eval_report["knn_top1"] == train_report["knn_top1"]
    assert eval_report["linear_top1"] == train_report["linear_top1"]
    assert eval_report["embedding_std"] == train_report["embedding_std"]
    assert eval_report["checkpoint"].endswith("ckpt_final.bin")


def test_train_missing_resume_exits_2_before_creating_out(tmp_path, capsys):
    cpath = write_config(tmp_path, tiny_config())
    out = tmp_path / "o"
    assert main(["train", "--config", cpath, "--out", str(out),
                 "--resume", str(tmp_path / "nope.bin")]) == 2
    assert "resume checkpoint not found" in capsys.readouterr().err
    assert not out.exists()


def test_eval_requires_resume(tmp_path, capsys):
    assert main(["eval", "--out", str(tmp_path / "o")]) == 2
    assert "--resume" in capsys.readouterr().err


def test_eval_missing_checkpoint_exits_2(tmp_path, capsys):
    assert main(["eval", "--resume", str(tmp_path / "nope.bin"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_resume_path_that_is_a_directory_exits_2_before_creating_out(tmp_path, capsys,
                                                                       command):
    folder = tmp_path / "ckpt.bin"
    folder.mkdir()
    out = tmp_path / "o"
    config = ["--config", write_config(tmp_path, tiny_config())] if command == "train" else []
    assert main([command, *config, "--resume", str(folder), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{folder}: checkpoint cannot be read" in err
    assert not out.exists()


def test_a_cifar_batch_that_is_a_directory_exits_2_before_creating_out(tmp_path, capsys):
    data = tmp_path / "cifar"
    (data / "data_batch_1.bin").mkdir(parents=True)
    cfg = tiny_config(dataset=DatasetConfig(kind="cifar10", dir=str(data)))
    out = tmp_path / "o"
    assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "data_batch_1.bin: cannot be read" in err
    assert not out.exists()


def test_runtime_failure_maps_to_exit_1(tmp_path, monkeypatch, capsys):
    def exploding_run(*a, **k):
        raise TrainingAborted("non-finite values in loss at step 0")
    monkeypatch.setattr(cli, "run", exploding_run)
    cpath = write_config(tmp_path, tiny_config())
    assert main(["train", "--config", cpath, "--out", str(tmp_path / "o")]) == 1
    assert "training aborted" in capsys.readouterr().err


def test_a_worker_fault_in_training_exits_1_with_one_line(tmp_path, monkeypatch, capsys):
    # the branches run on the pool's workers; what one raises reaches main
    encode_real = model_module.encode

    def encode(params, x, mode, deferred=None):
        if threading.current_thread() is not threading.main_thread():
            raise TrainingAborted("non-finite values in a branch")
        return encode_real(params, x, mode, deferred)

    monkeypatch.setattr(model_module, "encode", encode)
    cpath = write_config(tmp_path, tiny_config())
    assert main(["train", "--config", cpath, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "training aborted: non-finite values in a branch\n"


@pytest.mark.parametrize("failing_call", [0, 2], ids=["calling_thread", "prepared_on_a_worker"])
def test_out_of_memory_in_training_exits_1_with_one_line(tmp_path, monkeypatch, capsys,
                                                         failing_call):
    # run makes its first views itself and each later step's on the pool;
    # no test allocates a real huge array: under overcommit one can succeed
    calls = []
    make_triplet_real = train_module.make_triplet

    def make_triplet(*args):
        calls.append(threading.current_thread())
        if len(calls) == failing_call + 1:
            raise MemoryError("Unable to allocate 2.98 TiB for an array with shape"
                              " (32, 3, 100000, 100000) and data type float32")
        return make_triplet_real(*args)

    monkeypatch.setattr(train_module, "make_triplet", make_triplet)
    cpath = write_config(tmp_path, tiny_config())
    assert main(["train", "--config", cpath, "--out", str(tmp_path / "o")]) == 1
    assert (calls[-1] is threading.main_thread()) == (failing_call == 0)
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 2.98 TiB for an array with shape"
        " (32, 3, 100000, 100000) and data type float32\n")


def test_eval_that_mutates_the_encoder_exits_1(tmp_path, monkeypatch, capsys):
    cpath = write_config(tmp_path, tiny_config())
    assert main(["train", "--config", cpath, "--out", str(tmp_path / "train")]) == 0
    digests = iter(range(100))
    monkeypatch.setattr(eval_module, "params_checksum", lambda params: str(next(digests)))
    capsys.readouterr()
    assert main(["eval", "--resume", str(tmp_path / "train" / "ckpt_final.bin"),
                 "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: ") and "mutated" in err


def test_usage_errors_exit_2(tmp_path):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["train"]) == 2  # --out is required


@pytest.mark.parametrize("command, flag", [
    ("eval", "--seed"),
    ("eval", "--config"),
    ("ablate", "--resume"),
    ("sweep-lambda", "--resume"),
    ("dump-views", "--resume"),
])
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, capsys, command, flag):
    # each subcommand takes only the flags it reads, so a flag it would
    # ignore (eval --seed keeping the checkpoint's seed) is a usage error
    cpath = write_config(tmp_path, tiny_config())
    args = {"eval": ["--resume", str(tmp_path / "ck.bin")]}.get(command, ["--config", cpath])
    value = {"--seed": "3", "--config": cpath}.get(flag, str(tmp_path / "ck.bin"))
    out = tmp_path / "o"
    assert main([command, *args, "--out", str(out), flag, value]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


# -- shipped configs -----------------------------------------------------------


@pytest.mark.parametrize("name, load", [
    ("synthetic_small.json", config_from_dict),
    ("cifar10.json", config_from_dict),
    ("ablation_grid.json", ablation_grid_from_dict),
    ("lambda_sweep.json", sweep_spec_from_dict),
])
def test_shipped_configs_load_and_round_trip(name, load):
    payload = json.loads((CONFIGS / name).read_text())
    spec = load(payload)
    assert config_to_dict(spec) == payload
    if "base" in payload:
        assert config_to_dict(config_from_dict(payload["base"])) == payload["base"]


def test_removed_config_keys_are_rejected(tmp_path, capsys):
    payload = json.loads((CONFIGS / "synthetic_small.json").read_text())
    payload["strict_deterministic"] = True
    cpath = tmp_path / "old.json"
    cpath.write_text(json.dumps(payload))
    assert main(["train", "--config", str(cpath), "--out", str(tmp_path / "o")]) == 2
    assert "strict_deterministic" in capsys.readouterr().err
    payload.pop("strict_deterministic")
    payload["dataset"]["split"] = "train"
    with pytest.raises(ConfigError, match=r"config\.dataset: unknown field\(s\) \['split'\]"):
        config_from_dict(payload)
    payload["dataset"].pop("split")
    # the embedding width is the last projector entry, and input is RGB
    for block, key, value in [("encoder", "embed_dim", 32), ("encoder", "in_channels", 3),
                              ("predictor", "embed_dim", 32)]:
        old = json.loads(json.dumps(payload))
        old[block][key] = value
        cpath.write_text(json.dumps(old))
        assert main(["train", "--config", str(cpath), "--out", str(tmp_path / "o")]) == 2
        assert f"config.{block}: unknown field(s) ['{key}']" in capsys.readouterr().err
    # "none" aggregation always adopts z1: the branch policy is gone
    old = json.loads(json.dumps(payload))
    old["aggregation"]["none_branch_policy"] = "always_first"
    cpath.write_text(json.dumps(old))
    assert main(["train", "--config", str(cpath), "--out", str(tmp_path / "o")]) == 2
    assert ("config.aggregation: unknown field(s) ['none_branch_policy']"
            in capsys.readouterr().err)
    # stages are plain conv stages, and lambda_mix has no Beta policy
    old = json.loads(json.dumps(payload))
    old["encoder"]["stages"][0]["residual"] = False
    old["lambda_mix"]["alpha"] = 1.0
    cpath.write_text(json.dumps(old))
    assert main(["train", "--config", str(cpath), "--out", str(tmp_path / "o")]) == 2
    assert "config.encoder.stages: unknown field(s) ['residual']" in capsys.readouterr().err
    old["encoder"]["stages"][0].pop("residual")
    cpath.write_text(json.dumps(old))
    assert main(["train", "--config", str(cpath), "--out", str(tmp_path / "o")]) == 2
    assert "config.lambda_mix: unknown field(s) ['alpha']" in capsys.readouterr().err


# -- ablation grid -----------------------------------------------------------


def grid_payload(**over):
    payload = {
        "base": config_to_dict(tiny_config()),
        "aggregations": ["maximum", "average"],
        "mixtures": ["mixture", "no_mixture"],
        "repeats": 2,
    }
    payload.update(over)
    return payload


def test_ablate_end_to_end(tmp_path):
    gpath = tmp_path / "grid.json"
    gpath.write_text(json.dumps(grid_payload()))
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(gpath), "--out", str(out)]) == 0

    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert "93.35" in lines[1] and "metadata only" in lines[1]
    assert lines[2].split(",")[0] == "aggregation"
    rows = [l.split(",") for l in lines[3:]]
    assert len(rows) == 4
    assert {(r[0], r[1]) for r in rows} == {
        ("maximum", "mixture"), ("maximum", "no_mixture"),
        ("average", "mixture"), ("average", "no_mixture")}
    for r in rows:
        assert r[2] == "2" and r[7] == "ok"
        assert 0.0 <= float(r[3]) <= 1.0

    table = (out / "ablation.txt").read_text()
    assert "+/-" in table and "maximum" in table

    # repeats get distinct derived seeds, so their runs differ
    a = (out / "cells" / "maximum-mixture_rep0" / "metrics.csv").read_text()
    b = (out / "cells" / "maximum-mixture_rep1" / "metrics.csv").read_text()
    assert a.splitlines()[0] != b.splitlines()[0]


def test_ablate_rerun_reproduces_table_bitwise(tmp_path):
    # repeats=1 with a fixed seed is fully keyed: a second invocation of the
    # same grid must rebuild the summary byte for byte.
    gpath = tmp_path / "grid.json"
    gpath.write_text(json.dumps(grid_payload(
        repeats=1, aggregations=["maximum"], mixtures=["mixture", "no_mixture"])))
    assert main(["ablate", "--config", str(gpath), "--out", str(tmp_path / "a")]) == 0
    assert main(["ablate", "--config", str(gpath), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "ablation.csv").read_bytes() == \
        (tmp_path / "b" / "ablation.csv").read_bytes()
    assert (tmp_path / "a" / "ablation.txt").read_bytes() == \
        (tmp_path / "b" / "ablation.txt").read_bytes()


def test_ablate_marks_failed_cells_and_continues(tmp_path, monkeypatch, capsys):
    real_run = cli.run

    def flaky_run(cfg, ds, out_dir, **kw):
        if cfg.aggregation.kind == "average":
            raise TrainingAborted("injected failure")
        return real_run(cfg, ds, out_dir, **kw)

    monkeypatch.setattr(cli, "run", flaky_run)
    gpath = tmp_path / "grid.json"
    gpath.write_text(json.dumps(grid_payload(repeats=1)))
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(gpath), "--out", str(out)]) == 0

    rows = {tuple(l.split(",")[:2]): l.split(",")
            for l in (out / "ablation.csv").read_text().splitlines()[3:]}
    assert rows[("average", "mixture")][7] == "failed"
    assert rows[("average", "no_mixture")][7] == "failed"
    assert rows[("maximum", "mixture")][7] == "ok"
    assert "injected failure" in capsys.readouterr().err


def test_ablate_all_cells_failed_exits_1(tmp_path, monkeypatch):
    def always_fails(*a, **k):
        raise TrainingAborted("boom")
    monkeypatch.setattr(cli, "run", always_fails)
    gpath = tmp_path / "grid.json"
    gpath.write_text(json.dumps(grid_payload(repeats=1)))
    assert main(["ablate", "--config", str(gpath), "--out", str(tmp_path / "o")]) == 1


def test_ablate_rejects_bad_grid(tmp_path, capsys):
    gpath = tmp_path / "grid.json"
    gpath.write_text(json.dumps(grid_payload(aggregations=["maximum", "median"])))
    assert main(["ablate", "--config", str(gpath), "--out", str(tmp_path / "o")]) == 2
    assert "median" in capsys.readouterr().err


@pytest.mark.parametrize("key, values", [
    ("aggregations", ["maximum", "maximum"]),
    ("mixtures", ["mixture", "no_mixture", "mixture"]),
])
def test_ablate_rejects_duplicate_variants(tmp_path, capsys, key, values):
    # a repeated variant would train twice into one cell directory and
    # write two ablation.csv rows for it
    gpath = tmp_path / "grid.json"
    gpath.write_text(json.dumps(grid_payload(**{key: values})))
    out = tmp_path / "o"
    assert main(["ablate", "--config", str(gpath), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "must be unique" in err and err.count("\n") == 1
    assert not out.exists()


def test_ablate_precheck_catches_oversized_batch(tmp_path, capsys):
    gpath = tmp_path / "grid.json"
    gpath.write_text(json.dumps(grid_payload(
        base=config_to_dict(tiny_config(batch_size=64)))))
    assert main(["ablate", "--config", str(gpath), "--out", str(tmp_path / "o")]) == 2
    assert "batch_size" in capsys.readouterr().err


def test_grid_and_cell_plumbing():
    grid = ablation_grid_from_dict(grid_payload())
    assert grid.repeats == 2
    with pytest.raises(ConfigError):
        ablation_grid_from_dict(grid_payload(extra_field=1))
    with pytest.raises(ConfigError):
        AblationGrid(base=tiny_config(), repeats=0)
    with pytest.raises(ConfigError):
        AblationGrid(base=tiny_config(), mixtures=())

    base = tiny_config()
    cfg = cell_config(base, "average", "no_mixture", seed=99)
    assert cfg.aggregation.kind == "average"
    assert cfg.lambda_mix.kind == "pick_view"
    assert cfg.seed == 99 and cfg.augment.seed == 99
    kept = cell_config(base, "none", "mixture", seed=7)
    assert kept.lambda_mix == base.lambda_mix

    seeds = {derive_seed(11, cell, rep)
             for cell in ("a", "b") for rep in (0, 1)}
    assert len(seeds) == 4
    assert derive_seed(11, "a", 0) == derive_seed(11, "a", 0)


# -- lambda sweep ------------------------------------------------------------


def sweep_payload(**over):
    payload = {
        "base": config_to_dict(tiny_config()),
        "lambda_values": [0.0, 0.5, 1.0],
        "repeats": 1,
    }
    payload.update(over)
    return payload


def test_sweep_end_to_end(tmp_path):
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps(sweep_payload()))
    out = tmp_path / "out"
    assert main(["sweep-lambda", "--config", str(spath), "--out", str(out)]) == 0

    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert "23.76" in lines[1] and "metadata only" in lines[1]
    rows = [l.split(",") for l in lines[3:]]
    assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
    assert all(r[6] == "ok" for r in rows)

    svg = (out / "sweep.svg").read_text()
    assert svg.startswith("<svg")
    assert "config_hash=" in svg
    assert "<polyline" in svg
    assert svg.count("<circle") == 3
    # the plot is the linear-probe mean (column 4), and its axis says so
    assert ">linear top-1</text>" in svg and "knn" not in svg
    for r in rows:
        assert f"<title>lambda={float(r[0]):g}: {float(r[4]):.4f}</title>" in svg


def test_sweep_lambda_one_cell_matches_plain_two_view_run(tmp_path):
    # The lambda=1 cell is a plain two-view run: an independently coded
    # loop that never builds a mixed view, seeded with the cell's derived
    # seed, must reproduce the cell's logged l_siam column bitwise.
    import mixsiam.autodiff as ad
    from augment_oracle import VIEW1_SLOT, VIEW2_SLOT, augment_view, view_rng
    from mixsiam.data import batches
    from mixsiam.loss import siam_loss
    from mixsiam.model import encode, init, predict
    from mixsiam.train import cosine_lr

    base = tiny_config(epochs=2)
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps(sweep_payload(
        base=config_to_dict(base), lambda_values=[1.0])))
    out = tmp_path / "out"
    assert main(["sweep-lambda", "--config", str(spath), "--out", str(out)]) == 0

    lines = (out / "cells" / "lambda-1_rep0" / "metrics.csv").read_text().splitlines()
    got = [float(l.split(",")[3]) for l in lines[2:]]

    seed = derive_seed(base.seed, "lambda-1", 0)
    cfg = dataclasses.replace(
        base, lam=1.0, seed=seed,
        augment=dataclasses.replace(base.augment, seed=seed))
    ds = cfg.dataset.build()
    total_steps = (len(ds) // cfg.batch_size) * cfg.epochs
    params = init(cfg.encoder, cfg.predictor, seed=cfg.seed, dtype=cfg.dtype)
    velocity = {n: np.zeros_like(t.data) for n, t in params.named()}
    want = []
    step = 0
    aug = cfg.augment
    for epoch in range(cfg.epochs):
        for batch in batches(ds, cfg.batch_size, cfg.seed, epoch):
            x1 = np.stack([
                augment_view(r, aug, view_rng(aug.seed, epoch, r.source_index, VIEW1_SLOT))
                for r in batch])
            x2 = np.stack([
                augment_view(r, aug, view_rng(aug.seed, epoch, r.source_index, VIEW2_SLOT))
                for r in batch])
            z1 = encode(params, x1, "train")
            z2 = encode(params, x2, "train")
            loss = siam_loss(predict(params, z1, "train"),
                             predict(params, z2, "train"), z1, z2)
            ad.backward(loss)
            lr = cosine_lr(step, total_steps, cfg.lr_base)
            for name, t in params.named():
                g = t.grad
                if cfg.weight_decay and name not in params.no_decay:
                    g = g + np.float64(cfg.weight_decay) * t.data
                buf = velocity[name]
                buf *= np.float64(cfg.momentum)
                buf += g
                t.data -= np.float64(lr) * buf
                t.grad = None
            want.append(min(max(float(loss.data), -1.0), 1.0))
            step += 1

    assert got == want


def test_sweep_names_int_lambdas_as_floats(tmp_path):
    assert sweep_spec_from_dict(sweep_payload(lambda_values=[0, 1])).lambda_values == (0.0, 1.0)
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps(sweep_payload(lambda_values=[0, 1])))
    out = tmp_path / "out"
    assert main(["sweep-lambda", "--config", str(spath), "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[3:]
    assert [r.split(",")[0] for r in rows] == ["0.0", "1.0"]


def test_sweep_spec_validation():
    with pytest.raises(ConfigError, match="unique"):
        sweep_spec_from_dict(sweep_payload(lambda_values=[0.5, 0.5]))
    with pytest.raises(ConfigError, match="sorted"):
        sweep_spec_from_dict(sweep_payload(lambda_values=[0.5, 0.0]))
    with pytest.raises(ConfigError, match="outside"):
        sweep_spec_from_dict(sweep_payload(lambda_values=[0.0, 1.5]))
    with pytest.raises(ConfigError, match="lambda_values"):
        sweep_spec_from_dict({"base": {}, "lambda_values": []})
    with pytest.raises(ConfigError):
        SweepSpec(base=tiny_config(), lambda_values=(0.5,), repeats=0)
    assert SweepSpec().lambda_values == (0.0, 0.5, 1.0)


@pytest.mark.parametrize("value", [True, "0.5", None])
def test_sweep_rejects_a_lambda_that_is_not_a_number(tmp_path, capsys, value):
    spath = tmp_path / "sweep.json"
    spath.write_text(json.dumps(sweep_payload(lambda_values=[0.0, value])))
    out = tmp_path / "o"
    assert main(["sweep-lambda", "--config", str(spath), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "sweep spec.lambda_values[1]: expected float" in err and err.count("\n") == 1
    assert not out.exists()


# -- contact sheets ----------------------------------------------------------


def test_dump_views_end_to_end(tmp_path):
    cfg = tiny_config()
    cpath = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["dump-views", "--config", cpath, "--out", str(out),
                 "--count", "3"]) == 0

    files = sorted(out.glob("views_*.ppm"))
    assert [f.name for f in files] == ["views_000.ppm", "views_001.ppm",
                                       "views_002.ppm"]
    comments, pixels = read_ppm(files[0])
    assert any(f"config_hash={config_hash(cfg)}" in c for c in comments)
    size = cfg.augment.output_size
    assert pixels.shape == (size, 4 * size, 3)  # one image, 4 panels wide

    # the mixed panel is the quantized fixed-lambda blend of the two views
    ds = cfg.dataset.build()
    trip = make_triplet(ds.records[:1], cfg.augment, cfg.lambda_mix, 0)
    x1, x2, xm = trip.x1[0], trip.x2[0], trip.xm[0]
    for col, tile in enumerate((x1, x2, xm), start=1):
        want = np.round(np.clip(np.transpose(tile, (1, 2, 0)), 0, 1) * 255).astype(np.uint8)
        got = pixels[:, col * size:(col + 1) * size]
        assert np.array_equal(got, want), f"panel {col}"
    blend = 0.5 * x1 + 0.5 * x2
    want = np.round(np.clip(np.transpose(blend, (1, 2, 0)), 0, 1) * 255).astype(np.uint8)
    assert np.array_equal(pixels[:, 3 * size:4 * size], want)


def test_dump_views_identity_pipeline_panels_match(tmp_path):
    # With every augmentation switched off the two views and their mix all
    # equal the (resized) original, so a sheet shows four identical panels.
    cfg = tiny_config(augment=identity_config(output_size=8))
    cpath = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["dump-views", "--config", cpath, "--out", str(out),
                 "--count", "1"]) == 0
    _, pixels = read_ppm(out / "views_000.ppm")
    size = cfg.augment.output_size
    panels = [pixels[:, i * size:(i + 1) * size] for i in range(4)]
    for i in (1, 2, 3):
        assert np.array_equal(panels[i], panels[0]), f"panel {i} differs"


@pytest.mark.parametrize("kind", ["synthetic", "cifar10"])
def test_dump_views_count_validation(tmp_path, capsys, kind):
    # the count is checked before the dataset is read (a cifar10 dir that
    # does not exist) and before --out is created
    cfg = tiny_config(dataset=dataclasses.replace(
        tiny_config().dataset, kind=kind, dir=str(tmp_path / "missing")))
    cpath = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["dump-views", "--config", cpath, "--out", str(out), "--count", "0"]) == 2
    err = capsys.readouterr().err
    assert "--count must be positive" in err and "not found" not in err
    assert not out.exists()


def test_dump_views_is_deterministic(tmp_path):
    cpath = write_config(tmp_path, tiny_config())
    main(["dump-views", "--config", cpath, "--out", str(tmp_path / "a"), "--count", "2"])
    main(["dump-views", "--config", cpath, "--out", str(tmp_path / "b"), "--count", "2"])
    for name in ("views_000.ppm", "views_001.ppm"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_write_ppm_rejects_bad_shape(tmp_path):
    with pytest.raises(ConfigError):
        write_ppm(np.zeros((4, 4)), tmp_path / "x.ppm")


def test_write_accuracy_svg_single_point(tmp_path):
    path = tmp_path / "one.svg"
    write_accuracy_svg([(0.5, 0.8)], path, digest="abc123")
    text = path.read_text()
    assert text.startswith("<svg")
    assert "abc123" in text and text.count("<circle") == 1
