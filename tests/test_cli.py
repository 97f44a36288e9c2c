import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dnspn.cli import OPTIONS, build_parser, config_hash, main, resolve_config
from dnspn.data import (SyntheticSpec, gen_linear_k, gen_xor, train_test,
                        write_csv)
from dnspn.numeric import RngState

# a numeric warning from a command is a defect, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def run(*argv):
    return main(list(argv))


def only_run_dir(root) -> Path:
    dirs = [p for p in Path(root).iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """A small linear-5 dataset written as train/test CSVs."""
    root = tmp_path_factory.mktemp("data")
    spec = SyntheticSpec(kind="linear", k=5, sigma=0.5, n_train=600,
                         n_test=200, seed=3)
    ds = gen_linear_k(spec)
    tr, te = train_test(ds, spec.n_train)
    write_csv(root / "train.csv", tr)
    write_csv(root / "test.csv", te)
    return root


class TestGenerate:
    def test_writes_files_and_summary(self, tmp_path, capsys):
        code = run("generate", "--kind", "linear", "--k", "5", "--sigma",
                   "1.0", "--seed", "7", "--ntrain", "50", "--ntest", "10",
                   "--out", str(tmp_path))
        assert code == 0
        rd = only_run_dir(tmp_path)
        assert (rd / "train.csv").exists()
        assert (rd / "test.csv").exists()
        meta = json.loads((rd / "meta.json").read_text())
        assert meta["k"] == 5 and meta["seed"] == 7
        assert len(meta["dims"]) == 5
        out = capsys.readouterr().out
        assert "n=60" in out and "d=100" in out

    def test_rerun_identical_files(self, tmp_path):
        args = ("generate", "--kind", "quadratic", "--k", "4", "--sigma",
                "0.5", "--seed", "1", "--ntrain", "40", "--ntest", "10",
                "--out", str(tmp_path))
        assert run(*args) == 0
        rd = only_run_dir(tmp_path)
        first = {p.name: p.read_bytes() for p in rd.iterdir()}
        assert run(*args, "--force") == 0
        second = {p.name: p.read_bytes() for p in rd.iterdir()}
        assert first == second

    def test_k_out_of_range_usage_error(self, tmp_path):
        code = run("generate", "--kind", "linear", "--k", "200",
                   "--out", str(tmp_path))
        assert code == 2

    def test_refuses_overwrite_without_force(self, tmp_path):
        args = ("generate", "--kind", "linear", "--k", "3", "--ntrain", "20",
                "--ntest", "5", "--out", str(tmp_path))
        assert run(*args) == 0
        assert run(*args) == 2


class TestTrain:
    def test_report_schema(self, small_dataset, tmp_path):
        code = run("train", "--data", str(small_dataset / "train.csv"),
                   "--eval-data", str(small_dataset / "test.csv"),
                   "--epochs", "2", "--trees", "3", "--depth", "2",
                   "--embed", "3", "--out", str(tmp_path))
        assert code == 0
        rd = only_run_dir(tmp_path)
        report = json.loads((rd / "report.json").read_text())
        for key in ("task", "n", "accuracy", "auc", "sparsity", "config",
                    "seed", "method"):
            assert key in report
        assert report["method"] == "dnspn"
        assert (rd / "model.json").exists()
        history = (rd / "history.csv").read_text().splitlines()
        assert len(history) == 3   # header + 2 epochs

    def test_prune_modes_differ_in_sparsity(self, small_dataset, tmp_path):
        reports = {}
        for mode in ("none", "dsp"):
            out = tmp_path / mode
            code = run("train", "--data", str(small_dataset / "train.csv"),
                       "--eval-data", str(small_dataset / "test.csv"),
                       "--prune", mode, "--epochs", "2", "--trees", "2",
                       "--depth", "2", "--embed", "2", "--out", str(out))
            assert code == 0
            rd = only_run_dir(out)
            reports[mode] = json.loads((rd / "report.json").read_text())
        assert reports["none"]["sparsity"] == 0.0
        assert reports["dsp"]["sparsity"] > 0.0

    def test_deterministic_report_bytes(self, small_dataset, tmp_path):
        args = ("train", "--data", str(small_dataset / "train.csv"),
                "--eval-data", str(small_dataset / "test.csv"),
                "--epochs", "2", "--trees", "2", "--depth", "2",
                "--embed", "2", "--seed", "1", "--out", str(tmp_path))
        assert run(*args) == 0
        rd = only_run_dir(tmp_path)
        first = (rd / "report.json").read_bytes()
        assert run(*args, "--force") == 0
        assert (rd / "report.json").read_bytes() == first

    def test_config_file_and_flag_precedence(self, small_dataset, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("train.epochs=2\nmodel.trees=2\n"
                            "model.depth=2\nmodel.embed=2\n"
                            "prune.mode=none\n")
        code = run("train", "--data", str(small_dataset / "train.csv"),
                   "--eval-data", str(small_dataset / "test.csv"),
                   "--config", str(cfg_file), "--trees", "3",
                   "--out", str(tmp_path / "runs"))
        assert code == 0
        rd = only_run_dir(tmp_path / "runs")
        report = json.loads((rd / "report.json").read_text())
        assert report["config"]["epochs"] == 2      # from file
        assert report["config"]["trees"] == 3       # flag overrides file
        assert report["config"]["prune"] == "none"  # from file

    def test_unknown_config_key_rejected(self, small_dataset, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("train.bogus=1\n")
        code = run("train", "--data", str(small_dataset / "train.csv"),
                   "--config", str(cfg_file), "--out", str(tmp_path / "r"))
        assert code == 2

    def test_regression_task(self, tmp_path):
        rng = RngState(2)
        X = rng.normal(120, 3)
        y = 0.5 * X[:, 0] - X[:, 1]
        from dnspn.data import Dataset, Task
        ds = Dataset(X, y, Task(kind="regression"))
        write_csv(tmp_path / "reg.csv", ds)
        code = run("train", "--data", str(tmp_path / "reg.csv"),
                   "--task", "regress", "--epochs", "2", "--trees", "2",
                   "--depth", "2", "--embed", "2", "--batch", "32",
                   "--out", str(tmp_path / "runs"))
        assert code == 0
        rd = only_run_dir(tmp_path / "runs")
        report = json.loads((rd / "report.json").read_text())
        assert report["task"] == "regression"
        assert report["mse"] is not None
        assert report["accuracy"] is None


NON_FINITE_SETTINGS = [
    ("train", "--alpha", "nan"),
    ("train", "--beta", "nan"),
    ("train", "--epsilon", "nan"),
    ("train", "--lr", "nan"),
    ("train", "--gamma", "inf"),
    ("train", "--r", "inf"),
    ("train", "--surgery_eta", "nan"),
    ("generate", "--sigma", "nan"),
    ("mask-curve", "--mu", "nan"),
    ("mask-curve", "--std", "inf"),
]


class TestNonFiniteSettings:
    def _argv(self, command, small_dataset, out):
        if command == "train":
            return ("train", "--data", str(small_dataset / "train.csv"),
                    "--eval-data", str(small_dataset / "test.csv"),
                    "--epochs", "1", "--trees", "2", "--depth", "2",
                    "--embed", "2", "--out", str(out))
        if command == "generate":
            return ("generate", "--kind", "linear", "--k", "3",
                    "--ntrain", "20", "--ntest", "5", "--out", str(out))
        return ("mask-curve", "--samples", "11", "--out", str(out))

    @pytest.mark.parametrize("command,flag,value", NON_FINITE_SETTINGS)
    def test_flag_rejected_as_usage_error(self, command, flag, value,
                                          small_dataset, tmp_path, capsys):
        argv = self._argv(command, small_dataset, tmp_path / "runs")
        assert run(*argv, flag, value) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]

    def test_config_file_value_rejected(self, small_dataset, tmp_path,
                                        capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("prune.beta=nan\n")
        argv = self._argv("train", small_dataset, tmp_path / "runs")
        assert run(*argv, "--config", str(cfg_file)) == 2
        assert capsys.readouterr().err == \
            f"error: {cfg_file}:1: prune.beta must be finite, got nan\n"

    def test_config_file_line_and_key_named(self, small_dataset, tmp_path,
                                            capsys):
        # the file's key, not the flag, and the line it is on
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# rates\ntrain.epochs=1\ntrain.lr=nan\n")
        argv = self._argv("train", small_dataset, tmp_path / "runs")
        assert run(*argv, "--config", str(cfg_file)) == 2
        assert capsys.readouterr().err == \
            f"error: {cfg_file}:3: train.lr must be finite, got nan\n"
        # a flag overrides the file's value, and is what gets named
        assert run(*argv, "--config", str(cfg_file), "--lr", "inf") == 2
        assert capsys.readouterr().err == \
            "error: --lr must be finite, got inf\n"


REJECTED_SETTINGS = [
    ("train", "--lr", "nan"),
    ("train", "--depth", "0"),
    ("train", "--trees", "0"),
    ("train", "--batch", "0"),
    ("train", "--dropout", "1.5"),
    ("train", "--holdout", "1.5"),
    ("compare", "--lr", "nan"),
    ("mask-curve", "--beta", "0"),
    ("mask-curve", "--epsilon", "-1"),
]


@pytest.mark.parametrize("command,flag,value", REJECTED_SETTINGS)
def test_rejected_setting_leaves_no_run_dir(command, flag, value,
                                            small_dataset, tmp_path, capsys):
    out = tmp_path / "runs"
    if command == "mask-curve":
        argv = ("mask-curve", "--samples", "11")
    else:
        argv = (command, "--data", str(small_dataset / "train.csv"),
                "--epochs", "1", "--trees", "2", "--depth", "2",
                "--embed", "2")
    assert run(*argv, flag, value, "--out", str(out)) == 2
    assert not list(out.glob("run-*"))
    if flag == "--holdout":
        assert "holdout must be in (0, 1), got 1.5" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value", [
    ("train", "--lr", "nan"),
    ("train", "--batch", "0"),
    ("train", "--prune", "surgery"),
    ("train", "--trees", "0"),
    ("train", "--depth", "0"),
    ("train", "--embed", "0"),
    ("compare", "--dropout", "1.5"),
    ("compare", "--alpha", "nan"),
    ("compare", "--embed", "0"),
])
def test_setting_checked_before_data_is_read(command, flag, value, tmp_path,
                                             capsys):
    # the data file does not exist: a bad setting must be reported first
    out = tmp_path / "runs"
    code = run(command, "--data", str(tmp_path / "nope.csv"), flag, value,
               "--out", str(out))
    err = capsys.readouterr().err
    if flag == "--prune":   # a good setting: the missing file is the error
        assert code == 3 and "not found" in err
    else:
        assert code == 2 and err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value,message", [
    ("train", "--lr", "nan", "--lr must be finite, got nan"),
    ("train", "--batch", "0", "--batch must be >= 1"),
    ("train", "--embed", "0", "--embed must be >= 1, got 0"),
    ("compare", "--trees", "0", "--trees must be >= 1, got 0"),
    ("mask-curve", "--gamma", "0", "--gamma must be > 0"),
    ("mask-curve", "--mu", "nan", "--mu must be finite, got nan"),
    ("mask-curve", "--wmax", "inf", "--wmax must be finite, got inf"),
])
def test_rejected_setting_names_its_flag(command, flag, value, message,
                                         tmp_path, capsys):
    argv = ([] if command == "mask-curve"
            else ["--data", str(tmp_path / "nope.csv")])
    assert run(command, *argv, flag, value,
               "--out", str(tmp_path / "runs")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_fcnn_ignores_the_forest_shape(small_dataset, tmp_path):
    # the softmax baseline builds no forest, so its shape is not checked
    assert run("train", "--method", "fcnn", "--data",
               str(small_dataset / "train.csv"), "--epochs", "1",
               "--trees", "0", "--out", str(tmp_path / "runs")) == 0


# The resolved configuration with no flags and no config file. It feeds
# every run directory's hash and the config echo in report.json, so a
# change here renames every run.
DEFAULT_CONFIG = {
    "alpha": 0.0001, "batch": 128, "beta": 1.0, "depth": 4, "dropout": 0.5,
    "embed": 8, "epochs": 20, "epsilon": 1e-12, "gamma": 1.0,
    "holdout": 0.2, "k": 50, "kind": "linear", "lr": 0.001, "ntest": 2000,
    "ntrain": 10000, "prune": "dsp", "r": 1.0, "seed": 0, "sigma": 1.0,
    "surgery_eta": 0.1, "trees": 10,
}

# Which commands take each configuration flag.
_PRUNE = ("alpha", "beta", "gamma", "r", "epsilon", "surgery_eta")
FLAG_COMMANDS = (
    [("generate", f) for f in ("kind", "k", "sigma", "ntrain", "ntest",
                               "seed")]
    + [(c, f) for c in ("train", "compare")
       for f in ("prune", "epochs", "lr", "batch", "dropout", "holdout",
                 "trees", "depth", "embed", "seed", *_PRUNE)]
    + [("mask-curve", f) for f in (*_PRUNE, "seed")])


class TestConfigTable:
    def _resolve(self, command, *extra):
        argv = [command, *extra]
        if command in ("train", "compare"):
            argv += ["--data", "train.csv"]
        return resolve_config(build_parser().parse_args(argv))

    def test_resolved_defaults_pinned(self):
        cfg, explicit = self._resolve("train")
        assert cfg == DEFAULT_CONFIG
        assert {k: type(v) for k, v in cfg.items()} == {
            k: type(v) for k, v in DEFAULT_CONFIG.items()}
        assert explicit == set()
        assert config_hash("train", cfg) == "37276da04a5e"

    def test_table_covers_every_flag(self):
        assert set(OPTIONS) == set(DEFAULT_CONFIG)
        assert {f for _, f in FLAG_COMMANDS} == set(DEFAULT_CONFIG)

    @pytest.mark.parametrize("command,name", FLAG_COMMANDS)
    def test_flag_and_config_line(self, command, name, tmp_path):
        kind = type(DEFAULT_CONFIG[name])
        value = {"kind": "quadratic", "prune": "surgery"}.get(
            name, {int: "7", float: "0.375"}.get(kind))
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{OPTIONS[name].key}={value}\n")
        for extra in ([f"--{name}", value], ["--config", str(cfg_file)]):
            cfg, explicit = self._resolve(command, *extra)
            assert cfg[name] == kind(value)
            assert type(cfg[name]) is kind
            assert explicit == {name}

    @pytest.mark.parametrize("command,flag", [("generate", "--kind"),
                                              ("train", "--prune")])
    def test_choices_enforced(self, command, flag, small_dataset, tmp_path):
        argv = [command, flag, "bogus", "--out", str(tmp_path)]
        if command == "train":
            argv += ["--data", str(small_dataset / "train.csv")]
        assert run(*argv) == 2

    def test_config_value_of_wrong_type_rejected(self, small_dataset,
                                                 tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("train.epochs=two\n")
        code = run("train", "--data", str(small_dataset / "train.csv"),
                   "--config", str(cfg_file), "--out", str(tmp_path / "r"))
        assert code == 2
        assert "train.epochs must be int" in capsys.readouterr().err


def test_outputs_independent_of_blas_threads(tmp_path):
    """generate + train give the same bytes at 1 and 2 BLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        root = tmp_path / f"threads{threads}"

        def cli(*argv):
            subprocess.run([sys.executable, "-m", "dnspn.cli", *argv],
                           env=env, check=True, capture_output=True,
                           timeout=120)

        cli("generate", "--kind", "quadratic", "--k", "5", "--sigma", "0.5",
            "--ntrain", "400", "--ntest", "200", "--seed", "4",
            "--out", str(root / "gen"))
        gen = only_run_dir(root / "gen")
        cli("train", "--data", str(gen / "train.csv"),
            "--eval-data", str(gen / "test.csv"), "--epochs", "2",
            "--trees", "3", "--depth", "3", "--embed", "4", "--seed", "1",
            "--out", str(root / "train"))
        trained = only_run_dir(root / "train")
        outputs.append(
            {name: (gen / name).read_bytes()
             for name in ("train.csv", "test.csv", "meta.json")}
            | {name: (trained / name).read_bytes()
               for name in ("history.csv", "model.json", "report.json")})
    assert outputs[0] == outputs[1]


class TestEvaluate:
    def test_round_trip_matches_training_report(self, small_dataset,
                                                tmp_path, capsys):
        code = run("train", "--data", str(small_dataset / "train.csv"),
                   "--eval-data", str(small_dataset / "test.csv"),
                   "--epochs", "2", "--trees", "2", "--depth", "2",
                   "--embed", "2", "--out", str(tmp_path))
        assert code == 0
        rd = only_run_dir(tmp_path)
        train_report = json.loads((rd / "report.json").read_text())
        capsys.readouterr()
        code = run("evaluate", "--model", str(rd / "model.json"),
                   "--data", str(small_dataset / "test.csv"),
                   "--out", str(tmp_path / "eval"))
        assert code == 0
        eval_report = json.loads(capsys.readouterr().out.strip())
        on_disk = json.loads(
            (only_run_dir(tmp_path / "eval") / "report.json").read_text())
        assert on_disk["accuracy"] == eval_report["accuracy"]
        assert eval_report["accuracy"] == train_report["accuracy"]
        assert eval_report["auc"] == train_report["auc"]

    def test_corrupt_model_file(self, small_dataset, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text("{ not json")
        code = run("evaluate", "--model", str(bad),
                   "--data", str(small_dataset / "test.csv"),
                   "--out", str(tmp_path / "eval"))
        assert code == 3

    def test_missing_model_file(self, small_dataset, tmp_path):
        code = run("evaluate", "--model", str(tmp_path / "none.json"),
                   "--data", str(small_dataset / "test.csv"),
                   "--out", str(tmp_path / "eval"))
        assert code == 3


def narrow_copy(path, root) -> Path:
    """A copy of the CSV at `path` with 3 feature columns and the label."""
    narrow = root / "narrow.csv"
    with open(path) as src, open(narrow, "w", newline="") as dst:
        writer = csv.writer(dst)
        for row in csv.reader(src):
            writer.writerow(row[:3] + row[-1:])
    return narrow


def test_evaluate_width_mismatch_is_a_data_error(small_dataset, tmp_path,
                                                 capsys):
    # a test.csv with 3 of the model's 100 feature columns
    assert run("train", "--data", str(small_dataset / "train.csv"),
               "--epochs", "1", "--trees", "2", "--depth", "2",
               "--embed", "2", "--out", str(tmp_path / "runs")) == 0
    narrow = narrow_copy(small_dataset / "test.csv", tmp_path)
    capsys.readouterr()
    model = only_run_dir(tmp_path / "runs") / "model.json"
    assert run("evaluate", "--model", str(model), "--data", str(narrow),
               "--out", str(tmp_path / "eval")) == 3
    assert capsys.readouterr().err == (
        f"data error: {narrow} has 3 features, the model expects 100\n")
    assert not (tmp_path / "eval").exists()


def test_eval_data_width_mismatch_is_a_data_error(small_dataset, tmp_path,
                                                  capsys):
    narrow = narrow_copy(small_dataset / "test.csv", tmp_path)
    train = small_dataset / "train.csv"
    assert run("train", "--data", str(train), "--eval-data", str(narrow),
               "--epochs", "1", "--out", str(tmp_path / "runs")) == 3
    assert capsys.readouterr().err == (
        f"data error: {narrow} has 3 features, {train} has 100\n")
    assert not (tmp_path / "runs").exists()


def _unreadable(kind, root, small_dataset):
    """(argv, the file the error must name) for one unreadable input."""
    train = str(small_dataset / "train.csv")
    if kind.endswith("directory"):
        bad = root / "a-directory"
        bad.mkdir()
    else:
        bad = root / "latin1"
        bad.write_bytes("f0,label\n0.5,caf\xe9\n".encode("latin-1"))
    if kind.startswith("data"):
        argv = ("train", "--data", str(bad))
    elif kind.startswith("config"):
        argv = ("train", "--data", train, "--config", str(bad))
    else:
        argv = ("evaluate", "--model", str(bad), "--data", train)
    return argv, bad


@pytest.mark.parametrize("kind", ["data directory", "data not UTF-8",
                                  "config directory", "config not UTF-8",
                                  "model directory", "model not UTF-8"])
def test_unreadable_file_is_a_data_error(kind, small_dataset, tmp_path,
                                         capsys):
    argv, bad = _unreadable(kind, tmp_path, small_dataset)
    assert run(*argv, "--out", str(tmp_path / "runs")) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot read ")
    assert str(bad) in err and "Traceback" not in err
    assert err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


def test_overflowing_feature_is_a_data_error(tmp_path, capsys):
    # a column of +-1e300 overflows its variance; it must be named, not
    # zeroed with a warning
    path = tmp_path / "huge.csv"
    rows = ["f0,f1,label"] + [f"{(i % 7) * 0.1},{(-1) ** i * 1e300},{i % 2}"
                              for i in range(40)]
    path.write_text("\n".join(rows) + "\n")
    assert run("train", "--data", str(path), "--epochs", "1", "--trees",
               "2", "--depth", "2", "--embed", "2",
               "--out", str(tmp_path / "runs")) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: feature column 1 ")
    assert "Warning" not in err


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    """A trained 2-feature dnspn model: (its model.json doc, a data CSV)."""
    root = tmp_path_factory.mktemp("model")
    write_csv(root / "xor.csv", gen_xor(120, 0.25, RngState(0)))
    assert run("train", "--data", str(root / "xor.csv"), "--epochs", "1",
               "--trees", "2", "--depth", "3", "--embed", "2",
               "--out", str(root / "runs")) == 0
    doc = json.loads((only_run_dir(root / "runs") / "model.json").read_text())
    return doc, root / "xor.csv"


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value(doc[last]) if callable(value) else value
    return mutate


MODEL_MUTATIONS = {
    "no layers": _set(["layers"], []),
    "input_dim": _set(["input_dim"], 3),
    "layer weights ragged": _set(["layers", 1, "weights", 0], lambda r: r[1:]),
    "layer bias short": _set(["layers", 0, "bias"], lambda b: b[1:]),
    "layer mask short": _set(["layers", 2, "mask"], lambda m: m[1:]),
    "layer width chain": _set(["layers", 1, "weights"], lambda w: [
        row[1:] for row in w]),
    "activation": _set(["layers", 0, "activation"], "tanh"),
    "layer weight nan": _set(["layers", 0, "weights", 0, 0], float("nan")),
    "layer mask inf": _set(["layers", 1, "mask", 0, 0], float("inf")),
    "head_layers out of range": _set(["head_layers", 0], 4),
    "head_layers negative": _set(["head_layers", 1], -1),
    "head_layers not int": _set(["head_layers", 1], 1.0),
    "head_layers short": _set(["head_layers"], lambda h: h[1:]),
    "head depth": _set(["heads", 0, "depth"], 4),
    "head trees": _set(["heads", 1, "trees"], 3),
    "head trees zero": _set(["heads", 1, "trees"], 0),
    "head embed_dim": _set(["heads", 2, "embed_dim"], 3),
    "head kind": _set(["heads", 0, "kind"], "regression"),
    "proj_w width": _set(["heads", 1, "proj_w"], lambda w: [
        row[1:] for row in w]),
    "proj_b short": _set(["heads", 0, "proj_b"], lambda b: b[1:]),
    "routing_w row short": _set(["heads", 0, "routing_w"], lambda w: w[1:]),
    "routing_b short": _set(["heads", 0, "routing_b"], lambda b: b[1:]),
    "leaf row short": _set(["heads", 2, "leaf"], lambda leaf: leaf[1:]),
    "head mask short": _set(["heads", 0, "mask"], lambda m: m[1:]),
    "leaf nan": _set(["heads", 1, "leaf", 0, 0], float("nan")),
    "routing_w inf": _set(["heads", 1, "routing_w", 0, 0], float("-inf")),
    "scaler mean short": _set(["scaler", "mean"], lambda m: m[1:]),
    "scaler std nan": _set(["scaler", "std", 0], float("nan")),
    "kind unknown": _set(["kind"], "bogus"),
    "kind softmax with heads": _set(["kind"], "softmax"),
    "forest without heads": lambda doc: doc.update(heads=[], head_layers=[]),
    "softmax of wrong width": lambda doc: doc.update(
        kind="softmax", heads=[], head_layers=[]),
}


class TestLoadModelValidation:
    def test_unmutated_model_loads(self, small_model, tmp_path):
        doc, data = small_model
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert run("evaluate", "--model", str(path), "--data", str(data),
                   "--out", str(tmp_path / "eval")) == 0

    @pytest.mark.parametrize("name", sorted(MODEL_MUTATIONS))
    def test_corruption_is_a_data_error(self, name, small_model, tmp_path,
                                        capsys):
        doc, data = small_model
        doc = json.loads(json.dumps(doc))
        MODEL_MUTATIONS[name](doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert run("evaluate", "--model", str(path), "--data", str(data),
                   "--out", str(tmp_path / "eval")) == 3
        assert capsys.readouterr().err.startswith("data error: ")
        assert not (tmp_path / "eval").exists()


class TestCompare:
    def test_table_schema_and_determinism(self, small_dataset, tmp_path):
        args = ("compare", "--data", str(small_dataset / "train.csv"),
                "--eval-data", str(small_dataset / "test.csv"),
                "--methods", "fcnn,dnspn", "--seeds", "0", "--epochs", "2",
                "--trees", "2", "--depth", "2", "--embed", "2",
                "--out", str(tmp_path))
        assert run(*args) == 0
        rd = only_run_dir(tmp_path)
        with open(rd / "comparison.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["method"] for r in rows} == {"fcnn", "dnspn"}
        assert sum(r["winner"] == "yes" for r in rows) == 1
        first = (rd / "comparison.csv").read_bytes()
        assert run(*args, "--force") == 0
        assert (rd / "comparison.csv").read_bytes() == first

    def test_unknown_method_usage_error(self, small_dataset, tmp_path):
        code = run("compare", "--data", str(small_dataset / "train.csv"),
                   "--methods", "fcnn,bogus", "--out", str(tmp_path))
        assert code == 2

    def test_single_method_rejected(self, small_dataset, tmp_path):
        code = run("compare", "--data", str(small_dataset / "train.csv"),
                   "--methods", "fcnn", "--out", str(tmp_path))
        assert code == 2


class TestMaskCurve:
    def test_curves_and_threshold_crossing(self, tmp_path):
        code = run("mask-curve", "--mu", "1.0", "--std", "0.5",
                   "--wmin", "0.0", "--wmax", "4.0", "--samples", "41",
                   "--out", str(tmp_path))
        assert code == 0
        rd = only_run_dir(tmp_path)
        with open(rd / "curve_dsp.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 41
        # w = gamma * mu = 1.0 is on the grid; mask crosses zero there
        at_mu = [r for r in rows if float(r["w"]) == 1.0]
        assert len(at_mu) == 1
        assert abs(float(at_mu[0]["mask"])) < 1e-12

    def test_surgery_jump_present(self, tmp_path):
        # omega = mu + 0.1 * std = 1.0; dense grid around 0.9
        code = run("mask-curve", "--mu", "1.0", "--std", "0.0",
                   "--wmin", "0.85", "--wmax", "0.95", "--samples", "1001",
                   "--out", str(tmp_path))
        assert code == 0
        rd = only_run_dir(tmp_path)
        with open(rd / "curve_surgery.csv") as fh:
            rows = list(csv.DictReader(fh))
        masks = np.array([float(r["mask"]) for r in rows])
        jumps = np.abs(np.diff(masks))
        assert np.max(jumps) == 1.0   # the 0 -> 1 jump at 0.9 omega

    def test_dsp_curve_refinement_continuity(self, tmp_path):
        gaps = []
        for n in (101, 1001):
            out = tmp_path / f"n{n}"
            code = run("mask-curve", "--mu", "1.0", "--wmin", "-3.0",
                       "--wmax", "3.0", "--samples", str(n),
                       "--out", str(out))
            assert code == 0
            rd = only_run_dir(out)
            with open(rd / "curve_dsp.csv") as fh:
                masks = np.array([float(r["mask"])
                                  for r in csv.DictReader(fh)])
            gaps.append(np.max(np.abs(np.diff(masks))))
        assert gaps[1] < gaps[0]

    def test_empty_range_usage_error(self, tmp_path):
        code = run("mask-curve", "--wmin", "2.0", "--wmax", "1.0",
                   "--out", str(tmp_path))
        assert code == 2


class TestModelRoundTrip:
    def test_save_load_predict_identical(self, small_dataset, tmp_path):
        from dnspn.data import load_csv
        from dnspn.model_io import load_model, save_model
        from dnspn.numeric import RngState
        from dnspn.pruning import PruneConfig
        from dnspn.training import (TrainConfig, build_forest_model, fit,
                                    predict)

        tr = load_csv(small_dataset / "train.csv", "label", "classification")
        model = build_forest_model(tr.d, tr.task, RngState(0), trees=2,
                                   depth=3, embed_dim=2)
        fit(model, tr, None, TrainConfig(epochs=1,
                                         prune=PruneConfig(mode="dsp")))
        before = predict(model, tr.X)
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        after = predict(loaded, tr.X)
        assert np.array_equal(before, after)
