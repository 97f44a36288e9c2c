import csv
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dnspn.cli
import dnspn.numeric
from dnspn.cli import OPTIONS, build_parser, config_hash, main, resolve_config
from dnspn.data import (SyntheticSpec, generate, gen_xor, load_csv,
                        train_test, write_csv)
from dnspn.metrics import auc_macro_ovr
from dnspn.model_io import load_model
from dnspn.numeric import RngState, _openblas_threads
from dnspn.training import predict

from conftest import wait_for

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
    ds = generate(spec)
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

    def test_no_test_split_writes_train_and_meta_only(self, tmp_path,
                                                      monkeypatch, capsys,
                                                      no_child_left):
        # one CSV to write, so nothing forks even with a second CPU
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: 2)
        assert run("generate", "--k", "5", "--ntrain", "60", "--ntest", "0",
                   "--out", str(tmp_path)) == 0
        rd = only_run_dir(tmp_path)
        assert sorted(p.name for p in rd.iterdir()) == ["meta.json",
                                                        "train.csv"]
        assert len((rd / "train.csv").read_text().splitlines()) == 61
        assert capsys.readouterr().out.endswith(
            f"wrote {rd}/train.csv, meta.json\n")

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
    ("train", "--epochs", "-5"),
    ("train", "--depth", "40"),
    ("train", "--embed", "9" * 40),
    ("compare", "--lr", "nan"),
    ("compare", "--embed", "1025"),
    ("generate", "--ntrain", str(10 ** 15)),
    ("generate", "--ntest", "1048576"),
    ("mask-curve", "--beta", "0"),
    ("mask-curve", "--epsilon", "-1"),
    ("mask-curve", "--samples", str(10 ** 15)),
    ("mask-curve", "--mu", "-1"),
    ("mask-curve", "--std", "-1"),
    ("compare", "--seeds", "1,a"),
    ("compare", "--seeds", "1.5"),
    ("compare", "--seeds", "2,0,2"),
    ("compare", "--methods", "fcnn,fcnn"),
    ("compare", "--task", "regress"),
]


@pytest.mark.parametrize("command,flag,value", REJECTED_SETTINGS)
def test_rejected_setting_leaves_no_run_dir(command, flag, value,
                                            small_dataset, tmp_path, capsys):
    out = tmp_path / "runs"
    if command == "mask-curve":
        argv = ("mask-curve", "--samples", "11")
    elif command == "generate":
        argv = ("generate", "--k", "3", "--ntrain", "20", "--ntest", "5")
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
    ("train", "--epochs", "-5", "--epochs must be >= 0, got -5"),
    ("compare", "--epochs", "-1", "--epochs must be >= 0, got -1"),
    ("train", "--depth", "40",
     "--depth must be <= 15 (at most 16384 leaves a head), got 40"),
    ("train", "--trees", "2049", "--trees must be <= 2048 at depth 4 "
     "(at most 16384 leaves a head), got 2049"),
    ("train", "--embed", "9" * 40, f"--embed must be <= 1024, got {'9' * 40}"),
    ("compare", "--embed", "1025", "--embed must be <= 1024, got 1025"),
    ("generate", "--ntrain", str(10 ** 15), "--ntrain must be in "
     f"[1, 1048576] (at most 1048576 rows in all), got {10 ** 15}"),
    ("generate", "--ntest", "1048576", "--ntest must be in [0, 1038576] "
     "(at most 1048576 rows in all), got 1048576"),
    ("mask-curve", "--samples", str(10 ** 15),
     f"--samples must be in [2, 1000000], got {10 ** 15}"),
    ("mask-curve", "--samples", "1", "--samples must be in [2, 1000000], "
     "got 1"),
    ("mask-curve", "--gamma", "0", "--gamma must be > 0"),
    ("mask-curve", "--mu", "nan", "--mu must be finite, got nan"),
    ("mask-curve", "--wmax", "inf", "--wmax must be finite, got inf"),
    ("mask-curve", "--mu", "-1", "--mu must be >= 0, got -1.0"),
    ("mask-curve", "--std", "-0.5", "--std must be >= 0, got -0.5"),
    ("compare", "--seeds", "1,a",
     "--seeds must be comma-separated integers, got '1,a'"),
    ("compare", "--seeds", "1.5",
     "--seeds must be comma-separated integers, got '1.5'"),
    ("compare", "--seeds", "0,1, 0", "--seeds repeats an entry: [0, 1, 0]"),
    ("compare", "--methods", "fcnn, dnspn,fcnn",
     "--methods repeats an entry: ['fcnn', 'dnspn', 'fcnn']"),
    ("compare", "--task", "regress", "--task must be class: compare is "
     "defined for classification tasks, got 'regress'"),
])
def test_rejected_setting_names_its_flag(command, flag, value, message,
                                         tmp_path, capsys):
    argv = (["--data", str(tmp_path / "nope.csv")]
            if command in ("train", "compare") else [])
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


def write_gaussian_csv(path, n: int, d: int, seed: int) -> None:
    """`n` rows of `d` Gaussian features and a 0/1 label, by hand: generate
    writes 100 features only."""
    X = RngState(seed).normal(n, d)
    labels = (X[:, 0] + X[:, 1] > 0).astype(int)
    path.write_text(",".join([f"f{j}" for j in range(d)] + ["label"]) + "\n"
                    + "".join(",".join(map(repr, row.tolist())) + f",{y}\n"
                              for row, y in zip(X, labels)))


# feature counts whose 2-BLAS-thread training sums in another order than
# at 1 thread on OpenBLAS 0.3.31, unless the CLI pins one thread
BLAS_WIDTHS = (50, 102, 200)


def test_outputs_independent_of_blas_threads(tmp_path):
    """generate + train give the same bytes at 1 and 2 BLAS threads, on
    generated 100-feature data and on hand-written 50-, 102- and
    200-feature files."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    for d in BLAS_WIDTHS:
        write_gaussian_csv(tmp_path / f"d{d}.csv", 200, d, seed=d)
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
        trained = [only_run_dir(root / "train")]
        for d in BLAS_WIDTHS:
            cli("train", "--data", str(tmp_path / f"d{d}.csv"), "--epochs",
                "1", "--trees", "2", "--depth", "2", "--embed", "2",
                "--seed", "1", "--out", str(root / f"train{d}"))
            trained.append(only_run_dir(root / f"train{d}"))
        outputs.append(
            {name: (gen / name).read_bytes()
             for name in ("train.csv", "test.csv", "meta.json")}
            | {f"{i}/{name}": (rd / name).read_bytes()
               for i, rd in enumerate(trained)
               for name in ("history.csv", "model.json", "report.json")})
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name


@pytest.mark.skipif(_openblas_threads() is None,
                    reason="numpy bundles no OpenBLAS with a thread setter")
def test_a_command_sets_the_blas_thread_count_back(small_dataset, tmp_path):
    get, put = _openblas_threads()
    before = get()
    put(2)
    try:
        assert run("train", "--data", str(small_dataset / "train.csv"),
                   "--epochs", "1", "--trees", "2", "--depth", "2",
                   "--embed", "2", "--out", str(tmp_path)) == 0
        assert get() == 2
    finally:
        put(before)


def write_classes_csv(path, X, labels) -> None:
    """Rows of features `X` and the class names `labels`, by hand."""
    path.write_text(",".join([f"f{j}" for j in range(X.shape[1])] + ["label"])
                    + "\n" + "".join(",".join(map(repr, row.tolist()))
                                     + f",{y}\n" for row, y in zip(X, labels)))


class TestAuc:
    """The AUC of a report on more than two classes, and on a set that
    lacks one of the model's classes."""

    @pytest.fixture
    def three_classes(self, tmp_path):
        """(run directory of a model trained on three classes, features,
        labels), with rows 240 on written as `test.csv`."""
        X = RngState(4).normal(300, 4)
        y = np.argmax(X[:, :3], axis=1)
        write_classes_csv(tmp_path / "train.csv", X[:240], y[:240])
        write_classes_csv(tmp_path / "test.csv", X[240:], y[240:])
        assert run("train", "--data", str(tmp_path / "train.csv"),
                   "--eval-data", str(tmp_path / "test.csv"), "--epochs",
                   "2", "--trees", "2", "--depth", "2", "--embed", "2",
                   "--out", str(tmp_path / "t")) == 0
        return only_run_dir(tmp_path / "t"), X, y

    def _evaluate(self, rd, data, out) -> dict:
        assert run("evaluate", "--model", str(rd / "model.json"), "--data",
                   str(data), "--out", str(out)) == 0
        return json.loads((only_run_dir(out) / "report.json").read_text())

    def test_three_classes_report_the_macro_auc(self, three_classes,
                                                tmp_path):
        rd, _, y = three_classes
        report = self._evaluate(rd, tmp_path / "test.csv", tmp_path / "e")
        model = load_model(rd / "model.json")
        ds = load_csv(tmp_path / "test.csv", "label", "classification")
        assert ds.task.labels == model.task.labels == ["0", "1", "2"]
        fused = predict(model, model.scaler.transform(ds.X))
        assert report["auc"] == auc_macro_ovr(fused, ds.y, 3)
        assert report["auc"] == json.loads(
            (rd / "report.json").read_text())["auc"]
        assert report["class_counts"] == {
            str(c): int(np.sum(y[240:] == c)) for c in range(3)}

    def test_a_missing_class_reports_no_auc(self, three_classes, tmp_path):
        rd, X, y = three_classes
        keep = y[240:] != 2
        write_classes_csv(tmp_path / "two.csv", X[240:][keep], y[240:][keep])
        report = self._evaluate(rd, tmp_path / "two.csv", tmp_path / "e")
        assert report["auc"] is None
        assert report["n"] == int(keep.sum())
        assert set(report["class_counts"]) == {"0", "1"}
        assert 0.0 <= report["accuracy"] <= 1.0


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

    def test_rerun_checks_its_run_directory_first(self, small_model,
                                                  tmp_path, capsys):
        # the rerun is refused before it reads its inputs, so a CSV gone
        # since the first run does not change the answer
        doc, data = small_model
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        csv_path = tmp_path / "eval.csv"
        csv_path.write_bytes(data.read_bytes())
        args = ("evaluate", "--model", str(model), "--data", str(csv_path),
                "--out", str(tmp_path / "eval"))
        assert run(*args) == 0
        out = only_run_dir(tmp_path / "eval")
        report = (out / "report.json").read_bytes()
        csv_path.unlink()
        capsys.readouterr()
        assert run(*args) == 2
        assert capsys.readouterr().err == (
            f"error: run directory {out} already has outputs; pass --force "
            "to overwrite\n")
        assert (out / "report.json").read_bytes() == report


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


@pytest.mark.parametrize("header,message", [
    ("label", "has no feature column, only the label column 'label'"),
    ("f0,f0,label", "repeats the column name 'f0' in its header"),
])
def test_malformed_header_is_a_data_error(header, message, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    width = header.count(",") + 1
    path.write_text(header + "\n" + "".join(
        ",".join(["0.5"] * (width - 1) + [str(i % 2)]) + "\n"
        for i in range(8)))
    assert run("train", "--data", str(path), "--epochs", "1",
               "--out", str(tmp_path / "runs")) == 3
    assert capsys.readouterr().err == (
        f"data error: dataset file {path} {message}\n")
    assert not (tmp_path / "runs").exists()


def test_empty_label_is_a_data_error(tmp_path, capsys):
    # a blank label cell used to load as a class named '', and train then
    # failed on a split with an empty side
    path = tmp_path / "blank.csv"
    path.write_text("f0,label\n0.5,\n" + "".join(
        f"{i * 0.25},{i % 2}\n" for i in range(1, 12)))
    assert run("train", "--data", str(path), "--epochs", "1",
               "--out", str(tmp_path / "runs")) == 3
    assert capsys.readouterr().err == (
        f"data error: malformed rows in {path}: row 2: label is empty\n")
    assert not (tmp_path / "runs").exists()


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


def _as_regression(kind):
    """A mutation that makes the model a one-output regression model whose
    task and heads say `kind`."""
    def mutate(doc):
        doc["task"] = {"kind": kind, "n_classes": 0, "labels": None}
        for head in doc["heads"]:
            head["kind"] = kind
            head["leaf"] = [row[:1] for row in head["leaf"]]
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
    "layer weight of 401 digits": _set(["layers", 0, "weights", 0, 0],
                                       10 ** 400),
    "layer mask inf": _set(["layers", 1, "mask", 0, 0], float("inf")),
    "head_layers out of range": _set(["head_layers", 0], 4),
    "head_layers negative": _set(["head_layers", 1], -1),
    "head_layers not int": _set(["head_layers", 1], 1.0),
    "head_layers bools": _set(["head_layers"], [False, True, True]),
    "input_dim true": _set(["input_dim"], True),
    "head trees true": _set(["heads", 1, "trees"], True),
    "head depth true": _set(["heads", 0, "depth"], True),
    "head embed_dim true": _set(["heads", 2, "embed_dim"], True),
    "head_layers short": _set(["head_layers"], lambda h: h[1:]),
    "head depth": _set(["heads", 0, "depth"], 4),
    "head trees": _set(["heads", 1, "trees"], 3),
    "head trees zero": _set(["heads", 1, "trees"], 0),
    "head beyond the leaf bound": _set(["heads", 0, "depth"], 10 ** 6),
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
    "scaler std negative": _set(["scaler", "std", 1], lambda v: -v),
    "kind unknown": _set(["kind"], "bogus"),
    "kind softmax with heads": _set(["kind"], "softmax"),
    "forest without heads": lambda doc: doc.update(heads=[], head_layers=[]),
    "softmax of wrong width": lambda doc: doc.update(
        kind="softmax", heads=[], head_layers=[]),
    "more labels than classes": _set(["task", "labels"], ["0", "1", "2"]),
    "repeated labels": _set(["task", "labels"], ["1", "1"]),
    "regression of unknown kind": _as_regression("foo"),
    "regression of false classes": lambda doc: (
        _as_regression("regression")(doc),
        doc["task"].update(n_classes=False)),
}


class TestLoadModelValidation:
    def test_unmutated_model_loads(self, small_model, tmp_path):
        doc, data = small_model
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert run("evaluate", "--model", str(path), "--data", str(data),
                   "--out", str(tmp_path / "eval")) == 0

    def test_regression_form_loads(self, small_model, tmp_path):
        # the form "regression of unknown kind" mutates, with a known kind
        doc, data = small_model
        doc = json.loads(json.dumps(doc))
        _as_regression("regression")(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert run("evaluate", "--model", str(path), "--data", str(data),
                   "--out", str(tmp_path / "eval")) == 0

    @pytest.mark.parametrize("name", ["more labels than classes",
                                      "repeated labels",
                                      "regression of unknown kind",
                                      "regression of false classes"])
    def test_inconsistent_task_names_the_file(self, name, small_model,
                                              tmp_path, capsys):
        doc, data = small_model
        doc = json.loads(json.dumps(doc))
        MODEL_MUTATIONS[name](doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert run("evaluate", "--model", str(path), "--data", str(data),
                   "--out", str(tmp_path / "eval")) == 3
        assert capsys.readouterr().err.startswith(
            f"data error: model file {path} has an inconsistent task: ")

    @pytest.mark.parametrize("name,message", [
        ("head kind", "head 0 does not fit the task"),
        ("activation", "layer 0 activation is not relu/identity"),
        ("layer bias short", "layer 0 bias has shape (3,), expected (4,)"),
        ("head_layers bools",
         "3 layers cannot carry heads at [False, True, True], one per head"),
        ("input_dim true", "input_dim is not an integer: True"),
        ("head trees true", "head 1 trees is not an integer: True"),
        ("head depth true", "head 0 depth is not an integer: True"),
        ("head embed_dim true", "head 2 embed_dim is not an integer: True"),
        ("scaler std negative", "scaler std has negative values"),
    ])
    def test_model_error_names_the_file(self, name, message, small_model,
                                        tmp_path, capsys):
        doc, data = small_model
        doc = json.loads(json.dumps(doc))
        MODEL_MUTATIONS[name](doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert run("evaluate", "--model", str(path), "--data", str(data),
                   "--out", str(tmp_path / "eval")) == 3
        assert capsys.readouterr().err == (
            f"data error: model file {path}: {message}\n")

    def test_number_beyond_float64_names_the_file(self, small_model,
                                                  tmp_path, capsys):
        doc, data = small_model
        doc = json.loads(json.dumps(doc))
        MODEL_MUTATIONS["layer weight of 401 digits"](doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert run("evaluate", "--model", str(path), "--data", str(data),
                   "--out", str(tmp_path / "eval")) == 3
        assert capsys.readouterr().err == (
            f"data error: model file is corrupt or incomplete: {path}\n")

    def test_deep_nesting_names_the_file(self, small_model, tmp_path,
                                         capsys):
        _, data = small_model
        path = tmp_path / "model.json"
        path.write_text("[" * 100_000)
        assert run("evaluate", "--model", str(path), "--data", str(data),
                   "--out", str(tmp_path / "eval")) == 3
        assert capsys.readouterr().err == (
            f"data error: model file nests too deeply to read: {path}\n")
        assert not (tmp_path / "eval").exists()

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


def _cells(line, col, value):
    cells = line.split(",")
    cells[col] = value
    return ",".join(cells)


def _rows(edit):
    """A mutation that rewrites data row i (0-based) as edit(i, row)."""
    return lambda lines: lines[:1] + [edit(i, row)
                                      for i, row in enumerate(lines[1:])]


# name -> mutation of a valid dataset CSV's lines (header first, no line
# ends); each makes the file malformed wherever it is read, except the
# three marked below, which are malformed only beside another file
CSV_MUTATIONS = {
    "truncated in the header": lambda lines: [lines[0][:4]],
    "truncated in a row": lambda lines: lines[:3] + [lines[3][:5]],
    "truncated after a comma": lambda lines: lines[:3] + [
        lines[3][:lines[3].rindex(",") + 1]],
    "header only": lambda lines: lines[:1],
    "empty file": lambda lines: [],
    "ragged short row": lambda lines: lines[:5] + [
        lines[5].split(",", 1)[1]] + lines[6:],
    "ragged long row": lambda lines: lines[:5] + ["0.5," + lines[5]]
    + lines[6:],
    "repeated header": lambda lines: lines[:1] + lines,
    "header repeated mid-file": lambda lines: lines[:9] + lines[:1]
    + lines[9:],
    "missing header": lambda lines: lines[1:],
    "repeated header name": lambda lines: ["f0,f0,label"] + lines[1:],
    "nan cell": _rows(lambda i, r: _cells(r, 0, "nan") if i == 3 else r),
    "inf cell": _rows(lambda i, r: _cells(r, 1, "inf") if i == 3 else r),
    "-inf cell": _rows(lambda i, r: _cells(r, 0, "-inf") if i == 3 else r),
    "+1e300 cell": _rows(lambda i, r: _cells(r, 1, "1e300") if i == 7
                         else r),
    "-1e300 cell": _rows(lambda i, r: _cells(r, 0, "-1e300") if i == 7
                         else r),
    "+-1e300 column": _rows(lambda i, r: _cells(r, 0, f"{(-1) ** i}e300")),
    "empty label cell": _rows(lambda i, r: _cells(r, 2, "") if i == 4
                              else r),
    "blank label cell": _rows(lambda i, r: _cells(r, 2, "  ") if i == 4
                              else r),
    # malformed on both sides of load_csv's choice of reader
    "comment row": _rows(lambda i, r: "#" + r if i == 3 else r),
    "blank feature cell": _rows(lambda i, r: _cells(r, 1, " ") if i == 3
                                else r),
    "underscored bad cell": _rows(lambda i, r: _cells(r, 0, "1__5") if i == 3
                                  else r),
    "unit separator cell": _rows(lambda i, r: _cells(r, 0, "1\x1f") if i == 3
                                 else r),
    "quoted inf cell": _rows(lambda i, r: _cells(r, 1, '"inf"') if i == 6
                             else r),
    "bare CR line ends, nan cell": lambda lines: [
        "\r".join(CSV_MUTATIONS["nan cell"](lines))],
    "CRLF line ends, ragged row": lambda lines: [
        line + "\r" for line in CSV_MUTATIONS["ragged long row"](lines)],
    # a cell longer than the csv module's field limit (131072 characters)
    "long header cell": lambda lines: [_cells(lines[0], 0, "f" * 140000)]
    + lines[1:],
    "long body cell": _rows(lambda i, r: _cells(r, 0, "0." + "1" * 140000)
                            if i == 3 else r),
    # valid alone, malformed beside a model or a training file
    "wrong width": lambda lines: [line + ",0.5" if i else line + ",f2"
                                  for i, line in enumerate(lines)],
    "other label": _rows(lambda i, r: _cells(r, 2, "2") if i == 4 else r),
    # valid to score a model on, malformed to train on or beside a
    # training file of two classes
    "one class": _rows(lambda i, r: _cells(r, 2, "1")),
}
# how the mutated file is read: as the training data, as the held-out
# data beside a valid training file, or by `evaluate` of a trained model
CSV_READERS = ("train --data", "train --eval-data", "evaluate --data")
# the reader that takes each mutation malformed only beside another file
VALID_FOR = {"wrong width": "train --data", "other label": "train --data",
             "one class": "evaluate --data"}
CSV_CASES = [(name, reader) for name in sorted(CSV_MUTATIONS)
             for reader in CSV_READERS if VALID_FOR.get(name) != reader]


def _csv_argv(reader, path, small_model, tmp_path):
    """The command line that reads the CSV `path` as `reader` says."""
    doc, data = small_model
    if reader == "evaluate --data":
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        return ("evaluate", "--model", str(model), "--data", str(path))
    files = (("--data", str(path)) if reader == "train --data"
             else ("--data", str(data), "--eval-data", str(path)))
    return ("train", *files, "--epochs", "1", "--trees", "2", "--depth",
            "3", "--embed", "2")


class TestCsvMutations:
    @pytest.mark.parametrize("name,reader", CSV_CASES)
    def test_mutation_is_a_data_error(self, name, reader, small_model,
                                      tmp_path, capsys):
        lines = small_model[1].read_text().splitlines()
        path = tmp_path / "mutated.csv"
        path.write_text("".join(line + "\n"
                                for line in CSV_MUTATIONS[name](lines)))
        out = tmp_path / "runs"
        assert run(*_csv_argv(reader, path, small_model, tmp_path),
                   "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(path) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_one_class_scores_a_model_but_trains_none(self, small_model,
                                                      tmp_path, capsys):
        # the model's two classes, scored on 20 rows of class 1 alone
        doc, data = small_model
        lines = data.read_text().splitlines()
        ones = [line for line in lines[1:] if line.endswith(",1")][:20]
        assert len(ones) == 20
        path = tmp_path / "ones.csv"
        path.write_text("".join(line + "\n" for line in [lines[0], *ones]))
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert run("evaluate", "--model", str(model), "--data", str(path),
                   "--out", str(tmp_path / "eval")) == 0
        report = json.loads(
            (only_run_dir(tmp_path / "eval") / "report.json").read_text())
        assert report["n"] == 20 and report["class_counts"] == {"1": 20}
        assert report["auc"] is None and 0.0 <= report["accuracy"] <= 1.0
        capsys.readouterr()
        for command in ("train", "compare"):
            assert run(command, "--data", str(path), "--out",
                       str(tmp_path / "runs")) == 3
            assert capsys.readouterr().err == (
                f"data error: classification dataset {path} has fewer "
                "than 2 classes\n")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("reader", CSV_READERS)
    def test_bytes_not_utf8(self, reader, small_model, tmp_path, capsys):
        raw = small_model[1].read_bytes()
        path = tmp_path / "mutated.csv"
        path.write_bytes(raw[:40] + b"\xff\xfe" + raw[40:])
        assert run(*_csv_argv(reader, path, small_model, tmp_path),
                   "--out", str(tmp_path / "runs")) == 3
        assert capsys.readouterr().err == (
            f"data error: cannot read dataset file {path}: not UTF-8 text\n")
        assert not (tmp_path / "runs").exists()


BASE_CONFIG = ("# a small run\ntrain.epochs=1\nmodel.trees=2\n"
               "model.depth=3\nmodel.embed=2\ntrain.lr=0.001\n"
               "prune.alpha=0.5\ntrain.dropout=0.1\n")

# name -> (mutated config text, exit code, the line the error names or
# None); a numeric failure (exit 4) comes from training, not from a line
CONFIG_MUTATIONS = {
    "truncated in a key": (BASE_CONFIG[:BASE_CONFIG.index("depth")], 2, 4),
    "truncated after =": (BASE_CONFIG[:BASE_CONFIG.index("depth") + 6],
                          2, 4),
    "line without =": (BASE_CONFIG.replace("lr=", "lr "), 2, 6),
    "section header": ("[train]\n" + BASE_CONFIG, 2, 1),
    "repeated key": (BASE_CONFIG + "train.epochs=2\n", 2, 9),
    "missing key": (BASE_CONFIG + "=2\n", 2, 9),
    "unknown key": (BASE_CONFIG + "train.momentum=0.9\n", 2, 9),
    "empty value": (BASE_CONFIG.replace("0.001", ""), 2, 6),
    "wrong type": (BASE_CONFIG.replace("trees=2", "trees=2.5"), 2, 3),
    "nan value": (BASE_CONFIG.replace("0.001", "nan"), 2, 6),
    "inf value": (BASE_CONFIG.replace("alpha=0.5", "alpha=inf"), 2, 7),
    "-inf value": (BASE_CONFIG.replace("0.001", "-inf"), 2, 6),
    "+1e300 int": (BASE_CONFIG.replace("trees=2", "trees=1e300"), 2, 3),
    "+1e300 dropout": (BASE_CONFIG.replace("0.1\n", "1e300\n"), 2, 8),
    "-1e300 dropout": (BASE_CONFIG.replace("0.1\n", "-1e300\n"), 2, 8),
    "+1e300 holdout": (BASE_CONFIG + "train.holdout=1e300\n", 2, 9),
    "+1e300 lr": (BASE_CONFIG.replace("0.001", "1e300"), 4, None),
    "-1e300 lr": (BASE_CONFIG.replace("0.001", "-1e300"), 4, None),
    "+1e300 alpha": (BASE_CONFIG.replace("alpha=0.5", "alpha=1e300"), 4,
                     None),
    "too deep": (BASE_CONFIG.replace("depth=3", "depth=40"), 2, 4),
    "too many trees": (BASE_CONFIG.replace("trees=2", "trees=" + "9" * 40),
                       2, 3),
    "negative epochs": (BASE_CONFIG.replace("epochs=1", "epochs=-5"), 2, 2),
    "too wide an embedding": (
        BASE_CONFIG.replace("embed=2", "embed=" + "9" * 40), 2, 5),
}


class TestConfigMutations:
    def test_unmutated_config_trains(self, small_model, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(BASE_CONFIG)
        assert run("train", "--data", str(small_model[1]), "--config",
                   str(path), "--out", str(tmp_path / "runs")) == 0

    @pytest.mark.parametrize("name", sorted(CONFIG_MUTATIONS))
    def test_mutation_exit_code(self, name, small_model, tmp_path, capsys):
        text, code, line = CONFIG_MUTATIONS[name]
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert run("train", "--data", str(small_model[1]), "--config",
                   str(path), "--out", str(tmp_path / "runs")) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        if line is None:
            assert err.startswith("numeric error: ")
        else:
            assert err.startswith(f"error: {path}:{line}: ")
        assert not (tmp_path / "runs").exists()

    def test_bytes_not_utf8(self, small_model, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(BASE_CONFIG.encode()[:30] + b"\xff"
                         + BASE_CONFIG.encode()[30:])
        assert run("train", "--data", str(small_model[1]), "--config",
                   str(path), "--out", str(tmp_path / "runs")) == 3
        assert capsys.readouterr().err == (
            f"data error: cannot read config file {path}: not UTF-8 text\n")
        assert not (tmp_path / "runs").exists()


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

    # how the prune mode is given -> (flags, config file, each method's mode)
    PRUNE_MODES = {
        "not given": ((), "", {"dndn": "none", "dnspn": "dsp",
                               "surgery": "surgery"}),
        "flag none": (("--prune", "none"), "", dict.fromkeys(
            ("dndn", "dnspn", "surgery"), "none")),
        "flag surgery": (("--prune", "surgery"), "", dict.fromkeys(
            ("dndn", "dnspn", "surgery"), "surgery")),
        "file dsp": ((), "prune.mode=dsp\n", dict.fromkeys(
            ("dndn", "dnspn", "surgery"), "dsp")),
    }

    @pytest.mark.parametrize("how", sorted(PRUNE_MODES))
    def test_explicit_prune_mode_overrides_each_method(
            self, how, small_dataset, tmp_path, monkeypatch):
        # the rule train applies: an explicit mode overrides the method's
        flags, text, modes = self.PRUNE_MODES[how]
        (tmp_path / "run.cfg").write_text(text)
        seen, real = tmp_path / "seen", dnspn.cli.run_method_cell

        def spy(method, train_ds, eval_ds, cfg, tcfg):
            # a cell may run in a worker process: it appends one line
            with open(seen, "a") as fh:
                fh.write(f"{method} {tcfg.seed} {tcfg.prune.mode}\n")
            return real(method, train_ds, eval_ds, cfg, tcfg)

        monkeypatch.setattr(dnspn.cli, "run_method_cell", spy)
        assert run("compare", "--data", str(small_dataset / "train.csv"),
                   "--methods", "dndn,dnspn,surgery", "--seeds", "0,1",
                   "--epochs", "1", "--trees", "2", "--depth", "2",
                   "--embed", "2", *flags, "--config",
                   str(tmp_path / "run.cfg"), "--out",
                   str(tmp_path / "runs")) == 0
        assert sorted(seen.read_text().splitlines()) == [
            f"{method} {seed} {modes[method]}"
            for method in ("dndn", "dnspn", "surgery") for seed in (0, 1)]


forks = pytest.mark.skipif(not dnspn.numeric._FORKS,
                           reason="the CLI forks workers on Linux only")


class TestWorkers:
    """generate's writes, train's and compare's loads and compare's cells
    in forked workers: the outputs, exit codes and messages of one CPU,
    and no process left behind."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_malformed_file_is_named(self, cpus, tmp_path,
                                           monkeypatch, capsys,
                                           no_child_left):
        # --data's cell is malformed in its last row, --eval-data's in its
        # first, so the eval file fails first when both load at once
        monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: cpus)
        write_gaussian_csv(tmp_path / "data.csv", 2000, 20, seed=1)
        write_gaussian_csv(tmp_path / "eval.csv", 50, 20, seed=2)
        for name, row in (("data.csv", -1), ("eval.csv", 1)):
            lines = (tmp_path / name).read_text().splitlines()
            lines[row] = "x" + lines[row]
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        cell = (tmp_path / "data.csv").read_text().splitlines()[-1]
        cell = cell.split(",")[0]
        code = run("train", "--data", str(tmp_path / "data.csv"),
                   "--eval-data", str(tmp_path / "eval.csv"),
                   "--out", str(tmp_path / "runs"))
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: malformed rows in {tmp_path / 'data.csv'}: row "
            f"2001: column 'f0' value '{cell}' is not numeric\n")
        assert not (tmp_path / "runs").exists()

    def _cells(self, monkeypatch, tmp_path, in_worker):
        """compare's cells, patched so that, with two processes, the first
        cell to begin in a forked worker runs `in_worker` and the caller
        waits for it to begin."""
        monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: 2)
        real, parent = dnspn.cli.run_method_cell, os.getpid()
        began = tmp_path / "began"

        def cell(*args):
            if os.getpid() == parent:
                wait_for(began)
            else:
                began.touch()
                in_worker()
            return real(*args)

        monkeypatch.setattr(dnspn.cli, "run_method_cell", cell)

    def _compare(self, small_dataset, tmp_path):
        return run("compare", "--data", str(small_dataset / "train.csv"),
                   "--methods", "fcnn,dnspn", "--seeds", "0", "--epochs",
                   "1", "--trees", "2", "--depth", "2", "--embed", "2",
                   "--out", str(tmp_path / "runs"))

    @forks
    def test_overflow_in_a_worker_exits_4(self, small_dataset, tmp_path,
                                          monkeypatch, capsys,
                                          no_child_left):
        self._cells(monkeypatch, tmp_path, lambda: np.exp(np.float64(1e3)))
        assert self._compare(small_dataset, tmp_path) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric error: overflow encountered in exp")
        assert not (tmp_path / "runs").exists()

    @forks
    def test_a_killed_worker_exits_1(self, small_dataset, tmp_path,
                                     monkeypatch, capsys, no_child_left):
        self._cells(monkeypatch, tmp_path,
                    lambda: os.kill(os.getpid(), signal.SIGKILL))
        assert self._compare(small_dataset, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process ended (killed by "
                              "SIGKILL) before call 2 of 2 returned")
        assert len(err.splitlines()) == 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs os.sched_setaffinity")
    def test_one_cpu_forks_nothing(self, tmp_path, monkeypatch,
                                   no_child_left):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            assert run("generate", "--k", "5", "--ntrain", "100", "--ntest",
                       "50", "--out", str(tmp_path / "gen")) == 0
            gen = only_run_dir(tmp_path / "gen")
            split = ("--data", str(gen / "train.csv"), "--eval-data",
                     str(gen / "test.csv"), "--epochs", "1", "--trees", "2",
                     "--depth", "2", "--embed", "2")
            assert run("train", *split, "--out", str(tmp_path / "t")) == 0
            assert run("compare", *split, "--seeds", "0,1",
                       "--out", str(tmp_path / "c")) == 0
        finally:
            os.sched_setaffinity(0, cpus)


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


# every float flag of each subcommand, and the arguments it requires
_FLOAT_FLAGS = {
    "generate": ((), ("sigma",)),
    "train": (("--data", "d.csv"), ("lr", "dropout", "holdout", *_PRUNE)),
    "compare": (("--data", "d.csv"), ("lr", "dropout", "holdout", *_PRUNE)),
    "mask-curve": ((), ("mu", "std", "wmin", "wmax", *_PRUNE)),
}
_EXPONENT_FORMS = ("-1e-3", "-1E+2", "-.5e-1")


class TestNegativeExponentValues:
    @pytest.mark.parametrize("value", _EXPONENT_FORMS)
    @pytest.mark.parametrize("command", sorted(_FLOAT_FLAGS))
    def test_every_float_flag_reads_it_as_a_value(self, command, value):
        required, flags = _FLOAT_FLAGS[command]
        parser = build_parser()
        for flag in flags:
            spaced = parser.parse_args([command, *required, f"--{flag}",
                                        value])
            joined = parser.parse_args([command, *required,
                                        f"--{flag}={value}"])
            assert vars(spaced) == vars(joined)
            assert getattr(spaced, flag) == float(value)

    @pytest.mark.parametrize("value", _EXPONENT_FORMS)
    def test_mask_curve_gives_the_same_bytes(self, value, tmp_path):
        outputs = []
        for name, flag in (("spaced", ["--wmin", value]),
                           ("joined", [f"--wmin={value}"])):
            assert run("mask-curve", *flag, "--wmax", "1", "--samples", "21",
                       "--out", str(tmp_path / name)) == 0
            rd = only_run_dir(tmp_path / name)
            outputs.append({p.relative_to(tmp_path / name): p.read_bytes()
                            for p in sorted(rd.iterdir())})
        assert outputs[0] == outputs[1]

    def test_an_option_after_a_flag_is_still_an_option(self, tmp_path,
                                                        capsys):
        code = run("mask-curve", "--wmin", "--wmax", "1",
                   "--out", str(tmp_path))
        assert code == 2
        assert "argument --wmin: expected one argument" in \
            capsys.readouterr().err
        assert not tmp_path.exists() or not any(tmp_path.iterdir())


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
