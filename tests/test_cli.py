import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dnspn.cli import main
from dnspn.data import SyntheticSpec, gen_linear_k, train_test, write_csv
from dnspn.numeric import RngState


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
        assert "beta must be finite" in capsys.readouterr().err


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
