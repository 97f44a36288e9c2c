"""Reduced-size runs of every workload, the traced run's bookkeeping, and
the command's output contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as bench
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def small_run(name, tmp_path, tracer=None):
    run = workloads.Run(seed=7, tracer=tracer, small=True)
    table = workloads.workloads(tmp_path / "work")
    (tmp_path / "work").mkdir()
    table[name].run(run, seconds=0.0)
    return run


def test_declared_workloads_exist(tmp_path):
    assert set(NAMES) == set(workloads.workloads(tmp_path))


@pytest.mark.parametrize("name", NAMES)
def test_small_run(name, tmp_path):
    run = small_run(name, tmp_path)
    # data, then fit and evaluate per method (commands for cli-serve)
    timed_ops = {"paper-train": 9, "deep-forest-train": 3, "cli-serve": 3}
    per_round = timed_ops[name] + sum(workloads.SMALL_SERVE_CALLS.values())
    assert run.problems == []
    # a warm-up round, then one measured round
    assert (run.rounds, run.attempted, run.failed) == (1, 2 * per_round, 0)
    values = bench.end_to_end(run, np)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(values)
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("name", ["deep-forest-train", "cli-serve"])
def test_traced_run_adds_up(name, tmp_path):
    import dnspn.cli
    import dnspn.data
    import dnspn.model_io
    import dnspn.network
    import dnspn.training
    tracer = spans.Tracer()
    tracer.install({m.__name__: m for m in (
        dnspn.training, dnspn.network, dnspn.data, dnspn.model_io,
        dnspn.cli)})
    try:
        run = small_run(name, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert dnspn.training.fit.__name__ == "fit"
    layer, problems = bench.per_layer(spans.Summary(tracer.spans),
                                      run.rounds, dnspn.training.METHODS)
    assert problems == [] and run.problems == []
    assert {m["name"] for m in SPEC["per_layer"]} == set(layer)
    step = layer["dnspn.training.train_step_ms"]
    children = sum(v for k, v in layer.items() if k.startswith("dnspn.") and
                   k.endswith("_ms") and k not in (
                       "dnspn.training.train_step_ms",
                       "dnspn.training.eval_predict_ms"))
    assert children == pytest.approx(step, rel=1e-9)
    assert layer["dnspn.pruning.mask_entries"] > 0
    assert layer["dnspn.forest.route_ms"] > 0
    assert layer["b1.training.predict_ms"] > 0


def test_summary_self_times():
    # parent 0..10 with children 1..3 and 4..8; grandchild 5..6
    sp = [["p", 0.0, 10.0, -1, "", 0], ["a", 1.0, 3.0, 0, "", 0],
          ["b", 4.0, 8.0, 0, "", 0], ["c", 5.0, 6.0, 2, "", 0]]
    s = spans.Summary(sp)
    assert s.self_time == [4.0, 2.0, 3.0, 1.0]
    assert sum(s.self_time) == s.dur[0]
    assert s.nesting_error() == 0.0


def command(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, check=False)


def test_command_contract():
    proc = command(ROOT, "--workload", "deep-forest-train", "--seed", "3",
                   "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = command(tmp_path, "--workload", "paper-train", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_failed_operation_fails_rest_of_round(tmp_path, monkeypatch):
    import dnspn.training

    def broken(*_args):
        raise RuntimeError("evaluation broke")
    monkeypatch.setattr(dnspn.training, "evaluate_model", broken)
    run = small_run("deep-forest-train", tmp_path)
    per_round = 3 + sum(workloads.SMALL_SERVE_CALLS.values())
    # in both rounds data and fit succeeded; evaluate and every predict
    # call count failed
    assert (run.attempted, run.failed) == (2 * per_round,
                                           2 * (per_round - 2))
    assert run.problems == [] and len(run.failures) == 2
