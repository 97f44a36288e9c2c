"""tools/bench_compare.py: paired summaries, byte for byte reproducible."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)

METRICS = [m["name"] for m in json.loads(
    (TOOL.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]]
ENV = {"numpy": "2.0", "blas": "openblas 0.3", "cpu_count": 2,
       "blas_threads": {"OPENBLAS_NUM_THREADS": "1"}}


def write_run(results, workload, seed, scale, env=ENV):
    """One untraced result file whose every metric is seed * scale."""
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": 8.0,
              "environment": env, "loadavg_before": [0.5 + seed, 0.4, 0.3],
              "result": {"correct": True, "attempted": 10, "failed": 0,
                         "metrics": {name: {"value": seed * scale,
                                            "unit": "x"}
                                     for name in METRICS}}}
    (results / f"{workload}-seed{seed}-trace0.json").write_text(
        json.dumps(record))


@pytest.fixture
def sides(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3, 4):
        write_run(parent, "deep-forest-train", seed, 1.0)
        # the change is 10% higher on three seeds and 10% lower on one
        write_run(change, "deep-forest-train", seed,
                  0.9 if seed == 2 else 1.1)
        write_run(parent, "cli-serve", seed, 2.0)
        write_run(change, "cli-serve", seed, 2.0)
    # a traced run is not part of the comparison
    (parent / "cli-serve-seed9-trace1.json").write_text("{}")
    return parent, change


def test_same_inputs_same_bytes(sides, tmp_path, capsys):
    parent, change = sides
    outs = []
    for name in ("a.json", "b.json"):
        assert bench_compare.main([str(parent), str(change),
                                   str(tmp_path / name)]) == 0
        outs.append(((tmp_path / name).read_bytes(),
                     capsys.readouterr().out))
    assert outs[0] == outs[1]
    assert outs[0][1].startswith("| workload (pairs, seeds) | metric |")


def test_medians_quartiles_and_wins(sides, tmp_path, capsys):
    parent, change = sides
    out = tmp_path / "bench.json"
    assert bench_compare.main([str(parent), str(change), str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["environment"] == ENV
    deep = summary["workloads"]["deep-forest-train"]
    assert deep["seeds"] == [1, 2, 3, 4] and deep["runs"] == 4
    assert deep["failed"] == {"parent": 0, "change": 0}
    sps = deep["metrics"]["train_sps"]
    assert sps["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert sps["wins"] == 3          # higher is better
    ms = deep["metrics"]["predict_b1_ms"]
    assert ms["wins"] == 1           # lower is better
    tie = summary["workloads"]["cli-serve"]["metrics"]["train_sps"]
    assert tie["wins"] == 0 and tie["change_pct"] == 0.0
    assert not tie["gain_beyond_parent_iqr"]
    table = capsys.readouterr().out
    assert "| `deep-forest-train` (4, 1-4) | `setup_s` |" in table
    assert "|  | `train_sps` | 2.5 [1.75, 3.25] |" in table


def test_unpaired_or_mixed_runs_rejected(sides, tmp_path, capsys):
    parent, change = sides
    write_run(change, "paper-train", 1, 1.0)
    assert bench_compare.main([str(parent), str(change),
                               str(tmp_path / "x.json")]) == 2
    assert "different workloads or seeds" in capsys.readouterr().err
    (change / "paper-train-seed1-trace0.json").unlink()
    write_run(change, "cli-serve", 1, 2.0, env=dict(ENV, numpy="1.26"))
    assert bench_compare.main([str(parent), str(change),
                               str(tmp_path / "x.json")]) == 2
    assert "2 environments" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()
