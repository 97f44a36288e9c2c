"""tools/bench_compare.py: paired summaries, byte for byte reproducible."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)

SPEC = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in SPEC["end_to_end"]]
LAYER_METRICS = [m["name"] for m in SPEC["per_layer"]]
ENV = {"numpy": "2.0", "blas": "openblas 0.3", "cpu_count": 2,
       "blas_threads": {"OPENBLAS_NUM_THREADS": "1"}}


def write_run(results, workload, seed, scale, env=ENV, value=None,
              trace=0, drop=(), methods=(), probe_ms=2.0, measured=True):
    """One result file whose every metric is `value`, or seed * scale when
    no value is given. A traced run (`trace=1`) reports the per-layer
    metrics, but for the `fcnn.` ones, which read 0 as in a workload
    without that method, and its traced end-to-end figures read 1000.
    Metrics named in `drop` are left out. The i-th of `methods` (from 1)
    gets `train.<method>` samples whose median is i * value. Unless
    `measured` is false, the run's unscaled end-to-end figures read half
    of `value`, and its speed probe's median is `probe_ms`."""
    value = seed * scale if value is None else value
    results.mkdir(parents=True, exist_ok=True)
    names = LAYER_METRICS if trace else METRICS
    record = {"workload": workload, "seed": seed, "seconds": 8.0,
              "environment": env,
              "loadavg_before": [0.5 + seed, 0.4, 0.3],
              "result": {"correct": True, "attempted": 10, "failed": 0,
                         "metrics": {name: {"value": 0.0 if name.startswith(
                             "fcnn.") else value, "unit": "x"}
                                     for name in names if name not in drop}}}
    if methods:
        record["scaled_samples"] = {
            f"train.{m}": [i * value + 5.0, i * value - 1.0, i * value]
            for i, m in enumerate(methods, 1)}
    if trace:
        record["traced_end_to_end"] = {name: 1000.0 for name in METRICS}
    if measured:
        record["measured_end_to_end"] = {name: value / 2 for name in METRICS}
        record["speed_probe"] = {"readings": 9, "median_ms": probe_ms}
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record))


TRAINED = ("dnspn", "fcnn")


@pytest.fixture
def sides(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3, 4):
        write_run(parent, "deep-forest-train", seed, 1.0, methods=TRAINED)
        # the change is 10% higher on three seeds and 10% lower on one
        write_run(change, "deep-forest-train", seed,
                  0.9 if seed == 2 else 1.1, methods=TRAINED)
        write_run(parent, "cli-serve", seed, 2.0)
        write_run(change, "cli-serve", seed, 2.0)
    # traced runs on other seeds: per-layer figures only, the change's
    # twice the parent's
    for seed in (7, 8, 9):
        write_run(parent, "paper-train", seed, 1.0, trace=1)
        write_run(change, "paper-train", seed, 2.0, trace=1)
    return parent, change


def test_same_inputs_same_bytes(sides, tmp_path, capsys):
    parent, change = sides
    for tier1 in ([], ["--tier1-s", "301.5", "287"]):
        outs = []
        for name in ("a.json", "b.json"):
            assert bench_compare.main([str(parent), str(change),
                                       str(tmp_path / name), *tier1]) == 0
            outs.append(((tmp_path / name).read_bytes(),
                         capsys.readouterr().out))
        assert outs[0] == outs[1]
        assert outs[0][1].startswith("| workload (pairs, seeds) | metric |")
        assert "\nPer-layer metrics, from the traced runs:\n" in outs[0][1]
        assert ("\nEach method's training rate, from the untraced runs:\n"
                in outs[0][1])
        assert ("\nUnscaled end-to-end metrics and the speed probe's run "
                "medians, from the untraced runs:\n" in outs[0][1])


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


def test_gain_rule_and_bound_flags(tmp_path, capsys):
    # the parent reads 101..110 over seeds 1-10: median 105.5, quartiles
    # 103.25 and 107.75
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(1, 11):
        for workload in ("deep-forest-train", "paper-train", "cli-serve"):
            write_run(parent, workload, seed, 1.0, value=100.0 + seed)
        # about half on 9 pairs, far higher on the tenth
        write_run(change, "deep-forest-train", seed, 1.0,
                  value=50.0 + seed if seed < 10 else 200.0)
        # about half on 8 pairs only
        write_run(change, "paper-train", seed, 1.0,
                  value=50.0 + seed if seed < 9 else 200.0)
        # exactly 25% higher on every pair
        write_run(change, "cli-serve", seed, 1.0, value=1.25 * (100.0 + seed))
    out = tmp_path / "bench.json"
    assert bench_compare.main([str(parent), str(change), str(out)]) == 0
    summary = json.loads(out.read_text())
    assert "tier1_s" not in summary
    flags = {(w, m): (v["wins"], v["gain_rule_met"], v["worse_beyond_bound"])
             for w, rec in summary["workloads"].items()
             for m, v in rec["metrics"].items()}
    # lower is better: 9/10 wins and a gain beyond the quartiles meet the
    # rule; 8/10 do not
    assert flags["deep-forest-train", "predict_b1_ms"] == (9, True, False)
    assert flags["paper-train", "predict_b1_ms"] == (8, False, False)
    # higher is better: the same runs are a loss of about half
    assert flags["deep-forest-train", "train_sps"] == (1, False, True)
    assert flags["paper-train", "train_sps"] == (2, False, True)
    # worse by exactly the 0.25 bound is not beyond it; better never is
    assert flags["cli-serve", "predict_b1_ms"] == (0, False, False)
    assert flags["cli-serve", "train_sps"] == (10, True, False)
    table = capsys.readouterr().out
    assert ("| `deep-forest-train` (10, 1-10) | `setup_s` | 105.5 "
            "[103.2, 107.8] | 55.5 [53.25, 57.75] | -47.4% | 9/10 "
            "| gain rule met |") in table
    assert ("|  | `train_sps` | 105.5 [103.2, 107.8] | 55.5 [53.25, 57.75] "
            "| -47.4% | 1/10 | worse beyond bound |") in table


def test_tier1_times_recorded(sides, tmp_path, capsys):
    parent, change = sides
    out = tmp_path / "bench.json"
    assert bench_compare.main([str(parent), str(change), str(out),
                               "--tier1-s", "301.5", "287"]) == 0
    assert json.loads(out.read_text())["tier1_s"] == {"parent": 301.5,
                                                      "change": 287.0}
    assert capsys.readouterr().out.endswith(
        "\nTier-1 wall time: parent 302 s, change 287 s\n")


def test_per_layer_from_traced_pairs(sides, tmp_path, capsys):
    parent, change = sides
    out = tmp_path / "bench.json"
    assert bench_compare.main([str(parent), str(change), str(out)]) == 0
    summary = json.loads(out.read_text())
    # the untraced figures hold no traced run: paper-train ran traced only
    assert sorted(summary["workloads"]) == ["cli-serve", "deep-forest-train"]
    layers = summary["per_layer"]
    assert sorted(layers) == ["paper-train"]
    paper = layers["paper-train"]
    assert paper["seeds"] == [7, 8, 9] and paper["runs"] == 3
    step = paper["metrics"]["dnspn.training.adam_update_ms"]
    assert step["parent"] == {"median": 8.0, "q1": 7.5, "q3": 8.5}
    assert step["change"]["median"] == 16.0
    assert step["wins"] == 0 and step["change_pct"] == 100.0
    assert "gain_rule_met" not in step
    # a layer no run uses is left out
    assert not any(name.startswith("fcnn.") for name in paper["metrics"])
    assert len(paper["metrics"]) == len(LAYER_METRICS) - sum(
        name.startswith("fcnn.") for name in LAYER_METRICS)
    table = capsys.readouterr().out
    assert ("| `paper-train` (3, 7-9) | `dndn.training.train_step_ms` |"
            in table)
    assert ("|  | `dnspn.training.adam_update_ms` | 8 [7.5, 8.5] | 16 "
            "[15, 17] | +100.0% | 0/3 |\n") in table


def test_one_sided_per_layer_metric_refused(sides, tmp_path, capsys):
    parent, change = sides
    write_run(change, "paper-train", 8, 2.0, trace=1,
              drop=("dnspn.training.adam_update_ms",))
    assert bench_compare.main([str(parent), str(change),
                               str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err == (
        "error: per-layer metric dnspn.training.adam_update_ms of "
        "paper-train is reported by the parent side only\n")
    assert not (tmp_path / "x.json").exists()


def test_unpaired_traced_runs_rejected(sides, tmp_path, capsys):
    parent, change = sides
    write_run(parent, "paper-train", 6, 1.0, trace=1)
    assert bench_compare.main([str(parent), str(change),
                               str(tmp_path / "x.json")]) == 2
    assert "traced runs have different workloads or seeds" in \
        capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_per_method_rates(sides, tmp_path, capsys):
    parent, change = sides
    out = tmp_path / "bench.json"
    assert bench_compare.main([str(parent), str(change), str(out)]) == 0
    summary = json.loads(out.read_text())
    # cli-serve trains no method, and traced runs are not read
    assert sorted(summary["per_method"]) == ["deep-forest-train"]
    deep = summary["per_method"]["deep-forest-train"]
    assert deep["seeds"] == [1, 2, 3, 4] and deep["runs"] == 4
    assert sorted(deep["metrics"]) == ["train_sps.dnspn", "train_sps.fcnn"]
    dnspn = deep["metrics"]["train_sps.dnspn"]
    # each run's rate is the median of its samples: seed * scale
    assert dnspn["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert dnspn["wins"] == 3 and dnspn["better"] == "higher"
    assert dnspn["unit"] == "1/s"
    assert "gain_rule_met" not in dnspn
    fcnn = deep["metrics"]["train_sps.fcnn"]
    assert fcnn["parent"] == {"median": 5.0, "q1": 3.5, "q3": 6.5}
    table = capsys.readouterr().out
    rates = table.split("\nEach method's training rate, from the untraced "
                        "runs:\n")[1].split("\nPer-layer metrics")[0]
    assert ("| `deep-forest-train` (4, 1-4) | `train_sps.dnspn` | 2.5 "
            "[1.75, 3.25] |") in rates
    assert "|  | `train_sps.fcnn` | 5 [3.5, 6.5] |" in rates


def test_one_sided_method_rate_refused(sides, tmp_path, capsys):
    parent, change = sides
    write_run(change, "deep-forest-train", 3, 1.1, methods=("dnspn",))
    assert bench_compare.main([str(parent), str(change),
                               str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err == (
        "error: training rate train.fcnn of deep-forest-train is missing "
        "from runs of the change side\n")
    assert not (tmp_path / "x.json").exists()


def test_unscaled_figures_and_speed_probe(tmp_path, capsys):
    # the scaled figures are the same on both sides, while the change ran
    # at a slower probe and measured 20% lower
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3, 4):
        write_run(parent, "cli-serve", seed, 1.0, value=10.0 * seed,
                  probe_ms=1.5)
        write_run(change, "cli-serve", seed, 1.0, value=10.0 * seed,
                  probe_ms=1.8 + seed / 10)
        record = json.loads((change / f"cli-serve-seed{seed}-trace0.json")
                            .read_text())
        record["measured_end_to_end"] = {name: 4.0 * seed
                                         for name in METRICS}
        (change / f"cli-serve-seed{seed}-trace0.json").write_text(
            json.dumps(record))
    out = tmp_path / "bench.json"
    assert bench_compare.main([str(parent), str(change), str(out)]) == 0
    summary = json.loads(out.read_text())
    scaled = summary["workloads"]["cli-serve"]["metrics"]["train_sps"]
    assert scaled["change_pct"] == 0.0
    measured = summary["measured"]["cli-serve"]
    assert measured["seeds"] == [1, 2, 3, 4] and measured["runs"] == 4
    assert sorted(measured["metrics"]) == sorted(
        METRICS + ["speed_probe_median_ms"])
    sps = measured["metrics"]["train_sps"]
    assert sps["parent"] == {"median": 12.5, "q1": 8.75, "q3": 16.25}
    assert sps["change"]["median"] == 10.0
    assert sps["change_pct"] == pytest.approx(-20.0)
    assert sps["wins"] == 0 and "gain_rule_met" not in sps
    probe = measured["metrics"]["speed_probe_median_ms"]
    assert probe["parent"] == {"median": 1.5, "q1": 1.5, "q3": 1.5}
    assert probe["change"]["median"] == pytest.approx(2.05)
    assert probe["unit"] == "ms" and probe["wins"] == 0
    table = capsys.readouterr().out
    unscaled = table.split("\nUnscaled end-to-end metrics and the speed "
                           "probe's run medians, from the untraced "
                           "runs:\n")[1]
    assert ("|  | `train_sps` | 12.5 [8.75, 16.25] | 10 [7, 13] | -20.0% "
            "| 0/4 |\n") in unscaled
    assert "|  | `speed_probe_median_ms` | 1.5 [1.5, 1.5] |" in unscaled


def test_run_without_unscaled_figures_refused(sides, tmp_path, capsys):
    parent, change = sides
    write_run(change, "cli-serve", 2, 2.0, measured=False)
    assert bench_compare.main([str(parent), str(change),
                               str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err == (
        "error: runs of cli-serve on the change side have no unscaled "
        "figures or speed probe\n")
    assert not (tmp_path / "x.json").exists()
