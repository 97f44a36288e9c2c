"""Summarize paired benchmark runs of a parent and a change into one file.

    python3 tools/bench_compare.py PARENT_RESULTS CHANGE_RESULTS OUT.json \
        [--tier1-s PARENT_SECONDS CHANGE_SECONDS]

PARENT_RESULTS and CHANGE_RESULTS are the `.perfbench/results` directories
of two checkouts that ran `perfbench/run.py` on the same workloads and
seeds. A run of the parent and a run of the change with the same workload,
seed and `--trace` value make a pair. For every end-to-end metric that
BENCHMARK.json declares, OUT.json gets, from the untraced pairs
(`*-trace0.json`), each side's median and quartiles, the change in the
median, and the number of pairs the change won, with two flags:

- `worse_beyond_bound`: the change's median is worse than the parent's by
  more than the metric's `bound` in BENCHMARK.json (a fraction of the
  parent's median);
- `gain_rule_met`: the change won at least 9 of every 10 pairs, and its
  median is better than the parent's by more than the distance between
  the parent's quartiles.

Beside them it keeps the seeds, the run count, each side's failed
operations and load average, the environment the runs report (BLAS and
its threads, numpy, the CPU count) and, when `--tier1-s` gives them, each
side's Tier-1 wall time in seconds.

A workload that trains several methods pools them into one `train_sps`.
So each method's own rate, the median of a run's `train.<method>` samples
in `scaled_samples`, is summarized over the untraced pairs under a
separate `per_method` key: each side's median and quartiles, the change in
the median and the wins, with no flags. A method that only one side's runs
report is refused.

The end-to-end figures are at the reference machine speed, which
`perfbench/speed.py` takes from a probe run through each untraced run. So
the same figures as measured, unscaled (each run's `measured_end_to_end`),
and each run's median probe reading (`speed_probe`'s `median_ms`) are
summarized under a separate `measured` key, with no flags: when the two
sides ran at different machine speeds, these show it beside the scaled
figures.

The traced pairs (`*-trace1.json`), when there are any, are summarized the
same way under a separate `per_layer` key: for each per-layer metric of
BENCHMARK.json, each side's median and quartiles, the change in the
median and the wins, with no flags. A metric that reads 0 on every run of
a workload, on both sides, is a layer the workload does not use and is
left out. A per-layer metric that only one side's runs report is refused.
The end-to-end figures come from untraced runs only: a traced run's
timings include the tracer's own cost. The script only reads results; it
gates nothing.

It prints the same numbers as markdown tables, one row per workload and
metric. The same inputs give the same bytes in both outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def load_runs(results: Path, trace: int = 0) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> the record of each run in `results` with this
    `--trace` value."""
    runs = {}
    for path in sorted(results.glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text())
        runs[record["workload"], record["seed"]] = record
    return runs


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method, so one run is its own
    quartiles)."""
    q1, mid, q3 = (quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": mid, "q1": q1, "q3": q3}


def _environment(*sides: dict) -> dict:
    """The one environment that every run of `sides` reports; raises
    ValueError when they report more than one."""
    envs = {json.dumps(r["environment"], sort_keys=True)
            for runs in sides for r in runs.values()}
    if len(envs) != 1:
        raise ValueError(f"runs from {len(envs)} environments: "
                         + "; ".join(sorted(envs)))
    return json.loads(envs.pop())


def _pairs(parent: dict, change: dict, what: str):
    """(workload, seeds, {side: its records in seed order}) for each
    workload; raises ValueError when the two sides do not pair up."""
    if sorted(parent) != sorted(change):
        raise ValueError(f"the two sides' {what} runs have different "
                         "workloads or seeds: "
                         f"{sorted(set(parent) ^ set(change))}")
    for name in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == name)
        yield name, seeds, {"parent": [parent[name, s] for s in seeds],
                            "change": [change[name, s] for s in seeds]}


def _metric(m: dict, values: dict) -> dict:
    """Each side's spread of metric `m`, the change in the median and the
    change's wins over its pairs, from each side's `values` in seed
    order."""
    sign = 1.0 if m["better"] == "higher" else -1.0
    base, new = spread(values["parent"]), spread(values["change"])
    return {"unit": m["unit"], "better": m["better"],
            "parent": base, "change": new,
            "change_pct": (100.0 * (new["median"] / base["median"] - 1.0)
                           if base["median"] else None),
            "wins": sum(sign * (c - p) > 0 for p, c in
                        zip(values["parent"], values["change"]))}


def _end_to_end(seeds: list, sides: dict, spec: dict) -> dict:
    """The end-to-end summary of one workload's untraced pairs."""
    metrics = {}
    for m in spec["end_to_end"]:
        row = metrics[m["name"]] = _metric(m, {
            side: [r["result"]["metrics"][m["name"]]["value"] for r in recs]
            for side, recs in sides.items()})
        sign = 1.0 if m["better"] == "higher" else -1.0
        base = row["parent"]
        gain = sign * (row["change"]["median"] - base["median"])
        beyond_iqr = gain > base["q3"] - base["q1"]
        row["gain_beyond_parent_iqr"] = beyond_iqr
        row["gain_rule_met"] = 10 * row["wins"] >= 9 * len(seeds) \
            and beyond_iqr
        row["worse_beyond_bound"] = gain < -m["bound"] * abs(base["median"])
    return {
        "seeds": seeds,
        "runs": len(seeds),
        "seconds": sorted({r["seconds"] for recs in sides.values()
                           for r in recs}),
        "failed": {side: sum(r["result"]["failed"] for r in recs)
                   for side, recs in sides.items()},
        "correct": {side: all(r["result"]["correct"] for r in recs)
                    for side, recs in sides.items()},
        "loadavg_1min": {side: spread([r["loadavg_before"][0]
                                       for r in recs])
                         for side, recs in sides.items()},
        "metrics": metrics,
    }


RATE = {"unit": "1/s", "better": "higher"}
TRAIN_OP = "train."


def _per_method(name: str, seeds: list, sides: dict) -> dict:
    """Each method's training rate over one workload's untraced pairs;
    raises ValueError for a method that some runs do not report."""
    methods = sorted({op[len(TRAIN_OP):] for recs in sides.values()
                      for r in recs for op in r.get("scaled_samples", {})
                      if op.startswith(TRAIN_OP)})
    metrics = {}
    for method in methods:
        op = TRAIN_OP + method
        missing = [side for side, recs in sides.items()
                   if any(op not in r.get("scaled_samples", {})
                          for r in recs)]
        if missing:
            raise ValueError(f"training rate {op} of {name} is missing "
                             f"from runs of the {', '.join(missing)} side")
        metrics[f"train_sps.{method}"] = _metric(RATE, {
            side: [median(r["scaled_samples"][op]) for r in recs]
            for side, recs in sides.items()})
    return {"seeds": seeds, "runs": len(seeds), "metrics": metrics}


PROBE = {"name": "speed_probe_median_ms", "unit": "ms", "better": "lower"}


def _measured(name: str, seeds: list, sides: dict, spec: dict) -> dict:
    """The unscaled end-to-end figures and the speed probe's run medians
    of one workload's untraced pairs; raises ValueError for a run that
    reports either not at all."""
    for side, recs in sides.items():
        if any("measured_end_to_end" not in r or "speed_probe" not in r
               for r in recs):
            raise ValueError(f"runs of {name} on the {side} side have no "
                             "unscaled figures or speed probe")
    metrics = {m["name"]: _metric(m, {
        side: [r["measured_end_to_end"][m["name"]] for r in recs]
        for side, recs in sides.items()}) for m in spec["end_to_end"]}
    metrics[PROBE["name"]] = _metric(PROBE, {
        side: [r["speed_probe"]["median_ms"] for r in recs]
        for side, recs in sides.items()})
    return {"seeds": seeds, "runs": len(seeds), "metrics": metrics}


def _per_layer(name: str, seeds: list, sides: dict, spec: dict) -> dict:
    """The per-layer summary of one workload's traced pairs; raises
    ValueError for a metric that only one side's runs all report."""
    metrics = {}
    for m in spec["per_layer"]:
        values = {}
        for side, recs in sides.items():
            got = [r["result"]["metrics"].get(m["name"]) for r in recs]
            if None not in got:
                values[side] = [g["value"] for g in got]
        if len(values) == 1:
            raise ValueError(f"per-layer metric {m['name']} of {name} is "
                             f"reported by the {', '.join(values)} side only")
        if values and any(values["parent"] + values["change"]):
            metrics[m["name"]] = _metric(m, values)
    return {"seeds": seeds, "runs": len(seeds),
            "correct": {side: all(r["result"]["correct"] for r in recs)
                        for side, recs in sides.items()},
            "metrics": metrics}


def compare(parent: dict, change: dict, spec: dict,
            parent_traced: dict | None = None,
            change_traced: dict | None = None) -> dict:
    """The summary of paired runs, with a `measured` part, a `per_method`
    part when a workload trains methods, and a `per_layer` part when there
    are traced runs; raises ValueError when the two sides do not pair up,
    the runs report more than one environment, a run has no unscaled
    figures, or only one side reports a per-layer metric or a method's
    rate."""
    if not parent:
        raise ValueError("no *-trace0.json results to compare")
    traced = (parent_traced or {}, change_traced or {})
    pairs = list(_pairs(parent, change, "untraced"))
    summary = {
        "environment": _environment(parent, change, *traced),
        "workloads": {name: _end_to_end(seeds, sides, spec)
                      for name, seeds, sides in pairs},
        "measured": {name: _measured(name, seeds, sides, spec)
                     for name, seeds, sides in pairs}}
    methods = {name: _per_method(name, seeds, sides)
               for name, seeds, sides in pairs}
    methods = {name: m for name, m in methods.items() if m["metrics"]}
    if methods:
        summary["per_method"] = methods
    if any(traced):
        summary["per_layer"] = {
            name: _per_layer(name, seeds, sides, spec)
            for name, seeds, sides in _pairs(*traced, "traced")}
    return summary


def _num(value: float) -> str:
    return f"{value:.4g}"


HEADER = ("| workload (pairs, seeds) | metric | parent median [q1, q3] "
          "| change median [q1, q3] | change | wins |")


def _rows(workloads: dict, flagged: bool) -> list[str]:
    lines = []
    for name, w in workloads.items():
        label = (f"`{name}` ({w['runs']}, {w['seeds'][0]}-{w['seeds'][-1]})"
                 if w["runs"] > 1 else f"`{name}` (1, {w['seeds'][0]})")
        for metric, m in w["metrics"].items():
            cells = [f"{_num(s['median'])} [{_num(s['q1'])}, {_num(s['q3'])}]"
                     for s in (m["parent"], m["change"])]
            pct = ("n/a" if m["change_pct"] is None
                   else f"{m['change_pct']:+.1f}%")
            line = (f"| {label} | `{metric}` | {cells[0]} | {cells[1]} "
                    f"| {pct} | {m['wins']}/{w['runs']} |")
            if flagged:
                line += " " + ", ".join(
                    flag.replace("_", " ") for flag in
                    ("gain_rule_met", "worse_beyond_bound") if m[flag]) + " |"
            lines.append(line)
            label = ""
    return lines


def table(summary: dict) -> str:
    """The summary as the markdown tables CHANGES.md quotes: end-to-end,
    then unscaled, then per-method when a workload trains methods, then
    per-layer when there are traced runs."""
    lines = [HEADER + " flags |", "|---|---|---|---|---|---|---|",
             *_rows(summary["workloads"], True),
             "\nUnscaled end-to-end metrics and the speed probe's run "
             "medians, from the untraced runs:\n", HEADER,
             "|---|---|---|---|---|---|", *_rows(summary["measured"], False)]
    if "per_method" in summary:
        lines += ["\nEach method's training rate, from the untraced "
                  "runs:\n", HEADER, "|---|---|---|---|---|---|",
                  *_rows(summary["per_method"], False)]
    if "per_layer" in summary:
        lines += ["\nPer-layer metrics, from the traced runs:\n", HEADER,
                  "|---|---|---|---|---|---|",
                  *_rows(summary["per_layer"], False)]
    if "tier1_s" in summary:
        lines.append("\nTier-1 wall time: parent {parent:.0f} s, change "
                     "{change:.0f} s".format(**summary["tier1_s"]))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="parent's results dir")
    parser.add_argument("change", type=Path, help="change's results dir")
    parser.add_argument("out", type=Path, help="summary JSON to write")
    parser.add_argument("--tier1-s", nargs=2, type=float,
                        metavar=("PARENT", "CHANGE"),
                        help="each side's Tier-1 wall time in seconds")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        summary = compare(load_runs(args.parent), load_runs(args.change),
                          spec, load_runs(args.parent, trace=1),
                          load_runs(args.change, trace=1))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.tier1_s:
        summary["tier1_s"] = dict(zip(("parent", "change"), args.tier1_s))
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(table(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
