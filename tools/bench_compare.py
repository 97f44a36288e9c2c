"""Summarize paired benchmark runs of a parent and a change into one file.

    python3 tools/bench_compare.py PARENT_RESULTS CHANGE_RESULTS OUT.json \
        [--tier1-s PARENT_SECONDS CHANGE_SECONDS]

PARENT_RESULTS and CHANGE_RESULTS are the `.perfbench/results` directories
of two checkouts that ran `perfbench/run.py --trace 0` on the same
workloads and seeds. A run of the parent and a run of the change with the
same workload and seed make a pair. For every end-to-end metric that
BENCHMARK.json declares, OUT.json gets each side's median and quartiles,
the change in the median, and the number of pairs the change won, with
two flags:

- `worse_beyond_bound`: the change's median is worse than the parent's by
  more than the metric's `bound` in BENCHMARK.json (a fraction of the
  parent's median);
- `gain_rule_met`: the change won at least 9 of every 10 pairs, and its
  median is better than the parent's by more than the distance between
  the parent's quartiles.

Beside them it keeps the seeds, the run count, each side's failed
operations and load average, the environment the runs report (BLAS and
its threads, numpy, the CPU count) and, when `--tier1-s` gives them, each
side's Tier-1 wall time in seconds. The script only reads results; it
gates nothing.

It prints the same numbers as a markdown table, one row per workload and
metric. The same inputs give the same bytes in both outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def load_runs(results: Path) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> the record of each untraced run in `results`."""
    runs = {}
    for path in sorted(results.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs[record["workload"], record["seed"]] = record
    return runs


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method, so one run is its own
    quartiles)."""
    q1, mid, q3 = (quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": mid, "q1": q1, "q3": q3}


def compare(parent: dict, change: dict, spec: dict) -> dict:
    """The summary of paired runs; raises ValueError when the two sides do
    not pair up or ran in different environments."""
    if sorted(parent) != sorted(change):
        raise ValueError("the two sides ran different workloads or seeds: "
                         f"{sorted(set(parent) ^ set(change))}")
    if not parent:
        raise ValueError("no *-trace0.json results to compare")
    envs = {json.dumps(r["environment"], sort_keys=True)
            for r in list(parent.values()) + list(change.values())}
    if len(envs) != 1:
        raise ValueError(f"runs from {len(envs)} environments: "
                         + "; ".join(sorted(envs)))
    workloads = {}
    for name in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == name)
        sides = {"parent": [parent[name, s] for s in seeds],
                 "change": [change[name, s] for s in seeds]}
        metrics = {}
        for m in spec["end_to_end"]:
            values = {side: [r["result"]["metrics"][m["name"]]["value"]
                             for r in recs] for side, recs in sides.items()}
            sign = 1.0 if m["better"] == "higher" else -1.0
            base, new = spread(values["parent"]), spread(values["change"])
            gain = sign * (new["median"] - base["median"])
            wins = sum(sign * (c - p) > 0 for p, c in
                       zip(values["parent"], values["change"]))
            beyond_iqr = gain > base["q3"] - base["q1"]
            metrics[m["name"]] = {
                "unit": m["unit"], "better": m["better"],
                "parent": base, "change": new,
                "change_pct": (100.0 * (new["median"] / base["median"] - 1.0)
                               if base["median"] else None),
                "wins": wins,
                "gain_beyond_parent_iqr": beyond_iqr,
                "gain_rule_met": 10 * wins >= 9 * len(seeds) and beyond_iqr,
                "worse_beyond_bound": gain < -m["bound"] * abs(base["median"]),
            }
        workloads[name] = {
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
    return {"environment": json.loads(envs.pop()), "workloads": workloads}


def _num(value: float) -> str:
    return f"{value:.4g}"


def table(summary: dict) -> str:
    """The summary as the markdown table CHANGES.md quotes."""
    lines = ["| workload (pairs, seeds) | metric | parent median [q1, q3] "
             "| change median [q1, q3] | change | wins | flags |",
             "|---|---|---|---|---|---|---|"]
    for name, w in summary["workloads"].items():
        label = (f"`{name}` ({w['runs']}, {w['seeds'][0]}-{w['seeds'][-1]})"
                 if w["runs"] > 1 else f"`{name}` (1, {w['seeds'][0]})")
        for metric, m in w["metrics"].items():
            cells = [f"{_num(s['median'])} [{_num(s['q1'])}, {_num(s['q3'])}]"
                     for s in (m["parent"], m["change"])]
            pct = ("n/a" if m["change_pct"] is None
                   else f"{m['change_pct']:+.1f}%")
            flags = ", ".join(flag.replace("_", " ") for flag in
                              ("gain_rule_met", "worse_beyond_bound")
                              if m[flag])
            lines.append(f"| {label} | `{metric}` | {cells[0]} | {cells[1]} "
                         f"| {pct} | {m['wins']}/{w['runs']} | {flags} |")
            label = ""
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
                          spec)
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
