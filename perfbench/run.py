"""Benchmark of dnspn: training throughput, the CLI file path and predict
latency, with a traced run for per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
`--workload all` runs every workload in turn, each in its own process.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
End-to-end times are put at a reference machine speed from a probe taken
through the run (`speed.py`); the times as measured are printed too.
Results and traces are also written under `.perfbench/` in the checkout.
"""

import os

# One BLAS thread, set before numpy loads: the machine has 2 cores, and a
# second BLAS thread competes with the harness's own Python for them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def end_to_end(run, np, scaled: bool = True) -> dict:
    """The end-to-end metrics: medians over the run's samples, each at the
    reference machine speed (or as measured, when not `scaled`)."""
    def v(op):
        return run.values(op, scaled)
    b1 = v("predict_b1")
    return {
        "setup_s": median(v("setup")),
        "generate_s": median(v("generate")),
        "train_sps": median(v("train")),
        "evaluate_s": median(v("evaluate")),
        "predict_b1_ms": median(b1) * 1e3,
        "predict_b128_ms": median(v("predict_b128")) * 1e3,
        "predict_b2000_ms": median(v("predict_b2000")) * 1e3,
        "predict_b1_p90_ms": float(np.quantile(b1, 0.9)) * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# direct children of a train step and of a predict call, by span name
STEP_CHILDREN = {
    "training.adam_update": "training.adam_update_ms",
    "training.loss": "training.loss_ms",
    "network.forward": "network.forward_ms",
    "network.backward": "network.backward_ms",
    "forest.route": "forest.route_ms",
    "forest.head_predict": "forest.head_predict_ms",
    "forest.backward": "forest.backward_ms",
    "pruning.apply_mask": "pruning.apply_mask_ms",
    "pruning.mask_grad": "pruning.mask_grad_ms",
    "pruning.refresh": "pruning.refresh_ms",
    "ensemble.fuse": "ensemble.fuse_ms",
}
PREDICT_CHILDREN = {k: v for k, v in STEP_CHILDREN.items()
                    if k in ("network.forward", "forest.route",
                             "forest.head_predict", "pruning.apply_mask",
                             "ensemble.fuse")}
MASK_SPANS = ("pruning.apply_mask", "pruning.mask_grad", "pruning.refresh")
ROUND_SECONDS = {
    "data.generate": "data.generate_s",
    "data.standardize": "data.standardize_s",
    "data.write_csv": "data.write_csv_s",
    "data.load_csv": "data.load_csv_s",
    "model_io.save": "model_io.save_s",
    "model_io.load": "model_io.load_s",
}


def per_layer(summary, rounds: int, methods) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and any place where children's
    times fail to add up to their parent.

    Training layers are per train step of each method's `fit`, serving
    layers per `predict` call at each batch size, and data, model I/O,
    metrics and CLI layers per round. A layer not used reads 0.
    """
    NAME, PARENT, SCOPE = spans.NAME, spans.PARENT, spans.SCOPE
    sp = summary.spans
    out, problems = {}, []

    def parent_is(name, scope=None):
        def select(i, s):
            p = s[PARENT]
            return p >= 0 and sp[p][NAME] == name and \
                (scope is None or sp[p][SCOPE] == scope)
        return select

    def add_children(scope, parent, children, per):
        dur, own, _ = summary.totals(
            lambda i, s: s[NAME] == parent and s[SCOPE] == scope)
        kid_dur, _, kid_cnt = summary.totals(parent_is(parent, scope))
        per = max(per, 1)
        stem = parent.split(".")[1]
        out[f"{scope}.training.{stem}_ms"] = dur[parent] / per * 1e3
        out[f"{scope}.training.{stem}_self_ms"] = own[parent] / per * 1e3
        for name, metric in children.items():
            out[f"{scope}.{metric}"] = kid_dur.get(name, 0.0) / per * 1e3
        unlisted = set(kid_dur) - set(children)
        if unlisted:
            problems.append(f"{scope}: unlisted children {sorted(unlisted)}")
        parts = own[parent] + sum(kid_dur.values())
        if abs(parts - dur[parent]) > 1e-9 * max(1.0, dur[parent]):
            problems.append(f"{scope}: children and self time "
                            f"{parts!r} != parent {dur[parent]!r}")
        return kid_cnt

    for method in methods:
        def in_method(i, s):
            return s[SCOPE] == method
        steps = summary.calls("training.train_step", in_method)
        fits = summary.calls("training.fit", in_method)
        kid_cnt = add_children(method, "training.train_step", STEP_CHILDREN,
                               steps)
        evals, _, _ = summary.totals(parent_is("training.fit", method))
        out[f"{method}.training.eval_predict_ms"] = \
            evals.get("training.predict", 0.0) / max(steps, 1) * 1e3
        out[f"{method}.training.steps"] = steps / max(fits, 1)
        out[f"{method}.pruning.mask_entries"] = \
            sum(kid_cnt.get(n, 0) for n in MASK_SPANS) / max(steps, 1)
    for batch in (1, 128, 2000):
        scope = f"b{batch}"
        calls = summary.calls("training.predict",
                              lambda i, s: s[SCOPE] == scope)
        add_children(scope, "training.predict", PREDICT_CHILDREN, calls)

    dur, own, cnt = summary.totals(lambda i, s: True)
    for name, metric in ROUND_SECONDS.items():
        out[metric] = dur.get(name, 0.0) / rounds
    out["data.csv_bytes"] = \
        (cnt.get("data.write_csv", 0) + cnt.get("data.load_csv", 0)) / rounds
    out["model_io.model_bytes"] = cnt.get("model_io.save", 0) / rounds
    out["metrics.auc_ms"] = dur.get("metrics.auc", 0.0) / rounds * 1e3
    out["cli.self_s"] = sum(v for k, v in own.items()
                            if k.startswith("cli.")) / rounds
    if summary.nesting_error() > 1e-9:
        problems.append("a span's children outlast it")
    return out, problems


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# glibc mallopt parameters
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4


def pin_allocator() -> str:
    """Keep freed memory in the heap: no trimming, no mmap.

    With glibc's defaults, whether a large temporary is faulted in afresh
    depends on where earlier allocations left the top of the heap. After
    the fits of a round, a 2000-row `predict` on `paper-train` took either
    about 25 ms with no page faults or about 35 ms with 4-5k of them, and
    kept to that mode for the whole round, so a run's median followed how
    many rounds drew which. Pinned, the heap grows to the run's high-water mark and stays,
    as in a long-lived process, and every round sees the same allocator.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default (no mallopt)"
    ok = mallopt(M_MMAP_MAX, 0) == 1 and \
        mallopt(M_TRIM_THRESHOLD, 2**31 - 1) == 1
    return "glibc, no trim, no mmap" if ok else "default (mallopt refused)"


def declared(kind: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def run_one(args) -> int:
    if not (ROOT / "src" / "dnspn" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    allocator = pin_allocator()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import dnspn.cli
    import dnspn.data
    import dnspn.model_io
    import dnspn.network
    import dnspn.training
    import workloads

    work = OUT / "work" / str(os.getpid())
    table = workloads.workloads(work)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(table)} or all", file=sys.stderr)
        return 2
    tracer = spans.Tracer() if args.trace else None
    run = workloads.Run(args.seed, tracer)
    load_before = os.getloadavg()
    work.mkdir(parents=True, exist_ok=True)
    try:
        # the probes would fall inside the spans, so a traced run has none
        # and its times are as measured
        if tracer:
            tracer.install({m.__name__: m for m in (
                dnspn.training, dnspn.network, dnspn.data, dnspn.model_io,
                dnspn.cli)})
        else:
            run.speed.start()
        table[args.workload].run(run, args.seconds)
    finally:
        run.speed.stop()
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    load_after = os.getloadavg()
    speed = run.speed.summary()

    values = end_to_end(run, np)
    measured = end_to_end(run, np, scaled=False)
    kind = "end_to_end"
    if tracer:
        layer, problems = per_layer(spans.Summary(tracer.spans), run.rounds,
                                    dnspn.training.METHODS)
        run.problems += problems
        traced_e2e, values, kind = values, layer, "per_layer"
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared(kind)}
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}

    env = environment(np)
    env["allocator"] = allocator
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "rounds": run.rounds, "environment": env,
              "loadavg_before": load_before, "loadavg_after": load_after,
              "speed_probe": speed, "measured_end_to_end": measured,
              "problems": run.problems, "failures": run.failures,
              "notes": run.notes,
              "samples": {op: run.values(op, False) for op in run.samples},
              "scaled_samples": {op: run.values(op) for op in run.samples},
              "result": result}
    if tracer:
        record["traced_end_to_end"] = traced_e2e
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / "results" / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.json")

    print(f"{args.workload} seed {args.seed}: {run.rounds} rounds, "
          f"{run.attempted} operations attempted, {run.failed} failed, "
          f"loadavg {load_before[0]:.2f} -> {load_after[0]:.2f}, "
          f"speed probe median {speed['median_ms']:.3f} ms "
          f"(reference {speed['reference_ms']} ms, "
          f"quartiles {speed['q1_ms']:.3f}-{speed['q3_ms']:.3f})")
    for problem in run.problems:
        print(f"  CHECK FAILED {problem}")
    for failure in run.failures:
        print(f"  OPERATION FAILED {failure}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for key in sorted(k for k in run.samples if k.startswith("train.")):
        print(f"  {'train_sps.' + key[6:]:<36} "
              f"{median(run.values(key)):>14.6g} 1/s")
    for name, value in measured.items():
        print(f"  measured {name:<27} {value:>14.6g}")
    if tracer:
        for name, value in traced_e2e.items():
            print(f"  traced {name:<29} {value:>14.6g}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a child process of its own."""
    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        part = json.loads(lines[-1])
        total["correct"] &= part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
