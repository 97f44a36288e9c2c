"""Command-line entry point for reproducible experiments.

Subcommands: `generate` (synthetic datasets), `train`, `evaluate`,
`compare` (method table over seeds), and `mask-curve` (pruning-curve CSV
export). Every command resolves its configuration as built-in defaults,
overridden by an optional `key=value` config file, overridden by explicit
flags, and writes its outputs under `<out>/run-<hash>/` where the hash is
taken over the resolved configuration; an existing non-empty run directory
is refused unless `--force` is given. Given identical flags, seeds, and
input files, every command reproduces its outputs byte for byte.

Exit codes: 0 success, 2 usage/parameter errors, 3 data errors, 4 numeric
errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .data import (CLASSIFICATION, Dataset, SyntheticSpec, generate,
                   load_csv, split, standardize, train_test, write_csv)
from .errors import (DataError, DnspnError, MetricError, NumericError,
                     ParameterError, ShapeError, UsageError)
from .metrics import EvalReport
from .model_io import load_model, save_model
from .numeric import RngState, require_finite
from .pruning import LayerStats, PruneConfig, mask_curve
from .training import (METHODS, TrainConfig, backbone_sparsity,
                       evaluate_model, fit, method_model)

DEFAULTS = {
    "lr": 1e-3,
    "batch": 128,
    "dropout": 0.5,
    "epochs": 20,
    "seed": 0,
    "trees": 10,
    "depth": 4,
    "embed": 8,
    "alpha": 1e-4,
    "beta": 1.0,
    "gamma": 1.0,
    "r": 1.0,
    "epsilon": 1e-12,
    "surgery_eta": 0.1,
    "prune": "dsp",
    "holdout": 0.2,
    "kind": "linear",
    "k": 50,
    "sigma": 1.0,
    "ntrain": 10000,
    "ntest": 2000,
}

# config-file key -> flag name ("section.key" form)
_FILE_KEYS = {
    "train.lr": "lr", "train.batch": "batch", "train.dropout": "dropout",
    "train.epochs": "epochs", "train.seed": "seed",
    "train.holdout": "holdout",
    "model.trees": "trees", "model.depth": "depth", "model.embed": "embed",
    "prune.mode": "prune", "prune.alpha": "alpha", "prune.beta": "beta",
    "prune.gamma": "gamma", "prune.r": "r", "prune.epsilon": "epsilon",
    "prune.surgery_eta": "surgery_eta",
    "gen.kind": "kind", "gen.k": "k", "gen.sigma": "sigma",
    "gen.ntrain": "ntrain", "gen.ntest": "ntest",
}

_FLOAT_KEYS = {"lr", "dropout", "alpha", "beta", "gamma", "r", "epsilon",
               "surgery_eta", "holdout", "sigma"}
_INT_KEYS = {"batch", "epochs", "seed", "trees", "depth", "embed", "k",
             "ntrain", "ntest"}


def _parse_config_file(path: Path) -> dict:
    if not path.exists():
        raise DataError(f"config file not found: {path}")
    out = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(
                f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FILE_KEYS:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        out[_FILE_KEYS[key]] = value
    return out


def _coerce(key: str, value):
    if value is None:
        return None
    if key in _FLOAT_KEYS:
        return float(value)
    if key in _INT_KEYS:
        return int(value)
    return str(value)


def resolve_config(args: argparse.Namespace) -> tuple[dict, set]:
    """defaults < config file < explicit flags.

    Also reports which keys were explicitly set (by file or flag), so
    commands can distinguish a deliberate choice from a default.
    """
    merged = dict(DEFAULTS)
    explicit = set()
    if getattr(args, "config", None):
        for key, value in _parse_config_file(Path(args.config)).items():
            merged[key] = _coerce(key, value)
            explicit.add(key)
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = _coerce(key, flag)
            explicit.add(key)
    return merged, explicit


def config_hash(command: str, cfg: dict, extra: dict | None = None) -> str:
    payload = {"command": command, **cfg, **(extra or {})}
    canon = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def run_dir(out_root: str, command: str, cfg: dict, force: bool,
            extra: dict | None = None) -> Path:
    path = Path(out_root) / f"run-{config_hash(command, cfg, extra)}"
    if path.exists() and any(path.iterdir()) and not force:
        raise UsageError(
            f"run directory {path} already has outputs; pass --force to "
            "overwrite")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _train_config(cfg: dict, prune_mode: str) -> TrainConfig:
    return TrainConfig(
        learning_rate=cfg["lr"], batch_size=cfg["batch"],
        dropout=cfg["dropout"], epochs=cfg["epochs"], seed=cfg["seed"],
        prune=PruneConfig(alpha=cfg["alpha"], beta=cfg["beta"],
                          gamma=cfg["gamma"], r=cfg["r"],
                          epsilon=cfg["epsilon"],
                          surgery_eta=cfg["surgery_eta"], mode=prune_mode))


def _load_train_eval(cfg: dict, args) -> tuple[Dataset, Dataset]:
    task_kind = ("classification" if getattr(args, "task", "class") == "class"
                 else "regression")
    train_ds = load_csv(args.data, args.label_col, task_kind)
    if getattr(args, "eval_data", None):
        eval_ds = load_csv(args.eval_data, args.label_col, task_kind)
        if (train_ds.task.kind == CLASSIFICATION
                and eval_ds.task.labels != train_ds.task.labels):
            raise DataError("train and eval label sets differ")
    else:
        train_ds, eval_ds = split(train_ds, 1.0 - cfg["holdout"],
                                  RngState(cfg["seed"]).child(1))
    return train_ds, eval_ds


def run_method_cell(method: str, train_ds: Dataset, eval_ds: Dataset,
                    cfg: dict, seed: int,
                    prune_mode: str | None = None) -> dict:
    """Standardize, build, fit, and evaluate one (method, seed) cell.

    The method fixes both the architecture and its canonical mask mode;
    `prune_mode` overrides the latter when given.
    """
    train_std, eval_std, scaler = standardize(train_ds, eval_ds)
    model, method_mode = method_model(
        method, train_std.d, train_std.task, RngState(seed),
        trees=cfg["trees"], depth=cfg["depth"], embed_dim=cfg["embed"])
    model.scaler = scaler
    tcfg = _train_config({**cfg, "seed": seed}, prune_mode or method_mode)
    history = fit(model, train_std, eval_std, tcfg)
    report = evaluate_model(model, eval_std)
    return {"model": model, "history": history, "report": report,
            "sparsity": backbone_sparsity(model),
            "prune_mode": tcfg.prune.mode}


def _report_doc(report: EvalReport, cfg: dict, seed: int,
                sparsity: float) -> dict:
    doc = report.to_dict()
    doc["sparsity"] = sparsity
    doc["seed"] = seed
    doc["config"] = {k: cfg[k] for k in sorted(cfg)}
    return doc


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    cfg, _ = resolve_config(args)
    spec = SyntheticSpec(kind=cfg["kind"], k=cfg["k"], sigma=cfg["sigma"],
                         n_train=cfg["ntrain"], n_test=cfg["ntest"],
                         seed=cfg["seed"])
    out = run_dir(args.out, "generate", cfg, args.force)
    ds = generate(spec)
    written = ["train.csv"]
    if spec.n_test > 0:
        train_ds, test_ds = train_test(ds, spec.n_train)
        write_csv(out / "test.csv", test_ds)
        written.append("test.csv")
    else:
        train_ds = ds
    write_csv(out / "train.csv", train_ds)
    _write_json(out / "meta.json", ds.meta)
    written.append("meta.json")
    balance = float(np.mean(ds.y == 1))
    print(f"generated {spec.kind}-{spec.k}: n={ds.n} d={ds.d} "
          f"positive fraction={balance:.3f}")
    print(f"wrote {out}/" + ", ".join(written))
    return 0


def cmd_train(args) -> int:
    cfg, explicit = resolve_config(args)
    out = run_dir(args.out, "train", cfg,
                  args.force, {"data": str(args.data),
                               "method": args.method})
    train_ds, eval_ds = _load_train_eval(cfg, args)
    prune_mode = cfg["prune"] if "prune" in explicit else None
    cell = run_method_cell(args.method, train_ds, eval_ds, cfg, cfg["seed"],
                           prune_mode)
    save_model(cell["model"], out / "model.json")
    cell["history"].to_csv(out / "history.csv")
    doc = _report_doc(cell["report"], {**cfg, "prune": cell["prune_mode"]},
                      cfg["seed"], cell["sparsity"])
    doc["method"] = args.method
    _write_json(out / "report.json", doc)
    metric = (f"accuracy={doc['accuracy']:.4f}"
              if doc["accuracy"] is not None else f"mse={doc['mse']:.6f}")
    print(f"trained {args.method} ({cfg['epochs']} epochs): {metric} "
          f"sparsity={doc['sparsity']:.4f}")
    print(f"wrote {out}/model.json, history.csv, report.json")
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    task_kind = model.task.kind
    ds = load_csv(args.data, args.label_col, task_kind)
    if task_kind == CLASSIFICATION and model.task.labels is not None:
        if not set(ds.task.labels) <= set(model.task.labels):
            raise DataError(
                f"dataset labels {ds.task.labels} not covered by model "
                f"labels {model.task.labels}")
        remap = {i: model.task.labels.index(name)
                 for i, name in enumerate(ds.task.labels)}
        ds = Dataset(ds.X, np.asarray([remap[int(v)] for v in ds.y]),
                     model.task)
    if model.scaler is not None:
        ds = Dataset(model.scaler.transform(ds.X), ds.y, ds.task)
    report = evaluate_model(model, ds)
    doc = report.to_dict()
    doc["sparsity"] = backbone_sparsity(model)
    doc["model"] = str(args.model)
    out = run_dir(args.out, "evaluate", {}, args.force,
                  {"model": str(args.model), "data": str(args.data)})
    _write_json(out / "report.json", doc)
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    cfg, _ = resolve_config(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if len(methods) < 2:
        raise UsageError("compare needs at least 2 methods")
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}; choose from {METHODS}")
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        raise UsageError("compare needs at least one seed")
    out = run_dir(args.out, "compare", cfg,
                  args.force, {"data": str(args.data), "methods": methods,
                               "seeds": seeds})
    train_ds, eval_ds = _load_train_eval(cfg, args)
    if train_ds.task.kind != CLASSIFICATION:
        raise UsageError("compare is defined for classification tasks")

    rows = []
    for method in methods:
        accs = []
        for seed in seeds:
            cell = run_method_cell(method, train_ds, eval_ds, cfg, seed)
            accs.append(cell["report"].accuracy)
        accs = np.asarray(accs)
        rows.append((method, float(accs.mean()), float(accs.std())))
    best = max(rows, key=lambda row: row[1])[0]
    with open(out / "comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "mean_accuracy", "stddev_accuracy",
                         "winner"])
        for method, mean, std in rows:
            writer.writerow([method, repr(mean), repr(std),
                             "yes" if method == best else "no"])
    print(f"{'method':<10} accuracy (mean +- population stddev over "
          f"{len(seeds)} seeds)")
    for method, mean, std in rows:
        mark = "  <- winner" if method == best else ""
        print(f"{method:<10} {mean:.4f} +- {std:.4f}{mark}")
    print(f"wrote {out}/comparison.csv")
    return 0


def cmd_mask_curve(args) -> int:
    cfg, _ = resolve_config(args)
    if args.samples < 2:
        raise UsageError("need at least 2 curve samples")
    require_finite(mu=args.mu, std=args.std, wmin=args.wmin, wmax=args.wmax)
    if not args.wmin < args.wmax:
        raise UsageError("empty weight range: wmin must be < wmax")
    stats = LayerStats(mu=args.mu, std=args.std)
    out = run_dir(args.out, "mask-curve", cfg, args.force,
                  {"mu": args.mu, "std": args.std, "wmin": args.wmin,
                   "wmax": args.wmax, "samples": args.samples})
    w = np.linspace(args.wmin, args.wmax, args.samples)
    for mode in ("dsp", "surgery"):
        pcfg = PruneConfig(alpha=cfg["alpha"], beta=cfg["beta"],
                           gamma=cfg["gamma"], r=cfg["r"],
                           epsilon=cfg["epsilon"],
                           surgery_eta=cfg["surgery_eta"], mode=mode)
        table = mask_curve(pcfg, stats, w)
        with open(out / f"curve_{mode}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["w", "mask", "effective"])
            for row in table:
                writer.writerow([repr(float(v)) for v in row])
    print(f"wrote {out}/curve_dsp.csv, curve_surgery.csv")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", default="runs", help="output root directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing run directory")
    p.add_argument("--seed", type=int)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--eval-data", help="held-out CSV (default: holdout split)")
    p.add_argument("--label-col", default="label",
                   help="label column name or index")
    p.add_argument("--task", choices=["class", "regress"], default="class")
    p.add_argument("--prune", choices=["none", "dsp", "surgery"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--holdout", type=float)
    p.add_argument("--trees", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--embed", type=int)
    for name in ("alpha", "beta", "gamma", "r", "epsilon", "surgery_eta"):
        p.add_argument(f"--{name}", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnspn",
        description="Forest-headed networks with dynamic soft pruning")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset")
    g.add_argument("--kind", choices=["linear", "quadratic"])
    g.add_argument("--k", type=int)
    g.add_argument("--sigma", type=float)
    g.add_argument("--ntrain", type=int)
    g.add_argument("--ntest", type=int)
    _add_common(g)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train one model")
    _add_train_flags(t)
    t.add_argument("--method", choices=list(METHODS), default="dnspn")
    _add_common(t)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate", help="evaluate a saved model")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--label-col", default="label")
    e.add_argument("--out", default="runs")
    e.add_argument("--force", action="store_true",
                   help="overwrite an existing run directory")
    e.set_defaults(func=cmd_evaluate)

    c = sub.add_parser("compare", help="train several methods over seeds")
    _add_train_flags(c)
    c.add_argument("--methods", default="fcnn,dndn,dnspn",
                   help="comma-separated subset of " + ",".join(METHODS))
    c.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    _add_common(c)
    c.set_defaults(func=cmd_compare)

    m = sub.add_parser("mask-curve", help="export pruning curves as CSV")
    m.add_argument("--mu", type=float, default=1.0)
    m.add_argument("--std", type=float, default=1.0)
    m.add_argument("--wmin", type=float, default=-4.0)
    m.add_argument("--wmax", type=float, default=4.0)
    m.add_argument("--samples", type=int, default=401)
    for name in ("alpha", "beta", "gamma", "r", "epsilon", "surgery_eta"):
        m.add_argument(f"--{name}", type=float)
    _add_common(m)
    m.set_defaults(func=cmd_mask_curve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParameterError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ShapeError, MetricError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except DnspnError as exc:   # any future category defaults to data-ish
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
