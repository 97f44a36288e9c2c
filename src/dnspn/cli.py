"""Command-line entry point for reproducible experiments.

Subcommands: `generate` (synthetic datasets), `train`, `evaluate`,
`compare` (method table over seeds), and `mask-curve` (pruning-curve CSV
export). Every command resolves its configuration as the defaults in
:data:`OPTIONS`, overridden by an optional `key=value` config file,
overridden by explicit flags, and writes its outputs under
`<out>/run-<hash>/` where the hash is taken over the resolved
configuration; an existing non-empty run directory is refused unless
`--force` is given. Given identical flags, seeds, and input files, every
command reproduces its outputs byte for byte.

Exit codes: 0 success, 1 a worker process that ended without its result
(as when a signal kills it), 2 usage/parameter errors, 3 data errors, 4
numeric errors.

`generate` writes its two CSVs, `train` and `compare` load `--data` and
`--eval-data`, `compare` fits its method x seed cells, and `train`
formats `model.json`'s floats (:func:`dnspn.model_io.write_json`) through
:func:`dnspn.numeric.run_calls`: on Linux, in forked workers, one for each
further CPU the process may run on, with the same bytes and the same
errors as in order on one CPU. Each command runs with numpy's bundled
OpenBLAS at one thread (:func:`dnspn.numeric.one_blas_thread`).

A classification file with fewer than 2 classes is refused as `--data` of
`train` and `compare` (exit 3), but `evaluate` scores a model on it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import re
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import (CLASSIFICATION, Dataset, SyntheticSpec, float_lines,
                   generate, load_csv, split, standardize, train_test,
                   write_csv)
from .errors import (DataError, DnspnError, MetricError, NumericError,
                     ParameterError, ShapeError, UsageError, reading)
from .forest import check_shape
from .model_io import load_model, save_model, write_json
from .numeric import RngState, one_blas_thread, require_finite, run_calls
from .pruning import (MODE_DSP, MODE_SURGERY, MODES, LayerStats, PruneConfig,
                      mask_curve)
from .training import (DEPTH, EMBED_DIM, METHOD_MODES, METHODS, TREES,
                       TrainConfig, backbone_sparsity, evaluate_model, fit,
                       method_model)


class Option(NamedTuple):
    key: str                  # "section.key" form in a config file
    type: type
    default: object
    choices: tuple | None = None


PRUNE_FLAGS = ("alpha", "beta", "gamma", "r", "epsilon", "surgery_eta")

# Every setting a flag or a config file can give, keyed by flag name. A
# default owned by a config class or by `training` is read from there.
OPTIONS = {
    "lr": Option("train.lr", float, TrainConfig.learning_rate),
    "batch": Option("train.batch", int, TrainConfig.batch_size),
    "dropout": Option("train.dropout", float, TrainConfig.dropout),
    "epochs": Option("train.epochs", int, TrainConfig.epochs),
    "seed": Option("train.seed", int, TrainConfig.seed),
    "holdout": Option("train.holdout", float, 0.2),
    "trees": Option("model.trees", int, TREES),
    "depth": Option("model.depth", int, DEPTH),
    "embed": Option("model.embed", int, EMBED_DIM),
    "prune": Option("prune.mode", str, MODE_DSP, MODES),
    **{name: Option(f"prune.{name}", float, getattr(PruneConfig, name))
       for name in PRUNE_FLAGS},
    "kind": Option("gen.kind", str, "linear", ("linear", "quadratic")),
    "k": Option("gen.k", int, 50),
    "sigma": Option("gen.sigma", float, SyntheticSpec.sigma),
    "ntrain": Option("gen.ntrain", int, SyntheticSpec.n_train),
    "ntest": Option("gen.ntest", int, SyntheticSpec.n_test),
}
_FILE_KEYS = {opt.key: name for name, opt in OPTIONS.items()}
# config fields whose flag has another name; an error names the flag
_FIELD_FLAGS = {"learning_rate": "lr", "batch_size": "batch",
                "embed_dim": "embed", "n_train": "ntrain", "n_test": "ntest"}

# Most points a mask-curve table may have (one CSV row a mode and point).
MAX_CURVE_SAMPLES = 10 ** 6

TRAIN_FLAGS = ("prune", "epochs", "lr", "batch", "dropout", "holdout",
               "trees", "depth", "embed", *PRUNE_FLAGS)


def _parse_config_file(path: Path) -> tuple[dict, dict]:
    """Typed settings from a `section.key=value` file, keyed by flag name,
    and where each was written ("path:line: key")."""
    if not path.exists():
        raise DataError(f"config file not found: {path}")
    with reading(path, "config file"):
        text = path.read_text()
    out, where = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(
                f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FILE_KEYS:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        name = _FILE_KEYS[key]
        if name in where:
            raise ParameterError(f"{path}:{lineno}: {key} was already set "
                                 f"at {where[name].rsplit(':', 1)[0]}")
        try:
            out[name] = OPTIONS[name].type(value)
        except ValueError:
            raise ParameterError(f"{path}:{lineno}: {key} must be "
                                 f"{OPTIONS[name].type.__name__}, got "
                                 f"{value!r}") from None
        where[name] = f"{path}:{lineno}: {key}"
    return out, where


def resolve_config(args: argparse.Namespace) -> tuple[dict, set]:
    """defaults < config file < explicit flags.

    Also reports which keys were explicitly set (by file or flag), so
    commands can distinguish a deliberate choice from a default. Where the
    file's settings were written is kept as `args.from_file`, so an error
    can name the line the user wrote.
    """
    merged = {name: opt.default for name, opt in OPTIONS.items()}
    explicit = set()
    args.from_file = {}
    if getattr(args, "config", None):
        from_file, args.from_file = _parse_config_file(Path(args.config))
        merged.update(from_file)
        explicit.update(from_file)
    for name in OPTIONS:
        flag = getattr(args, name, None)
        if flag is not None:
            merged[name] = flag
            explicit.add(name)
            args.from_file.pop(name, None)
    return merged, explicit


def config_hash(command: str, cfg: dict, extra: dict | None = None) -> str:
    payload = {"command": command, **cfg, **(extra or {})}
    canon = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def run_dir(out_root: str, command: str, cfg: dict, force: bool,
            extra: dict | None = None) -> Path:
    """The run directory's path, refused if it already has outputs. Each
    command makes the directory only when it writes its first output."""
    path = Path(out_root) / f"run-{config_hash(command, cfg, extra)}"
    if path.exists() and any(path.iterdir()) and not force:
        raise UsageError(
            f"run directory {path} already has outputs; pass --force to "
            "overwrite")
    return path


def _prune_config(cfg: dict, mode: str) -> PruneConfig:
    return PruneConfig(**{name: cfg[name] for name in PRUNE_FLAGS}, mode=mode)


def _train_config(cfg: dict, explicit: set, method: str) -> TrainConfig:
    """A method's training settings; an explicit prune mode (flag or config
    file) overrides the method's own."""
    mode = cfg["prune"] if "prune" in explicit else METHOD_MODES[method]
    return TrainConfig(
        learning_rate=cfg["lr"], batch_size=cfg["batch"],
        dropout=cfg["dropout"], epochs=cfg["epochs"], seed=cfg["seed"],
        prune=_prune_config(cfg, mode))


def _check_forest_shape(cfg: dict, methods) -> None:
    if any(method != "fcnn" for method in methods):   # fcnn has no forest
        check_shape(cfg["trees"], cfg["depth"], cfg["embed"])


def _flag_error(exc: ParameterError, args) -> str:
    """The message of `exc`, with a leading setting named as the user gave
    it: by its config-file line and key, or by its flag."""
    field, sep, rest = str(exc).partition(" ")
    name = _FIELD_FLAGS.get(field, field)
    if name in getattr(args, "from_file", {}):
        return f"{args.from_file[name]}{sep}{rest}"
    return f"--{name}{sep}{rest}" if hasattr(args, name) else str(exc)


def _load_training(path, label_column, task_kind: str) -> Dataset:
    """`load_csv` of a file to train on, which a classifier cannot do with
    fewer than 2 classes."""
    ds = load_csv(path, label_column, task_kind)
    if ds.task.kind == CLASSIFICATION and ds.task.n_classes < 2:
        raise DataError(f"classification dataset {Path(path)} has fewer "
                        "than 2 classes")
    return ds


def _load_train_eval(cfg: dict, args) -> tuple[Dataset, Dataset]:
    task_kind = ("classification" if getattr(args, "task", "class") == "class"
                 else "regression")
    if not args.eval_data and not 0.0 < cfg["holdout"] < 1.0:
        raise ParameterError(
            f"holdout must be in (0, 1), got {cfg['holdout']}")
    loads = [functools.partial(_load_training, args.data, args.label_col,
                               task_kind)]
    if args.eval_data:
        loads.append(functools.partial(load_csv, args.eval_data,
                                       args.label_col, task_kind))
    train_ds, *loaded = run_calls(loads)
    if args.eval_data:
        (eval_ds,) = loaded
        if eval_ds.d != train_ds.d:
            raise DataError(f"{args.eval_data} has {eval_ds.d} features, "
                            f"{args.data} has {train_ds.d}")
        if (train_ds.task.kind == CLASSIFICATION
                and eval_ds.task.labels != train_ds.task.labels):
            raise DataError(f"{args.eval_data} has the labels "
                            f"{eval_ds.task.labels}, {args.data} has "
                            f"{train_ds.task.labels}")
    else:
        train_ds, eval_ds = split(train_ds, 1.0 - cfg["holdout"],
                                  RngState(cfg["seed"]).child(1))
    return train_ds, eval_ds


def run_method_cell(method: str, train_ds: Dataset, eval_ds: Dataset,
                    cfg: dict, tcfg: TrainConfig) -> dict:
    """Standardize, build, fit, and evaluate one (method, seed) cell; the
    seed and the mask mode come from `tcfg`."""
    train_std, eval_std, scaler = standardize(train_ds, eval_ds)
    model, _ = method_model(
        method, train_std.d, train_std.task, RngState(tcfg.seed),
        trees=cfg["trees"], depth=cfg["depth"], embed_dim=cfg["embed"])
    model.scaler = scaler
    history = fit(model, train_std, eval_std, tcfg)
    report = evaluate_model(model, eval_std)
    return {"model": model, "history": history, "report": report,
            "sparsity": backbone_sparsity(model)}


def _cell_accuracy(method: str, train_ds: Dataset, eval_ds: Dataset,
                   cfg: dict, tcfg: TrainConfig) -> float:
    """One `compare` cell's eval accuracy, all a worker sends back."""
    return run_method_cell(method, train_ds, eval_ds, cfg,
                           tcfg)["report"].accuracy


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
    out.mkdir(parents=True, exist_ok=True)
    written = ["train.csv"]
    writes = []
    if spec.n_test > 0:
        train_ds, test_ds = train_test(ds, spec.n_train)
        writes.append(functools.partial(write_csv, out / "test.csv", test_ds))
        written.append("test.csv")
    else:
        train_ds = ds
    writes.append(functools.partial(write_csv, out / "train.csv", train_ds))
    run_calls(writes)
    write_json(out / "meta.json", ds.meta)
    written.append("meta.json")
    balance = float(np.mean(ds.y == 1))
    print(f"generated {spec.kind}-{spec.k}: n={ds.n} d={ds.d} "
          f"positive fraction={balance:.3f}")
    print(f"wrote {out}/" + ", ".join(written))
    return 0


def cmd_train(args) -> int:
    cfg, explicit = resolve_config(args)
    tcfg = _train_config(cfg, explicit, args.method)
    _check_forest_shape(cfg, [args.method])
    out = run_dir(args.out, "train", cfg,
                  args.force, {"data": str(args.data),
                               "method": args.method})
    train_ds, eval_ds = _load_train_eval(cfg, args)
    cell = run_method_cell(args.method, train_ds, eval_ds, cfg, tcfg)
    out.mkdir(parents=True, exist_ok=True)
    save_model(cell["model"], out / "model.json")
    cell["history"].to_csv(out / "history.csv")
    doc = {**cell["report"].to_dict(), "sparsity": cell["sparsity"],
           "seed": cfg["seed"], "method": args.method,
           "config": {**cfg, "prune": tcfg.prune.mode}}
    write_json(out / "report.json", doc)
    metric = (f"accuracy={doc['accuracy']:.4f}"
              if doc["accuracy"] is not None else f"mse={doc['mse']:.6f}")
    print(f"trained {args.method} ({cfg['epochs']} epochs): {metric} "
          f"sparsity={doc['sparsity']:.4f}")
    print(f"wrote {out}/model.json, history.csv, report.json")
    return 0


def cmd_evaluate(args) -> int:
    out = run_dir(args.out, "evaluate", {}, args.force,
                  {"model": str(args.model), "data": str(args.data)})
    model = load_model(args.model)
    task_kind = model.task.kind
    ds = load_csv(args.data, args.label_col, task_kind)
    if ds.d != model.input_dim:
        raise DataError(f"{args.data} has {ds.d} features, the model "
                        f"expects {model.input_dim}")
    if task_kind == CLASSIFICATION and model.task.labels is not None:
        if not set(ds.task.labels) <= set(model.task.labels):
            raise DataError(
                f"{args.data} has labels {ds.task.labels} not covered by "
                f"model labels {model.task.labels}")
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
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", doc)
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    cfg, explicit = resolve_config(args)
    if args.task != "class":
        raise UsageError("--task must be class: compare is defined for "
                         f"classification tasks, got {args.task!r}")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if len(methods) < 2:
        raise UsageError("compare needs at least 2 methods")
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}; choose from {METHODS}")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise UsageError("--seeds must be comma-separated integers, got "
                         f"{args.seeds!r}") from None
    if not seeds:
        raise UsageError("compare needs at least one seed")
    for flag, items in (("methods", methods), ("seeds", seeds)):
        if len(set(items)) < len(items):
            raise UsageError(f"--{flag} repeats an entry: {items}")
    tcfgs = {method: [_train_config({**cfg, "seed": seed}, explicit, method)
                      for seed in seeds] for method in methods}
    _check_forest_shape(cfg, methods)
    out = run_dir(args.out, "compare", cfg,
                  args.force, {"data": str(args.data), "methods": methods,
                               "seeds": seeds})
    train_ds, eval_ds = _load_train_eval(cfg, args)

    accs = np.asarray(run_calls([
        functools.partial(_cell_accuracy, method, train_ds, eval_ds, cfg,
                          tcfg)
        for method in methods for tcfg in tcfgs[method]]))
    rows = [(method, float(row.mean()), float(row.std()))
            for method, row in zip(methods, accs.reshape(len(methods), -1))]
    best = max(rows, key=lambda row: row[1])[0]
    out.mkdir(parents=True, exist_ok=True)
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
    if not 2 <= args.samples <= MAX_CURVE_SAMPLES:
        raise ParameterError(f"samples must be in [2, {MAX_CURVE_SAMPLES}], "
                             f"got {args.samples}")
    require_finite(mu=args.mu, std=args.std, wmin=args.wmin, wmax=args.wmax)
    for name in ("mu", "std"):      # a mean |w| and a standard deviation
        if getattr(args, name) < 0:
            raise ParameterError(
                f"{name} must be >= 0, got {getattr(args, name)}")
    if not args.wmin < args.wmax:
        raise UsageError("empty weight range: wmin must be < wmax")
    stats = LayerStats(mu=args.mu, std=args.std)
    out = run_dir(args.out, "mask-curve", cfg, args.force,
                  {"mu": args.mu, "std": args.std, "wmin": args.wmin,
                   "wmax": args.wmax, "samples": args.samples})
    w = np.linspace(args.wmin, args.wmax, args.samples)
    tables = {mode: mask_curve(_prune_config(cfg, mode), stats, w)
              for mode in (MODE_DSP, MODE_SURGERY)}
    out.mkdir(parents=True, exist_ok=True)
    for mode, table in tables.items():
        with open(out / f"curve_{mode}.csv", "w", newline="") as fh:
            csv.writer(fh).writerow(["w", "mask", "effective"])
            fh.writelines(float_lines(table))
    print(f"wrote {out}/curve_dsp.csv, curve_surgery.csv")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_flags(p: argparse.ArgumentParser, names) -> None:
    for name in names:
        opt = OPTIONS[name]
        p.add_argument(f"--{name}", type=opt.type, choices=opt.choices)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", default="runs", help="output root directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing run directory")
    _add_flags(p, ["seed"])


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--eval-data", help="held-out CSV (default: holdout split)")
    p.add_argument("--label-col", default="label",
                   help="label column name or index")
    p.add_argument("--task", choices=["class", "regress"], default="class")
    _add_flags(p, TRAIN_FLAGS)


# argparse's own negative-number pattern has no exponent, so it would take
# `--wmin -1e-3` for an option and `--wmin` for a flag missing its value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An argument parser, and the class of its subcommands' parsers, that
    reads a negative number in exponent form (`-1e-3`, `-.5e-1`) as a
    value, as argparse reads `-0.001`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dnspn",
        description="Forest-headed networks with dynamic soft pruning")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset")
    _add_flags(g, ("kind", "k", "sigma", "ntrain", "ntest"))
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
    _add_flags(m, PRUNE_FLAGS)
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
        # a float overflow, division by zero or invalid operation is a
        # numeric error (exit 4), not a warning beside a result; one BLAS
        # thread keeps the bytes of any OPENBLAS_NUM_THREADS
        with one_blas_thread(), np.errstate(over="raise", invalid="raise",
                                            divide="raise"):
            return args.func(args)
    except ParameterError as exc:
        print(f"error: {_flag_error(exc, args)}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ShapeError, MetricError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except FloatingPointError as exc:
        print(f"numeric error: {exc}; check the data scale and the settings",
              file=sys.stderr)
        return 4
    except DnspnError as exc:   # any future category defaults to data-ish
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ChildProcessError as exc:    # a worker killed by a signal
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
