"""Model persistence: one JSON document per model.

The document holds the architecture, every layer's shadow weights and bias,
all forest-head parameters, the current pruning masks (so effective weights
reconstruct exactly), the task description, and the feature scaler fitted
at training time.

Every JSON file the package writes goes through `write_json`: the bytes of
`json.dump(doc, sort_keys=True, indent=1)` and a newline, one float a line,
each by `float.__repr__`, so a save/load round trip is bit-exact.
`save_model` hands it the model's float64 arrays, which it writes as their
`tolist()`. It formats a document's rows of floats in slices of about
FLOATS_PER_CALL floats through `numeric.run_calls`, so a model's are
formatted on every CPU, and a report, in one call, on the caller alone;
`tests/reference_kernels.py` keeps the `json.dump` form that the tests
hold it to.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .data import CLASSIFICATION, REGRESSION, Scaler, Task
from .errors import DataError, ParameterError, reading
from .forest import ForestHead, check_shape
from .network import IDENTITY, RELU, DenseLayer
from .numeric import run_calls
from .training import (FOREST, SOFTMAX, Model, check_head_layers,
                       task_outputs)

FORMAT = "dnspn-model-v1"
# Floats that one call of `write_json` formats, about: a document with
# fewer is written in one call on the caller, a larger one in slices of
# this many over the CPUs
FLOATS_PER_CALL = 20_000


def _floats(value, what: str, shape: tuple) -> np.ndarray:
    """`value` as a finite float64 array of `shape` (None matches any size)."""
    a = np.asarray(value, dtype=np.float64)
    if a.ndim != len(shape) or any(want not in (None, got)
                                   for want, got in zip(shape, a.shape)):
        raise DataError(f"{what} has shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a)):
        raise DataError(f"{what} has non-finite values")
    return a


def _int(value, what: str) -> int:
    """`value` if it is an int (not a bool or a float)."""
    if type(value) is not int:
        raise DataError(f"{what} is not an integer: {value!r}")
    return value


def _key(key) -> str:
    """A dict key as `json` writes it: a str as is, and an int, float,
    bool or None key by its JSON form, quoted."""
    if not isinstance(key, str):
        if not isinstance(key, (int, float)) and key is not None:
            raise TypeError("keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = json.dumps(key)
    return json.dumps(key)


def _pieces(value, indent: str) -> Iterator:
    """The text of `value` at nesting `indent`, as
    `json.dump(sort_keys=True, indent=1)` writes it, in pieces: a str of
    text, or a `(row, indent)` pair for :func:`_row_text` to format.

    A row is a nonempty list of floats (a bias, a list of weights) or a
    nonempty 1-D float64 array; an array of more dimensions is walked as
    the nested lists of its `tolist()`, a row at a time. Any other list,
    and every dict, is walked item by item; each scalar is written by
    `json.dumps`, whose C encoder writes it as `json.dump` does.
    """
    inner = indent + " "
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64:
            raise TypeError(f"arrays must be float64, not {value.dtype}")
        if value.ndim == 1 and value.size:
            yield value, indent
            return
        value = list(value)         # its rows; a 0-d array raises TypeError
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        sep = "{\n"
        for key, item in sorted(value.items()):
            yield f"{sep}{inner}{_key(key)}: "
            yield from _pieces(item, inner)
            sep = ",\n"
        yield f"\n{indent}}}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
        elif all(isinstance(item, float) for item in value):
            yield value, indent
        else:
            sep = "[\n"
            for item in value:
                yield sep + inner
                yield from _pieces(item, inner)
                sep = ",\n"
            yield f"\n{indent}]"
    else:
        yield json.dumps(value)


def _row_text(row, indent: str) -> str:
    """A row of :func:`_pieces` as `json.dump` writes it: one float a line
    at the inner indent, each by `float.__repr__`, joined at once when all
    are finite, and else each by `json.dumps` (`NaN`, `Infinity`)."""
    items = row.tolist() if isinstance(row, np.ndarray) else row
    text = float.__repr__ if all(map(math.isfinite, items)) else json.dumps
    inner = indent + " "
    return (f"[\n{inner}" + f",\n{inner}".join(map(text, items))
            + f"\n{indent}]")


def _text(pieces: list) -> str:
    """The text of a slice of :func:`_pieces`, its rows formatted."""
    return "".join(piece if isinstance(piece, str) else _row_text(*piece)
                   for piece in pieces)


def write_json(path, doc: dict) -> None:
    """Every JSON file the package writes: sorted keys, indent 1, newline.

    The bytes are those of `json.dump(doc, fh, sort_keys=True, indent=1)`
    and a newline, with a float64 array written as its `tolist()`: one
    float a line at its nesting indent, each by `float.__repr__`, so a
    float reads back bit for bit. The caller walks the document once into
    pieces (:func:`_pieces`); the rows are formatted in contiguous slices
    of about FLOATS_PER_CALL floats through :func:`numeric.run_calls`, so
    a large document (a model) is formatted on every CPU and a small one
    (a report) in one call on the caller, which forks nothing. Each call
    turns only its own rows into Python floats, and the caller writes the
    slices' text in order.
    """
    slices, floats = [[]], 0
    for piece in _pieces(doc, ""):
        if not isinstance(piece, str):
            if floats >= FLOATS_PER_CALL:
                slices.append([])
                floats = 0
            floats += len(piece[0])
        slices[-1].append(piece)
    texts = run_calls([functools.partial(_text, pieces)
                       for pieces in slices])
    with open(path, "w") as fh:
        fh.writelines(texts)
        fh.write("\n")


def save_model(model: Model, path) -> None:
    doc = {
        "format": FORMAT,
        "kind": model.kind,
        "input_dim": model.input_dim,
        "task": {
            "kind": model.task.kind,
            "n_classes": model.task.n_classes,
            "labels": model.task.labels,
        },
        "layers": [
            {
                "weights": pl.shadow,
                "bias": layer.bias,
                "activation": layer.activation,
                "mask": pl.mask,
            }
            for layer, pl in zip(model.layers, model.layer_prunes)
        ],
        "heads": [
            {
                "trees": head.trees,
                "depth": head.depth,
                "embed_dim": head.embed_dim,
                "kind": model.task.kind,
                "proj_w": pp.shadow,
                "proj_b": head.proj_b,
                "routing_w": head.routing_w,
                "routing_b": head.routing_b,
                "leaf": head.leaf,
                "mask": pp.mask,
            }
            for head, pp in zip(model.heads, model.proj_prunes)
        ],
        "head_layers": model.head_layers,
        "scaler": (
            {"mean": model.scaler.mean, "std": model.scaler.std}
            if model.scaler is not None else None
        ),
    }
    write_json(path, doc)


def load_model(path) -> Model:
    path = Path(path)
    if not path.exists():
        raise DataError(f"model file not found: {path}")
    try:
        with reading(path, "model file"), open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"model file is not valid JSON: {path}") from exc
    except RecursionError:
        raise DataError(f"model file nests too deeply to read: {path}") \
            from None
    try:
        if doc["format"] != FORMAT:
            raise DataError(f"unsupported model format {doc['format']!r}")
        task = Task(kind=doc["task"]["kind"],
                    n_classes=doc["task"]["n_classes"],
                    labels=doc["task"]["labels"])
        # a classification task has 2+ classes, and null labels or one
        # distinct string a class; a regression task 0 and null labels
        n, labels = task.n_classes, task.labels
        named = labels is None or (isinstance(labels, list) and all(
            isinstance(name, str) for name in labels)
            and len(set(labels)) == len(labels) == n)
        if not (type(n) is int and (task.kind == CLASSIFICATION and n >= 2
                                    and named or task.kind == REGRESSION
                                    and n == 0 and labels is None)):
            raise DataError(f"model file {path} has an inconsistent task: "
                            f"{doc['task']!r}")
        n_out = task_outputs(task)
        layers, masks = [], []
        width = _int(doc["input_dim"], "input_dim")
        for i, rec in enumerate(doc["layers"]):
            w = _floats(rec["weights"], f"layer {i} weights", (None, width))
            width = w.shape[0]
            if rec["activation"] not in (RELU, IDENTITY):
                raise DataError(f"layer {i} activation is not relu/identity")
            layers.append(DenseLayer(
                w, _floats(rec["bias"], f"layer {i} bias", (width,)),
                rec["activation"]))
            masks.append(_floats(rec["mask"], f"layer {i} mask", w.shape))
        head_layers = doc["head_layers"]
        check_head_layers(len(layers), head_layers, len(doc["heads"]),
                          DataError)
        heads = []
        for i, (rec, j) in enumerate(zip(doc["heads"], head_layers)):
            trees, depth, e = (_int(rec[key], f"head {i} {key}")
                               for key in ("trees", "depth", "embed_dim"))
            if rec["kind"] != task.kind:
                raise DataError(f"head {i} does not fit the task")
            check_shape(trees, depth, e)     # before 2^(depth-1) is taken
            nodes = trees * (2 ** (depth - 1) - 1)
            at = f"head {i} "
            proj_w = _floats(rec["proj_w"], at + "proj_w",
                             (e, layers[j].weights.shape[0]))
            heads.append(ForestHead(
                trees, depth, e, proj_w,
                _floats(rec["proj_b"], at + "proj_b", (e,)),
                _floats(np.reshape(rec["routing_w"], (-1, e)),
                        at + "routing_w", (nodes, e)),
                _floats(rec["routing_b"], at + "routing_b", (nodes,)),
                _floats(rec["leaf"], at + "leaf",
                        (trees * 2 ** (depth - 1), n_out))))
            masks.append(_floats(rec["mask"], at + "mask", proj_w.shape))
        kind = doc["kind"]
        if kind not in (FOREST, SOFTMAX):
            raise DataError(f"unknown model kind {kind!r}")
        if kind == FOREST and not heads:
            raise DataError("a forest model needs at least one head")
        if kind == SOFTMAX and (heads or width != n_out):
            raise DataError(f"a softmax model has no heads and {n_out} "
                            f"outputs, not {len(heads)} and {width}")
        scaler = None
        if doc.get("scaler") is not None:
            scaler = Scaler(*(_floats(doc["scaler"][key], f"scaler {key}",
                                      (doc["input_dim"],))
                              for key in ("mean", "std")))
            if np.any(scaler.std < 0):
                raise DataError("scaler std has negative values")
        return Model(layers=layers, heads=heads, head_layers=head_layers,
                     task=task, scaler=scaler, masks=masks)
    except DataError as exc:
        if str(path) in str(exc):    # the task check names the file itself
            raise
        raise DataError(f"model file {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError,
            ParameterError) as exc:
        raise DataError(f"model file is corrupt or incomplete: {path}") from exc
