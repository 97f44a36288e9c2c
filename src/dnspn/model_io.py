"""Model persistence: one JSON document per model.

The document holds the architecture, every layer's shadow weights and bias,
all forest-head parameters, the current pruning masks (so effective weights
reconstruct exactly), the task description, and the feature scaler fitted
at training time. Floats are serialized through repr, so a save/load round
trip is bit-exact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .data import CLASSIFICATION, Scaler, Task
from .errors import DataError, reading
from .forest import ForestHead
from .network import IDENTITY, RELU, DenseLayer
from .training import FOREST, SOFTMAX, Model

FORMAT = "dnspn-model-v1"


def _arr(a: np.ndarray) -> list:
    return np.asarray(a, dtype=np.float64).tolist()


def _floats(value, what: str, shape: tuple) -> np.ndarray:
    """`value` as a finite float64 array of `shape` (None matches any size)."""
    a = np.asarray(value, dtype=np.float64)
    if a.ndim != len(shape) or any(want not in (None, got)
                                   for want, got in zip(shape, a.shape)):
        raise DataError(f"{what} has shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a)):
        raise DataError(f"{what} has non-finite values")
    return a


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
                "weights": _arr(layer.weights),
                "bias": _arr(layer.bias),
                "activation": layer.activation,
                "mask": _arr(pl.mask),
            }
            for layer, pl in zip(model.layers, model.layer_prunes)
        ],
        "heads": [
            {
                "trees": head.trees,
                "depth": head.depth,
                "embed_dim": head.embed_dim,
                "kind": head.kind,
                "proj_w": _arr(head.proj_w),
                "proj_b": _arr(head.proj_b),
                "routing_w": _arr(head.routing_w),
                "routing_b": _arr(head.routing_b),
                "leaf": _arr(head.leaf),
                "mask": _arr(pp.mask),
            }
            for head, pp in zip(model.heads, model.proj_prunes)
        ],
        "head_layers": model.head_layers,
        "scaler": (
            {"mean": _arr(model.scaler.mean), "std": _arr(model.scaler.std)}
            if model.scaler is not None else None
        ),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path) -> Model:
    path = Path(path)
    if not path.exists():
        raise DataError(f"model file not found: {path}")
    try:
        with reading(path, "model file"), open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"model file is not valid JSON: {path}") from exc
    try:
        if doc["format"] != FORMAT:
            raise DataError(f"unsupported model format {doc['format']!r}")
        task = Task(kind=doc["task"]["kind"],
                    n_classes=doc["task"]["n_classes"],
                    labels=doc["task"]["labels"])
        n_out = task.n_classes if task.kind == CLASSIFICATION else 1
        layers, masks, width = [], [], doc["input_dim"]
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
        if not layers or len(head_layers) != len(doc["heads"]) or not all(
                isinstance(j, int) and 0 <= j < len(layers)
                for j in head_layers):
            raise DataError(f"{len(layers)} layers cannot carry heads at "
                            f"{head_layers}, one per head")
        heads = []
        for i, (rec, j) in enumerate(zip(doc["heads"], head_layers)):
            trees, depth, e = rec["trees"], rec["depth"], rec["embed_dim"]
            if rec["kind"] != task.kind or min(trees, depth, e) < 1:
                raise DataError(f"head {i} does not fit the task")
            nodes = trees * (2 ** (depth - 1) - 1)
            at = f"head {i} "
            proj_w = _floats(rec["proj_w"], at + "proj_w",
                             (e, layers[j].weights.shape[0]))
            heads.append(ForestHead(
                trees, depth, e, rec["kind"], proj_w,
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
        return Model(layers=layers, heads=heads, head_layers=head_layers,
                     task=task, kind=kind, input_dim=doc["input_dim"],
                     scaler=scaler, masks=masks)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model file is corrupt or incomplete: {path}") from exc
