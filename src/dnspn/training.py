"""End-to-end training: minibatch loop, losses, Adam, per-step mask refresh.

A model is a pruned fully-connected backbone with either a decision-forest
head after every layer (the default) or a plain softmax readout on the last
layer (the `fcnn` baseline used in comparisons). One training step runs:

  1. forward with the effective (masked) weights each mask record holds,
     collecting per-head outputs and their fused mean;
  2. the training loss: the unweighted mean of per-head losses (cross
     entropy or MSE);
  3. exact backprop into leaf logits, routing units, projections, and the
     backbone's shadow weights, where the soft-prune mode chains through
     the mask derivative stored at the last refresh and the surgery mode
     through the frozen mask values (steps 1-3 are :func:`gradients`);
  4. one Adam update over every parameter at once;
  5. a mask/statistics refresh from the updated shadow weights that writes
     the effective weights (in mode "none" they are the shadow itself).

Forest heads attach after every backbone layer including the last, whose
width defaults to 2d so it acts as another embedding source; class scores
come only from the forests.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np

from . import network
from .data import CLASSIFICATION, REGRESSION, Dataset, Scaler, Task
from .ensemble import fuse
from .errors import (DataError, MetricError, NumericError, ParameterError,
                     ShapeError, UsageError)
from .forest import (ForestHead, forest_backward, init_head, predict_class,
                     predict_regress, route)
from .metrics import EvalReport, accuracy, auc_macro_ovr, mse_metric, \
    roc_auc_binary
from .network import DenseLayer
from .numeric import RngState, require_finite, softmax_rows
from .pruning import (MODE_DSP, MODE_NONE, MODE_SURGERY, PruneConfig,
                      PrunedLayer, apply_mask, mask_grad, new_pruned_layer,
                      refresh_mask)

FOREST = "forest"
SOFTMAX = "softmax"

# method -> the mask mode it trains with; "fcnn" is the softmax baseline
METHOD_MODES = {"fcnn": MODE_NONE, "dndn": MODE_NONE, "dnspn": MODE_DSP,
                "surgery": MODE_SURGERY}
METHODS = tuple(METHOD_MODES)

# forest shape of every forest method unless a caller sets it
TREES = 10
DEPTH = 4
EMBED_DIM = 8

HEAD_PARAMS = ("proj_w", "proj_b", "routing_w", "routing_b", "leaf")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 128
    dropout: float = 0.5
    epochs: int = 20
    seed: int = 0
    prune: PruneConfig = field(default_factory=PruneConfig)

    def __post_init__(self):
        require_finite(learning_rate=self.learning_rate)
        if not 0.0 <= self.dropout < 1.0:
            raise ParameterError("dropout must be in [0, 1)")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")


class AdamState:
    """First/second moment accumulators keyed like the parameter dict."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: int = 0


@dataclass
class Model:
    """A backbone, its heads, and one mask record per layer and head
    projection; `masks` gives theirs, layers first (default all ones).
    `eff_layers` and `eff_heads`, built once, are the layers and heads over
    the records' effective weights that forwards compute with."""
    layers: list[DenseLayer]          # weights here are the shadow weights
    heads: list[ForestHead]
    head_layers: list[int]            # attachment layer index per head
    task: Task
    kind: str                         # "forest" | "softmax"
    input_dim: int
    scaler: Scaler | None = None      # feature scaler used at training time
    masks: InitVar[list[np.ndarray] | None] = None
    layer_prunes: list[PrunedLayer] = field(init=False)  # on layers[i].weights
    proj_prunes: list[PrunedLayer] = field(init=False)   # on heads[i].proj_w
    eff_layers: list[DenseLayer] = field(init=False)
    eff_heads: list[ForestHead] = field(init=False)

    def __post_init__(self, masks):
        shadows = ([layer.weights for layer in self.layers]
                   + [head.proj_w for head in self.heads])
        pruned = [new_pruned_layer(w, m) for w, m in
                  zip(shadows, masks or [None] * len(shadows), strict=True)]
        self.layer_prunes = pruned[:len(self.layers)]
        self.proj_prunes = pruned[len(self.layers):]
        self.eff_layers = [copy.copy(layer) for layer in self.layers]
        self.eff_heads = [copy.copy(head) for head in self.heads]
        self._point_effective()

    def _point_effective(self) -> None:
        for layer, pl in zip(self.eff_layers, self.layer_prunes):
            layer.weights = pl.effective
        for head, pp in zip(self.eff_heads, self.proj_prunes):
            head.proj_w = pp.effective

    def set_mask(self, i: int, mask: np.ndarray) -> None:
        """Give record `i` (layers first) `mask` and its effective weights."""
        pl = (self.layer_prunes + self.proj_prunes)[i]
        pl.mask = mask
        apply_mask(pl)
        self._point_effective()


def _n_outputs(task: Task) -> int:
    return task.n_classes if task.kind == CLASSIFICATION else 1


def build_forest_model(input_dim: int, task: Task, rng: RngState,
                       trees: int, depth: int, embed_dim: int,
                       output_width: int | None = None) -> Model:
    """Backbone d -> 2d -> 2d -> o (o defaults to 2d), one forest head per
    layer."""
    o = output_width if output_width is not None else 2 * input_dim
    layers = network.build_network(input_dim, o, rng)
    heads = [init_head(layer.weights.shape[0], _n_outputs(task), trees, depth,
                       embed_dim, task.kind, rng) for layer in layers]
    return Model(layers=layers, heads=heads,
                 head_layers=list(range(len(layers))), task=task, kind=FOREST,
                 input_dim=input_dim)


def build_softmax_model(input_dim: int, task: Task, rng: RngState) -> Model:
    """Plain backbone whose last layer emits class scores (or one value)."""
    layers = network.build_network(input_dim, _n_outputs(task), rng)
    return Model(layers=layers, heads=[], head_layers=[], task=task,
                 kind=SOFTMAX, input_dim=input_dim)


def method_model(method: str, input_dim: int, task: Task, rng: RngState,
                 trees: int = TREES, depth: int = DEPTH,
                 embed_dim: int = EMBED_DIM) -> tuple[Model, str]:
    """Build the model for a named method; returns (model, prune mode)."""
    if method not in METHOD_MODES:
        raise UsageError(
            f"unknown method {method!r}; expected one of {METHODS}")
    if method == "fcnn":
        return build_softmax_model(input_dim, task, rng), MODE_NONE
    return (build_forest_model(input_dim, task, rng, trees, depth, embed_dim),
            METHOD_MODES[method])


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

_CLAMP = 1e-12


def loss_ce(pred: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross entropy over probability rows, with its gradient.

    Probabilities are clamped below at 1e-12 before the log; the gradient
    is zero where the clamp is active.
    """
    pred = np.asarray(pred, dtype=np.float64)
    labels = np.asarray(labels)
    n, k = pred.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} != ({n},)")
    if np.any(labels < 0) or np.any(labels >= k):
        raise DataError(f"labels must lie in [0, {k})")
    picked = pred[np.arange(n), labels]
    clamped = np.maximum(picked, _CLAMP)
    loss = float(-np.log(clamped).mean())
    grad = np.zeros_like(pred)
    grad[np.arange(n), labels] = np.where(picked > _CLAMP,
                                          -1.0 / (n * clamped), 0.0)
    return loss, grad


def loss_mse(pred: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient 2(pred - target)/n."""
    pred = np.asarray(pred, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    flat_pred = pred.ravel()
    flat_t = targets.ravel()
    if flat_pred.shape != flat_t.shape:
        raise ShapeError(
            f"pred/target lengths differ: {flat_pred.shape} vs {flat_t.shape}"
        )
    diff = flat_pred - flat_t
    n = diff.size
    loss = float(np.mean(diff ** 2))
    grad = (2.0 * diff / n).reshape(pred.shape)
    return loss, grad


def _softmax_backward(probs: np.ndarray, g_probs: np.ndarray) -> np.ndarray:
    return probs * (g_probs - (g_probs * probs).sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def adam_update(state: AdamState, params: dict[str, np.ndarray],
                grads: dict[str, np.ndarray], cfg: TrainConfig) -> None:
    """One bias-corrected Adam step, updating parameters in place."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def model_params(model: Model) -> dict[str, np.ndarray]:
    """Flat name -> array view of every trainable parameter."""
    params: dict[str, np.ndarray] = {}
    for i, layer in enumerate(model.layers):
        params[f"layer{i}.w"] = layer.weights
        params[f"layer{i}.b"] = layer.bias
    for i, head in enumerate(model.heads):
        params.update({f"head{i}.{name}": getattr(head, name)
                       for name in HEAD_PARAMS})
    return params


# ---------------------------------------------------------------------------
# Forward / backward over the whole model
# ---------------------------------------------------------------------------

def _forward(model: Model, X: np.ndarray, dropout: float, training: bool,
             rng: RngState | None):
    """Forward pass with the model's effective layers and heads: (backbone
    trace, per-head routings, per-head outputs, fused output). Routings,
    with the factors the backward needs, are kept only in training; an eval
    forward returns an empty list and drops each head's leaf reach once its
    output is taken, so it holds one head's `p` at a time and no
    full-height decisions."""
    trace = network.forward(model.eff_layers, X, dropout, training, rng)
    routings, outs = [], []
    if model.kind == SOFTMAX:
        logits = trace.dropped[-1]
        outs.append(softmax_rows(logits) if model.task.kind == CLASSIFICATION
                    else logits)
        return trace, routings, outs, outs[0]
    for head, j in zip(model.eff_heads, model.head_layers):
        r = route(head, trace.dropped[j], keep_factors=training)
        outs.append(predict_class(head, r)
                    if model.task.kind == CLASSIFICATION
                    else predict_regress(head, r))
        if training:
            routings.append(r)
        del r
    return trace, routings, outs, fuse(outs)


def refresh_masks(model: Model, prune: PruneConfig) -> None:
    """Recompute every layer and projection's mask and effective weights."""
    for pl in model.layer_prunes + model.proj_prunes:
        refresh_mask(pl, prune)
        if prune.mode != MODE_NONE:
            apply_mask(pl)
    model._point_effective()


def gradients(model: Model, xb: np.ndarray, yb: np.ndarray, cfg: TrainConfig,
              rng: RngState | None) -> tuple[float, dict[str, np.ndarray]]:
    """The batch training loss and its gradient, keyed like
    :func:`model_params`, from a training-mode forward with `cfg.dropout`.

    Masks and effective weights are assumed consistent with the current
    shadow weights (as left by the last refresh). In prune mode "none" the
    masks are all ones, so they are not chained through.
    """
    masked = cfg.prune.mode != MODE_NONE
    trace, routings, outs, fused = _forward(model, xb, cfg.dropout, True, rng)
    loss_fn = loss_ce if model.task.kind == CLASSIFICATION else loss_mse

    grads: dict[str, np.ndarray] = {}
    upstream: list[np.ndarray | None] = [None] * len(model.layers)

    if model.kind == FOREST:
        per_head = [loss_fn(out, yb) for out in outs]
        loss = float(np.mean([l_i for l_i, _ in per_head]))
        for i, (head, j, r, (_, g_i)) in enumerate(
                zip(model.eff_heads, model.head_layers, routings, per_head)):
            hg = forest_backward(head, r, trace.dropped[j], g_i / len(outs))
            grads.update({f"head{i}.{name}": getattr(hg, name)
                          for name in HEAD_PARAMS})
            if masked:
                grads[f"head{i}.proj_w"] = hg.proj_w * mask_grad(
                    model.proj_prunes[i], cfg.prune)
            upstream[j] = (hg.activation if upstream[j] is None
                           else upstream[j] + hg.activation)
    else:
        if model.task.kind == CLASSIFICATION:
            loss, g_probs = loss_ce(fused, yb)
            upstream[-1] = _softmax_backward(fused, g_probs)
        else:
            loss, upstream[-1] = loss_mse(fused, yb)

    if not np.isfinite(loss):
        raise NumericError(
            f"non-finite training loss {loss!r} (batch size {len(xb)}); "
            "check the data scale and learning rate"
        )

    dW, db, _ = network.backward(model.eff_layers, trace, upstream)
    for i in range(len(model.layers)):
        grads[f"layer{i}.w"] = (
            dW[i] * mask_grad(model.layer_prunes[i], cfg.prune)
            if masked else dW[i])
        grads[f"layer{i}.b"] = db[i]
    return loss, grads


def train_step(model: Model, xb: np.ndarray, yb: np.ndarray,
               cfg: TrainConfig, adam: AdamState,
               rng: RngState | None) -> float:
    """One minibatch update; returns the batch training loss.

    Applies :func:`gradients` with Adam, then refreshes the masks from the
    just-updated weights (not needed in prune mode "none").
    """
    loss, grads = gradients(model, xb, yb, cfg, rng)
    adam_update(adam, model_params(model), grads, cfg)
    if cfg.prune.mode != MODE_NONE:
        refresh_masks(model, cfg.prune)
    return loss


# ---------------------------------------------------------------------------
# Epoch loop, prediction, evaluation
# ---------------------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    eval_loss: float
    metric: float
    sparsity: tuple[float, ...]   # per backbone layer


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def to_csv(self, path) -> None:
        path = Path(path)
        n_layers = len(self.records[0].sparsity) if self.records else 0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "eval_loss", "metric"]
                            + [f"sparsity_l{i}" for i in range(n_layers)])
            for rec in self.records:
                writer.writerow([rec.epoch, repr(rec.train_loss),
                                 repr(rec.eval_loss), repr(rec.metric)]
                                + [repr(s) for s in rec.sparsity])


def sparsity_fractions(model: Model, threshold: float = 1e-3) -> tuple[float, ...]:
    """Per backbone layer, the fraction of mask entries with |T| < threshold."""
    return tuple(float(np.mean(np.abs(pl.mask) < threshold))
                 for pl in model.layer_prunes)


def backbone_sparsity(model: Model, threshold: float = 1e-3) -> float:
    total = sum(pl.mask.size for pl in model.layer_prunes)
    small = sum(int(np.sum(np.abs(pl.mask) < threshold))
                for pl in model.layer_prunes)
    return small / total


def predict(model: Model, X: np.ndarray) -> np.ndarray:
    """Eval-mode fused prediction (dropout off, effective weights)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ShapeError(
            f"input shape {X.shape} != (n, {model.input_dim})"
        )
    *_, fused = _forward(model, X, 0.0, False, None)
    return fused


def fit(model: Model, train_set: Dataset, eval_set: Dataset | None,
        cfg: TrainConfig) -> TrainHistory:
    """Run the epoch loop and record per-epoch telemetry.

    Each epoch reshuffles with the seeded stream; the stop criterion is the
    fixed epoch count. With epochs=0 the model is left untouched.
    """
    if train_set.X.shape[1] != model.input_dim:
        raise ShapeError(
            f"dataset has {train_set.X.shape[1]} features, model expects "
            f"{model.input_dim}"
        )
    if train_set.task.kind != model.task.kind:
        raise UsageError(
            f"dataset task {train_set.task.kind} != model task "
            f"{model.task.kind}"
        )
    history = TrainHistory()
    if cfg.epochs == 0:
        return history

    rng = RngState(cfg.seed)
    adam = AdamState()
    refresh_masks(model, cfg.prune)
    n = train_set.n
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            batch_losses.append(
                train_step(model, train_set.X[idx], train_set.y[idx],
                           cfg, adam, rng))
        train_loss = float(np.mean(batch_losses))
        if eval_set is not None and eval_set.n > 0:
            fused = predict(model, eval_set.X)
            if model.task.kind == CLASSIFICATION:
                eval_loss, _ = loss_ce(fused, eval_set.y)
                metric = accuracy(np.argmax(fused, axis=1), eval_set.y)
            else:
                eval_loss, _ = loss_mse(fused, eval_set.y)
                metric = mse_metric(fused, eval_set.y)
        else:
            eval_loss, metric = float("nan"), float("nan")
        history.records.append(EpochRecord(
            epoch=epoch, train_loss=train_loss, eval_loss=float(eval_loss),
            metric=float(metric), sparsity=sparsity_fractions(model)))
    return history


def evaluate_model(model: Model, ds: Dataset) -> EvalReport:
    """Fused eval-mode metrics; AUC is omitted when undefined."""
    fused = predict(model, ds.X)
    if model.task.kind == CLASSIFICATION:
        pred_labels = np.argmax(fused, axis=1)
        counts = {int(c): int(np.sum(ds.y == c)) for c in np.unique(ds.y)}
        try:
            if model.task.n_classes == 2:
                auc = roc_auc_binary(fused[:, 1], ds.y)
            else:
                auc = auc_macro_ovr(fused, ds.y, model.task.n_classes)
        except MetricError:
            auc = None
        return EvalReport(task=CLASSIFICATION, n=ds.n,
                          accuracy=accuracy(pred_labels, ds.y), auc=auc,
                          class_counts=counts)
    return EvalReport(task=REGRESSION, n=ds.n, mse=mse_metric(fused, ds.y))
