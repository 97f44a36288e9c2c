"""End-to-end training: minibatch loop, losses, Adam, per-step mask refresh.

A model is a pruned fully-connected backbone with either a decision-forest
head after every layer (the default) or a plain softmax readout on the last
layer (the `fcnn` baseline used in comparisons). One training step runs:

  1. one backbone forward with the model's layers, whose weights are their
     mask records' effective (masked) arrays, with dropout;
  2. each forest head in turn: its route, output, loss (cross entropy or
     MSE) and exact backprop into leaf logits, routing units and
     projection, adding its activation gradient into its layer's
     upstream before the next head routes. A head's routing factors (its
     decisions, complements and level products, about 2 MB for 32
     depth-6 trees at batch 64) are dropped before the next route, so
     the backward reads them while they are still in L2 and the step
     holds one head's factors at a time. Heads share no arithmetic, and
     the per-head losses and upstream sums keep their head order, so
     the bits are those of routing every head first;
  3. the training loss, the unweighted mean of per-head losses, then
     backprop through the backbone's shadow weights, where the
     soft-prune mode chains through the mask derivative stored at the
     last refresh and the surgery mode through the frozen mask values
     (steps 1-3 are :func:`gradients`; the softmax model has no heads,
     and its loss is taken on the last layer's output);
  4. one Adam update over every array of :func:`model_params`, whose
     shadow weights the mask records own, with moments matched by position;
  5. a mask/statistics refresh from the updated shadow weights that writes
     the effective weights (in mode "none" they are the shadow itself).

Forest heads attach after every backbone layer including the last, whose
width defaults to 2d so it acts as another embedding source; class scores
come only from the forests.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np

from . import network
from .data import CLASSIFICATION, REGRESSION, Dataset, Scaler, Task
from .errors import (DataError, MetricError, NumericError, ParameterError,
                     ShapeError, UsageError)
from .forest import (HEAD_PARAMS, ForestHead, RoutingProbs, forest_backward,
                     init_head, predict_class, predict_regress, route)
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

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

SPARSE_MASK = 1e-3    # a |mask| below it counts as pruned (sparsity_l*)


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
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class AdamState:
    """First/second moment accumulators, one per parameter by position."""
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    t: int = 0


@dataclass
class Model:
    """A backbone, its heads, and one mask record per layer and head
    projection; `masks` gives theirs, layers first (default all ones).
    A record owns its shadow weights; a layer's `weights` or a head's
    `proj_w` is its record's effective array for the model's whole life,
    which forwards and the backward compute with (the shadow itself while
    the mask is all ones). The trainable arrays are walked by
    :func:`model_params`, which reads the records on each call and keeps no
    list of its own: a record's shadow array is replaced once, at its first
    masked refresh, so read them after a refresh. The kind and the input
    width follow from the heads and the first layer."""
    layers: list[DenseLayer]
    heads: list[ForestHead]
    head_layers: list[int]            # attachment layer index per head
    task: Task
    scaler: Scaler | None = None      # feature scaler used at training time
    masks: InitVar[list[np.ndarray] | None] = None
    layer_prunes: list[PrunedLayer] = field(init=False)  # per layers[i]
    proj_prunes: list[PrunedLayer] = field(init=False)   # per heads[i]

    def __post_init__(self, masks):
        check_head_layers(len(self.layers), self.head_layers, len(self.heads))
        shadows = ([layer.weights for layer in self.layers]
                   + [head.proj_w for head in self.heads])
        pruned = [new_pruned_layer(w, m) for w, m in
                  zip(shadows, masks or [None] * len(shadows), strict=True)]
        self.layer_prunes = pruned[:len(self.layers)]
        self.proj_prunes = pruned[len(self.layers):]

    @property
    def kind(self) -> str:
        """FOREST if the model has heads, else SOFTMAX."""
        return FOREST if self.heads else SOFTMAX

    @property
    def input_dim(self) -> int:
        """The first layer's input width."""
        return self.layers[0].weights.shape[1]


def check_head_layers(n_layers: int, head_layers: list, n_heads: int,
                      error: type[Exception] = ShapeError) -> None:
    """Raise `error` unless `head_layers` holds one layer index a head,
    each an int (not a bool)."""
    if not n_layers or len(head_layers) != n_heads or not all(
            type(j) is int and 0 <= j < n_layers for j in head_layers):
        raise error(f"{n_layers} layers cannot carry heads at {head_layers}, "
                    "one per head")


def task_outputs(task: Task) -> int:
    """A model's output width for `task`: its class count, or 1."""
    return task.n_classes if task.kind == CLASSIFICATION else 1


def build_forest_model(input_dim: int, task: Task, rng: RngState,
                       trees: int, depth: int, embed_dim: int,
                       output_width: int | None = None) -> Model:
    """Backbone d -> 2d -> 2d -> o (o defaults to 2d), one forest head per
    layer."""
    o = output_width if output_width is not None else 2 * input_dim
    layers = network.build_network(input_dim, o, rng)
    heads = [init_head(layer.weights.shape[0], task_outputs(task), trees,
                       depth, embed_dim, rng) for layer in layers]
    return Model(layers=layers, heads=heads,
                 head_layers=list(range(len(layers))), task=task)


def build_softmax_model(input_dim: int, task: Task, rng: RngState) -> Model:
    """Plain backbone whose last layer emits class scores (or one value)."""
    layers = network.build_network(input_dim, task_outputs(task), rng)
    return Model(layers=layers, heads=[], head_layers=[], task=task)


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

def adam_update(state: AdamState, params: list[np.ndarray],
                grads: list[np.ndarray], cfg: TrainConfig) -> None:
    """One bias-corrected Adam step, updating parameters in place;
    `params`, `grads` and the state's moments are matched by position."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    for p, g, m, v in zip(params, grads, state.m, state.v, strict=True):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def model_params(model: Model) -> list[tuple[np.ndarray, PrunedLayer | None]]:
    """Each trainable array with its mask record (None if unmasked), in the
    order of :func:`gradients` and Adam's moments: per layer its shadow
    weights and bias, then per head its HEAD_PARAMS, the projection's
    shadow first. Read on each call, so it follows a replaced array."""
    params: list[tuple[np.ndarray, PrunedLayer | None]] = []
    for layer, pl in zip(model.layers, model.layer_prunes):
        params += [(pl.shadow, pl), (layer.bias, None)]
    for head, pp in zip(model.heads, model.proj_prunes):
        params.append((pp.shadow, pp))     # HEAD_PARAMS[0], "proj_w"
        params += [(getattr(head, name), None) for name in HEAD_PARAMS[1:]]
    return params


# ---------------------------------------------------------------------------
# Forward / backward over the whole model
# ---------------------------------------------------------------------------

def fuse(outputs: Sequence[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of the head outputs (shape-checked): the minimizer
    of the summed KL divergences from each head's output to the fused
    distribution (heads on the left of the divergence). Regression outputs
    fuse by the same mean."""
    if len(outputs) == 0:
        raise ParameterError("fuse requires at least one head output")
    first = np.asarray(outputs[0], dtype=np.float64)
    total = first.copy()
    for out in outputs[1:]:
        arr = np.asarray(out, dtype=np.float64)
        if arr.shape != first.shape:
            raise ShapeError(
                f"head output shapes differ: {arr.shape} vs {first.shape}"
            )
        total += arr
    return total / len(outputs)


def _forward(model: Model, X: np.ndarray, dropout: float, training: bool,
             rng: RngState | None):
    """Forward pass with the model's layers and heads: (backbone trace,
    per-head outputs, fused output). It keeps no routing: each head's leaf
    reach is dropped once its output is taken, so it holds one head's `p`
    at a time and no full-height decisions. It serves :func:`predict` and
    the softmax model's training step; a forest model's training step
    routes each head inside :func:`gradients`."""
    trace = network.forward(model.layers, X, dropout, training, rng)
    if model.kind == SOFTMAX:
        logits = trace.dropped[-1]
        out = (softmax_rows(logits) if model.task.kind == CLASSIFICATION
               else logits)
        return trace, [out], out
    outs = [_head_output(model, head,
                         route(head, trace.dropped[j], keep_factors=False))
            for head, j in zip(model.heads, model.head_layers)]
    return trace, outs, fuse(outs)


def _head_output(model: Model, head: ForestHead,
                 r: RoutingProbs) -> np.ndarray:
    return (predict_class(head, r) if model.task.kind == CLASSIFICATION
            else predict_regress(head, r))


def refresh_masks(model: Model, prune: PruneConfig) -> None:
    """Recompute every layer and projection's mask and effective weights."""
    for pl in model.layer_prunes + model.proj_prunes:
        refresh_mask(pl, prune)
        if prune.mode != MODE_NONE:
            apply_mask(pl)


def gradients(model: Model, xb: np.ndarray, yb: np.ndarray, cfg: TrainConfig,
              rng: RngState | None) -> tuple[float, list[np.ndarray]]:
    """The batch training loss and its gradients, in :func:`model_params`
    order, from a training-mode forward with `cfg.dropout`.

    The backbone runs forward once; then each head routes, predicts, takes
    its loss and runs its backward before the next head routes, so only
    one head's routing factors are alive at a time (see the module
    docstring). Masks and effective weights are assumed consistent with
    the current shadow weights (as left by the last refresh). A masked
    array's gradient chains through its record's :func:`mask_grad`; in
    prune mode "none" the masks are all ones, so they are not chained
    through.
    """
    head_grads: list[np.ndarray] = []
    upstream: list[np.ndarray | None] = [None] * len(model.layers)

    if model.kind == FOREST:
        loss_fn = loss_ce if model.task.kind == CLASSIFICATION else loss_mse
        trace = network.forward(model.layers, xb, cfg.dropout, True, rng)
        losses = []
        for head, j in zip(model.heads, model.head_layers):
            act = trace.dropped[j]
            r = route(head, act)
            l_i, g_i = loss_fn(_head_output(model, head, r), yb)
            *g_head, g_act = forest_backward(head, r, act,
                                             g_i / len(model.heads))
            del r    # its factors go before the next head routes
            losses.append(l_i)
            head_grads += g_head
            upstream[j] = g_act if upstream[j] is None else upstream[j] + g_act
        loss = float(np.mean(losses))
    else:
        trace, _, fused = _forward(model, xb, cfg.dropout, True, rng)
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

    dW, db = network.backward(model.layers, trace, upstream)
    grads = [g for pair in zip(dW, db) for g in pair] + head_grads
    if cfg.prune.mode == MODE_NONE:
        return loss, grads
    return loss, [g if pl is None else g * mask_grad(pl)
                  for g, (_, pl) in zip(grads, model_params(model),
                                        strict=True)]


def train_step(model: Model, xb: np.ndarray, yb: np.ndarray,
               cfg: TrainConfig, adam: AdamState,
               rng: RngState | None) -> float:
    """One minibatch update; returns the batch training loss.

    Applies :func:`gradients` with Adam, then refreshes the masks from the
    just-updated weights (not needed in prune mode "none").
    """
    loss, grads = gradients(model, xb, yb, cfg, rng)
    adam_update(adam, [p for p, _ in model_params(model)], grads, cfg)
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


def sparsity_fractions(model: Model) -> tuple[float, ...]:
    """Per backbone layer, the fraction of mask entries below SPARSE_MASK."""
    return tuple(float(np.mean(np.abs(pl.mask) < SPARSE_MASK))
                 for pl in model.layer_prunes)


def backbone_sparsity(model: Model) -> float:
    total = sum(pl.mask.size for pl in model.layer_prunes)
    small = sum(int(np.sum(np.abs(pl.mask) < SPARSE_MASK))
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
            else:     # the metric is the eval MSE, the loss just taken
                eval_loss, _ = loss_mse(fused, eval_set.y)
                metric = eval_loss
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
