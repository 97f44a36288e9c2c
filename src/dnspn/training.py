"""End-to-end training: minibatch loop, losses, Adam, per-step mask refresh.

A model is a pruned fully-connected backbone with either a decision-forest
head after every layer (the default) or a plain softmax readout on the last
layer (the `fcnn` baseline used in comparisons). One training step runs:

  1. forward with effective (masked) weights, collecting per-head outputs
     and their fused mean;
  2. the training loss: by default the unweighted mean of per-head losses
     (cross entropy or MSE); a config flag switches to a loss on the fused
     output instead;
  3. exact backprop into leaf logits, routing units, projections, and the
     backbone's shadow weights, where the soft-prune mode chains through
     the analytic mask derivative and the surgery mode through the frozen
     mask values;
  4. one optimizer update over every parameter at once (Adam by default;
     plain SGD behind a flag);
  5. a mask/statistics refresh from the updated shadow weights, so the next
     forward sees the new effective weights.

Forest heads attach after every backbone layer including the last, whose
width defaults to 2d so it acts as another embedding source; class scores
come only from the forests.
"""

from __future__ import annotations

import csv
import zlib
from dataclasses import dataclass, field, replace
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
from .pruning import (MODE_NONE, PruneConfig, PrunedLayer, apply_mask,
                      mask_grad, new_pruned_layer, refresh_mask)

FOREST = "forest"
SOFTMAX = "softmax"

METHODS = ("fcnn", "dndn", "dnspn", "surgery")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 128
    dropout: float = 0.5
    epochs: int = 20
    seed: int = 0
    prune: PruneConfig = field(default_factory=PruneConfig)
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    optimizer: str = "adam"        # "adam" | "sgd"
    loss_on_fused: bool = False

    def __post_init__(self):
        require_finite(learning_rate=self.learning_rate,
                       adam_beta1=self.adam_beta1, adam_beta2=self.adam_beta2,
                       adam_eps=self.adam_eps)
        if not 0.0 <= self.dropout < 1.0:
            raise ParameterError("dropout must be in [0, 1)")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ParameterError(f"unknown optimizer {self.optimizer!r}")


class AdamState:
    """First/second moment accumulators keyed like the parameter dict."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: int = 0


@dataclass
class Model:
    layers: list[DenseLayer]          # weights here are the shadow weights
    layer_prunes: list[PrunedLayer]   # shadow aliases layers[i].weights
    heads: list[ForestHead]
    head_layers: list[int]            # attachment layer index per head
    proj_prunes: list[PrunedLayer]    # shadow aliases heads[i].proj_w
    task: Task
    kind: str                         # "forest" | "softmax"
    input_dim: int
    scaler: Scaler | None = None      # feature scaler used at training time


def _n_outputs(task: Task) -> int:
    return task.n_classes if task.kind == CLASSIFICATION else 1


def build_forest_model(input_dim: int, task: Task, rng: RngState,
                       trees: int = 10, depth: int = 4, embed_dim: int = 8,
                       output_width: int | None = None,
                       attach: str = "all") -> Model:
    """Backbone d -> 2d -> 2d -> o (o defaults to 2d) with forest heads.

    `attach` is "all" for one head per layer or "last" for a single head on
    the final layer.
    """
    o = output_width if output_width is not None else 2 * input_dim
    layers = network.build_network(input_dim, o, rng)
    widths = [layer.weights.shape[0] for layer in layers]
    head_layers = (list(range(len(layers))) if attach == "all"
                   else [len(layers) - 1])
    heads = [init_head(widths[j], _n_outputs(task), trees, depth, embed_dim,
                       task.kind, rng) for j in head_layers]
    return Model(
        layers=layers,
        layer_prunes=[new_pruned_layer(layer.weights) for layer in layers],
        heads=heads,
        head_layers=head_layers,
        proj_prunes=[new_pruned_layer(h.proj_w) for h in heads],
        task=task,
        kind=FOREST,
        input_dim=input_dim,
    )


def build_softmax_model(input_dim: int, task: Task, rng: RngState) -> Model:
    """Plain backbone whose last layer emits class scores (or one value)."""
    layers = network.build_network(input_dim, _n_outputs(task), rng)
    return Model(
        layers=layers,
        layer_prunes=[new_pruned_layer(layer.weights) for layer in layers],
        heads=[],
        head_layers=[],
        proj_prunes=[],
        task=task,
        kind=SOFTMAX,
        input_dim=input_dim,
    )


def method_model(method: str, input_dim: int, task: Task, rng: RngState,
                 trees: int = 10, depth: int = 4,
                 embed_dim: int = 8) -> tuple[Model, str]:
    """Build the model for a named method; returns (model, prune mode)."""
    if method == "fcnn":
        return build_softmax_model(input_dim, task, rng), "none"
    if method == "dndn":
        return build_forest_model(input_dim, task, rng, trees, depth,
                                  embed_dim), "none"
    if method == "dnspn":
        return build_forest_model(input_dim, task, rng, trees, depth,
                                  embed_dim), "dsp"
    if method == "surgery":
        return build_forest_model(input_dim, task, rng, trees, depth,
                                  embed_dim), "surgery"
    raise UsageError(f"unknown method {method!r}; expected one of {METHODS}")


def method_seed(seed: int, method: str) -> int:
    """Stable per-(seed, method) stream key for parallel comparison cells."""
    return int(RngState(seed).child(zlib.crc32(method.encode())).seed)


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
# Optimizers
# ---------------------------------------------------------------------------

def adam_update(state: AdamState, params: dict[str, np.ndarray],
                grads: dict[str, np.ndarray], cfg: TrainConfig) -> None:
    """One bias-corrected Adam step, updating parameters in place."""
    state.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
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
        p -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + cfg.adam_eps)


def _sgd_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                lr: float) -> None:
    for name, p in params.items():
        p -= lr * grads[name]


def model_params(model: Model) -> dict[str, np.ndarray]:
    """Flat name -> array view of every trainable parameter."""
    params: dict[str, np.ndarray] = {}
    for i, layer in enumerate(model.layers):
        params[f"layer{i}.w"] = layer.weights
        params[f"layer{i}.b"] = layer.bias
    for i, head in enumerate(model.heads):
        params[f"head{i}.proj_w"] = head.proj_w
        params[f"head{i}.proj_b"] = head.proj_b
        params[f"head{i}.routing_w"] = head.routing_w
        params[f"head{i}.routing_b"] = head.routing_b
        params[f"head{i}.leaf"] = head.leaf
    return params


# ---------------------------------------------------------------------------
# Forward / backward over the whole model
# ---------------------------------------------------------------------------

def _effective_layers(model: Model) -> list[DenseLayer]:
    return [DenseLayer(apply_mask(pl), layer.bias, layer.activation)
            for layer, pl in zip(model.layers, model.layer_prunes)]


def _effective_heads(model: Model) -> list[ForestHead]:
    return [replace(head, proj_w=apply_mask(pp))
            for head, pp in zip(model.heads, model.proj_prunes)]


def _forward(model: Model, X: np.ndarray, dropout: float, training: bool,
             rng: RngState | None, masked: bool = True,
             keep_routings: bool = True):
    """Forward pass: (effective layers, effective heads, backbone trace,
    per-head routings, per-head outputs, fused output).

    `masked=False` computes with the shadow weights as they are, which is
    exact when every mask is all ones (prune mode "none"). With
    `keep_routings=False` each head's routing is dropped as soon as its
    output is taken and the routings list comes back empty, so a forward
    that will not be backpropagated holds one head's routing at a time.
    """
    eff_layers = _effective_layers(model) if masked else model.layers
    trace = network.forward(eff_layers, X, dropout, training, rng)
    if model.kind == FOREST:
        eff_heads = _effective_heads(model) if masked else model.heads
        routings = []
        outs = []
        for head, j in zip(eff_heads, model.head_layers):
            r = route(head, trace.dropped[j])
            outs.append(predict_class(head, r)
                        if model.task.kind == CLASSIFICATION
                        else predict_regress(head, r))
            if keep_routings:
                routings.append(r)
            del r
        fused = fuse(outs)
    else:
        eff_heads, routings = [], []
        logits = trace.dropped[-1]
        if model.task.kind == CLASSIFICATION:
            outs = [softmax_rows(logits)]
        else:
            outs = [logits]
        fused = outs[0]
    return eff_layers, eff_heads, trace, routings, outs, fused


def refresh_masks(model: Model, prune: PruneConfig) -> None:
    """Recompute stats and masks for every backbone layer and projection."""
    for pl in model.layer_prunes:
        refresh_mask(pl, prune)
    for pp in model.proj_prunes:
        refresh_mask(pp, prune)


def train_step(model: Model, xb: np.ndarray, yb: np.ndarray,
               cfg: TrainConfig, adam: AdamState,
               rng: RngState | None) -> float:
    """One minibatch update; returns the batch training loss.

    Masks are assumed consistent with the current shadow weights (as left
    by the previous step's refresh or by :func:`refresh_masks`); the step
    ends by refreshing them again from the just-updated weights. In prune
    mode "none" the masks are all ones, so the step neither applies them
    nor chains gradients through them.
    """
    masked = cfg.prune.mode != MODE_NONE
    eff_layers, eff_heads, trace, routings, outs, fused = _forward(
        model, xb, cfg.dropout, True, rng, masked=masked)
    loss_fn = loss_ce if model.task.kind == CLASSIFICATION else loss_mse

    grads: dict[str, np.ndarray] = {}
    upstream: list[np.ndarray | None] = [None] * len(model.layers)

    if model.kind == FOREST:
        K = len(model.heads)
        if cfg.loss_on_fused:
            loss, g_fused = loss_fn(fused, yb)
            head_upstreams = [g_fused / K] * K
        else:
            losses, head_upstreams = [], []
            for out in outs:
                l_i, g_i = loss_fn(out, yb)
                losses.append(l_i)
                head_upstreams.append(g_i / K)
            loss = float(np.mean(losses))
        for i, (head, j, r, g_out) in enumerate(
                zip(eff_heads, model.head_layers, routings, head_upstreams)):
            hg = forest_backward(head, r, trace.dropped[j], g_out)
            grads[f"head{i}.proj_w"] = (
                hg.proj_w * mask_grad(model.proj_prunes[i], cfg.prune)
                if masked else hg.proj_w)
            grads[f"head{i}.proj_b"] = hg.proj_b
            grads[f"head{i}.routing_w"] = hg.routing_w
            grads[f"head{i}.routing_b"] = hg.routing_b
            grads[f"head{i}.leaf"] = hg.leaf
            if upstream[j] is None:
                upstream[j] = hg.activation
            else:
                upstream[j] = upstream[j] + hg.activation
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

    dW, db, _ = network.backward(eff_layers, trace, upstream)
    for i in range(len(model.layers)):
        grads[f"layer{i}.w"] = (
            dW[i] * mask_grad(model.layer_prunes[i], cfg.prune)
            if masked else dW[i])
        grads[f"layer{i}.b"] = db[i]

    params = model_params(model)
    if cfg.optimizer == "adam":
        adam_update(adam, params, grads, cfg)
    else:
        _sgd_update(params, grads, cfg.learning_rate)

    if masked:
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
    """Eval-mode fused prediction (dropout off, masked weights)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ShapeError(
            f"input shape {X.shape} != (n, {model.input_dim})"
        )
    *_, fused = _forward(model, X, 0.0, False, None, keep_routings=False)
    return fused


def _task_metric(model: Model, ds: Dataset, fused: np.ndarray) -> float:
    if model.task.kind == CLASSIFICATION:
        return accuracy(np.argmax(fused, axis=1), ds.y)
    return mse_metric(fused, ds.y)


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
            else:
                eval_loss, _ = loss_mse(fused, eval_set.y)
            metric = _task_metric(model, eval_set, fused)
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
