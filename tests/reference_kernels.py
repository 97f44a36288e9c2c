"""Straightforward forms of the routing kernels, kept as bit-exact references.

`sigmoid_select` is the logistic function as a select on the sign, and
`route` builds each level from temporaries with that sigmoid, over the whole
batch at once: the forms the branch-free, row-blocked kernels replaced.
`head_predict` and `predict` are the head output and the eval forward of a
model over whole-batch routings, and `eval_forward` is the backbone's eval
forward with every layer over the whole batch. `routing_backward` and `forest_backward`
copy the backward pass, so a later rewrite of it is held to the same bits.
`train_forward` and `backbone_backward` are the backbone's training forward
and backward as they were, with a `post` array beside each `dropped` one
and the input batch's gradient taken.
`gradients` is a model's batch loss and gradients as they were taken with
these kernels: every head routed and predicted first, then every head's
backward, the order before a train step took one head at a time, and the
backprop multiplier picked by prune mode, DSP's from the record and the
mask itself otherwise, as before every refresh wrote it.
`layer_stats`, `dsp_pass` and `surgery_mask` are the mask refresh as it was
computed with a temporary for every step and `np.where` selections, before
the refresh became one in-place pass per record.
The kernels in `dnspn` must reproduce all of them bit for bit (see
test_bit_identity.py).

`gen_linear_k` and `gen_quadratic_k` are the two synthetic families as
each was generated by its own function, with the noise step that took a
per-dimension sigma: `dnspn.data.generate` must give their features and
labels bit for bit, and their meta.

`write_json`, `write_csv`, `write_curve` and `load_csv` are the text files
as they were written and read a cell at a time, through `json.dump`,
`csv.writer.writerow` and one `float` per feature cell: the files the
CLI writes must keep their bytes, and a malformed CSV its message.
`write_json` writes a float64 array as its `tolist()`. `load_csv` no
longer refuses a file of one class: the CLI refuses it as training data
only, with the same message.
"""

import csv
import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from dnspn.data import (BASE_DIM, CLASSIFICATION, REGRESSION, Dataset, Task,
                        _column_stats)
from dnspn.errors import (DataError, NumericError, ParameterError,
                          ShapeError, reading)
from dnspn.forest import RoutingProbs
from dnspn.numeric import RngState, softmax_rows
from dnspn.pruning import MODE_DSP, MODE_NONE, LayerStats
from dnspn.training import (FOREST, _softmax_backward, loss_ce, loss_mse,
                            model_params)


def sigmoid_select(x):
    """Numerically stable logistic function; scalar in, scalar out."""
    arr = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    if arr.ndim == 0:
        return float(out)
    return out


def route(head, activation):
    """Compute every leaf's reach probability for a batch of activations."""
    activation = np.asarray(activation, dtype=np.float64)
    if activation.ndim != 2 or activation.shape[1] != head.proj_w.shape[1]:
        raise ShapeError(
            f"activation shape {activation.shape} incompatible with "
            f"projection {head.proj_w.shape}"
        )
    batch = activation.shape[0]
    m, n_nodes, n_leaves = head.trees, head.nodes_per_tree, head.leaves_per_tree

    z = activation @ head.proj_w.T + head.proj_b
    if n_nodes > 0:
        pre = z @ head.routing_w.T + head.routing_b
        decisions = sigmoid_select(pre).reshape(batch, m, n_nodes)
    else:
        decisions = np.zeros((batch, m, 0))

    mu = np.ones((batch, m, 1))
    level_mus = []
    for level in range(head.depth - 1):
        lo = 2 ** level - 1
        hi = 2 ** (level + 1) - 1
        d = decisions[:, :, lo:hi]
        level_mus.append(mu)
        nxt = np.empty((batch, m, 2 ** (level + 1)))
        nxt[:, :, 0::2] = mu * d
        nxt[:, :, 1::2] = mu * (1.0 - d)
        mu = nxt
    p = mu.reshape(batch, m * n_leaves)
    return RoutingProbs(p=p, embedding=z, decisions=decisions,
                        level_mus=level_mus)


def head_predict(head, routing):
    """(1/m) * p @ softmax(leaf) for classification, (1/m) * p @ leaf for
    regression."""
    leaf = softmax_rows(head.leaf) if head.n_outputs > 1 else head.leaf
    return routing.p @ leaf / head.trees


def eval_forward(layers, X):
    """Each layer's eval-mode output, every layer over the whole batch."""
    posts = []
    h = np.asarray(X, dtype=np.float64)
    for layer in layers:
        z = h @ layer.weights.T + layer.bias
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
        posts.append(h)
    return posts


def train_forward(layers, X, dropout, rng):
    """The training forward as it was: each layer's post-activation `post`
    and, beside it, `dropped`, a new array of `post` times the scaled
    inverted-dropout mask on hidden layers (the same object elsewhere).
    Returns (posts, dropped, drop masks)."""
    posts, dropped, masks = [], [], []
    h = np.asarray(X, dtype=np.float64)
    for i, layer in enumerate(layers):
        z = h @ layer.weights.T + layer.bias
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
        if not np.all(np.isfinite(a)):
            raise NumericError(f"non-finite activation at layer {i}")
        mask = None
        h = a
        if dropout > 0.0 and i < len(layers) - 1:
            mask = (rng.random(a.shape) >= dropout) / (1.0 - dropout)
            h = a * mask
        posts.append(a)
        dropped.append(h)
        masks.append(mask)
    return posts, dropped, masks


def backbone_backward(layers, X, posts, dropped, masks, upstream):
    """The backbone backward as it was: the ReLU mask taken from `post`,
    and every layer's input gradient, layer 0's too. Returns (weight
    grads, bias grads, gradient of the input batch)."""
    grads_w, grads_b = [None] * len(layers), [None] * len(layers)
    g_h = np.zeros_like(dropped[-1])
    for i in range(len(layers) - 1, -1, -1):
        if upstream[i] is not None:
            g_h = g_h + np.asarray(upstream[i], dtype=np.float64)
        g_a = g_h * masks[i] if masks[i] is not None else g_h
        if layers[i].activation == "relu":
            g_z = g_a * (posts[i] > 0.0)
        else:
            g_z = g_a
        x_in = np.asarray(X, dtype=np.float64) if i == 0 else dropped[i - 1]
        grads_w[i] = g_z.T @ x_in
        grads_b[i] = g_z.sum(axis=0)
        g_h = g_z @ layers[i].weights
    return grads_w, grads_b, g_h


def predict(model, X):
    """Eval forward of a forest model: masked weights, no dropout, every
    head routed over the whole batch, outputs averaged in head order."""
    acts = []
    h = np.asarray(X, dtype=np.float64)
    for layer, pl in zip(model.layers, model.layer_prunes):
        z = h @ (pl.shadow * pl.mask).T + layer.bias
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
        acts.append(h)
    total = None
    for head, pp, j in zip(model.heads, model.proj_prunes, model.head_layers):
        masked = replace(head, proj_w=pp.shadow * pp.mask)
        out = head_predict(masked, route(masked, acts[j]))
        total = out.copy() if total is None else total + out
    return total / len(model.heads)


def routing_backward(head, routing, g_p):
    """Gradient w.r.t. node decisions from a gradient on leaf probabilities."""
    batch = g_p.shape[0]
    m, n_nodes, n_leaves = head.trees, head.nodes_per_tree, head.leaves_per_tree
    g_dec = np.zeros((batch, m, n_nodes))
    g_mu = g_p.reshape(batch, m, n_leaves)
    for level in range(head.depth - 2, -1, -1):
        lo = 2 ** level - 1
        hi = 2 ** (level + 1) - 1
        d = routing.decisions[:, :, lo:hi]
        mu = routing.level_mus[level]
        g_left = g_mu[:, :, 0::2]
        g_right = g_mu[:, :, 1::2]
        g_dec[:, :, lo:hi] = (g_left - g_right) * mu
        g_mu = g_left * d + g_right * (1.0 - d)
    return g_dec


def forest_backward(head, routing, activation, upstream):
    """Exact gradients of the head's prediction w.r.t. all its parameters."""
    activation = np.asarray(activation, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (routing.p.shape[0], head.n_outputs):
        raise ShapeError(
            f"upstream shape {upstream.shape} != "
            f"({routing.p.shape[0]}, {head.n_outputs})"
        )
    m = head.trees
    if head.n_outputs > 1:
        pi = softmax_rows(head.leaf)
        g_pi = routing.p.T @ upstream / m
        g_leaf = pi * (g_pi - (g_pi * pi).sum(axis=1, keepdims=True))
        g_p = upstream @ pi.T / m
    else:
        g_leaf = routing.p.T @ upstream / m
        g_p = upstream @ head.leaf.T / m

    g_dec = routing_backward(head, routing, g_p)
    batch = activation.shape[0]
    d_flat = routing.decisions.reshape(batch, -1)
    g_pre = g_dec.reshape(batch, -1) * d_flat * (1.0 - d_flat)
    if head.nodes_per_tree > 0:
        g_routing_w = g_pre.T @ routing.embedding
        g_routing_b = g_pre.sum(axis=0)
        g_z = g_pre @ head.routing_w
    else:
        g_routing_w = np.zeros_like(head.routing_w)
        g_routing_b = np.zeros_like(head.routing_b)
        g_z = np.zeros_like(routing.embedding)
    g_proj_w = g_z.T @ activation
    g_proj_b = g_z.sum(axis=0)
    g_act = g_z @ head.proj_w
    return g_proj_w, g_proj_b, g_routing_w, g_routing_b, g_leaf, g_act


def gradients(model, xb, yb, cfg, rng):
    """The batch training loss and its gradients in `model_params` order:
    the backbone forward, every head's route and output, every head's loss,
    then every head's backward in head order, the backbone backward and
    the mask chain."""
    posts, dropped, masks = train_forward(model.layers, xb, cfg.dropout, rng)
    classify = model.task.kind == CLASSIFICATION
    head_grads = []
    upstream = [None] * len(model.layers)
    if model.kind == FOREST:
        routings = [route(head, dropped[j])
                    for head, j in zip(model.heads, model.head_layers)]
        outs = [head_predict(head, r) for head, r in zip(model.heads,
                                                          routings)]
        loss_fn = loss_ce if classify else loss_mse
        per_head = [loss_fn(out, yb) for out in outs]
        loss = float(np.mean([l_i for l_i, _ in per_head]))
        for head, j, r, (_, g_i) in zip(model.heads, model.head_layers,
                                        routings, per_head):
            *g_head, g_act = forest_backward(head, r, dropped[j],
                                             g_i / len(outs))
            head_grads += g_head
            upstream[j] = g_act if upstream[j] is None else upstream[j] + g_act
    elif classify:
        fused = softmax_rows(dropped[-1])
        loss, g_probs = loss_ce(fused, yb)
        upstream[-1] = _softmax_backward(fused, g_probs)
    else:
        loss, upstream[-1] = loss_mse(dropped[-1], yb)
    if not np.isfinite(loss):
        raise NumericError(
            f"non-finite training loss {loss!r} (batch size {len(xb)}); "
            "check the data scale and learning rate"
        )
    dW, db, _ = backbone_backward(model.layers, xb, posts, dropped, masks,
                                  upstream)
    grads = [g for pair in zip(dW, db) for g in pair] + head_grads
    if cfg.prune.mode == MODE_NONE:
        return loss, grads
    field = "multiplier" if cfg.prune.mode == MODE_DSP else "mask"
    return loss, [g if pl is None else g * getattr(pl, field)
                  for g, (_, pl) in zip(grads, model_params(model),
                                        strict=True)]


def layer_stats(w):
    """mu = mean |w|, std = population standard deviation of w's entries."""
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        raise ParameterError("layer_stats of an empty matrix")
    return LayerStats(mu=float(np.mean(np.abs(w))), std=float(np.std(w)))


def dsp_pass(w, stats, cfg):
    """The soft mask and its multiplier d(w * T(w))/dw with mu constant."""
    w = np.asarray(w, dtype=np.float64)
    if stats.mu == 0.0:
        ones = np.ones_like(w)
        return ones, ones
    ratio = np.abs(w) / (cfg.gamma * stats.mu)
    log_r = np.log(np.maximum(cfg.epsilon, ratio))
    grow = cfg.beta * log_r
    t_tilde = np.minimum(cfg.r, grow)
    scaled = (cfg.alpha / cfg.beta) * t_tilde
    mask = np.maximum(scaled, t_tilde)
    constant = (ratio <= cfg.epsilon) | (grow >= cfg.r)
    coeff = np.where(scaled > t_tilde, cfg.alpha, cfg.beta)
    return mask, np.where(constant, mask, coeff * (log_r + 1.0))


def surgery_mask(w, prev_mask, stats, cfg):
    """Hard three-band mask around omega = mu + surgery_eta * std."""
    w = np.asarray(w, dtype=np.float64)
    prev_mask = np.asarray(prev_mask, dtype=np.float64)
    if prev_mask.shape != w.shape:
        raise ShapeError(
            f"prev_mask shape {prev_mask.shape} != weight shape {w.shape}"
        )
    omega = stats.mu + cfg.surgery_eta * stats.std
    aw = np.abs(w)
    return np.where(aw < 0.9 * omega, 0.0,
                    np.where(aw < 1.1 * omega, prev_mask, 1.0))


def refresh_mask(layer, cfg):
    """The mask refresh of one record, from the kernels above, with the
    mask itself as the multiplier but under DSP."""
    stats = layer_stats(layer.shadow)
    if cfg.mode == "dsp":
        layer.mask, layer.multiplier = dsp_pass(layer.shadow, stats, cfg)
    elif cfg.mode == "surgery":
        layer.mask = layer.multiplier = surgery_mask(layer.shadow, layer.mask,
                                                     stats, cfg)
    else:
        layer.mask = layer.multiplier = np.ones_like(layer.shadow)
        layer.effective = layer.shadow


def _noisy(clean, sigma, rng):
    """`clean` plus N(0, sigma^2) noise, sigma a scalar or one a column."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.all(sigma == 0):
        return clean.copy()
    return clean + rng.normal(clean.shape[0], clean.shape[1], 0.0, 1.0) * sigma


def _binary(X, y, meta):
    return Dataset(X=X, y=y, meta=meta, task=Task(
        kind=CLASSIFICATION, n_classes=2, labels=["0", "1"]))


def gen_linear_k(spec):
    """linear-k: subset, map coefficients, clean features, then noise."""
    rng = RngState(spec.seed)
    dims = np.sort(rng.permutation(BASE_DIM)[: spec.k])
    w = rng.normal(1, spec.k)[0]
    b = float(rng.normal(1, 1)[0, 0])
    clean = rng.normal(spec.n_train + spec.n_test, BASE_DIM, 0.0, 1.0)
    y = (clean[:, dims] @ w + b > 0).astype(np.int64)
    X = _noisy(clean, spec.sigma, rng)
    meta = {**asdict(spec), "dims": dims.tolist(), "w": w.tolist(), "b": b}
    return _binary(X, y, meta)


def gen_quadratic_k(spec):
    """quadratic-k: labels from sign(w1 . x1^2 + w2 . x2 + b)."""
    rng = RngState(spec.seed)
    dims1 = np.sort(rng.permutation(BASE_DIM)[: spec.k])
    dims2 = np.sort(rng.permutation(BASE_DIM)[: spec.k])
    w1 = rng.normal(1, spec.k)[0]
    w2 = rng.normal(1, spec.k)[0]
    b = float(rng.normal(1, 1)[0, 0])
    clean = rng.normal(spec.n_train + spec.n_test, BASE_DIM, 0.0, 1.0)
    score = clean[:, dims1] ** 2 @ w1 + clean[:, dims2] @ w2 + b
    y = (score > 0).astype(np.int64)
    X = _noisy(clean, spec.sigma, rng)
    meta = {**asdict(spec), "dims1": dims1.tolist(), "dims2": dims2.tolist(),
            "w1": w1.tolist(), "w2": w2.tolist(), "b": b}
    return _binary(X, y, meta)


def _tolist(obj):
    """A float64 array as `json.dump` writes its `tolist()`."""
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64:
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    "serializable")


def write_json(path, doc):
    """A JSON file: sorted keys, indent 1, newline; a float64 array is
    written as its `tolist()`."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1, default=_tolist)
        fh.write("\n")


def write_csv(path, ds):
    """Write features f0..f{d-1} plus a final `label` column."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(ds.d)] + ["label"])
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.X[i]]
            if ds.task.kind == CLASSIFICATION:
                name = (ds.task.labels[ds.y[i]] if ds.task.labels
                        else str(int(ds.y[i])))
                row.append(name)
            else:
                row.append(repr(float(ds.y[i])))
            writer.writerow(row)


def write_curve(path, table):
    """A `mask-curve` CSV of the (w, mask, effective) rows of `table`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["w", "mask", "effective"])
        for row in table:
            writer.writerow([repr(float(v)) for v in row])


def load_csv(path, label_column, task_kind):
    """Load a headered numeric CSV, mapping labels to dense indices."""
    if task_kind not in (CLASSIFICATION, REGRESSION):
        raise ParameterError(f"unknown task kind {task_kind!r}")
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with reading(path, "dataset file"), open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty dataset file: {path}") from None
        header = [h.strip() for h in header]
        repeated = next((h for i, h in enumerate(header)
                         if h in header[:i]), None)
        if repeated is not None:
            raise DataError(f"dataset file {path} repeats the column name "
                            f"{repeated!r} in its header")
        if isinstance(label_column, int) or (
                isinstance(label_column, str) and label_column.lstrip("-").isdigit()
                and label_column not in header):
            idx = int(label_column)
            if not -len(header) <= idx < len(header):
                raise DataError(f"label column index {idx} out of range "
                                f"for the {len(header)} columns of {path}")
            label_idx = idx % len(header)
        else:
            if label_column not in header:
                raise DataError(f"label column {label_column!r} not in the "
                                f"header of {path}")
            label_idx = header.index(label_column)

        feat_idx = [i for i in range(len(header)) if i != label_idx]
        if not feat_idx:
            raise DataError(f"dataset file {path} has no feature column, "
                            f"only the label column {header[label_idx]!r}")
        rows, labels, bad = [], [], []
        for rownum, row in enumerate(reader, start=2):   # 1-based incl. header
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                bad.append(f"row {rownum}: expected {len(header)} cells, "
                           f"got {len(row)}")
                continue
            feats = []
            for i in feat_idx:
                try:
                    v = float(row[i])
                except ValueError:
                    bad.append(f"row {rownum}: column {header[i]!r} value "
                               f"{row[i]!r} is not numeric")
                    break
                if not math.isfinite(v):
                    bad.append(f"row {rownum}: column {header[i]!r} is "
                               "non-finite")
                    break
                feats.append(v)
            if len(feats) < len(feat_idx):
                continue
            label_cell = row[label_idx].strip()
            if not label_cell:
                bad.append(f"row {rownum}: label is empty")
                continue
            if task_kind == REGRESSION:
                try:
                    target = float(label_cell)
                except ValueError:
                    bad.append(f"row {rownum}: label {label_cell!r} is not "
                               "numeric")
                    continue
                if not math.isfinite(target):
                    bad.append(f"row {rownum}: label is non-finite")
                    continue
                labels.append(target)
            else:
                labels.append(label_cell)
            rows.append(feats)
    if bad:
        raise DataError("malformed rows in " + str(path) + ": "
                        + "; ".join(bad[:10]))
    if not rows:
        raise DataError(f"dataset has no data rows: {path}")

    X = np.asarray(rows, dtype=np.float64)
    _column_stats(X, str(path))
    if task_kind == REGRESSION:
        y = np.asarray(labels, dtype=np.float64)
        return Dataset(X=X, y=y, task=Task(kind=REGRESSION))
    names = sorted(set(labels))
    mapping = {name: i for i, name in enumerate(names)}
    y = np.asarray([mapping[v] for v in labels], dtype=np.int64)
    return Dataset(X=X, y=y,
                   task=Task(kind=CLASSIFICATION, n_classes=len(names),
                             labels=names))
