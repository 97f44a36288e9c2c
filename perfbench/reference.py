"""Reference computations the benchmark checks the program against.

Everything here is written apart from `dnspn`: it reads a model's arrays
(shadow weights, masks, head parameters) but recomputes masks, forwards,
leaf-reach probabilities, labels and metrics with its own code, so a fault
in the program's version shows as a mismatch instead of being copied.
"""

from __future__ import annotations

import numpy as np


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow for large |x|."""
    return np.exp(-np.logaddexp(0.0, -x))


# ---------------------------------------------------------------------------
# Masks
# ---------------------------------------------------------------------------

def dsp_mask(w: np.ndarray, alpha: float, beta: float, gamma: float,
             r: float, epsilon: float) -> np.ndarray:
    """The DSP mask written branch by branch from its definition.

    With mu = mean |w| and L = log(max(epsilon, |w| / (gamma mu))):
    T~ = r where beta L > r, else beta L; T = (alpha / beta) T~ where
    T~ < 0 (the decaying branch), else T~. mu = 0 gives an all-ones mask.
    """
    w = np.asarray(w, dtype=np.float64)
    mu = float(np.abs(w).mean())
    if mu == 0.0:
        return np.ones_like(w)
    log_ratio = np.log(np.clip(np.abs(w) / (gamma * mu), epsilon, None))
    t_tilde = np.where(beta * log_ratio > r, r, beta * log_ratio)
    return np.where(t_tilde < 0.0, (alpha / beta) * t_tilde, t_tilde)


def surgery_omega(w: np.ndarray, eta: float) -> float:
    """omega = mean |w| + eta * population std of w."""
    w = np.asarray(w, dtype=np.float64)
    mean = w.mean()
    std = np.sqrt(((w - mean) ** 2).mean())
    return float(np.abs(w).mean() + eta * std)


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------

def leaf_reach(decisions: np.ndarray, trees: int, depth: int) -> np.ndarray:
    """Leaf-reach probabilities by explicit root-to-leaf path products.

    `decisions` is (n, trees * nodes) in the program's breadth-first node
    order: node i has children 2i+1 (left, taken with probability d) and
    2i+2 (right, 1 - d); leaf j's path is the bits of j, most significant
    first, 0 meaning left. Returns (n, trees * leaves).
    """
    n = decisions.shape[0]
    nodes = 2 ** (depth - 1) - 1
    leaves = 2 ** (depth - 1)
    p = np.ones((n, trees * leaves))
    for t in range(trees):
        for j in range(leaves):
            node = 0
            for level in range(depth - 1):
                right = (j >> (depth - 2 - level)) & 1
                d = decisions[:, t * nodes + node]
                p[:, t * leaves + j] *= (1.0 - d) if right else d
                node = 2 * node + 1 + right
    return p


def backbone(model, X: np.ndarray) -> list[np.ndarray]:
    """Eval-mode activations of every layer, with weights shadow * mask."""
    h = np.asarray(X, dtype=np.float64)
    acts = []
    for layer, pruned in zip(model.layers, model.layer_prunes):
        z = h @ (pruned.shadow * pruned.mask).T + layer.bias
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
        acts.append(h)
    return acts


def head_reach(model, acts: list[np.ndarray]) -> list[np.ndarray]:
    """Leaf-reach probabilities of every head, from backbone activations."""
    out = []
    for head, j, proj in zip(model.heads, model.head_layers,
                             model.proj_prunes):
        emb = acts[j] @ (proj.shadow * proj.mask).T + head.proj_b
        dec = logistic(emb @ head.routing_w.T + head.routing_b)
        out.append(leaf_reach(dec, head.trees, head.depth))
    return out


def forward(model, X: np.ndarray):
    """Fused class distribution of a classification model (dropout off).

    Softmax models read the last layer through a softmax. Forest models
    average, over heads, the routing-weighted mean of each tree's leaf
    softmax. Returns (distribution, per-head leaf-reach probabilities).
    """
    acts = backbone(model, X)
    if model.kind == "softmax":
        return softmax(acts[-1]), []
    reach = head_reach(model, acts)
    outs = [p @ softmax(head.leaf) / head.trees
            for head, p in zip(model.heads, reach)]
    return sum(outs) / len(outs), reach


# ---------------------------------------------------------------------------
# Labels and metrics
# ---------------------------------------------------------------------------

def standardize(X: np.ndarray, mean: np.ndarray,
                std: np.ndarray) -> np.ndarray:
    """z-scores with the given statistics; zero-variance columns give 0."""
    out = np.zeros_like(X)
    keep = std > 0
    out[:, keep] = (X[:, keep] - mean[keep]) / std[keep]
    return out


def cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    return float(-np.mean(np.log(np.maximum(probs[np.arange(len(y)), y],
                                            1e-300))))


def linear_labels(X: np.ndarray, meta: dict) -> tuple[np.ndarray, np.ndarray]:
    """Labels of a noiseless linear-k set, x[dims] . w + b > 0, and scores."""
    score = X[:, meta["dims"]] @ np.asarray(meta["w"]) + meta["b"]
    return (score > 0).astype(np.int64), score


def accuracy(probs: np.ndarray, y: np.ndarray) -> float:
    return float(np.count_nonzero(np.argmax(probs, axis=1) == y)) / len(y)


def majority_rate(y: np.ndarray) -> float:
    return float(np.bincount(y).max()) / len(y)


def auc_pairs(scores: np.ndarray, y: np.ndarray, chunk: int = 256) -> float:
    """Binary ROC-AUC by counting (positive, negative) pairs, ties half."""
    pos = scores[y == 1]
    neg = scores[y == 0]
    wins = 0.0
    for start in range(0, len(pos), chunk):
        block = pos[start:start + chunk, None]
        wins += np.count_nonzero(block > neg) + 0.5 * np.count_nonzero(
            block == neg)
    return wins / (len(pos) * len(neg))

