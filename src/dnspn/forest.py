"""Differentiable decision-forest heads with stochastic routing.

A head owns m trees of depth h attached to one backbone layer. The layer's
activation is first mapped through a learned linear projection to a small
embedding; every internal tree node is then a sigmoid unit over that shared
embedding. A sample's probability of reaching a leaf is the product of node
decisions along the root-to-leaf path (d for a left branch, 1-d for a right
branch), so each tree's leaf probabilities always sum to 1.

Leaves carry free logits. Classification reads them through a row softmax,
giving output = (1/m) * p @ softmax(leaf); regression uses the raw leaf
values with the same weighted average. All parameters are trained jointly
by exact reverse-mode gradients (see :func:`forest_backward`).

Node layout: internal nodes are stored per tree in breadth-first order, so
node i has children 2i+1 and 2i+2, and leaf j's path is the bit pattern of
j read from the most significant of h-1 bits (0 = left).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, UsageError, ParameterError
from .numeric import RngState, sigmoid, softmax_rows

CLASSIFICATION = "classification"
REGRESSION = "regression"


@dataclass
class ForestHead:
    trees: int
    depth: int
    embed_dim: int
    kind: str                 # "classification" | "regression"
    proj_w: np.ndarray        # (embed_dim, layer_width)
    proj_b: np.ndarray        # (embed_dim,)
    routing_w: np.ndarray     # (trees * nodes_per_tree, embed_dim)
    routing_b: np.ndarray     # (trees * nodes_per_tree,)
    leaf: np.ndarray          # (trees * leaves_per_tree, n_outputs)

    @property
    def nodes_per_tree(self) -> int:
        return 2 ** (self.depth - 1) - 1

    @property
    def leaves_per_tree(self) -> int:
        return 2 ** (self.depth - 1)

    @property
    def n_outputs(self) -> int:
        return self.leaf.shape[1]


def init_head(layer_width: int, n_outputs: int, trees: int, depth: int,
              embed_dim: int, kind: str, rng: RngState) -> ForestHead:
    """Randomly initialize one head.

    Projection weights are He-scaled like backbone layers; routing weights
    use a 1/sqrt(embed_dim) scale so initial decisions stay near 0.5; leaf
    logits start as small Gaussians so trees begin diverse but the softmax
    stays close to uniform.
    """
    if trees < 1 or depth < 1 or embed_dim < 1:
        raise ParameterError("trees, depth and embed_dim must be >= 1")
    if kind not in (CLASSIFICATION, REGRESSION):
        raise ParameterError(f"unknown head kind {kind!r}")
    if kind == CLASSIFICATION and n_outputs < 2:
        raise ParameterError("classification heads need n_outputs >= 2")
    if kind == REGRESSION and n_outputs != 1:
        raise ParameterError("regression heads have a single output")
    n_nodes = trees * (2 ** (depth - 1) - 1)
    n_leaves = trees * 2 ** (depth - 1)
    proj_w = rng.normal(embed_dim, layer_width, 0.0, np.sqrt(2.0 / layer_width))
    proj_b = np.zeros(embed_dim)
    if n_nodes > 0:
        routing_w = rng.normal(n_nodes, embed_dim, 0.0, 1.0 / np.sqrt(embed_dim))
        routing_b = np.zeros(n_nodes)
    else:
        routing_w = np.zeros((0, embed_dim))
        routing_b = np.zeros(0)
    leaf = rng.normal(n_leaves, n_outputs, 0.0, 0.5)
    return ForestHead(trees, depth, embed_dim, kind,
                      proj_w, proj_b, routing_w, routing_b, leaf)


@dataclass
class RoutingProbs:
    """Leaf-reach probabilities plus the factors needed for backprop.

    `p[b, t*L + j]` is sample b's probability of reaching leaf j of tree t;
    each tree's block sums to 1 per sample. `decisions` holds the sigmoid
    node outputs shaped (batch, trees, nodes_per_tree) and `level_mus` the
    partial path products entering each depth level.
    """
    p: np.ndarray
    embedding: np.ndarray
    decisions: np.ndarray
    level_mus: list[np.ndarray] = field(default_factory=list)


def route(head: ForestHead, activation: np.ndarray) -> RoutingProbs:
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
        decisions = sigmoid(pre).reshape(batch, m, n_nodes)
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
        np.multiply(mu, d, out=nxt[:, :, 0::2])
        np.multiply(mu, 1.0 - d, out=nxt[:, :, 1::2])
        mu = nxt
    p = mu.reshape(batch, m * n_leaves)
    return RoutingProbs(p=p, embedding=z, decisions=decisions,
                        level_mus=level_mus)


def predict_class(head: ForestHead, routing: RoutingProbs) -> np.ndarray:
    """Average per-tree class distributions: (1/m) * p @ softmax(leaf)."""
    if head.kind != CLASSIFICATION:
        raise UsageError("predict_class called on a non-classification head")
    pi = softmax_rows(head.leaf)
    return routing.p @ pi / head.trees


def predict_regress(head: ForestHead, routing: RoutingProbs) -> np.ndarray:
    """Average per-tree leaf values: (1/m) * p @ leaf, no softmax."""
    if head.kind != REGRESSION:
        raise UsageError("predict_regress called on a non-regression head")
    return routing.p @ head.leaf / head.trees


@dataclass
class HeadGrads:
    proj_w: np.ndarray
    proj_b: np.ndarray
    routing_w: np.ndarray
    routing_b: np.ndarray
    leaf: np.ndarray
    activation: np.ndarray


def _routing_backward(head: ForestHead, routing: RoutingProbs,
                      g_p: np.ndarray) -> np.ndarray:
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


def forest_backward(head: ForestHead, routing: RoutingProbs,
                    activation: np.ndarray,
                    upstream: np.ndarray) -> HeadGrads:
    """Exact gradients of the head's prediction w.r.t. all its parameters.

    `upstream` is dLoss/d(prediction), shaped (batch, k) for classification
    or (batch, 1) for regression. Returns gradients for the projection,
    routing units, leaf logits (through the row softmax for classification),
    and the feeding activation.
    """
    activation = np.asarray(activation, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (routing.p.shape[0], head.n_outputs):
        raise ShapeError(
            f"upstream shape {upstream.shape} != "
            f"({routing.p.shape[0]}, {head.n_outputs})"
        )
    m = head.trees
    if head.kind == CLASSIFICATION:
        pi = softmax_rows(head.leaf)
        g_pi = routing.p.T @ upstream / m
        g_leaf = pi * (g_pi - (g_pi * pi).sum(axis=1, keepdims=True))
        g_p = upstream @ pi.T / m
    else:
        g_leaf = routing.p.T @ upstream / m
        g_p = upstream @ head.leaf.T / m

    g_dec = _routing_backward(head, routing, g_p)
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
    return HeadGrads(g_proj_w, g_proj_b, g_routing_w, g_routing_b,
                     g_leaf, g_act)
