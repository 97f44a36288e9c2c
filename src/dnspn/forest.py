"""Differentiable decision-forest heads with stochastic routing.

A head owns m trees of depth h attached to one backbone layer. The layer's
activation is first mapped through a learned linear projection to a small
embedding; every internal tree node is then a sigmoid unit over that shared
embedding. A sample's probability of reaching a leaf is the product of node
decisions along the root-to-leaf path (d for a left branch, 1-d for a right
branch), so each tree's leaf probabilities always sum to 1.

Leaves carry free logits. A head's output width is its task: a head with
two or more outputs is a classifier, which reads its leaves through a row
softmax, giving output = (1/m) * p @ softmax(leaf); a head with one output
is a regressor, which uses the raw leaf values with the same weighted
average. All parameters are trained jointly by exact reverse-mode
gradients (see :func:`forest_backward`).

Where the leaf softmax lives: in one read-only memo on the head, with a
private copy of the leaf bits it came from (:func:`_leaf_probs`), which
:func:`predict_class` and :func:`forest_backward` both read. It is
recomputed only when `head.leaf` holds other bits (an optimizer step, a
replaced array, an edit in place, a loaded model): once a head per train
step, whose forward misses after the last Adam update and whose backward
hits, and never for repeated `predict` calls on fixed leaves.

Node layout: a head stores its internal nodes tree by tree, each tree in
breadth-first order, so node i has children 2i+1 and 2i+2, and leaf j's
path is the bit pattern of j read from the most significant of h-1 bits
(0 = left). `routing_w`, `routing_b` and `model.json` keep this tree-major
order. Routing and its backward work in level-major order instead: the
decision columns run by (level, tree, node in level), so each level is one
contiguous (rows, trees * 2^level) block, and the level products and their
gradients run as one long pass per level rather than one short row per
tree. The tree-major leaves of `p` are already the last level in this
order. :func:`_level_order` gives the permutation; a route applies it to
the smaller operand of the routing matmul: the routing rows when the batch
has at least embed_dim rows, the pre-activation columns otherwise, so a
one-row predict permutes one row of pre-activations, not embed_dim
columns of weights. Both give the same bits. The backward takes its
pre-activation gradient back to tree-major order once, before the three
contractions, so they sum in the same order as over tree-major nodes.

Row blocks: :func:`route` runs the tree-sized stage (the routing matmul,
the sigmoid and the level products) in one loop over row blocks, each
writing its rows of one full-height `p`. A training route is one block,
whose factors the backward keeps; an eval route takes near-equal blocks of
about ROUTE_BLOCK_BYTES of decisions, so a deep forest's passes stay in L2
in place of streaming (batch, trees * nodes) arrays through L3. The
projection before that stage and the leaf contraction after it stay
full-height, because OpenBLAS sums those products in an order that depends
on the row count, and per-block results could differ in the last bit. The
routing matmul, whose inner dimension is the small embedding, gives the
same bits in any row block and with either operand permuted (README,
"Reproducibility notes"); the bit-identity tests hold it to that.

Who runs which rows: an eval route of two or more blocks hands its
blocks, in row order, to :func:`dnspn.numeric.run_blocks`. The blocks are
those of a serial route, no block reads another's rows or writes outside
its own rows of `p`, so `p` has the same bits at any worker count; the
full-height projection and leaf contraction stay on the caller. A
training route and a one-block eval route (every one-row predict) run on
the caller alone, so training stays single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .data import CLASSIFICATION, REGRESSION
from .errors import ShapeError, UsageError, ParameterError
from .numeric import (ROUTE_BLOCK_BYTES, RngState, _block_count,
                      block_threads, run_blocks, sigmoid, softmax_rows)

# Most leaves (trees * 2^(depth-1)) a head may have; its leaf matrix and
# leaf reach grow with them. 16x the largest forest in use, 32 of depth 6.
MAX_LEAVES = 2 ** 14

# Widest embedding a head may have; its projection holds embed_dim rows of
# the layer's width. 128x the 8 in use.
MAX_EMBED = 2 ** 10

# A head's trainable arrays, in the order forest_backward returns them
HEAD_PARAMS = ("proj_w", "proj_b", "routing_w", "routing_b", "leaf")


@dataclass
class ForestHead:
    trees: int
    depth: int
    embed_dim: int
    proj_w: np.ndarray        # (embed_dim, layer_width)
    proj_b: np.ndarray        # (embed_dim,)
    routing_w: np.ndarray     # (trees * nodes_per_tree, embed_dim)
    routing_b: np.ndarray     # (trees * nodes_per_tree,)
    leaf: np.ndarray          # (trees * leaves_per_tree, n_outputs)
    # (a copy of the leaves' raw bytes, their read-only softmax); see
    # :func:`_leaf_probs`
    _leaf_memo: tuple | None = field(default=None, init=False, repr=False,
                                     compare=False)

    @property
    def nodes_per_tree(self) -> int:
        return 2 ** (self.depth - 1) - 1

    @property
    def leaves_per_tree(self) -> int:
        return 2 ** (self.depth - 1)

    @property
    def n_outputs(self) -> int:
        return self.leaf.shape[1]


def check_shape(trees: int, depth: int, embed_dim: int) -> None:
    """Reject, by name, a forest shape setting below 1, an embedding wider
    than MAX_EMBED, or a shape that gives a head more than MAX_LEAVES
    leaves."""
    for name, value in (("trees", trees), ("depth", depth),
                        ("embed_dim", embed_dim)):
        if value < 1:
            raise ParameterError(f"{name} must be >= 1, got {value}")
    if embed_dim > MAX_EMBED:
        raise ParameterError(f"embed_dim must be <= {MAX_EMBED}, got "
                             f"{embed_dim}")
    max_depth = MAX_LEAVES.bit_length()   # deeper, one tree has too many
    if depth > max_depth:
        raise ParameterError(f"depth must be <= {max_depth} (at most "
                             f"{MAX_LEAVES} leaves a head), got {depth}")
    if trees << (depth - 1) > MAX_LEAVES:
        raise ParameterError(
            f"trees must be <= {MAX_LEAVES >> (depth - 1)} at depth {depth} "
            f"(at most {MAX_LEAVES} leaves a head), got {trees}")


def init_head(layer_width: int, n_outputs: int, trees: int, depth: int,
              embed_dim: int, rng: RngState, *,
              kind: str | None = None) -> ForestHead:
    """Randomly initialize one head of `n_outputs` outputs: a regressor
    for one, a classifier for more. A `kind`, where a caller names one,
    must agree with them.

    Projection weights are He-scaled like backbone layers; routing weights
    use a 1/sqrt(embed_dim) scale so initial decisions stay near 0.5; leaf
    logits start as small Gaussians so trees begin diverse but the softmax
    stays close to uniform.
    """
    check_shape(trees, depth, embed_dim)
    if kind not in (None, CLASSIFICATION if n_outputs > 1 else REGRESSION):
        raise ParameterError(f"a {kind} head cannot have {n_outputs} outputs")
    n_nodes = trees * (2 ** (depth - 1) - 1)
    n_leaves = trees * 2 ** (depth - 1)
    proj_w = rng.normal(embed_dim, layer_width, 0.0, np.sqrt(2.0 / layer_width))
    proj_b = np.zeros(embed_dim)
    routing_w = (rng.normal(n_nodes, embed_dim, 0.0, 1.0 / np.sqrt(embed_dim))
                 if n_nodes else np.zeros((0, embed_dim)))
    routing_b = np.zeros(n_nodes)
    leaf = rng.normal(n_leaves, n_outputs, 0.0, 0.5)
    return ForestHead(trees, depth, embed_dim, proj_w, proj_b, routing_w,
                      routing_b, leaf)


@dataclass
class RoutingProbs:
    """Leaf-reach probabilities plus the factors needed for backprop.

    `p[b, t*L + j]` is sample b's probability of reaching leaf j of tree t;
    each tree's block sums to 1 per sample. `decisions` holds the sigmoid
    node outputs and `complements` their 1 - d, both (batch, trees *
    nodes_per_tree) in level-major column order (see :func:`_level_order`);
    `level_mus` holds the partial path products entering each depth level,
    shaped (batch, trees, 2^level). An eval route leaves them out (None and
    empty). The leaf softmax is not kept here; it lives on the head.
    """
    p: np.ndarray
    embedding: np.ndarray
    decisions: np.ndarray | None = None
    complements: np.ndarray | None = None
    level_mus: list[np.ndarray] = field(default_factory=list)


@lru_cache(maxsize=None)
def _level_order(trees: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, inverse) of a forest's internal nodes: `order[c]` is the
    tree-major index of level-major column c, with columns run by (level,
    tree, node in level), and `inverse` maps back. Both are read-only."""
    levels = np.repeat(np.arange(depth - 1), 2 ** np.arange(depth - 1))
    order = np.argsort(np.tile(levels, trees), kind="stable")
    inverse = np.argsort(order)
    order.flags.writeable = inverse.flags.writeable = False
    return order, inverse


def _decisions(w: np.ndarray, b: np.ndarray, z: np.ndarray,
               cols: np.ndarray | None) -> np.ndarray:
    """Node decisions (rows, nodes) of embedding rows z through routing rows
    w and b, with the pre-activation columns taken in order `cols` first
    when it is given."""
    pre = z @ w.T
    pre += b
    if cols is not None:
        pre = np.take(pre, cols, axis=1)
    return sigmoid(pre, out=pre)


def _descend(decisions: np.ndarray, out: np.ndarray, trees: int,
             kept: RoutingProbs | None = None) -> None:
    """Write the leaf-reach products of level-major `decisions` (rows,
    trees * nodes) into `out` (rows, trees * leaves). The decisions, their
    complements and the partial product that enters each level are stored
    on `kept` when it is given; otherwise they go with the block, so an
    eval route holds one block's temporaries at a time."""
    rows = decisions.shape[0]
    complements = 1.0 - decisions
    if kept is not None:
        kept.decisions, kept.complements = decisions, complements
    depth = (out.shape[1] // trees).bit_length()
    mu = np.ones((rows, trees))
    if depth == 1:
        out[...] = mu
    for level in range(depth - 1):
        width = trees << level
        lo = width - trees
        if kept is not None:
            kept.level_mus.append(mu.reshape(rows, trees, 1 << level))
        nxt = out if level == depth - 2 else np.empty((rows, 2 * width))
        np.multiply(mu, decisions[:, lo:lo + width], out=nxt[:, 0::2])
        np.multiply(mu, complements[:, lo:lo + width], out=nxt[:, 1::2])
        mu = nxt


def route(head: ForestHead, activation: np.ndarray,
          keep_factors: bool = True) -> RoutingProbs:
    """Compute every leaf's reach probability for a batch of activations.

    With `keep_factors` (the training forward) the whole batch is one
    block, and the result also holds its decisions, their complements and
    the level products the backward needs. Without it the batch runs in
    :func:`_block_count` blocks, and only `p` and `embedding` are kept.

    An eval route of two or more blocks runs them through
    :func:`dnspn.numeric.run_blocks` (see "Who runs which rows" above).
    """
    activation = np.asarray(activation, dtype=np.float64)
    if activation.ndim != 2 or activation.shape[1] != head.proj_w.shape[1]:
        raise ShapeError(
            f"activation shape {activation.shape} incompatible with "
            f"projection {head.proj_w.shape}"
        )
    batch = activation.shape[0]
    m, n_leaves = head.trees, head.leaves_per_tree

    z = activation @ head.proj_w.T + head.proj_b
    order, _ = _level_order(m, head.depth)
    if batch < head.embed_dim:
        w, b, cols = head.routing_w, head.routing_b, order
    else:
        w, b, cols = (np.take(head.routing_w, order, axis=0),
                      np.take(head.routing_b, order), None)
    routing = RoutingProbs(np.empty((batch, m * n_leaves)), z)
    n = 1 if keep_factors else _block_count(batch, 8 * m * head.nodes_per_tree)
    if n == 1:
        _descend(_decisions(w, b, z, cols), routing.p, m,
                 routing if keep_factors else None)
        return routing
    p = routing.p

    def route_block(lo: int, hi: int) -> None:
        _descend(_decisions(w, b, z[lo:hi], cols), p[lo:hi], m)

    run_blocks(batch, n, route_block, block_threads(n))
    return routing


def _leaf_probs(head: ForestHead) -> np.ndarray:
    """The head's one leaf softmax: read-only, memoized on `head`, and
    recomputed when `head.leaf` no longer holds the bits it was taken
    from. The head's shape fixes the leaves' shape, so the bits alone
    tell."""
    raw = head.leaf.tobytes()
    if head._leaf_memo is None or head._leaf_memo[0] != raw:
        probs = softmax_rows(head.leaf)
        probs.flags.writeable = False
        head._leaf_memo = (raw, probs)
    return head._leaf_memo[1]


def predict_class(head: ForestHead, routing: RoutingProbs) -> np.ndarray:
    """Average per-tree class distributions: (1/m) * p @ softmax(leaf).

    The softmax is the head's memo (see :func:`_leaf_probs`), for a
    training routing and an eval one alike; the backward reads the same."""
    if head.n_outputs < 2:
        raise UsageError("predict_class called on a non-classification head")
    return routing.p @ _leaf_probs(head) / head.trees


def predict_regress(head: ForestHead, routing: RoutingProbs) -> np.ndarray:
    """Average per-tree leaf values: (1/m) * p @ leaf, no softmax."""
    if head.n_outputs != 1:
        raise UsageError("predict_regress called on a non-regression head")
    return routing.p @ head.leaf / head.trees


def _routing_backward(head: ForestHead, routing: RoutingProbs,
                      g_p: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. node pre-activations, in the level-major order of
    `routing.decisions`, from a gradient on leaf probabilities."""
    m = head.trees
    decisions, complements = routing.decisions, routing.complements
    g_pre = np.empty_like(decisions)
    g_mu = g_p
    for level in range(head.depth - 2, -1, -1):
        width = m << level
        lo = width - m
        g_left, g_right = g_mu[:, 0::2], g_mu[:, 1::2]
        g_dec = g_pre[:, lo:lo + width]
        np.subtract(g_left, g_right, out=g_dec)
        g_dec *= routing.level_mus[level].reshape(-1, width)
        if level:
            g_mu = g_left * decisions[:, lo:lo + width]
            g_mu += g_right * complements[:, lo:lo + width]
    # the sigmoid derivative, in the order (g * d) * (1 - d)
    g_pre *= decisions
    g_pre *= complements
    return g_pre


def forest_backward(head: ForestHead, routing: RoutingProbs,
                    activation: np.ndarray,
                    upstream: np.ndarray) -> tuple[np.ndarray, ...]:
    """Exact gradients of the head's prediction w.r.t. all its parameters.

    `upstream` is dLoss/d(prediction), shaped (batch, k) for classification
    or (batch, 1) for regression. Returns a plain tuple: the gradients of
    the arrays in HEAD_PARAMS order (projection, routing units, leaf logits
    through the row softmax for classification), then the gradient of the
    feeding activation.
    """
    activation = np.asarray(activation, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (routing.p.shape[0], head.n_outputs):
        raise ShapeError(
            f"upstream shape {upstream.shape} != "
            f"({routing.p.shape[0]}, {head.n_outputs})"
        )
    m = head.trees
    if head.n_outputs > 1:
        pi = _leaf_probs(head)
        g_pi = routing.p.T @ upstream / m
        g_leaf = pi * (g_pi - (g_pi * pi).sum(axis=1, keepdims=True))
        g_p = upstream @ pi.T
    else:
        g_leaf = routing.p.T @ upstream / m
        g_p = upstream @ head.leaf.T
    g_p /= m

    _, inverse = _level_order(m, head.depth)
    g_pre = np.take(_routing_backward(head, routing, g_p), inverse, axis=1)
    g_routing_w = g_pre.T @ routing.embedding
    g_routing_b = g_pre.sum(axis=0)
    g_z = g_pre @ head.routing_w
    g_proj_w = g_z.T @ activation
    g_proj_b = g_z.sum(axis=0)
    g_act = g_z @ head.proj_w
    return g_proj_w, g_proj_b, g_routing_w, g_routing_b, g_leaf, g_act
