"""Straightforward forms of the routing kernels, kept as bit-exact references.

`sigmoid_select` is the logistic function as a select on the sign, and
`route` builds each level from temporaries with that sigmoid: the forms the
branch-free kernels replaced. `routing_backward` and `forest_backward` copy
the backward pass, so a later rewrite of it is held to the same bits. The
kernels in `dnspn` must reproduce all of them bit for bit (see
test_bit_identity.py).
"""

import numpy as np

from dnspn.errors import ShapeError
from dnspn.forest import CLASSIFICATION, HeadGrads, RoutingProbs
from dnspn.numeric import softmax_rows


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
    if head.kind == CLASSIFICATION:
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
    return HeadGrads(g_proj_w, g_proj_b, g_routing_w, g_routing_b,
                     g_leaf, g_act)
