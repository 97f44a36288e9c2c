"""Fully-connected backbone: construction, forward traces, and backprop.

The backbone follows a width rule of d -> 2d -> 2d -> o. Hidden layers use
ReLU, the final layer is linear, and inverted dropout (train-time scaling by
1/(1-rate)) is applied to hidden post-activations only. Forward passes return
a :class:`ForwardTrace` exposing every layer's post-activation output, which
is where downstream consumers (decision-forest heads) attach.

Weight matrices are stored as (out x in); a batch flows as (batch x features).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .numeric import RngState

RELU = "relu"
IDENTITY = "identity"


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray     # (out,)
    activation: str      # "relu" | "identity"


def build_network(d: int, o: int, rng: RngState) -> list[DenseLayer]:
    """Build the d -> 2d -> 2d -> o stack with He-scaled Gaussian weights.

    Weights start as N(0, 2/fan_in) draws, biases at zero; hidden layers get
    ReLU, the final layer stays linear.
    """
    if d < 1 or o < 1:
        raise ParameterError("network dims must be >= 1")
    widths = [d, 2 * d, 2 * d, o]
    layers = []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        w = rng.normal(fan_out, fan_in, 0.0, np.sqrt(2.0 / fan_in))
        b = np.zeros(fan_out)
        act = IDENTITY if i == len(widths) - 2 else RELU
        layers.append(DenseLayer(w, b, act))
    return layers


@dataclass
class ForwardTrace:
    """Per-layer activations of one forward pass.

    `post[i]` is layer i's post-activation output; `dropped[i]` is the same
    tensor after dropout (identical object when dropout was not applied).
    `drop_masks[i]` holds the scaled inverted-dropout mask or None.
    """
    x: np.ndarray
    post: list[np.ndarray] = field(default_factory=list)
    dropped: list[np.ndarray] = field(default_factory=list)
    drop_masks: list[np.ndarray | None] = field(default_factory=list)


def forward(layers: list[DenseLayer], x: np.ndarray, dropout_rate: float = 0.0,
            training: bool = False, rng: RngState | None = None) -> ForwardTrace:
    """Run the stack on a batch, recording every layer's outputs.

    Dropout is applied to hidden post-activations only, and only when
    `training` is true with a positive rate. In eval mode the trace's
    `dropped` entries alias `post` exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layers[0].weights.shape[1]:
        raise ShapeError(
            f"input shape {x.shape} incompatible with first layer "
            f"{layers[0].weights.shape}"
        )
    if not 0.0 <= dropout_rate < 1.0:
        raise ParameterError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
    use_dropout = training and dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ParameterError("training-mode dropout requires an RngState")

    trace = ForwardTrace(x=x)
    h = x
    for i, layer in enumerate(layers):
        z = h @ layer.weights.T + layer.bias
        a = np.maximum(z, 0.0) if layer.activation == RELU else z
        if not np.all(np.isfinite(a)):
            raise NumericError(f"non-finite activation at layer {i}")
        if use_dropout and i < len(layers) - 1:
            mask = (rng.random(a.shape) >= dropout_rate) / (1.0 - dropout_rate)
            dropped = a * mask
        else:
            mask = None
            dropped = a
        trace.post.append(a)
        trace.dropped.append(dropped)
        trace.drop_masks.append(mask)
        h = dropped
    return trace


def backward(layers: list[DenseLayer], trace: ForwardTrace,
             upstream: list[np.ndarray | None]):
    """Exact reverse-mode gradients of the traced forward pass.

    `upstream[i]` is dLoss/d(dropped activation of layer i); entries may be
    None and several may be set at once (one consumer per attached head),
    in which case contributions are summed by the chain rule. The ReLU
    subgradient at 0 is taken as 0.

    Returns (weight grads, bias grads, grad w.r.t. the input batch).
    """
    n_layers = len(layers)
    if len(upstream) != n_layers:
        raise ShapeError(
            f"upstream list length {len(upstream)} != layer count {n_layers}"
        )
    grads_w: list[np.ndarray | None] = [None] * n_layers
    grads_b: list[np.ndarray | None] = [None] * n_layers

    g_h = np.zeros_like(trace.dropped[-1])
    for i in range(n_layers - 1, -1, -1):
        if upstream[i] is not None:
            u = np.asarray(upstream[i], dtype=np.float64)
            if u.shape != trace.dropped[i].shape:
                raise ShapeError(
                    f"upstream[{i}] shape {u.shape} != activation shape "
                    f"{trace.dropped[i].shape}"
                )
            g_h = g_h + u
        mask = trace.drop_masks[i]
        g_a = g_h * mask if mask is not None else g_h
        if layers[i].activation == RELU:
            g_z = g_a * (trace.post[i] > 0.0)
        else:
            g_z = g_a
        x_in = trace.x if i == 0 else trace.dropped[i - 1]
        grads_w[i] = g_z.T @ x_in
        grads_b[i] = g_z.sum(axis=0)
        g_h = g_z @ layers[i].weights
    return grads_w, grads_b, g_h
