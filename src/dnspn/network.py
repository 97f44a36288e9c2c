"""Fully-connected backbone: construction, forward traces, and backprop.

The backbone follows a width rule of d -> 2d -> 2d -> o. Hidden layers use
ReLU, the final layer is linear, and inverted dropout (train-time scaling by
1/(1-rate)) is applied to hidden activations only. Forward passes return
a :class:`ForwardTrace` of every layer's output, which is where downstream
consumers (decision-forest heads) attach.

Weight matrices are stored as (out x in); a batch flows as (batch x features).

Who runs which rows: one kernel, :func:`_dense`, computes a layer for
any rows. An eval forward (`training=False`) runs its leading wide
layers, those whose output width is a multiple of 8 and at least WIDE,
in contiguous row blocks of about ROUTE_BLOCK_BYTES of the widest of
them, with at least WIDE rows a block. Each block takes its rows through
all of those layers into each layer's full-height `dropped` array;
:func:`dnspn.numeric.run_blocks` runs the blocks. Every layer from the
first other one on runs on the caller over the whole batch, as does
every training forward, so training stays single-threaded, and so does
an eval forward whose blocks would not give each of two or more threads
two blocks (every one-row and 128-row predict of the paper model).

Why the width rule and the row floor: OpenBLAS picks its kernel and
its sum order by the shape of a product, so a row block of `x @ W.T`
need not have the bits of the same rows of the full-height product.
In a survey of OpenBLAS 0.3.31 (README, "Reproducibility notes"),
blocks of 64 rows or more matched for every output width that is a
multiple of 8 and at least 64, and not for other widths. So only such
layers run in blocks, and the bit-identity tests are the guard for
another BLAS.

Errors: the serial forward raises at the first bad layer, either numpy's
`FloatingPointError` under an `errstate` that raises, or NumericError
for a non-finite activation. Blocks run layers out of order, so a block
could meet a deeper layer's error first. So the blocks run under an
`errstate` that raises where the caller's does not ignore, and a block
that raises or sees a non-finite activation sends the caller back, once
every block begun has ended, to the serial forward over the whole batch,
which raises (or warns) exactly as it always did.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .numeric import RngState, _block_count, block_threads, run_blocks

RELU = "relu"
IDENTITY = "identity"

# Narrowest output, and fewest rows a block, with which an eval forward
# runs a layer in row blocks; the output width must also be a multiple
# of 8 (see "Why the width rule and the row floor" above)
WIDE = 64


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
    """One array a layer: `dropped[i]` is layer i's output, its activation
    times `drop_masks[i]`, the scaled inverted-dropout mask, in place where
    that is not None."""
    x: np.ndarray
    dropped: list[np.ndarray] = field(default_factory=list)
    drop_masks: list[np.ndarray | None] = field(default_factory=list)


def _dense(layers: list[DenseLayer], i: int, h: np.ndarray,
           out: np.ndarray) -> np.ndarray:
    """Layer i's activation of the rows `h`, computed in `out`: `h @ W.T`,
    then the bias and any ReLU in place; NumericError if not finite."""
    layer = layers[i]
    np.matmul(h, layer.weights.T, out=out)
    out += layer.bias
    if layer.activation == RELU:
        np.maximum(out, 0.0, out=out)
    if not np.isfinite(out).all():
        raise NumericError(f"non-finite activation at layer {i}")
    return out


def forward(layers: list[DenseLayer], x: np.ndarray, dropout_rate: float = 0.0,
            training: bool = False, rng: RngState | None = None) -> ForwardTrace:
    """Run the stack on a batch, recording every layer's output.

    Dropout is applied to hidden activations only, and only when
    `training` is true with a positive rate. An eval forward of enough
    rows runs its leading wide layers in row blocks over threads (see "Who
    runs which rows" above), with the bits of the serial forward, whose
    errors it raises: it is what runs when any block fails.
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
    if not training:
        _wide_forward(layers, trace)
    for i in range(len(trace.dropped), len(layers)):
        a = _dense(layers, i, trace.dropped[i - 1] if i else x,
                   np.empty((len(x), layers[i].weights.shape[0])))
        mask = None
        if use_dropout and i < len(layers) - 1:
            mask = (rng.random(a.shape) >= dropout_rate) / (1.0 - dropout_rate)
            a *= mask
        trace.dropped.append(a)
        trace.drop_masks.append(mask)
    return trace


def _wide_forward(layers: list[DenseLayer], trace: ForwardTrace) -> None:
    """Record the outputs of the leading layers whose width is a multiple
    of 8 and at least WIDE, run in row blocks over threads, when the batch
    gives each of two or more threads two blocks of at least WIDE rows.
    Record nothing otherwise, or when a block raises or meets a non-finite
    activation: the serial loop then runs from the first layer."""
    widths = [layer.weights.shape[0] for layer in layers]
    wide = next((i for i, w in enumerate(widths) if w < WIDE or w % 8),
                len(widths))
    if not wide:
        return
    rows = trace.x.shape[0]
    n = _block_count(rows, 8 * max(widths[:wide]), WIDE)
    threads = block_threads(n, 2)
    if threads < 2:
        return
    outs = [np.empty((rows, width)) for width in widths[:wide]]

    def forward_block(lo: int, hi: int) -> None:
        h = trace.x[lo:hi]
        for i, out in enumerate(outs):
            h = _dense(layers, i, h, out[lo:hi])

    strict = {kind: "ignore" if mode == "ignore" else "raise"
              for kind, mode in np.geterr().items()}
    try:
        with np.errstate(**strict):
            run_blocks(rows, n, forward_block, threads)
    except (FloatingPointError, NumericError):
        return
    trace.dropped += outs
    trace.drop_masks += [None] * len(outs)


def backward(layers: list[DenseLayer], trace: ForwardTrace,
             upstream: list[np.ndarray | None]):
    """Exact reverse-mode gradients of the traced forward pass: (weight
    grads, bias grads); the input batch's gradient is not taken.

    `upstream[i]` is dLoss/d(dropped[i]); entries may be None and several
    may be set at once (one consumer per attached head), in which case
    contributions are summed by the chain rule. The ReLU subgradient at 0
    is taken as 0. The ReLU mask is `dropped[i] > 0`: where dropout zeroed
    an output its gradient is already +-0, and elsewhere dropout's scale
    is positive.
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
        g_z = g_h if mask is None else g_h * mask
        if layers[i].activation == RELU:
            g_z = g_z * (trace.dropped[i] > 0.0)
        x_in = trace.x if i == 0 else trace.dropped[i - 1]
        grads_w[i] = g_z.T @ x_in
        grads_b[i] = g_z.sum(axis=0)
        if i:
            g_h = g_z @ layers[i].weights
    return grads_w, grads_b
