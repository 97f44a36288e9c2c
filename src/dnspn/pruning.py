"""Weight-mask machinery: soft (DSP) and hard (surgery) pruning.

Both methods keep the stored "shadow" weights W intact and compute with
effective weights W * T, where T is a mask recomputed from the layer's
current statistics (mu = mean |W|, std = standard deviation of W) at every
training iteration. Only surgery reads std. A layer's record keeps W * T
in one array for its whole life, the array the layer computes with; see
:func:`apply_mask`.

The refresh (:func:`refresh_mask`) is one pass over each record: it takes
|W| once, mu from it, std only in surgery mode, and writes each step in
place into temporaries of its own call, so a DSP refresh allocates four
float arrays, not a dozen. It gives the same bits as computing every step
into a new array with ``np.where`` selections, a form kept in the tests.

The soft mask is a clipped logarithmic curve of the magnitude ratio
|w| / (gamma * mu):

    T~ = min(r, beta * log(max(epsilon, |w| / (gamma * mu))))
    T  = max((alpha / beta) * T~, T~)

so weight pairs near the threshold decay smoothly instead of snapping to
zero, and even fully decayed weights keep a small nonzero mask value
(alpha * log(epsilon) with the defaults), which keeps their gradient alive
and lets them recover. The formula is applied verbatim, including the small
negative values it produces just below the threshold.

The surgery mask is the three-band indicator around omega = mu + eta * std:
0 below 0.9*omega, unchanged inside the band, 1 above 1.1*omega. Its
backprop multiplier is the mask value itself, so zeroed weights stop
learning entirely; contrast that with the soft mask, whose multiplier is
nonzero everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .numeric import require_finite

MODE_NONE = "none"
MODE_DSP = "dsp"
MODE_SURGERY = "surgery"
MODES = (MODE_NONE, MODE_DSP, MODE_SURGERY)


@dataclass
class PruneConfig:
    alpha: float = 1e-4
    beta: float = 1.0
    gamma: float = 1.0
    r: float = 1.0
    epsilon: float = 1e-12
    surgery_eta: float = 0.1
    mode: str = MODE_NONE

    def __post_init__(self):
        require_finite(alpha=self.alpha, beta=self.beta, gamma=self.gamma,
                       r=self.r, epsilon=self.epsilon,
                       surgery_eta=self.surgery_eta)
        if self.epsilon <= 0:
            raise ParameterError("epsilon must be > 0")
        for name in ("beta", "gamma", "r"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be > 0")
        if self.mode not in MODES:
            raise ParameterError(f"unknown prune mode {self.mode!r}")


@dataclass
class LayerStats:
    mu: float   # mean absolute weight value
    std: float  # population standard deviation of the weights


@dataclass
class PrunedLayer:
    """Shadow weights, their mask, the backprop multiplier
    d(shadow * mask)/d(shadow) and the effective weights shadow * mask.
    The multiplier is the one the last refresh wrote: under DSP its own
    array, in the other modes and before any refresh the mask itself (the
    multiplier of a fixed mask).

    `effective` is one array for the record's whole life: the array it was
    made over, which the layer or head holds and computes with. While the
    mask is all ones (a new record, mode "none") the shadow is that array
    too. The first masked :func:`apply_mask` gives the shadow an array of
    its own, once, and a mode-"none" refresh copies it back and aliases the
    two again; so a reader of the shadow array reads it after a refresh."""
    shadow: np.ndarray
    mask: np.ndarray
    multiplier: np.ndarray
    effective: np.ndarray


def _abs_and_mu(w: np.ndarray) -> tuple[np.ndarray, float]:
    """|w| in a fresh array, and mu = mean |w| as ``np.mean`` computes it:
    the pairwise sum of the entries over their count."""
    if w.size == 0:
        raise ParameterError("layer_stats of an empty matrix")
    aw = np.abs(w)
    return aw, float(np.add.reduce(aw, axis=None) / aw.size)


def layer_stats(w: np.ndarray) -> LayerStats:
    """mu = mean |w|, std = population standard deviation of w's entries."""
    w = np.asarray(w, dtype=np.float64)
    return LayerStats(mu=_abs_and_mu(w)[1], std=float(np.std(w)))


def new_pruned_layer(shadow: np.ndarray,
                     mask: np.ndarray | None = None) -> PrunedLayer:
    """A mask record over `shadow`, all ones unless `mask` is given. The
    array passed in is the record's effective array: with a mask, the
    record keeps a copy as its shadow and writes shadow * mask into it."""
    if mask is None:
        ones = np.ones_like(shadow)
        return PrunedLayer(shadow, ones, multiplier=ones, effective=shadow)
    pl = PrunedLayer(shadow, mask, multiplier=mask, effective=shadow)
    apply_mask(pl)
    return pl


def _dsp_pass(aw: np.ndarray, mu: float,
              cfg: PruneConfig) -> tuple[np.ndarray, np.ndarray]:
    """The soft mask T = max((alpha/beta)*T~, T~) and its multiplier
    d(w * T(w))/dw with mu treated as a constant, elementwise over
    aw = |w|, a fresh array of the caller's that the pass overwrites.

    When mu is 0 there is no magnitude information to prune on; the mask
    falls back to all ones. The multiplier is piecewise by the mask branch
    active at each entry:
      * log argument clamped at epsilon, or T~ saturated at r: the mask is
        locally constant, so the derivative is the mask value itself. In
        the clamped region that value is nonzero, which is what lets fully
        decayed weights recover.
      * decaying branch (T = alpha * log ratio): product rule gives
        alpha * (log ratio + 1).
      * growing branch (T = beta * log ratio): beta * (log ratio + 1).
    At branch boundaries the derivative of the branch the formula selects
    at that point is used.

    Each step writes in place into a temporary of this call: besides aw,
    the pass allocates three float arrays (two of them the results) and
    three boolean ones, and at mu 0 two separate arrays of ones. The
    branch coefficient is selected without a data-dependent branch, by
    blending the bits of alpha and beta: whether the decaying branch wins
    flips from entry to entry, and a per-entry select mispredicts on it.
    """
    if mu == 0.0:
        return np.ones_like(aw), np.ones_like(aw)
    ratio = np.divide(aw, cfg.gamma * mu, out=aw)
    constant = ratio <= cfg.epsilon
    log_r = np.log(np.maximum(cfg.epsilon, ratio, out=ratio), out=ratio)
    grow = cfg.beta * log_r
    constant |= grow >= cfg.r
    t_tilde = np.minimum(cfg.r, grow, out=grow)
    scaled = (cfg.alpha / cfg.beta) * t_tilde
    decaying = scaled > t_tilde
    mask = np.maximum(scaled, t_tilde, out=scaled)
    # alpha's bits where decaying, beta's elsewhere: 0 or (a ^ b), then ^ b
    a, b = np.array([cfg.alpha, cfg.beta]).view(np.int64)
    bits = decaying.astype(np.int64)
    bits *= a ^ b
    bits ^= b
    coeff = bits.view(np.float64)
    multiplier = np.multiply(coeff, np.add(log_r, 1.0, out=log_r), out=coeff)
    np.copyto(multiplier, mask, where=constant)
    return mask, multiplier


def _surgery_pass(aw: np.ndarray, prev_mask: np.ndarray,
                  omega: float) -> np.ndarray:
    """The three-band mask over aw = |w|: 0 below 0.9*omega, prev_mask
    inside the band, 1 at or above 1.1*omega, and 1 where aw is NaN.

    aw >= 0, and 0.9*omega <= 1.1*omega whenever omega >= 0, so an entry
    below 0.9*omega is also below 1.1*omega; for a negative omega no entry
    is below either. So the mask is 1 wherever aw < 1.1*omega fails (NaN
    included), 0 elsewhere, and prev_mask in the band.
    """
    low = aw < 0.9 * omega
    below = aw < 1.1 * omega
    mask = (~below).astype(np.float64)
    np.copyto(mask, prev_mask, where=below & ~low)
    return mask


def dsp_mask(w: np.ndarray, stats: LayerStats, cfg: PruneConfig) -> np.ndarray:
    """Soft mask T = max((alpha/beta)*T~, T~), elementwise over w."""
    return _dsp_pass(np.abs(np.asarray(w, dtype=np.float64)), stats.mu,
                     cfg)[0]


def surgery_mask(w: np.ndarray, prev_mask: np.ndarray, stats: LayerStats,
                 cfg: PruneConfig) -> np.ndarray:
    """Hard three-band mask around omega = mu + surgery_eta * std."""
    w = np.asarray(w, dtype=np.float64)
    prev_mask = np.asarray(prev_mask, dtype=np.float64)
    if prev_mask.shape != w.shape:
        raise ShapeError(
            f"prev_mask shape {prev_mask.shape} != weight shape {w.shape}"
        )
    return _surgery_pass(np.abs(w), prev_mask,
                         stats.mu + cfg.surgery_eta * stats.std)


def apply_mask(layer: PrunedLayer) -> np.ndarray:
    """Write the effective weights shadow * mask in place and return them,
    after each change of the mask or the shadow; inference only reads them.
    While the two are one array, the shadow first moves to a copy of its
    own, so the effective array stays the one the layer holds. The shadow's
    values are never written."""
    if layer.mask.shape != layer.shadow.shape:
        raise ShapeError(
            f"mask shape {layer.mask.shape} != shadow shape {layer.shadow.shape}"
        )
    if layer.effective is layer.shadow:
        layer.shadow = layer.shadow.copy()
    return np.multiply(layer.shadow, layer.mask, out=layer.effective)


def mask_grad(layer: PrunedLayer) -> np.ndarray:
    """Backprop multiplier d(effective)/d(shadow), as the last refresh
    stored it (see :class:`PrunedLayer`)."""
    return layer.multiplier


def refresh_mask(layer: PrunedLayer, cfg: PruneConfig) -> None:
    """Recompute the mask and its backprop multiplier from the current
    shadow weights in one pass over the record; then :func:`apply_mask`
    writes the effective weights, but for mode "none", where the shadow's
    values move back into the effective array and the two are one array
    again. The multiplier is DSP's own; in surgery mode and mode "none"
    it is the mask itself, one array with it, as for a new record.

    The pass takes |w| once, mu from it, and the std only in surgery mode,
    the one mode that reads it. It writes fresh arrays, never the record's
    old ones."""
    if cfg.mode == MODE_NONE:
        layer.mask = layer.multiplier = np.ones_like(layer.shadow)
        if layer.effective is not layer.shadow:
            np.copyto(layer.effective, layer.shadow)
            layer.shadow = layer.effective
        return
    aw, mu = _abs_and_mu(layer.shadow)
    if cfg.mode == MODE_DSP:
        layer.mask, layer.multiplier = _dsp_pass(aw, mu, cfg)
    else:
        omega = mu + cfg.surgery_eta * float(np.std(layer.shadow))
        layer.mask = layer.multiplier = _surgery_pass(aw, layer.mask, omega)


def mask_curve(cfg: PruneConfig, stats: LayerStats,
               w_samples: np.ndarray) -> np.ndarray:
    """Pointwise (w, mask, effective) table for plotting the active mode.

    Surgery rows are computed with a fresh all-ones previous mask, which
    places the jump discontinuity at |w| = 0.9 * omega.
    """
    w = np.asarray(w_samples, dtype=np.float64).reshape(-1, 1)
    if cfg.mode == MODE_SURGERY:
        h = surgery_mask(w, np.ones_like(w), stats, cfg)
    else:
        h = dsp_mask(w, stats, cfg)
    return np.column_stack([w.ravel(), h.ravel(), (w * h).ravel()])
