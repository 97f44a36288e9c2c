"""Weight-mask machinery: soft (DSP) and hard (surgery) pruning.

Both methods keep the stored "shadow" weights W intact and compute with
effective weights W * T, where T is a mask recomputed from the layer's
current statistics (mu = mean |W|, std = standard deviation of W) at every
training iteration. A layer's record keeps W * T; see :func:`apply_mask`.

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
    d(shadow * mask)/d(shadow): the one the last DSP refresh computed, or
    before any refresh the mask itself (the multiplier of a fixed mask),
    and the effective weights shadow * mask. While the mask is all ones (a
    new record, mode "none") those are the shadow array itself."""
    shadow: np.ndarray
    mask: np.ndarray
    multiplier: np.ndarray
    effective: np.ndarray


def layer_stats(w: np.ndarray) -> LayerStats:
    """mu = mean |w|, std = population standard deviation of w's entries."""
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        raise ParameterError("layer_stats of an empty matrix")
    return LayerStats(mu=float(np.mean(np.abs(w))), std=float(np.std(w)))


def new_pruned_layer(shadow: np.ndarray,
                     mask: np.ndarray | None = None) -> PrunedLayer:
    """A mask record over `shadow`, all ones unless `mask` is given."""
    if mask is None:
        ones = np.ones_like(shadow)
        return PrunedLayer(shadow, ones, multiplier=ones, effective=shadow)
    return PrunedLayer(shadow, mask, multiplier=mask, effective=shadow * mask)


def _dsp_pass(w: np.ndarray, stats: LayerStats,
              cfg: PruneConfig) -> tuple[np.ndarray, np.ndarray]:
    """The soft mask T = max((alpha/beta)*T~, T~) and its multiplier
    d(w * T(w))/dw with mu treated as a constant, elementwise over w.

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
    """
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


def dsp_mask(w: np.ndarray, stats: LayerStats, cfg: PruneConfig) -> np.ndarray:
    """Soft mask T = max((alpha/beta)*T~, T~), elementwise over w."""
    return _dsp_pass(w, stats, cfg)[0]


def dsp_mask_grad(w: np.ndarray, stats: LayerStats,
                  cfg: PruneConfig) -> np.ndarray:
    """Elementwise d(w * T(w)) / dw with mu treated as a constant."""
    return _dsp_pass(w, stats, cfg)[1]


def surgery_mask(w: np.ndarray, prev_mask: np.ndarray, stats: LayerStats,
                 cfg: PruneConfig) -> np.ndarray:
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


def apply_mask(layer: PrunedLayer) -> np.ndarray:
    """Write the effective weights shadow * mask (in place, unless they
    were the shadow itself) and return them, after each change of the mask
    or the shadow; inference only reads them. The shadow is never written."""
    if layer.mask.shape != layer.shadow.shape:
        raise ShapeError(
            f"mask shape {layer.mask.shape} != shadow shape {layer.shadow.shape}"
        )
    out = None if layer.effective is layer.shadow else layer.effective
    layer.effective = np.multiply(layer.shadow, layer.mask, out=out)
    return layer.effective


def mask_grad(layer: PrunedLayer, cfg: PruneConfig) -> np.ndarray:
    """Backprop multiplier d(effective)/d(shadow): in DSP mode the one
    stored by the last refresh, in surgery mode the mask itself."""
    return layer.multiplier if cfg.mode == MODE_DSP else layer.mask


def refresh_mask(layer: PrunedLayer, cfg: PruneConfig) -> None:
    """Recompute the mask (and in DSP mode its multiplier) from the
    current shadow weights and their stats; then :func:`apply_mask` writes
    the effective weights, but for mode "none", where they are the shadow."""
    stats = layer_stats(layer.shadow)
    if cfg.mode == MODE_DSP:
        layer.mask, layer.multiplier = _dsp_pass(layer.shadow, stats, cfg)
    elif cfg.mode == MODE_SURGERY:
        layer.mask = surgery_mask(layer.shadow, layer.mask, stats, cfg)
    else:
        layer.mask = np.ones_like(layer.shadow)
        layer.effective = layer.shadow


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
