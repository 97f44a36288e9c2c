"""Weight-mask machinery: soft (DSP) and hard (surgery) pruning.

Both methods keep the stored "shadow" weights W intact and compute with
effective weights W * T, where T is a mask recomputed from the layer's
current statistics (mu = mean |W|, std = standard deviation of W) at every
training iteration.

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
        if self.beta <= 0 or self.gamma <= 0 or self.r <= 0:
            raise ParameterError("beta, gamma and r must be > 0")
        if self.mode not in MODES:
            raise ParameterError(f"unknown prune mode {self.mode!r}")


@dataclass
class LayerStats:
    mu: float   # mean absolute weight value
    std: float  # population standard deviation of the weights


@dataclass
class PrunedLayer:
    """Shadow weights, their mask, and the stats the mask was built from."""
    shadow: np.ndarray
    mask: np.ndarray
    stats: LayerStats


def layer_stats(w: np.ndarray) -> LayerStats:
    """mu = mean |w|, std = population standard deviation of w's entries."""
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        raise ParameterError("layer_stats of an empty matrix")
    return LayerStats(mu=float(np.mean(np.abs(w))), std=float(np.std(w)))


def new_pruned_layer(shadow: np.ndarray) -> PrunedLayer:
    return PrunedLayer(shadow=shadow, mask=np.ones_like(shadow),
                       stats=layer_stats(shadow))


def dsp_mask(w: np.ndarray, stats: LayerStats, cfg: PruneConfig) -> np.ndarray:
    """Soft mask T = max((alpha/beta)*T~, T~), elementwise over w.

    When mu is 0 there is no magnitude information to prune on; the mask
    falls back to all ones.
    """
    w = np.asarray(w, dtype=np.float64)
    if stats.mu == 0.0:
        return np.ones_like(w)
    ratio = np.abs(w) / (cfg.gamma * stats.mu)
    t_tilde = np.minimum(cfg.r, cfg.beta * np.log(np.maximum(cfg.epsilon, ratio)))
    return np.maximum((cfg.alpha / cfg.beta) * t_tilde, t_tilde)


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
    """Effective weights = shadow * mask; the shadow is never written."""
    if layer.mask.shape != layer.shadow.shape:
        raise ShapeError(
            f"mask shape {layer.mask.shape} != shadow shape {layer.shadow.shape}"
        )
    return layer.shadow * layer.mask


def dsp_mask_grad(w: np.ndarray, stats: LayerStats,
                  cfg: PruneConfig) -> np.ndarray:
    """Elementwise d(w * T(w)) / dw with mu treated as a constant.

    Piecewise by the mask branch active at each entry:
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
        return np.ones_like(w)
    ratio = np.abs(w) / (cfg.gamma * stats.mu)
    log_r = np.log(np.maximum(cfg.epsilon, ratio))
    t_tilde = np.minimum(cfg.r, cfg.beta * log_r)
    scaled = (cfg.alpha / cfg.beta) * t_tilde
    mask = np.maximum(scaled, t_tilde)
    constant = (ratio <= cfg.epsilon) | (cfg.beta * log_r >= cfg.r)
    coeff = np.where(scaled > t_tilde, cfg.alpha, cfg.beta)
    return np.where(constant, mask, coeff * (log_r + 1.0))


def mask_grad(layer: PrunedLayer, cfg: PruneConfig) -> np.ndarray:
    """Backprop multiplier d(effective)/d(shadow) for the active mode."""
    if cfg.mode == MODE_DSP:
        return dsp_mask_grad(layer.shadow, layer.stats, cfg)
    if cfg.mode == MODE_SURGERY:
        return layer.mask
    return np.ones_like(layer.shadow)


def refresh_mask(layer: PrunedLayer, cfg: PruneConfig) -> None:
    """Recompute stats from the current shadow weights, then the mask."""
    layer.stats = layer_stats(layer.shadow)
    if cfg.mode == MODE_DSP:
        layer.mask = dsp_mask(layer.shadow, layer.stats, cfg)
    elif cfg.mode == MODE_SURGERY:
        layer.mask = surgery_mask(layer.shadow, layer.mask, layer.stats, cfg)
    else:
        layer.mask = np.ones_like(layer.shadow)


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
