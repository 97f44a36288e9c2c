import math

import numpy as np
import pytest

from conftest import dsp_mask_grad
from dnspn.errors import ParameterError, ShapeError
from dnspn.pruning import (LayerStats, PruneConfig, apply_mask, dsp_mask,
                           layer_stats, mask_curve, mask_grad,
                           new_pruned_layer, refresh_mask, surgery_mask)


def stats_for(mu, std=0.0):
    return LayerStats(mu=mu, std=std)


class TestLayerStats:
    def test_hand_computation(self):
        s = layer_stats(np.array([[1.0, -1.0]]))
        assert s.mu == 1.0
        assert s.std == 1.0   # population std about the mean 0

    def test_all_zero(self):
        s = layer_stats(np.zeros((3, 3)))
        assert s.mu == 0.0 and s.std == 0.0

    def test_singleton(self):
        s = layer_stats(np.array([[-2.5]]))
        assert s.mu == 2.5 and s.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            layer_stats(np.zeros((0, 3)))


class TestDspMask:
    def test_threshold_point_gives_zero(self):
        cfg = PruneConfig(mode="dsp")
        t = dsp_mask(np.array([[0.7, -0.7]]), stats_for(0.7), cfg)
        assert np.allclose(t, 0.0, atol=1e-15)

    def test_ratio_e_gives_one(self):
        cfg = PruneConfig(mode="dsp")
        w = np.array([[math.e * 0.3]])
        t = dsp_mask(w, stats_for(0.3), cfg)
        assert np.allclose(t, 1.0, atol=1e-12)

    def test_zero_weight_clamped_value(self):
        cfg = PruneConfig(mode="dsp")
        t = dsp_mask(np.array([[0.0]]), stats_for(1.0), cfg)
        # alpha * ln(epsilon) = 1e-4 * ln(1e-12)
        assert t[0, 0] == pytest.approx(1e-4 * math.log(1e-12), abs=1e-15)
        assert t[0, 0] == pytest.approx(-0.0027631, abs=1e-7)

    def test_mu_zero_fallback_all_ones(self):
        cfg = PruneConfig(mode="dsp")
        t = dsp_mask(np.zeros((2, 2)), stats_for(0.0), cfg)
        assert np.array_equal(t, np.ones((2, 2)))

    def test_bounds_default_config(self, rng):
        cfg = PruneConfig(mode="dsp")
        w = rng.normal(50, 50) * 10
        t = dsp_mask(w, layer_stats(w), cfg)
        lo = cfg.alpha * math.log(cfg.epsilon)
        assert np.all(t >= lo - 1e-15)
        assert np.all(t <= cfg.r + 1e-15)

    def test_scale_covariance(self, rng):
        # scaling all weights (and therefore mu) leaves the mask unchanged
        cfg = PruneConfig(mode="dsp")
        w = rng.normal(10, 10)
        t1 = dsp_mask(w, layer_stats(w), cfg)
        t2 = dsp_mask(1000.0 * w, layer_stats(1000.0 * w), cfg)
        assert np.allclose(t1, t2, atol=1e-12)


class TestSurgeryMask:
    cfg = PruneConfig(mode="surgery", surgery_eta=0.5)

    def test_band_behavior(self):
        stats = stats_for(1.0, 1.0)     # omega = 1.5
        omega = 1.5
        w = np.array([[0.5 * omega, omega, 2.0 * omega]])
        prev = np.array([[1.0, 1.0, 0.0]])
        t = surgery_mask(w, prev, stats, self.cfg)
        assert t[0, 0] == 0.0          # below 0.9 omega
        assert t[0, 1] == 1.0          # in band: keeps prev
        assert t[0, 2] == 1.0          # above 1.1 omega
        prev0 = np.array([[0.0, 0.0, 0.0]])
        t0 = surgery_mask(w, prev0, stats, self.cfg)
        assert t0[0, 1] == 0.0         # in band: keeps prev=0

    def test_idempotent_on_unchanged_weights(self, rng):
        w = rng.normal(8, 8)
        stats = layer_stats(w)
        t1 = surgery_mask(w, np.ones_like(w), stats, self.cfg)
        t2 = surgery_mask(w, t1, stats, self.cfg)
        assert np.array_equal(t1, t2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            surgery_mask(np.ones((2, 2)), np.ones((2, 3)),
                         stats_for(1.0, 0.0), self.cfg)


class TestApplyMask:
    def test_identity_mask(self, rng):
        pl = new_pruned_layer(rng.normal(4, 4))
        assert np.array_equal(apply_mask(pl), pl.shadow)

    def test_zero_mask(self, rng):
        pl = new_pruned_layer(rng.normal(4, 4))
        pl.mask = np.zeros_like(pl.shadow)
        assert np.all(apply_mask(pl) == 0.0)

    def test_elementwise_product(self):
        pl = new_pruned_layer(np.array([[2.0, -3.0]]),
                              np.array([[0.5, 0.0]]))
        assert np.array_equal(apply_mask(pl), np.array([[1.0, 0.0]]))

    def test_shadow_never_mutated(self, rng):
        shadow = rng.normal(5, 5)
        before = shadow.copy()
        pl = new_pruned_layer(shadow)
        cfg = PruneConfig(mode="dsp")
        refresh_mask(pl, cfg)
        apply_mask(pl)
        assert np.array_equal(pl.shadow, before)


class TestDspMaskGrad:
    cfg = PruneConfig(mode="dsp")

    def test_clamped_region_nonzero_constant(self):
        # |w| <= epsilon * gamma * mu: derivative equals the clamped mask
        stats = stats_for(1.0)
        g = dsp_mask_grad(np.array([[0.0, 1e-14]]), stats, self.cfg)
        expected = 1e-4 * math.log(1e-12)
        assert np.allclose(g, expected, atol=1e-15)
        assert np.all(g != 0.0)

    def test_saturated_region_is_r(self):
        stats = stats_for(1.0)
        w = np.array([[4.0, -10.0]])   # ratio >= e -> saturated at r
        g = dsp_mask_grad(w, stats, self.cfg)
        assert np.allclose(g, self.cfg.r, atol=1e-15)

    def test_refresh_stores_the_dsp_multiplier(self, rng):
        # the refresh's one pass gives the mask and the multiplier that
        # mask_grad hands to the backward, with the stats of that refresh
        pl = new_pruned_layer(rng.normal(6, 5))
        pl.shadow[0, :3] = [0.0, 1e-14, 50.0]   # clamped and saturated
        refresh_mask(pl, self.cfg)
        stats = layer_stats(pl.shadow)
        want = dsp_mask_grad(pl.shadow, stats, self.cfg)
        assert mask_grad(pl).tobytes() == want.tobytes()
        assert pl.mask.tobytes() == dsp_mask(pl.shadow, stats,
                                             self.cfg).tobytes()

    def test_surgery_zeroed_entries_have_zero_grad(self):
        scfg = PruneConfig(mode="surgery")
        pl = new_pruned_layer(np.array([[1e-6, 5.0]]))
        refresh_mask(pl, scfg)
        assert pl.mask[0, 0] == 0.0
        g = mask_grad(pl)
        assert g[0, 0] == 0.0 and g[0, 1] == 1.0

    def test_finite_difference_oracle(self):
        # 1e4 random points, FD of w * h(w), away from branch kinks
        rng_np = np.random.default_rng(3)
        cfg = self.cfg
        mu = 0.8
        stats = stats_for(mu)
        w = rng_np.uniform(-4.0 * mu, 4.0 * mu, size=(10000, 1))
        ratio = np.abs(w) / (cfg.gamma * mu)
        kinks = np.array([cfg.epsilon, 1.0, math.exp(cfg.r / cfg.beta)])
        margin = 1e-4
        keep = np.ones(w.shape, dtype=bool)
        for kink in kinks:
            keep &= np.abs(ratio - kink) > margin
        w = w[keep].reshape(-1, 1)
        h = 1e-7

        def effective(ww):
            return ww * dsp_mask(ww, stats, cfg)

        numeric = (effective(w + h) - effective(w - h)) / (2.0 * h)
        analytic = dsp_mask_grad(w, stats, cfg)
        denom = np.maximum(np.abs(numeric), np.abs(analytic))
        denom = np.maximum(denom, 1e-7)   # derivative crosses 0 at ratio 1/e
        assert np.max(np.abs(numeric - analytic) / denom) < 1e-6


class TestMaskCurve:
    def test_zero_weight_row_present_and_clamped(self):
        cfg = PruneConfig(mode="dsp")
        table = mask_curve(cfg, stats_for(1.0), np.array([0.0, 1.0]))
        assert table[0, 0] == 0.0
        assert table[0, 1] == pytest.approx(1e-4 * math.log(1e-12), abs=1e-15)
        assert table[0, 2] == 0.0

    def test_monotone_nondecreasing_over_positive_w(self):
        cfg = PruneConfig(mode="dsp")
        w = np.linspace(0.0, 5.0, 10000)
        table = mask_curve(cfg, stats_for(1.0), w)
        diffs = np.diff(table[:, 1])
        assert np.all(diffs >= -1e-15)

    def test_crosses_zero_at_threshold(self):
        cfg = PruneConfig(mode="dsp", gamma=2.0)
        mu = 0.4
        table = mask_curve(cfg, stats_for(mu), np.array([cfg.gamma * mu]))
        assert table[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_surgery_jump_at_lower_band_edge(self):
        cfg = PruneConfig(mode="surgery", surgery_eta=0.0)
        stats = stats_for(1.0, 0.0)    # omega = 1
        w = np.array([0.9 - 1e-9, 0.9 + 1e-9])
        table = mask_curve(cfg, stats, w)
        assert table[0, 1] == 0.0 and table[1, 1] == 1.0

    def test_dsp_curve_continuity_under_refinement(self):
        cfg = PruneConfig(mode="dsp")
        stats = stats_for(1.0)
        gaps = []
        for n in (100, 1000, 10000):
            w = np.linspace(-3.0, 3.0, n)
            table = mask_curve(cfg, stats, w)
            gaps.append(np.max(np.abs(np.diff(table[:, 1]))))
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
        assert gaps[2] < 1e-2
