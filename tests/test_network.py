import numpy as np
import pytest

from conftest import central_diff, max_rel_error
from dnspn.errors import ParameterError, ShapeError
from dnspn.network import DenseLayer, backward, build_network, forward
from dnspn.numeric import RngState


class TestBuildNetwork:
    def test_width_rule(self):
        layers = build_network(14, 2, RngState(0))
        shapes = [l.weights.shape for l in layers]
        assert shapes == [(28, 14), (28, 28), (2, 28)]
        assert [l.activation for l in layers] == ["relu", "relu", "identity"]
        assert all(np.all(l.bias == 0) for l in layers)

    def test_smallest_instance(self):
        layers = build_network(1, 1, RngState(0))
        assert [l.weights.shape for l in layers] == [(2, 1), (2, 2), (1, 2)]

    def test_same_seed_same_weights(self):
        a = build_network(5, 3, RngState(11))
        b = build_network(5, 3, RngState(11))
        for la, lb in zip(a, b):
            assert np.array_equal(la.weights, lb.weights)

    def test_bad_dims_rejected(self):
        with pytest.raises(ParameterError):
            build_network(0, 2, RngState(0))
        with pytest.raises(ParameterError):
            build_network(3, -1, RngState(0))


class TestForward:
    def test_zero_weights_annihilate(self, rng):
        layers = build_network(3, 2, RngState(0))
        for layer in layers:
            layer.weights[:] = 0.0
        trace = forward(layers, rng.normal(4, 3))
        for a in trace.dropped:
            assert np.all(a == 0.0)

    def test_dropout_zero_matches_eval(self, rng):
        layers = build_network(4, 2, RngState(3))
        x = rng.normal(5, 4)
        train = forward(layers, x, dropout_rate=0.0, training=True,
                        rng=RngState(1))
        eval_ = forward(layers, x, dropout_rate=0.0, training=False)
        for a, b in zip(train.dropped, eval_.dropped):
            assert np.array_equal(a, b)

    def test_affine_evaluation(self):
        layer = DenseLayer(np.array([[2.0]]), np.array([1.0]), "identity")
        trace = forward([layer], np.array([[3.0]]))
        assert np.allclose(trace.dropped[0], [[7.0]], atol=1e-15)

    def test_eval_dropout_is_identity(self, rng):
        layers = build_network(6, 2, RngState(7))
        x = rng.normal(8, 6)
        trace = forward(layers, x, dropout_rate=0.5, training=False)
        plain = forward(layers, x, dropout_rate=0.0, training=False)
        assert trace.drop_masks == [None] * len(layers)
        for a, b in zip(trace.dropped, plain.dropped, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_training_forward_deterministic(self, rng):
        layers = build_network(6, 2, RngState(7))
        x = rng.normal(8, 6)
        t1 = forward(layers, x, 0.5, True, RngState(42))
        t2 = forward(layers, x, 0.5, True, RngState(42))
        for a, b in zip(t1.dropped, t2.dropped):
            assert np.array_equal(a, b)

    def test_shape_mismatch(self, rng):
        layers = build_network(4, 2, RngState(0))
        with pytest.raises(ShapeError):
            forward(layers, rng.normal(3, 5))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self, rng):
        layers = build_network(3, 2, RngState(1))
        x = rng.normal(4, 3)
        trace = forward(layers, x)
        upstream = [np.zeros_like(a) for a in trace.dropped]
        gw, gb = backward(layers, trace, upstream)
        assert all(np.all(g == 0) for g in gw)
        assert all(np.all(g == 0) for g in gb)

    def test_single_linear_layer_weight_grad_is_input(self):
        # loss = the single output value itself -> dL/dW = x^T pattern
        layer = DenseLayer(np.array([[0.5, -2.0]]), np.array([0.0]),
                           "identity")
        x = np.array([[3.0, 7.0]])
        trace = forward([layer], x)
        gw, gb = backward([layer], trace, [np.array([[1.0]])])
        assert np.array_equal(gw[0], x)
        assert np.array_equal(gb[0], np.array([1.0]))

    def test_finite_difference_oracle(self):
        # random nets, multiple upstream consumers, dropout disabled and at
        # 0.5; each loss draws its dropout from the same seed, so the mask
        # stays fixed while the weights move
        for seed, rate in [(s, r) for s in range(3) for r in (0.0, 0.5)]:
            rng = RngState(seed)
            d = 2 + seed
            layers = build_network(d, 2, rng)
            x = rng.normal(3, d)
            coeffs = None

            def traced():
                return forward(layers, x, rate, rate > 0, RngState(100 + seed))

            def loss():
                total = 0.0
                for c, a in zip(coeffs, traced().dropped):
                    total += float(np.sum(c * a))
                return total

            if rate:
                # a wholly dropped row feeds the next layer zeros; zero
                # biases would put it on the ReLU kink, whose one-sided
                # slopes a central difference averages
                for layer in layers:
                    layer.bias[:] = RngState(200 + seed).normal(
                        1, layer.bias.size).ravel()
            trace0 = traced()
            if rate:
                # some hidden outputs are dropped: there the backward's
                # ReLU mask is 0 whatever the activation's sign
                assert any(m is not None and (m == 0).any()
                           for m in trace0.drop_masks)
            coeffs = [rng.normal(*a.shape) for a in trace0.dropped]
            gw, gb = backward(layers, trace0, coeffs)
            for i, layer in enumerate(layers):
                num_w = central_diff(loss, layer.weights)
                num_b = central_diff(loss, layer.bias)
                assert max_rel_error(gw[i], num_w) < 1e-4
                assert max_rel_error(gb[i], num_b) < 1e-4

    def test_upstream_contributions_sum(self, rng):
        layers = build_network(3, 2, RngState(2))
        x = rng.normal(4, 3)
        trace = forward(layers, x)
        u_mid = rng.normal(*trace.dropped[1].shape)
        u_last = rng.normal(*trace.dropped[2].shape)
        both = [None, u_mid, u_last]
        only_mid = [None, u_mid, None]
        only_last = [None, None, u_last]
        gw_b, _ = backward(layers, trace, both)
        gw_m, _ = backward(layers, trace, only_mid)
        gw_l, _ = backward(layers, trace, only_last)
        for b, m, l in zip(gw_b, gw_m, gw_l):
            assert np.allclose(b, m + l, atol=1e-12)
