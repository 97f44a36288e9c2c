import math

import numpy as np
import pytest

from dnspn.errors import ParameterError, ShapeError
from dnspn.numeric import RngState, sigmoid, softmax_rows


class TestSoftmaxRows:
    def test_symmetry(self):
        assert np.allclose(softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]],
                           atol=1e-15)

    def test_large_inputs_stable(self):
        out = softmax_rows([[1000.0, 0.0]])
        assert np.all(np.isfinite(out))
        assert out[0, 0] > 1 - 1e-12
        assert out[0, 1] < 1e-12

    def test_closed_form(self):
        # softmax(0, ln 3) = (1, 3) / 4
        out = softmax_rows([[0.0, math.log(3.0)]])
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_rejects_non_matrix(self):
        with pytest.raises(ShapeError):
            softmax_rows([0.0, 1.0])

    def test_rows_sum_to_one_across_magnitudes(self, rng):
        for scale in (1e-6, 1e-3, 1.0, 1e2, 1e3):
            m = rng.normal(50, 7) * scale
            out = softmax_rows(m)
            assert np.all(out >= 0)
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation_no_overflow(self):
        assert sigmoid(1e3) == pytest.approx(1.0, abs=1e-15)
        assert sigmoid(-1e3) == pytest.approx(0.0, abs=1e-15)

    def test_closed_form(self):
        # 1 / (1 + exp(-ln 3)) = 3/4
        assert sigmoid(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)

    def test_complement_identity(self, rng):
        x = rng.normal(100, 5) * 10
        assert np.max(np.abs(sigmoid(x) + sigmoid(-x) - 1.0)) < 1e-15

    def test_matrix_shape_preserved(self, rng):
        x = rng.normal(3, 4)
        assert sigmoid(x).shape == (3, 4)


class TestSampleNormal:
    """Gaussian matrices drawn through RngState.normal."""

    def test_degenerate_stddev(self):
        out = RngState(1).normal(4, 5, mean=0.0, stddev=0.0)
        assert np.array_equal(out, np.zeros((4, 5)))
        out = RngState(1).normal(2, 2, mean=3.5, stddev=0.0)
        assert np.array_equal(out, np.full((2, 2), 3.5))

    def test_moments_monte_carlo(self):
        draws = RngState(77).normal(100000, 1)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - 1.0) < 0.02

    def test_same_seed_bitwise_identical(self):
        a = RngState(9).normal(30, 30)
        b = RngState(9).normal(30, 30)
        assert np.array_equal(a, b)

    def test_negative_stddev_rejected(self):
        with pytest.raises(ParameterError):
            RngState(1).normal(2, 2, stddev=-1.0)


class TestRngState:
    def test_long_stream_reproducible(self):
        a = RngState(2024).normal(1000, 1000)   # 1e6 draws
        b = RngState(2024).normal(1000, 1000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngState(1).normal(10, 10)
        b = RngState(2).normal(10, 10)
        assert not np.array_equal(a, b)

    def test_child_streams_deterministic_and_distinct(self):
        base = RngState(5)
        c1 = base.child(1)
        c2 = base.child(2)
        again = RngState(5).child(1)
        assert c1.seed == again.seed
        assert c1.seed != c2.seed
        assert np.array_equal(c1.normal(5, 5), RngState(c1.seed).normal(5, 5))
