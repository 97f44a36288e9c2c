import math

import numpy as np
import pytest

from conftest import kl_objective
from dnspn.errors import ParameterError, ShapeError
from dnspn.training import fuse


def random_simplex_rows(rng, n, k):
    raw = rng.random((n, k)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


class TestFuse:
    def test_single_head_identity(self):
        c = np.array([[0.3, 0.7]])
        assert np.array_equal(fuse([c]), c)

    def test_arithmetic_mean(self):
        c1 = np.array([[0.6, 0.4]])
        c2 = np.array([[0.2, 0.8]])
        assert np.allclose(fuse([c1, c2]), [[0.4, 0.6]], atol=1e-15)

    def test_identical_heads(self):
        c = np.array([[0.25, 0.75], [0.5, 0.5]])
        assert np.allclose(fuse([c, c, c]), c, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            fuse([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            fuse([np.ones((2, 2)), np.ones((2, 3))])

    def test_preserves_simplex(self):
        rng = np.random.default_rng(0)
        heads = [random_simplex_rows(rng, 10, 4) for _ in range(5)]
        out = fuse(heads)
        assert np.all(out >= 0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        heads = [random_simplex_rows(rng, 6, 3) for _ in range(4)]
        a = fuse(heads)
        b = fuse(heads[::-1])
        assert np.max(np.abs(a - b)) < 1e-12


class TestKlObjective:
    def test_identical_distributions_zero(self):
        c = np.array([[0.2, 0.8]])
        assert kl_objective([c, c], c) == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_single_term(self):
        c = np.array([[1.0, 0.0]])
        q = np.array([0.5, 0.5])
        assert kl_objective([c], q) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_domain_error_on_nonpositive_q(self):
        c = np.array([[0.5, 0.5]])
        with pytest.raises(ParameterError):
            kl_objective([c], np.array([1.0, 0.0]))

    def test_zero_mass_terms_ignored(self):
        c = np.array([[1.0, 0.0]])
        # q may be zero where the head has no mass
        val = kl_objective([c], np.array([1.0, 0.0]))
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_mean_minimizes_over_random_probes(self):
        # Lagrange-minimizer property, checked by random search
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            n_heads = int(rng.integers(1, 6))
            heads = [random_simplex_rows(rng, 1, k) for _ in range(n_heads)]
            q_star = fuse(heads)
            best = kl_objective(heads, q_star)
            for _ in range(100):
                q = random_simplex_rows(rng, 1, k)
                assert best <= kl_objective(heads, q) + 1e-10
