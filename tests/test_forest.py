import numpy as np
import pytest

from conftest import central_diff, max_rel_error
from dnspn.errors import ParameterError, ShapeError, UsageError
from dnspn.forest import (HEAD_PARAMS, MAX_EMBED, MAX_LEAVES, ForestHead,
                          check_shape, forest_backward, init_head,
                          predict_class, predict_regress, route)
from dnspn.numeric import RngState, sigmoid


def logit(p):
    return float(np.log(p / (1.0 - p)))


def make_head(trees, depth, embed_dim, width, n_out, seed=0):
    return init_head(width, n_out, trees, depth, embed_dim, RngState(seed))


def leaf_probs_oracle(head, activation):
    """Path-product enumeration, one leaf at a time (independent oracle)."""
    z = activation @ head.proj_w.T + head.proj_b
    batch = activation.shape[0]
    n_leaves = head.leaves_per_tree
    out = np.zeros((batch, head.trees * n_leaves))
    for b in range(batch):
        for t in range(head.trees):
            base = t * head.nodes_per_tree
            for j in range(n_leaves):
                prob = 1.0
                node = 0
                for level in range(head.depth - 1):
                    bit = (j >> (head.depth - 2 - level)) & 1
                    unit = base + node
                    d = sigmoid(float(z[b] @ head.routing_w[unit]
                                      + head.routing_b[unit]))
                    prob *= d if bit == 0 else 1.0 - d
                    node = 2 * node + 1 + bit
                out[b, t * n_leaves + j] = prob
    return out


class TestCheckShape:
    @pytest.mark.parametrize("trees,depth", [(32, 6), (1, 15), (2, 14),
                                             (MAX_LEAVES, 1)])
    def test_up_to_the_leaf_bound(self, trees, depth):
        assert trees * 2 ** (depth - 1) <= MAX_LEAVES
        check_shape(trees, depth, 8)

    @pytest.mark.parametrize("trees,depth,name", [
        (1, 16, "depth"), (1, 10 ** 12, "depth"), (2, 15, "trees"),
        (MAX_LEAVES + 1, 1, "trees"), (10 ** 40 - 1, 4, "trees")])
    def test_beyond_the_leaf_bound_named(self, trees, depth, name):
        with pytest.raises(ParameterError, match=f"^{name} must be <= "):
            check_shape(trees, depth, 8)

    def test_embedding_bound(self):
        check_shape(32, 6, MAX_EMBED)
        for embed_dim in (MAX_EMBED + 1, 10 ** 40 - 1):
            with pytest.raises(ParameterError, match=(
                    f"^embed_dim must be <= {MAX_EMBED}, got {embed_dim}$")):
                check_shape(32, 6, embed_dim)


class TestInitHead:
    @pytest.mark.parametrize("kind,n_out", [("classification", 3),
                                            ("regression", 1)])
    def test_an_agreeing_kind_builds_the_same_head(self, kind, n_out):
        plain = init_head(4, n_out, 2, 3, 2, RngState(8))
        named = init_head(4, n_out, 2, 3, 2, RngState(8), kind=kind)
        for name in HEAD_PARAMS:
            assert np.array_equal(getattr(plain, name), getattr(named, name))

    @pytest.mark.parametrize("kind,n_out", [("classification", 1),
                                            ("regression", 2),
                                            ("bogus", 3)])
    def test_a_kind_that_disagrees_is_refused(self, kind, n_out):
        with pytest.raises(ParameterError, match=(
                f"^a {kind} head cannot have {n_out} outputs$")):
            init_head(4, n_out, 2, 3, 2, RngState(8), kind=kind)


class TestRoute:
    def test_single_node_definition(self):
        # h=2: one decision unit; force d = 0.3 via the routing bias
        head = make_head(1, 2, 1, 1, 2)
        head.proj_w[:] = 0.0
        head.proj_b[:] = 0.0
        head.routing_w[:] = 0.0
        head.routing_b[:] = logit(0.3)
        r = route(head, np.array([[5.0]]))
        assert np.allclose(r.p, [[0.3, 0.7]], atol=1e-12)

    def test_neutral_decisions_give_uniform_leaves(self):
        for depth in (2, 3, 4):
            head = make_head(3, depth, 2, 4, 2)
            head.routing_w[:] = 0.0
            head.routing_b[:] = 0.0
            r = route(head, np.zeros((2, 4)))
            assert np.allclose(r.p, 2.0 ** -(depth - 1), atol=1e-12)

    def test_three_level_hand_case(self):
        # root d=0.8, left child d=0.5, right child d=0.25
        head = make_head(1, 3, 1, 1, 2)
        head.proj_w[:] = 0.0
        head.proj_b[:] = 0.0
        head.routing_w[:] = 0.0
        head.routing_b[:] = [logit(0.8), logit(0.5), logit(0.25)]
        r = route(head, np.array([[0.0]]))
        assert np.allclose(r.p, [[0.40, 0.40, 0.05, 0.15]], atol=1e-12)

    def test_matches_enumeration_oracle(self, rng):
        for seed in range(5):
            head = make_head(3, 4, 5, 6, 3, seed=seed)
            act = rng.normal(4, 6)
            r = route(head, act)
            assert np.allclose(r.p, leaf_probs_oracle(head, act), atol=1e-12)

    def test_per_tree_normalization_extreme_params(self, rng):
        # pre-activation magnitudes up to ~50
        head = make_head(4, 4, 3, 5, 2)
        head.routing_b[:] = rng.normal(head.routing_b.size, 1).ravel() * 50
        r = route(head, rng.normal(8, 5))
        per_tree = r.p.reshape(8, 4, -1).sum(axis=2)
        assert np.max(np.abs(per_tree - 1.0)) < 1e-9
        assert np.max(np.abs(r.p.sum(axis=1) - 4.0)) < 1e-8
        assert np.all(r.p >= 0) and np.all(r.p <= 1)

    def test_shape_mismatch(self, rng):
        head = make_head(2, 3, 4, 5, 2)
        with pytest.raises(ShapeError):
            route(head, rng.normal(3, 7))


class TestPredictClass:
    def _two_leaf_head(self, leaf_rows):
        head = make_head(1, 2, 1, 1, 2)
        # choose logits whose row softmax equals the requested rows
        head.leaf = np.log(np.asarray(leaf_rows, dtype=np.float64))
        return head

    def test_selects_first_row(self):
        head = self._two_leaf_head([[0.9, 0.1], [0.2, 0.8]])
        r = route(head, np.array([[0.0]]))
        r.p = np.array([[1.0, 0.0]])
        assert np.allclose(predict_class(head, r), [[0.9, 0.1]], atol=1e-12)

    def test_mixture_evaluation(self):
        head = self._two_leaf_head([[0.9, 0.1], [0.2, 0.8]])
        r = route(head, np.array([[0.0]]))
        r.p = np.array([[0.5, 0.5]])
        assert np.allclose(predict_class(head, r), [[0.55, 0.45]], atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        head = make_head(5, 4, 3, 6, 4, seed=3)
        r = route(head, rng.normal(10, 6))
        out = predict_class(head, r)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9
        assert np.all(out >= 0)

    def test_kind_mismatch(self, rng):
        head = make_head(2, 3, 4, 5, 1)
        r = route(head, rng.normal(2, 5))
        with pytest.raises(UsageError):
            predict_class(head, r)

    def test_equals_mean_of_single_tree_heads(self, rng):
        # decomposition oracle: slice an m-tree head into m one-tree heads
        head = make_head(4, 3, 3, 5, 3, seed=9)
        act = rng.normal(6, 5)
        full = predict_class(head, route(head, act))
        per_tree = []
        npt, lpt = head.nodes_per_tree, head.leaves_per_tree
        for t in range(head.trees):
            single = ForestHead(
                trees=1, depth=head.depth, embed_dim=head.embed_dim,
                proj_w=head.proj_w, proj_b=head.proj_b,
                routing_w=head.routing_w[t * npt:(t + 1) * npt],
                routing_b=head.routing_b[t * npt:(t + 1) * npt],
                leaf=head.leaf[t * lpt:(t + 1) * lpt])
            per_tree.append(predict_class(single, route(single, act)))
        assert np.allclose(full, np.mean(per_tree, axis=0), atol=1e-12)


class TestPredictRegress:
    def _head(self, leaf_values):
        head = make_head(1, 2, 1, 1, 1)
        head.leaf = np.asarray(leaf_values, dtype=np.float64).reshape(-1, 1)
        return head

    def test_selects_first_leaf(self):
        head = self._head([5.0, -3.0])
        r = route(head, np.array([[0.0]]))
        r.p = np.array([[1.0, 0.0]])
        assert np.allclose(predict_regress(head, r), [[5.0]], atol=1e-15)

    def test_weighted_mean(self):
        head = self._head([4.0, 2.0])
        r = route(head, np.array([[0.0]]))
        r.p = np.array([[0.5, 0.5]])
        assert np.allclose(predict_regress(head, r), [[3.0]], atol=1e-15)

    def test_constant_forest(self, rng):
        head = make_head(2, 3, 2, 3, 1)
        head.leaf[:] = 7.25
        r = route(head, rng.normal(4, 3))
        assert np.allclose(predict_regress(head, r), 7.25, atol=1e-12)

    def test_kind_mismatch(self, rng):
        head = make_head(2, 3, 4, 5, 3)
        r = route(head, rng.normal(2, 5))
        with pytest.raises(UsageError):
            predict_regress(head, r)


class TestForestBackward:
    def test_zero_upstream(self, rng):
        head = make_head(2, 3, 3, 4, 2)
        act = rng.normal(3, 4)
        r = route(head, act)
        g = forest_backward(head, r, act, np.zeros((3, 2)))
        assert len(g) == len(HEAD_PARAMS) + 1
        for arr in g:
            assert np.all(arr == 0)

    def test_regression_leaf_grad_is_reach_probability(self):
        head = make_head(1, 2, 1, 1, 1)
        head.leaf = np.array([[5.0], [-3.0]])
        act = np.array([[0.0]])
        r = route(head, act)
        r.p = np.array([[1.0, 0.0]])
        g = forest_backward(head, r, act, np.array([[1.0]]))
        g_leaf = g[HEAD_PARAMS.index("leaf")]
        assert np.allclose(g_leaf, [[1.0], [0.0]], atol=1e-12)

    @pytest.mark.parametrize("kind,n_out", [("classification", 3),
                                            ("regression", 1)])
    def test_finite_difference_all_params(self, kind, n_out):
        # depth 1 has no internal nodes; depth 6 has five routing levels
        for depth in (1, 2, 3, 6):
            rng = RngState(17)
            head = make_head(3, depth, 4, 5, n_out, seed=17)
            act = rng.normal(2, 5)
            coeff = rng.normal(2, n_out)

            def loss():
                r = route(head, act)
                out = (predict_class(head, r) if kind == "classification"
                       else predict_regress(head, r))
                return float(np.sum(coeff * out))

            r0 = route(head, act)
            g = forest_backward(head, r0, act, coeff)
            for name, grad in zip(HEAD_PARAMS, g):
                num = central_diff(loss, getattr(head, name))
                assert max_rel_error(grad, num) < 1e-4, f"{name} depth {depth}"

    def test_activation_gradient_finite_difference(self):
        rng = RngState(23)
        head = make_head(2, 3, 3, 4, 2, seed=23)
        act = rng.normal(2, 4)
        coeff = rng.normal(2, 2)

        def loss():
            r = route(head, act)
            return float(np.sum(coeff * predict_class(head, r)))

        g = forest_backward(head, route(head, act), act, coeff)
        num = central_diff(loss, act)
        assert max_rel_error(g[-1], num) < 1e-4
