"""The harness's reference computations on hand-worked cases, and their
agreement with the program on random inputs."""

import math

import numpy as np
import pytest

import reference
from dnspn.data import Task
from dnspn.forest import init_head, route
from dnspn.numeric import RngState
from dnspn.pruning import PruneConfig, dsp_mask, layer_stats
from dnspn.training import method_model, predict, refresh_masks

E = math.e


def test_dsp_mask_hand_values():
    # mean |w| is 1, so each ratio is |w| itself
    x = 5.0 - E - 1.0 - 1.0 / E
    w = np.array([[E, -1.0, 1.0 / E, 0.0, x]])
    got = reference.dsp_mask(w, alpha=1e-4, beta=1.0, gamma=1.0, r=1.0,
                             epsilon=1e-12)
    want = [1.0,                       # log e = 1 reaches r
            0.0,                       # log 1 = 0
            -1e-4,                     # decaying branch: alpha * (-1)
            1e-4 * math.log(1e-12),    # clamped at epsilon
            1e-4 * math.log(x)]        # just below the threshold
    assert got == pytest.approx(np.array([want]), abs=1e-15)


def test_dsp_mask_saturates_at_r_and_zero_layer_is_ones():
    w = np.array([[E ** 2, 0.0, 0.0, 0.0]])   # mu = e^2 / 4
    got = reference.dsp_mask(w, 1e-4, 1.0, 1.0, 1.0, 1e-12)
    assert got[0, 0] == 1.0
    assert np.all(reference.dsp_mask(np.zeros((2, 2)), 1e-4, 1.0, 1.0, 1.0,
                                     1e-12) == 1.0)


def test_dsp_mask_agrees_with_program():
    w = np.random.default_rng(0).normal(size=(30, 40))
    cfg = PruneConfig(mode="dsp")
    want = dsp_mask(w, layer_stats(w), cfg)
    got = reference.dsp_mask(w, cfg.alpha, cfg.beta, cfg.gamma, cfg.r,
                             cfg.epsilon)
    assert np.max(np.abs(got - want)) <= 1e-15


def test_surgery_omega_hand_value():
    # mean |w| = 2, mean 0, population std sqrt(5)
    assert reference.surgery_omega(np.array([1.0, -1.0, 3.0, -3.0]), 0.1) \
        == pytest.approx(2.0 + 0.1 * math.sqrt(5.0), abs=1e-15)


def test_leaf_reach_hand_values():
    # one tree of depth 3: root 0.2 left; its children 0.7 and 0.4 left
    dec = np.array([[0.2, 0.7, 0.4]])
    got = reference.leaf_reach(dec, trees=1, depth=3)
    assert got == pytest.approx(np.array([[0.14, 0.06, 0.32, 0.48]]),
                                abs=1e-15)


def test_leaf_reach_agrees_with_route():
    rng = RngState(3)
    head = init_head(5, 3, trees=4, depth=4, embed_dim=3,
                     kind="classification", rng=rng)
    act = rng.normal(7, 5)
    r = route(head, act)
    want = reference.leaf_reach(
        reference.logistic(r.embedding @ head.routing_w.T + head.routing_b),
        head.trees, head.depth)
    assert np.max(np.abs(r.p - want)) <= 1e-15


@pytest.mark.parametrize("method", ["fcnn", "dndn", "dnspn", "surgery"])
def test_forward_agrees_with_predict(method):
    task = Task(kind="classification", n_classes=2, labels=["0", "1"])
    model, mode = method_model(method, 6, task, RngState(1), trees=3,
                               depth=3, embed_dim=2)
    refresh_masks(model, PruneConfig(mode=mode))
    X = RngState(2).normal(9, 6)
    want = predict(model, X)
    got, reach = reference.forward(model, X)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)
    assert len(reach) == len(model.heads)


def test_auc_pairs_hand_values():
    # positives 0.35 and 0.8 against negatives 0.1 and 0.4: 3 of 4 pairs
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    assert reference.auc_pairs(scores, np.array([0, 0, 1, 1])) == 0.75
    assert reference.auc_pairs(np.array([0.5, 0.5]), np.array([0, 1])) == 0.5


def test_auc_pairs_chunks_like_one_block():
    rng = np.random.default_rng(4)
    scores = rng.integers(0, 20, 500) / 20.0     # many ties
    y = rng.integers(0, 2, 500)
    assert reference.auc_pairs(scores, y, chunk=7) == \
        reference.auc_pairs(scores, y, chunk=1000)


def test_linear_labels_hand_values():
    X = np.array([[1.0, 9.0, 2.0], [2.0, 9.0, 1.0]])
    meta = {"dims": [0, 2], "w": [1.0, -1.0], "b": 0.5}
    y, score = reference.linear_labels(X, meta)
    assert y.tolist() == [0, 1]
    assert score.tolist() == [-0.5, 1.5]


def test_accuracy_majority_and_cross_entropy():
    probs = np.array([[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]])
    y = np.array([0, 1, 1])
    assert reference.accuracy(probs, y) == pytest.approx(2 / 3)
    assert reference.majority_rate(y) == pytest.approx(2 / 3)
    assert reference.cross_entropy(probs, y) == pytest.approx(
        -(math.log(0.5) + math.log(0.75) + math.log(0.1)) / 3)


def test_standardize_zero_variance_column():
    X = np.array([[1.0, 5.0], [3.0, 5.0]])
    got = reference.standardize(X, np.array([2.0, 5.0]), np.array([1.0, 0.0]))
    assert got.tolist() == [[-1.0, 0.0], [1.0, 0.0]]
