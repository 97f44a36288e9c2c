"""Each correctness check passes on the program's output and fails when
one entry of that output is corrupted."""

import numpy as np
import pytest

import checks
import reference
from dnspn.data import Task
from dnspn.numeric import RngState
from dnspn.pruning import PruneConfig
from dnspn.training import method_model, predict, refresh_masks

TASK = Task(kind="classification", n_classes=2, labels=["0", "1"])


def model_with_masks(mode, seed=0):
    method = {"none": "dndn", "dsp": "dnspn", "surgery": "surgery"}[mode]
    model, _ = method_model(method, 8, TASK, RngState(seed), trees=3,
                            depth=3, embed_dim=2)
    prune = PruneConfig(mode=mode)
    refresh_masks(model, prune)
    return model, prune


def test_dsp_mask_entry_perturbed():
    model, prune = model_with_masks("dsp")
    checks.masks(model, prune)
    model.layer_prunes[1].mask[3, 4] += 1e-9
    with pytest.raises(checks.CheckFailed, match="DSP formula"):
        checks.masks(model, prune)


def test_dsp_projection_mask_perturbed():
    model, prune = model_with_masks("dsp")
    model.proj_prunes[0].mask[0, 0] *= 1.5
    with pytest.raises(checks.CheckFailed):
        checks.masks(model, prune)


@pytest.mark.parametrize("band", ["below", "above"])
def test_surgery_mask_entry_in_wrong_band(band):
    model, prune = model_with_masks("surgery")
    checks.masks(model, prune)
    layer = model.layer_prunes[0]
    omega = reference.surgery_omega(layer.shadow, prune.surgery_eta)
    aw = np.abs(layer.shadow)
    where = aw < 0.8 * omega if band == "below" else aw > 1.2 * omega
    i = np.argwhere(where)[0]
    layer.mask[tuple(i)] = 1.0 if band == "below" else 0.0
    with pytest.raises(checks.CheckFailed, match="omega"):
        checks.masks(model, prune)


def test_none_mask_not_all_ones():
    model, prune = model_with_masks("none")
    checks.masks(model, prune)
    model.layer_prunes[2].mask[0, 1] = 0.5
    with pytest.raises(checks.CheckFailed, match="all ones"):
        checks.masks(model, prune)


def test_flipped_label():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 6))
    meta = {"dims": [1, 4], "w": [0.7, -1.2], "b": 0.1}
    y, score = reference.linear_labels(X, meta)
    checks.labels(y.copy(), y, score)
    y_file = y.copy()
    y_file[17] = 1 - y_file[17]
    with pytest.raises(checks.CheckFailed, match="1 labels"):
        checks.labels(y_file, y, score)


def test_shifted_prediction_row():
    model, _ = model_with_masks("dsp")
    X = RngState(5).normal(40, 8)
    full = predict(model, X)
    starts = [0, 10, 30]
    outs = [predict(model, X[s:s + 4]) for s in starts]
    checks.batch_rows(full, starts, outs, "batch-4")
    outs[1] = predict(model, X[11:15])
    with pytest.raises(checks.CheckFailed, match="row 10"):
        checks.batch_rows(full, starts, outs, "batch-4")


def test_prediction_against_reference_forward():
    model, _ = model_with_masks("surgery")
    X = RngState(6).normal(20, 8)
    probs = predict(model, X)
    want, _ = reference.forward(model, X)
    checks.close(probs, want, "forward")
    probs[7] = probs[7][::-1]
    with pytest.raises(checks.CheckFailed, match="forward"):
        checks.close(probs, want, "forward")


def test_simplex():
    probs = np.array([[0.3, 0.7], [0.5, 0.5]])
    checks.simplex(probs, "p")
    with pytest.raises(checks.CheckFailed, match="sums"):
        checks.simplex(probs + [[0.0, 1e-6], [0.0, 0.0]], "p")
    with pytest.raises(checks.CheckFailed, match="negative"):
        checks.simplex(np.array([[1.1, -0.1]]), "p")


def test_leaf_sums():
    reach = reference.leaf_reach(np.array([[0.2, 0.7, 0.4, 0.5, 0.5, 0.1]]),
                                 trees=2, depth=3)
    checks.leaf_sums(reach, 2, "reach")
    reach[0, 5] += 1e-6
    with pytest.raises(checks.CheckFailed, match="leaf-reach"):
        checks.leaf_sums(reach, 2, "reach")


def test_reported_metric_one_row_off():
    probs = np.array([[0.8, 0.2], [0.3, 0.7], [0.6, 0.4], [0.1, 0.9]])
    y = np.array([0, 1, 1, 1])
    acc = reference.accuracy(probs, y)
    checks.equal_metric("accuracy", 0.75, acc)
    with pytest.raises(checks.CheckFailed):
        checks.equal_metric("accuracy", 0.5, acc)
    with pytest.raises(checks.CheckFailed):
        checks.equal_metric("auc", None, 0.9)


def test_accuracy_at_majority_rate_fails():
    y = np.array([0, 0, 0, 1])
    with pytest.raises(checks.CheckFailed, match="majority"):
        checks.above_majority(np.tile([0.9, 0.1], (4, 1)), y)
    assert checks.above_majority(np.eye(2)[y], y) == 1.0


def test_loss_not_falling_fails():
    y = np.array([0, 1])
    before = np.array([[0.5, 0.5], [0.5, 0.5]])
    checks.loss_fell(before, np.array([[0.6, 0.4], [0.4, 0.6]]), y)
    with pytest.raises(checks.CheckFailed, match="test loss"):
        checks.loss_fell(before, before, y)
