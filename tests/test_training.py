import math

import numpy as np
import pytest

from conftest import central_diff, max_rel_error
from dnspn.data import Dataset, Task
from dnspn.errors import DataError, ShapeError
from dnspn.numeric import RngState
from dnspn.pruning import PruneConfig
from dnspn.training import (AdamState, TrainConfig, adam_update,
                            build_forest_model, build_softmax_model,
                            evaluate_model, fit, loss_ce, loss_mse,
                            method_model, model_params, predict,
                            refresh_masks, train_step)

CLS = Task(kind="classification", n_classes=2)


def separable_2d(n, seed):
    rng = RngState(seed)
    X = rng.normal(n, 2)
    y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
    return Dataset(X, y, CLS)


def snapshot(model):
    return {k: v.copy() for k, v in model_params(model).items()}


def params_equal(a, b):
    return all(np.array_equal(a[k], b[k]) for k in a)


class TestLossCe:
    def test_perfect_prediction_zero_loss(self):
        loss, _ = loss_ce(np.array([[1.0, 0.0]]), np.array([0]))
        assert loss == 0.0

    def test_uniform_gives_ln2(self):
        loss, _ = loss_ce(np.array([[0.5, 0.5]]), np.array([1]))
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = RngState(2)
        pred = np.abs(rng.normal(4, 3)) + 0.1
        pred /= pred.sum(axis=1, keepdims=True)
        labels = np.array([0, 2, 1, 0])
        _, grad = loss_ce(pred, labels)

        def f():
            return loss_ce(pred, labels)[0]

        num = central_diff(f, pred)
        assert max_rel_error(grad, num) < 1e-4

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            loss_ce(np.array([[0.5, 0.5]]), np.array([2]))


class TestLossMse:
    def test_zero_on_match(self):
        loss, grad = loss_mse(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_closed_form_single(self):
        loss, grad = loss_mse(np.array([[3.0]]), np.array([1.0]))
        assert loss == 4.0
        assert grad.ravel()[0] == 4.0

    def test_permutation_invariant(self):
        rng = RngState(3)
        pred = rng.normal(10, 1).ravel()
        target = rng.normal(10, 1).ravel()
        perm = RngState(4).permutation(10)
        a, _ = loss_mse(pred, target)
        b, _ = loss_mse(pred[perm], target[perm])
        assert a == pytest.approx(b, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            loss_mse(np.ones(3), np.ones(4))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        cfg = TrainConfig()
        p = np.array([[1.0, -2.0]])
        state = AdamState()
        adam_update(state, {"p": p}, {"p": np.zeros_like(p)}, cfg)
        assert np.array_equal(p, np.array([[1.0, -2.0]]))

    def test_first_step_is_signed_lr(self):
        cfg = TrainConfig(learning_rate=1e-3)
        p = np.array([[0.0, 0.0]])
        g = np.array([[0.7, -1.3]])
        adam_update(AdamState(), {"p": p}, {"p": g}, cfg)
        expected = -cfg.learning_rate * np.sign(g)
        assert np.max(np.abs(p - expected)) < cfg.learning_rate * 1e-6

    def test_trajectories_bit_identical(self):
        cfg = TrainConfig(learning_rate=1e-2)
        runs = []
        for _ in range(2):
            p = np.array([[1.0, 2.0], [3.0, 4.0]])
            state = AdamState()
            rng = RngState(5)
            for _ in range(20):
                adam_update(state, {"p": p}, {"p": rng.normal(2, 2)}, cfg)
            runs.append(p.copy())
        assert np.array_equal(runs[0], runs[1])


class TestTrainStep:
    def test_loss_decreases_on_separable_data(self):
        for seed in range(5):
            ds = separable_2d(256, 100 + seed)
            model = build_forest_model(2, CLS, RngState(seed), trees=2,
                                       depth=2, embed_dim=2, attach="last")
            cfg = TrainConfig(dropout=0.0, batch_size=256, seed=seed,
                              learning_rate=3e-3)
            adam = AdamState()
            refresh_masks(model, cfg.prune)
            losses = [train_step(model, ds.X, ds.y, cfg, adam, RngState(seed))
                      for _ in range(50)]
            first = np.mean(losses[:10])
            last = np.mean(losses[-10:])
            assert last < first, f"seed {seed}: {first} -> {last}"

    def test_lr_zero_leaves_model_bit_identical(self):
        ds = separable_2d(64, 0)
        model = build_forest_model(2, CLS, RngState(1), trees=2, depth=2,
                                   embed_dim=2)
        cfg = TrainConfig(learning_rate=0.0, dropout=0.0)
        before = snapshot(model)
        adam = AdamState()
        refresh_masks(model, cfg.prune)
        for _ in range(3):
            train_step(model, ds.X, ds.y, cfg, adam, None)
        assert params_equal(before, snapshot(model))

    def test_dsp_saturated_region_matches_mode_none(self):
        # all |w| identical and gamma small -> every ratio is in the
        # saturated branch, mask == r == 1, so DSP reduces to no pruning
        ds = separable_2d(64, 7)

        def build():
            model = build_forest_model(2, CLS, RngState(3), trees=2, depth=2,
                                       embed_dim=2)
            for p in model_params(model).values():
                if p.ndim == 2:
                    p[:] = 0.35 * np.sign(p + 1e-30)
            return model

        results = []
        for mode in ("none", "dsp"):
            model = build()
            prune = PruneConfig(mode=mode, gamma=0.1)
            cfg = TrainConfig(dropout=0.0, prune=prune, learning_rate=1e-3)
            adam = AdamState()
            refresh_masks(model, cfg.prune)
            for _ in range(3):
                train_step(model, ds.X, ds.y, cfg, adam, None)
            results.append(snapshot(model))
        assert params_equal(results[0], results[1])

    def test_dsp_differs_from_none_only_via_masks(self):
        ds = separable_2d(64, 9)
        snaps = []
        for mode in ("none", "dsp"):
            model = build_forest_model(2, CLS, RngState(4), trees=2, depth=2,
                                       embed_dim=2)
            cfg = TrainConfig(dropout=0.0, prune=PruneConfig(mode=mode))
            adam = AdamState()
            refresh_masks(model, cfg.prune)
            train_step(model, ds.X, ds.y, cfg, adam, None)
            snaps.append(snapshot(model))
        # DSP masks are not all ones, so the updates must differ somewhere
        assert not params_equal(snaps[0], snaps[1])

    def test_mode_none_never_touches_masks(self, monkeypatch):
        # mode none's masks are all ones: training skips applying them and
        # chaining gradients through them
        import dnspn.training as training

        def refuse(*_args, **_kw):
            raise AssertionError("mask machinery used in prune mode none")

        ds = separable_2d(128, 3)
        model = build_forest_model(2, CLS, RngState(0), trees=2, depth=3,
                                   embed_dim=2)
        monkeypatch.setattr(training, "apply_mask", refuse)
        monkeypatch.setattr(training, "mask_grad", refuse)
        monkeypatch.setattr(training, "refresh_mask", refuse)
        for _ in range(2):
            train_step(model, ds.X, ds.y, TrainConfig(dropout=0.0),
                       AdamState(), None)


class TestFit:
    def test_zero_epochs_untouched(self):
        ds = separable_2d(64, 1)
        model = build_forest_model(2, CLS, RngState(0), trees=2, depth=2,
                                   embed_dim=2)
        before = snapshot(model)
        masks_before = [pl.mask.copy() for pl in model.layer_prunes]
        history = fit(model, ds, ds, TrainConfig(epochs=0,
                                                 prune=PruneConfig(mode="dsp")))
        assert history.records == []
        assert params_equal(before, snapshot(model))
        for m0, pl in zip(masks_before, model.layer_prunes):
            assert np.array_equal(m0, pl.mask)

    def test_deterministic_history(self):
        ds = separable_2d(200, 2)
        hists = []
        for _ in range(2):
            model = build_forest_model(2, CLS, RngState(8), trees=2, depth=2,
                                       embed_dim=2)
            cfg = TrainConfig(epochs=3, batch_size=64, seed=5,
                              prune=PruneConfig(mode="dsp"))
            hists.append(fit(model, ds, ds, cfg))
        for r1, r2 in zip(hists[0].records, hists[1].records):
            assert r1 == r2

    def test_sparsity_zero_under_mode_none(self):
        ds = separable_2d(128, 3)
        model = build_forest_model(2, CLS, RngState(0), trees=2, depth=2,
                                   embed_dim=2)
        cfg = TrainConfig(epochs=2, dropout=0.0)
        history = fit(model, ds, ds, cfg)
        for rec in history.records:
            assert all(s == 0.0 for s in rec.sparsity)

    def test_dataset_shape_mismatch(self):
        ds = separable_2d(32, 0)
        model = build_forest_model(5, CLS, RngState(0), trees=2, depth=2,
                                   embed_dim=2)
        with pytest.raises(ShapeError):
            fit(model, ds, ds, TrainConfig(epochs=1))

    def test_history_csv_round_trip(self, tmp_path):
        ds = separable_2d(128, 4)
        model = build_forest_model(2, CLS, RngState(2), trees=2, depth=2,
                                   embed_dim=2)
        history = fit(model, ds, ds, TrainConfig(epochs=2, dropout=0.0))
        path = tmp_path / "history.csv"
        history.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("epoch,train_loss,eval_loss,metric,"
                                   "sparsity_l0")
        assert len(lines) == 3


class TestPredict:
    def test_classification_rows_sum_to_one(self):
        ds = separable_2d(64, 5)
        model = build_forest_model(2, CLS, RngState(6), trees=3, depth=3,
                                   embed_dim=2)
        out = predict(model, ds.X)
        assert out.shape == (64, 2)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9
        assert np.all(out >= 0)

    def test_repeated_calls_bit_identical(self):
        ds = separable_2d(32, 6)
        model = build_forest_model(2, CLS, RngState(7), trees=2, depth=3,
                                   embed_dim=2)
        a = predict(model, ds.X)
        b = predict(model, ds.X)
        assert np.array_equal(a, b)

    def test_eval_forward_keeps_no_routing(self):
        from dnspn.training import _forward
        ds = separable_2d(32, 8)
        model = build_forest_model(2, CLS, RngState(5), trees=2, depth=3,
                                   embed_dim=2)
        kept = _forward(model, ds.X, 0.0, False, None)
        dropped = _forward(model, ds.X, 0.0, False, None,
                           keep_routings=False)
        assert len(kept[3]) == len(model.heads) and dropped[3] == []
        assert np.array_equal(kept[5], dropped[5])
        assert np.array_equal(predict(model, ds.X), kept[5])

    def test_softmax_model_prediction(self):
        ds = separable_2d(16, 7)
        model = build_softmax_model(2, CLS, RngState(1))
        out = predict(model, ds.X)
        assert out.shape == (16, 2)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12

    def test_regression_model(self):
        task = Task(kind="regression")
        rng = RngState(9)
        X = rng.normal(40, 3)
        y = X[:, 0] * 2.0
        ds = Dataset(X, y, task)
        model = build_forest_model(3, task, RngState(2), trees=2, depth=3,
                                   embed_dim=2)
        cfg = TrainConfig(epochs=5, dropout=0.0, batch_size=20,
                          learning_rate=3e-3)
        hist = fit(model, ds, ds, cfg)
        assert hist.records[-1].metric < hist.records[0].metric
        out = predict(model, X)
        assert out.shape == (40, 1)


class TestEndToEndGradients:
    def test_full_model_finite_difference(self):
        # d=4, widths [4,8,8,2], m=2, h=2, e=4, batch=2, dropout off,
        # prune off: every parameter against central differences
        from dnspn.training import _forward

        task = Task(kind="classification", n_classes=2)
        model = build_forest_model(4, task, RngState(42), trees=2, depth=2,
                                   embed_dim=4, output_width=2)
        rng = RngState(5)
        X = rng.normal(2, 4)
        y = np.array([0, 1])

        def total_loss():
            *_, outs, _ = _forward(model, X, 0.0, False, None)
            return float(np.mean([loss_ce(o, y)[0] for o in outs]))

        grads = _analytic_grads(model, X, y)
        for name, p in model_params(model).items():
            num = central_diff(total_loss, p)
            assert max_rel_error(grads[name], num) < 1e-4, name


def _analytic_grads(model, X, y):
    """Backward pass identical to train_step's, without the update."""
    from dnspn import network
    from dnspn.forest import forest_backward
    from dnspn.training import _forward

    eff_layers, eff_heads, trace, routings, outs, _ = _forward(
        model, X, 0.0, False, None)
    K = len(model.heads)
    grads = {}
    upstream = [None] * len(model.layers)
    for i, (head, j, r, out) in enumerate(zip(eff_heads, model.head_layers,
                                              routings, outs)):
        _, g = loss_ce(out, y)
        hg = forest_backward(head, r, trace.dropped[j], g / K)
        grads[f"head{i}.proj_w"] = hg.proj_w
        grads[f"head{i}.proj_b"] = hg.proj_b
        grads[f"head{i}.routing_w"] = hg.routing_w
        grads[f"head{i}.routing_b"] = hg.routing_b
        grads[f"head{i}.leaf"] = hg.leaf
        upstream[j] = (hg.activation if upstream[j] is None
                       else upstream[j] + hg.activation)
    dW, db, _ = network.backward(eff_layers, trace, upstream)
    for i in range(len(model.layers)):
        grads[f"layer{i}.w"] = dW[i]
        grads[f"layer{i}.b"] = db[i]
    return grads


class TestMethodModel:
    def test_methods_and_modes(self):
        for method, kind, mode in [("fcnn", "softmax", "none"),
                                   ("dndn", "forest", "none"),
                                   ("dnspn", "forest", "dsp"),
                                   ("surgery", "forest", "surgery")]:
            model, got_mode = method_model(method, 4, CLS, RngState(0))
            assert model.kind == kind
            assert got_mode == mode

    def test_shared_init_discipline(self):
        # fcnn and dnspn share the early backbone under the same seed
        fcnn, _ = method_model("fcnn", 4, CLS, RngState(3))
        dnspn, _ = method_model("dnspn", 4, CLS, RngState(3))
        assert np.array_equal(fcnn.layers[0].weights, dnspn.layers[0].weights)
        assert np.array_equal(fcnn.layers[1].weights, dnspn.layers[1].weights)

    def test_method_seed_stable_and_distinct(self):
        from dnspn.training import method_seed
        assert method_seed(7, "dnspn") == method_seed(7, "dnspn")
        assert method_seed(7, "dnspn") != method_seed(7, "fcnn")
        assert method_seed(7, "dnspn") != method_seed(8, "dnspn")


class TestEvaluateModel:
    def test_report_fields_classification(self):
        ds = separable_2d(100, 11)
        model = build_forest_model(2, CLS, RngState(0), trees=2, depth=2,
                                   embed_dim=2)
        rep = evaluate_model(model, ds)
        assert rep.task == "classification"
        assert 0.0 <= rep.accuracy <= 1.0
        assert rep.auc is not None and 0.0 <= rep.auc <= 1.0
        assert rep.mse is None
        assert rep.n == 100
