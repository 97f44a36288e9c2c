"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The quantitative desk-scale reproductions (criteria 9,
10, 12) train real models and together take a few minutes of CPU; each
runs its method x seed fits through `numeric.run_calls`, one process a CPU,
at one BLAS thread, and reads the same floats as in one process.
"""

import functools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (central_diff, dsp_mask_grad, kl_objective,
                      max_rel_error, param_names)
from dnspn.cli import main as cli_main
from dnspn.data import (SyntheticSpec, gen_xor, generate, standardize,
                        train_test, write_csv)
from dnspn.forest import init_head, predict_class, route
from dnspn.metrics import roc_auc_binary
from dnspn.numeric import RngState, run_calls
from dnspn.pruning import (LayerStats, PruneConfig, dsp_mask,
                           new_pruned_layer, refresh_mask, surgery_mask)
from dnspn.training import (TrainConfig, build_forest_model, fit, fuse,
                            loss_ce, method_model, model_params,
                            backbone_sparsity, _forward)


@contextmanager
def criterion(number, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} ({name}): FAIL "
              f"[{time.time() - start:.1f}s]")
        raise
    print(f"ACCEPTANCE {number:>2} ({name}): PASS "
          f"[{time.time() - start:.1f}s]")


def _random_head(rng, np_rng):
    m = int(np_rng.integers(1, 11))
    h = int(np_rng.integers(2, 5))
    e = int(np_rng.integers(2, 7))
    width = int(np_rng.integers(2, 9))
    k = int(np_rng.integers(2, 5))
    head = init_head(width, k, m, h, e, rng)
    # spread routing parameters so pre-activations span large magnitudes
    head.routing_b += np_rng.uniform(-20, 20, head.routing_b.shape)
    return head, width


def test_criterion_1_routing_normalization():
    with criterion(1, "routing normalization"):
        rng = RngState(11)
        np_rng = np.random.default_rng(11)
        for _ in range(1000):
            head, width = _random_head(rng, np_rng)
            act = rng.normal(3, width) * float(np_rng.uniform(0.5, 5.0))
            r = route(head, act)
            per_tree = r.p.reshape(3, head.trees, -1).sum(axis=2)
            assert np.max(np.abs(per_tree - 1.0)) < 1e-9


def test_criterion_2_prediction_simplex():
    with criterion(2, "prediction simplex"):
        rng = RngState(22)
        np_rng = np.random.default_rng(22)
        for _ in range(1000):
            head, width = _random_head(rng, np_rng)
            act = rng.normal(2, width)
            out = predict_class(head, route(head, act))
            assert np.all(out >= 0.0)
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9


def test_criterion_3_full_model_gradient_check():
    with criterion(3, "full-model gradient check"):
        from test_training import _analytic_grads
        from dnspn.data import Task

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
        for name, (p, _), g in zip(param_names(model), model_params(model),
                                   grads, strict=True):
            num = central_diff(total_loss, p)
            err = max_rel_error(g, num)
            assert err < 1e-4, f"{name}: rel error {err}"


def test_criterion_4_mask_anchor_points():
    with criterion(4, "mask oracle anchors"):
        cfg = PruneConfig(mode="dsp")
        mu = 0.6
        stats = LayerStats(mu=mu, std=0.0)
        # |w| = gamma * mu -> T = 0
        t = dsp_mask(np.array([[mu]]), stats, cfg)
        assert abs(t[0, 0]) < 1e-15
        # ratio = e with defaults -> T = 1
        t = dsp_mask(np.array([[math.e * mu]]), stats, cfg)
        assert abs(t[0, 0] - 1.0) < 1e-12
        # w = 0 with defaults -> T = alpha * ln(epsilon)
        t = dsp_mask(np.array([[0.0]]), stats, cfg)
        assert abs(t[0, 0] - (-0.0027631)) < 1e-7

        scfg = PruneConfig(mode="surgery", surgery_eta=0.5)
        sstats = LayerStats(mu=1.0, std=1.0)    # omega = 1.5
        omega = 1.5
        w = np.array([[0.5 * omega, 1.0 * omega, 2.0 * omega]])
        for prev_val, expect_mid in ((1.0, 1.0), (0.0, 0.0)):
            prev = np.full_like(w, prev_val)
            t = surgery_mask(w, prev, sstats, scfg)
            assert t[0, 0] == 0.0
            assert t[0, 1] == expect_mid
            assert t[0, 2] == 1.0


def test_criterion_5_mask_gradient():
    with criterion(5, "mask gradient vs finite differences"):
        cfg = PruneConfig(mode="dsp")
        mu = 0.8
        stats = LayerStats(mu=mu, std=0.0)
        np_rng = np.random.default_rng(55)
        w = np_rng.uniform(-4.0 * mu, 4.0 * mu, size=(10000, 1))
        ratio = np.abs(w) / (cfg.gamma * mu)
        keep = np.ones(w.shape, dtype=bool)
        for kink in (cfg.epsilon, 1.0, math.exp(cfg.r / cfg.beta)):
            keep &= np.abs(ratio - kink) > 1e-4
        w = w[keep].reshape(-1, 1)
        h = 1e-7
        numeric = ((w + h) * dsp_mask(w + h, stats, cfg)
                   - (w - h) * dsp_mask(w - h, stats, cfg)) / (2 * h)
        analytic = dsp_mask_grad(w, stats, cfg)
        # floor guards the derivative's zero crossing at ratio = 1/e,
        # where relative error is pure float roundoff
        denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)),
                           1e-7)
        assert np.max(np.abs(numeric - analytic) / denom) < 1e-6

        # recovery contrast: soft mask keeps a gradient where the hard
        # baseline has none
        tiny = np.array([[0.0, cfg.epsilon * cfg.gamma * mu * 0.5]])
        g_soft = dsp_mask_grad(tiny, stats, cfg)
        assert np.all(g_soft != 0.0)
        scfg = PruneConfig(mode="surgery")
        pl = new_pruned_layer(np.array([[1e-9, 5.0]]))
        refresh_mask(pl, scfg)
        assert pl.mask[0, 0] == 0.0     # zeroed entry
        from dnspn.pruning import mask_grad
        assert mask_grad(pl)[0, 0] == 0.0


def test_criterion_6_ensemble_minimizer():
    with criterion(6, "ensemble KL minimizer"):
        np_rng = np.random.default_rng(66)
        for _ in range(50):
            k = int(np_rng.integers(2, 5))
            n_heads = int(np_rng.integers(1, 6))
            heads = []
            for _ in range(n_heads):
                raw = np_rng.random((1, k)) + 1e-3
                heads.append(raw / raw.sum())
            q_star = fuse(heads)
            best = kl_objective(heads, q_star)
            for _ in range(100):
                raw = np_rng.random((1, k)) + 1e-3
                q = raw / raw.sum()
                assert best <= kl_objective(heads, q) + 1e-10


def test_criterion_7_auc_oracle():
    with criterion(7, "AUC rank formula vs pair counting"):
        np_rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(np_rng.integers(10, 501))
            scores = np.round(np_rng.random(n), 2)   # ties guaranteed
            labels = np_rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            pos = scores[labels == 1][:, None]
            neg = scores[labels == 0][None, :]
            oracle = (np.sum(pos > neg) + 0.5 * np.sum(pos == neg)) \
                / (pos.size * neg.size)
            assert roc_auc_binary(scores, labels) == oracle


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "cmd_train byte-identical reports"):
        spec = SyntheticSpec(kind="linear", k=5, sigma=0.5, n_train=500,
                             n_test=200, seed=2)
        ds = generate(spec)
        tr, te = train_test(ds, spec.n_train)
        write_csv(tmp_path / "train.csv", tr)
        write_csv(tmp_path / "test.csv", te)
        args = ["train", "--data", str(tmp_path / "train.csv"),
                "--eval-data", str(tmp_path / "test.csv"),
                "--epochs", "3", "--trees", "3", "--depth", "3",
                "--embed", "4", "--seed", "9",
                "--out", str(tmp_path / "runs")]
        assert cli_main(args) == 0
        run_dirs = list((tmp_path / "runs").iterdir())
        assert len(run_dirs) == 1
        report_path = run_dirs[0] / "report.json"
        first = report_path.read_bytes()
        assert cli_main(args + ["--force"]) == 0
        assert report_path.read_bytes() == first
        model_first = (run_dirs[0] / "model.json").read_bytes()
        assert cli_main(args + ["--force"]) == 0
        assert (run_dirs[0] / "model.json").read_bytes() == model_first


def _train_eval(method, tr, te, seed, epochs=20):
    model, mode = method_model(method, tr.d, tr.task, RngState(seed))
    cfg = TrainConfig(epochs=epochs, seed=seed, prune=PruneConfig(mode=mode))
    history = fit(model, tr, te, cfg)
    return model, history


def _read_fit(read, method, tr, te, seed):
    return read(method, *_train_eval(method, tr, te, seed))


def _fits(cells, tr, te, read):
    """`read(method, model, history)` of the fit of each (method, seed)
    cell, in cell order. The cells run through `run_calls`, one process a
    CPU, so a cell sends back only what `read` takes from its fit; it runs
    them at one BLAS thread, so the means are those of one thread at any
    thread count."""
    return run_calls([functools.partial(_read_fit, read, method, tr, te,
                                        seed) for method, seed in cells])


def _final_metric(method, model, history):
    return history.records[-1].metric


def test_criterion_9_noise_resistance_ordering():
    with criterion(9, "quadratic-50 method ordering"):
        spec = SyntheticSpec(kind="quadratic", k=50, sigma=1.0,
                             n_train=10000, n_test=2000, seed=0)
        ds = generate(spec)
        tr, te = train_test(ds, spec.n_train)
        tr, te, _ = standardize(tr, te)
        methods = ("fcnn", "dndn", "dnspn")
        accs = _fits([(method, seed) for method in methods
                      for seed in range(5)], tr, te, _final_metric)
        means = {method: float(np.mean(accs[5 * i:5 * i + 5]))
                 for i, method in enumerate(methods)}
        print(f"  quadratic-50 means: fcnn={means['fcnn']:.4f} "
              f"dndn={means['dndn']:.4f} dnspn={means['dnspn']:.4f}")
        assert means["dnspn"] >= means["dndn"] - 0.005
        assert means["dnspn"] >= means["fcnn"] + 0.010


def test_criterion_10_linear50_noiseless_sanity():
    with criterion(10, "linear-50 noiseless sanity"):
        spec = SyntheticSpec(kind="linear", k=50, sigma=0.0,
                             n_train=10000, n_test=2000, seed=0)
        ds = generate(spec)
        tr, te = train_test(ds, spec.n_train)
        tr, te, _ = standardize(tr, te)
        bests = _fits([("dnspn", seed) for seed in range(3)], tr, te,
                      lambda method, model, history: max(
                          rec.metric for rec in history.records))
        for seed, best in enumerate(bests):
            assert best >= 0.97, f"seed {seed}: best test acc {best}"


def test_criterion_11_xor_end_to_end():
    with criterion(11, "XOR end-to-end"):
        passed = 0
        for seed in range(5):
            ds = gen_xor(400, 0.25, RngState(100 + seed))
            model = build_forest_model(2, ds.task, RngState(seed), trees=4,
                                       depth=3, embed_dim=4)
            # width-4 backbone: dropout off, smaller batches for more steps
            cfg = TrainConfig(epochs=200, batch_size=64, dropout=0.0,
                              seed=seed)
            history = fit(model, ds, ds, cfg)
            best = max(rec.metric for rec in history.records)
            if best >= 0.95:
                passed += 1
        assert passed >= 3, f"only {passed}/5 seeds reached 0.95"


def test_criterion_12_dsp_no_harm():
    with criterion(12, "DSP no-harm with sparsity"):
        spec = SyntheticSpec(kind="linear", k=50, sigma=1.0,
                             n_train=10000, n_test=2000, seed=0)
        ds = generate(spec)
        tr, te = train_test(ds, spec.n_train)
        tr, te, _ = standardize(tr, te)
        methods = ("dndn", "dnspn")
        reads = _fits([(method, seed) for method in methods
                       for seed in range(5)], tr, te,
                      lambda method, model, history: (
                          history.records[-1].metric,
                          backbone_sparsity(model) if method == "dnspn"
                          else None))
        means = {method: float(np.mean([acc for acc, _ in
                                        reads[5 * i:5 * i + 5]]))
                 for i, method in enumerate(methods)}
        sparsities = [sparsity for _, sparsity in reads[5:]]
        print(f"  linear-50 sigma=1: dndn={means['dndn']:.4f} "
              f"dnspn={means['dnspn']:.4f} "
              f"sparsity={np.mean(sparsities):.3f}")
        assert means["dnspn"] >= means["dndn"] - 0.010
        assert np.mean(sparsities) > 0.05
