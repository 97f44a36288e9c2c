"""What the benchmark under perfbench/ relies on in the program.

Its traced run (`perfbench/run.py --trace 1`) replaces the functions that
`perfbench/spans.py` lists in `PATCHES` with timing wrappers, and its
checks read each model's mask records. A refactor that renames one of those
functions or records would break only the traced run, so these tests hold
the program to that contract, and run the benchmark's own model checks
(`perfbench/checks.py`) on trained models. They read perfbench/ and change
nothing there.
"""

import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import dnspn.forest
import dnspn.training as training
from dnspn.data import Dataset, Task
from dnspn.numeric import RngState
from dnspn.pruning import PruneConfig, PrunedLayer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
sys.path.insert(0, str(PERFBENCH))     # checks.py imports its sibling
try:
    checks = _load("checks")
finally:
    sys.path.remove(str(PERFBENCH))

PATCHED = sorted({(module, attr) for module, attr, *_ in spans.PATCHES})
CLS = Task(kind="classification", n_classes=2)


@pytest.mark.parametrize("module,attr", PATCHED)
def test_patched_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("method", training.METHODS)
def test_model_exposes_mask_records(method):
    model, _ = training.method_model(method, 3, CLS, RngState(0), trees=2,
                                     depth=2, embed_dim=2)
    assert len(model.layer_prunes) == len(model.layers)
    assert len(model.proj_prunes) == len(model.heads)
    for pl in model.layer_prunes + model.proj_prunes:
        assert isinstance(pl, PrunedLayer)
        assert pl.mask.shape == pl.shadow.shape
        assert pl.shadow.dtype == pl.mask.dtype == np.float64


def test_traced_fit_and_predict():
    # the wrappers call through, and each mask span counts the entries of
    # the record it was given
    fit = training.fit
    tracer = spans.Tracer()
    tracer.install({module: importlib.import_module(module)
                    for module, _ in PATCHED})
    try:
        rng = RngState(1)
        X = rng.normal(40, 3)
        ds = Dataset(X, (X[:, 0] > 0).astype(np.int64), CLS)
        model, mode = training.method_model("dnspn", 3, CLS, RngState(2),
                                            trees=2, depth=2, embed_dim=2)
        training.fit(model, ds, ds, training.TrainConfig(
            epochs=1, batch_size=20, prune=PruneConfig(mode=mode)))
        training.predict(model, X[:1])
    finally:
        tracer.uninstall()
    summary = spans.Summary(tracer.spans)
    assert summary.nesting_error() == 0.0
    _, _, counts = summary.totals(lambda i, s: True)
    entries = sum(pl.shadow.size
                  for pl in model.layer_prunes + model.proj_prunes)
    for name in ("training.fit", "training.train_step", "training.predict",
                 "training.adam_update", "network.forward",
                 "network.backward", "forest.route", "forest.backward",
                 "pruning.apply_mask", "pruning.mask_grad", "pruning.refresh",
                 "ensemble.fuse"):
        assert summary.calls(name) > 0, name
    # a refresh before the first step and after each of the two steps
    assert counts["pruning.refresh"] == 3 * entries
    assert counts["pruning.apply_mask"] == 3 * entries
    assert training.fit is fit


def test_traced_split_predict_stays_on_the_main_thread(monkeypatch):
    # a 2000-row predict of a deep forest splits each head's route over
    # two threads; the tracer is single-threaded, so every span must still
    # open on the calling thread and nest
    monkeypatch.setattr(dnspn.forest, "_cpu_count", lambda: 2)
    model = training.build_forest_model(2, CLS, RngState(5), trees=32,
                                        depth=6, embed_dim=8)
    X = RngState(6).normal(2000, 2)
    want = training.predict(model, X)
    tracer = spans.Tracer()
    opened = []
    open_span = tracer._open

    def record_thread(name):
        opened.append(threading.get_ident())
        return open_span(name)

    tracer._open = record_thread
    tracer.install({module: importlib.import_module(module)
                    for module, _ in PATCHED})
    try:
        got = training.predict(model, X)
    finally:
        tracer.uninstall()
    summary = spans.Summary(tracer.spans)
    assert summary.nesting_error() == 0.0
    assert summary.calls("forest.route") == len(model.heads) == 3
    assert summary.calls("training.predict") == 1
    assert opened and set(opened) == {threading.get_ident()}
    assert np.array_equal(got, want)


@pytest.mark.parametrize("method", training.METHODS)
def test_benchmark_checks_pass_after_a_fit(method):
    # the masks follow their mode's definition, and predict agrees with
    # the benchmark's reference forward over shadow * mask
    X = RngState(3).normal(60, 3)
    ds = Dataset(X, (X[:, 0] * X[:, 1] > 0).astype(np.int64), CLS)
    model, mode = training.method_model(method, 3, CLS, RngState(4), trees=3,
                                        depth=3, embed_dim=2)
    prune = PruneConfig(mode=mode)
    training.fit(model, ds, None, training.TrainConfig(
        epochs=1, batch_size=20, prune=prune))
    checks.masks(model, prune)
    want, _ = checks.reference.forward(model, X)
    checks.close(training.predict(model, X), want, f"{method} predict")
