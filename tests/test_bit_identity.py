"""The routing kernels reproduce their reference forms bit for bit.

The references in reference_kernels.py are the sign-select sigmoid, the
routing loop that built each level from temporaries over the whole batch,
the head output and eval forward over such routings, and a copy of the
forest backward. Every comparison is on the raw float64 bits, so signs of
zero and NaN payloads count too.
"""

import numpy as np
import pytest

import reference_kernels as ref
from dnspn.data import Task
from dnspn.forest import (ROUTE_BLOCK_BYTES, _block_count, forest_backward,
                          init_head, predict_class, predict_regress, route)
from dnspn.numeric import RngState, sigmoid
from dnspn.pruning import PruneConfig
from dnspn.training import build_forest_model, predict, refresh_masks

EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 1e-320,
         -1e-320, 1.0, -1.0, 36.0, -36.0, 745.0, -745.0, 710.0, -710.0]


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want, what):
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.shape == want.shape, what
    assert np.array_equal(bits(got), bits(want)), what


class TestSigmoid:
    def test_normals(self):
        x = np.random.default_rng(7).normal(size=200_000) * 8.0
        assert_same_bits(sigmoid(x), ref.sigmoid_select(x), "normals")

    def test_edge_values(self):
        x = np.array(EDGES)
        assert_same_bits(sigmoid(x), ref.sigmoid_select(x), "edges")

    @pytest.mark.parametrize("value", EDGES)
    def test_scalar_in_scalar_out(self, value):
        for arg in (value, np.float64(value), np.asarray(value)):
            got = sigmoid(arg)
            assert type(got) is float
            assert_same_bits(got, ref.sigmoid_select(arg), repr(arg))


def _head_case(kind, depth, trees, batch):
    n_out = 3 if kind == "classification" else 1
    rng = RngState(100 * depth + trees)
    head = init_head(5, n_out, trees, depth, 4, kind, rng)
    # spread the pre-activations over both signs and into saturation
    head.routing_b[:] = rng.random(head.routing_b.shape) * 60.0 - 30.0
    act = rng.normal(batch, 5)
    upstream = rng.normal(batch, n_out)
    return head, act, upstream


CASES = [(kind, depth, trees, batch)
         for kind in ("classification", "regression")
         for depth in (1, 2, 4, 6)
         for trees in (1, 32)
         for batch in (1, 64)]


@pytest.mark.parametrize("kind,depth,trees,batch", CASES)
def test_route_and_backward_match_reference(kind, depth, trees, batch):
    head, act, upstream = _head_case(kind, depth, trees, batch)
    got = route(head, act)
    want = ref.route(head, act)
    assert_same_bits(got.p, want.p, "p")
    assert_same_bits(got.embedding, want.embedding, "embedding")
    assert_same_bits(got.decisions, want.decisions, "decisions")
    assert len(got.level_mus) == len(want.level_mus) == depth - 1
    for level, (a, b) in enumerate(zip(got.level_mus, want.level_mus)):
        assert_same_bits(a, b, f"level_mus[{level}]")

    g = forest_backward(head, got, act, upstream)
    w = ref.forest_backward(head, want, act, upstream)
    for name in ("proj_w", "proj_b", "routing_w", "routing_b", "leaf",
                 "activation"):
        assert_same_bits(getattr(g, name), getattr(w, name), name)


# (trees, depth, layer width): a deep-forest head on a 4-wide layer and a
# paper-sized head on a 200-wide layer, both with 8-wide embeddings
BLOCKED_HEADS = [(32, 6, 4), (10, 4, 200)]


def _block_rows(trees, depth):
    """The most rows an eval route takes in one block for this shape."""
    return ROUTE_BLOCK_BYTES // (8 * trees * (2 ** (depth - 1) - 1))


# batch size from the head's block rows
BATCHES = {"1": lambda block: 1, "2": lambda block: 2,
           "block-1": lambda block: block - 1, "block": lambda block: block,
           "block+1": lambda block: block + 1,
           "2*block+1": lambda block: 2 * block + 1,
           "2000": lambda block: 2000}

BLOCKED_CASES = [(kind, trees, depth, width, which)
                 for kind in ("classification", "regression")
                 for trees, depth, width in BLOCKED_HEADS
                 for which in BATCHES]


@pytest.mark.parametrize("kind,trees,depth,width,which", BLOCKED_CASES)
def test_blocked_route_matches_whole_batch(kind, trees, depth, width, which):
    batch = BATCHES[which](_block_rows(trees, depth))
    n_out = 3 if kind == "classification" else 1
    rng = RngState(7 * trees + depth)
    head = init_head(width, n_out, trees, depth, 8, kind, rng)
    head.routing_b[:] = rng.random(head.routing_b.shape) * 60.0 - 30.0
    act = rng.normal(batch, width)
    want = ref.route(head, act)
    head_out = predict_class if kind == "classification" else predict_regress

    blocked = route(head, act, keep_factors=False)
    assert blocked.decisions is None and blocked.level_mus == []
    assert_same_bits(blocked.p, want.p, "p")
    assert_same_bits(blocked.embedding, want.embedding, "embedding")
    assert_same_bits(head_out(head, blocked), ref.head_predict(head, want),
                     "head output")

    kept = route(head, act)
    assert_same_bits(kept.p, want.p, "kept p")
    assert_same_bits(kept.decisions, want.decisions, "decisions")
    for level, (a, b) in enumerate(zip(kept.level_mus, want.level_mus,
                                       strict=True)):
        assert_same_bits(a, b, f"level_mus[{level}]")


@pytest.mark.parametrize("batch", [0, 1, 2, 3, 65, 66, 67, 133, 2000])
@pytest.mark.parametrize("row_bytes", [0, 8 * 70, 8 * 992, 10 * 2 ** 20])
def test_block_count(batch, row_bytes):
    # route splits the rows into n near-equal blocks: floor or ceil of
    # batch / n rows each
    n = _block_count(batch, row_bytes)
    assert n >= 1
    assert batch < 2 or batch // n >= 2       # no one-row block
    if 4 * row_bytes <= ROUTE_BLOCK_BYTES:    # the budget sets the count
        assert (-(-batch // n) - 1) * row_bytes < ROUTE_BLOCK_BYTES
        assert (n - 1) * ROUTE_BLOCK_BYTES < max(1, batch * row_bytes)


@pytest.mark.parametrize("kind", ["classification", "regression"])
def test_predict_matches_whole_batch_forward(kind):
    task = (Task(kind, n_classes=2) if kind == "classification"
            else Task(kind))
    model = build_forest_model(2, task, RngState(11), trees=32, depth=6,
                               embed_dim=8)
    # masks away from all ones, so the masked weights are what is routed
    refresh_masks(model, PruneConfig(alpha=0.5))
    X = RngState(12).normal(2000, 2)
    for batch in (1, 2, 67, 2000):
        assert_same_bits(predict(model, X[:batch]), ref.predict(model,
                         X[:batch]), f"predict of {batch} rows")
