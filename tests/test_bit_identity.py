"""The routing and mask kernels reproduce their reference forms bit for bit.

The references in reference_kernels.py are the sign-select sigmoid, the
routing loop that built each level from temporaries over the whole batch,
the head output and eval forward over such routings, a copy of the forest
backward, all in tree-major node order, and the mask refresh as it was
computed with a temporary a step and `np.where` selections. The kernels
work in level-major order, so their decisions are mapped back before they
are compared. Every comparison is on the raw float64 bits, so signs of zero
and NaN payloads count too.

The text files are held to their bytes: every JSON file the CLI writes
against `json.dump`, at one CPU and split over two, the dataset and
mask-curve CSVs against
`csv.writer`, and `load_csv`'s values and messages against the loader that
parsed one cell at a time.
"""

import os
import threading
from pathlib import Path

import numpy as np
import pytest

import reference_kernels as ref
import dnspn.cli
import dnspn.data
import dnspn.model_io
import dnspn.network
import dnspn.numeric
import dnspn.training
from dnspn.cli import main
from dnspn.data import (Dataset, SyntheticSpec, Task, generate, gen_xor,
                        load_csv, write_csv)
from dnspn.errors import DataError, NumericError
import dnspn.forest
from dnspn.forest import (HEAD_PARAMS, ROUTE_BLOCK_BYTES, _block_count,
                          _decisions, _leaf_probs, _level_order,
                          forest_backward, init_head, predict_class,
                          predict_regress, route)
from dnspn.model_io import load_model, save_model, write_json
from dnspn.numeric import RngState, sigmoid
from dnspn.pruning import (MODE_DSP, MODE_SURGERY, LayerStats, PruneConfig,
                           apply_mask, dsp_mask, layer_stats, mask_curve,
                           new_pruned_layer, refresh_mask, surgery_mask)
from dnspn.network import build_network
from dnspn.training import (METHODS, AdamState, Model, TrainConfig,
                            build_forest_model, build_softmax_model,
                            gradients, model_params, predict, refresh_masks,
                            train_step)
from conftest import dsp_mask_grad, param_names
from test_cli import CSV_MUTATIONS

# a DSP refresh at a large alpha, so masks move well away from all ones
DSP = PruneConfig(alpha=0.5, mode=MODE_DSP)

EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 1e-320,
         -1e-320, 1.0, -1.0, 36.0, -36.0, 745.0, -745.0, 710.0, -710.0]


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want, what):
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.shape == want.shape, what
    assert np.array_equal(bits(got), bits(want)), what


def tree_major(head, columns):
    """Level-major node columns (rows, trees * nodes) back in the reference's
    tree-major shape (rows, trees, nodes)."""
    _, inverse = _level_order(head.trees, head.depth)
    return np.take(columns, inverse, axis=1).reshape(
        len(columns), head.trees, head.nodes_per_tree)


def _count_softmax(monkeypatch):
    """The leaf arrays each later `softmax_rows` call in dnspn.forest takes."""
    leaves = []
    softmax = dnspn.forest.softmax_rows

    def counted(m):
        leaves.append(m)
        return softmax(m)

    monkeypatch.setattr(dnspn.forest, "softmax_rows", counted)
    return leaves


class TestSigmoid:
    def test_normals(self):
        x = np.random.default_rng(7).normal(size=200_000) * 8.0
        assert_same_bits(sigmoid(x), ref.sigmoid_select(x), "normals")

    def test_edge_values(self):
        x = np.array(EDGES)
        assert_same_bits(sigmoid(x), ref.sigmoid_select(x), "edges")

    def test_in_place(self):
        x = np.concatenate([EDGES, np.random.default_rng(8).normal(
            size=1003) * 8.0]).reshape(17, 60)
        want = ref.sigmoid_select(x)
        got = sigmoid(x, out=x)
        assert got is x
        assert_same_bits(x, want, "in place")

    @pytest.mark.parametrize("value", EDGES)
    def test_scalar_in_scalar_out(self, value):
        for arg in (value, np.float64(value), np.asarray(value)):
            got = sigmoid(arg)
            assert type(got) is float
            assert_same_bits(got, ref.sigmoid_select(arg), repr(arg))


def _head_case(kind, depth, trees, batch):
    n_out = 3 if kind == "classification" else 1
    rng = RngState(100 * depth + trees)
    head = init_head(5, n_out, trees, depth, 4, rng)
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
    assert_same_bits(tree_major(head, got.decisions), want.decisions,
                     "decisions")
    assert len(got.level_mus) == len(want.level_mus) == depth - 1
    for level, (a, b) in enumerate(zip(got.level_mus, want.level_mus)):
        assert_same_bits(a, b, f"level_mus[{level}]")

    assert_same_bits(tree_major(head, got.complements), 1.0 - want.decisions,
                     "complements")

    g = forest_backward(head, got, act, upstream)
    w = ref.forest_backward(head, want, act, upstream)
    for name, a, b in zip(GRADS, g, w, strict=True):
        assert_same_bits(a, b, name)


GRADS = HEAD_PARAMS + ("activation",)


@pytest.mark.parametrize("trees", [1, 3, 32])
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
def test_level_order(trees, depth):
    order, inverse = _level_order(trees, depth)
    nodes = 2 ** (depth - 1) - 1
    n = trees * nodes
    assert np.array_equal(np.sort(order), np.arange(n))
    assert np.array_equal(order[inverse], np.arange(n))
    assert np.array_equal(inverse[order], np.arange(n))
    # columns run by (level, tree, node in level)
    tree, node = np.divmod(order, max(nodes, 1))
    level = np.log2(node + 1).astype(int)
    keys = list(zip(level, tree, node))
    assert keys == sorted(keys)
    assert not order.flags.writeable and not inverse.flags.writeable
    assert _level_order(trees, depth)[0] is order


# embed_dim 8: batches 1, 2 and 5 permute the pre-activation columns, 64
# and 2000 the routing rows
OPERAND_BATCHES = [1, 2, 5, 64, 2000]


@pytest.mark.parametrize("kind", ["classification", "regression"])
@pytest.mark.parametrize("batch", OPERAND_BATCHES)
def test_both_operand_orders_match_reference(kind, batch):
    n_out = 3 if kind == "classification" else 1
    rng = RngState(batch)
    head = init_head(6, n_out, 32, 6, 8, rng)
    head.routing_b[:] = rng.random(head.routing_b.shape) * 60.0 - 30.0
    act = rng.normal(batch, 6)
    upstream = rng.normal(batch, n_out)
    want = ref.route(head, act)
    order, _ = _level_order(head.trees, head.depth)
    z = want.embedding
    by_cols = _decisions(head.routing_w, head.routing_b, z, order)
    by_rows = _decisions(np.take(head.routing_w, order, axis=0),
                         np.take(head.routing_b, order), z, None)
    assert_same_bits(tree_major(head, by_cols), want.decisions, "columns")
    assert_same_bits(tree_major(head, by_rows), want.decisions, "rows")

    got = route(head, act)
    assert_same_bits(got.p, want.p, "p")
    assert_same_bits(got.embedding, want.embedding, "embedding")
    assert_same_bits(tree_major(head, got.decisions), want.decisions,
                     "decisions")
    assert_same_bits(tree_major(head, got.complements), 1.0 - want.decisions,
                     "complements")
    for level, (a, b) in enumerate(zip(got.level_mus, want.level_mus,
                                       strict=True)):
        assert_same_bits(a, b, f"level_mus[{level}]")
    g = forest_backward(head, got, act, upstream)
    w = ref.forest_backward(head, want, act, upstream)
    for name, a, b in zip(GRADS, g, w, strict=True):
        assert_same_bits(a, b, name)
    blocked = route(head, act, keep_factors=False)
    assert_same_bits(blocked.p, want.p, "eval p")


def test_train_step_takes_each_leaf_softmax_once(monkeypatch):
    task = Task("classification", n_classes=2)
    model = build_forest_model(2, task, RngState(3), trees=4, depth=3,
                               embed_dim=2)
    leaves = _count_softmax(monkeypatch)
    rng = RngState(4)
    X, y = rng.normal(16, 2), (np.arange(16) % 2)
    train_step(model, X, y, TrainConfig(dropout=0.0), AdamState(), rng)
    assert len(leaves) == len(model.heads) == 3
    assert all(any(m is head.leaf for m in leaves) for head in model.heads)


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
def test_blocked_route_matches_whole_batch(kind, trees, depth, width, which,
                                           monkeypatch):
    batch = BATCHES[which](_block_rows(trees, depth))
    n_out = 3 if kind == "classification" else 1
    rng = RngState(7 * trees + depth)
    head = init_head(width, n_out, trees, depth, 8, rng)
    head.routing_b[:] = rng.random(head.routing_b.shape) * 60.0 - 30.0
    act = rng.normal(batch, width)
    want = ref.route(head, act)
    head_out = predict_class if kind == "classification" else predict_regress

    # 0 to 3 worker threads beside the caller, as many as the blocks allow
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: cpus)
        blocked = route(head, act, keep_factors=False)
        assert blocked.decisions is None and blocked.level_mus == []
        assert_same_bits(blocked.p, want.p, f"p at {cpus} CPUs")
        assert_same_bits(blocked.embedding, want.embedding, "embedding")
        assert_same_bits(head_out(head, blocked),
                         ref.head_predict(head, want), "head output")

    kept = route(head, act)
    assert_same_bits(kept.p, want.p, "kept p")
    assert_same_bits(tree_major(head, kept.decisions), want.decisions,
                     "decisions")
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
    refresh_masks(model, DSP)
    X = RngState(12).normal(2000, 2)
    for batch in (1, 2, 67, 2000):
        assert_same_bits(predict(model, X[:batch]), ref.predict(model,
                         X[:batch]), f"predict of {batch} rows")


# Models whose eval forward is held to the whole-batch bits: the paper
# dnspn (100 -> 200 -> 200 -> 200), whose three layers run in row blocks;
# fcnn, whose 200 -> 2 or 200 -> 1 readout runs on the caller after two
# blocked layers; and dnspn backbones of d = 10, too narrow to split,
# d = 50, 100 wide, and d = 102, whose 204-wide layers (not a multiple
# of 8) would change bits in blocks
FORWARD_MODELS = {
    "paper": lambda: build_forest_model(100, Task("classification",
                                                  n_classes=2),
                                        RngState(31), 10, 4, 8),
    "fcnn": lambda: build_softmax_model(100, Task("classification",
                                                  n_classes=2),
                                        RngState(32)),
    "fcnn-regress": lambda: build_softmax_model(100, Task("regression"),
                                                RngState(33)),
    "dnspn-d10": lambda: build_forest_model(10, Task("classification",
                                                     n_classes=3),
                                            RngState(34), 10, 4, 8),
    "dnspn-d50": lambda: build_forest_model(50, Task("regression"),
                                            RngState(35), 10, 4, 8),
    "dnspn-d102": lambda: build_forest_model(102, Task("classification",
                                                       n_classes=2),
                                             RngState(39), 10, 4, 8)}


@pytest.mark.parametrize("rows", [255, 256, 257, 300, 2000, 2001])
@pytest.mark.parametrize("name", sorted(FORWARD_MODELS))
def test_blocked_forward_matches_whole_batch(name, rows, monkeypatch):
    model = FORWARD_MODELS[name]()
    refresh_masks(model, DSP)
    X = RngState(rows).normal(rows, model.input_dim)
    monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: 1)
    want = dnspn.network.forward(model.layers, X)
    want_out = predict(model, X)
    for i, post in enumerate(ref.eval_forward(model.layers, X)):
        assert_same_bits(want.dropped[i], post, f"dropped[{i}] at 1 CPU")
    # 0 to 3 worker threads beside the caller, on a row-major input and
    # on a column-major copy, whose row blocks are strided
    for cpus in (2, 3, 4):
        monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: cpus)
        for x in (X, np.asfortranarray(X)):
            got = dnspn.network.forward(model.layers, x)
            assert len(got.dropped) == len(model.layers)
            for i, (a, b) in enumerate(zip(got.dropped, want.dropped)):
                assert_same_bits(a, b, f"dropped[{i}] at {cpus} CPUs")
                assert got.drop_masks[i] is None
            assert_same_bits(predict(model, x), want_out,
                             f"predict at {cpus} CPUs")


def _record_blocks(monkeypatch, in_block=None):
    """(lo, hi) of each row block that a later forward runs, and the
    thread count it asks for, in a list, one entry a forward. While a
    block runs, `in_block.on` is true on its thread."""
    calls = []
    run = dnspn.network.run_blocks

    def recorded(rows, n, work, threads):
        blocks = []
        calls.append((blocks, threads))

        def block(lo, hi):
            blocks.append((lo, hi))
            if in_block is not None:
                in_block.on = True
            try:
                return work(lo, hi)
            finally:
                if in_block is not None:
                    in_block.on = False

        return run(rows, n, block, threads)

    monkeypatch.setattr(dnspn.network, "run_blocks", recorded)
    return calls


@pytest.mark.parametrize("rows,blocks", [(255, 0), (256, 4), (257, 4),
                                         (300, 4), (639, 9)])
def test_forward_blocks_keep_the_row_floor(rows, blocks, monkeypatch):
    # 1024-wide layers fill ROUTE_BLOCK_BYTES at 64 rows, so the row floor
    # sets the block count: rows // 64 blocks, split only at 4 or more,
    # two a thread
    monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: 4)
    layers = build_network(512, 2, RngState(36))
    X = RngState(37).normal(rows, 512)
    calls = _record_blocks(monkeypatch)
    got = dnspn.network.forward(layers, X)
    if blocks:
        (ran, threads), = calls
        assert sorted(ran) == [(rows * i // blocks, rows * (i + 1) // blocks)
                               for i in range(blocks)]
        assert min(hi - lo for lo, hi in ran) >= dnspn.network.WIDE
        assert threads == min(4, blocks // 2)
    else:
        assert calls == []
    for i, post in enumerate(ref.eval_forward(layers, X)):
        assert_same_bits(got.dropped[i], post, f"dropped[{i}]")


@pytest.mark.parametrize("widths,blocked", [
    ((200, 200, 2), 2), ((200, 63, 200), 1), ((63, 200, 200), 0),
    ((64, 64, 64), 3), ((200, 200, 1), 2), ((200, 204, 200), 1),
    ((204, 200, 200), 0), ((56, 200, 200), 0)])
def test_narrow_layers_run_on_the_caller(widths, blocked, monkeypatch):
    # only the leading layers at least WIDE wide, in a multiple of 8, run
    # in row blocks; every layer from the first other one on runs once,
    # over the whole batch
    monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: 2)
    rng = RngState(38)
    fan_in = [100, *widths[:-1]]
    layers = [dnspn.network.DenseLayer(rng.normal(out, n_in), rng.normal(1,
              out)[0], "relu") for n_in, out in zip(fan_in, widths)]
    X = rng.normal(4096, 100)
    read, in_block = [], threading.local()

    class Watched(np.ndarray):
        """Weights that record each product they take part in: their
        layer's index, and whether a row block took it."""

        @property
        def T(self):
            read.append((self.index, getattr(in_block, "on", False)))
            return np.asarray(self).T

    for i, layer in enumerate(layers):
        layer.weights = layer.weights.view(Watched)
        layer.weights.index = i
    calls = _record_blocks(monkeypatch, in_block)
    got = dnspn.network.forward(layers, X)
    for layer in layers:
        layer.weights = np.asarray(layer.weights)
    # a blocked layer is read once a block, every other once, on the caller
    assert len(calls) == (1 if blocked else 0)
    blocks = sum(len(ran) for ran, _ in calls)
    assert sorted(read) == sorted(
        [(i, True) for i in range(blocked) for _ in range(blocks)]
        + [(i, False) for i in range(blocked, len(layers))])
    for i, post in enumerate(ref.eval_forward(layers, X)):
        assert_same_bits(got.dropped[i], post, f"dropped[{i}]")


def _memo_model():
    """A 3-class forest model with masks away from all ones, and inputs."""
    model = build_forest_model(2, Task("classification", n_classes=3),
                               RngState(21), trees=4, depth=3, embed_dim=2)
    refresh_masks(model, DSP)
    rng = RngState(22)
    return model, rng.normal(67, 2), np.arange(67) % 3


def _edit_in_place(model, X, y, tmp_path):
    for head in model.heads:
        head.leaf[1] += 0.5
    return model


def _replace_array(model, X, y, tmp_path):
    # a flipped view is not contiguous
    for head in model.heads:
        head.leaf = np.flipud(head.leaf)
    return model


def _train_step(model, X, y, tmp_path):
    train_step(model, X, y, TrainConfig(dropout=0.0, prune=DSP), AdamState(),
               RngState(23))
    return model


def _load_model(model, X, y, tmp_path):
    _train_step(model, X, y, tmp_path)
    save_model(model, tmp_path / "model.json")
    return load_model(tmp_path / "model.json")


LEAF_CHANGES = {"edited in place": _edit_in_place,
                "array replaced": _replace_array,
                "train_step": _train_step, "load_model": _load_model}


@pytest.mark.parametrize("change", sorted(LEAF_CHANGES))
def test_predict_follows_the_leaves(change, tmp_path):
    # the first predict memoizes each head's leaf softmax; after the
    # leaves change, predict must match the reference, not the memo
    model, X, y = _memo_model()
    before = predict(model, X)
    assert_same_bits(before, ref.predict(model, X), "before")
    model = LEAF_CHANGES[change](model, X, y, tmp_path)
    after = predict(model, X)
    assert_same_bits(after, ref.predict(model, X), change)
    assert not np.array_equal(bits(after), bits(before)), change
    assert_same_bits(predict(model, X), after, "memoized")


def test_predict_follows_replaced_parameters():
    # predict computes with the model's own layers and heads, so arrays
    # replaced on them (not edited in place) are what it routes with
    model, X, _ = _memo_model()
    before = predict(model, X)
    for head in model.heads:
        head.routing_w = 2.0 * head.routing_w
    model.layers[1].bias = model.layers[1].bias + 0.3
    after = predict(model, X)
    assert_same_bits(after, ref.predict(model, X), "replaced parameters")
    assert not np.array_equal(bits(after), bits(before))


def test_predict_takes_each_leaf_softmax_once(monkeypatch):
    model, X, _ = _memo_model()
    leaves = _count_softmax(monkeypatch)
    first = predict(model, X)
    for batch in [1, 2, 67] * 33:
        assert_same_bits(predict(model, X[:batch]), ref.predict(
            model, X[:batch]), f"predict of {batch} rows")
    assert_same_bits(predict(model, X), first, "last predict")
    assert len(leaves) == len(model.heads) == 3


def test_predict_gradients_predict_take_each_leaf_softmax_once(monkeypatch):
    # the training forward and the backward read the memo the eval forward
    # left, while the leaves hold the same bits
    model, X, y = _memo_model()
    leaves = _count_softmax(monkeypatch)
    first = predict(model, X)
    gradients(model, X, y, TrainConfig(dropout=0.0, prune=DSP), None)
    assert_same_bits(predict(model, X), first, "predict after gradients")
    assert len(leaves) == len(model.heads) == 3


def test_memoized_leaf_softmax_is_read_only(monkeypatch):
    head = init_head(3, 3, 4, 3, 2, RngState(24))
    act = RngState(25).normal(7, 3)
    leaves = _count_softmax(monkeypatch)
    predict_class(head, route(head, act, keep_factors=False))
    probs = _leaf_probs(head)
    assert not probs.flags.writeable
    with pytest.raises(ValueError):
        probs[0, 0] = 0.5
    assert not np.shares_memory(probs, head.leaf)
    # a training routing's forward and backward read that same memo
    kept, want = route(head, act), ref.route(head, act)
    assert_same_bits(predict_class(head, kept), ref.head_predict(head, want),
                     "training head output")
    upstream = RngState(26).normal(7, 3)
    g = forest_backward(head, kept, act, upstream)
    w = ref.forest_backward(head, want, act, upstream)
    for name, a, b in zip(GRADS, g, w, strict=True):
        assert_same_bits(a, b, name)
    assert _leaf_probs(head) is probs and len(leaves) == 1


# ---------------------------------------------------------------------------
# The mask refresh
# ---------------------------------------------------------------------------

def _random_matrices():
    """40 random matrices of assorted shapes and scales, a tenth of their
    entries exact zeros of either sign."""
    rng = np.random.default_rng(31)
    out = []
    for i in range(40):
        shape = tuple(int(n) for n in rng.integers(1, 120, size=2))
        w = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
        zeros = rng.random(shape) < 0.1
        w[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
        out.append(w)
    return out


def _special_matrices():
    """name -> a matrix at an edge of the refresh."""
    rng = np.random.default_rng(32)
    w = rng.normal(size=(60, 40))
    signed_zeros = w.copy()
    signed_zeros[::3] = 0.0
    signed_zeros[1::3] = -0.0
    return {"scaled 1e-8": w * 1e-8, "scaled 1e-14": w * 1e-14,
            "scaled 1e300": w * 1e300, "signed zeros": signed_zeros,
            "all +0": np.zeros((5, 7)), "all -0": np.full((5, 7), -0.0),
            "one entry": np.array([[-0.3]]), "one zero": np.array([[0.0]]),
            "equal magnitudes": np.array([[0.5, -0.5], [-0.5, 0.5]]),
            "one huge entry": np.where(np.eye(9) > 0, 1e300, 1e-300)}


MATRICES = {**{f"random {i}": w for i, w in enumerate(_random_matrices())},
            **_special_matrices()}

DSP_CONFIGS = {
    "default": PruneConfig(mode=MODE_DSP),
    "alpha -0": PruneConfig(mode=MODE_DSP, alpha=-0.0),
    "beta 2.5": PruneConfig(mode=MODE_DSP, beta=2.5),
    "alpha > beta": PruneConfig(mode=MODE_DSP, alpha=3.0, beta=0.5),
    "gamma r epsilon": PruneConfig(mode=MODE_DSP, alpha=0.01, gamma=0.6,
                                   r=1.7, epsilon=1e-3),
}


def _record(w, mask=None):
    return new_pruned_layer(np.array(w, dtype=np.float64), mask)


@pytest.mark.parametrize("cfg_name", sorted(DSP_CONFIGS))
def test_dsp_refresh_matches_reference(cfg_name):
    cfg = DSP_CONFIGS[cfg_name]
    for name, w in MATRICES.items():
        with np.errstate(all="ignore"):
            stats = ref.layer_stats(w)
            want_mask, want_mult = ref.dsp_pass(w, stats, cfg)
            got = _record(w)
            refresh_mask(got, cfg)
            mine = layer_stats(w)
            assert_same_bits(got.mask, want_mask, f"{name}: refresh mask")
            assert_same_bits(got.multiplier, want_mult,
                             f"{name}: refresh multiplier")
            assert_same_bits(dsp_mask(w, stats, cfg), want_mask,
                             f"{name}: dsp_mask")
            assert_same_bits(dsp_mask_grad(w, stats, cfg), want_mult,
                             f"{name}: dsp_mask_grad")
        assert_same_bits(mine.mu, stats.mu, f"{name}: mu")
        assert_same_bits(mine.std, stats.std, f"{name}: std")


def _prev_masks(shape):
    """name -> a previous surgery mask of `shape`."""
    rng = np.random.default_rng(33)
    return {"zeros": np.zeros(shape), "ones": np.ones(shape),
            "arbitrary": rng.normal(size=shape) * 3.0,
            "mixed": rng.choice([0.0, -0.0, 1.0, 0.25], size=shape)}


SURGERY_CONFIGS = {"default": PruneConfig(mode=MODE_SURGERY),
                   "eta 1.5": PruneConfig(mode=MODE_SURGERY, surgery_eta=1.5),
                   "eta -40": PruneConfig(mode=MODE_SURGERY,
                                          surgery_eta=-40.0)}


@pytest.mark.parametrize("cfg_name", sorted(SURGERY_CONFIGS))
def test_surgery_refresh_matches_reference(cfg_name):
    cfg = SURGERY_CONFIGS[cfg_name]
    for name, w in MATRICES.items():
        for prev_name, prev in _prev_masks(w.shape).items():
            what = f"{name}, prev {prev_name}"
            with np.errstate(all="ignore"):
                stats = ref.layer_stats(w)
                want = ref.surgery_mask(w, prev, stats, cfg)
                got = _record(w, prev.copy())
                refresh_mask(got, cfg)
                assert_same_bits(got.mask, want, f"{what}: refresh")
                assert_same_bits(surgery_mask(w, prev, stats, cfg), want,
                                 f"{what}: surgery_mask")


def test_surgery_with_nan_entries_matches_reference():
    rng = np.random.default_rng(34)
    w = rng.normal(size=(30, 20))
    w[rng.random(w.shape) < 0.1] = np.nan
    for prev_name, prev in _prev_masks(w.shape).items():
        for stats in (ref.layer_stats(np.nan_to_num(w)), ref.layer_stats(w)):
            want = ref.surgery_mask(w, prev, stats, SURGERY_CONFIGS["default"])
            got = surgery_mask(w, prev, stats, SURGERY_CONFIGS["default"])
            assert_same_bits(got, want, f"prev {prev_name}, mu {stats.mu}")
    got = _record(w, np.zeros(w.shape))
    refresh_mask(got, SURGERY_CONFIGS["default"])
    assert_same_bits(got.mask, ref.surgery_mask(
        w, np.zeros(w.shape), ref.layer_stats(w), SURGERY_CONFIGS["default"]),
        "refresh")


@pytest.mark.parametrize("mode", ["none", MODE_DSP, MODE_SURGERY])
def test_refresh_leaves_no_shared_arrays(mode):
    # a new record's mask and multiplier are one array, and a refresh
    # keeps them one but under DSP; no other two of mask, multiplier,
    # effective and shadow share memory, but for mode "none", whose
    # effective weights are the shadow itself
    cfg = PruneConfig(mode=mode, alpha=0.5)
    for w in (np.random.default_rng(35).normal(size=(20, 30)),
              np.zeros((4, 4))):
        pl = new_pruned_layer(w)
        assert pl.mask is pl.multiplier
        old, old_bits = pl.mask, pl.mask.copy()
        refresh_mask(pl, cfg)
        if mode != "none":
            apply_mask(pl)
        assert (pl.mask is pl.multiplier) == (mode != MODE_DSP)
        arrays = {"mask": pl.mask, "effective": pl.effective,
                  "shadow": pl.shadow}
        if mode == MODE_DSP:
            arrays["multiplier"] = pl.multiplier
        for a in arrays:
            for b in arrays:
                if a < b and not (mode == "none" and {a, b} == {
                        "effective", "shadow"}):
                    assert not np.shares_memory(arrays[a], arrays[b]), \
                        (mode, a, b)
        if mode == "none":
            assert pl.effective is pl.shadow
        # the refresh wrote fresh arrays, not the record's old ones
        assert_same_bits(old, old_bits, (mode, "old mask"))


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
@pytest.mark.parametrize("k", [1, 50, 100])
@pytest.mark.parametrize("sigma", [0.0, 0.5, 2.0])
def test_generate_matches_reference(kind, k, sigma):
    # k = 100 takes every feature, so quadratic-k's two subsets are equal
    reference = {"linear": ref.gen_linear_k,
                 "quadratic": ref.gen_quadratic_k}[kind]
    for seed in (0, 3, 7):
        spec = SyntheticSpec(kind=kind, k=k, sigma=sigma, n_train=300,
                             n_test=100, seed=seed)
        ours, theirs = generate(spec), reference(spec)
        for a, b in ((ours.X, theirs.X), (ours.y, theirs.y)):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes(), (kind, k, sigma, seed)
        assert ours.meta == theirs.meta
        assert ours.task == theirs.task


def _fit_outputs(tmp_path, method, regress=False):
    """history.csv and model.json of a 2-epoch `train` run on 100 features."""
    data = tmp_path / "linear.csv"
    if not data.exists():
        write_csv(data, generate(SyntheticSpec(
            kind="linear", k=3, sigma=0.5, n_train=300, n_test=0, seed=5)))
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    argv = ["train", "--data", str(data), "--method", method, "--epochs",
            "2", "--trees", "3", "--depth", "3", "--embed", "2",
            "--seed", "6", "--out", str(out)]
    if regress:
        argv += ["--task", "regress"]
    assert main(argv) == 0
    (run,) = [p for p in out.iterdir() if p.is_dir()]
    return {name: (run / name).read_bytes()
            for name in ("history.csv", "model.json")}


@pytest.mark.parametrize("method,regress", [("dnspn", False),
                                            ("surgery", False),
                                            ("dnspn", True)])
def test_fit_matches_reference_refresh(method, regress, tmp_path,
                                       monkeypatch):
    got = _fit_outputs(tmp_path, method, regress)
    monkeypatch.setattr(dnspn.training, "refresh_mask", ref.refresh_mask)
    want = _fit_outputs(tmp_path, method, regress)
    assert got == want


# ---------------------------------------------------------------------------
# Gradients: one head at a time against every forward, then every backward
# ---------------------------------------------------------------------------

def _shared_layer_model(task, rng, head_layers=(1, 1, 2)):
    """Depth-4 heads on a 3 -> 6 -> 6 -> 4 backbone, at `head_layers`."""
    layers = build_network(3, 4, rng)
    heads = [init_head(layers[j].weights.shape[0],
                       task.n_classes if task.kind == "classification"
                       else 1, 4, 4, 3, rng)
             for j in head_layers]
    return Model(layers=layers, heads=heads, head_layers=list(head_layers),
                 task=task)


CLASSES3 = Task("classification", n_classes=3)
REGRESS = Task("regression")


def _forest(task, trees=5, depth=4):
    return lambda rng: build_forest_model(3, task, rng, trees=trees,
                                          depth=depth, embed_dim=3)


# name -> (model builder on a seeded stream, TrainConfig settings)
GRADIENT_CASES = {
    "class3-none": (_forest(CLASSES3), {}),
    "regress-none": (_forest(REGRESS), {}),
    "class3-dsp": (_forest(CLASSES3), {"prune": DSP}),
    "regress-dsp": (_forest(REGRESS), {"prune": DSP}),
    "class3-surgery": (_forest(CLASSES3), {"prune": PruneConfig(
        mode=MODE_SURGERY, surgery_eta=0.5)}),
    "class3-dropout": (_forest(CLASSES3), {"dropout": 0.3, "prune": DSP}),
    "regress-dropout": (_forest(REGRESS), {"dropout": 0.3}),
    "shared-layer": (lambda rng: _shared_layer_model(CLASSES3, rng),
                     {"dropout": 0.3, "prune": DSP}),
    "shared-layer-regress": (lambda rng: _shared_layer_model(REGRESS, rng),
                             {}),
    # three activation gradients summed into one layer: their order shows
    "three-on-one-layer": (lambda rng: _shared_layer_model(
        CLASSES3, rng, (1, 1, 1, 2)), {"prune": DSP}),
    "depth1": (_forest(CLASSES3, trees=3, depth=1), {"prune": DSP}),
    "deep-forest": (lambda rng: build_forest_model(
        2, Task("classification", n_classes=2), rng, trees=32, depth=6,
        embed_dim=8), {"prune": DSP}),
    "softmax": (lambda rng: build_softmax_model(3, CLASSES3, rng),
                {"dropout": 0.3, "prune": DSP}),
    "softmax-regress": (lambda rng: build_softmax_model(3, REGRESS, rng),
                        {}),
}


@pytest.mark.parametrize("case", sorted(GRADIENT_CASES))
def test_gradients_match_reference(case):
    build, settings = GRADIENT_CASES[case]
    model = build(RngState(21))
    cfg = TrainConfig(**settings)
    rng = RngState(22)
    adam = AdamState()
    for step in range(3):
        X = rng.normal(64, model.input_dim)
        y = (rng.normal(64, 1).ravel() if model.task.kind == "regression"
             else np.arange(64) % model.task.n_classes)
        if step == 0:
            refresh_masks(model, cfg.prune)
        # the same dropout draws on both sides
        loss, grads = gradients(model, X, y, cfg, RngState(30 + step))
        want_loss, want = ref.gradients(model, X, y, cfg, RngState(30 + step))
        assert_same_bits(loss, want_loss, (case, step, "loss"))
        assert len(grads) == len(want)
        for name, g, w in zip(param_names(model), grads, want, strict=True):
            assert_same_bits(g, w, (case, step, name))
        train_step(model, X, y, cfg, adam, RngState(30 + step))


@pytest.mark.parametrize("method,regress", [("dndn", False), ("dnspn", False),
                                            ("surgery", False), ("fcnn", False),
                                            ("dnspn", True)])
def test_fit_matches_reference_gradients(method, regress, tmp_path,
                                         monkeypatch):
    got = _fit_outputs(tmp_path, method, regress)
    monkeypatch.setattr(dnspn.training, "gradients", ref.gradients)
    want = _fit_outputs(tmp_path, method, regress)
    assert got == want


def test_non_finite_loss_raises_before_backbone_backward(monkeypatch):
    # a NaN target makes the batch loss NaN: the step stops with the same
    # message before the backbone backward and before any update
    model = _shared_layer_model(REGRESS, RngState(23))
    before = [p.copy() for p, _ in model_params(model)]
    rng = RngState(24)
    X, y = rng.normal(8, 3), rng.normal(8, 1).ravel()
    y[5] = np.nan
    backward_calls = []
    monkeypatch.setattr(dnspn.network, "backward",
                        lambda *a: backward_calls.append(a))
    message = ("non-finite training loss nan (batch size 8); check the data "
               "scale and learning rate")
    for grads in (gradients, ref.gradients):
        with pytest.raises(NumericError) as err:
            grads(model, X, y, TrainConfig(dropout=0.0), None)
        assert str(err.value) == message
    with pytest.raises(NumericError, match="non-finite training loss nan"):
        train_step(model, X, y, TrainConfig(dropout=0.0), AdamState(), None)
    assert backward_calls == []
    for (p, _), b in zip(model_params(model), before, strict=True):
        assert_same_bits(p, b, "untouched")


# ---------------------------------------------------------------------------
# Text files: the row and array writers against json.dump and csv.writer
# ---------------------------------------------------------------------------

def _written(tmp_path, write, obj):
    """The bytes `write(path, obj)` puts in a new file under `tmp_path`."""
    path = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
    write(path, obj)
    return path.read_bytes()


@pytest.fixture
def json_docs(monkeypatch):
    """(file name, document) of every JSON file the CLI writes from here
    on, through `dnspn.cli` and `dnspn.model_io`."""
    docs = []

    def recording(path, doc):
        docs.append((Path(path).name, doc))
        write_json(path, doc)

    monkeypatch.setattr(dnspn.cli, "write_json", recording)
    monkeypatch.setattr(dnspn.model_io, "write_json", recording)
    return docs


def test_cli_json_matches_reference(json_docs, tmp_path):
    out = tmp_path / "runs"
    for kind in ("linear", "quadratic"):
        assert main(["generate", "--kind", kind, "--k", "4", "--ntrain",
                     "120", "--ntest", "40", "--seed", "3", "--out",
                     str(out / kind)]) == 0
    data = next((out / "quadratic").iterdir())
    shape = ["--trees", "2", "--depth", "3", "--embed", "3"]
    runs = [(method, [], shape) for method in METHODS]
    runs += [("dnspn", ["--task", "regress"], shape),
             ("dnspn", [], ["--trees", "2", "--depth", "1", "--embed", "3"])]
    for i, (method, task, flags) in enumerate(runs):
        assert main(["train", "--data", str(data / "train.csv"),
                     "--eval-data", str(data / "test.csv"), "--method",
                     method, *task, *flags, "--epochs", "1", "--seed", "4",
                     "--out", str(out / f"train{i}")]) == 0
        model = next((out / f"train{i}").iterdir()) / "model.json"
        assert main(["evaluate", "--model", str(model), "--data",
                     str(data / "test.csv"), "--out",
                     str(out / f"eval{i}")]) == 0
    names = [name for name, _ in json_docs]
    assert names == ["meta.json"] * 2 + ["model.json", "report.json",
                                         "report.json"] * len(runs)
    models = [doc for name, doc in json_docs if name == "model.json"]
    assert models[4]["task"]["kind"] == "regression"
    # a depth-1 head has no routing nodes
    assert models[5]["heads"][0]["routing_w"].shape == (0, 3)
    for name, doc in json_docs:
        assert (_written(tmp_path, write_json, doc)
                == _written(tmp_path, ref.write_json, doc)), name


HANDMADE_DOCS = {
    "empty": {},
    "empty containers": {"a": [], "b": {}, "c": [[], {}], "d": [[[]]],
                         "e": {"f": {}}, "g": ()},
    "non-finite floats": {"x": [1.0, float("nan"), 2.0],
                          "y": [float("inf"), -float("inf")],
                          "z": float("nan"), "w": [[0.5, float("inf")]]},
    "float forms": {"x": [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-4,
                          1.7976931348623157e308, 0.1, 123456789.0],
                    "scalars": [1e16, -0.0]},
    "numpy floats": {"x": [np.float64(1.5), np.float64(-0.0)],
                     "y": np.float64(2.5), "z": [1.0, np.float64(1e-7)]},
    "mixed lists": {"a": [1.0, 2, 3.0], "b": [True, 1.0], "c": [1.0, None],
                    "d": [1, 2, 3], "e": [1.0, "1.0"], "f": [[1.0], 2.0]},
    "scalars": {"t": True, "f": False, "n": None, "i": -7, "big": 10 ** 30,
                "s": "text"},
    "tuples": {"t": (1.0, 2.0), "u": (1, (2.0, 3.0)), "v": [(0.5,)]},
    "strings": {"é": "naïve ☃", "quote": 'say "hi"', "nl": "a\nb\r\tc",
                "back": "a\\b", "ctrl": "\x00\x1f", "": ""},
    "int keys": {"class_counts": {2: 5, 0: 7, 10: 1}, "k": {-1: [1.0]}},
    "float keys": {1.5: "f", -0.0: "z", float("inf"): "i", 1e16: "e"},
    "bool keys": {True: "t", False: "f"},
    "None key": {None: [None]},
    "nesting": {"a": {"b": {"c": [[1.0, 2.0], [3.0, 4.0]]}},
                "l": [{"x": [0.25]}, {"y": []}]},
}


@pytest.mark.parametrize("name", sorted(HANDMADE_DOCS))
def test_handmade_json_matches_reference(name, tmp_path):
    doc = HANDMADE_DOCS[name]
    assert (_written(tmp_path, write_json, doc)
            == _written(tmp_path, ref.write_json, doc))


def test_json_key_errors_match_reference(tmp_path):
    for doc in ({(1, 2): 1.0}, {"a": 1, 2: 3}, {None: 1, True: 2}):
        with pytest.raises(TypeError):
            _written(tmp_path, ref.write_json, doc)
        with pytest.raises(TypeError):
            _written(tmp_path, write_json, doc)


def _split_doc() -> dict:
    """A document of about 4.4 FLOATS_PER_CALL floats: rows of uneven
    lengths, one of them holding a NaN, empty lists, int lists, nested
    dicts, and float64 arrays of one, two and three dimensions, some empty
    and some holding a NaN or an infinity."""
    per = dnspn.model_io.FLOATS_PER_CALL
    rng = RngState(8)
    rows = [rng.normal(1, n)[0].tolist()
            for n in (1, 7, per // 3, 250, per + 13, 3)]
    rows[3][100] = float("nan")
    matrix = rng.normal(2 * per // 200, 200)
    matrix[3, 5], matrix[7, 0] = np.nan, -np.inf
    return {"rows": rows, "empty": [[], {}, (), [[]]],
            "ints": {"counts": [3, 1, 4], "nested": {"x": [1, 2.5, None],
                                                     "y": {"z": [[7]]}}},
            "arrays": [matrix, rng.normal(1, 17)[0], np.zeros(0),
                       np.zeros((5, 0)), np.zeros((0, 3))],
            "cube": rng.normal(4 * 50, 100).reshape(4, 50, 100),
            "tail": 1.5}


@pytest.mark.parametrize("cpus", [1, 2])
def test_split_json_matches_reference(cpus, monkeypatch, tmp_path,
                                      no_child_left):
    # the rows are formatted in several calls, split over two processes
    # at two CPUs, and written in order
    calls, forks = [], []
    run_calls, fork = dnspn.model_io.run_calls, os.fork

    def counted_calls(todo):
        calls.append(len(todo))
        return run_calls(todo)

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(dnspn.model_io, "run_calls", counted_calls)
    monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    doc = _split_doc()
    assert (_written(tmp_path, write_json, doc)
            == _written(tmp_path, ref.write_json, doc))
    assert calls[0] >= 4
    assert len(forks) == (cpus == 2 and dnspn.numeric._FORKS)


def test_small_json_forks_nothing(monkeypatch, tmp_path):
    # a report, a dataset's meta and a small model are one call each, on
    # the caller, at any CPU count
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    spec = SyntheticSpec(kind="quadratic", k=100, n_train=10, n_test=0)
    report = {"accuracy": 0.5, "auc": None, "class_counts": {"0": 3, "1": 5},
              "config": {"lr": 0.001, "prune": "dsp"}, "n": 8,
              "sparsity": 0.25}
    for doc in (report, generate(spec).meta):
        assert (_written(tmp_path, write_json, doc)
                == _written(tmp_path, ref.write_json, doc))
    model = build_forest_model(20, Task("classification", n_classes=2),
                               RngState(9), trees=4, depth=3, embed_dim=4)
    save_model(model, tmp_path / "model.json")
    load_model(tmp_path / "model.json")


EXTREME = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5,
           1e-4, 0.1, 1e16, 1e15, 123456789.123, 1.7976931348623157e308,
           -1.7976931348623157e308, float("inf"), -float("inf"),
           float("nan")]


@pytest.mark.parametrize("labels", [
    None, ["0", "1"], ["a,b", 'say "x"'], ["line\r\nbreak", " lead"],
    ["", "x"], ["cr\r", "lf\n", "tab\t", "é"]])
def test_write_csv_matches_reference(labels, tmp_path):
    rng = np.random.default_rng(7)
    n_classes = 2 if labels is None else len(labels)
    X = rng.normal(size=(2500, 3)) * 10.0 ** rng.integers(-20, 20, (2500, 1))
    X[:len(EXTREME), 0] = EXTREME
    y = rng.integers(0, n_classes, 2500)
    ds = Dataset(X, y, Task("classification", n_classes, labels))
    got = _written(tmp_path, write_csv, ds)
    assert got == _written(tmp_path, ref.write_csv, ds)
    assert got.count(b"\r\n") >= 2501


def test_write_csv_regression_matches_reference(tmp_path):
    rng = np.random.default_rng(8)
    y = np.concatenate([EXTREME, rng.normal(size=30)])
    X = rng.normal(size=(len(y), 2))
    ds = Dataset(X, y, Task("regression"))
    assert (_written(tmp_path, write_csv, ds)
            == _written(tmp_path, ref.write_csv, ds))


@pytest.mark.parametrize("mu,std,wmin,wmax,samples", [
    (1.0, 1.0, -4.0, 4.0, 401), (1.0, 0.0, 0.85, 0.95, 1001),
    (1e-300, 1e-300, -1e-300, 1e-300, 11), (1e5, 3.0, -1e6, 1e6, 2)])
def test_mask_curve_matches_reference(mu, std, wmin, wmax, samples,
                                      tmp_path):
    out = tmp_path / "curve"
    assert main(["mask-curve", f"--mu={mu!r}", f"--std={std!r}",
                 f"--wmin={wmin!r}", f"--wmax={wmax!r}", "--samples",
                 str(samples), "--out", str(out)]) == 0
    run = next(out.iterdir())
    w = np.linspace(wmin, wmax, samples)
    for mode in (MODE_DSP, MODE_SURGERY):
        table = mask_curve(PruneConfig(mode=mode), LayerStats(mu, std), w)
        assert ((run / f"curve_{mode}.csv").read_bytes()
                == _written(tmp_path, ref.write_curve, table)), mode


# (file text, label column, task, whether the row walk reads it): valid
# files on both sides of load_csv's choice between numpy's C reader and
# the row walk
CSV_FORMS = [
    ("f0,f1,label\n1,2.5,a\n-3,4e-3,b\n", "label", "classification", False),
    ("f0,f1,label\r\n1,2.5,a\r\n-3,4e-3,b\r\n", "label", "classification",
     False),
    ("f0,f1,label\r1,2.5,a\r-3,4e-3,b\r", "label", "classification", False),
    ("f0,f1,label\n1,2.5,a\n-3,4e-3,b\n\n", "label", "classification",
     False),
    ("f0,f1,label\n1,2.5,a\n\r\n\n-3,4e-3,b", "label", "classification",
     False),
    ("f0,f1,label\n1,2.5,a\n   \n-3,4e-3,b\n", "label", "classification",
     True),
    ("f0,f1,label\n1,2.5,a\n,,\n-3,4e-3,b\n , ,\t\n", "label",
     "classification", True),
    ('"f0","f,1",label\n1,2.5,a\n-3,4e-3,b\n', "label", "classification",
     False),
    ("label,f0,f1\n a ,1,2.5\nb,-3,4e-3\n", "label", "classification", False),
    ("f0,label,f1\n1, a,2.5\n-3,b ,4e-3\n", 1, "classification", False),
    ("f0,f1,label\n1,2.5,a\n-3,4e-3,b\n", "-1", "classification", False),
    ("label,f0,f1\na,1,2.5\nb,-3,4e-3\n", -3, "classification", False),
    ("f0,label\n1.5,2.5\n", "label", "regression", False),
    ("f0,y,f1\n1,0.5,2\n3, -1e-3 ,4\n5,1_0,6\n", "y", "regression", False),
    ("f0,f1,y\n1,2,0.5\n3,4,\"-1e-3\"\n", "y", "regression", True),
    ("f0,f1,label\n 2.5 ,\t+3\t,a\n\u20031e-300,-0.0,b\n", "label",
     "classification", False),
    ("f0,f1,label\n1_000,2,a\n3,4,b\n", "label", "classification", True),
    ("f0,f1,label\n١٢,2,a\n3,4,b\n", "label", "classification", True),
    # a line longer than the csv module's field limit, of short cells
    (",".join(f"f{i}" for i in range(7000)) + ",label\n"
     + "0.12345678901234567," * 7000 + "a\n" + "-1e-300," * 7000 + "b\n",
     "label", "classification", False),
]


def test_load_csv_forms(tmp_path, monkeypatch):
    # each feature cell is read by Python's float, as the reference does
    cells = ["1_000", " 2.5 ", "+3", "-0.0", ".5", "5.", "1E-2", " -7 ",
             "1e-300", "\t4\t", "١٢"]
    path = tmp_path / "forms.csv"
    path.write_text("a,label\n" + "".join(f'"{c}",{i % 2}\n'
                                          for i, c in enumerate(cells)))
    got = load_csv(path, "label", "classification")
    want = ref.load_csv(path, "label", "classification")
    assert_same_bits(got.X[:, 0], [float(c) for c in cells], "forms")
    assert_same_bits(got.X, want.X, "reference")
    assert np.array_equal(got.y, want.y)
    walks = []
    walk_rows = dnspn.data._walk_rows
    monkeypatch.setattr(dnspn.data, "_walk_rows",
                        lambda *a: walks.append(a) or walk_rows(*a))
    for i, (text, label, task, walked) in enumerate(CSV_FORMS):
        path.write_bytes(text.encode())
        walks.clear()
        got = load_csv(path, label, task)
        want = ref.load_csv(path, label, task)
        assert bool(walks) == walked, i
        assert_same_bits(got.X, want.X, i)
        assert got.X.flags.c_contiguous, i
        assert (got.y.dtype, got.task) == (want.y.dtype, want.task), i
        assert got.y.tobytes() == want.y.tobytes(), i


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_written_csv_skips_the_row_walk(task, tmp_path, monkeypatch):
    # a file write_csv wrote is read by numpy's C reader alone
    ds = gen_xor(300, 0.25, RngState(2))
    if task == "regression":
        ds = Dataset(ds.X, ds.X @ [0.5, -2.0] + 1e-3, Task(task))
    path = tmp_path / "written.csv"
    write_csv(path, ds)
    want = ref.load_csv(path, "label", task)

    def walk(*args):
        raise AssertionError("the row walk read a written file")

    monkeypatch.setattr(dnspn.data, "_walk_rows", walk)
    got = load_csv(path, "label", task)
    assert_same_bits(got.X, want.X, task)
    assert_same_bits(got.X, ds.X, task)
    assert got.y.tobytes() == want.y.tobytes()
    assert got.task == want.task


def _mutated_csv(tmp_path, name, lines):
    path = tmp_path / f"{len(list(tmp_path.iterdir()))}.csv"
    path.write_text("".join(line + "\n"
                            for line in CSV_MUTATIONS[name](lines)))
    return path


# mutations the reference refuses with the csv module's own error, not a
# DataError: load_csv names the file and the line instead
CSV_MODULE_ERRORS = {"long header cell", "long body cell"}


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_csv_mutation_messages_match_reference(task, tmp_path):
    base = tmp_path / "base.csv"
    write_csv(base, gen_xor(120, 0.25, RngState(0)))
    lines = base.read_text().splitlines()
    for name in sorted(set(CSV_MUTATIONS) - CSV_MODULE_ERRORS):
        path = _mutated_csv(tmp_path, name, lines)
        outcomes = []
        for load in (load_csv, ref.load_csv):
            try:
                ds = load(path, "label", task)
            except DataError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append((ds.X.tobytes(), ds.y.tobytes(),
                                 ds.task))
        assert outcomes[0] == outcomes[1], name


@pytest.mark.parametrize("cell,message", [
    ("x1", "column 'f1' value 'x1' is not numeric"),
    ("nan", "column 'f1' is non-finite"),
    ("-inf", "column 'f1' is non-finite"),
    ("1e999", "column 'f1' is non-finite")])
def test_bad_cell_named_after_good_ones(cell, message, tmp_path):
    # the row's first bad column is named, after cells that parse
    path = tmp_path / "bad.csv"
    path.write_text(f"f0,f1,f2,label\n1,2,3,0\n4,{cell},nan,1\n7,8,9,1\n")
    with pytest.raises(DataError) as got:
        load_csv(path, "label", "classification")
    with pytest.raises(DataError) as want:
        ref.load_csv(path, "label", "classification")
    assert str(got.value) == str(want.value)
    assert str(got.value) == f"malformed rows in {path}: row 3: {message}"
