"""The routing kernels reproduce their reference forms bit for bit.

The references in reference_kernels.py are the sign-select sigmoid, the
routing loop that built each level from temporaries, and a copy of the
forest backward. Every comparison is on the raw float64 bits, so signs of
zero and NaN payloads count too.
"""

import numpy as np
import pytest

import reference_kernels as ref
from dnspn.forest import forest_backward, init_head, route
from dnspn.numeric import RngState, sigmoid

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
