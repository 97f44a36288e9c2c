"""An eval route's row blocks on worker threads: who runs what, float
errors, exceptions, fork and shared use.

`route` hands an eval route's blocks to the calling thread and to one
worker for each further CPU (`dnspn.forest._cpu_count`, patched here so
that every machine splits), each thread taking the next block left. The bits
are held to the whole-batch reference in test_bit_identity.py; these tests
hold the threading itself. Where a test needs a given thread to run a
given block, it holds one thread back on an event until the other has.
"""

import os
import signal
import sys
import threading
import time
from collections import deque

import numpy as np
import pytest

import dnspn.forest
from dnspn.data import Task
from dnspn.forest import init_head, route
from dnspn.numeric import RngState
from dnspn.training import build_forest_model, predict

CLS = Task("classification", n_classes=2)
WAIT_S = 30.0


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(dnspn.forest, "_cpu_count", lambda: 2,
                        raising=False)


def deep_head(seed=0):
    """A 32-tree depth-6 head on a 4-wide layer: 66 rows a block."""
    return init_head(4, 3, 32, 6, 8, "classification", RngState(seed))


def _record_descend(monkeypatch, before=None):
    """(thread, rows) of each later `_descend` call, in call order, with
    `before()` run ahead of each call."""
    calls = []
    descend = dnspn.forest._descend

    def recorded(decisions, *args):
        calls.append((threading.get_ident(), len(decisions)))
        if before is not None:
            before()
        return descend(decisions, *args)

    monkeypatch.setattr(dnspn.forest, "_descend", recorded)
    return calls


def _on_caller():
    return threading.current_thread() is threading.main_thread()


def test_split_route_descends_on_two_threads(two_cpus, monkeypatch):
    worker_ran = threading.Event()

    def before():
        if _on_caller():      # hold the caller until the worker has a block
            assert worker_ran.wait(WAIT_S)
        else:
            worker_ran.set()

    calls = _record_descend(monkeypatch, before)
    head = deep_head()
    route(head, RngState(1).normal(2000, 4), keep_factors=False)
    threads = {thread for thread, _ in calls}
    assert len(threads) == 2 and threading.get_ident() in threads
    # the 31 blocks of a serial route, each run once
    assert len(calls) == 31 and sum(rows for _, rows in calls) == 2000

    # one-block routes: one row, a training route (one whole-batch block
    # that keeps its factors), and 128 rows of a paper-sized head
    paper_head = init_head(200, 3, 10, 4, 8, "classification", RngState(2))
    for one_block, batch, keep in ((head, 1, False), (head, 500, True),
                                   (paper_head, 128, False)):
        calls.clear()
        act = RngState(3).normal(batch, one_block.proj_w.shape[1])
        route(one_block, act, keep_factors=keep)
        assert calls == [(threading.get_ident(), batch)], (batch, keep)


def test_one_cpu_routes_on_the_caller_only(monkeypatch):
    monkeypatch.setattr(dnspn.forest, "_cpu_count", lambda: 1,
                        raising=False)
    calls = _record_descend(monkeypatch)
    route(deep_head(), RngState(1).normal(2000, 4), keep_factors=False)
    assert {thread for thread, _ in calls} == {threading.get_ident()}
    assert len(calls) == 31


def _overflowing_rows():
    """A head and 400 rows (7 blocks of 57 or 58) whose routing matmul
    overflows only in the second block: the other rows give an all-zero
    embedding."""
    head = deep_head()
    head.proj_w[:] = 1.0
    head.proj_b[:] = 0.0
    head.routing_w[:] = 1e308
    act = np.zeros((400, 4))
    act[100:110] = 1.0
    return head, act


def test_worker_overflow_raises_under_callers_errstate(two_cpus,
                                                       monkeypatch):
    head, act = _overflowing_rows()
    caller_took, worker_done = threading.Event(), threading.Event()
    calls = []
    decisions = dnspn.forest._decisions

    class CallerFirst(deque):
        """A block queue from which the caller takes the first block."""

        def popleft(self):
            if not _on_caller():
                assert caller_took.wait(WAIT_S)
            item = super().popleft()
            caller_took.set()
            return item

    def held(w, b, z, cols):
        # the caller waits on the first block until the worker has taken
        # the second, the one that overflows
        calls.append((_on_caller(), bool(z.any())))
        if _on_caller():
            assert worker_done.wait(WAIT_S)
            return decisions(w, b, z, cols)
        try:
            return decisions(w, b, z, cols)
        finally:
            worker_done.set()

    monkeypatch.setattr(dnspn.forest, "deque", CallerFirst)
    monkeypatch.setattr(dnspn.forest, "_decisions", held)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            route(head, act, keep_factors=False)
    # the worker overflowed on the second block, the caller ran the first
    assert sorted(calls) == [(False, True), (True, False)]
    caller_took.clear()
    worker_done.clear()
    with np.errstate(over="ignore"):
        route(head, act, keep_factors=False)


def test_serial_overflow_raises_too(monkeypatch):
    monkeypatch.setattr(dnspn.forest, "_cpu_count", lambda: 1,
                        raising=False)
    head, act = _overflowing_rows()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        route(head, act, keep_factors=False)


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_error_reaches_caller_after_every_block(failing, two_cpus,
                                                monkeypatch):
    # the failing thread raises on its first block while the other is in
    # the middle of one; the error reaches the caller only once that block
    # has ended, and no thread starts another block after it
    other_began, raised = threading.Event(), threading.Event()
    running, ran = [0], {True: 0, False: 0}
    descend = dnspn.forest._descend

    def tracked(*args):
        if _on_caller() == (failing == "caller"):
            assert other_began.wait(WAIT_S)
            raised.set()
            raise RuntimeError(f"{failing} failed")
        running[0] += 1
        other_began.set()
        try:
            assert raised.wait(WAIT_S)
            time.sleep(0.05)
            return descend(*args)
        finally:
            ran[_on_caller()] += 1
            running[0] -= 1

    monkeypatch.setattr(dnspn.forest, "_descend", tracked)
    with pytest.raises(RuntimeError, match=f"^{failing} failed$"):
        route(deep_head(), RngState(1).normal(400, 4), keep_factors=False)
    assert running[0] == 0
    assert ran == {failing == "worker": 1, failing == "caller": 0}
    time.sleep(0.1)
    assert sum(ran.values()) == 1


def _deep_model():
    return build_forest_model(2, CLS, RngState(11), trees=32, depth=6,
                              embed_dim=8)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_predicts(two_cpus):
    model = _deep_model()
    X = RngState(12).normal(2000, 2)
    want = predict(model, X)             # starts the parent's worker
    pid = os.fork()
    if pid == 0:                          # the child: never back into pytest
        code = 1
        try:
            # the child's own worker routes a block: the caller holds its
            # first block of each head until one has, or for 5 s
            worker_ran, threads = threading.Event(), set()
            descend = dnspn.forest._descend

            def held(*args):
                threads.add(threading.get_ident())
                if _on_caller():
                    worker_ran.wait(5.0)
                else:
                    worker_ran.set()
                return descend(*args)

            dnspn.forest._descend = held
            same = np.array_equal(predict(model, X), want)
            code = 0 if same and len(threads) == 2 else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 2 * WAIT_S
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("the forked child's predict hung")


def test_user_threads_share_one_model(monkeypatch):
    # three callers at once, each splitting its routes over three workers,
    # on a short switch interval: every output keeps the serial bits
    monkeypatch.setattr(dnspn.forest, "_cpu_count", lambda: 4)
    model = _deep_model()
    inputs = [RngState(seed).normal(2000, 2) for seed in (21, 22, 23)]
    want = [predict(model, X) for X in inputs]
    got = [[] for _ in inputs]
    start = threading.Barrier(len(inputs))

    def serve(i):
        start.wait()
        for _ in range(3):
            got[i].append(predict(model, inputs[i]))

    users = [threading.Thread(target=serve, args=(i,))
             for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for user in users:
            user.start()
        for user in users:
            user.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(user.is_alive() for user in users)
    for outs, one in zip(got, want):
        assert len(outs) == 3
        for out in outs:
            assert np.array_equal(out.view(np.uint64), one.view(np.uint64))
