"""An eval route's and an eval forward's row blocks on worker threads:
who runs what, float errors, exceptions, fork and shared use.

`route` and `network.forward` hand their blocks, through
`dnspn.numeric.run_blocks`, to the calling thread and to one worker for
each further CPU (`dnspn.numeric._cpu_count`, patched here so that every
machine splits), each thread taking the next block left. The bits are
held to the whole-batch reference in test_bit_identity.py; these tests
hold the threading itself. Where a test needs a given thread to run a
given block, it holds one thread back on an event until the other has.

The last part holds `dnspn.numeric.run_calls`, which runs independent
calls on the caller and on forked worker processes: results in call
order, the serial order's first error, dead workers, Ctrl-C and reaping.
Calls in different processes order themselves by files (`wait_for`).
"""

import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import dnspn.forest
import dnspn.network
import dnspn.numeric
from dnspn.data import Task
from dnspn.forest import init_head, route
from dnspn.numeric import RngState, run_calls
from dnspn.training import build_forest_model, predict

from conftest import wait_for

CLS = Task("classification", n_classes=2)
WAIT_S = 30.0


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: 2)


def deep_head(seed=0):
    """A 32-tree depth-6 head on a 4-wide layer: 66 rows a block."""
    return init_head(4, 3, 32, 6, 8, RngState(seed))


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
    paper_head = init_head(200, 3, 10, 4, 8, RngState(2))
    for one_block, batch, keep in ((head, 1, False), (head, 500, True),
                                   (paper_head, 128, False)):
        calls.clear()
        act = RngState(3).normal(batch, one_block.proj_w.shape[1])
        route(one_block, act, keep_factors=keep)
        assert calls == [(threading.get_ident(), batch)], (batch, keep)


def test_one_cpu_routes_on_the_caller_only(monkeypatch):
    monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: 1)
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

    monkeypatch.setattr(dnspn.numeric, "deque", CallerFirst)
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
    monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: 1)
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


def _paper_model():
    """The paper-sized forest model: 100 -> 200 -> 200 -> 200, with 10
    trees of depth 4 on 8-wide embeddings after each layer. Its 2000-row
    forward runs in 7 row blocks, and each head's route in 3."""
    return build_forest_model(100, CLS, RngState(13), trees=10, depth=4,
                              embed_dim=8)


class WorkerSecond(deque):
    """A block queue whose first block the caller takes and whose second
    the (one) worker takes, before the caller begins the first; `taken`
    records (on the caller, block) of each block taken."""

    def __init__(self, *args):
        super().__init__(*args)
        self.taken = []
        self.caller_took, self.worker_took = (threading.Event(),
                                              threading.Event())

    def popleft(self):
        if not _on_caller():
            assert self.caller_took.wait(WAIT_S)
        item = super().popleft()
        self.taken.append((_on_caller(), item))
        if not _on_caller():
            self.worker_took.set()
        elif not self.caller_took.is_set():
            self.caller_took.set()
            assert self.worker_took.wait(WAIT_S)
        return item


def _bad_rows(model, case):
    """2000 rows on which the paper model's forward fails: a NaN in a row
    of the second block (rows 285-570), at layer 0, and/or an overflow at
    layer 1 in a row of the first block. Every other row is all zero, and
    so are the biases, so it stays zero."""
    X = np.zeros((2000, 100))
    for layer in model.layers:
        layer.bias[:] = 0.0
    if "nan" in case:
        X[300, 7] = np.nan
    if "overflow" in case:
        X[10] = 10.0
        model.layers[1].weights[:] = 1e308
    return X


def _outcome(call):
    """(exception type, message, warning messages) of `call()`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
        except Exception as exc:        # noqa: BLE001 - compared below
            return type(exc), str(exc), [str(w.message) for w in caught]
    pytest.fail("the forward did not raise")


@pytest.mark.parametrize("errstate", ["default", "raise"])
@pytest.mark.parametrize("case", ["nan", "overflow", "nan+overflow"])
def test_forward_errors_match_the_serial_forward(case, errstate,
                                                 monkeypatch):
    # the worker's block meets a NaN at layer 0 and/or the caller's an
    # overflow at layer 1: the error, and any warning, is that of the
    # serial forward, which raises at the first bad layer
    model = _paper_model()
    X = _bad_rows(model, case)
    state = ({} if errstate == "default"
             else {"over": "raise", "invalid": "raise"})
    monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: 1)
    with np.errstate(**state):
        want = _outcome(lambda: dnspn.network.forward(model.layers, X))
    queues = []

    def queue(*args):
        queues.append(WorkerSecond(*args))
        return queues[-1]

    monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: 2)
    monkeypatch.setattr(dnspn.numeric, "deque", queue)
    with np.errstate(**state):
        got = _outcome(lambda: dnspn.network.forward(model.layers, X))
    assert got == want
    # the forward's blocks ran first, the worker's being rows 285-570
    (blocks,) = queues
    assert (True, (0, 285)) in blocks.taken
    assert (False, (285, 571)) in blocks.taken


def test_one_and_128_row_predicts_leave_the_pool_alone(monkeypatch):
    # a 1-row or 128-row predict, and a 2000-row training forward, run on
    # the caller alone; a 2000-row predict's forward and routes use the
    # pool
    monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: 4)
    pools = []
    pool = dnspn.numeric._pool

    def recorded(workers):
        pools.append(workers)
        return pool(workers)

    monkeypatch.setattr(dnspn.numeric, "_pool", recorded)
    model = _paper_model()
    X = RngState(14).normal(2000, 100)
    for rows in (1, 128):
        predict(model, X[:rows])
    dnspn.network.forward(model.layers, X, 0.5, True, RngState(15))
    dnspn.network.forward(model.layers, X, 0.0, True)
    assert pools == []
    predict(model, X)
    # the forward's 7 blocks on 3 threads, then 3 blocks a head's route
    assert pools == [2] + [2] * len(model.heads)


def _deep_model():
    return build_forest_model(2, CLS, RngState(11), trees=32, depth=6,
                              embed_dim=8)


def _held_blocks():
    """Make the calling thread wait, for up to 5 s, before its first block
    of each kind (forward or route) until a worker has begun one, and
    return the set of (on the caller, kind) of the blocks run."""
    ran, worker_began = set(), {}
    take = dnspn.numeric._take_blocks

    def held(blocks, work):
        kind = work.__name__
        began = worker_began.setdefault(kind, threading.Event())

        def run(lo, hi):
            ran.add((_on_caller(), kind))
            if _on_caller():
                began.wait(5.0)
            else:
                began.set()
            return work(lo, hi)

        return take(blocks, run)

    dnspn.numeric._take_blocks = held
    return ran


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_predicts(two_cpus):
    # a deep forest, whose routes split, and the paper-sized model, whose
    # forward splits too, each at 2000 rows
    cases = [(_deep_model(), RngState(12).normal(2000, 2), {"route_block"}),
             (_paper_model(), RngState(16).normal(2000, 100),
              {"route_block", "forward_block"})]
    want = [predict(model, X) for model, X, _ in cases]  # starts the worker
    pid = os.fork()
    if pid == 0:                          # the child: never back into pytest
        code = 1
        try:
            # the child's own worker runs blocks of each kind
            ran = _held_blocks()
            code = 0
            for (model, X, kinds), one in zip(cases, want):
                ran.clear()
                same = np.array_equal(predict(model, X), one)
                worker = {kind for caller, kind in ran if not caller}
                code = code or (0 if same and worker == kinds else 3)
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
    # six callers at once, each splitting its blocks over three workers,
    # on a short switch interval: every output keeps the serial bits.
    # Three share a deep forest, whose routes split, and three the
    # paper-sized model, whose forward splits too, all at 2000 rows
    deep, paper = _deep_model(), _paper_model()
    models = [deep] * 3 + [paper] * 3
    inputs = [RngState(seed).normal(2000, model.input_dim)
              for seed, model in zip(range(21, 27), models)]
    monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: 1)
    want = [predict(model, X) for model, X in zip(models, inputs)]
    monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: 4)
    got = [[] for _ in inputs]
    start = threading.Barrier(len(inputs))

    def serve(i):
        start.wait()
        for _ in range(3):
            got[i].append(predict(models[i], inputs[i]))

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


# ---------------------------------------------------------------------------
# Independent calls in forked workers
# ---------------------------------------------------------------------------

forks = pytest.mark.skipif(not dnspn.numeric._FORKS,
                           reason="run_calls forks on Linux only")


def _one_each(mark, on_caller=lambda: None, in_worker=lambda: None):
    """A call that, in a forked worker, makes the file `mark` and runs
    `in_worker`, and on the caller waits for `mark` before it runs
    `on_caller`: with two processes, two such calls run one in each."""
    parent = os.getpid()

    def call():
        if os.getpid() == parent:
            wait_for(mark)
            return on_caller()
        mark.touch()
        return in_worker()
    return call


@forks
def test_calls_return_in_call_order(two_cpus, tmp_path, no_child_left):
    # the caller begins no call before a worker has begun one
    parent = os.getpid()
    hold = _one_each(tmp_path / "began")

    def call(i):
        def run():
            hold()
            time.sleep(0.005)
            return i, os.getpid()
        return run

    out = run_calls([call(i) for i in range(9)])
    assert [i for i, _ in out] == list(range(9))
    pids = {pid for _, pid in out}
    assert parent in pids and len(pids) == 2


@forks
def test_first_error_in_call_order_wins(two_cpus, tmp_path, no_child_left):
    # call 1 fails only after call 3 has failed, in another process
    failed = tmp_path / "call3-failed"

    def call1():
        wait_for(failed)
        raise ValueError("call 1")

    def call3():
        try:
            raise KeyError("call 3")
        finally:
            failed.touch()

    with pytest.raises(ValueError, match="call 1"):
        run_calls([call1, lambda: 2, call3])
    assert failed.exists()


@forks
def test_a_failure_stops_only_the_calls_after_it(two_cpus, tmp_path,
                                                  no_child_left):
    # call 1 ends after call 2 has failed; calls 3-6 never begin
    failed = tmp_path / "call2-failed"

    def ran(i):
        (tmp_path / f"ran{i}").touch()
        return i

    def call1():
        wait_for(failed)
        return ran(1)

    def call2():
        try:
            raise ValueError("call 2")
        finally:
            failed.touch()

    with pytest.raises(ValueError, match="call 2"):
        run_calls([call1, call2, *[lambda i=i: ran(i) for i in range(3, 7)]])
    assert sorted(p.name for p in tmp_path.glob("ran*")) == ["ran1"]


@forks
def test_worker_overflow_raises_under_the_callers_errstate(
        two_cpus, tmp_path, no_child_left):
    call = _one_each(tmp_path / "began",
                     in_worker=lambda: np.float64(1e308) * 10.0)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            run_calls([call, call])


@forks
def test_a_killed_worker_is_an_error(two_cpus, tmp_path, no_child_left):
    call = _one_each(tmp_path / "began", in_worker=lambda: os.kill(
        os.getpid(), signal.SIGKILL))
    with pytest.raises(ChildProcessError, match="killed by SIGKILL"):
        run_calls([call, call])


@forks
def test_no_worker_waits_on_the_caller(two_cpus, tmp_path, no_child_left):
    # four calls of 1 MiB outcomes: a call on the caller waits until the
    # worker has begun its third call, and so has sent two outcomes, which
    # a pipe of 64 KiB read only after the caller's calls would not let it
    parent = os.getpid()

    def call(i):
        def run():
            if os.getpid() == parent:
                wait_for(tmp_path / "worker2")
            else:
                began = len(list(tmp_path.glob("worker*")))
                (tmp_path / f"worker{began}").touch()
            return str(i) * 2 ** 20, os.getpid()
        return run

    out = run_calls([call(i) for i in range(4)])
    assert [text for text, _ in out] == [str(i) * 2 ** 20 for i in range(4)]
    pids = [pid for _, pid in out]
    assert pids.count(parent) == 1 and len(set(pids)) == 2


@forks
def test_a_worker_killed_while_writing_an_outcome_is_an_error(
        two_cpus, tmp_path, no_child_left):
    # the worker writes half of its outcome's bytes, then is killed
    def write_half(fd, data):
        os.write = write
        write(fd, data[:len(data) // 2])
        os.kill(os.getpid(), signal.SIGKILL)

    def in_worker():
        os.write = write_half               # in the worker's memory only
        return "x" * 2 ** 20

    write = os.write
    call = _one_each(tmp_path / "began", in_worker=in_worker)
    with pytest.raises(ChildProcessError, match="killed by SIGKILL"):
        run_calls([call, call])
    assert os.write is write


@forks
def test_ctrl_c_on_the_caller_kills_and_reaps_the_workers(
        two_cpus, tmp_path, no_child_left):
    def interrupted():
        raise KeyboardInterrupt

    # the worker's call would run far past the test's end
    call = _one_each(tmp_path / "began", on_caller=interrupted,
                     in_worker=lambda: time.sleep(10 * WAIT_S))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_calls([call, call])
    assert time.monotonic() - start < WAIT_S


@forks
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) != 2,
                    reason="needs a set of exactly two CPUs")
def test_each_process_takes_its_share_of_the_cpus(tmp_path, no_child_left):
    # two calls on two CPUs: the caller's and the worker's row-block pools
    # each see one CPU while the calls run, and the caller two after
    share = dnspn.numeric._cpu_count
    call = _one_each(tmp_path / "began", share, share)
    assert run_calls([call, call]) == [1, 1]
    assert share() == 2


@pytest.mark.parametrize("how", ["one CPU", "no fork"])
def test_no_worker_without_a_second_cpu_or_fork(how, monkeypatch,
                                                no_child_left):
    # os.fork raises, so any worker would fail the call
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    if how == "one CPU":
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("needs os.sched_setaffinity")
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    else:
        monkeypatch.setattr(dnspn.numeric, "_FORKS", False)
    try:
        parent = os.getpid()
        assert run_calls([lambda i=i: (i, os.getpid()) for i in range(5)]) \
            == [(i, parent) for i in range(5)]
        with pytest.raises(ValueError, match="first"):
            run_calls([lambda: 1, lambda: int("first"), lambda: 1 / 0])
    finally:
        if how == "one CPU":
            os.sched_setaffinity(0, cpus)


@pytest.mark.skipif(dnspn.numeric._openblas_threads() is None,
                    reason="numpy bundles no OpenBLAS with a thread setter")
@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=forks)])
def test_calls_run_at_one_blas_thread(cpus, monkeypatch, tmp_path,
                                      no_child_left):
    # at 2 OpenBLAS threads, each call sees 1, on the caller and in a
    # worker, and the caller sees 2 again afterwards, after an error too
    get, put = dnspn.numeric._openblas_threads()
    monkeypatch.setattr(dnspn.numeric, "_cpu_count", lambda: cpus)
    hold = _one_each(tmp_path / "began") if cpus == 2 else lambda: None

    def call():
        hold()
        return get(), os.getpid()

    before = get()
    put(2)
    try:
        out = run_calls([call] * 4)
        assert get() == 2
        with pytest.raises(ZeroDivisionError):
            run_calls([lambda: 1 / 0, call])
        assert get() == 2
    finally:
        put(before)
    assert [threads for threads, _ in out] == [1] * 4
    assert len({pid for _, pid in out}) == cpus


def test_imports_and_runs_calls_without_pipe_buf():
    # where `select` has no PIPE_BUF and `os` no fork, as on Windows, the
    # package imports and runs the calls in order on the caller
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import os, select, sys\n"
            "del select.PIPE_BUF, os.fork\n"
            "from dnspn.numeric import _FORKS, run_calls\n"
            "pid = os.getpid()\n"
            "print(_FORKS, run_calls([lambda i=i: (i, os.getpid())\n"
            "                         for i in range(3)])\n"
            "      == [(i, pid) for i in range(3)])\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "False True\n", "")
