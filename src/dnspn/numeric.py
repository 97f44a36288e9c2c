"""Float64 kernels (row softmax, stable sigmoid), the random source, the
runner that spreads row blocks over threads, the runner that spreads
independent calls over forked processes, and the one-BLAS-thread pin.

Everything downstream moves data as 2-D row-major float64 numpy arrays
("matrices", rows x cols). Public operations validate shapes and never
mutate their inputs. Randomness comes exclusively from :class:`RngState`,
a thin wrapper around the 64-bit-seeded PCG64 generator: the same seed
yields the same stream on every platform, and independent child streams
can be derived for parallel or per-component use.

Row blocks: an eval forward's wide layers and an eval route work in
contiguous row blocks of about ROUTE_BLOCK_BYTES (:func:`_block_count`),
which :func:`run_blocks` runs over threads.

Independent calls: :func:`run_calls` runs a list of zero-argument calls
on the caller and on forked worker processes, one for each further CPU in
the process's set, and returns their results in call order; a worker
writes its outcomes into an in-memory file of its own, which the caller
reads once the worker has ended. The CLI runs through it `generate`'s two
CSV writes, the `--data` and `--eval-data` loads of `train` and
`compare`, `compare`'s method x seed cells, and the float formatting of a
large JSON document (`model_io.write_json`). It forks only on Linux; with
one CPU, one call, or on another platform, the calls run in order on the
caller.

BLAS threads: :func:`one_blas_thread` sets numpy's bundled OpenBLAS to one
thread for the length of a CLI command, as some matrix shapes sum in
another order at 2 threads than at 1, and for the calls of
:func:`run_calls`. Where numpy has no such library it does nothing.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
import pickle
import select
import signal
import struct
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError, ShapeError

_U64 = (1 << 64) - 1

# Bytes of one row block's widest array (rows x columns float64) that an
# eval route or an eval forward works on at a time, so its passes stay
# inside a core's L2.
ROUTE_BLOCK_BYTES = 512 * 1024


def require_finite(**settings) -> None:
    """Reject a non-finite setting (NaN or infinite) by name."""
    for name, value in settings.items():
        if not np.all(np.isfinite(value)):
            raise ParameterError(f"{name} must be finite, got {value!r}")


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety.

    Each output row is nonnegative and sums to 1 (up to float rounding).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"softmax input must be 2-D, got ndim={m.ndim}")
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def sigmoid(x, out=None):
    """Numerically stable logistic function; scalar in, scalar out.

    With z = exp(-|x|) <= 1 the result is max(z, [x >= 0]) / (1 + z). The
    numerator is exactly 1.0 for x >= 0 and exactly z for x < 0, so every
    entry is the same quotient as the two-sided form 1/(1+z) or z/(1+z),
    bit for bit, but no entry branches on its sign. The sign of a routing
    pre-activation is random, so a per-entry select on it mispredicts about
    half the time; it cost more than the exp. An array result is written
    to `out` when it is given, which may be `x` itself.
    """
    arr = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(arr))
    num = np.maximum(z, arr >= 0, out=out)
    z += 1.0
    result = np.divide(num, z, out=out)
    if arr.ndim == 0:
        return float(result)
    return result


def _block_count(batch: int, row_bytes: int, least_rows: int = 2) -> int:
    """How many near-equal row blocks of about ROUTE_BLOCK_BYTES each a
    batch takes, with at least `least_rows` rows in every block unless
    the batch is shorter. The default keeps one-row blocks out: a one-row
    matmul is a matrix-vector product, which may sum in another order
    than the matrix form."""
    return max(1, min(-(-batch * row_bytes // ROUTE_BLOCK_BYTES),
                      batch // least_rows))


def block_threads(blocks: int, least_blocks: int = 1) -> int:
    """How many threads :func:`run_blocks` should give `blocks` row
    blocks: one for each CPU, but no more than one for each `least_blocks`
    blocks, and at least one."""
    most = blocks // least_blocks
    return min(most, _cpu_count()) if most > 1 else 1


def run_blocks(rows: int, n: int, work: Callable[[int, int], None],
               threads: int) -> None:
    """Run `work(lo, hi)` once for each of `n` near-equal contiguous row
    blocks [lo, hi) of `rows` rows, taken in row order, on the calling
    thread and on `threads` - 1 workers of the process-wide pool
    (:func:`_pool`; :func:`block_threads` gives one thread for each CPU
    the process may run on).

    Each thread takes the next block left until none is, so a worker that
    starts late or is slowed by a busy core takes fewer blocks, and the
    caller waits at most for the blocks that workers have already begun.
    numpy's kernels release the GIL, so the blocks run on separate cores.
    `work` must touch only its own rows, so that the results do not
    depend on which thread ran which block.

    Each worker runs in a copy of the caller's context, where numpy 2
    keeps its `errstate`, so a float error in a worker's block is handled
    as it would be on the caller. The caller returns or raises only after
    every block begun has ended: its own error first, else the first
    worker's. An error in any thread empties the queue, so no thread
    starts another block.
    """
    blocks = deque((rows * i // n, rows * (i + 1) // n) for i in range(n))
    workers = threads - 1
    pool = _pool(workers) if workers else None
    futures = [pool.submit(contextvars.copy_context().run, _take_blocks,
                           blocks, work) for _ in range(workers)]
    try:
        _take_blocks(blocks, work)
    finally:
        running = [future for future in futures if not future.cancel()]
        wait(running)
    for future in running:
        future.result()


def _take_blocks(blocks: deque, work: Callable[[int, int], None]) -> None:
    """Take (lo, hi) row blocks from the front of `blocks` until none is
    left, running `work(lo, hi)` on each. An error empties `blocks`, so
    that no thread starts another."""
    try:
        while True:
            try:
                lo, hi = blocks.popleft()
            except IndexError:
                return
            work(lo, hi)
    except BaseException:
        blocks.clear()
        raise


# CPUs a process of :func:`run_calls` may use while the calls run, so that
# the row-block pools of the caller and its workers share the set
_CPU_SHARE: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "dnspn_cpu_share", default=None)


def _cpu_count() -> int:
    """How many CPUs this process may run on: its share of the set while
    :func:`run_calls` runs calls in forked workers, else its affinity set
    where the platform has one, else the machine's count."""
    share = _CPU_SHARE.get()
    if share is not None:
        return share
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# (process id, worker count, pool) of :func:`_pool`
_POOL: tuple[int, int, ThreadPoolExecutor] | None = None


def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of `workers` row-block threads, started on first
    use. It is keyed on the process id, as a forked child inherits the
    pool but not its threads, and on the count, which follows the CPU set;
    a pool no longer kept ends its threads once dropped. Two callers that
    find no pool at once may each start one, and both work: no lock
    guards this, as a lock held at a fork would stay held in the child."""
    global _POOL
    key = (os.getpid(), workers)
    if _POOL is None or _POOL[:2] != key:
        _POOL = (*key, ThreadPoolExecutor(workers, "dnspn-route"))
    return _POOL[2]


# Whether :func:`run_calls` forks: only on Linux, where a forked child of a
# threaded process is safe for this package (see run_calls) and a worker
# has an in-memory file for its outcomes. macOS has fork, but its system
# libraries may not be used in a child of a threaded process.
_FORKS = (hasattr(os, "fork") and hasattr(os, "memfd_create")
          and sys.platform.startswith("linux"))
# A call's index as it goes through the token pipe of run_calls
_TOKEN = struct.Struct("=I")


def run_calls(calls: Sequence[Callable[[], object]]) -> list:
    """The results of the independent zero-argument `calls`, in call order.

    The caller runs calls itself, and forked worker processes run the
    rest: one worker for each further CPU in the process's set
    (:func:`_cpu_count`), but no more workers than calls. Each process
    takes the next call left from a pipe of call indices, as
    :func:`run_blocks` takes blocks. A worker writes each outcome pickled
    into an unlinked in-memory file of its own (`os.memfd_create`), which
    the caller reads once the worker has ended, so no worker waits on the
    caller: through a pipe, which holds 64 KiB, a worker with a larger
    outcome would wait until the caller had run all its own calls. With
    one CPU, one call, or where this module does not fork (`_FORKS`: it
    forks on Linux only), the calls run in order on the caller.

    Errors are those of the serial order, whatever the CPU count: the
    helper raises the exception of the first failing call in call order,
    with its type and message (a worker's comes back pickled, without its
    traceback). A failure empties the pipe, so it stops only the calls
    after it. A worker that ends without sending a call's outcome, as when
    a signal kills it, raises ChildProcessError at that call. Every worker
    is reaped before the helper returns or raises; on Ctrl-C, or any
    other exception on the caller that is not a call's, the workers are
    killed first.

    Workers run under the caller's numpy `errstate` (the fork keeps the
    forking thread's context), ignore SIGINT, print nothing and end by
    `os._exit`, so no buffer the parent holds is flushed twice. While the
    calls run, each process's row-block pool takes its share of the CPUs,
    and every call, on the caller and in the workers, runs at one OpenBLAS
    thread (:func:`one_blas_thread`), so the processes run no more BLAS
    threads than CPUs, and a call's results are those of one BLAS thread
    at any CPU count. The caller's thread count is set back afterwards;
    numpy work outside the calls keeps it.
    Forking beside threads is safe here: a child has only the forking
    thread, and it starts its own row-block pool, which is keyed on the
    process id and guarded by no lock (`test_forked_child_predicts`);
    OpenBLAS shuts its thread pool down at a fork and the child starts
    another on its first threaded call. A call must not rely on a lock
    that another thread of the caller may hold.

    A fork costs the caller more than the fork itself: it marks every
    page of the caller's heap copy-on-write, so the caller takes one page
    fault for each page it next writes, after the workers have ended too
    (README's CLI section has a measurement). So a caller forks only for
    work that takes far longer than that.
    """
    calls = list(calls)
    cpus = _cpu_count() if _FORKS else 1
    with one_blas_thread():
        if cpus < 2 or len(calls) < 2:
            return [call() for call in calls]
        # most calls one token pipe holds: their tokens go in one write of
        # at most PIPE_BUF bytes, which a pipe always takes at once
        most = select.PIPE_BUF // _TOKEN.size
        results = []
        for lo in range(0, len(calls), most):
            results += _run_forked(calls[lo:lo + most], cpus)
        return results


def _run_forked(calls: list, cpus: int) -> list:
    """:func:`run_calls` for at most PIPE_BUF // _TOKEN.size calls over
    min(len(calls), cpus) processes."""
    procs = min(len(calls), cpus)
    tokens, fill = os.pipe()
    os.write(fill, b"".join(_TOKEN.pack(i) for i in range(len(calls))))
    os.close(fill)          # a process that reads past the last token ends
    outcomes: dict[int, tuple[bool, object]] = {}
    workers: dict[int, int] = {}        # pid -> its file of outcomes
    ended: dict[int, int] = {}          # pid -> exit code
    share = _CPU_SHARE.set(max(1, cpus // procs))
    try:
        for _ in range(procs - 1):
            out = os.memfd_create("dnspn-outcomes")
            try:
                pid = os.fork()
            except BaseException:
                os.close(out)
                raise
            if pid == 0:
                _worker(calls, tokens, out)
            workers[pid] = out
        _take_calls(calls, tokens, outcomes.__setitem__, Exception)
        for pid in list(workers):
            ended[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            with open(workers.pop(pid), "rb") as fh:
                fh.seek(0)          # the worker's writes moved the offset
                while True:
                    try:
                        i, outcome = pickle.load(fh)
                    except (EOFError, pickle.UnpicklingError):
                        break               # the worker's end, if cut short
                    outcomes[i] = outcome
    finally:
        _CPU_SHARE.reset(share)
        os.close(tokens)
        for pid, out in workers.items():
            os.close(out)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    results = []
    for i in range(len(calls)):
        if i not in outcomes:
            how = "; ".join(_exit_text(code) for code in ended.values()
                            if code) or "with no outcome"
            raise ChildProcessError(f"a worker process ended ({how}) "
                                    f"before call {i + 1} of {len(calls)} "
                                    "returned")
        done, value = outcomes[i]
        if not done:
            raise value
        results.append(value)
    return results


def _take_calls(calls: list, tokens: int, record, catch) -> None:
    """Run `calls[i]` for each index `i` read from the pipe `tokens` until
    it is empty, passing `record(i, (True, result))`, or `(False, error)`
    for an exception of type `catch`. A failure empties the pipe, so that
    no process starts a call after it."""
    while token := os.read(tokens, _TOKEN.size):
        (i,) = _TOKEN.unpack(token)
        try:
            outcome = (True, calls[i]())
        except catch as exc:
            record(i, (False, exc))
            while os.read(tokens, select.PIPE_BUF):
                pass
            return
        record(i, outcome)


def _worker(calls: list, tokens: int, out: int) -> None:
    """A forked worker of :func:`run_calls`: take calls and write each
    outcome to the file `out` as one pickle, then end the process."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent decides

        def send(i, outcome):
            try:
                data = pickle.dumps((i, outcome), pickle.HIGHEST_PROTOCOL)
                if not outcome[0]:          # an error must load in the parent
                    pickle.loads(data)
            except Exception as exc:
                data = pickle.dumps((i, (False, RuntimeError(
                    f"call {i}'s outcome cannot be sent from a worker "
                    f"process: {exc!r}"))))
            view = memoryview(data)
            while view:
                view = view[os.write(out, view):]
        _take_calls(calls, tokens, send, BaseException)
        code = 0
    finally:
        os._exit(code)


def _exit_text(code: int) -> str:
    """A worker's exit code of os.waitstatus_to_exitcode, in words."""
    if code < 0:
        with contextlib.suppress(ValueError):
            return f"killed by {signal.Signals(-code).name}"
        return f"killed by signal {-code}"
    return f"exit code {code}"


@functools.cache
def _openblas_threads():
    """(get, set) of numpy's bundled OpenBLAS thread count, found in the
    wheel's `numpy.libs` directory, or None where numpy has no such
    library or it exports no such functions."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        put.restype, put.argtypes = None, [ctypes.c_int]
        return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS at one thread, and set
    the count it had back afterwards. OpenBLAS sums some matrix shapes in
    another order at 2 threads than at 1 (README, "Reproducibility
    notes"), so the CLI pins one thread to write the same bytes at any
    OPENBLAS_NUM_THREADS, and :func:`run_calls` pins it for its calls.
    Where numpy bundles no OpenBLAS with these functions (another BLAS, or
    a numpy built against the system's), nothing is pinned."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


class RngState:
    """Deterministic random source seeded by a 64-bit unsigned integer.

    Backed by numpy's PCG64 bit generator. Two instances constructed with
    the same seed produce identical draw sequences regardless of platform.
    A single instance is single-owner mutable; use :meth:`child` to derive
    statistically independent streams for concurrent components.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _U64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, rows: int, cols: int, mean: float = 0.0,
               stddev: float = 1.0) -> np.ndarray:
        if rows < 1 or cols < 1:
            raise ParameterError(f"invalid matrix shape ({rows}, {cols})")
        if stddev < 0:
            raise ParameterError(f"stddev must be >= 0, got {stddev}")
        if stddev == 0:
            return np.full((rows, cols), float(mean))
        return self._gen.normal(loc=mean, scale=stddev, size=(rows, cols))

    def random(self, shape) -> np.ndarray:
        """Uniform draws in [0, 1)."""
        return self._gen.random(shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def child(self, tag: int) -> "RngState":
        """Derive an independent stream keyed by (seed, tag)."""
        seq = np.random.SeedSequence([self.seed, int(tag) & _U64])
        return RngState(int(seq.generate_state(1, np.uint64)[0]))
