"""Float64 kernels (row softmax, stable sigmoid), the random source, and
the runner that spreads row blocks over threads.

Everything downstream moves data as 2-D row-major float64 numpy arrays
("matrices", rows x cols). Public operations validate shapes and never
mutate their inputs. Randomness comes exclusively from :class:`RngState`,
a thin wrapper around the 64-bit-seeded PCG64 generator: the same seed
yields the same stream on every platform, and independent child streams
can be derived for parallel or per-component use.

Row blocks: an eval forward's wide layers and an eval route work in
contiguous row blocks of about ROUTE_BLOCK_BYTES (:func:`_block_count`),
which :func:`run_blocks` runs over threads.
"""

from __future__ import annotations

import contextvars
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable

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


def _cpu_count() -> int:
    """How many CPUs this process may run on: its affinity set where the
    platform has one, else the machine's count."""
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
