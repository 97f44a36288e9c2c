"""Dense float64 matrix kernels and the deterministic random source.

Everything downstream moves data as 2-D row-major float64 numpy arrays
("matrices", rows x cols). Public operations validate shapes, never mutate
their inputs, and guarantee finite outputs. Randomness comes exclusively
from :class:`RngState`, a thin wrapper around the 64-bit-seeded PCG64
generator: the same seed yields the same stream on every platform, and
independent child streams can be derived for parallel or per-component use.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ParameterError, ShapeError

_U64 = (1 << 64) - 1


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    return arr


def check_finite(arr: np.ndarray, name: str = "matrix") -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite values")
    return arr


def require_finite(**settings) -> None:
    """Reject a non-finite setting (NaN or infinite) by name."""
    for name, value in settings.items():
        if not np.all(np.isfinite(value)):
            raise ParameterError(f"{name} must be finite, got {value!r}")


def matmul(a, b) -> np.ndarray:
    """Matrix product a @ b with shape validation and a finiteness check."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions differ, {a.shape} x {b.shape}"
        )
    return check_finite(a @ b, "matmul result")


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety.

    Each output row is nonnegative and sums to 1 (up to float rounding).
    """
    m = as_matrix(m, "softmax input")
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def sigmoid(x):
    """Numerically stable logistic function; scalar in, scalar out.

    With z = exp(-|x|) <= 1 the result is max(z, [x >= 0]) / (1 + z). The
    numerator is exactly 1.0 for x >= 0 and exactly z for x < 0, so every
    entry is the same quotient as the two-sided form 1/(1+z) or z/(1+z),
    bit for bit, but no entry branches on its sign. The sign of a routing
    pre-activation is random, so a per-entry select on it mispredicts about
    half the time; it cost more than the exp.
    """
    arr = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(arr))
    out = np.maximum(z, arr >= 0) / (1.0 + z)
    if arr.ndim == 0:
        return float(out)
    return out


def sample_normal(rng: "RngState", rows: int, cols: int,
                  mean: float = 0.0, stddev: float = 1.0) -> np.ndarray:
    """Matrix of i.i.d. Gaussian draws; stddev=0 gives a constant matrix."""
    return rng.normal(rows, cols, mean=mean, stddev=stddev)


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

    def normal_vector(self, n: int, mean: float = 0.0,
                      stddev: float = 1.0) -> np.ndarray:
        return self.normal(n, 1, mean, stddev).ravel()

    def random(self, shape) -> np.ndarray:
        """Uniform draws in [0, 1)."""
        return self._gen.random(shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def child(self, tag: int) -> "RngState":
        """Derive an independent stream keyed by (seed, tag)."""
        seq = np.random.SeedSequence([self.seed, int(tag) & _U64])
        return RngState(int(seq.generate_state(1, np.uint64)[0]))
