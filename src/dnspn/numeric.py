"""Float64 kernels (row softmax, stable sigmoid) and the random source.

Everything downstream moves data as 2-D row-major float64 numpy arrays
("matrices", rows x cols). Public operations validate shapes and never
mutate their inputs. Randomness comes exclusively from :class:`RngState`,
a thin wrapper around the 64-bit-seeded PCG64 generator: the same seed
yields the same stream on every platform, and independent child streams
can be derived for parallel or per-component use.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError

_U64 = (1 << 64) - 1


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
