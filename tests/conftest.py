import os
import time
from pathlib import Path

import numpy as np
import pytest

from dnspn.errors import ParameterError
from dnspn.forest import HEAD_PARAMS
from dnspn.numeric import RngState, _cpu_count
from dnspn.pruning import LayerStats, PruneConfig, _dsp_pass

# The acceptance criteria that train many models, about 95% of the suite's
# time, marked here so test_acceptance.py itself stays as specified.
SLOW_TESTS = {
    "tests/test_acceptance.py::test_criterion_9_noise_resistance_ordering",
    "tests/test_acceptance.py::test_criterion_10_linear50_noiseless_sanity",
    "tests/test_acceptance.py::test_criterion_12_dsp_no_harm",
}


def pytest_report_header(config):
    """The BLAS thread count and the CPU count the bit-identity checks of
    this run hold at: the blocked and whole-batch forms are compared at
    whatever these are, not at every value."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS",
                             "unset (OpenBLAS default)")
    return (f"OPENBLAS_NUM_THREADS={threads}; CPUs in the process's set: "
            f"{_cpu_count()}")


def pytest_terminal_summary(terminalreporter, config):
    # -q leaves the header out; the log still says what the run held at
    if config.get_verbosity() < 0:
        terminalreporter.write_line(pytest_report_header(config))


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid in SLOW_TESTS:
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def no_child_left():
    """Fail a test that leaves a child process behind, running or not
    reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wait_for(path: Path, seconds: float = 30.0) -> None:
    """Wait until `path` exists. Calls of `run_calls` in different
    processes order themselves by files, as they share no memory."""
    deadline = time.monotonic() + seconds
    while not path.exists():
        if time.monotonic() > deadline:
            raise TimeoutError(f"{path.name} did not appear")
        time.sleep(0.002)


@pytest.fixture
def rng():
    return RngState(12345)


def central_diff(f, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f over a flat parameter view.

    Mutates entries in place and restores them, so `params` may be a live
    view into model parameters.
    """
    flat = params.ravel()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        grad[i] = (fp - fm) / (2.0 * h)
    return grad.reshape(params.shape)


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray,
                  zero_floor: float = 1e-12) -> float:
    """Worst relative disagreement, ignoring pairs that are both ~zero."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    live = denom > zero_floor
    if not np.any(live):
        return 0.0
    return float(np.max(np.abs(analytic - numeric)[live] / denom[live]))


def param_names(model) -> list[str]:
    """A name for each entry of `training.model_params(model)`, in its
    order, for failure messages: layer0.w, layer0.b, ..., head0.proj_w, ..."""
    return ([f"layer{i}.{part}" for i in range(len(model.layers))
             for part in "wb"]
            + [f"head{i}.{name}" for i in range(len(model.heads))
               for name in HEAD_PARAMS])


def dsp_mask_grad(w: np.ndarray, stats: LayerStats,
                  cfg: PruneConfig) -> np.ndarray:
    """Elementwise d(w * T(w)) / dw with mu treated as a constant: the
    multiplier of the refresh's own DSP pass."""
    return _dsp_pass(np.abs(np.asarray(w, dtype=np.float64)), stats.mu,
                     cfg)[1]


def kl_objective(outputs, q: np.ndarray) -> float:
    """Sum over heads of KL(head || q), with 0 * log(0/q) taken as 0: the
    objective whose minimizer `training.fuse` computes.

    `q` must be strictly positive wherever any head puts mass; heads and q
    are flattened rows of probability values (any common shape works).
    """
    if len(outputs) == 0:
        raise ParameterError("kl_objective requires at least one head output")
    q = np.asarray(q, dtype=np.float64)
    total = 0.0
    for out in outputs:
        r = np.asarray(out, dtype=np.float64)
        qb = np.broadcast_to(q, r.shape)
        support = r > 0.0
        if np.any(qb[support] <= 0.0):
            raise ParameterError(
                "q must be strictly positive wherever a head has mass"
            )
        total += float(np.sum(r[support] * np.log(r[support] / qb[support])))
    return total
