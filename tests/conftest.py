import numpy as np
import pytest

from dnspn.numeric import RngState

# The acceptance criteria that train many models, about 95% of the suite's
# time, marked here so test_acceptance.py itself stays as specified.
SLOW_TESTS = {
    "tests/test_acceptance.py::test_criterion_9_noise_resistance_ordering",
    "tests/test_acceptance.py::test_criterion_10_linear50_noiseless_sanity",
    "tests/test_acceptance.py::test_criterion_12_dsp_no_harm",
}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid in SLOW_TESTS:
            item.add_marker(pytest.mark.slow)


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
