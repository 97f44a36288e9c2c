"""Correctness checks on the program's outputs.

Each check raises :class:`CheckFailed` naming what disagreed. The expected
values come from :mod:`reference` or from properties the method must have
(probability rows, mask bands), never from stored copies of earlier output.
"""

from __future__ import annotations

import numpy as np

import reference

# Distributions and leaf-reach blocks are sums of a few dozen float64 terms.
SUM_TOL = 1e-9
# The reference forward multiplies and sums in another order than the
# program; float64 rounding then differs by a few ulps of the row values.
FORWARD_RTOL = 1e-9
FORWARD_ATOL = 1e-12


class CheckFailed(AssertionError):
    pass


def simplex(probs: np.ndarray, what: str) -> None:
    if np.any(probs < 0.0):
        raise CheckFailed(f"{what}: negative probability")
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if worst > SUM_TOL:
        raise CheckFailed(f"{what}: a row sums to 1 {worst:+.3g}")


def above_majority(probs: np.ndarray, y: np.ndarray) -> float:
    acc = reference.accuracy(probs, y)
    base = reference.majority_rate(y)
    if not acc > base:
        raise CheckFailed(f"accuracy {acc:.4f} is not above the "
                          f"majority-class rate {base:.4f}")
    return acc


def loss_fell(before: np.ndarray, after: np.ndarray, y: np.ndarray) -> None:
    """Training lowered the cross entropy on the test rows."""
    l0 = reference.cross_entropy(before, y)
    l1 = reference.cross_entropy(after, y)
    if not l1 < l0:
        raise CheckFailed(f"test loss {l1:.4f} not below its value before "
                          f"training, {l0:.4f}")


def masks(model, prune) -> None:
    """Every backbone and projection mask matches its mode's definition."""
    pruned = list(model.layer_prunes) + list(model.proj_prunes)
    for i, layer in enumerate(pruned):
        w, mask = layer.shadow, layer.mask
        if prune.mode == "none":
            if not np.all(mask == 1.0):
                raise CheckFailed(f"mask {i}: mode none but not all ones")
        elif prune.mode == "dsp":
            want = reference.dsp_mask(w, prune.alpha, prune.beta, prune.gamma,
                                      prune.r, prune.epsilon)
            worst = float(np.max(np.abs(mask - want)))
            if worst > 1e-12:
                raise CheckFailed(f"mask {i}: differs from the DSP formula by "
                                  f"{worst:.3g}")
        else:
            omega = reference.surgery_omega(w, prune.surgery_eta)
            aw = np.abs(w)
            # entries within rounding of a band edge may fall either way
            clear = (np.abs(aw - 0.9 * omega) > 1e-9 * omega) & (
                np.abs(aw - 1.1 * omega) > 1e-9 * omega)
            if np.any(mask[clear & (aw < 0.9 * omega)] != 0.0):
                raise CheckFailed(f"mask {i}: nonzero below 0.9 omega")
            if np.any(mask[clear & (aw >= 1.1 * omega)] != 1.0):
                raise CheckFailed(f"mask {i}: not 1 at or above 1.1 omega")
            if not np.all((mask == 0.0) | (mask == 1.0)):
                raise CheckFailed(f"mask {i}: surgery value outside {{0, 1}}")


def leaf_sums(reach: np.ndarray, trees: int, what: str) -> None:
    per_tree = reach.reshape(reach.shape[0], trees, -1).sum(axis=2)
    worst = float(np.max(np.abs(per_tree - 1.0)))
    if worst > SUM_TOL:
        raise CheckFailed(f"{what}: a tree's leaf-reach sums to 1 "
                          f"{worst:+.3g}")


def close(got: np.ndarray, want: np.ndarray, what: str) -> None:
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    if not np.allclose(got, want, rtol=FORWARD_RTOL, atol=FORWARD_ATOL):
        worst = float(np.max(np.abs(got - want)))
        raise CheckFailed(f"{what}: differs by up to {worst:.3g}")


def batch_rows(full: np.ndarray, starts: list[int], outs: list[np.ndarray],
               what: str) -> None:
    """Each smaller batch's rows equal the same rows of the full batch."""
    for start, out in zip(starts, outs):
        close(out, full[start:start + len(out)], f"{what} at row {start}")


def labels(y_file: np.ndarray, y_ref: np.ndarray, score: np.ndarray) -> None:
    """File labels equal recomputed ones, except within rounding of 0."""
    wrong = (y_file != y_ref) & (np.abs(score) > 1e-9)
    if np.any(wrong):
        raise CheckFailed(f"{int(wrong.sum())} labels differ from "
                          "x[dims] . w + b > 0")


def equal_metric(name: str, reported, want: float) -> None:
    if reported is None or abs(reported - want) > 1e-12:
        raise CheckFailed(f"reported {name} {reported!r} != recomputed "
                          f"{want!r}")
