"""Evaluation metrics: accuracy, ROC-AUC (binary and macro OVR), MSE.

Binary AUC is the Mann-Whitney statistic P(score_pos > score_neg) plus half
the tie probability, computed exactly through midranks; multiclass AUC is
the unweighted mean of per-class one-vs-rest AUCs using each probability
column as that class's score.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import MetricError, ShapeError


def accuracy(pred_labels, true_labels) -> float:
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape:
        raise ShapeError(f"label shapes differ: {pred.shape} vs {true.shape}")
    if pred.size == 0:
        raise ShapeError("accuracy of empty label arrays")
    return float(np.mean(pred == true))


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by their group's average rank."""
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    start = np.cumsum(counts) - counts          # 0-based start of each group
    mid = start + (counts + 1) / 2.0            # 1-based midrank
    return mid[inverse]


def roc_auc_binary(scores, labels) -> float:
    """Exact tie-aware AUC via the rank-sum identity.

    Equals the fraction of (positive, negative) pairs ranked correctly,
    counting ties as half.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ShapeError(
            f"scores/labels lengths differ: {scores.shape} vs {labels.shape}"
        )
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC undefined: labels contain a single class")
    ranks = _midranks(scores)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_macro_ovr(prob_matrix, labels, k: int) -> float:
    """Unweighted mean of one-vs-rest binary AUCs over the k classes."""
    probs = np.asarray(prob_matrix, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[1] != k:
        raise ShapeError(f"probability matrix must be (n, {k})")
    if probs.shape[0] != labels.size:
        raise ShapeError("probability rows and label count differ")
    aucs = []
    for c in range(k):
        binary = (labels == c).astype(np.int64)
        if binary.sum() == 0:
            raise MetricError(f"AUC undefined: class {c} absent from labels")
        if binary.sum() == binary.size:
            raise MetricError(f"AUC undefined: only class {c} present")
        aucs.append(roc_auc_binary(probs[:, c], binary))
    return float(np.mean(aucs))


def mse_metric(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64).ravel()
    target = np.asarray(target, dtype=np.float64).ravel()
    if pred.shape != target.shape:
        raise ShapeError(f"lengths differ: {pred.shape} vs {target.shape}")
    return float(np.mean((pred - target) ** 2))


@dataclass
class EvalReport:
    """One evaluation summary; metrics not defined for the task are None."""
    task: str
    n: int
    accuracy: float | None = None
    auc: float | None = None
    mse: float | None = None
    class_counts: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**asdict(self), "class_counts": {
            str(k): v for k, v in self.class_counts.items()}}
