"""Tabular datasets: CSV ingestion and the synthetic noise benchmarks.

The synthetic families start from 100 i.i.d. standard-normal feature
dimensions. linear-k picks k of them, draws a random affine map, and labels
each sample by that map's sign; quadratic-k draws two independent k-subsets
and labels by the sign of w1 . x1^2 + w2 . x2 + b. Labels are always
computed on the clean features; Gaussian feature noise of scale sigma is
added afterwards, so sigma is purely a nuisance parameter and the clean
signal stays recoverable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError, reading
from .numeric import RngState, require_finite

BASE_DIM = 100

CLASSIFICATION = "classification"
REGRESSION = "regression"


@dataclass
class Task:
    kind: str                       # "classification" | "regression"
    n_classes: int = 0
    labels: list[str] | None = None  # original label names, index order


@dataclass
class Dataset:
    X: np.ndarray                   # (n, d) float64
    y: np.ndarray                   # int64 class indices or float64 targets
    task: Task
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass
class SyntheticSpec:
    kind: str                       # "linear" | "quadratic"
    k: int
    sigma: float = 1.0
    n_train: int = 10000
    n_test: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("linear", "quadratic"):
            raise ParameterError(f"unknown synthetic kind {self.kind!r}")
        if not 1 <= self.k <= BASE_DIM:
            raise ParameterError(f"k must be in [1, {BASE_DIM}], got {self.k}")
        require_finite(sigma=self.sigma)
        if np.any(np.asarray(self.sigma) < 0):
            raise ParameterError("sigma must be >= 0")
        if self.n_train < 1 or self.n_test < 0:
            raise ParameterError("n_train must be >= 1 and n_test >= 0")


def gen_base(n: int, rng: RngState) -> np.ndarray:
    """(n, 100) matrix of i.i.d. standard-normal features."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return rng.normal(n, BASE_DIM, 0.0, 1.0)


def add_noise(X: np.ndarray, sigma, rng: RngState) -> np.ndarray:
    """X plus i.i.d. N(0, sigma^2) per entry; sigma may be a per-dim vector.

    sigma = 0 returns a bit-exact copy without consuming randomness.
    """
    X = np.asarray(X, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma < 0):
        raise ParameterError("sigma must be >= 0")
    if np.all(sigma == 0):
        return X.copy()
    return X + rng.normal(X.shape[0], X.shape[1], 0.0, 1.0) * sigma


def _binary_task() -> Task:
    return Task(kind=CLASSIFICATION, n_classes=2, labels=["0", "1"])


def gen_linear_k(spec: SyntheticSpec, rng: RngState | None = None) -> Dataset:
    """linear-k dataset: n_train + n_test rows (train rows first).

    Draw order is fixed: feature subset, then the k+1 map coefficients,
    then the clean features, then the noise. The returned meta dict records
    everything needed to audit or regenerate the labels.
    """
    if spec.kind != "linear":
        raise ParameterError("spec.kind must be 'linear'")
    rng = rng or RngState(spec.seed)
    dims = np.sort(rng.permutation(BASE_DIM)[: spec.k])
    w = rng.normal(1, spec.k)[0]
    b = float(rng.normal(1, 1)[0, 0])
    n = spec.n_train + spec.n_test
    clean = gen_base(n, rng)
    y = (clean[:, dims] @ w + b > 0).astype(np.int64)
    X = add_noise(clean, spec.sigma, rng)
    meta = {
        "kind": "linear", "k": spec.k, "sigma": spec.sigma,
        "n_train": spec.n_train, "n_test": spec.n_test, "seed": spec.seed,
        "dims": dims.tolist(), "w": w.tolist(), "b": b,
    }
    return Dataset(X=X, y=y, task=_binary_task(), meta=meta)


def gen_quadratic_k(spec: SyntheticSpec, rng: RngState | None = None) -> Dataset:
    """quadratic-k dataset: labels from sign(w1 . x1^2 + w2 . x2 + b).

    The two k-subsets are drawn independently and may overlap.
    """
    if spec.kind != "quadratic":
        raise ParameterError("spec.kind must be 'quadratic'")
    rng = rng or RngState(spec.seed)
    dims1 = np.sort(rng.permutation(BASE_DIM)[: spec.k])
    dims2 = np.sort(rng.permutation(BASE_DIM)[: spec.k])
    w1 = rng.normal(1, spec.k)[0]
    w2 = rng.normal(1, spec.k)[0]
    b = float(rng.normal(1, 1)[0, 0])
    n = spec.n_train + spec.n_test
    clean = gen_base(n, rng)
    score = clean[:, dims1] ** 2 @ w1 + clean[:, dims2] @ w2 + b
    y = (score > 0).astype(np.int64)
    X = add_noise(clean, spec.sigma, rng)
    meta = {
        "kind": "quadratic", "k": spec.k, "sigma": spec.sigma,
        "n_train": spec.n_train, "n_test": spec.n_test, "seed": spec.seed,
        "dims1": dims1.tolist(), "dims2": dims2.tolist(),
        "w1": w1.tolist(), "w2": w2.tolist(), "b": b,
    }
    return Dataset(X=X, y=y, task=_binary_task(), meta=meta)


def generate(spec: SyntheticSpec, rng: RngState | None = None) -> Dataset:
    if spec.kind == "linear":
        return gen_linear_k(spec, rng)
    return gen_quadratic_k(spec, rng)


def train_test(ds: Dataset, n_train: int) -> tuple[Dataset, Dataset]:
    """Slice a generated dataset into its train/test halves (rows are i.i.d.)."""
    if not 0 < n_train < ds.n:
        raise ParameterError(f"n_train must be in (0, {ds.n}), got {n_train}")
    tr = Dataset(ds.X[:n_train], ds.y[:n_train], ds.task, ds.meta)
    te = Dataset(ds.X[n_train:], ds.y[n_train:], ds.task, ds.meta)
    return tr, te


def gen_xor(n: int, noise: float, rng: RngState) -> Dataset:
    """2-D four-cluster XOR: centers (+-1, +-1), label = sign parity."""
    if n < 4:
        raise ParameterError("need at least 4 samples")
    centers = np.array([[-1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]])
    labels = np.array([0, 0, 1, 1], dtype=np.int64)
    which = rng.permutation(n) % 4
    X = centers[which] + rng.normal(n, 2, 0.0, noise)
    return Dataset(X=X, y=labels[which], task=_binary_task())


def split(dataset: Dataset, fraction: float,
          rng: RngState) -> tuple[Dataset, Dataset]:
    """Seeded shuffle-split; stratified per class for classification."""
    if not 0.0 < fraction < 1.0:
        raise ParameterError(f"fraction must be in (0, 1), got {fraction}")
    n = dataset.n
    if dataset.task.kind == CLASSIFICATION:
        train_parts, test_parts = [], []
        for c in np.unique(dataset.y):
            idx = np.flatnonzero(dataset.y == c)
            idx = idx[rng.permutation(idx.size)]
            cut = int(round(idx.size * fraction))
            train_parts.append(idx[:cut])
            test_parts.append(idx[cut:])
        train_idx = np.concatenate(train_parts)
        test_idx = np.concatenate(test_parts)
        train_idx = train_idx[rng.permutation(train_idx.size)]
        test_idx = test_idx[rng.permutation(test_idx.size)]
    else:
        perm = rng.permutation(n)
        cut = int(round(n * fraction))
        train_idx, test_idx = perm[:cut], perm[cut:]
    if train_idx.size == 0 or test_idx.size == 0:
        raise ParameterError("split leaves an empty side")
    mk = lambda idx: Dataset(dataset.X[idx], dataset.y[idx], dataset.task,
                             dataset.meta)
    return mk(train_idx), mk(test_idx)


@dataclass
class Scaler:
    """Per-feature z-score parameters fit on training data only."""
    mean: np.ndarray
    std: np.ndarray   # entries of 0 mark zero-variance features

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.zeros_like(X)
        nz = self.std > 0
        out[:, nz] = (X[:, nz] - self.mean[nz]) / self.std[nz]
        return out


def standardize(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset, Scaler]:
    """Z-score both sets using training statistics; constant features -> 0.

    A feature whose mean or variance overflows float64 is rejected, not
    zeroed."""
    if train.n == 0:
        raise ParameterError("cannot standardize an empty training set")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.X.mean(axis=0)
        std = train.X.std(axis=0)
    overflow = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if overflow.size:
        raise DataError(f"feature column {overflow[0]} (0-based, label "
                        "excluded) is too large to standardize: its mean "
                        "or variance overflows float64")
    # constant columns can carry float-rounding noise in their std
    std[std <= 1e-12 * np.maximum(1.0, np.abs(mean))] = 0.0
    scaler = Scaler(mean=mean, std=std)
    tr = Dataset(scaler.transform(train.X), train.y, train.task, train.meta)
    te = Dataset(scaler.transform(test.X), test.y, test.task, test.meta)
    return tr, te, scaler


def load_csv(path, label_column, task_kind: str) -> Dataset:
    """Load a headered numeric CSV, mapping labels to dense indices.

    `label_column` is a header name or a zero-based column index. Feature
    cells must parse as finite floats; any malformed row aborts the load
    with an error naming the offending rows. Classification labels are
    mapped to indices by sorted order of their distinct string values.
    """
    if task_kind not in (CLASSIFICATION, REGRESSION):
        raise ParameterError(f"unknown task kind {task_kind!r}")
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with reading(path, "dataset file"), open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty dataset file: {path}") from None
        header = [h.strip() for h in header]
        if isinstance(label_column, int) or (
                isinstance(label_column, str) and label_column.lstrip("-").isdigit()
                and label_column not in header):
            idx = int(label_column)
            if not -len(header) <= idx < len(header):
                raise DataError(f"label column index {idx} out of range")
            label_idx = idx % len(header)
        else:
            if label_column not in header:
                raise DataError(f"label column {label_column!r} not in header")
            label_idx = header.index(label_column)

        feat_idx = [i for i in range(len(header)) if i != label_idx]
        rows, labels, bad = [], [], []
        for rownum, row in enumerate(reader, start=2):   # 1-based incl. header
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                bad.append(f"row {rownum}: expected {len(header)} cells, "
                           f"got {len(row)}")
                continue
            feats = []
            for i in feat_idx:
                try:
                    v = float(row[i])
                except ValueError:
                    bad.append(f"row {rownum}: column {header[i]!r} value "
                               f"{row[i]!r} is not numeric")
                    break
                if not math.isfinite(v):
                    bad.append(f"row {rownum}: column {header[i]!r} is "
                               "non-finite")
                    break
                feats.append(v)
            if len(feats) < len(feat_idx):
                continue
            label_cell = row[label_idx].strip()
            if task_kind == REGRESSION:
                try:
                    target = float(label_cell)
                except ValueError:
                    bad.append(f"row {rownum}: label {label_cell!r} is not "
                               "numeric")
                    continue
                if not math.isfinite(target):
                    bad.append(f"row {rownum}: label is non-finite")
                    continue
                labels.append(target)
            else:
                labels.append(label_cell)
            rows.append(feats)
    if bad:
        raise DataError("malformed rows in " + str(path) + ": "
                        + "; ".join(bad[:10]))
    if not rows:
        raise DataError(f"dataset has no data rows: {path}")

    X = np.asarray(rows, dtype=np.float64)
    if task_kind == REGRESSION:
        y = np.asarray(labels, dtype=np.float64)
        return Dataset(X=X, y=y, task=Task(kind=REGRESSION))
    names = sorted(set(labels))
    if len(names) < 2:
        raise DataError("classification dataset has fewer than 2 classes")
    mapping = {name: i for i, name in enumerate(names)}
    y = np.asarray([mapping[v] for v in labels], dtype=np.int64)
    return Dataset(X=X, y=y,
                   task=Task(kind=CLASSIFICATION, n_classes=len(names),
                             labels=names))


def write_csv(path, ds: Dataset) -> None:
    """Write features f0..f{d-1} plus a final `label` column."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(ds.d)] + ["label"])
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.X[i]]
            if ds.task.kind == CLASSIFICATION:
                name = (ds.task.labels[ds.y[i]] if ds.task.labels
                        else str(int(ds.y[i])))
                row.append(name)
            else:
                row.append(repr(float(ds.y[i])))
            writer.writerow(row)
