"""Tabular datasets: CSV ingestion and the synthetic noise benchmarks.

The synthetic families start from 100 i.i.d. standard-normal feature
dimensions and share one recipe (:func:`generate`). linear-k picks k of
them, draws a random affine map, and labels each sample by that map's
sign; quadratic-k draws two independent k-subsets and labels by the sign
of w1 . x1^2 + w2 . x2 + b. Labels are always computed on the clean
features; Gaussian feature noise of one scalar scale sigma is added
afterwards, so sigma is purely a nuisance parameter and the clean signal
stays recoverable. :class:`SyntheticSpec` is the one place a recipe's
settings are checked.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError, reading
from .numeric import RngState, require_finite

BASE_DIM = 100

# Most rows (n_train + n_test) a synthetic dataset may have: 87x the
# paper's 12,000, and 800 MiB of features.
MAX_ROWS = 2 ** 20

# Rows a CSV writer turns into Python floats at once: enough to amortize
# the call, few enough that a 10^6-row table is never held as floats whole.
ROW_BLOCK = 1024

# Characters that send a CSV body to the row walk: the line breaks of
# `str.splitlines` other than "\r" and "\n", which the csv module keeps
# inside a cell, and the separators \x1c-\x1f, which numpy's C reader
# strips from around a number where Python's `float` refuses them
WALK_CHARS = "\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029"

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
        for name in ("k", "n_train", "n_test", "seed"):
            if type(getattr(self, name)) is not int:     # bools included
                raise ParameterError(f"{name} must be an integer, got "
                                     f"{getattr(self, name)!r}")
        if not 1 <= self.k <= BASE_DIM:
            raise ParameterError(f"k must be in [1, {BASE_DIM}], got {self.k}")
        if np.ndim(self.sigma):
            raise ParameterError(f"sigma must be a scalar, got {self.sigma!r}")
        require_finite(sigma=self.sigma)
        if self.sigma < 0:
            raise ParameterError("sigma must be >= 0")
        for name, value, low, high in (
                ("n_train", self.n_train, 1, MAX_ROWS),
                ("n_test", self.n_test, 0, MAX_ROWS - self.n_train)):
            if not low <= value <= high:
                raise ParameterError(f"{name} must be in [{low}, {high}] "
                                     f"(at most {MAX_ROWS} rows in all), "
                                     f"got {value}")


def gen_base(n: int, rng: RngState) -> np.ndarray:
    """(n, 100) matrix of i.i.d. standard-normal features."""
    return rng.normal(n, BASE_DIM, 0.0, 1.0)


def add_noise(X: np.ndarray, sigma: float, rng: RngState) -> np.ndarray:
    """X plus i.i.d. N(0, sigma^2) per entry.

    sigma = 0 returns a bit-exact copy without consuming randomness.
    """
    X = np.asarray(X, dtype=np.float64)
    if sigma == 0:
        return X.copy()
    return X + rng.normal(X.shape[0], X.shape[1], 0.0, 1.0) * sigma


def _binary_task() -> Task:
    return Task(kind=CLASSIFICATION, n_classes=2, labels=["0", "1"])


def generate(spec: SyntheticSpec) -> Dataset:
    """The linear-k or quadratic-k dataset of `spec`: n_train + n_test
    rows, train rows first.

    Draw order is fixed: the feature subsets (one for linear-k; two
    independent ones, which may overlap, for quadratic-k), their weight
    vectors, the bias, the clean features, then the noise. The label is
    the sign of the score on the clean features, summed left to right:
    x[dims] @ w + b, or x[dims1]**2 @ w1 + x[dims2] @ w2 + b. The returned
    meta dict records the spec and everything needed to audit or
    regenerate the labels.
    """
    rng = RngState(spec.seed)
    quadratic = spec.kind == "quadratic"
    terms = ("1", "2") if quadratic else ("",)     # the suffixes in meta
    dims = [np.sort(rng.permutation(BASE_DIM)[: spec.k]) for _ in terms]
    ws = [rng.normal(1, spec.k)[0] for _ in terms]
    b = float(rng.normal(1, 1)[0, 0])
    clean = gen_base(spec.n_train + spec.n_test, rng)
    score = (clean[:, dims[0]] ** 2 @ ws[0] + clean[:, dims[1]] @ ws[1]
             if quadratic else clean[:, dims[0]] @ ws[0])
    y = (score + b > 0).astype(np.int64)
    X = add_noise(clean, spec.sigma, rng)
    meta = {**asdict(spec),
            **{f"dims{t}": d.tolist() for t, d in zip(terms, dims)},
            **{f"w{t}": w.tolist() for t, w in zip(terms, ws)}, "b": b}
    return Dataset(X=X, y=y, task=_binary_task(), meta=meta)


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


def _column_stats(X: np.ndarray,
                  source: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and standard deviation of X, with a DataError that
    names `source` for a column whose mean or variance overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        std = X.std(axis=0)
    overflow = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if overflow.size:
        raise DataError(f"feature column {overflow[0]} (0-based, label "
                        f"excluded) of {source} is too large to standardize: "
                        "its mean or variance overflows float64")
    return mean, std


def standardize(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset, Scaler]:
    """Z-score both sets using training statistics; constant features -> 0.

    A feature whose mean or variance overflows float64 is rejected, not
    zeroed."""
    if train.n == 0:
        raise ParameterError("cannot standardize an empty training set")
    mean, std = _column_stats(train.X, "the training set")
    # constant columns can carry float-rounding noise in their std
    std[std <= 1e-12 * np.maximum(1.0, np.abs(mean))] = 0.0
    scaler = Scaler(mean=mean, std=std)
    tr = Dataset(scaler.transform(train.X), train.y, train.task, train.meta)
    te = Dataset(scaler.transform(test.X), test.y, test.task, test.meta)
    return tr, te, scaler


def _bad_cell(rownum: int, row: list, header: list, feat_idx: list) -> str:
    """The error for the first feature cell of `row` that is not a finite
    float, naming its row and column."""
    for i in feat_idx:
        try:
            finite = math.isfinite(float(row[i]))
        except ValueError:
            return (f"row {rownum}: column {header[i]!r} value {row[i]!r} "
                    "is not numeric")
        if not finite:
            return f"row {rownum}: column {header[i]!r} is non-finite"


def _label(cell: str, task_kind: str):
    """A stripped label cell as a class name or a regression target, or
    the error that names what is wrong with it."""
    cell = cell.strip()
    if not cell:
        return None, "label is empty"
    if task_kind != REGRESSION:
        return cell, None
    try:
        target = float(cell)
    except ValueError:
        return None, f"label {cell!r} is not numeric"
    if not math.isfinite(target):
        return None, "label is non-finite"
    return target, None


def _read_plain(body: str, header: list, label_idx: int,
                task_kind: str) -> tuple[np.ndarray, list] | None:
    """The features and labels of `body`, the lines after the header, with
    every feature cell parsed by numpy's C reader in one call; None where
    the row walk must read the file instead.

    It declines a body with a quote or one of WALK_CHARS, with no line,
    with a cell longer than the csv module's field limit, or with a line
    that is not empty and has another width than the header; a label the
    row walk refuses; and a feature cell numpy refuses or parses as
    non-finite. What it accepts is lines of plain comma-separated cells,
    which the csv module splits as `str.split(",")` does, and numbers that
    numpy and Python's `float` both parse by `PyOS_string_to_double`, to
    the same bits. numpy refuses the other cells `float` reads: those with
    an underscore or a non-ASCII digit.
    """
    if '"' in body or any(c in body for c in WALK_CHARS):
        return None
    # the row walk skips the empty lines, as numpy does
    lines = [line for line in body.splitlines() if line]
    commas = len(header) - 1
    limit = csv.field_size_limit()
    if (not lines or any(line.count(",") != commas for line in lines)
            or any(max(map(len, line.split(","))) > limit
                   for line in lines if len(line) > limit)):
        return None
    if label_idx == commas:
        cells = [line[line.rindex(",") + 1:] for line in lines]
    else:
        cells = [line.split(",", label_idx + 1)[label_idx] for line in lines]
    labels = []
    for cell in cells:
        label, error = _label(cell, task_kind)
        if error:
            return None
        labels.append(label)
    try:
        X = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None,
                       usecols=[i for i in range(len(header))
                                if i != label_idx], ndmin=2)
    except ValueError:
        return None
    if len(X) != len(lines) or not np.isfinite(X).all():
        return None
    return X, labels


def _records(fh, path: Path) -> Iterator[list[str]]:
    """The csv records of `fh`, the open file `path`, from its start, past
    a UTF-8 byte-order mark (as Excel's "CSV UTF-8" writes one), so the
    mark is not part of the first header cell, quoted or not. A record the
    csv module refuses (a cell over its field limit) is a DataError."""
    fh.seek(0)
    if fh.read(1) != "\ufeff":
        fh.seek(0)
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"dataset file {path} line {reader.line_num}: "
                        f"{exc}") from None


def _walk_rows(reader, header: list, label_idx: int, task_kind: str,
               path: Path) -> tuple[np.ndarray, list]:
    """The features and labels of the records `reader` yields after the
    header, read a row at a time by the csv module and Python's `float`,
    or a DataError that names up to 10 malformed rows.

    A row's feature cells are parsed in one `map(float, ...)` and checked
    in one pass; only a row that fails is walked cell by cell, to name the
    first bad column.
    """
    feat_idx = [i for i in range(len(header)) if i != label_idx]
    rows, labels, bad = [], [], []
    for rownum, row in enumerate(reader, start=2):   # 1-based incl. header
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            bad.append(f"row {rownum}: expected {len(header)} cells, "
                       f"got {len(row)}")
            continue
        try:
            feats = list(map(float, row[:label_idx] + row[label_idx + 1:]))
        except ValueError:
            feats = None
        if feats is None or not all(map(math.isfinite, feats)):
            bad.append(_bad_cell(rownum, row, header, feat_idx))
            continue
        label, error = _label(row[label_idx], task_kind)
        if error:
            bad.append(f"row {rownum}: {error}")
            continue
        labels.append(label)
        rows.append(feats)
    if bad:
        raise DataError("malformed rows in " + str(path) + ": "
                        + "; ".join(bad[:10]))
    if not rows:
        raise DataError(f"dataset has no data rows: {path}")
    return np.asarray(rows, dtype=np.float64), labels


def load_csv(path, label_column, task_kind: str) -> Dataset:
    """Load a headered numeric CSV, mapping labels to dense indices.

    `label_column` is a header name or a zero-based column index. Feature
    cells must parse as finite floats and label cells must not be blank;
    any malformed row aborts the load with an error naming the offending
    rows, and a feature column whose mean or variance overflows float64 is
    rejected here, where the error can name the file. Classification labels
    are mapped to indices by sorted order of their distinct string values;
    a file of one class loads, as a model may be scored on it, and the CLI
    refuses it as training data.
    A UTF-8 byte-order mark at the start of the file is not part of the
    first column's name.

    The header is read by the csv module. A body of plain comma-separated
    cells (no quote, the header's width on every line, finite ASCII
    numbers), as `write_csv` writes it, has its feature cells parsed in
    one call to numpy's C reader (`_read_plain`). Any other body, such as
    one with a quoted label, is read again from the file by the row walk
    (`_walk_rows`), the csv module and one Python `float` a cell: it
    unquotes cells, reads the `1_000` and non-ASCII digits numpy refuses,
    and names each malformed row. Both give the same arrays, labels and
    errors.
    """
    if task_kind not in (CLASSIFICATION, REGRESSION):
        raise ParameterError(f"unknown task kind {task_kind!r}")
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with reading(path, "dataset file"), open(path, newline="") as fh:
        try:
            header = next(_records(fh, path))
        except StopIteration:
            raise DataError(f"empty dataset file: {path}") from None
        header = [h.strip() for h in header]
        repeated = next((h for i, h in enumerate(header)
                         if h in header[:i]), None)
        if repeated is not None:
            raise DataError(f"dataset file {path} repeats the column name "
                            f"{repeated!r} in its header")
        if isinstance(label_column, int) or (
                isinstance(label_column, str) and label_column.lstrip("-").isdigit()
                and label_column not in header):
            idx = int(label_column)
            if not -len(header) <= idx < len(header):
                raise DataError(f"label column index {idx} out of range "
                                f"for the {len(header)} columns of {path}")
            label_idx = idx % len(header)
        else:
            if label_column not in header:
                raise DataError(f"label column {label_column!r} not in the "
                                f"header of {path}")
            label_idx = header.index(label_column)
        if len(header) < 2:
            raise DataError(f"dataset file {path} has no feature column, "
                            f"only the label column {header[label_idx]!r}")
        read = _read_plain(fh.read(), header, label_idx, task_kind)
        if read is None:
            reader = _records(fh, path)
            next(reader)
            read = _walk_rows(reader, header, label_idx, task_kind, path)
    X, labels = read
    _column_stats(X, str(path))
    if task_kind == REGRESSION:
        y = np.asarray(labels, dtype=np.float64)
        return Dataset(X=X, y=y, task=Task(kind=REGRESSION))
    names = sorted(set(labels))
    mapping = {name: i for i, name in enumerate(names)}
    y = np.asarray([mapping[v] for v in labels], dtype=np.int64)
    return Dataset(X=X, y=y,
                   task=Task(kind=CLASSIFICATION, n_classes=len(names),
                             labels=names))


def float_lines(X: np.ndarray, last: Iterable[str] | None = None
                ) -> Iterator[str]:
    """The CSV lines of the rows of the float matrix `X`, each ended by the
    matching cell of `last` (already rendered as CSV) when it is given.

    Each float is written by `float.__repr__` and the line ends in `\\r\\n`:
    the bytes `csv.writer` writes for a row of `repr(float(v))` cells, as
    no float's repr holds a comma, a quote or a line break. The rows are
    turned into Python floats `ROW_BLOCK` at a time and the lines yielded
    one by one, so a long table is written as it is formatted.
    """
    X = np.asarray(X, dtype=np.float64)
    cells = None if last is None else iter(last)
    for start in range(0, len(X), ROW_BLOCK):
        for row in X[start:start + ROW_BLOCK].tolist():
            line = ",".join(map(float.__repr__, row))
            yield (line + "\r\n" if cells is None
                   else f"{line},{next(cells)}\r\n")


def _label_cells(ds: Dataset) -> Iterator[str]:
    """Each row's label as a CSV cell: a regression target by
    `float.__repr__`; a class by its name, quoted as `csv.writer` quotes
    it in a row of several cells, rendered once for each class present."""
    if ds.task.kind != CLASSIFICATION:
        return map(float.__repr__,
                   np.asarray(ds.y, dtype=np.float64).tolist())
    ys = ds.y.tolist()
    cells = {}
    for c in set(ys):
        buf = io.StringIO()
        csv.writer(buf).writerow(
            ["", ds.task.labels[c] if ds.task.labels else str(int(c))])
        cells[c] = buf.getvalue()[1:-2]     # less the lead "," and "\r\n"
    return map(cells.__getitem__, ys)


def write_csv(path, ds: Dataset) -> None:
    """Write features f0..f{d-1} plus a final `label` column.

    The bytes are those of `csv.writer` (`\\r\\n` line ends) over rows of
    `repr(float(v))` features and the label: a float by `float.__repr__`,
    so it reads back bit for bit, and a class name quoted where the csv
    module quotes it. The file is written a row at a time.
    """
    with open(Path(path), "w", newline="") as fh:
        csv.writer(fh).writerow([f"f{i}" for i in range(ds.d)] + ["label"])
        fh.writelines(float_lines(ds.X, _label_cells(ds)))
