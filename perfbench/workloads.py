"""The benchmark's workloads, their timed operations and their checks.

Every workload is a loop of whole rounds of the same operations, the way a
user of the package works: make the data, train, evaluate, then serve a
single-caller closed loop of `predict` calls at 1, 128 and 2000 rows. The
train workloads do this in memory through the library; `cli-serve` does it
through `dnspn.cli.main` and files, then loads the saved model to serve.
The harness calls the program only through module attributes (for example
`T.fit`, not a name bound at import), so the traced run's patches see every
call. Every timed operation is recorded as its start and end, so that when
the run ends its time can be put at the machine's reference speed from the
speed probes taken meanwhile (`speed.py`).
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import shutil
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import dnspn.cli as C
import dnspn.data as D
import dnspn.model_io as M
import dnspn.training as T
from dnspn.numeric import RngState
from dnspn.pruning import PruneConfig

import checks
import reference
from speed import Speed

# Predict calls per round at each batch size. At least three rounds run, so
# batch 1 has >= 1500 samples and its 90th percentile >= 150 beyond it.
SERVE_CALLS = {1: 500, 128: 32, 2000: 4}
SMALL_SERVE_CALLS = {1: 40, 128: 4, 2000: 1}
MIN_ROUNDS = 3
TEST_ROWS = 2000

# The paper's experiment reads one fixed quadratic-50 draw (generator seed
# 0, as the acceptance criteria do): its class balance depends on the draw,
# and on some draws (seed 3: 77% one class) no method beats the majority
# rate within a few epochs, which would test the draw rather than the
# program. --seed drives initialisation, shuffling and dropout.
PAPER_DATA_SEED = 0
PAPER_EPOCHS = 2
# Rows `dnspn generate` writes to train.csv on cli-serve; the test split has
# TEST_ROWS. Smaller than the generator's default 10k so that a run holds
# enough rounds for steady medians.
CLI_TRAIN_ROWS = 2_000


class RoundFailed(Exception):
    pass


class Run:
    """What one benchmark run measures and finds."""

    def __init__(self, seed: int, tracer=None, small: bool = False):
        self.seed = seed
        self.tracer = tracer
        self.small = small
        self.attempted = 0
        self.failed = 0
        # op -> one (work, [(start, end), ...]) per sample: the sample's
        # value is its intervals' total time, or work over it when work
        # is given
        self.samples: dict[str, list[tuple]] = {}
        self.speed = Speed()
        self.problems: list[str] = []     # checks that failed
        self.failures: list[str] = []     # operations that raised
        self.notes: dict = {}
        self.rounds = 0

    def timed(self, fn, *args):
        """fn(*args) and its (start, end)."""
        t0 = perf_counter()
        out = fn(*args)
        return out, (t0, perf_counter())

    def add(self, key: str, intervals: list, work: float | None = None):
        self.samples.setdefault(key, []).append((work, intervals))

    def values(self, key: str, scaled: bool = True) -> list[float]:
        """Each sample's seconds, or work per second, at the reference
        speed (or as measured, when not `scaled`)."""
        out = []
        for work, intervals in self.samples.get(key, []):
            sec = self.speed.seconds(intervals, scaled)
            out.append(sec if work is None else work / sec)
        return out

    def scope(self, name: str):
        return self.tracer.in_scope(name) if self.tracer else \
            contextlib.nullcontext()

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else \
            contextlib.nullcontext()

    def check(self, fn, *args):
        try:
            return fn(*args)
        except checks.CheckFailed as exc:
            self.problems.append(f"round {self.rounds}: {exc}")
            return None


class Ops:
    """Counts one round's operations; a failure fails the rest of it."""

    def __init__(self, run: Run, per_round: int):
        self.run = run
        self.per_round = per_round
        self.done = 0

    def __call__(self, fn, *args):
        try:
            out = fn(*args)
        except Exception as exc:
            traceback.print_exception(exc, file=sys.stderr)
            self.run.attempted += self.per_round
            self.run.failed += self.per_round - self.done
            raise RoundFailed(str(exc)) from exc
        self.done += 1
        return out

    def close(self) -> None:
        if self.done != self.per_round:
            raise RuntimeError(f"round ran {self.done} operations, "
                               f"expected {self.per_round}")
        self.run.attempted += self.per_round


def serve_calls(run: Run) -> dict[int, int]:
    return SMALL_SERVE_CALLS if run.small else SERVE_CALLS


class Server:
    """A round's closed loop of predict calls over the rows of X (2000).

    The calls can be spread over the round in `parts` slices, so that the
    latencies sample several moments of the round, not one burst.
    """

    def __init__(self, run: Run, X: np.ndarray, parts: int = 1):
        self.run, self.X, self.parts = run, X, parts
        self.done = 0
        self.outs: dict[int, list] = {1: [], 128: []}
        self.starts: dict[int, list] = {1: [], 128: []}
        self.full = None

    def slice(self, ops: Ops, model) -> None:
        """The next 1/parts of the round's calls at each batch size."""
        run, X, k = self.run, self.X, self.done
        for batch, n in serve_calls(run).items():
            with run.scope(f"b{batch}"):
                for i in range(n * k // self.parts,
                               n * (k + 1) // self.parts):
                    start = (i * batch) % (len(X) - batch + 1)
                    out, iv = run.timed(ops, T.predict, model,
                                        X[start:start + batch])
                    run.add(f"predict_b{batch}", [iv])
                    if batch == len(X):
                        self.full = out
                    else:
                        self.outs[batch].append(out)
                        self.starts[batch].append(start)
        self.done += 1

    def check(self) -> np.ndarray:
        """Smaller batches agree with the full one; returns the full-batch
        output."""
        self.run.check(checks.simplex, self.full, "predict output")
        for batch in (1, 128):
            self.run.check(checks.batch_rows, self.full, self.starts[batch],
                           self.outs[batch], f"batch-{batch} predict")
        return self.full


def check_forward(run: Run, model, X: np.ndarray, probs: np.ndarray):
    """predict's output against the reference forward; returns the
    reference's per-head leaf-reach probabilities."""
    want, reach = reference.forward(model, X)
    run.check(checks.close, probs, want, "predict vs reference forward")
    return reach


def run_rounds(run: Run, one_round, seconds: float) -> None:
    """One warm-up round, then whole rounds until `seconds` would be
    passed, at least MIN_ROUNDS (one when small).

    The warm-up's operations and checks count, but not its times: its
    first calls pay for lazy set-up and cold caches (its `fit` ran 20-40%
    slower than later ones), which no later round repeats.
    """
    def guarded():
        try:
            one_round()
        except RoundFailed as exc:
            run.failures.append(f"round {run.rounds}: {exc}")
        run.rounds += 1

    guarded()
    run.samples.clear()
    if run.tracer:
        run.tracer.spans.clear()
    run.rounds = 0
    least = 1 if run.small else MIN_ROUNDS
    durations = []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        guarded()
        durations.append(perf_counter() - t0)
        elapsed = perf_counter() - t_start
        if len(durations) >= least and \
                elapsed + median(durations) > seconds:
            break


# ---------------------------------------------------------------------------
# In-memory training workloads
# ---------------------------------------------------------------------------

class TrainWorkload:
    """generate -> fit and evaluate each method -> serve the first, in
    memory.

    The train metrics pool the methods: `train_sps` is all the rows trained
    in a round over all its `fit` time, and `evaluate_s` the round's
    evaluations together. Each method's own rate is kept as the samples of
    `train.<method>` in the results file.
    """

    def __init__(self, methods: tuple, data, input_dim: int, trees: int,
                 depth: int, embed: int, cfg: dict, epochs: int):
        self.methods = methods
        self.data = data
        self.input_dim = input_dim
        self.trees, self.depth, self.embed = trees, depth, embed
        self.cfg = cfg
        self.epochs = epochs

    def build(self, run: Run) -> dict:
        task = D.Task(kind=D.CLASSIFICATION, n_classes=2, labels=["0", "1"])
        return {method: T.method_model(
            method, self.input_dim, task, RngState(run.seed).child(2),
            trees=self.trees, depth=self.depth, embed_dim=self.embed)
            for method in self.methods}

    def run(self, run: Run, seconds: float) -> None:
        untrained = self.build(run)     # never trained; for the checks
        cfgs = {method: T.TrainConfig(
            epochs=self.epochs, seed=run.seed, prune=PruneConfig(mode=mode),
            **self.cfg) for method, (_, mode) in untrained.items()}
        calls = sum(serve_calls(run).values())

        def one_round():
            ops = Ops(run, 1 + 2 * len(self.methods) + calls)
            # set-up: this round's untrained models
            with run.scope("setup"):
                built, iv = run.timed(self.build, run)
            run.add("setup", [iv])
            models = {method: model for method, (model, _) in built.items()}
            with run.scope("round"):
                (tr, te), iv = run.timed(ops, self.data, run)
            run.add("generate", [iv])
            # each method: fit, evaluate, then a slice of serving the
            # first method's model, so serving spreads over the round
            server = Server(run, te.X, parts=len(self.methods))
            reports, fits, evals = {}, [], []
            for method, model in models.items():
                with run.scope(method):
                    _, iv = run.timed(ops, T.fit, model, tr, te,
                                      cfgs[method])
                run.add(f"train.{method}", [iv], self.epochs * tr.n)
                fits.append(iv)
                with run.scope("round"):
                    reports[method], iv = run.timed(ops, T.evaluate_model,
                                                    model, te)
                evals.append(iv)
                server.slice(ops, models[self.methods[0]])
            run.add("train", fits, len(models) * self.epochs * tr.n)
            run.add("evaluate", evals)
            ops.close()
            served = server.check()
            for method, model in models.items():
                probs = served if method == self.methods[0] else \
                    T.predict(model, te.X)
                run.check(checks.masks, model, cfgs[method].prune)
                acc = reference.accuracy(probs, te.y)
                run.check(checks.equal_metric, "accuracy",
                          reports[method].accuracy, acc)
                run.notes[f"accuracy.{method}"] = acc
                reach = check_forward(run, model, te.X, probs)
                self.verify(run, untrained[method][0], model, te, probs,
                            reach)

        run_rounds(run, one_round, seconds)

    def verify(self, run: Run, untrained, model, te, probs, reach) -> None:
        """Training learned: accuracy above the majority rate, and a test
        loss below the untrained model's."""
        run.check(checks.above_majority, probs, te.y)
        run.check(checks.loss_fell, T.predict(untrained, te.X), probs, te.y)


class XorWorkload(TrainWorkload):
    """Deep, wide forests on a 2-D input: routing does most of the work.

    One epoch leaves the 2->4->4 ReLU backbone dead on some seeds (3 of 12
    stayed at chance, and the test loss rose on some), so learning is not
    checked here; routing must match explicit path products instead.
    """

    def verify(self, run: Run, untrained, model, te, probs, reach) -> None:
        acts = reference.backbone(model, te.X)
        for i, (head, j, proj) in enumerate(zip(
                model.heads, model.head_layers, model.proj_prunes)):
            masked = copy.copy(head)
            masked.proj_w = proj.shadow * proj.mask
            p = T.route(masked, acts[j]).p
            run.check(checks.leaf_sums, p, head.trees, f"head {i} route")
            run.check(checks.close, p, reach[i],
                      f"head {i} route vs path products")


def paper_data(run: Run):
    n_train = 10_000
    spec = D.SyntheticSpec(kind="quadratic", k=50, sigma=1.0,
                           n_train=n_train, n_test=TEST_ROWS,
                           seed=PAPER_DATA_SEED)
    tr, te = D.train_test(D.generate(spec), n_train)
    tr, te, _ = D.standardize(tr, te)
    return tr, te


def xor_data(run: Run):
    n_train = 2_000 if run.small else 8_000
    ds = D.gen_xor(n_train + TEST_ROWS, 0.25, RngState(run.seed).child(1))
    tr, te = D.train_test(ds, n_train)
    tr, te, _ = D.standardize(tr, te)
    return tr, te


# ---------------------------------------------------------------------------
# The CLI file path
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Features and integer labels of a generated CSV, parsed here."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    X = np.array([[float(v) for v in row[:-1]] for row in rows[1:]])
    y = np.array([int(row[-1]) for row in rows[1:]], dtype=np.int64)
    return X, y


class CliWorkload:
    """`generate`, `train`, `evaluate` through the CLI, then `load_model`
    and serving from the saved model."""

    epochs = 1

    def __init__(self, work: Path):
        self.work = work

    def cli(self, run: Run, command: str, args: list[str]) -> str:
        out = io.StringIO()
        with run.span(f"cli.{command}"), contextlib.redirect_stdout(out):
            code = C.main([command, *args, "--force"])
        if code != 0:
            raise RuntimeError(f"dnspn {command} exited with {code}")
        return out.getvalue()

    def run(self, run: Run, seconds: float) -> None:
        n_train = 1_000 if run.small else CLI_TRAIN_ROWS
        calls = sum(serve_calls(run).values())

        def one_round():
            ops = Ops(run, 3 + calls)
            root = self.work / f"round-{run.rounds}"
            seed = str(run.seed)
            with run.scope("round"):
                _, iv = run.timed(ops, self.cli, run, "generate", [
                    "--kind", "linear", "--k", "50", "--sigma", "0",
                    "--ntrain", str(n_train), "--ntest", str(TEST_ROWS),
                    "--seed", seed, "--out", str(root / "data")])
                run.add("generate", [iv])
                data = next((root / "data").glob("run-*"))
                with run.scope("dnspn"):
                    _, iv = run.timed(ops, self.cli, run, "train", [
                        "--data", str(data / "train.csv"),
                        "--eval-data", str(data / "test.csv"),
                        "--epochs", str(self.epochs), "--seed", seed,
                        "--out", str(root / "train")])
                run.add("train", [iv], self.epochs * n_train)
                model_path = next((root / "train").glob("run-*")) / \
                    "model.json"
                text, iv = run.timed(ops, self.cli, run, "evaluate", [
                    "--model", str(model_path),
                    "--data", str(data / "test.csv"),
                    "--out", str(root / "eval")])
                run.add("evaluate", [iv])
            with run.scope("setup"):
                model, iv = run.timed(M.load_model, model_path)
                run.add("setup", [iv])
            # the test rows, parsed by the harness and standardized as the
            # model was trained
            X_test, y_test = read_csv(data / "test.csv")
            X = reference.standardize(X_test, model.scaler.mean,
                                      model.scaler.std)
            server = Server(run, X)
            server.slice(ops, model)
            ops.close()
            probs = server.check()
            check_forward(run, model, X, probs)
            self.verify(run, data, model, probs, (X_test, y_test),
                        json.loads(text))
            shutil.rmtree(root)

        run_rounds(run, one_round, seconds)

    def verify(self, run, data: Path, model, probs, test, report) -> None:
        meta = json.loads((data / "meta.json").read_text())
        y_test = test[1]
        for X_file, y_file in (read_csv(data / "train.csv"), test):
            y_ref, score = reference.linear_labels(X_file, meta)
            run.check(checks.labels, y_file, y_ref, score)
        run.check(checks.equal_metric, "accuracy", report["accuracy"],
                  reference.accuracy(probs, y_test))
        run.check(checks.equal_metric, "auc", report["auc"],
                  reference.auc_pairs(probs[:, 1], y_test))
        run.check(checks.masks, model, PruneConfig(mode="dsp"))
        run.notes["accuracy"] = report["accuracy"]


def workloads(work: Path) -> dict:
    """Name -> workload; `work` is a scratch directory for CLI outputs."""
    return {
        # dnspn first: it is the model served, a slice after each fit
        "paper-train": TrainWorkload(
            ("dnspn", "fcnn", "dndn", "surgery"), paper_data,
            input_dim=D.BASE_DIM, trees=10, depth=4, embed=8,
            cfg={"batch_size": 128, "dropout": 0.5}, epochs=PAPER_EPOCHS),
        "deep-forest-train": XorWorkload(
            ("dnspn",), xor_data, input_dim=2, trees=32, depth=6, embed=8,
            cfg={"batch_size": 64, "dropout": 0.0}, epochs=1),
        "cli-serve": CliWorkload(work),
    }
