"""Print the sha256 of every file a fixed small CLI script writes.

    python3 tools/output_digest.py [--src DIR] [--threads N] [--cpus N]

The script runs in a fresh temporary directory, with relative paths, in
one child process with OPENBLAS_NUM_THREADS=N (default 1), which calls
`dnspn.cli.main` once a command:

- `generate` linear and quadratic data, and noiseless quadratic data
  with k = 100, whose two feature subsets are both the full width;
- `train` of fcnn, dndn, dnspn and surgery, of a regression dnspn, of
  a deep-forest dnspn (32 trees of depth 6, whose 80-row evaluate routes
  in two row blocks, so a predict splits them over the CPUs), and of a
  dnspn at dropout 0 (every other model trains at the default 0.5), on
  the quadratic data;
- `evaluate` of each model on the quadratic test split;
- `generate` of a 1200-row quadratic test split, and `evaluate` of the
  fcnn and dnspn models on it: their 100 -> 200 -> 200 layers run in four
  row blocks, so a predict splits them over the CPUs, and fcnn's narrow
  readout then runs on the caller;
- `evaluate` of the dnspn model on `walk.csv`, eight rows the script
  writes with a quoted cell and an underscored number, which `load_csv`
  reads by its row walk, not by numpy's C reader;
- `train` and `evaluate` of a dnspn on `d50-train.csv` and `d50-test.csv`,
  Gaussian 50-feature files the script writes, a width whose training
  OpenBLAS 0.3.31 sums in another order at 2 threads than at 1 unless the
  CLI pins one thread;
- `train` of a dnspn on the quadratic train split alone, which holds out
  a part of it for evaluation;
- `compare` of fcnn and dnspn over two seeds, `compare` of fcnn, dndn and
  dnspn over three seeds (nine cells, an odd number that the caller and
  its forked workers share), and `mask-curve`.

It prints `sha256  path` for each file written, in path order. `--src`
runs the package under another checkout's `src/` (default: this one's),
and `--cpus N` pins the child to the first N CPUs of its set with
`os.sched_setaffinity` (default: the whole set), so comparing the outputs
of two checkouts, of two thread counts or of two CPU counts is one diff:

    diff <(python3 tools/output_digest.py --src ../parent/src --cpus 1) \\
         <(python3 tools/output_digest.py --threads 2 --cpus 2)

A command that fails stops the script; the tool then prints its stderr
and exits non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Small enough that the whole script runs in a few seconds, large enough
# that every command trains, prunes and writes every file it can.
GEN = ["--k", "5", "--sigma", "0.5", "--ntrain", "240", "--ntest", "80",
       "--seed", "3"]
FIT = ["--epochs", "2", "--trees", "2", "--depth", "3", "--embed", "3",
       "--seed", "4"]
# A test split that an eval forward of the 100-feature models runs in
# four row blocks of 200-wide activations (see dnspn.network)
SERVE = ["--ntest", "1200"]
# (output directory, training method, extra train flags)
MODELS = [("fcnn", "fcnn", []), ("dndn", "dndn", []), ("dnspn", "dnspn", []),
          ("surgery", "surgery", []),
          ("dnspn-regress", "dnspn", ["--task", "regress"]),
          ("dnspn-deep", "dnspn", ["--trees", "32", "--depth", "6"]),
          ("dnspn-nodrop", "dnspn", ["--dropout", "0"])]


def write_walk_csv(path: Path) -> None:
    """Eight rows of 100 features and a 0/1 label, with a quoted cell and
    an underscored number, so `load_csv` reads them by its row walk."""
    header = [f"f{j}" for j in range(100)] + ["label"]
    rows = [[repr((i * 37 + j * 11) % 17 / 4 - 2) for j in range(100)]
            + [str(i % 2)] for i in range(8)]
    rows[2][5] = '"0.75"'
    rows[5][40] = "1_0.5"
    path.write_text("".join(",".join(row) + "\n" for row in [header, *rows]))


def write_gaussian_csv(path: Path, rows: int, seed: int) -> None:
    """`rows` rows of 50 standard normal features and a 0/1 label."""
    import numpy as np
    X = np.random.default_rng(seed).standard_normal((rows, 50))
    header = [f"f{j}" for j in range(50)] + ["label"]
    path.write_text("".join(
        ",".join(row) + "\n" for row in [header, *(
            [*map(repr, x.tolist()), str(int(x[0] + x[1] > 0))]
            for x in X)]))


def run_script(cpus: int = 0) -> None:
    """Run the fixed CLI script in the current directory, pinned to the
    first `cpus` CPUs of the process's set when `cpus` is not 0. The child
    process calls this, with the package under test on its path."""
    if cpus:
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])
    from dnspn.cli import main

    def cli(*argv: str) -> None:
        code = main(list(argv))
        if code != 0:
            raise SystemExit(f"dnspn {' '.join(argv)} exited with {code}")

    def only_run(out: str) -> str:
        (run,) = Path(out).iterdir()
        return run.as_posix()

    for kind in ("linear", "quadratic"):
        cli("generate", "--kind", kind, *GEN, "--out", kind)
    cli("generate", "--kind", "quadratic", "--k", "100", "--sigma", "0",
        *GEN[4:], "--out", "quadratic-full")
    data = only_run("quadratic")
    split = ["--data", f"{data}/train.csv", "--eval-data", f"{data}/test.csv"]
    for out, method, extra in MODELS:
        cli("train", *split, "--method", method, *FIT, *extra,
            "--out", f"train-{out}")
        cli("evaluate", "--model", f"{only_run('train-' + out)}/model.json",
            "--data", f"{data}/test.csv", "--out", f"eval-{out}")
    cli("generate", "--kind", "quadratic", *GEN, *SERVE, "--out", "serve")
    for out in ("fcnn", "dnspn"):
        cli("evaluate", "--model",
            f"{only_run('train-' + out)}/model.json",
            "--data", f"{only_run('serve')}/test.csv",
            "--out", f"serve-{out}")
    write_walk_csv(Path("walk.csv"))
    cli("evaluate", "--model", f"{only_run('train-dnspn')}/model.json",
        "--data", "walk.csv", "--out", "eval-walk")
    write_gaussian_csv(Path("d50-train.csv"), 240, seed=5)
    write_gaussian_csv(Path("d50-test.csv"), 80, seed=6)
    cli("train", "--data", "d50-train.csv", "--eval-data", "d50-test.csv",
        *FIT, "--out", "train-dnspn-d50")
    cli("evaluate", "--model", f"{only_run('train-dnspn-d50')}/model.json",
        "--data", "d50-test.csv", "--out", "eval-dnspn-d50")
    cli("train", "--data", f"{data}/train.csv", *FIT,
        "--out", "train-dnspn-holdout")
    cli("compare", *split, "--methods", "fcnn,dnspn", "--seeds", "0,1",
        *FIT[:-2], "--out", "compare")
    cli("compare", *split, "--methods", "fcnn,dndn,dnspn", "--seeds",
        "0,1,2", *FIT[:-2], "--out", "compare-nine")
    cli("mask-curve", "--samples", "201", "--out", "curve")


def digests(work: Path) -> list[str]:
    """`sha256  path` for every file under `work`, in path order."""
    paths = sorted(path.relative_to(work).as_posix()
                   for path in work.rglob("*") if path.is_file())
    return [f"{hashlib.sha256((work / path).read_bytes()).hexdigest()}  "
            f"{path}" for path in paths]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src/ directory whose dnspn runs")
    parser.add_argument("--threads", type=int, default=1,
                        help="OPENBLAS_NUM_THREADS of every command")
    parser.add_argument("--cpus", type=int, default=0,
                        help="pin the script to this many CPUs "
                             "(default: all the process may run on)")
    args = parser.parse_args(argv)
    if not (args.src / "dnspn" / "cli.py").is_file():
        parser.error(f"{args.src} holds no dnspn package")
    if args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    if args.cpus:
        if not hasattr(os, "sched_setaffinity"):
            parser.error("--cpus needs os.sched_setaffinity")
        available = len(os.sched_getaffinity(0))
        if not 1 <= args.cpus <= available:
            parser.error(f"--cpus must be in 1..{available}, got "
                         f"{args.cpus}")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(args.threads),
           "PYTHONPATH": os.pathsep.join((str(args.src.resolve()),
                                          str(Path(__file__).parent)))}
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, output_digest; "
             "output_digest.run_script(int(sys.argv[1]))", str(args.cpus)],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        print("\n".join(digests(Path(tmp))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
