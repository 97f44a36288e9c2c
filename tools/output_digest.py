"""Print the sha256 of every file a fixed small CLI script writes.

    python3 tools/output_digest.py [--src DIR] [--threads N] [--cpus N]

The script runs in a fresh temporary directory, with relative paths, in
one child process with OPENBLAS_NUM_THREADS=N (default 1), which calls
`dnspn.cli.main` once a command:

- `generate` linear and quadratic data;
- `train` of fcnn, dndn, dnspn and surgery, of a regression dnspn, and of
  a deep-forest dnspn (32 trees of depth 6, whose 80-row evaluate routes
  in two row blocks, so a predict splits them over the CPUs), on the
  quadratic data;
- `evaluate` of each model on the quadratic test split;
- `compare` of fcnn and dnspn over two seeds, and `mask-curve`.

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
# (output directory, training method, extra train flags)
MODELS = [("fcnn", "fcnn", []), ("dndn", "dndn", []), ("dnspn", "dnspn", []),
          ("surgery", "surgery", []),
          ("dnspn-regress", "dnspn", ["--task", "regress"]),
          ("dnspn-deep", "dnspn", ["--trees", "32", "--depth", "6"])]


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
    data = only_run("quadratic")
    split = ["--data", f"{data}/train.csv", "--eval-data", f"{data}/test.csv"]
    for out, method, extra in MODELS:
        cli("train", *split, "--method", method, *FIT, *extra,
            "--out", f"train-{out}")
        cli("evaluate", "--model", f"{only_run('train-' + out)}/model.json",
            "--data", f"{data}/test.csv", "--out", f"eval-{out}")
    cli("compare", *split, "--methods", "fcnn,dnspn", "--seeds", "0,1",
        *FIT[:-2], "--out", "compare")
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
