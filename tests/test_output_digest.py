"""tools/output_digest.py: the CLI script's outputs, digest by digest."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"

# per command: the files its run directory holds
FILES = {"generate": 3, "train": 3, "evaluate": 1, "compare": 1,
         "mask-curve": 2}


def test_two_runs_print_the_same_bytes():
    # at 1 and 2 BLAS threads, and pinned to one CPU, side by side: the
    # outputs depend neither on the BLAS thread count nor on whether an
    # eval route's rows are split over worker threads
    runs = [subprocess.Popen([sys.executable, str(TOOL), *flags],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for flags in (["--threads", "1"], ["--threads", "2"],
                          ["--threads", "1", "--cpus", "1"])]
    outs = [proc.communicate(timeout=600) for proc in runs]
    for proc, (_, err) in zip(runs, outs):
        assert proc.returncode == 0, err.decode()
    assert outs[0][0] == outs[1][0] == outs[2][0]
    lines = outs[0][0].decode().splitlines()
    # six models: fcnn, dndn, dnspn, surgery, regression and deep-forest
    assert len(lines) == (2 * FILES["generate"] + 6 * FILES["train"]
                          + 6 * FILES["evaluate"] + FILES["compare"]
                          + FILES["mask-curve"])
    paths = [line.split("  ", 1)[1] for line in lines]
    assert paths == sorted(paths)
    assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)


def test_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "--src", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "holds no dnspn package" in proc.stderr


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("cpus", ["-1", "100000"])
def test_refuses_a_cpu_count_outside_the_set(cpus):
    proc = subprocess.run([sys.executable, str(TOOL), "--cpus", cpus],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "--cpus must be in 1.." in proc.stderr
