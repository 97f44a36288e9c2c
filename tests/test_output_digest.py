"""tools/output_digest.py: the CLI script's outputs, digest by digest."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"

# per command: the files its run directory holds
FILES = {"generate": 3, "train": 3, "evaluate": 1, "compare": 1,
         "mask-curve": 2}


def test_two_runs_print_the_same_bytes():
    # at 1 and 2 BLAS threads, side by side: the outputs do not depend on
    # the thread count
    runs = [subprocess.Popen([sys.executable, str(TOOL), "--threads", n],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for n in ("1", "2")]
    outs = [proc.communicate(timeout=600) for proc in runs]
    for proc, (_, err) in zip(runs, outs):
        assert proc.returncode == 0, err.decode()
    assert outs[0][0] == outs[1][0]
    lines = outs[0][0].decode().splitlines()
    assert len(lines) == (2 * FILES["generate"] + 5 * FILES["train"]
                          + 5 * FILES["evaluate"] + FILES["compare"]
                          + FILES["mask-curve"])
    paths = [line.split("  ", 1)[1] for line in lines]
    assert paths == sorted(paths)
    assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)


def test_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "--src", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "holds no dnspn package" in proc.stderr
