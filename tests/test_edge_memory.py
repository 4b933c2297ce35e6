"""Peak memory per written row of the largest tables, in child processes.

Each case runs the CLI twice in a fresh interpreter, once large and once
small, and each child reports the peak RSS of its own address space,
``VmHWM`` in ``/proc/self/status``.  Neither ``getrusage`` figure would
do: the parent's ``RUSAGE_CHILDREN`` also counts every other subprocess
the suite runs, and a child's ``RUSAGE_SELF`` keeps the peak of the
address space it replaced at exec, which is the test process's own.
The growth of the peak per extra row bounds what a row costs until it
is written: the tables go out a chunk at a time from column arrays, so
a row holds a few numbers, not a Python row object.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
CHILD = (
    "import sys\n"
    "from bellport import cli\n"
    "cli.main(sys.argv[1:])\n"
    "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
)


def peak_and_rows(argv, out):
    """The child's peak RSS in bytes, and the data rows it wrote to ``out``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *argv, "--out", str(out), "--deterministic"],
        env=env, capture_output=True, text=True, check=True,
    )
    with open(out) as fh:
        rows = sum(not line.startswith("#") for line in fh) - 1  # less the header
    _, kib, _ = done.stdout.split()  # "VmHWM:  <n> kB"
    return int(kib) * 1024, rows


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux's /proc")
@pytest.mark.parametrize(
    "large, small, bound",
    [
        (
            "teleport --channel random:16:1 --enumerate-branches",
            "teleport --channel random:12:1 --enumerate-branches",
            1000,
        ),
        ("fig2 --trials 4096 --enumerate-branches", "fig2 --trials 64 --enumerate-branches", 250),
        # both span several 1,024-trial blocks, so that per-block transients
        # cancel and the 23 B of a row's index and value columns show
        ("fig2 --trials 8192 --enumerate-branches", "fig2 --trials 2048 --enumerate-branches", 40),
    ],
)
def test_peak_memory_per_row(tmp_path, large, small, bound):
    big, big_rows = peak_and_rows(large.split(), tmp_path / "large.csv")
    base, base_rows = peak_and_rows(small.split(), tmp_path / "small.csv")
    assert big_rows >= 4 * base_rows
    assert (big - base) / (big_rows - base_rows) <= bound
