"""``tools/det_sweep.py`` against its committed hashes.

``tests/golden/det_sweep.txt`` holds the sweep's lines as the tree before
the Lieb-Mattis Heisenberg solve printed them, under the Python minor
version and numpy version named in its header.  The hashes cover stderr,
exit codes and exception messages, which other versions may word
differently, so under other versions the test skips and says which.
Like the golden CSVs, the file is never regenerated to make a change
pass.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellport

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "det_sweep.txt"


def test_det_sweep_prints_the_committed_hashes():
    header, *expected = GOLDEN.read_text().splitlines()
    recorded = header.removeprefix("# ")
    running = f"python {sys.version_info.major}.{sys.version_info.minor} numpy {np.__version__}"
    if recorded != running:
        pytest.skip(f"det_sweep.txt was recorded under {recorded}; this is {running}")
    env = {**os.environ, "PYTHONPATH": str(Path(bellport.__file__).parents[1]), "PYTHONHASHSEED": "0"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "det_sweep.py")],
        env=env, capture_output=True, text=True, check=True,
    )
    got = done.stdout.splitlines()
    assert len(got) == len(expected)
    differ = [new for new, old in zip(got, expected) if new != old]
    assert not differ, f"{len(differ)} commands print other bytes, first: {differ[0]}"
