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

The channel builders, checks, class analyses and the bound scan are
measured in-process with ``tracemalloc``, the first ones in units of the
1 MiB state of 16 qubits: each is run once first, so that cached tables
such as the parity sign are not counted.
"""

import argparse
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bellport import bell, channels, cli, protocol, qudit
from bellport.states import random_state

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


STATE = 16 * 2**16  # bytes of one 16-qubit state


def traced_peak(call):
    """Peak bytes ``tracemalloc`` sees during ``call()``, after a first call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_singlet_random_builds_no_dimer_product_state():
    # the output state, its matching tables and the scatter-add blocks:
    # 1.47 states; building the full Majumdar-Ghosh product of 4^8
    # entries to read its 2^8 nonzero ones peaked at 1.70
    assert traced_peak(lambda: channels.singlet_random(8, 5)) < 1.6 * STATE


def test_order_param_class_weights_hold_no_component(monkeypatch):
    # one class component at a time and its Upsilon^2 image: 2.0 states;
    # a decomposition of a random channel holds all four components, 5.0
    state = channels.build(channels.parse_channel_spec("random:16:1"))
    monkeypatch.setattr(cli, "_channel", lambda text, seed: state)
    args = argparse.Namespace(channel="random:16:1", seed=None)
    assert traced_peak(lambda: cli._cmd_order_param(args)) < 2.5 * STATE


@pytest.mark.parametrize("spec, bound", [("random:16:1", 5.25), ("aklt:16", 3.25)])
def test_decompose_classes_shares_only_the_upsilon2_image(spec, bound):
    # the Upsilon^2 image, the class sum being formed and the components
    # kept: 5.0 states for a random channel, whose four components are all
    # kept, and 3.0 for the pure-class AKLT state; keeping a first sum
    # a +- Upsilon^1 a alive for two classes adds a state to each
    state = channels.build(channels.parse_channel_spec(spec))
    assert traced_peak(lambda: bell.decompose_classes(state)) <= bound * STATE


@pytest.mark.parametrize("which", ["K1", "K7", "G1", "G2"])
def test_stabilizer_report_holds_no_copy_of_the_state(which):
    # the U-string's sign vector, signed amplitudes and flip: 2.5 states;
    # a PureState of the image and a fresh residual peaked at 3.0
    state = channels.cluster_state(16)
    ops = {f"K{j}": channels.cluster_stabilizer(j, 16) for j in (1, 7)}
    ops.update(zip(("G1", "G2"), channels.cluster_g_operators(16)))
    op = ops[which]
    assert traced_peak(lambda: channels.stabilizer_report(state, op, which)) < 2.75 * STATE


def test_parity_signs_are_kept_for_at_most_four_sizes():
    # an unbounded cache kept one sign vector per state size it met, 16 MiB
    # for 20 qubits, for the rest of the process
    for L in range(2, 14, 2):
        bell.upsilon_expectations(channels.build(channels.parse_channel_spec(f"random:{L}:1")))
    assert bell._parity.cache_info().currsize <= 4


def test_bound_scan_holds_one_grid_of_delta():
    # Delta on the 121^3 grid is 14 MiB, two while a refinement replaces it
    # (28 MiB), and the rest of the scan 121^2 arrays; three full
    # meshgrids, |b|^2, |c|^2 and their complex temporaries peaked at 203 MiB
    assert traced_peak(lambda: protocol.min_fidelity_scan(np.pi / 3)) <= 64 * 2**20


def test_qudit_teleport_keeps_no_gate_table():
    # a cache of one-label tables kept 16 tables of 16 d^4 B (64 KiB at
    # d = 8) after 16 calls with distinct labels
    d = 8
    client = random_state(1, d, 0)
    qudit.qudit_teleport(client, (0, 0), rng=0)
    tracemalloc.start()
    try:
        for label in np.ndindex(4, 4):
            qudit.qudit_teleport(client, label, rng=0)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 16 * d**4
