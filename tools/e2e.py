"""Wall time and peak memory of ``bellport`` commands, one fresh child each.

Each case of ``CASES`` is one CLI command line.  It runs in a new
interpreter with ``--deterministic --out /dev/null``, and the child
reports its own wall time (from before ``bellport`` is imported to after
the table is written) and the peak RSS of its own address space,
``VmHWM`` in ``/proc/self/status``.  Neither ``getrusage`` figure would
do: ``RUSAGE_CHILDREN`` counts every child, and a child's
``RUSAGE_SELF`` keeps the peak of the process that spawned it.  Peaks
are in MiB (KiB / 1024).  A case with a bound is an edge case whose peak
must stay at or below it.

    python3 tools/e2e.py                    # every case once, this checkout
    python3 tools/e2e.py --check            # the bounded cases; exit 1 over a bound
    python3 tools/e2e.py --against ../base --repeat 3 --tier1 --write BENCH_<n>.json

``--against PATH`` runs the same cases on a second checkout's ``src``,
alternating which side runs first, and reports the minimum and median
of each side; ``--tier1`` also times the tier-1 suite in each checkout.
With ``--write``, the case rows are written before the suite runs and
the suite's rows added after it, so that the suite's check of the
bounds reads the peaks of this run.  Linux only.

A peak is not exact to the byte: ``VmHWM`` moves with the heap's layout
alone.  Byte-identical ``src`` trees in two directories read 122.3 and
118.7 MiB for ``cluster-check -L 20``, every time, so the cases that hold
16 MiB arrays move by about 3.6 MiB with no change to the code.  A bound
keeps headroom above that.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Case(NamedTuple):
    argv: str
    bound_mib: float | None = None  # the edge cases' bounds on VmHWM


CASES = (
    # every subcommand at its defaults; where a value is required, the
    # README's example or a golden file's
    Case("teleport --channel singlet-random:6:3 --assumed-class mm --enumerate-branches"),
    Case("fig2"),
    Case("appendix-a"),
    Case("order-param --channel random:8:3"),
    Case("cluster-check"),
    Case("aklt-check"),
    Case("bound-scan --theta 1.0471975512", 75),  # Delta is its one 121^3 grid
    Case("three-qubit"),
    Case("qudit-demo"),
    Case("heisenberg-check"),
    # the largest tables the CLI writes
    Case("teleport --channel random:20:1 --enumerate-branches", 515),
    Case("fig2 --trials 131072 --enumerate-branches", 300),
    # the sampled teleport of the same channel, down one shared-prefix walk
    Case("teleport --channel random:20:1 --trials 131072", 242),
    Case("fig2 --trials 131072"),
    # the class weights of 20-qubit channels, one component at a time
    Case("order-param --channel aklt:20", 115),
    Case("order-param --channel singlet-random:20:1", 115),
    # the same weights of a straddling state, and stabilizers on amplitudes
    Case("cluster-check -L 20", 135),
    # class purity read off the Upsilon expectations
    Case("aklt-check -L 20", 100),
    Case("heisenberg-check -L 12"),
    # the largest Heisenberg ring, one eigensolve and a certified gap
    Case("order-param --channel heisenberg-ring:12"),
    # the largest d, set by four 16 MiB gate tables
    Case("qudit-demo -d 32 --seed 1", 215),
)

CHILD = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "from bellport import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "wall = time.perf_counter() - start\n"
    "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
    "print(code, wall, hwm.split()[1])\n"  # "VmHWM:  <n> kB"
)


def run_case(src: Path, argv: str) -> dict:
    """One fresh child of ``argv`` on the package under ``src``: its exit code
    from ``cli.main``, wall time in s and ``VmHWM`` in MiB."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *argv.split(), "--deterministic", "--out", os.devnull],
        env=env, capture_output=True, text=True, check=True,
    )
    code, wall, kib = done.stdout.split()
    return {"exit": int(code), "wall_s": float(wall), "peak_mib": int(kib) / 1024}


def run_tier1(root: Path) -> dict:
    """Wall time of the tier-1 suite in checkout ``root``, and its last line."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    return {"exit": done.returncode, "wall_s": wall, "summary": done.stdout.strip().splitlines()[-1]}


def summary(runs: list[dict]) -> dict:
    out = {"exit": max(r["exit"] for r in runs)}
    for key in ("wall_s", "peak_mib"):
        if key in runs[0]:
            values = [r[key] for r in runs]
            out |= {key: values, f"{key}_min": min(values), f"{key}_median": statistics.median(values)}
    return out


def git_state(root: Path) -> dict:
    def git(*args):
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    dirty = git("status", "--porcelain", "--", "src")
    return {"sha": git("rev-parse", "HEAD"), "src_dirty": bool(dirty)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="bounded cases only; exit 1 over a bound")
    parser.add_argument("--against", type=Path, help="a second checkout to compare with")
    parser.add_argument("--repeat", type=int, default=1, help="runs per case and side")
    parser.add_argument("--tier1", action="store_true", help="also time the tier-1 suite")
    parser.add_argument("--write", type=Path, help="record every row in this JSON file")
    args = parser.parse_args(argv)

    cases = [c for c in CASES if not args.check or c.bound_mib is not None]
    sides = {"this": ROOT} | ({"against": args.against.resolve()} if args.against else {})

    def order(r):  # alternate who goes first
        return list(sides.items())[:: -1 if r % 2 else 1]

    def save(rows):
        if not args.write:
            return
        import numpy

        record = {
            "tool": "tools/e2e.py",
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "repeat": args.repeat,
            "sides": {side: git_state(root) for side, root in sides.items()},
            "rows": rows,
        }
        args.write.write_text(json.dumps(record, indent=1) + "\n")

    runs = {(side, c.argv): [] for side in sides for c in cases}
    for r in range(args.repeat):
        for case in cases:
            for side, root in order(r):
                run = run_case(root / "src", case.argv)
                runs[side, case.argv].append(run)
                print(f"{side:7} {case.argv}: {run['wall_s']:.3f} s, {run['peak_mib']:.1f} MiB", file=sys.stderr)

    failed = False
    rows = []
    for case in cases:
        for side in sides:
            row = {"case": case.argv, "side": side, "bound_mib": case.bound_mib}
            row |= summary(runs[side, case.argv])
            over = case.bound_mib is not None and max(row["peak_mib"]) > case.bound_mib
            failed |= side == "this" and (over or row["exit"] != 0)
            rows.append(row)
            bound = f" (bound {case.bound_mib} MiB)" if case.bound_mib else ""
            print(f"{side:7} {case.argv}: wall min {row['wall_s_min']:.3f} median "
                  f"{row['wall_s_median']:.3f} s, peak min {row['peak_mib_min']:.1f} median "
                  f"{row['peak_mib_median']:.1f} MiB{bound}{' OVER' if over else ''}")
    # the case rows are on disk before the suite runs, so that its check of
    # the bounds reads this run's peaks
    save(rows)

    if args.tier1:
        tier1 = {side: [] for side in sides}
        for r in range(args.repeat):
            for side, root in order(r):
                tier1[side].append(run_tier1(root))
        for side, done in tier1.items():
            row = {"case": "tier1", "side": side, "bound_mib": None} | summary(done)
            row["summary"] = done[-1]["summary"]
            rows.append(row)
            print(f"{side:7} tier1: wall min {row['wall_s_min']:.1f} s ({row['summary']})")
        save(rows)
    return int(args.check and failed)


if __name__ == "__main__":
    sys.exit(main())
