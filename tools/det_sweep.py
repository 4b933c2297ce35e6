"""Hash the output of a fixed list of ``bellport --deterministic`` commands.

Each command runs in-process through ``bellport.cli.main``, and the
script prints one line per command,

    <sha256>  <argv>

the hash taken over its stdout, its stderr, its exit code (or the type
and message of an exception that escaped ``main``) and the bytes of its
``--plot-out`` file.  The list covers every subcommand: every channel
kind at L = 2..14, sampled and enumerated, valid and bad ``--pairing``,
both ``fig2`` modes with ``--plot-out``, ``qudit-demo -d`` 1..8 and
``heisenberg-check -L`` 4..12, at several seeds.  A refactor that should
move no output byte is checked by running the script on both trees and
comparing the two outputs with ``diff``:

    PYTHONPATH=src python tools/det_sweep.py > after.txt
    PYTHONPATH=/path/to/other/src python tools/det_sweep.py > before.txt
    diff before.txt after.txt

The whole sweep takes a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import tempfile
from itertools import product

PLOT = "fig2.dat"  # the --plot-out name, inside a fresh directory per command


def commands() -> list[list[str]]:
    """The sweep's argv lists, without ``--deterministic``."""
    out: list[list[str]] = []
    sizes = range(2, 15, 2)
    specs = [f"bell:{','.join(['+-', '-+', '--', '++'][i % 4] for i in range(L // 2))}" for L in sizes]
    for kind, L in product(
        ["singlet-random", "mg-dimers", "heisenberg-ring", "cluster1d", "ghz", "aklt", "random"], sizes
    ):
        specs.append(f"{kind}:{L}")
    specs += ["random:6:3", "singlet-random:8:5", "random:13", "ghz:3", "nope:4", "random:4:1:2"]
    for spec in specs:
        for seed in ["0", "3", "11"]:
            out.append(["teleport", "--channel", spec, "--trials", "40", "--seed", seed])
            out.append(["order-param", "--channel", spec, "--seed", seed])
        out.append(["teleport", "--channel", spec, "--enumerate-branches", "--assumed-class", "mp"])
    for seed, classes in product(range(4), ["++", "pm", "mm", "-+", "x"]):
        out.append(["teleport", "--channel", "random:6", "--seed", str(seed), "--assumed-class", classes])
    pairings = [
        "0-1,2-3", "2-3,0-1", "0-2,1-3", "1-2,3-4", "3-4,0-1", "4-0,3-1",  # valid on 5 sites
        "0-1", "0-1,0-2", "0-1,2-9", "0-0,2-3", "0-1,2-3,4-5", "-1-2,3-4", "a-b", "0-1,2",
    ]
    for pairing, mode in product(pairings, [[], ["--enumerate-branches"], ["--trials", "25"]]):
        out.append(["teleport", "--channel", "random:4:7", "--pairing", pairing, *mode])
    out.append(["teleport", "--channel", "ghz:4", "--pairing", "0-1"])
    out.append(["teleport", "--channel", "cluster1d:8", "--pairing", "0-8,1-2,3-4,5-6", "--enumerate-branches"])
    for trials, seed, mode in product(["1", "7", "300", "1100"], ["0", "42"], [[], ["--enumerate-branches"]]):
        if mode and trials == "1100":
            continue
        out.append(["fig2", "--trials", trials, "--seed", seed, *mode, "--plot-out", PLOT])
    out.append(["fig2", "--trials", "20", "--seed", "3"])
    out.append(["fig2", "--trials", "0"])
    for d, seed in product(range(1, 9), ["0", "2", "5"]):
        out.append(["qudit-demo", "-d", str(d), "--seed", seed])
    for L, seed in product(range(4, 13), ["0", "3"]):
        out.append(["heisenberg-check", "-L", str(L), "--seed", seed, "--trials", "10"])
    for seed in range(4):
        out.append(["three-qubit", "--seed", str(seed)])
        out.append(["appendix-a", "--seed", str(seed), "--phi", str(0.2 * seed)])
    for L in range(2, 15):
        out.append(["cluster-check", "-L", str(L)])
        out.append(["aklt-check", "-L", str(L)])
    for theta in ["0", "0.4", "1.0471975511965976", "1.5", "2.5", "3.2"]:
        out.append(["bound-scan", "--theta", theta])
    out.append(["no-such-subcommand"])
    return out


def run(argv: list[str]) -> str:
    """The sha256 of one command's stdout, stderr, exit and plot file."""
    from bellport import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        args = [os.path.join(tmp, a) if a == PLOT else a for a in argv]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                status = f"exit {cli.main([*args, '--deterministic'])}"
            except SystemExit as exc:
                status = f"exit {exc.code}"
            except Exception as exc:  # a fault: keep its type and message
                status = f"raised {type(exc).__name__}: {exc}"
        plot = os.path.join(tmp, PLOT)
        data = open(plot, "rb").read() if os.path.exists(plot) else b"no plot file"
    digest = hashlib.sha256()
    for part in (stdout.getvalue().encode(), stderr.getvalue().encode(), status.encode(), data):
        digest.update(len(part).to_bytes(8, "little") + part)
    return digest.hexdigest()


def main() -> None:
    for argv in commands():
        print(f"{run(argv)}  {shlex.join(argv)}", flush=True)


if __name__ == "__main__":
    main()
