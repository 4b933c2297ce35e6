"""The four benchmark workloads: job streams generated from a seed.

Every workload is an endless stream of jobs, produced cycle by cycle.
Cycle ``c`` draws its random inputs from ``default_rng([seed, c])``; the
job *types* and their order are fixed, so every seed runs the same mix of
sizes and only channel seeds, client seeds and assumed classes change.
A job is either a CLI invocation (``argv``, run in-process through
``bellport.cli.main`` with ``--out`` and ``--deterministic`` appended) or,
for ``classify``, a library call on states built during set-up.  Each job
carries its number of work units and a check of its output; a check
returns an error message or None.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

TOL = 1e-10
CLASSES = ("++", "+-", "-+", "--")


@dataclass
class Job:
    key: str
    units: int
    # Jobs of one group do the same work on different random inputs.
    group: str
    argv: list[str] | None = None
    call: Callable | None = None
    # CLI jobs: check(csv_text); library jobs: check(call result).
    check: Callable | None = None


def _seed(rng) -> str:
    return str(int(rng.integers(2**31)))


def cli_job(rng, template: str, units: int, check: Callable | None = None, group: str | None = None) -> Job:
    """CLI job from an argv template; each ``{}`` gets a fresh seed."""
    argv = template.format(*(_seed(rng) for _ in range(template.count("{}")))).split()
    group = group or template.replace("{}", "s")
    return Job(" ".join(argv), units, group, argv=argv, check=check)


def _csv_rows(text: str) -> list[dict]:
    body = "".join(line for line in io.StringIO(text) if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _sign_pair(text: str) -> tuple[int, int]:
    return tuple(1 if c in "+p" else -1 for c in text)


# ---------------------------------------------------------------------------
# scatter: the fig2 experiment, sampled, 50 trials per job


def scatter_cycle(rng, c: int) -> list[Job]:
    return [cli_job(rng, "fig2 --trials 50 --seed {}", 50)]


# ---------------------------------------------------------------------------
# branches: every subcommand that forces all outcome branches

BRANCH_KINDS = ("singlet-random", "random", "aklt", "cluster1d", "mg-dimers", "ghz", "bell")
BRANCH_SIZES = (6, 8, 10)
# Forced branches each fixed-size subcommand attempts: three-qubit forces
# 4 full + 4 reduced outcomes on each of the 8 trio channels; qudit-demo
# forces d^2 outcomes on 4 distinct channel labels; appendix-a forces the
# 16 outcomes of two pairs.
QUDIT_BRANCHES = {3: 4 * 9, 4: 4 * 16, 5: 4 * 25}
THREE_QUBIT_BRANCHES = 8 * 8
APPENDIX_A_BRANCHES = 16


def pure_class(kind: str, L: int, labels: list[str] | None = None) -> tuple[int, int] | None:
    """Bell class a channel lies in by construction, or None if it straddles."""
    if kind in ("singlet-random", "mg-dimers", "aklt"):
        s = (-1) ** (L // 2)
        return (s, s)
    if kind == "ghz":
        return (1, 1)
    if kind == "bell":
        j = k = 1
        for lab in labels:
            pj, pk = _sign_pair(lab)
            j, k = j * pj, k * pk
        return (j, k)
    return None


def _enumerate_check(expected: tuple[int, int] | None, assumed: tuple[int, int]):
    def check(text: str) -> str | None:
        rows = _csv_rows(text)
        total = sum(float(r["joint_probability"]) for r in rows)
        if abs(total - 1.0) > TOL:
            return f"branch probabilities sum to {total!r}"
        if expected == assumed:
            worst = min(float(r["fidelity"]) for r in rows)
            if worst < 1.0 - TOL:
                return f"pure-class channel teleported at fidelity {worst!r}"
        return None

    return check


def _teleport_job(rng, kind: str, L: int) -> Job:
    labels = None
    if kind == "bell":
        labels = [CLASSES[i] for i in rng.integers(4, size=L // 2)]
        spec = "bell:" + ",".join(labels)
    elif kind in ("singlet-random", "random"):
        spec = f"{kind}:{L}:{{}}"
    else:
        spec = f"{kind}:{L}"
    assumed = CLASSES[int(rng.integers(4))]
    flag = assumed.replace("+", "p").replace("-", "m")
    check = _enumerate_check(pure_class(kind, L, labels), _sign_pair(assumed))
    template = f"teleport --channel {spec} --assumed-class {flag} --enumerate-branches --seed {{}}"
    return cli_job(rng, template, 2**L, check, group=f"teleport --enumerate-branches {kind}:{L}")


def branches_cycle(rng, c: int) -> list[Job]:
    # Channel size rotates with a period of 3 cycles, so every
    # (kind, size) pair recurs; the cheap fixed-size subcommands sit
    # between the teleports.
    tp = [
        _teleport_job(rng, kind, BRANCH_SIZES[(7 * c + i) % 3])
        for i, kind in enumerate(BRANCH_KINDS)
    ]
    fixed = [
        cli_job(rng, "three-qubit --seed {}", THREE_QUBIT_BRANCHES),
        cli_job(rng, "qudit-demo -d 3 --seed {}", QUDIT_BRANCHES[3]),
        cli_job(rng, "qudit-demo -d 4 --seed {}", QUDIT_BRANCHES[4]),
        cli_job(rng, "qudit-demo -d 5 --seed {}", QUDIT_BRANCHES[5]),
        cli_job(rng, "appendix-a --seed {}", APPENDIX_A_BRANCHES),
    ]
    return [tp[0], tp[1], fixed[0], tp[2], fixed[1], tp[3], fixed[2], tp[4], fixed[3], tp[5], fixed[4], tp[6]]


# ---------------------------------------------------------------------------
# channels: physical-channel jobs at default trials, one unit per job


CHANNEL_JOBS = (
    "order-param --channel heisenberg-ring:8",
    "order-param --channel singlet-random:10:{}",
    "heisenberg-check -L 10 --seed {}",
    "order-param --channel aklt:12",
    "order-param --channel cluster1d:12",
    "teleport --channel singlet-random:12:{} --trials 20 --seed {}",
    "order-param --channel heisenberg-ring:10",
    "order-param --channel ghz:12",
    "aklt-check -L 12",
    "order-param --channel singlet-random:12:{}",
    "heisenberg-check -L 8 --seed {}",
    "order-param --channel random:12:{}",
    "cluster-check -L 12",
)


def channels_cycle(rng, c: int) -> list[Job]:
    return [cli_job(rng, template, 1) for template in CHANNEL_JOBS]


# ---------------------------------------------------------------------------
# classify: library analyses of channels built during set-up

CLASSIFY_KINDS = ("random", "singlet-random", "aklt", "cluster1d", "ghz")
CLASSIFY_SIZES = (8, 10, 12)
QUDIT_DIMS = (3, 4, 5)
PERFECT_KINDS = ("singlet-random", "aklt", "ghz")


def classify_inputs(bp, seed: int) -> list[tuple[str, object]]:
    """Build every classify input; this is the workload's set-up cost."""
    rng = np.random.default_rng([seed, 2**32 - 1])
    qubit = []
    for L in CLASSIFY_SIZES:
        for kind in CLASSIFY_KINDS:
            spec = bp.ChannelSpec(kind=kind, qubits=L, seed=int(rng.integers(2**31)))
            qubit.append((f"{kind}:{L}", bp.build(spec)))
    qudit = [(f"qudit-d{d}", bp.random_state(4, d, rng)) for d in QUDIT_DIMS]
    # one qudit input after every five qubit channels
    return qubit[:5] + qudit[:1] + qubit[5:10] + qudit[1:2] + qubit[10:] + qudit[2:]


def _analyse_qubit(bp, state):
    return (
        bp.decompose_classes(state),
        bp.order_parameter(state),
        bp.string_order(state),
    )


def _qubit_check(kind: str):
    def check(result) -> str | None:
        dec, op, s_order = result
        total = sum(c * c for c in dec.coefficients.values())
        if abs(total - 1.0) > TOL:
            return f"squared class weights sum to {total!r}"
        if kind in PERFECT_KINDS and abs(op.efficiency - 1.0) > TOL:
            return f"efficiency {op.efficiency!r} on a perfect channel"
        if kind == "aklt" and abs(s_order + 1.0) > TOL:
            return f"AKLT string order {s_order!r}"
        return None

    return check


def _qudit_check(weights) -> str | None:
    total = sum(w * w for w in weights.values())
    if abs(total - 1.0) > TOL:
        return f"squared qudit class weights sum to {total!r}"
    return None


def classify_jobs(inputs) -> list[Job]:
    jobs = []
    for name, state in inputs:
        if name.startswith("qudit"):
            call = lambda bp, st=state: bp.qudit_decompose(st)  # noqa: E731
            jobs.append(Job(name, 1, name, call=call, check=_qudit_check))
        else:
            call = lambda bp, st=state: _analyse_qubit(bp, st)  # noqa: E731
            jobs.append(Job(name, 1, name, call=call, check=_qubit_check(name.split(":")[0])))
    return jobs


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    why: str
    # (bp, seed) -> (cycle, warm-up jobs); cycle(rng, c) lists cycle c's jobs.
    prepare: Callable
    # Cycles the traced run measures, once untraced and once traced.
    trace_cycles: int
    # Cycles after which the mix of job groups repeats.
    period: int = 1

    def group_weights(self, cycle: Callable) -> Counter:
        """Jobs per group in one period; the same for every seed."""
        rng = np.random.default_rng(0)
        return Counter(job.group for c in range(self.period) for job in cycle(rng, c))

    def jobs(self, cycle: Callable, seed: int):
        """Endless (cycle index, job) stream for one seed."""
        c = 0
        while True:
            for job in cycle(np.random.default_rng([seed, c]), c):
                yield c, job
            c += 1


def _static(cycle, *warmup):
    rng = np.random.default_rng(0)
    return lambda bp, seed: (cycle, [cli_job(rng, template, 1) for template in warmup])


def _prepare_classify(bp, seed):
    jobs = classify_jobs(classify_inputs(bp, seed))
    warm = [jobs[0], next(j for j in jobs if j.key.startswith("qudit"))]
    return (lambda rng, c: jobs), warm


WORKLOADS = {
    "scatter": Workload(
        "scatter",
        "fig2 scatter, sampled; tiny 5-qubit states keep it overhead-bound in protocol, measure and states",
        _static(scatter_cycle, "fig2 --trials 2"),
        trace_cycles=10,
    ),
    "branches": Workload(
        "branches",
        "forces every outcome branch (teleport, three-qubit, qudit-demo, appendix-a); impossible branches show as waste",
        _static(
            branches_cycle,
            "teleport --channel bell:+-,-+ --enumerate-branches",
            "three-qubit",
            "qudit-demo -d 3",
            "appendix-a",
        ),
        trace_cycles=3,
        period=3,
    ),
    "channels": Workload(
        "channels",
        "physical-channel subcommands at default trials, where the builders (Heisenberg eigh, singlet sums) dominate",
        _static(
            channels_cycle,
            "order-param --channel heisenberg-ring:6",
            "heisenberg-check -L 8",
            "aklt-check -L 4",
            "cluster-check -L 4",
        ),
        trace_cycles=1,
    ),
    "classify": Workload(
        "classify",
        "Bell-class and qudit analyses of channels built at set-up, with no measurement, so the analysis layer shows",
        _prepare_classify,
        trace_cycles=3,
    ),
}
