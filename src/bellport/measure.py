"""Projective measurements through one outcome-tree walker.

A Bell measurement on sites (a, b) is the simultaneous measurement of
(U1)_a (U1)_b and (U2)_a (U2)_b; the outcome (j:k) collapses the pair
exactly onto the Bell state |j:k}.  Every measurement -- a Bell pair,
the three-qubit trio in ``threequbit`` and a qudit pair in ``qudit`` --
is one contraction: the measured axes of the site tensor are contracted
with a bra of shape (outcomes, group, d^k) (4x4 Bell rows, 8 trio rows
taken one or two per outcome, d^2 qudit rows), and the residuals on the
other sites are kept for the rows the caller follows.  The cost is
O(d^n) per measurement; no projector matrix is ever built.

``_walk`` makes every measurement: a list of such levels walked down
the outcome tree over a stack of site tensors.  At each level one
batched contraction covers every live node, and the walk descends into
the rows it is told to follow -- one seeded draw per level when
sampling, the given rows when forcing (raising ImpossibleOutcomeError
at or below ZERO_PROB_ATOL), every possible row when enumerating.  Every
teleport family walks in one pass, ``protocol._teleports``: the Bell
pairs of ``teleport_branches``, ``teleport_samples``, both ``fig2``
modes and the CLI's ``teleport``, ``heisenberg-check`` and
``appendix-a``, the trio of ``teleport3`` and ``three-qubit``, and the
qudit pair of ``qudit_teleport`` and ``qudit-demo``.  A single call
(``bell_measure``, ``measure_sequence``, ``protocol.teleport``, the trio
and qudit ones) is a walk of one run, whose follow ``_run`` takes the
forced row or draws one at each level, and every record comes from
``_record``.  A forced outcome is its index in its level's labels
(``_forced_row``, which refuses any other value with one ValueError): a
Bell pair's, the trio's, a qudit pair's.  Bob's gate depends on a branch
only through the XOR of its rows (of the Bell rows; the one trio or
qudit row), so it is a row of a gate table.  A sampled outcome is the search that
``Generator.choice`` makes in the cumulative distribution, on one
uniform draw, so many sampled runs walk together exactly as each would
alone (``_Sampled``): every run picks its row on its own draw, and the
walk descends once into each distinct (node, row), so runs that share a
prefix share its nodes and no level holds more amplitudes than its
roots.  ``protocol._teleports`` walks the runs of every channel of its
stack this way, one root each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .bell import BELL_LABELS, BellClass, BellLabel, bell_state, labels_class
from .states import PureState, _as_rng

ZERO_PROB_ATOL = 1e-14

# Rows of _BELL_BRA are the conjugated Bell states in BELL_LABELS order,
# one bra per outcome, so a walk level with it is a Bell measurement.
_BELL_BRA = np.array([[bell_state(lab).amplitudes] for lab in BELL_LABELS]).conj()


class ImpossibleOutcomeError(ValueError):
    """Raised when a forced measurement outcome has probability ~ 0."""


@dataclass(frozen=True)
class MeasurementOutcome:
    pair: tuple[int, int]
    label: BellLabel
    probability: float


@dataclass(frozen=True)
class MeasurementRecord:
    """Ordered outcomes of a measurement sequence.

    ``aggregate_class`` is the pair of sign products over all outcomes;
    ``joint_probability`` is the product of the conditional outcome
    probabilities.
    """

    outcomes: tuple[MeasurementOutcome, ...]
    aggregate_class: BellClass
    joint_probability: float


def _components(
    stack: np.ndarray, axes: Sequence[int], bra: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome amplitudes of every node of ``stack`` (axis 0 lists the nodes,
    the others are its sites), shape (nodes, outcomes, group * rest), and
    their probabilities, shape (nodes, outcomes)."""
    m, group, width = bra.shape
    front = [1 + a for a in axes]
    rest = [i for i in range(1, stack.ndim) if i not in front]
    size = math.prod(stack.shape[i] for i in rest)  # not -1: a stack may be empty
    moved = stack.transpose([0, *front, *rest]).reshape(len(stack), width, size)
    comps = (bra.reshape(m * group, width) @ moved).reshape(len(stack), m, group * size)
    return comps, (abs(comps) ** 2).sum(axis=-1)


def _choose(probs: np.ndarray, u) -> np.ndarray:
    """The rows ``Generator.choice(k, p=probs / probs.sum())`` draws on the
    uniforms ``u``: a search in the cdf of each (..., k) probability row.
    Like ``choice`` it refuses NaN or negative entries, the only way
    the normalised row can fail to be finite and non-negative."""
    q = probs / probs.sum(axis=-1, keepdims=True)
    if not (q >= 0).all():
        raise ValueError(f"outcome probabilities {probs} cannot be sampled")
    cdf = q.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return (cdf <= np.asarray(u)[..., None]).sum(axis=-1)


def _run(forced: Sequence[tuple[int | None, object]], rng) -> Callable:
    """The follow of one run down the levels.  ``forced[i]`` is level i's
    (row, name) from ``_forced_row``: the row is taken, refused at or below
    ZERO_PROB_ATOL with the name in the error, or where it is None one is
    drawn from a generator built from ``rng`` once, only if some level samples."""
    gen = _as_rng(rng) if any(row is None for row, _ in forced) else None

    def follow(i: int, probs: np.ndarray) -> list[int]:
        row, name = forced[i]
        if row is None:
            return [int(_choose(probs[0], gen.random()))]
        if probs[0, row] <= ZERO_PROB_ATOL:
            raise ImpossibleOutcomeError(f"outcome {name} has probability {probs[0, row]:.3e}")
        return [row]

    return follow


def _possible(i: int, probs: np.ndarray) -> np.ndarray:
    """The follow that takes every row (flat index) of ``probs`` above
    ZERO_PROB_ATOL, in order, at any level ``i``."""
    return np.flatnonzero(probs > ZERO_PROB_ATOL)


def _check_qubits(state: PureState) -> None:
    if state.local_dim != 2:
        raise ValueError("Bell measurements act on qubit states")


def _check_pair(n: int, a: int, b: int) -> None:
    if a == b:
        raise ValueError("measurement sites must be distinct")
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"sites ({a}, {b}) out of range for {n} sites")


def outcome_distribution(state: PureState, a: int, b: int) -> dict[BellLabel, float]:
    """Probability of each Bell outcome for a measurement on (a, b)."""
    _check_qubits(state)
    _check_pair(state.num_sites, a, b)
    _, probs = _components(state.as_tensor()[None], (a, b), _BELL_BRA)
    return dict(zip(BELL_LABELS, probs[0].tolist()))


def _forced_row(
    labels: Sequence, forced, read: Callable = lambda f: f
) -> tuple[int | None, object]:
    """The row of a ``forced`` outcome, the index of ``read(forced)`` in its level's
    ``labels``, and that label, which names it in errors; (None, None) samples.
    A value that reads as none of the labels raises ValueError naming both."""
    if forced is None:
        return None, None
    try:
        label = read(forced)
        return labels.index(tuple(label)), label
    except (IndexError, TypeError, ValueError):
        names = ", ".join(map(str, map(tuple, labels)))
        raise ValueError(f"forced outcome {forced!r} is none of {names}") from None


def _walk(
    stack: np.ndarray,
    levels: Sequence[tuple[Sequence[int], np.ndarray]],
    follow: Callable[[int, np.ndarray], Sequence[int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Walk the outcome trees of ``levels`` from each root site tensor in
    ``stack`` (axis 0 lists the roots, the others are its sites, all of one
    dimension), level by level.

    Level i is (sites, bra): a measurement of those original sites with a
    bra of shape (outcomes, group, d^k); a group > 1 ends the walk.  One
    contraction covers every live node, and ``follow(i, probs)`` maps the
    (nodes, outcomes) probabilities to the (node, row) pairs to descend
    into, as flat indices node * outcomes + row in ascending node order,
    so leaves come out in depth-first order.  Returns, per leaf: the root
    index, the outcome rows and probabilities, shape (leaves, len(levels)),
    and the flat residual amplitudes over the root of the last probability.
    """
    d = stack.shape[-1]
    sites = list(range(stack.ndim - 1))  # sites[i] is the original site of axis i + 1
    steps = []  # per level: each node's parent node, outcome row and probability
    amps = stack.reshape(len(stack), d ** len(sites))
    for i, (measured, bra) in enumerate(levels):
        stack = amps.reshape(len(amps), *(d,) * len(sites))
        comps, level = _components(stack, [sites.index(s) for s in measured], bra)
        pick = np.asarray(follow(i, level), dtype=int)  # flat node * outcomes + row
        node, row = np.divmod(pick, len(bra))
        prob = level.reshape(-1)[pick]
        sites = [s for s in sites if s not in measured]
        amps = comps.reshape(-1, comps.shape[2])[pick]
        amps /= np.sqrt(prob)[:, None]
        steps.append((node, row, prob))
        del stack, comps  # no state-sized array but amps outlives its level
    # each leaf's rows and probs, read up its path once, from the last level
    rows = np.empty((len(amps), len(levels)), dtype=int)
    probs = np.empty((len(amps), len(levels)))
    at = np.arange(len(amps))  # each leaf's node at level i, then its root
    for i in reversed(range(len(levels))):
        node, row, prob = steps.pop()
        rows[:, i], probs[:, i] = row[at], prob[at]
        at = node[at]
    return at, rows, probs, amps


def _norms(amps: np.ndarray) -> np.ndarray:
    """The norm of each row of ``amps`` (rows, 1), rounded as ``np.linalg.norm``
    rounds it."""
    re, im = amps.real, amps.imag  # each dot as np.linalg.norm takes it
    return np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0]


def _normalized(amps: np.ndarray) -> np.ndarray:
    """Each row of ``amps`` over its norm, rounded as ``np.linalg.norm`` rounds it."""
    return amps / _norms(amps)


def _check_pairs(sites: int, pairs: Sequence[tuple[int, int]]) -> None:
    """Refuse ``pairs`` that overlap, leave none of ``sites`` sites
    unmeasured or fail ``_check_pair``: no state need be built to check."""
    flat = [s for pair in pairs for s in pair]
    if len(set(flat)) != len(flat):
        raise ValueError(f"measurement pairs overlap: {pairs}")
    if len(flat) > sites - 1:
        raise ValueError("measurements must leave at least one site untouched")
    for a, b in pairs:
        _check_pair(sites, a, b)


def _record(
    pairs: Sequence[tuple[int, int]],
    labels: Sequence,
    rows: Sequence[int],
    probs: Sequence[float],
    aggregate: object = None,
) -> MeasurementRecord:
    """The record of one leaf: the outcome ``rows`` of the levels that
    measure ``pairs``, as their ``labels``, with their ``probs``.  The
    aggregate class is ``aggregate`` when given (a trio's or a qudit's), and
    the Bell class of the labels otherwise."""
    outcomes = tuple(
        MeasurementOutcome(pair=(a, b), label=labels[row], probability=prob)
        for (a, b), row, prob in zip(pairs, rows, probs)
    )
    if aggregate is None:
        aggregate = labels_class([o.label for o in outcomes])
    return MeasurementRecord(outcomes, aggregate, joint_probability=float(np.prod(probs)))


def _leaves(
    state: PureState,
    pairs: Sequence[tuple[int, int]],
    follow: Callable[[int, np.ndarray], Sequence[int]],
) -> Iterator[tuple[MeasurementRecord, PureState]]:
    """Check ``pairs`` on ``state``, walk its outcome tree alone and give
    each leaf as (record, renormalised residual), in walk order."""
    _check_pairs(state.num_sites, pairs)
    _check_qubits(state)
    levels = [(pair, _BELL_BRA) for pair in pairs]
    _, rows, probs, residuals = _walk(state.as_tensor()[None], levels, follow)
    residuals = _normalized(residuals)
    return (
        (_record(pairs, BELL_LABELS, leaf_rows, leaf_probs), PureState(amps, local_dim=2))
        for leaf_rows, leaf_probs, amps in zip(rows.tolist(), probs.tolist(), residuals)
    )


@dataclass
class _Sampled:
    """The follow that samples one run per entry of ``at`` (its root) down
    the outcome tree, on the uniforms ``u`` (runs, levels).

    At each level every run picks its row with ``_choose``, and the walk
    descends once into each distinct (node, row): runs that share a prefix
    share its nodes, so no level holds more amplitudes than its roots do,
    whatever the number of runs.  After the walk ``at`` holds each run's
    leaf.
    """

    at: np.ndarray
    u: np.ndarray

    def __call__(self, i: int, probs: np.ndarray) -> np.ndarray:
        key = self.at * probs.shape[1] + _choose(probs[self.at], self.u[:, i])
        seen = np.zeros(probs.size, dtype=bool)
        seen[key] = True
        self.at = np.cumsum(seen)[key] - 1  # each key's rank among the distinct ones
        return np.flatnonzero(seen)  # sorted, so nodes stay in ascending order


def bell_measure(
    state: PureState,
    a: int,
    b: int,
    *,
    forced: BellLabel | tuple[int, int] | None = None,
    rng: int | np.random.Generator | None = None,
) -> tuple[MeasurementOutcome, PureState]:
    """Measure the pair (a, b) in the Bell basis.

    Returns the outcome and the renormalized post-measurement state on
    all sites; the measured pair factors out exactly as |j:k}.  Exactly
    one of ``forced`` (a Bell label) or ``rng`` (seed or Generator)
    selects the branch.
    """
    _check_qubits(state)
    _check_pair(state.num_sites, a, b)
    row, label = _forced_row(BELL_LABELS, forced, lambda forced: BellLabel(*forced))
    follow = _run([(row, f"{label} on sites {(a, b)}")], rng)
    _, rows, probs, (residual,) = _walk(state.as_tensor()[None], [((a, b), _BELL_BRA)], follow)
    (row,), (prob,) = rows.tolist()[0], probs.tolist()[0]
    outcome = MeasurementOutcome(pair=(a, b), label=BELL_LABELS[row], probability=prob)
    pair_tensor = bell_state(outcome.label).amplitudes.reshape(2, 2)
    post = np.multiply.outer(pair_tensor, residual).reshape((2,) * state.num_sites)
    return outcome, PureState(np.moveaxis(post, (0, 1), (a, b)).reshape(-1), local_dim=2)


def measure_sequence(
    state: PureState,
    pairs: Sequence[tuple[int, int]],
    *,
    forced: Sequence[BellLabel | tuple[int, int] | None] | None = None,
    rng: int | np.random.Generator | None = None,
) -> tuple[MeasurementRecord, PureState]:
    """Run Bell measurements over disjoint site pairs, in order.

    ``forced`` may fix the outcome of each pair (None entries are
    sampled).  Returns the record plus the residual state on the
    unmeasured sites, in their original order.
    """
    wants = [None] * len(pairs) if forced is None else forced
    if not hasattr(wants, "__len__") or len(wants) != len(pairs):
        raise ValueError("one forced label (or None) is needed per pair")
    if any(want is None for want in wants):
        rng = _as_rng(rng)  # built before the labels are read, so its errors come first
    rows = [_forced_row(BELL_LABELS, want, lambda want: BellLabel(*want)) for want in wants]
    named = [(row, f"{label} on sites {tuple(pair)}") for (row, label), pair in zip(rows, pairs)]
    (result,) = _leaves(state, pairs, _run(named, rng))
    return result


def measure_branches(
    state: PureState, pairs: Sequence[tuple[int, int]]
) -> Iterator[tuple[MeasurementRecord, PureState]]:
    """``measure_sequence`` forced onto every possible branch, yielded in
    ``product(BELL_LABELS, repeat=len(pairs))`` order (last pair fastest)."""
    return _leaves(state, pairs, _possible)
