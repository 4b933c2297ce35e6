"""Projective measurements through one collapse kernel.

A Bell measurement on sites (a, b) is the simultaneous measurement of
(U1)_a (U1)_b and (U2)_a (U2)_b; the outcome (j:k) collapses the pair
exactly onto the Bell state |j:k}.  Every measurement in the package --
Bell pairs here, the three-qubit trio in ``threequbit`` and qudit pairs
in ``qudit`` -- is one call of ``collapse``: the measured axes of the
site tensor are contracted with a bra of shape (outcomes, group, d^k)
(4x4 Bell rows, 8 trio rows taken one or two per outcome, d^2 qudit
rows), one outcome is forced or sampled, and the renormalised residual
on the other sites is returned.  The cost is O(d^n) per measurement;
no projector matrix is ever built.

Outcomes can be sampled (seeded, reproducible) or forced, which lets
tests enumerate every branch of a protocol deterministically.  Forcing
a branch whose probability is below ZERO_PROB_ATOL raises
ImpossibleOutcomeError: that branch cannot physically occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .bell import BELL_LABELS, BellClass, BellLabel, bell_state
from .states import PureState, _as_rng

ZERO_PROB_ATOL = 1e-14

# Rows of _BELL_BRA are the conjugated Bell states in BELL_LABELS order,
# one bra per outcome, so collapse() onto it is a Bell measurement.
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


def bell_branches(n_pairs: int) -> Iterator[tuple[BellLabel, ...]]:
    """Every outcome tuple of ``n_pairs`` Bell measurements, last pair fastest."""
    return product(BELL_LABELS, repeat=n_pairs)


def _components(t: np.ndarray, axes: Sequence[int], bra: np.ndarray) -> np.ndarray:
    """Outcome amplitudes of the measured axes: shape (outcomes, group * rest)."""
    m, group, width = bra.shape
    moved = np.moveaxis(t, axes, range(len(axes))).reshape(width, -1)
    return (bra.reshape(m * group, width) @ moved).reshape(m, -1)


def collapse(
    t: np.ndarray,
    axes: Sequence[int],
    bra: np.ndarray,
    *,
    row: int | None = None,
    rng: int | np.random.Generator | None = None,
    label: object = None,
) -> tuple[int, float, np.ndarray]:
    """One projective measurement of the ``axes`` of the site tensor ``t``.

    ``bra`` has shape (outcomes, group, d^k): outcome i projects onto the
    span of the ``group`` states whose conjugates are ``bra[i]``.  The
    outcome is ``row`` when given (``label`` names it in the error) and
    is drawn from ``rng`` otherwise.  Returns the outcome row, its
    probability and the renormalised residual of shape (group, *rest),
    the unmeasured axes keeping their order.
    """
    comps = _components(t, axes, bra)
    probs = np.sum(np.abs(comps) ** 2, axis=1)
    if row is not None:
        if probs[row] <= ZERO_PROB_ATOL:
            raise ImpossibleOutcomeError(
                f"outcome {label} has probability {probs[row]:.3e}"
            )
    else:
        row = int(_as_rng(rng).choice(len(probs), p=probs / probs.sum()))
    prob = float(probs[row])
    rest = [n for i, n in enumerate(t.shape) if i not in axes]
    return row, prob, (comps[row] / np.sqrt(prob)).reshape(bra.shape[1], *rest)


def _check_pair(state: PureState, a: int, b: int) -> None:
    n = state.num_sites
    if state.local_dim != 2:
        raise ValueError("Bell measurements act on qubit states")
    if a == b:
        raise ValueError("measurement sites must be distinct")
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"sites ({a}, {b}) out of range for {n} sites")


def outcome_distribution(state: PureState, a: int, b: int) -> dict[BellLabel, float]:
    """Probability of each Bell outcome for a measurement on (a, b)."""
    _check_pair(state, a, b)
    comps = _components(state.as_tensor(), (a, b), _BELL_BRA)
    probs = np.sum(np.abs(comps) ** 2, axis=1)
    return {lab: float(p) for lab, p in zip(BELL_LABELS, probs)}


def _collapse_pair(
    t: np.ndarray,
    axes: tuple[int, int],
    pair: tuple[int, int],
    forced: BellLabel | tuple[int, int] | None,
    rng: int | np.random.Generator | None,
) -> tuple[MeasurementOutcome, np.ndarray]:
    """Bell-measure two axes of ``t``; the residual drops them."""
    row = label = None
    if forced is not None:
        forced = BellLabel(*forced)
        row, label = BELL_LABELS.index(forced), f"{forced} on sites {pair}"
    row, prob, residual = collapse(t, axes, _BELL_BRA, row=row, rng=rng, label=label)
    outcome = MeasurementOutcome(pair=pair, label=BELL_LABELS[row], probability=prob)
    return outcome, residual[0]


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
    _check_pair(state, a, b)
    outcome, residual = _collapse_pair(state.as_tensor(), (a, b), (a, b), forced, rng)
    pair_tensor = bell_state(outcome.label).amplitudes.reshape(2, 2)
    post = np.moveaxis(np.multiply.outer(pair_tensor, residual), (0, 1), (a, b))
    return outcome, PureState(post.reshape(-1), local_dim=2)


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
    n = state.num_sites
    flat = [s for pair in pairs for s in pair]
    if len(set(flat)) != len(flat):
        raise ValueError(f"measurement pairs overlap: {pairs}")
    if len(flat) > n - 1:
        raise ValueError("measurements must leave at least one site untouched")
    if forced is not None and len(forced) != len(pairs):
        raise ValueError("one forced label (or None) is needed per pair")
    gen = _as_rng(rng)

    outcomes: list[MeasurementOutcome] = []
    t = state.as_tensor()
    sites = list(range(n))  # original site of each remaining axis
    for i, (a, b) in enumerate(pairs):
        _check_pair(state, a, b)
        want = forced[i] if forced is not None else None
        axes = (sites.index(a), sites.index(b))
        outcome, t = _collapse_pair(t, axes, (a, b), want, gen)
        sites.remove(a)
        sites.remove(b)
        outcomes.append(outcome)

    agg = BellClass(
        int(np.prod([o.label.j for o in outcomes])),
        int(np.prod([o.label.k for o in outcomes])),
    )
    joint = float(np.prod([o.probability for o in outcomes]))
    record = MeasurementRecord(
        outcomes=tuple(outcomes), aggregate_class=agg, joint_probability=joint
    )
    amps = t.reshape(-1)
    return record, PureState(amps / np.linalg.norm(amps), local_dim=2)
