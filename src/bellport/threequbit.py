"""Teleportation over three-qubit channels.

The eight states |j:k:l} = (|+,k,l> + j |-,kbar,lbar>) / sqrt(2) are the
joint eigenbasis of Lambda^1 = U1 x U1 x U1, Lambda^2 = U2 x U2 x I and
Lambda^3 = U2 x I x U2.  Expanding a client against such a channel gives

    |v> (x) |j:k:l} = 1/2 sum_{p,q} |p:q:(kq)} (x) Xtilde^{jl}_{pq} |v>

so Alice's third outcome label is always kq, two sign bits (p, q)
determine Bob's correction, and each |j:k:l} is a perfect channel.  The
channel classes [j:l] are the (Lambda^1, Lambda^3) eigenspaces; within
one class the k-label is free, so the reduced measurement that still
teleports superpositions alpha_+ |j:+:l} + alpha_- |j:-:l} perfectly is
the rank-2 projection fixing (Lambda^1, Lambda^2) = (p, q), leaving the
redundant Lambda^3 unmeasured.

A trio teleport is the one teleport pass, ``protocol._teleports``, given
its mode's data (``_OUTCOMES``): one walk level of the 8-row bra, taken
one row per outcome in full mode and two in reduced mode; the qubit
4-gate table, read at the class (p, q) of each outcome row; and the
residual step, the reduced mode's factor check included.  ``teleport3``
is that pass over one channel, and ``three-qubit`` over the eight basis
channels (``_TRIO_CHANNELS``, ``_TRIO_TABLES``).
"""

from __future__ import annotations

from functools import cache, partial
from typing import NamedTuple

import numpy as np

from .algebra import u_matrix, x_operator
from .measure import _forced_row, _normalized
from .protocol import _CLASS_GATES, TeleportResult, _class_index, _teleport_one, _teleports
from .states import PureState


class Bell3Label(NamedTuple):
    j: int
    k: int
    l: int


BELL3_LABELS: tuple[Bell3Label, ...] = tuple(
    Bell3Label(j, k, l) for j in (1, -1) for k in (1, -1) for l in (1, -1)
)


def bell3_state(label: Bell3Label | tuple[int, int, int]) -> PureState:
    """|j:k:l} = (|+,k,l> + j |-,kbar,lbar>) / sqrt(2)."""
    j, k, l = label
    if any(s not in (1, -1) for s in (j, k, l)):
        raise ValueError(f"bad three-qubit Bell label {label!r}")
    amps = np.zeros(8, dtype=complex)

    def pos(*signs: int) -> int:
        return sum((0 if s == 1 else 1) << (2 - i) for i, s in enumerate(signs))

    amps[pos(1, k, l)] = 1.0
    amps[pos(-1, -k, -l)] = j
    return PureState(amps / np.sqrt(2.0))


_BELL3_BRA = np.array([bell3_state(lab).amplitudes for lab in BELL3_LABELS]).conj()


def _factored(amps: np.ndarray) -> np.ndarray:
    """Each reduced-mode residual (l-label x last site) as the recipient's
    normalised amplitudes; one left entangled raises ValueError."""
    _, s_, vh = np.linalg.svd(amps.reshape(len(amps), 2, 2))  # not -1: no row may be taken
    if (s_[:, 1] > 1e-8).any():
        raise ValueError(
            "reduced measurement left the recipient entangled; "
            "the channel is not confined to one (Lambda1, Lambda3) class"
        )
    return _normalized(vh[:, 0])


# Per mode: the outcome labels, the walk levels, each outcome row's gate row
# (its class (p, q)) and the residual step.  A full outcome is one |j:k:l};
# a reduced outcome (p, q) projects onto both of its l-labels at once.
_OUTCOMES = {
    "full": (BELL3_LABELS, [((0, 1, 2), _BELL3_BRA[:, None])], np.arange(8) // 2, _normalized),
    "reduced": (
        tuple(lab[:2] for lab in BELL3_LABELS[::2]),
        [((0, 1, 2), _BELL3_BRA.reshape(4, 2, 8))],
        np.arange(4),
        _factored,
    ),
}
# the eight basis channels |j:k:l} (the bra's rows conjugated back), and
# Bob's gate table for the class (j, l) of each: the stack three-qubit walks
_TRIO_CHANNELS = _BELL3_BRA.conj()
_TRIO_GATES = _CLASS_GATES[[_class_index((lab.j, lab.l)) for lab in BELL3_LABELS]]
_TRIO_TABLES = {mode: _TRIO_GATES[:, None, rows] for mode, (*_, rows, _) in _OUTCOMES.items()}


def lambda_operator(alpha: int) -> np.ndarray:
    """The 8x8 matrix of Lambda^alpha."""
    if alpha == 1:
        return np.kron(np.kron(u_matrix(1), u_matrix(1)), u_matrix(1))
    if alpha == 2:
        return np.kron(np.kron(u_matrix(2), u_matrix(2)), np.eye(2))
    if alpha == 3:
        return np.kron(np.kron(u_matrix(2), np.eye(2)), u_matrix(2))
    raise ValueError(f"Lambda index must be 1, 2 or 3, got {alpha}")


def y_operator(j: int, k: int, l: int, p: int, q: int, r: int) -> np.ndarray:
    """Two-site operator with |j:k:l} = (I (x) Y^{jkl}_{pqr}) |p:q:r}.

    Y^{jkl}_{pqr} = Z^k_q (x) X^{jl}_{pr} with Z the identity when the
    middle labels agree and U1 when they differ.
    """
    z = np.eye(2, dtype=complex) if k == q else u_matrix(1)
    return np.kron(z, x_operator(j, l, p, r))


def teleport3(
    client: PureState,
    channel: PureState,
    assumed: tuple[int, int],
    mode: str = "full",
    *,
    forced: tuple[int, ...] | None = None,
    rng: int | np.random.Generator | None = None,
) -> TeleportResult:
    """Teleport a qubit across a 3-qubit channel.

    ``assumed`` is the channel class (j, l), the (Lambda^1, Lambda^3)
    eigenvalue pair.  In ``full`` mode Alice measures all three Lambda
    operators on (client, channel qubit 1, channel qubit 2); the forced
    outcome is a triple (p, q, t) whose third label is constrained to
    t = kq.  In ``reduced`` mode only (Lambda^1, Lambda^2) are measured
    and forced outcomes are pairs (p, q).  Either way Bob applies
    (Xtilde^{jl}_{pq})^dagger to the last qubit.
    """
    if client.num_sites != 1 or client.local_dim != 2:
        raise ValueError("client must be a single qubit")
    if channel.num_sites != 3 or channel.local_dim != 2:
        raise ValueError("channel must be a 3-qubit state")
    if mode not in _OUTCOMES:
        raise ValueError(f"mode must be 'full' or 'reduced', got {mode!r}")
    labels, levels, gate_rows, settle = _OUTCOMES[mode]
    if hasattr(forced, "__len__") and len(forced) != len(labels[0]):
        raise ValueError(
            f"{mode}-mode forced outcome has {len(labels[0])} signs, got {forced!r}"
        )
    tables = _CLASS_GATES[_class_index(assumed), gate_rows][None, None]
    channels = channel.amplitudes[None]
    teleports = partial(_teleports, client.amplitudes[None], channels, levels, tables, settle)
    # sites 0..2 are measured jointly; the pair field records the span
    return _teleport_one(teleports, labels, (0, 2), _forced_row(labels, forced), rng)


def theta_operator(kappa: int) -> np.ndarray:
    """Theta = (I (x) I + kappa U2 (x) U2) / sqrt(2)."""
    if kappa not in (1, -1):
        raise ValueError("kappa must be +1 or -1")
    return (
        np.eye(4, dtype=complex) + kappa * np.kron(u_matrix(2), u_matrix(2))
    ) / np.sqrt(2.0)


@cache  # a constant of each sign, reported by every three-qubit run
def theta_rank(kappa: int = 1) -> tuple[int, complex]:
    """Rank and determinant of Theta; rank 2 and det 0 for either sign,
    which rules out two-qubit teleportation through this construction."""
    th = theta_operator(kappa)
    rank = int(np.linalg.matrix_rank(th, tol=1e-12))
    det = complex(np.linalg.det(th))
    return rank, det
