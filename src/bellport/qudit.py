"""Qudit generalization of the Bell-measurement protocol.

For a fixed primitive d-th root of unity omega = exp(2 pi i / d), the
permutation and phase matrices P |l> = |l+1 mod d>, Q |l> = omega^l |l>
generate the Weyl-Heisenberg group; R^{kj} = P^k Q^j.  The d^2 states

    |j:k} = (I (x) R^{kj}) |0:0} = d^{-1/2} sum_l omega^{jl} |l> (x) |l+k>

form an orthonormal basis, and the teleport identity

    |v> (x) |j:k} = 1/d sum_{p,q} |p:q} (x) Xtilde^{jk}_{pq} |v>

holds with Xtilde^{jk}_{pq} = R^{kj} R^{q,-p}.  Channels on L qudits
split into d^2 perfect-channel classes of dimension d^{L-2}, the joint
eigenspaces of P^(xL) and the alternating product Q (x) Q^dag (x) Q ...
(the conjugation pattern makes the two commute; for d = 2 it collapses
to the qubit Upsilon operators).

Teleporting a qudit measures one pair with the d^2-row bra of the |j:k}:
one call to the teleport pass of every family, ``protocol._teleports``,
with one walk level of that bra.  Bob's gates (Xtilde^{jk}_{pq})^dagger
are a C-ordered d^2-row table per (d, assumed label), read at the outcome
row p d + q; the residuals stay as the walk divides them (``_walked``).
The bra is kept for four dimensions at a time; the gate tables are filled
in place by ``_label_stack`` for each call and not kept.  ``qudit_teleport``
is that pass over one channel following one run (``measure._run``),
``qudit_bell_measure`` one level of such a run, and ``qudit-demo`` the pass
over the stack of its four labels.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .measure import MeasurementOutcome, _check_pair, _forced_row, _run, _walk
from .protocol import TeleportResult, _teleport_one, _teleports
from .states import PureState, apply_local


def omega_root(d: int) -> complex:
    return np.exp(2j * np.pi / d)


def permutation_matrix(d: int) -> np.ndarray:
    """P with P|l> = |l+1 mod d>."""
    if d < 2:
        raise ValueError("qudit dimension must be >= 2")
    m = np.zeros((d, d), dtype=complex)
    for l in range(d):
        m[(l + 1) % d, l] = 1.0
    return m


def phase_matrix(d: int) -> np.ndarray:
    """Q with Q|l> = omega^l |l>."""
    if d < 2:
        raise ValueError("qudit dimension must be >= 2")
    return np.diag(omega_root(d) ** np.arange(d))


def generalized_pauli(d: int, k: int, j: int) -> np.ndarray:
    """R^{kj} = P^k Q^j (indices mod d)."""
    return np.linalg.matrix_power(permutation_matrix(d), k % d) @ np.linalg.matrix_power(
        phase_matrix(d), j % d
    )


def qudit_bell(d: int, j: int, k: int) -> PureState:
    """|j:k} = d^{-1/2} sum_l omega^{jl} |l> (x) |l+k>."""
    j, k = j % d, k % d
    amps = np.zeros(d * d, dtype=complex)
    w = omega_root(d)
    for l in range(d):
        amps[l * d + (l + k) % d] = w ** (j * l)
    return PureState(amps / np.sqrt(d), local_dim=d)


def qudit_x_tilde(d: int, j: int, k: int, p: int, q: int) -> np.ndarray:
    """Xtilde^{jk}_{pq} = R^{kj} R^{q,-p}; the recipient-side operator."""
    return generalized_pauli(d, k, j) @ generalized_pauli(d, q, -p)


@lru_cache(maxsize=4)  # 32 d^3 B each
def _weyl_powers(d: int) -> tuple[np.ndarray, np.ndarray]:
    """P^n and Q^n for n < d, each as ``np.linalg.matrix_power`` forms it,
    shape (d, d, d) each (read-only)."""
    powers = []
    for m in (permutation_matrix(d), phase_matrix(d)):
        powers.append(np.array([np.linalg.matrix_power(m, n) for n in range(d)]))
        powers[-1].flags.writeable = False
    return tuple(powers)


def _fill_gates(tables: np.ndarray, d: int, labels: Sequence[tuple[int, int]]) -> np.ndarray:
    """Fill each C-ordered table of ``tables`` (labels, d^2, d, d) with Bob's
    gates (Xtilde^{jk}_{pq})^dagger for its label (j, k) and every outcome,
    row p d + q, each the product ``qudit_x_tilde`` forms, so the entries
    are the same; C-ordered, so that no gate product depends on a view's
    layout."""
    shift, phase = _weyl_powers(d)
    tail = shift[None] @ phase[-np.arange(d) % d][:, None]  # R^{q,-p}
    for (j, k), table in zip(labels, tables):
        gates = (shift[k % d] @ phase[j % d]) @ tail  # generalized_pauli(d, k, j) @ tail
        np.conjugate(gates.swapaxes(-1, -2), out=table.reshape(d, d, d, d))
    return tables


@lru_cache(maxsize=4)  # 16 d^4 B each, as much as one gate table; 16 MiB at d = 32
def _bell_bra(d: int) -> np.ndarray:
    """Conjugated |j:k} rows in (j, k) order, one bra per outcome (read-only)."""
    rows = [[qudit_bell(d, j, k).amplitudes] for j in range(d) for k in range(d)]
    bra = np.array(rows).conj()
    bra.flags.writeable = False
    return bra


def _outcomes(d: int) -> tuple[tuple[tuple[int, int], ...], Callable]:
    """The outcome (p, q) of each row p d + q of the Bell bra, and the read
    of a forced outcome for ``_forced_row``: each symbol mod d."""
    return tuple(divmod(row, d) for row in range(d * d)), lambda f: (f[0] % d, f[1] % d)


def qudit_bell_measure(
    state: PureState,
    a: int,
    b: int,
    *,
    forced: tuple[int, int] | None = None,
    rng: int | np.random.Generator | None = None,
) -> tuple[MeasurementOutcome, PureState]:
    """Generalized Bell measurement on the qudit pair (a, b).

    Returns the outcome (labels mod d) and the residual state on the
    remaining sites; the measured pair is dropped since it collapses
    exactly onto |j:k}.
    """
    d = state.local_dim
    n = state.num_sites
    _check_pair(n, a, b)
    if n < 3:
        raise ValueError("measurement must leave at least one site")
    labels, read = _outcomes(d)
    follow = _run([_forced_row(labels, forced, read)], rng)
    _, rows, probs, (residual,) = _walk(state.as_tensor()[None], [((a, b), _bell_bra(d))], follow)
    (row,), (prob,) = rows.tolist()[0], probs.tolist()[0]
    outcome = MeasurementOutcome(pair=(a, b), label=labels[row], probability=prob)
    return outcome, PureState(residual, local_dim=d)


def _walked(amps: np.ndarray) -> np.ndarray:
    """The residuals as the walk divides them, as ``qudit_bell_measure``'s are."""
    return amps


def _label_stack(d: int, labels: Sequence[tuple[int, int]]) -> tuple:
    """The channels |j:k} of ``labels`` (the Bell bra's rows conjugated back),
    shape (labels, d^2), with the levels, Bob's gate table for each, shape
    (labels, 1, d^2, d, d), and the residual step, as ``_teleports`` takes them."""
    channels = _bell_bra(d)[[j % d * d + k % d for j, k in labels], 0].conj()
    tables = np.empty((len(labels), 1, d * d, d, d), dtype=complex)
    _fill_gates(tables[:, 0], d, labels)  # each held once, not cached
    return channels, [((0, 1), _bell_bra(d))], tables, _walked


def qudit_teleport(
    client: PureState,
    channel: PureState | tuple[int, int],
    assumed: tuple[int, int] | None = None,
    *,
    forced: tuple[int, int] | None = None,
    rng: int | np.random.Generator | None = None,
) -> TeleportResult:
    """Teleport one qudit across a two-qudit channel.

    ``channel`` is either a 2-site state or a label pair (j, k), in
    which case the generalized Bell state of the client dimension is
    built.  ``assumed`` defaults to the channel label
    when one is given.  Alice sends the two mod-d symbols (p, q) -- the
    qudit analogue of two classical bits -- and Bob applies
    (Xtilde^{jk}_{pq})^dagger.
    """
    if client.num_sites != 1:
        raise ValueError("client must be a single qudit")
    dim = client.local_dim
    if isinstance(channel, tuple):
        chan_state = qudit_bell(dim, *channel)
        if assumed is None:
            assumed = (channel[0] % dim, channel[1] % dim)
    else:
        chan_state = channel
    if chan_state.local_dim != dim or chan_state.num_sites != 2:
        raise ValueError("channel must be a two-qudit state of the client dimension")
    if assumed is None:
        raise ValueError("assumed channel label is required for a state channel")
    _, levels, tables, settle = _label_stack(dim, [assumed])
    channels = chan_state.amplitudes[None]
    teleports = partial(_teleports, client.amplitudes[None], channels, levels, tables, settle)
    labels, read = _outcomes(dim)
    return _teleport_one(teleports, labels, (0, 1), _forced_row(labels, forced, read), rng)


# ---------------------------------------------------------------------------
# class decomposition


def apply_qudit_upsilon(state: PureState, alpha: int) -> PureState:
    """Site-wise class operators: alpha=1 applies P everywhere, alpha=2
    applies Q on even sites and Q^dagger on odd sites."""
    d = state.local_dim
    if alpha == 1:
        ops = [permutation_matrix(d)] * state.num_sites
    elif alpha == 2:
        q = phase_matrix(d)
        ops = [q if s % 2 == 0 else q.conj().T for s in range(state.num_sites)]
    else:
        raise ValueError("alpha must be 1 or 2")
    out = state
    for site, op in enumerate(ops):
        out = apply_local(out, op, site)
    return out


def qudit_class_projector_apply(state: PureState, J: int, K: int) -> PureState:
    """Project onto the class whose generalized Bell products have label
    sums (sum j_i, sum k_i) = (J, K) mod d.  Possibly unnormalized."""
    d = state.local_dim
    if state.num_sites % 2 != 0:
        raise ValueError("qudit classes need an even number of sites")
    w = omega_root(d)
    acc = np.zeros_like(state.amplitudes)
    pow_a = state
    for a in range(d):
        pow_ab = pow_a
        for b in range(d):
            acc = acc + (w ** (a * J + b * K)) * pow_ab.amplitudes
            pow_ab = apply_qudit_upsilon(pow_ab, 2)
        pow_a = apply_qudit_upsilon(pow_a, 1)
    return PureState(acc / (d * d), local_dim=d, normalized=False)


def qudit_decompose(state: PureState) -> dict[tuple[int, int], float]:
    """Class weights |c_(J,K)| over the d^2 classes; squares sum to 1."""
    d = state.local_dim
    return {
        (J, K): qudit_class_projector_apply(state, J, K).norm()
        for J in range(d)
        for K in range(d)
    }
