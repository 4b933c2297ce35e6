"""End-to-end teleportation over 2L-qubit channels.

Every teleport of every family but the single ``teleport`` call (one
``measure_sequence``) is one pass, ``_teleports``, given the family's
walk levels, gate tables and residual step as data; the qubit gates are
the rows of one table, ``_CLASS_GATES``.  Includes the correction gate,
the teleportation-order parameter and efficiency, the closed-form
two-qubit fidelity, the coherent-error lower-bound scan, and the
scatter experiment relating fidelity to the order parameter.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .algebra import nu_parity, u_matrix, x_tilde_operator
from .bell import (
    BELL_CLASSES,
    BELL_LABELS,
    BellClass,
    BellLabel,
    _class_component,
    _expectations,
    bell_state,
    format_sign_pair,
    upsilon_expectations,
)
from .measure import (
    _BELL_BRA,
    ZERO_PROB_ATOL,
    ImpossibleOutcomeError,
    MeasurementRecord,
    _Sampled,
    _check_pairs,
    _normalized,
    _norms,
    _possible,
    _record,
    _run,
    _walk,
    measure_sequence,
)
from .states import PureState, _as_rng, _wrap, inner_product, tensor

FIG2_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class TeleportResult:
    record: MeasurementRecord
    correction: np.ndarray
    recipient_state: PureState
    fidelity: float


def correction_gate(
    channel_class: BellClass | tuple[int, int],
    measurement_class: BellClass | tuple[int, int],
) -> np.ndarray:
    """Bob's local gate: (Xtilde^{jk}_{pq})^dagger for channel class [j:k]
    and aggregate measurement class [p:q].  Unitary with entries 0, +-1."""
    j, k = channel_class
    p, q = measurement_class
    return x_tilde_operator(j, k, p, q).conj().T


def default_pairing(total_sites: int) -> tuple[tuple[int, int], ...]:
    """(0,1), (2,3), ... leaving the last site as the recipient."""
    if total_sites < 3 or total_sites % 2 == 0:
        raise ValueError("need an odd total site count: client + even channel")
    return tuple((i, i + 1) for i in range(0, total_sites - 1, 2))


def _check_root(client: PureState, channel: PureState) -> int:
    """The site count of ``client`` (x) ``channel``, refused unless they are
    one qubit and an even number of them, as ``tensor`` refuses them."""
    if client.num_sites != 1 or client.local_dim != 2:
        raise ValueError("client must be a single qubit")
    if channel.num_sites % 2 != 0:
        raise ValueError("channel must have an even number of qubits")
    if channel.local_dim != 2:
        raise ValueError(f"local dimensions differ: 2 vs {channel.local_dim}")
    return 1 + channel.num_sites


def _check_pairing(
    sites: int, pairing: Sequence[tuple[int, int]] | None
) -> Sequence[tuple[int, int]]:
    """``pairing``, or with None the default one, of a teleport from
    ``sites`` qubits; refused unless it measures all of them but the
    recipient and ``_check_pairs`` accepts it."""
    if pairing is None:
        return default_pairing(sites)
    if sum(map(len, pairing)) != sites - 1:
        raise ValueError("pairing must cover all sites except the recipient")
    _check_pairs(sites, pairing)
    return pairing


def _class_index(assumed_class: BellClass | tuple[int, int]) -> int:
    """The index of ``assumed_class`` in BELL_CLASSES, its signs refused as
    ``correction_gate`` refuses them."""
    j, k = assumed_class
    return 2 * nu_parity(j) + nu_parity(k)


# Bob's gates [assumed, measured], both classes in BELL_CLASSES order; the
# measured class of a branch is the XOR of its outcome rows
_CLASS_GATES = np.array([[correction_gate(a, m) for m in BELL_CLASSES] for a in BELL_CLASSES])


def teleport(
    client: PureState,
    channel: PureState,
    assumed_class: BellClass | tuple[int, int],
    pairing: Sequence[tuple[int, int]] | None = None,
    *,
    forced: Sequence[BellLabel | tuple[int, int] | None] | None = None,
    rng: int | np.random.Generator | None = None,
) -> TeleportResult:
    """Teleport a single-qubit client across a 2L-qubit channel.

    The client occupies site 0 of the combined system; ``pairing`` lists
    the measured pairs (defaults to consecutive pairs with the last site
    as recipient) and must leave exactly one site unmeasured.
    ``assumed_class`` is Bob's prior knowledge of the channel class; no
    auto-detection happens here.  Bob's gate is the row of ``_CLASS_GATES``
    at the assumed and the measured class, applied and scored by
    ``_corrected`` as in ``_teleports``.
    """
    pairing = _check_pairing(_check_root(client, channel), pairing)
    record, residual = measure_sequence(tensor(client, channel), pairing, forced=forced, rng=rng)
    gates = _CLASS_GATES[_class_index(assumed_class), [_class_index(record.aggregate_class)]]
    (recipient,), (fidelity,) = _corrected(client.amplitudes, gates, residual.amplitudes[None])
    return TeleportResult(record, gates[0], _wrap(recipient, 2), float(fidelity))


class _Branches(NamedTuple):
    """The branches of a ``_teleports`` pass as arrays: ``rows`` and ``probs``
    per leaf of its walk, shape (leaves, levels), the rest per teleport."""

    rows: np.ndarray  # each leaf's outcome rows, one per level
    probs: np.ndarray  # their conditional probabilities
    gates: np.ndarray  # each teleport's gate for Bob
    recipients: np.ndarray  # the recipient's amplitudes after it
    fidelities: np.ndarray  # with the client


def _corrected(
    client: np.ndarray, gates: np.ndarray, residuals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bob's ``gates`` on the one-site ``residuals``: the recipients (rows,
    dim) and each one's fidelity with the ``client`` amplitudes (one row,
    or one per residual), rounded as ``overlap_fidelity`` rounds it."""
    recipients = gates @ residuals[:, :, None]
    overlaps = np.broadcast_to(client, residuals.shape).conj()[:, None, :] @ recipients
    # libm's hypot and pow, which abs(z) ** 2 calls on a Python complex z;
    # numpy's complex abs and ** 2 can differ from them in the last bit
    return recipients[:, :, 0], np.float_power(np.hypot(overlaps.real, overlaps.imag), 2.0).ravel()


def _teleports(
    clients: np.ndarray,
    channels: np.ndarray,
    levels: Sequence[tuple[Sequence[int], np.ndarray]],
    tables: np.ndarray,
    settle: Callable[[np.ndarray], np.ndarray],
    follow: Callable[[int, np.ndarray], Sequence[int]] = _possible,
    draws: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, _Branches]:
    """The teleports of every root and assumed class, as one walk.

    Root i is the client ``clients[i]`` (or the one client) times the
    channel ``channels[i]``, measured in the ``levels`` of ``_walk``, which
    leave one recipient site; ``settle`` maps the walk's residuals to the
    recipients'.  Bob's gates are ``tables`` (roots or 1, classes, gate
    rows, d, d), read at the XOR of a leaf's outcome rows.  The walk takes
    the rows ``follow`` gives, and each leaf is one teleport per class, in
    (root, class, leaf) order.  With ``draws`` (roots, uniforms) it takes
    instead the runs each root's row gives, one uniform per level,
    class-major as successive single calls draw them.  No class gives no
    teleport, only the rows and probs of every leaf.  Returns the root,
    leaf and class index of each teleport, and the branches.
    """
    d = clients.shape[-1]
    sites = 1 + sum(len(measured) for measured, _ in levels)
    stack = (clients[:, :, None] * channels[:, None, :]).reshape(len(channels), *(d,) * sites)
    if draws is not None:
        runs = draws.shape[1] // len(levels)  # of each root, over all its classes
        follow = _Sampled(np.repeat(np.arange(len(stack)), runs), draws.reshape(-1, len(levels)))
    roots, rows, probs, residuals = _walk(stack, levels, follow)
    classes = tables.shape[1]
    if not classes:  # no teleport to correct: the rows and probs alone
        none = np.empty(0, np.intp)
        return none, none, none, _Branches(rows, probs, *np.empty((3, 0)))
    residuals = settle(residuals)
    leaf, cls = np.arange(len(rows)), np.zeros(len(rows), np.intp)  # one class: the leaves
    if draws is not None:  # each root's runs, class-major
        leaf, cls = follow.at, np.tile(np.repeat(np.arange(classes), runs // classes), len(stack))
    elif classes > 1:  # each leaf once per class, in root, then class, then leaf order
        leaf, cls = np.tile(leaf, classes), np.repeat(np.arange(classes), len(rows))
        order = np.argsort(roots[leaf], kind="stable")
        leaf, cls = leaf[order], cls[order]
    if draws is not None or classes > 1:  # the teleports are not the leaves in order
        roots, residuals = roots[leaf], residuals[leaf]
    gates = tables[roots if len(tables) > 1 else 0, cls, np.bitwise_xor.reduce(rows, axis=1)[leaf]]
    # a lone client is broadcast, not copied per teleport (peak memory)
    corrected = _corrected(clients[roots] if len(clients) > 1 else clients[0], gates, residuals)
    return roots, leaf, cls, _Branches(rows, probs, gates, *corrected)


def _results(
    pairs: Sequence[tuple[int, int]],
    leaf: np.ndarray,
    branches: _Branches,
    labels: Sequence = BELL_LABELS,
    aggregate: object = None,
) -> Iterator[TeleportResult]:
    """One ``TeleportResult`` per teleport of a ``_teleports`` pass, built as
    it is read, with the record ``_record`` makes of its leaf's rows, one
    per pair of ``pairs``, as ``labels``, and ``aggregate`` as its class
    (the Bell class of the labels when None)."""
    rows, probs = branches.rows.tolist(), branches.probs.tolist()
    return (
        TeleportResult(
            _record(pairs, labels, rows[i], probs[i], aggregate), gate, _wrap(amps, len(amps)), fid
        )
        for i, gate, amps, fid in zip(
            leaf.tolist(), branches.gates, branches.recipients, branches.fidelities.tolist()
        )
    )


def _teleport_one(
    teleports: Callable, labels: Sequence, pair: tuple[int, int], forced, rng
) -> TeleportResult:
    """The teleport ``teleports(follow=...)``, ``_teleports`` over one
    channel and class, makes onto ``forced``, a ``_forced_row`` of the
    outcome rows ``labels`` (refused when impossible), or onto one drawn
    from ``rng``.  Its record names ``pair``, with the label's first two
    entries as the class."""
    _, leaf, _, branches = teleports(follow=_run([forced], rng))
    return next(_results([pair], leaf, branches, labels, labels[branches.rows[0, 0]][:2]))


def _channel_teleports(
    client: PureState,
    channel: PureState,
    classes: Sequence[BellClass | tuple[int, int]],
    pairing: Sequence[tuple[int, int]] | None,
    trials: int | None = None,
    rng: int | np.random.Generator | None = None,
) -> tuple[Sequence[tuple[int, int]], np.ndarray, _Branches]:
    """The pairing, each teleport's leaf and the branches of ``_teleports``
    over one channel and ``classes``: every possible branch, or with ``trials``
    that many runs sampled from ``rng`` (``teleport_samples``)."""
    pairing = _check_pairing(_check_root(client, channel), pairing)
    draws = None if trials is None else _as_rng(rng).random((1, trials * len(pairing)))
    tables = _CLASS_GATES[None, [_class_index(c) for c in classes]]
    levels = [(pair, _BELL_BRA) for pair in pairing]
    clients, channels = client.amplitudes[None], channel.amplitudes[None]
    _, leaf, _, branches = _teleports(clients, channels, levels, tables, _normalized, draws=draws)
    return pairing, leaf, branches


def teleport_branches(
    client: PureState,
    channel: PureState,
    assumed_class: BellClass | tuple[int, int],
    pairing: Sequence[tuple[int, int]] | None = None,
) -> Iterator[TeleportResult]:
    """``teleport`` forced onto every possible branch, in the order of
    ``measure_branches``, from one walk of the outcome tree."""
    return _results(*_channel_teleports(client, channel, [assumed_class], pairing))


def teleport_samples(
    client: PureState,
    channel: PureState,
    assumed_class: BellClass | tuple[int, int],
    pairing: Sequence[tuple[int, int]] | None = None,
    *,
    trials: int,
    rng: int | np.random.Generator | None,
) -> Iterator[TeleportResult]:
    """``trials`` sampled ``teleport`` runs, as one walk of the outcome tree.

    Every run makes the same measurements on the same state, so the runs
    are paths down one tree.  They take their uniforms from ``rng`` in the
    order successive ``teleport(..., rng=rng)`` calls would, all at once,
    and the walk contracts each node their paths share once.  Yields
    what those calls return, one result per run, in order, and leaves a
    Generator ``rng`` where they leave it (a seed starts one generator for
    every run).
    """
    return _results(*_channel_teleports(client, channel, [assumed_class], pairing, trials, rng))


# ---------------------------------------------------------------------------
# teleportation-order parameter


@dataclass(frozen=True)
class OrderParameter:
    """Upsilon expectations scaled by 1/sqrt(3), plus derived quantities.

    ``efficiency`` is the squared length of ``t_vector`` (1 on a Bell
    class, <= 1/3 on product states); ``omega[c]`` is the signed
    combination whose value feeds the fidelity lower bound
    F >= (omega - 1) / 2.
    """

    t_vector: np.ndarray
    efficiency: float
    omega: dict[BellClass, float]


def _omega(e1: float, e2: float, e3: float) -> dict[BellClass, float]:
    """Omega_[j:k] = j <Upsilon^1> + k <Upsilon^2> + jk <Upsilon^3> per class."""
    return {c: c.j * e1 + c.k * e2 + c.j * c.k * e3 for c in BELL_CLASSES}


def order_parameter(state: PureState) -> OrderParameter:
    e = upsilon_expectations(state)
    t = np.array(e) / np.sqrt(3.0)
    return OrderParameter(t_vector=t, efficiency=float(t @ t), omega=_omega(*e))


# ---------------------------------------------------------------------------
# two-qubit fidelity formula and coherent-error bound


def _channel_bell_coefficients(channel: PureState) -> dict[BellLabel, complex]:
    if channel.num_sites != 2 or channel.local_dim != 2:
        raise ValueError("expected a 2-qubit channel")
    return {lab: inner_product(bell_state(lab), channel) for lab in BELL_LABELS}


def _x_tilde_mix(coeffs: dict[BellLabel, complex], p: int, q: int) -> np.ndarray:
    return sum(c * x_tilde_operator(j, k, p, q) for (j, k), c in coeffs.items())


def outcome_probability_formula(
    client: PureState, channel: PureState, outcome: BellLabel | tuple[int, int]
) -> float:
    """P(p:q) = |<v| Xtilde_pq^dag Xtilde_pq |v>| / 4 on a 2-qubit channel."""
    coeffs = _channel_bell_coefficients(channel)
    xt = _x_tilde_mix(coeffs, *outcome)
    v = client.amplitudes
    return float(abs(np.vdot(v, xt.conj().T @ (xt @ v)))) / 4.0


def fidelity_formula(
    client: PureState,
    channel: PureState,
    assumed: BellLabel | tuple[int, int],
    outcome: BellLabel | tuple[int, int],
) -> float:
    """Closed-form branch fidelity for a 2-qubit channel.

    F^{rs}_{pq} = |<v| (Xtilde^{rs}_{pq})^dag Xtilde_pq |v>|^2
                  / |<v| Xtilde_pq^dag Xtilde_pq |v>|
    where Xtilde_pq mixes the channel's Bell coefficients.  Agrees with
    the simulated protocol branch by branch.
    """
    coeffs = _channel_bell_coefficients(channel)
    r, s = assumed
    p, q = outcome
    xt = _x_tilde_mix(coeffs, p, q)
    v = client.amplitudes
    den = abs(np.vdot(v, xt.conj().T @ (xt @ v)))
    if den <= 4.0 * ZERO_PROB_ATOL:
        raise ImpossibleOutcomeError(f"outcome {tuple(outcome)} has probability {den / 4.0:.3e}")
    num = abs(np.vdot(v, x_tilde_operator(r, s, p, q).conj().T @ (xt @ v))) ** 2
    return float(num / den)


def rotation_gate(theta: float, n: Sequence[complex]) -> np.ndarray:
    """R(theta, n) = cos(theta/2) I - i sin(theta/2) (n1 U1 + n2 U2 + i n3 U3).

    For real unit n this is a Bloch rotation; complex unit n gives the
    general (non-unitary) coherent channel error.
    """
    n1, n2, n3 = n
    gen = n1 * u_matrix(1) + n2 * u_matrix(2) + 1j * n3 * u_matrix(3)
    return np.cos(theta / 2) * np.eye(2, dtype=complex) - 1j * np.sin(theta / 2) * gen


@dataclass(frozen=True)
class BoundScanResult:
    theta: float
    minimum: float
    a: complex
    b_mag: float
    c_mag: float


def min_fidelity_scan(
    theta: float, grid_points: int = 121, refinements: int = 2
) -> BoundScanResult:
    """Grid-minimize the worst-case branch fidelity Delta(theta, m).

    The client minimization reduces exactly to
        Delta = |cos(theta/2) + a sin(theta/2)|^2
                / (|cos(theta/2) + a sin(theta/2)|^2 + |b sin(theta/2)|^2)
    over complex (a, b, c) with |a|^2 + (|b|^2 + |c|^2)/2 = 1.  The scan
    walks Re(a), Im(a) and the fraction of the leftover weight assigned
    to |b|^2 (the rest goes to |c|^2), then refines around the argmin.
    The analytic minimum is cos(theta) for theta <= pi/2, reached at
    c = 0 and real a = (cos(theta) - 1) / sin(theta); 0 above, reached
    at a = -(1 + cos(theta)) / sin(theta) = -cot(theta/2), where the
    numerator vanishes with |a| < 1.
    """
    if not 0 <= theta < np.pi:
        raise ValueError("theta must lie in [0, pi)")
    if grid_points < 3 or refinements < 0:
        raise ValueError("the scan needs grid_points >= 3 and refinements >= 0")
    c2, s2 = np.cos(theta / 2.0), np.sin(theta / 2.0)
    lo = np.array([-1.0, -1.0, 0.0])
    hi = np.array([1.0, 1.0, 1.0])
    for _ in range(refinements + 1):
        re_a, im_a, frac = np.ix_(*(np.linspace(lo[i], hi[i], grid_points) for i in range(3)))
        a = (re_a + 1j * im_a)[..., 0]
        abs_a2 = np.abs(a) ** 2
        leftover = 2.0 * np.clip(1.0 - abs_a2, 0.0, None)[..., None]
        num = (np.abs(c2 + a * s2) ** 2)[..., None]
        delta = leftover * frac  # |b|^2, then Delta in place
        delta *= s2**2
        delta += num
        np.divide(num, delta, out=delta)
        delta[abs_a2 > 1.0] = np.inf
        i0, i1, i2 = np.unravel_index(np.argmin(delta), delta.shape)
        center = np.array([re_a[i0, 0, 0], im_a[0, i1, 0], frac[0, 0, i2]])
        span = (hi - lo) * (2.0 / (grid_points - 1))
        lo = np.maximum(center - span, [-1.0, -1.0, 0.0])
        hi = np.minimum(center + span, [1.0, 1.0, 1.0])
    return BoundScanResult(
        theta=float(theta),
        minimum=float(delta[i0, i1, i2]),
        a=complex(re_a[i0, 0, 0] + 1j * im_a[0, i1, 0]),
        b_mag=float(np.sqrt(leftover[i0, i1, 0] * frac[0, 0, i2])),
        c_mag=float(np.sqrt(leftover[i0, i1, 0] * (1.0 - frac[0, 0, i2]))),
    )


# ---------------------------------------------------------------------------
# order-parameter/fidelity scatter experiment


@dataclass(frozen=True)
class Fig2Row:
    trial: int
    assumed_class: BellClass
    omega: float
    measured_class: BellClass
    fidelity: float
    channel_kind: str


# fig2 samples and walks this many trials at a time, as stacked arrays; a
# block bounds the generators, draws and walk arrays held at once.
_FIG2_BLOCK = 1024
# each channel kind by its index: a class index, or -1 for a Haar channel
_KINDS = np.array(
    [f"pure-class {format_sign_pair(c)}" for c in BELL_CLASSES] + ["haar"], dtype=object
)

# numpy.random.SeedSequence's hash constants, its words 32 bits wide
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _mix(x, y):
    """SeedSequence's ``mix`` of two words, on ints or uint64 arrays of them."""
    r = ((_MIX_L * x & _M32) + (-_MIX_R & _M32) * y) & _M32  # never above 2**64
    return r ^ r >> 16


def _child_states(seed: int, start: int, stop: int) -> np.ndarray:
    """What ``SeedSequence(seed).spawn(stop)[i].generate_state(4, np.uint64)``
    gives for each child ``i`` in ``range(start, stop)``, one row each.

    A child's entropy is the seed's 32-bit words, zero-padded to the pool
    size 4, and then its spawn key ``i`` (one word: ``i < 2**32``).  Every
    word but that last one hashes the same for every child, so the pool is
    mixed up to it once on ints.  The key's hash into each pool word and
    ``generate_state``'s 8 words then run on uint64 arrays, one row per
    child, masked to 32 bits.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * _MULT_A & _M32
        value = value * h & _M32
        return value ^ value >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        pool = [_mix(p, hashmix(word)) for p in pool]
    keys = np.arange(start, stop, dtype=np.uint64)[:, None]
    hashes = _powers(h, _MULT_A, 4)  # the hash constants of hashmix(key) into each pool word
    value = (keys ^ hashes[:-1]) * hashes[1:] & _M32
    pool = _mix(np.array(pool, dtype=np.uint64), value ^ value >> 16)
    hashes = _powers(_INIT_B, _MULT_B, 8)  # generate_state's, over the pool twice
    value = (np.tile(pool, 2) ^ hashes[:-1]) * hashes[1:] & _M32
    value ^= value >> 16
    return value[:, ::2] | value[:, 1::2] << 32  # little-endian word pairs


def _powers(h: int, mult: int, n: int) -> np.ndarray:
    """``h`` and the ``n`` hash constants after it, each ``mult`` times the last."""
    out = [h]
    for _ in range(n):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint64)


class _ChildSeed(np.random.bit_generator.ISeedSequence):
    """A spawned SeedSequence as the state ``_child_states`` derives for it:
    the one thing PCG64, which ``np.random.default_rng`` builds, asks of it."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a derived child seed gives 4 uint64 words only")
        return self.state


def _scatter_channels(
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sample_scatter_channel`` once on each generator of ``rngs``, on
    stacked raw amplitudes: the channels (trials, 16), the index of each
    one's kind in ``_KINDS`` and their Omega_c (trials, 4), classes in
    BELL_CLASSES order.

    Each generator makes the calls ``sample_scatter_channel`` documents,
    in that order; the 16 + 16 normals of a draw are taken as 32 at once,
    which gives the same values.  Each round then runs its arithmetic
    once over the stacked draws of every trial still sampling, each step
    rounded as it is for one vector, and the trials it refuses draw again
    in the next round.
    """
    # each trial's class index, or -1 for a Haar trial
    cls = np.array([rng.integers(4) if rng.random() < 0.5 else -1 for rng in rngs])
    channels = np.empty((len(rngs), 16), dtype=complex)
    omegas = np.empty((len(rngs), len(BELL_CLASSES)))
    todo = np.arange(len(rngs))
    while todo.size:
        z = np.array([rngs[i].standard_normal(32) for i in todo.tolist()])
        amps = _normalized(z[:, :16] + 1j * z[:, 16:])  # as _haar rounds it
        pure = cls[todo] >= 0
        classes = cls[todo][pure]
        projected = amps[pure]
        for c in set(classes.tolist()):  # each class's trials at once
            of_c = classes == c
            projected[of_c] = _class_component(projected[of_c], *BELL_CLASSES[c])
        norms = _norms(projected)
        amps[pure] = projected / norms
        omega = np.stack(list(_omega(*_expectations(amps).T).values()), axis=1)
        accepted = omega.max(axis=1) <= 0.98
        accepted[pure] = norms[:, 0] > 1e-6  # guard against a lucky orthogonal draw
        channels[todo[accepted]] = amps[accepted]
        omegas[todo[accepted]] = omega[accepted]
        todo = todo[~accepted]
    return channels, cls, omegas


def sample_scatter_channel(rng: np.random.Generator) -> tuple[PureState, str]:
    """Random 4-qubit channel for the scatter experiment.

    Mixture of two documented components: with probability 1/2 an exact
    Bell-class state (a Haar draw projected onto a random class), which
    teleports at fidelity 1 on every branch; otherwise a Haar draw
    resampled until max_c Omega_c <= 0.98, where the fidelity bound is
    vacuous.  Either way no sampled row can dip below the bound, while
    the scatter still reaches Omega = 3 and Omega < 0.  The draws from
    ``rng``, in order: one ``random()`` picks the component, one
    ``integers(4)`` the class of a pure-class channel, then each Haar
    draw takes 16 normals for the real parts and 16 for the imaginary
    parts, again after every refused draw.  The draws run on raw
    amplitude vectors; only the accepted channel becomes a state.
    """
    (amps,), (kind,), _ = _scatter_channels([rng])
    return PureState(amps), _KINDS[kind]


class _Fig2Block(NamedTuple):
    """The rows of a block of fig2 trials as columns, one entry per row;
    the index columns are as narrow as their values allow (23 B a row)."""

    trial: np.ndarray  # int32, far wider than the CLI's 2**17 trials
    assumed: np.ndarray  # the assumed class, an int8 index into BELL_CLASSES
    omega: np.ndarray  # the channel's Omega of the assumed class
    measured: np.ndarray  # the measured class, an int8 index into BELL_CLASSES
    fidelity: np.ndarray
    kind: np.ndarray  # the channel's kind, an int8 index into _KINDS


def _fig2_blocks(
    trials: int, seed: int, enumerate_branches: bool = False
) -> Iterator[_Fig2Block]:
    """The rows ``fig2_run`` returns, as the columns of one block of
    ``_FIG2_BLOCK`` trials at a time (no other array of a block outlives it)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for start in range(0, trials, _FIG2_BLOCK):
        yield _fig2_block(seed, start, min(start + _FIG2_BLOCK, trials), enumerate_branches)


def _fig2_block(seed: int, start: int, stop: int, enumerate_branches: bool) -> _Fig2Block:
    """The rows of fig2's trials ``start`` to ``stop``, from one ``_teleports``."""
    # the block's streams: the next children of the seed, as spawn(trials) lists them
    rngs = [np.random.default_rng(_ChildSeed(state)) for state in _child_states(seed, start, stop)]
    z = np.array([rng.standard_normal(4) for rng in rngs])  # 2 + 2 at once
    clients = _normalized(z[:, :2] + 1j * z[:, 2:])  # as _haar rounds it
    channels, kinds, omegas = _scatter_channels(rngs)
    levels = [(pair, _BELL_BRA) for pair in default_pairing(5)]  # 8 uniforms: 2 per class
    draws = None if enumerate_branches else np.array([rng.random(8) for rng in rngs])
    trial, leaf, cls, branches = _teleports(
        clients, channels, levels, _CLASS_GATES[None], _normalized, draws=draws
    )
    measured = np.bitwise_xor.reduce(branches.rows, axis=1)[leaf]
    return _Fig2Block(
        (start + trial).astype(np.int32), cls.astype(np.int8), omegas[trial, cls],
        measured.astype(np.int8), branches.fidelities, kinds[trial].astype(np.int8),
    )


def fig2_run(
    trials: int, seed: int, enumerate_branches: bool = False
) -> list[Fig2Row]:
    """Scatter experiment: random client and channel per trial, one
    sampled protocol run per assumed class.

    Every row satisfies fidelity >= (omega - 1) / 2 - 1e-9; trials use
    independently spawned RNG streams (the children of
    ``SeedSequence(seed).spawn(trials)``, their seeds derived as one array)
    so runs are reproducible and could be distributed.  Each trial's
    generator draws, in order: its client (2 + 2 normals), its channel
    (``sample_scatter_channel``) and, unless ``enumerate_branches``, 8
    teleport uniforms, one per assumed class and Bell pair, class-major.
    The trials are sampled a block at a time as stacked arrays (the
    channel's Omega_c is computed once), and the runs of a block go
    through one batched walk of the outcome tree.  With
    ``enumerate_branches`` every reachable outcome branch is forced
    instead of sampling one (a verification mode: the bound must survive
    even the improbable branches); each trial is walked once for all
    four assumed classes.
    """
    rows = []
    for block in _fig2_blocks(trials, seed, enumerate_branches):
        rows += map(
            Fig2Row,
            block.trial.tolist(),
            map(BELL_CLASSES.__getitem__, block.assumed.tolist()),
            block.omega.tolist(),
            map(BELL_CLASSES.__getitem__, block.measured.tolist()),
            block.fidelity.tolist(),
            _KINDS[block.kind].tolist(),
        )
    return rows


def _below_bound(fidelity, omega):
    """Whether a ``fidelity`` (a float or an array) breaks fig2's bound
    (Omega - 1) / 2 at ``omega``, less FIG2_BOUND_SLACK; a NaN breaks nothing."""
    return fidelity < (omega - 1.0) / 2.0 - FIG2_BOUND_SLACK


def fig2_violations(rows: Sequence[Fig2Row]) -> list[Fig2Row]:
    """Rows that break the fidelity lower bound (should be empty)."""
    return [r for r in rows if _below_bound(r.fidelity, r.omega)]
