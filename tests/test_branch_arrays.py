"""Every outcome branch of a teleport from one batched pass, against the
per-branch code it replaced.

The oracles below are ``qudit_teleport`` and ``teleport3`` as they were
before they became row picks from one contraction, and ``teleport`` as it
was before it scored through the batched passes' ``_corrected``: one
measurement per call, Bob's gate built per branch (``qudit_x_tilde`` with
its ``matrix_power`` products, ``correction_gate``), ``apply_local`` and
``overlap_fidelity`` on checked states.  Forcing each outcome row one at a
time through them must give the batched rows exactly: ``==`` on
probabilities and fidelities, ``np.array_equal`` on recipients and gates.
Sampled single calls must draw the same outcome and leave the generator
in the same state.  The same holds for the enumerated fig2 scatter, which
walks each trial once for all four assumed classes, and for the CLI rows
formatted straight from the arrays.
"""

import io
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellport import cli, protocol, qudit, threequbit
from bellport.bell import BELL_CLASSES, BELL_LABELS, BellClass, BellLabel, format_sign_pair
from bellport.measure import (
    ImpossibleOutcomeError,
    MeasurementOutcome,
    MeasurementRecord,
    _check_pairs,
    _normalized,
    _possible,
    _run,
    _walk,
    bell_measure,
    measure_sequence,
)
from bellport.protocol import (
    Fig2Row,
    TeleportResult,
    correction_gate,
    fig2_run,
    order_parameter,
    sample_scatter_channel,
    teleport,
)
from bellport.qudit import (
    qudit_bell,
    qudit_bell_measure,
    qudit_teleport,
    qudit_x_tilde,
)
from bellport.states import PureState, apply_local, overlap_fidelity, random_state, tensor
from bellport.threequbit import (
    _OUTCOMES,
    BELL3_LABELS,
    Bell3Label,
    bell3_state,
    teleport3,
)

PROPERTY = settings(max_examples=60, deadline=None)
seeds = st.integers(0, 2**32 - 1)

# ---------------------------------------------------------------------------
# oracles: one branch per call


def collapse(t, axes, bra, *, row=None, rng=None, label=None):
    """``bra`` on the ``axes`` of the site tensor ``t`` as a one-level walk
    onto one row: ``row`` when given (``label`` names it in the error) and
    drawn from ``rng`` otherwise.  Returns the outcome row, its probability
    and its renormalised residual, shape (group, *rest), the rest in their
    order."""
    _, (rows,), (probs,), (residual,) = _walk(t[None], [(axes, bra)], _run([(row, label)], rng))
    rest = [n for i, n in enumerate(t.shape) if i not in axes]
    return int(rows[0]), float(probs[0]), residual.reshape(bra.shape[1], *rest)


def old_teleport(client, channel, assumed, pairing=None, *, forced=None, rng=None):
    if client.num_sites != 1 or client.local_dim != 2:
        raise ValueError("client must be a single qubit")
    if channel.num_sites % 2 != 0:
        raise ValueError("channel must have an even number of qubits")
    total = tensor(client, channel)
    if pairing is None:
        pairing = protocol.default_pairing(total.num_sites)
    if sum(map(len, pairing)) != total.num_sites - 1:
        raise ValueError("pairing must cover all sites except the recipient")
    _check_pairs(total.num_sites, pairing)
    record, residual = measure_sequence(total, pairing, forced=forced, rng=rng)
    gate = correction_gate(assumed, record.aggregate_class)
    recipient = apply_local(residual, gate, 0)
    return TeleportResult(record, gate, recipient, overlap_fidelity(client, recipient))


def old_qudit_teleport(client, channel, assumed=None, *, forced=None, rng=None):
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
    total = tensor(client, chan_state)
    outcome, residual = qudit_bell_measure(total, 0, 1, forced=forced, rng=rng)
    p, q = outcome.label
    # C-ordered, as the library's gate tables are: the rounding of a gate
    # product may depend on the gate's memory layout
    gate = np.ascontiguousarray(qudit_x_tilde(dim, assumed[0], assumed[1], p, q).conj().T)
    record = MeasurementRecord(
        outcomes=(outcome,),
        aggregate_class=outcome.label,
        joint_probability=outcome.probability,
    )
    recipient = apply_local(residual, gate, 0)
    return TeleportResult(record, gate, recipient, overlap_fidelity(client, recipient))


def old_teleport3(client, channel, assumed, mode="full", *, forced=None, rng=None):
    labels, [(_, bra)], *_ = _OUTCOMES[mode]
    row = None
    if forced is not None:
        if len(forced) != len(labels[0]):
            raise ValueError(
                f"{mode}-mode forced outcome has {len(labels[0])} signs, got {forced!r}"
            )
        row = labels.index(tuple(forced))
    total = tensor(client, channel).as_tensor()
    row, prob, block = collapse(total, (0, 1, 2), bra, row=row, rng=rng, label=forced)
    label = labels[row]
    residual_amps = block[0]
    if mode == "reduced":
        _, s_, vh = np.linalg.svd(block)
        if s_[1] > 1e-8:
            raise ValueError(
                "reduced measurement left the recipient entangled; "
                "the channel is not confined to one (Lambda1, Lambda3) class"
            )
        residual_amps = vh[0]
    p, q = label[:2]
    residual = PureState(residual_amps / np.linalg.norm(residual_amps))
    gate = correction_gate(assumed, (p, q))
    outcome = MeasurementOutcome(pair=(0, 2), label=label, probability=prob)
    record = MeasurementRecord(
        outcomes=(outcome,), aggregate_class=(p, q), joint_probability=prob
    )
    recipient = apply_local(residual, gate, 0)
    return TeleportResult(record, gate, recipient, overlap_fidelity(client, recipient))


def attempt(call):
    """``call()``: its result, None when its outcome is impossible, or the
    ValueError it raised."""
    try:
        return call()
    except ImpossibleOutcomeError:
        return None
    except ValueError as exc:
        return exc


def forced_one_by_one(call, labels):
    return [attempt(lambda: call(label)) for label in labels]


def assert_same_result(new, old):
    assert new.record == old.record  # exact probabilities, labels and classes
    assert np.array_equal(new.correction, old.correction)
    assert np.array_equal(new.recipient_state.amplitudes, old.recipient_state.amplitudes)
    assert new.recipient_state.normalized == old.recipient_state.normalized
    assert new.fidelity == old.fidelity


def qudit_teleports(client, channel, assumed, follow):
    """The branches of ``protocol._teleports`` over the qudit ``channel``
    alone, with Bob's gate table for ``assumed``."""
    d = client.local_dim
    _, levels, tables, _ = qudit._label_stack(d, [assumed])
    return protocol._teleports(
        client.amplitudes[None], channel.amplitudes[None], levels, tables, qudit._walked, follow
    )[3]


def gate_table(assumed):
    """Bob's gate for ``assumed`` and each measured class, in BELL_CLASSES order."""
    return np.array([correction_gate(assumed, m) for m in BELL_CLASSES])


def trio_teleports(client, channel, assumed, mode, follow):
    """The branches of ``protocol._teleports`` over the trio ``channel``
    alone in ``mode``, with Bob's gate table for ``assumed``."""
    _, levels, gate_rows, settle = _OUTCOMES[mode]
    tables = gate_table(assumed)[None, None, gate_rows]
    return protocol._teleports(
        client.amplitudes[None], channel.amplitudes[None], levels, tables, settle, follow
    )[3]


def assert_rows_match(branches, old):
    """The batched ``branches`` are exactly the possible rows of ``old``."""
    possible = [row for row, res in enumerate(old) if res is not None]
    assert branches.rows.tolist() == [[row] for row in possible]
    for i, row in enumerate(possible):
        res = old[row]
        assert branches.probs[i, 0] == res.record.joint_probability
        assert branches.fidelities[i] == res.fidelity
        assert np.array_equal(branches.gates[i], res.correction)
        assert np.array_equal(branches.recipients[i], res.recipient_state.amplitudes)


# ---------------------------------------------------------------------------
# qudit pairs


@st.composite
def qudit_case(draw):
    """(client, channel, assumed) for d = 2..6: a random channel, or a
    product channel |m> (x) b that leaves rows impossible for a basis client."""
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        client = random_state(1, d, rng)
        channel = random_state(2, d, rng)
    else:
        client = PureState(np.eye(d)[draw(st.integers(0, d - 1))], local_dim=d)
        first = np.eye(d)[draw(st.integers(0, d - 1))]
        channel = PureState(np.kron(first, random_state(1, d, rng).amplitudes), local_dim=d)
    assumed = (draw(st.integers(-d, 2 * d)), draw(st.integers(-d, 2 * d)))
    return client, channel, assumed


@PROPERTY
@given(qudit_case())
def test_qudit_rows_match_forcing_each_row(case):
    client, channel, assumed = case
    d = client.local_dim
    labels = list(product(range(d), repeat=2))
    old = forced_one_by_one(
        lambda lab: old_qudit_teleport(client, channel, assumed, forced=lab), labels
    )
    assert_rows_match(qudit_teleports(client, channel, assumed, _possible), old)
    new = forced_one_by_one(
        lambda lab: qudit_teleport(client, channel, assumed, forced=lab), labels
    )
    for res, old_res in zip(new, old):
        assert (res is None) == (old_res is None)
        if res is not None:
            assert_same_result(res, old_res)


def test_qudit_product_channel_has_impossible_rows():
    client = PureState(np.eye(3)[1], local_dim=3)
    channel = PureState(np.kron(np.eye(3)[2], random_state(1, 3, 1).amplitudes), local_dim=3)
    branches = qudit_teleports(client, channel, (0, 0), _possible)
    assert branches.rows.tolist() == [[1], [4], [7]]  # q = 2 - 1 only
    with pytest.raises(ImpossibleOutcomeError):
        qudit_teleport(client, channel, (0, 0), forced=(0, 0))


@PROPERTY
@given(qudit_case(), seeds)
def test_sampled_qudit_teleport_matches_oracle(case, seed):
    client, channel, assumed = case
    gens = [np.random.default_rng(seed), np.random.default_rng(seed)]
    for _ in range(3):
        new = qudit_teleport(client, channel, assumed, rng=gens[0])
        assert_same_result(new, old_qudit_teleport(client, channel, assumed, rng=gens[1]))
    assert gens[0].bit_generator.state == gens[1].bit_generator.state


# ---------------------------------------------------------------------------
# three-qubit channels


@st.composite
def trio_case(draw):
    """(client, channel, assumed): a random trio (entangling the recipient in
    reduced mode), a basis channel (impossible full-mode rows) or a
    superposition within one (Lambda1, Lambda3) class."""
    rng = np.random.default_rng(draw(seeds))
    client = random_state(1, 2, rng)
    kind = draw(st.sampled_from(["random", "basis", "class"]))
    if kind == "random":
        channel = random_state(3, 2, rng)
    elif kind == "basis":
        channel = bell3_state(draw(st.sampled_from(BELL3_LABELS)))
    else:
        j, l = draw(st.sampled_from(BELL_CLASSES))
        alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alpha /= np.linalg.norm(alpha)
        amps = alpha[0] * bell3_state((j, 1, l)).amplitudes
        channel = PureState(amps + alpha[1] * bell3_state((j, -1, l)).amplitudes)
    return client, channel, draw(st.sampled_from(BELL_CLASSES))


@PROPERTY
@given(trio_case(), st.sampled_from(["full", "reduced"]))
def test_trio_rows_match_forcing_each_row(case, mode):
    client, channel, assumed = case
    labels = _OUTCOMES[mode][0]
    old = forced_one_by_one(
        lambda lab: old_teleport3(client, channel, assumed, mode, forced=lab), labels
    )
    new = forced_one_by_one(
        lambda lab: teleport3(client, channel, assumed, mode, forced=lab), labels
    )
    for res, old_res in zip(new, old):
        if isinstance(old_res, ValueError):  # the recipient was left entangled
            assert isinstance(res, ValueError) and str(res) == str(old_res)
        elif old_res is None:
            assert res is None
        else:
            assert_same_result(res, old_res)
    if any(isinstance(res, ValueError) for res in old):
        with pytest.raises(ValueError, match="entangled"):
            trio_teleports(client, channel, assumed, mode, _possible)
    else:
        assert_rows_match(trio_teleports(client, channel, assumed, mode, _possible), old)


def test_reduced_mode_raises_only_for_the_rows_it_takes():
    # |+:+:+} + |+:-:-} entangles the recipient on every reduced row, but a
    # walk that picks no row has nothing to refuse
    amps = bell3_state((1, 1, 1)).amplitudes + bell3_state((1, -1, -1)).amplitudes
    channel = PureState(amps / np.linalg.norm(amps))
    client = random_state(1, 2, 4)
    branches = trio_teleports(client, channel, (1, 1), "reduced", lambda i, probs: [])
    assert branches.rows.tolist() == []
    with pytest.raises(ValueError, match="entangled"):
        trio_teleports(client, channel, (1, 1), "reduced", lambda i, probs: [0])


@PROPERTY
@given(trio_case(), st.sampled_from(["full", "reduced"]), seeds)
def test_sampled_teleport3_matches_oracle(case, mode, seed):
    client, channel, assumed = case
    gens = [np.random.default_rng(seed), np.random.default_rng(seed)]
    new = attempt(lambda: teleport3(client, channel, assumed, mode, rng=gens[0]))
    old = attempt(lambda: old_teleport3(client, channel, assumed, mode, rng=gens[1]))
    if isinstance(old, ValueError):
        assert isinstance(new, ValueError) and str(new) == str(old)
    else:
        assert_same_result(new, old)
    assert gens[0].bit_generator.state == gens[1].bit_generator.state


# ---------------------------------------------------------------------------
# the enumerated fig2 scatter: one walk per trial for all four classes


def old_fig2_enumerated(trials, seed):
    """fig2_run(enumerate_branches=True) as one forced teleport per branch."""
    rows = []
    for t, ss in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(ss)
        client = random_state(1, 2, rng)
        channel, kind = sample_scatter_channel(rng)
        omega = order_parameter(channel).omega
        for cls in BELL_CLASSES:
            for branch in product(BELL_LABELS, repeat=2):
                try:
                    res = old_teleport(client, channel, cls, forced=branch)
                except ImpossibleOutcomeError:
                    continue
                rows.append(
                    Fig2Row(
                        t, cls, float(omega[cls]), res.record.aggregate_class,
                        res.fidelity, kind,
                    )
                )
    return rows


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), seeds)
def test_enumerated_fig2_matches_forced_teleports(trials, seed):
    # Fig2Row equality compares every float with ==
    assert fig2_run(trials, seed, enumerate_branches=True) == old_fig2_enumerated(trials, seed)


# ten trials of these seeds hold both channel kinds and twice-refused Haar
# draws (asserted in test_collapse.py)
@pytest.mark.parametrize("seed", [5, 76])
def test_enumerated_fig2_in_blocks_matches_forced_teleports(monkeypatch, seed):
    monkeypatch.setattr(protocol, "_FIG2_BLOCK", 3)  # blocks of 3, 3, 3 and 1 trials
    assert fig2_run(10, seed, enumerate_branches=True) == old_fig2_enumerated(10, seed)


# ---------------------------------------------------------------------------
# CLI rows formatted from the arrays


def cli_rows(argv):
    out = io.StringIO()
    cmd = cli._SUBCOMMANDS[argv[0]]
    meta, rows, violations = cmd.handler(cli.build_parser().parse_args(argv))
    cli.write_table(out, meta, cmd.header, rows, True)
    return out.getvalue()


def old_qudit_demo_rows(d, seed):
    client = random_state(1, d, np.random.default_rng(seed))
    labels = [(0, 0), (1 % d, 0), (0, 1 % d), (d - 1, d - 1)]
    return [
        [d, j, k, p, q, res.record.joint_probability, res.fidelity]
        for j, k in dict.fromkeys(labels)
        for p, q in product(range(d), repeat=2)
        for res in [old_qudit_teleport(client, (j, k), forced=(p, q))]
    ]


def old_three_qubit_rows(seed):
    client = random_state(1, 2, np.random.default_rng(seed))
    rows = []
    for lab in BELL3_LABELS:
        for mode in ("full", "reduced"):
            signs = product((1, -1), repeat=2)
            branches = [(p, q, lab.k * q) if mode == "full" else (p, q) for p, q in signs]
            for branch in branches:
                res = old_teleport3(
                    client, bell3_state(lab), (lab.j, lab.l), mode, forced=branch
                )
                rows.append(
                    [*lab, mode, format_sign_pair(branch), res.record.joint_probability,
                     res.fidelity]
                )
    return rows


def table(rows):
    return "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 7), seeds)
def test_qudit_demo_rows_match_forced_calls(d, seed):
    text = cli_rows(["qudit-demo", "-d", str(d), "--seed", str(seed)])
    assert text.endswith(table(old_qudit_demo_rows(d, seed)))


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_three_qubit_rows_match_forced_calls(seed):
    text = cli_rows(["three-qubit", "--seed", str(seed)])
    assert text.split("j,k,l,mode,outcome,probability,fidelity\n")[1] == table(
        old_three_qubit_rows(seed)
    )


# ---------------------------------------------------------------------------
# three-qubit and qudit-demo: one pass over a stack, against one pass per
# channel and against the per-family stacked passes it replaced


def old_trio_stack_teleports(client, channels, gates, mode, follow):
    """``threequbit._stack_teleports`` as it was before the trio became a
    call to ``protocol._teleports``: the roots and branches of one walk with
    the trio bra over the stack ``channels`` (channels, 8), one branch per
    leaf, Bob's gate the row of its channel's 4-gate table in ``gates``
    (channels, 4, 2, 2) at the class (p, q) of its outcome row."""
    bra = threequbit._BELL3_BRA
    bra = bra[:, None] if mode == "full" else bra.reshape(4, 2, 8)
    totals = client[:, None] * channels[:, None, :]  # np.kron of each channel
    roots, rows, probs, amps = _walk(totals.reshape(-1, 2, 2, 2, 2), [((0, 1, 2), bra)], follow)
    rows, probs = rows[:, 0], probs[:, 0]
    blocks = amps.reshape(len(rows), bra.shape[1], 2)
    if mode == "reduced":
        _, s_, vh = np.linalg.svd(blocks)
        if (s_[:, 1] > 1e-8).any():
            raise ValueError(
                "reduced measurement left the recipient entangled; "
                "the channel is not confined to one (Lambda1, Lambda3) class"
            )
        blocks = vh
    gates = gates[roots, rows // 2 if mode == "full" else rows]
    corrected = protocol._corrected(client, gates, _normalized(blocks[:, 0]))
    return roots, protocol._Branches(rows, probs, gates, *corrected)


def old_qudit_stack_teleports(client, channels, gates, follow):
    """``qudit._stack_teleports`` as it was before the qudit pair became a
    call to ``protocol._teleports``: the roots and branches of one walk with
    the Bell bra over the stack ``channels`` (channels, d^2), Bob's gate the
    row of its channel's table in ``gates`` (channels, d^2, d, d) at its
    outcome row, the residuals left as the walk divides them."""
    d = len(client)
    totals = (client[:, None] * channels[:, None, :]).reshape(-1, d, d, d)
    roots, rows, probs, residuals = _walk(totals, [((0, 1), qudit._bell_bra(d))], follow)
    rows, probs, gates = rows[:, 0], probs[:, 0], gates[roots, rows[:, 0]]
    corrected = protocol._corrected(client, gates, residuals)
    return roots, protocol._Branches(rows, probs, gates, *corrected)


def trio_stack(client, channels, mode):
    """The roots and branches of ``protocol._teleports`` over the trio
    ``channels`` in ``mode``, with the gate tables three-qubit uses."""
    _, levels, _, settle = _OUTCOMES[mode]
    tables = threequbit._TRIO_TABLES[mode][np.arange(len(channels)) % 8]
    root, _, _, branches = protocol._teleports(client[None], channels, levels, tables, settle)
    return root, branches


def assert_same_branches(new, old):
    for name in protocol._Branches._fields:  # fidelities: float ==, item by item
        assert np.array_equal(getattr(new, name), getattr(old, name)), name


def one_pass_per_channel(passes):
    """The roots and the concatenated branches of one pass per channel."""
    roots = np.concatenate([np.full(len(b.rows), i) for i, b in enumerate(passes)])
    return roots, protocol._Branches(*map(np.concatenate, zip(*passes)))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode", ["full", "reduced"])
def test_stacked_trio_pass_matches_one_pass_per_channel(mode, seed):
    client = random_state(1, 2, np.random.default_rng(seed))
    gate_rows = _OUTCOMES[mode][2]
    for i, lab in enumerate(BELL3_LABELS):  # the stack three-qubit walks
        assert np.array_equal(threequbit._TRIO_CHANNELS[i], bell3_state(lab).amplitudes)
        assert np.array_equal(threequbit._TRIO_GATES[i], gate_table((lab.j, lab.l)))
        table = threequbit._TRIO_TABLES[mode][i, 0]
        assert np.array_equal(table, threequbit._TRIO_GATES[i, gate_rows])
    roots, new = trio_stack(client.amplitudes, threequbit._TRIO_CHANNELS, mode)
    old_roots, old = one_pass_per_channel(
        [trio_teleports(client, bell3_state(lab), (lab.j, lab.l), mode, _possible)
         for lab in BELL3_LABELS]
    )
    assert np.array_equal(roots, old_roots)
    assert_same_branches(new, old)


def test_stacked_reduced_pass_refuses_a_straddling_channel():
    # |+:+:+} + |+:-:-} straddles the classes [+:+] and [+:-]
    amps = bell3_state((1, 1, 1)).amplitudes + bell3_state((1, -1, -1)).amplitudes
    channel = amps / np.linalg.norm(amps)
    client = random_state(1, 2, 4)
    channels = np.vstack([threequbit._TRIO_CHANNELS, channel])
    with pytest.raises(ValueError, match="entangled"):
        trio_stack(client.amplitudes, channels, "reduced")
    trio_stack(client.amplitudes, channels, "full")
    with pytest.raises(ValueError, match="entangled"):
        teleport3(client, PureState(channel), (1, 1), "reduced", rng=0)


@pytest.mark.parametrize("d", range(2, 8))
def test_stacked_qudit_pass_matches_one_pass_per_label(d):
    client = random_state(1, d, np.random.default_rng(d))
    labels = [(0, 0), (1 % d, 0), (0, 1 % d), (d - 1, d - 1)]  # qudit-demo's
    assert len(set(labels)) == 4  # distinct for every d >= 2, d = 2 too
    channels, levels, tables, settle = qudit._label_stack(d, labels)  # the stack qudit-demo walks
    assert np.array_equal(channels, [qudit_bell(d, j, k).amplitudes for j, k in labels])
    assert np.array_equal(tables, [qudit._label_stack(d, [label])[2][0] for label in labels])
    assert levels == [((0, 1), qudit._bell_bra(d))] and settle is qudit._walked
    clients = client.amplitudes[None]
    roots, _, _, new = protocol._teleports(clients, channels, levels, tables, settle)
    old_roots, old = one_pass_per_channel(
        [qudit_teleports(client, qudit_bell(d, j, k), (j, k), _possible) for j, k in labels]
    )
    assert np.array_equal(roots, old_roots)
    assert_same_branches(new, old)


def assert_matches_old_pass(new, old):
    """The roots and branches of the one pass, (roots, branches), are those
    of a family's old stacked pass, whose rows and probs were one per branch."""
    (roots, branches), (old_roots, old_branches) = new, old
    assert np.array_equal(roots, old_roots)
    rows, probs = old_branches.rows[:, None], old_branches.probs[:, None]
    assert_same_branches(branches, old_branches._replace(rows=rows, probs=probs))


def class_trios(rng, n):
    """``n`` random trio channels, each confined to one (Lambda1, Lambda3)
    class, so that the reduced mode takes every row of each."""
    out = []
    for _ in range(n):
        j, l = BELL_CLASSES[rng.integers(4)]
        alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alpha /= np.linalg.norm(alpha)
        k_plus, k_minus = bell3_state((j, 1, l)).amplitudes, bell3_state((j, -1, l)).amplitudes
        out.append(alpha[0] * k_plus + alpha[1] * k_minus)
    return np.array(out)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("mode", ["full", "reduced"])
def test_trio_pass_is_the_old_stacked_trio_pass_bit_for_bit(mode, seed):
    rng = np.random.default_rng(700 + seed)
    client = random_state(1, 2, rng).amplitudes
    stacks = [threequbit._TRIO_CHANNELS, class_trios(rng, 16)]
    if mode == "full":
        stacks.append(np.array([random_state(3, 2, rng).amplitudes for _ in range(16)]))
    for channels in stacks:
        gates = threequbit._TRIO_GATES[np.arange(len(channels)) % 8]
        old = old_trio_stack_teleports(client, channels, gates, mode, _possible)
        assert_matches_old_pass(trio_stack(client, channels, mode), old)
    # a random trio leaves the recipient entangled on some reduced row: both refuse
    channels = np.array([random_state(3, 2, rng).amplitudes])
    for call in (
        lambda: trio_stack(client, channels, "reduced"),
        lambda: old_trio_stack_teleports(
            client, channels, threequbit._TRIO_GATES[:1], "reduced", _possible
        ),
    ):
        with pytest.raises(ValueError, match="entangled"):
            call()


@pytest.mark.parametrize("d", range(2, 8))
def test_qudit_pass_is_the_old_stacked_qudit_pass_bit_for_bit(d):
    # the residuals stay as the walk divides them: normalising them again
    # moves the last bit of recipients and fidelities
    rng = np.random.default_rng(800 + d)
    labels = [(0, 0), (1 % d, 0), (0, 1 % d), (d - 1, d - 1)]
    for _ in range(3):
        client = random_state(1, d, rng).amplitudes
        channels, levels, tables, settle = qudit._label_stack(d, labels)
        old = old_qudit_stack_teleports(client, channels, tables[:, 0], _possible)
        new = protocol._teleports(client[None], channels, levels, tables, settle)
        assert_matches_old_pass(new[::3], old)
        channels = np.array([random_state(2, d, rng).amplitudes for _ in range(len(labels))])
        old = old_qudit_stack_teleports(client, channels, tables[:, 0], _possible)
        new = protocol._teleports(client[None], channels, levels, tables, settle)
        assert_matches_old_pass(new[::3], old)


amplitudes = st.floats(-1.0, 1.0, allow_subnormal=True)


@st.composite
def corrected_case(draw):
    """(client (2,), gates (n, 2, 2), residuals (n, 2)) with complex entries
    of parts in [-1, 1], subnormals and zeros included."""
    n = draw(st.integers(1, 8))

    def complexes(shape):
        size = 2 * int(np.prod(shape))
        parts = np.array(draw(st.lists(amplitudes, min_size=size, max_size=size)))
        return (parts[0::2] + 1j * parts[1::2]).reshape(shape)

    return complexes((2,)), complexes((n, 2, 2)), complexes((n, 2))


@settings(max_examples=200, deadline=None)
@given(corrected_case())
def test_corrected_fidelities_are_abs_squared_bit_for_bit(case):
    client, gates, residuals = case
    _, fidelities = protocol._corrected(client, gates, residuals)
    recipients = gates @ residuals[:, :, None]
    overlaps = np.broadcast_to(client, residuals.shape).conj()[:, None, :] @ recipients
    assert fidelities.tolist() == [abs(z) ** 2 for z in overlaps.ravel().tolist()]
    assert all(type(f) is float for f in fidelities.tolist())


def test_every_branch_field_of_the_three_passes_is_an_array():
    # one layout for every family: rows and probs per leaf, (leaves, levels),
    # and every other field per teleport, each on the leaf its index names
    client = random_state(1, 2, 5)
    channel = random_state(4, 2, 6)
    _, enumerated_leaf, enumerated = protocol._channel_teleports(client, channel, [(1, -1)], None)
    _, sampled_leaf, sampled = protocol._channel_teleports(client, channel, [(1, -1)], None, 7, 8)
    _, levels, _, settle = _OUTCOMES["full"]
    trio_tables = threequbit._TRIO_TABLES["full"]
    _, trio_leaf, _, trio = protocol._teleports(
        client.amplitudes[None], threequbit._TRIO_CHANNELS, levels, trio_tables, settle
    )
    _, qudit_leaf, _, qudit_pass = protocol._teleports(
        random_state(1, 3, 7).amplitudes[None], *qudit._label_stack(3, [(0, 0), (1, 2)])
    )
    passes = [
        (enumerated_leaf, enumerated, 2),
        (sampled_leaf, sampled, 2),
        (trio_leaf, trio, 1),
        (qudit_leaf, qudit_pass, 1),
    ]
    for leaf, branches, levels in passes:
        for name, field in zip(branches._fields, branches):
            assert isinstance(field, np.ndarray), name
        assert branches.fidelities.dtype == np.float64
        assert branches.rows.shape == branches.probs.shape == (len(branches.rows), levels)
        assert 0 <= leaf.min() and leaf.max() < len(branches.rows)
        per_teleport = branches.gates, branches.recipients, branches.fidelities
        assert [len(field) for field in per_teleport] == [len(leaf)] * 3
        assert branches.recipients.shape == (len(leaf), branches.gates.shape[-1])
    assert len(sampled_leaf) == 7
    for leaf, branches, _ in [passes[0], *passes[2:]]:  # one class: each leaf once, in order
        assert leaf.tolist() == list(range(len(branches.rows)))
    # no assumed class: no teleports, the same rows and probs
    _, no_leaf, rows_only = protocol._channel_teleports(client, channel, [], None)
    assert len(no_leaf) == len(rows_only.gates) == len(rows_only.fidelities) == 0
    assert np.array_equal(rows_only.rows, enumerated.rows)
    assert np.array_equal(rows_only.probs, enumerated.probs)


# ---------------------------------------------------------------------------
# the records of single calls: all from `_record`, each field of its own type


def assert_record_types(record, label_type, aggregate_type):
    assert type(record) is MeasurementRecord and type(record.outcomes) is tuple
    for outcome in record.outcomes:
        assert type(outcome) is MeasurementOutcome
        assert type(outcome.pair) is tuple and {type(s) for s in outcome.pair} == {int}
        assert type(outcome.label) is label_type and {type(s) for s in outcome.label} == {int}
        assert type(outcome.probability) is float
    assert type(record.aggregate_class) is aggregate_type
    assert {type(s) for s in record.aggregate_class} == {int}
    assert type(record.joint_probability) is float


def assert_result_types(res, label_type, aggregate_type):
    assert type(res) is TeleportResult
    assert_record_types(res.record, label_type, aggregate_type)
    assert type(res.correction) is np.ndarray and type(res.recipient_state) is PureState
    assert type(res.fidelity) is float


def test_single_call_records_keep_their_field_types():
    # the qubit calls carry BellClass aggregates; the trio and qudit calls
    # carry the plain (p, q) tuple of their outcome label, not a BellClass
    rng = np.random.default_rng(7)
    client, channel = random_state(1, 2, rng), random_state(4, 2, rng)
    qubit = [
        teleport(client, channel, (1, -1), rng=rng),
        teleport(client, channel, (1, 1), forced=[(1, 1), (-1, 1)]),
        next(protocol.teleport_branches(client, channel, (1, -1))),
        next(protocol.teleport_samples(client, channel, (1, -1), trials=3, rng=rng)),
    ]
    for res in qubit:
        assert_result_types(res, BellLabel, BellClass)
    total = tensor(client, channel)
    for forced in (None, [(1, -1), None], [(-1, -1), (1, 1)]):
        record, _ = measure_sequence(total, [(0, 1), (2, 3)], forced=forced, rng=rng)
        assert_record_types(record, BellLabel, BellClass)
    for forced in (None, (1, -1)):
        outcome, _ = bell_measure(total, 1, 3, forced=forced, rng=rng)
        assert type(outcome.label) is BellLabel and type(outcome.probability) is float

    trio = random_state(3, 2, rng)
    for forced in (None, (1, -1, 1)):
        assert_result_types(teleport3(client, trio, (1, 1), forced=forced, rng=rng), Bell3Label, tuple)
    for forced in (None, (-1, 1)):
        res = teleport3(client, bell3_state((1, -1, -1)), (1, -1), "reduced", forced=forced, rng=rng)
        assert_result_types(res, tuple, tuple)
    for forced in (None, (1, 2), (4, -1)):
        res = qudit_teleport(random_state(1, 3, rng), (1, 2), forced=forced, rng=rng)
        assert_result_types(res, tuple, tuple)
        assert res.record.aggregate_class == res.record.outcomes[0].label
        outcome, _ = qudit_bell_measure(random_state(3, 3, rng), 0, 2, forced=forced, rng=rng)
        assert type(outcome.label) is tuple and type(outcome.probability) is float
