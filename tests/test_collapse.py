"""The collapse kernel and the outcome-tree walker against the
hand-written measurement paths they replaced.

The oracles below are those paths, kept as references: Bell pairs
measured on the full state and stripped off afterwards, the three-qubit
trio with its own row grouping, the qudit pair, the branch enumerator
that forced every outcome tuple from scratch, ``Generator.choice`` for
sampled rows, the fig2 scatter that ran one ``teleport`` per trial and
class, the scatter's channel sampler drawing one trial after another,
the sampled runs of one channel as successive ``teleport`` calls, and
``SeedSequence.spawn`` for the child seeds fig2 derives as one array.
Each ``teleport`` there is ``test_branch_arrays.old_teleport``, which
scores its branch with ``apply_local`` and ``overlap_fidelity`` rather
than the batched passes' ``_corrected``.
Random states, pairings and forced or seeded outcomes must give the
same outcomes, probabilities and residuals (to 1e-12), and consume the
same random draws; enumerated branches, the batched fig2 rows, the
block-sampled channels and the batched sampled runs must equal theirs
exactly.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellport import measure, protocol
from bellport.bell import (
    BELL_CLASSES,
    BELL_LABELS,
    BellClass,
    BellLabel,
    _class_component,
    _expectations,
    bell_basis_state,
    bell_state,
    format_sign_pair,
)
from bellport.channels import build, parse_channel_spec
from bellport.measure import (
    ZERO_PROB_ATOL,
    ImpossibleOutcomeError,
    MeasurementOutcome,
    bell_measure,
    measure_branches,
    measure_sequence,
)
from bellport.protocol import (
    Fig2Row,
    _omega,
    default_pairing,
    fig2_run,
    order_parameter,
    sample_scatter_channel,
    teleport_branches,
    teleport_samples,
)
from bellport.qudit import qudit_bell, qudit_bell_measure
from bellport.states import PureState, _as_rng, _haar, random_state, tensor
from bellport.threequbit import BELL3_LABELS, Bell3Label, bell3_state, teleport3
from test_branch_arrays import old_teleport

TOL = 1e-12
PROPERTY = settings(max_examples=60, deadline=None)
seeds = st.integers(0, 2**32 - 1)

# ---------------------------------------------------------------------------
# oracles: the measurement paths before the collapse kernel

_OLD_BELL_BRA = np.array([bell_state(lab).amplitudes for lab in BELL_LABELS]).conj()
_OLD_BELL3_BRA = np.array([bell3_state(lab).amplitudes for lab in BELL3_LABELS]).conj()


def old_bell_measure(state, a, b, *, forced=None, rng=None):
    n = state.num_sites
    t = np.moveaxis(state.as_tensor(), (a, b), (0, 1)).reshape(4, -1)
    comps = _OLD_BELL_BRA @ t
    probs = np.sum(np.abs(comps) ** 2, axis=1)
    if forced is not None:
        forced = BellLabel(*forced)
        row = BELL_LABELS.index(forced)
        if probs[row] <= ZERO_PROB_ATOL:
            raise ImpossibleOutcomeError(f"outcome {forced} has probability {probs[row]}")
    else:
        row = int(_as_rng(rng).choice(4, p=probs / probs.sum()))
    label = BELL_LABELS[row]
    prob = float(probs[row])
    residual = comps[row] / np.sqrt(prob)
    pair_tensor = bell_state(label).amplitudes.reshape(2, 2)
    post = np.multiply.outer(pair_tensor, residual.reshape((2,) * (n - 2)))
    post = np.moveaxis(post, (0, 1), (a, b)).reshape(-1)
    return MeasurementOutcome(pair=(a, b), label=label, probability=prob), PureState(post)


def old_contract_measured(state, measured):
    t = state.as_tensor()
    sites = list(range(state.num_sites))
    for a, b, label in measured:
        bra = bell_state(label).amplitudes.conj().reshape(2, 2)
        ia, ib = sites.index(a), sites.index(b)
        t = np.tensordot(bra, t, axes=([0, 1], [ia, ib]))
        sites.remove(a)
        sites.remove(b)
    amps = t.reshape(-1)
    return PureState(amps / np.linalg.norm(amps))


def old_measure_sequence(state, pairs, *, forced=None, rng=None):
    gen = _as_rng(rng)
    outcomes = []
    current = state
    for i, (a, b) in enumerate(pairs):
        want = forced[i] if forced is not None else None
        if want is None:
            outcome, current = old_bell_measure(current, a, b, rng=gen)
        else:
            outcome, current = old_bell_measure(current, a, b, forced=want)
        outcomes.append(outcome)
    residual = old_contract_measured(
        current, [(o.pair[0], o.pair[1], o.label) for o in outcomes]
    )
    return outcomes, residual


def old_teleport3_measure(client, channel, mode, *, forced=None, rng=None):
    """Alice's side of the old teleport3: (label, probability, recipient amps)."""
    comps = _OLD_BELL3_BRA @ tensor(client, channel).as_tensor().reshape(8, -1)
    if mode == "full":
        probs = np.sum(np.abs(comps) ** 2, axis=1)
        if forced is not None:
            row = BELL3_LABELS.index(Bell3Label(*forced))
            if probs[row] <= ZERO_PROB_ATOL:
                raise ImpossibleOutcomeError(f"outcome {forced}")
        else:
            row = int(_as_rng(rng).choice(8, p=probs / probs.sum()))
        label = BELL3_LABELS[row]
        prob = float(probs[row])
        residual = comps[row] / np.sqrt(prob)
    else:
        groups = {}
        for i, lab in enumerate(BELL3_LABELS):
            groups.setdefault((lab.j, lab.k), []).append(i)
        pairs = list(groups)
        probs = np.array([np.sum(np.abs(comps[groups[pq]]) ** 2) for pq in pairs])
        if forced is not None:
            row = pairs.index(tuple(forced))
            if probs[row] <= ZERO_PROB_ATOL:
                raise ImpossibleOutcomeError(f"outcome {forced}")
        else:
            row = int(_as_rng(rng).choice(len(pairs), p=probs / probs.sum()))
        label = pairs[row]
        prob = float(probs[row])
        block = comps[groups[label]] / np.sqrt(prob)
        residual = np.linalg.svd(block)[2][0]
    return label, prob, residual / np.linalg.norm(residual)


def old_qudit_bell_measure(state, a, b, *, forced=None, rng=None):
    d = state.local_dim
    t = np.moveaxis(state.as_tensor(), (a, b), (0, 1)).reshape(d * d, -1)
    bra = np.array(
        [qudit_bell(d, j, k).amplitudes for j in range(d) for k in range(d)]
    ).conj()
    comps = bra @ t
    probs = np.sum(np.abs(comps) ** 2, axis=1)
    labels = [(j, k) for j in range(d) for k in range(d)]
    if forced is not None:
        forced = (forced[0] % d, forced[1] % d)
        row = labels.index(forced)
        if probs[row] <= ZERO_PROB_ATOL:
            raise ImpossibleOutcomeError(f"outcome {forced}")
    else:
        row = int(_as_rng(rng).choice(len(labels), p=probs / probs.sum()))
    prob = float(probs[row])
    return labels[row], prob, comps[row] / np.sqrt(prob)


# ---------------------------------------------------------------------------
# helpers


def run_both(new, old):
    """Call both paths; each either returns or raises ImpossibleOutcomeError."""
    results = []
    for fn in (new, old):
        try:
            results.append(fn())
        except ImpossibleOutcomeError:
            results.append(None)
    assert (results[0] is None) == (results[1] is None)
    return results


def same_stream(gen_new, gen_old):
    """Both paths leave their generators at the same point."""
    return gen_new.random() == gen_old.random()


@st.composite
def qubit_case(draw):
    """(state, pairing, forced) on 3 to 9 qubits with a random disjoint pairing."""
    n = draw(st.integers(3, 9))
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(1, (n - 1) // 2))
    pairs = [(order[2 * i], order[2 * i + 1]) for i in range(k)]
    forced = draw(
        st.none() | st.lists(st.none() | st.sampled_from(BELL_LABELS), min_size=k, max_size=k)
    )
    if draw(st.booleans()):
        state = random_state(n, 2, draw(seeds))
    else:  # Bell-pair products leave impossible branches to force
        labels = [draw(st.sampled_from(BELL_LABELS)) for _ in range((n - 1) // 2)]
        state = tensor(random_state(1, 2, draw(seeds)), bell_basis_state(labels))
        if n % 2 == 0:
            state = tensor(state, random_state(1, 2, draw(seeds)))
    return state, pairs, forced


# ---------------------------------------------------------------------------
# qubit pairs


@PROPERTY
@given(qubit_case(), st.booleans(), seeds)
def test_bell_measure_matches_oracle(case, force, seed):
    state, pairs, forced = case
    a, b = pairs[0]
    want = (forced or [None])[0] if force else None
    gens = [np.random.default_rng(seed), np.random.default_rng(seed)]
    new, old = run_both(
        lambda: bell_measure(state, a, b, forced=want, rng=gens[0]),
        lambda: old_bell_measure(state, a, b, forced=want, rng=gens[1]),
    )
    if new is None:
        return
    assert new[0].pair == old[0].pair and new[0].label == old[0].label
    assert abs(new[0].probability - old[0].probability) <= TOL
    assert np.max(np.abs(new[1].amplitudes - old[1].amplitudes)) <= TOL
    assert same_stream(*gens)


@PROPERTY
@given(qubit_case(), seeds)
def test_measure_sequence_matches_oracle(case, seed):
    state, pairs, forced = case
    gens = [np.random.default_rng(seed), np.random.default_rng(seed)]
    new, old = run_both(
        lambda: measure_sequence(state, pairs, forced=forced, rng=gens[0]),
        lambda: old_measure_sequence(state, pairs, forced=forced, rng=gens[1]),
    )
    if new is None:
        return
    (record, residual), (outcomes, old_residual) = new, old
    assert [(o.pair, o.label) for o in record.outcomes] == [
        (o.pair, o.label) for o in outcomes
    ]
    for o_new, o_old in zip(record.outcomes, outcomes):
        assert abs(o_new.probability - o_old.probability) <= TOL
    assert abs(record.joint_probability - np.prod([o.probability for o in outcomes])) <= TOL
    assert record.aggregate_class == BellClass(
        int(np.prod([o.label.j for o in outcomes])),
        int(np.prod([o.label.k for o in outcomes])),
    )
    assert residual.num_sites == old_residual.num_sites
    assert np.max(np.abs(residual.amplitudes - old_residual.amplitudes)) <= TOL
    assert same_stream(*gens)


# ---------------------------------------------------------------------------
# branch enumeration


def old_measure_branches(state, pairs):
    """Every outcome tuple forced from scratch, impossible ones skipped."""
    branches = []
    for branch in product(BELL_LABELS, repeat=len(pairs)):
        try:
            branches.append(measure_sequence(state, pairs, forced=branch))
        except ImpossibleOutcomeError:
            continue
    return branches


def old_teleport_branches(client, channel, assumed, pairing):
    branches = []
    for branch in product(BELL_LABELS, repeat=channel.num_sites // 2):
        try:
            branches.append(old_teleport(client, channel, assumed, pairing, forced=branch))
        except ImpossibleOutcomeError:
            continue
    return branches


# channels with impossible branches for a client teleported across them
SPARSE_CHANNELS = ("ghz", "cluster1d", "mg-dimers")


@st.composite
def branch_case(draw):
    """(state, pairing) on up to 11 qubits: a random state, or a client
    next to a channel whose outcome tree has impossible branches."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 11))
        state = random_state(n, 2, draw(seeds))
    else:
        kind = draw(st.sampled_from(SPARSE_CHANNELS))
        L = draw(st.sampled_from([4, 6, 8, 10]))
        channel = build(parse_channel_spec(f"{kind}:{L}"))
        state = tensor(random_state(1, 2, draw(seeds)), channel)
        n = L + 1
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(0, (n - 1) // 2))
    return state, [(order[2 * i], order[2 * i + 1]) for i in range(k)]


def assert_same_record(new, old):
    assert new.outcomes == old.outcomes  # pairs, labels, exact probabilities
    assert new.aggregate_class == old.aggregate_class
    assert new.joint_probability == old.joint_probability


@PROPERTY
@given(branch_case())
def test_measure_branches_matches_forced_oracle(case):
    state, pairs = case
    new, old = list(measure_branches(state, pairs)), old_measure_branches(state, pairs)
    assert len(new) == len(old)
    for (record, residual), (old_record, old_residual) in zip(new, old):
        assert_same_record(record, old_record)
        assert np.array_equal(residual.amplitudes, old_residual.amplitudes)


@st.composite
def teleport_case(draw):
    """(client, channel, assumed class, pairing) over channel families."""
    kind = draw(st.sampled_from(SPARSE_CHANNELS + ("random", "singlet-random")))
    L = draw(st.sampled_from([2, 4, 6, 8] if kind in ("ghz", "random") else [4, 6, 8]))
    spec = f"{kind}:{L}:{draw(seeds)}" if "random" in kind else f"{kind}:{L}"
    pairing = None
    if draw(st.booleans()):
        order = draw(st.permutations(range(L + 1)))
        pairing = [(order[2 * i], order[2 * i + 1]) for i in range(L // 2)]
    return (
        random_state(1, 2, draw(seeds)),
        build(parse_channel_spec(spec)),
        draw(st.sampled_from(BELL_LABELS)),
        pairing,
    )


@PROPERTY
@given(teleport_case())
def test_teleport_branches_matches_forced_teleport(case):
    client, channel, assumed, pairing = case
    new = list(teleport_branches(client, channel, assumed, pairing))
    old = old_teleport_branches(client, channel, assumed, pairing)
    assert len(new) == len(old)
    for res, old_res in zip(new, old):
        assert_same_record(res.record, old_res.record)
        assert np.array_equal(res.correction, old_res.correction)
        assert np.array_equal(
            res.recipient_state.amplitudes, old_res.recipient_state.amplitudes
        )
        assert res.fidelity == old_res.fidelity


def test_measure_branches_order_last_pair_fastest():
    state = random_state(5, 2, 11)
    branches = [
        tuple(o.label for o in record.outcomes)
        for record, _ in measure_branches(state, [(0, 1), (2, 3)])
    ]
    assert branches == list(product(BELL_LABELS, repeat=2))
    assert branches[:4] == [(BELL_LABELS[0], lab) for lab in BELL_LABELS]
    ((record, residual),) = measure_branches(state, [])
    assert record.outcomes == () and record.joint_probability == 1.0
    assert np.array_equal(residual.amplitudes, state.amplitudes / state.norm())


def test_ghz_channel_skips_impossible_branches():
    state = tensor(random_state(1, 2, 5), build(parse_channel_spec("ghz:6")))
    pairs = default_pairing(7)
    branches = list(measure_branches(state, pairs))
    assert len(branches) == 16
    assert sum(record.joint_probability for record, _ in branches) == pytest.approx(1.0)


def test_zero_state_has_no_branches():
    # the walk carries a level with no live node through to no leaves
    state = PureState(np.zeros(32), normalized=False)
    assert list(measure_branches(state, default_pairing(5))) == []


def test_each_tree_node_is_contracted_once(monkeypatch):
    calls = []
    components = measure._components

    def counting(*args):
        calls.append(args)
        return components(*args)

    monkeypatch.setattr(measure, "_components", counting)
    state = random_state(9, 2, 7)
    branches = list(measure_branches(state, default_pairing(9)))
    assert len(branches) == 256  # a generic state leaves every branch possible
    # one batched contraction per level, over every live node of that level
    assert [len(stack) for stack, _, _ in calls] == [1, 4, 16, 64]


# ---------------------------------------------------------------------------
# sampling: one cdf search per uniform draw


@st.composite
def weight_rows(draw):
    """1 to 4 rows of 2 to 25 non-negative weights, with zeros, none all zero."""
    k = draw(st.integers(2, 25))
    weight = st.just(0.0) | st.floats(0.0, 1.0)
    row = st.lists(weight, min_size=k, max_size=k).filter(lambda w: sum(w) > 0)
    return np.array(draw(st.lists(row, min_size=1, max_size=4)))


@PROPERTY
@given(weight_rows(), seeds)
def test_choose_is_generator_choice(probs, seed):
    gens = [np.random.default_rng(seed), np.random.default_rng(seed)]
    want = [gens[1].choice(len(p), p=p / p.sum()) for p in probs]
    assert measure._choose(probs[0], gens[0].random()) == want[0]
    assert list(measure._choose(probs[1:], gens[0].random(len(probs) - 1))) == want[1:]
    assert same_stream(*gens)


@pytest.mark.parametrize("probs", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], [-0.5, 1.0]])
def test_choose_refuses_what_choice_refuses(probs):
    probs = np.array(probs)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(2, p=probs / probs.sum())
        with pytest.raises(ValueError):
            measure._choose(probs, 0.5)


# ---------------------------------------------------------------------------
# the fig2 scatter, sampled as one batch


def old_fig2_run(trials, seed):
    """Sampled fig2_run before batching: one teleport per (trial, class)."""
    rows = []
    for t, ss in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(ss)
        client = random_state(1, 2, rng)
        channel, kind = sample_scatter_channel(rng)
        omega = order_parameter(channel).omega
        for cls in BELL_CLASSES:
            res = old_teleport(client, channel, cls, rng=rng)
            rows.append(
                Fig2Row(t, cls, float(omega[cls]), res.record.aggregate_class, res.fidelity, kind)
            )
    return rows


@PROPERTY
@given(st.integers(1, 24), seeds)
def test_fig2_run_matches_per_trial_teleports(trials, seed):
    # Fig2Row equality compares every float with ==
    assert fig2_run(trials, seed) == old_fig2_run(trials, seed)


# ---------------------------------------------------------------------------
# the fig2 scatter, its clients and channels sampled a block of trials at a time


def old_scatter_channel(rng):
    """The channel sampler before it ran a block of trials at a time, one
    trial's draws after another: (amplitudes, kind, Omega_c, Haar draws)."""
    draws = 0
    if rng.random() < 0.5:
        cls = BELL_CLASSES[rng.integers(4)]
        while True:
            draws += 1
            projected = _class_component(_haar(16, rng), *cls)
            norm = float(np.linalg.norm(projected))
            if norm > 1e-6:
                amps = projected / norm
                omega = _omega(*_expectations(amps).tolist())
                return amps, f"pure-class {format_sign_pair(cls)}", omega, draws
    while True:
        draws += 1
        amps = _haar(16, rng)
        omega = _omega(*_expectations(amps).tolist())
        if max(omega.values()) <= 0.98:
            return amps, "haar", omega, draws


def old_fig2_generators(trials, seed, enumerate_branches=False):
    """Each trial's generator after fig2_run's draws, one trial at a time,
    with the kind of its channel and the Haar draws the channel took."""
    out = []
    for ss in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(ss)
        _haar(2, rng)  # the client
        _, kind, _, draws = old_scatter_channel(rng)
        if not enumerate_branches:
            rng.random(8)  # the uniforms of four teleports over two Bell pairs
        out.append((rng, kind, draws))
    return out


# Ten trials of each seed, in blocks of three, hold both channel kinds and
# Haar draws refused once and twice, so that blocks run rounds of every size.
BLOCK_SEEDS = (5, 76)


def test_block_seeds_hold_both_kinds_and_twice_refused_haar_draws():
    trials = [t for seed in BLOCK_SEEDS for t in old_fig2_generators(10, seed)]
    assert {kind.split()[0] for _, kind, _ in trials} == {"haar", "pure-class"}
    assert any(kind == "haar" and draws >= 3 for _, kind, draws in trials)
    assert any(kind == "haar" and draws == 2 for _, kind, draws in trials)


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_fig2_run_in_blocks_matches_per_trial_teleports(monkeypatch, seed):
    monkeypatch.setattr(protocol, "_FIG2_BLOCK", 3)  # blocks of 3, 3, 3 and 1 trials
    assert fig2_run(10, seed) == old_fig2_run(10, seed)


@pytest.mark.parametrize("enumerate_branches", [False, True])
@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_fig2_run_leaves_each_trial_generator_as_the_per_trial_draws_do(
    monkeypatch, seed, enumerate_branches
):
    expected = old_fig2_generators(10, seed, enumerate_branches)
    made = []
    default_rng = np.random.default_rng

    def recording(seed_sequence):
        made.append(default_rng(seed_sequence))
        return made[-1]

    monkeypatch.setattr(protocol, "_FIG2_BLOCK", 3)
    monkeypatch.setattr(np.random, "default_rng", recording)
    fig2_run(10, seed, enumerate_branches=enumerate_branches)
    monkeypatch.undo()
    assert len(made) == 10
    for rng, (old, _, _) in zip(made, expected):
        assert rng.bit_generator.state == old.bit_generator.state


# the children of SeedSequence(seed).spawn, derived as one array

# seeds of 1 to 5 entropy words, at the edges of each word count
SEED_EDGES = [0, 2**32 - 1, 2**32, 2**128 - 1, 2**128]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.integers(0, 2**256 - 1), st.sampled_from(SEED_EDGES)),
    st.integers(0, 2100),
    st.integers(1, 40),
)
def test_child_states_are_the_spawned_seed_sequences_states(seed, start, count):
    spawned = np.random.SeedSequence(seed).spawn(start + count)[start:]
    states = protocol._child_states(seed, start, start + count)
    assert states.dtype == np.uint64 and states.shape == (count, 4)
    assert states.flags.c_contiguous  # PCG64 reads each row's memory
    for child, state in zip(spawned, states):
        assert np.array_equal(state, child.generate_state(4, np.uint64))


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 1, 2**200 + 9])
def test_generators_of_derived_seeds_are_the_spawned_generators(seed):
    spawned = np.random.SeedSequence(seed).spawn(1030)[1020:]
    states = protocol._child_states(seed, 1020, 1030)  # across the block boundary 1024
    for child, state in zip(spawned, states):
        new = np.random.default_rng(protocol._ChildSeed(state))
        old = np.random.default_rng(child)
        assert new.bit_generator.state == old.bit_generator.state
        assert np.array_equal(new.random(5), old.random(5))


def test_derived_seeds_refuse_what_seed_sequence_refuses():
    with pytest.raises(ValueError):
        protocol._child_states(-1, 0, 3)
    with pytest.raises(TypeError):
        protocol._child_states(1.5, 0, 3)


@PROPERTY
@given(seeds)
def test_block_sampler_matches_per_trial_sampler(seed):
    streams = np.random.SeedSequence(seed).spawn(12)
    rngs = [np.random.default_rng(ss) for ss in streams]
    old_rngs = [np.random.default_rng(ss) for ss in streams]
    channels, kinds, omegas = protocol._scatter_channels(rngs)
    for new, amps, kind, omega, old in zip(rngs, channels, kinds, omegas, old_rngs):
        old_amps, old_kind, old_omega, _ = old_scatter_channel(old)
        assert np.array_equal(amps.view(np.uint64), old_amps.view(np.uint64))
        kind, omega = protocol._KINDS[kind], dict(zip(BELL_CLASSES, omega.tolist()))
        assert (kind, omega) == (old_kind, old_omega)  # floats compared with ==
        assert new.bit_generator.state == old.bit_generator.state


@PROPERTY
@given(seeds)
def test_normals_drawn_at_once_are_the_normals_drawn_in_turn(seed):
    # the block sampler takes a client's 2 + 2 and a Haar draw's 16 + 16 at once
    at_once, in_turn = np.random.default_rng(seed), np.random.default_rng(seed)
    for half in (2, 16):
        joined = np.concatenate([in_turn.standard_normal(half) for _ in range(2)])
        drawn = at_once.standard_normal(2 * half)
        assert np.array_equal(drawn.view(np.uint64), joined.view(np.uint64))
    assert at_once.bit_generator.state == in_turn.bit_generator.state


# ---------------------------------------------------------------------------
# sampled teleports of one channel, as one shared-prefix walk


@st.composite
def sampled_case(draw):
    """(client, channel, assumed class, pairing, trials): a random channel of
    up to 10 qubits, or a pure-class one on which most runs share a prefix."""
    kind = draw(st.sampled_from(("random", "ghz", "singlet-random")))
    sizes = [4, 6, 8, 10] if kind == "singlet-random" else [2, 4, 6, 8, 10]
    L = draw(st.sampled_from(sizes))
    spec = f"{kind}:{L}:{draw(seeds)}" if "random" in kind else f"{kind}:{L}"
    pairing = None
    if draw(st.booleans()):
        order = draw(st.permutations(range(L + 1)))
        pairing = [(order[2 * i], order[2 * i + 1]) for i in range(L // 2)]
    return (
        random_state(1, 2, draw(seeds)),
        build(parse_channel_spec(spec)),
        draw(st.sampled_from(BELL_CLASSES)),
        pairing,
        draw(st.integers(1, 64)),
    )


@PROPERTY
@given(sampled_case(), seeds)
def test_teleport_samples_matches_successive_teleports(case, seed):
    client, channel, assumed, pairing, trials = case
    gens = [np.random.default_rng(seed), np.random.default_rng(seed)]
    new = list(
        teleport_samples(client, channel, assumed, pairing, trials=trials, rng=gens[0])
    )
    old = [old_teleport(client, channel, assumed, pairing, rng=gens[1]) for _ in range(trials)]
    assert len(new) == len(old)
    for res, old_res in zip(new, old):
        assert_same_record(res.record, old_res.record)
        assert np.array_equal(res.correction, old_res.correction)
        assert np.array_equal(
            res.recipient_state.amplitudes, old_res.recipient_state.amplitudes
        )
        assert res.recipient_state.normalized == old_res.recipient_state.normalized
        assert res.fidelity == old_res.fidelity
    assert gens[0].bit_generator.state == gens[1].bit_generator.state


def test_teleport_samples_hold_at_most_one_state_per_level():
    # 1,000 runs over 7 pairs: a walk that kept one node per run would
    # hold 1,000 x 2^13 amplitudes (125 MiB) after its first level
    channel = build(parse_channel_spec("random:14:1"))
    client = random_state(1, 2, 0)
    total_bytes = 16 * 2**15  # client (x) channel, 512 KiB
    tracemalloc.start()
    try:
        runs = teleport_samples(client, channel, (1, 1), trials=1000, rng=2)
        for _ in runs:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * total_bytes


# ---------------------------------------------------------------------------
# three-qubit channels


@st.composite
def trio_case(draw):
    """(client, channel, mode, forced); reduced-mode channels stay in one class."""
    client = random_state(1, 2, draw(seeds))
    mode = draw(st.sampled_from(["full", "reduced"]))
    rng = np.random.default_rng(draw(seeds))
    if mode == "full":
        channel = random_state(3, 2, rng)
        forced = draw(st.none() | st.sampled_from(BELL3_LABELS))
    else:
        j, l = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
        alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alpha /= np.linalg.norm(alpha)
        amps = alpha[0] * bell3_state((j, 1, l)).amplitudes
        amps = amps + alpha[1] * bell3_state((j, -1, l)).amplitudes
        channel = PureState(amps)
        forced = draw(st.none() | st.sampled_from([lab[:2] for lab in BELL_LABELS]))
    return client, channel, mode, forced


@PROPERTY
@given(trio_case(), seeds)
def test_teleport3_matches_oracle(case, seed):
    client, channel, mode, forced = case
    gens = [np.random.default_rng(seed), np.random.default_rng(seed)]
    new, old = run_both(
        lambda: teleport3(client, channel, (1, 1), mode, forced=forced, rng=gens[0]),
        lambda: old_teleport3_measure(client, channel, mode, forced=forced, rng=gens[1]),
    )
    if new is None:
        return
    label, prob, residual = old
    (outcome,) = new.record.outcomes
    assert outcome.label == label
    assert abs(outcome.probability - prob) <= TOL
    # Bob's gate acts on the old residual exactly as on the new one
    recipient = new.correction @ residual
    assert np.max(np.abs(new.recipient_state.amplitudes - recipient)) <= TOL
    assert same_stream(*gens)


def test_teleport3_full_mode_rejects_a_pair():
    client = random_state(1, 2, 3)
    channel = bell3_state((1, 1, 1))
    for mode, forced in (("full", (1, 1)), ("reduced", (1, 1, 1))):
        with pytest.raises(ValueError, match=f"{mode}-mode forced outcome"):
            teleport3(client, channel, (1, 1), mode, forced=forced)


# ---------------------------------------------------------------------------
# qudit pairs


@st.composite
def qudit_case(draw):
    d = draw(st.integers(2, 5))
    max_sites = {2: 9, 3: 5, 4: 4, 5: 4}[d]
    n = draw(st.integers(3, max_sites))
    a, b = draw(st.permutations(range(n)))[:2]
    forced = draw(st.none() | st.tuples(st.integers(-d, 2 * d), st.integers(-d, 2 * d)))
    if draw(st.booleans()):
        state = random_state(n, d, draw(seeds))
    else:  # a generalized Bell pair on (a, b): all other outcomes impossible
        rest = random_state(n - 2, d, draw(seeds))
        pair = qudit_bell(d, draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1)))
        t = np.multiply.outer(pair.as_tensor(), rest.as_tensor())
        state = PureState(np.moveaxis(t, (0, 1), (a, b)).reshape(-1), local_dim=d)
    return state, a, b, forced


@PROPERTY
@given(qudit_case(), seeds)
def test_qudit_bell_measure_matches_oracle(case, seed):
    state, a, b, forced = case
    gens = [np.random.default_rng(seed), np.random.default_rng(seed)]
    new, old = run_both(
        lambda: qudit_bell_measure(state, a, b, forced=forced, rng=gens[0]),
        lambda: old_qudit_bell_measure(state, a, b, forced=forced, rng=gens[1]),
    )
    if new is None:
        return
    (outcome, residual), (label, prob, old_residual) = new, old
    assert outcome.label == label and outcome.pair == (a, b)
    assert abs(outcome.probability - prob) <= TOL
    assert np.max(np.abs(residual.amplitudes - old_residual)) <= TOL
    assert same_stream(*gens)
