"""Bell measurements: distributions, collapse, sequences, Appendix-A probabilities."""

import re
import tracemalloc
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellport import measure
from bellport.bell import (
    BELL_CLASSES,
    BELL_LABELS,
    bell_basis_state,
    bell_state,
    class_projector_apply,
    labels_class,
)
from bellport.channels import build, parse_channel_spec
from bellport.measure import (
    _BELL_BRA,
    ImpossibleOutcomeError,
    _possible,
    _Sampled,
    _walk,
    bell_measure,
    measure_sequence,
    outcome_distribution,
)
from bellport.protocol import teleport
from bellport.qudit import qudit_bell_measure, qudit_teleport
from bellport.states import (
    PureState,
    normalize,
    overlap_fidelity,
    qubit_ket,
    random_state,
    tensor,
)
from bellport.threequbit import bell3_state, teleport3


def appendix_a_channel(phi):
    amps = np.cos(phi) * np.kron(
        bell_state((1, -1)).amplitudes, bell_state((-1, 1)).amplitudes
    ) + np.sin(phi) * np.kron(
        bell_state((-1, 1)).amplitudes, bell_state((1, -1)).amplitudes
    )
    return PureState(amps)


def dense_pair_projector(label, a, b, n):
    """Oracle: |label><label| on sites (a, b) as a full matrix."""
    dim = 2**n
    bell = bell_state(label).amplitudes.reshape(2, 2)
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - s)) & 1 for s in range(n)]
        overlap = np.conj(bell[bits[a], bits[b]])
        if not overlap:
            continue
        for xa in range(2):
            for xb in range(2):
                nb = list(bits)
                nb[a], nb[b] = xa, xb
                row = int("".join(map(str, nb)), 2)
                mat[row, col] += bell[xa, xb] * overlap
    return mat


def test_distribution_uniform_for_client_and_bell():
    v = random_state(1, 2, 40)
    for lab in BELL_LABELS:
        dist = outcome_distribution(tensor(v, bell_state(lab)), 0, 1)
        for p in dist.values():
            assert abs(p - 0.25) < 1e-12


def test_distribution_on_own_pair_is_certain():
    labels = [BELL_LABELS[2], BELL_LABELS[1]]
    state = bell_basis_state(labels)
    dist = outcome_distribution(state, 0, 1)
    assert abs(dist[labels[0]] - 1.0) < 1e-12
    dist2 = outcome_distribution(state, 2, 3)
    assert abs(dist2[labels[1]] - 1.0) < 1e-12


def test_distribution_sums_to_one_and_matches_projector_oracle():
    rng = np.random.default_rng(41)
    s = random_state(4, 2, rng)
    for a, b in ((0, 1), (1, 3), (2, 0)):
        dist = outcome_distribution(s, a, b)
        assert abs(sum(dist.values()) - 1.0) < 1e-12
        for lab, p in dist.items():
            proj = dense_pair_projector(lab, a, b, 4)
            expected = np.linalg.norm(proj @ s.amplitudes) ** 2
            assert abs(p - expected) < 1e-12


def test_distribution_rejects_coincident_sites():
    with pytest.raises(ValueError):
        outcome_distribution(qubit_ket([1, 1]), 1, 1)


def test_bell_measure_forced_collapse_matches_projector_oracle():
    rng = np.random.default_rng(42)
    s = random_state(3, 2, rng)
    outcome, post = bell_measure(s, 0, 2, forced=(-1, 1))
    proj = dense_pair_projector((-1, 1), 0, 2, 3)
    expected = proj @ s.amplitudes
    expected /= np.linalg.norm(expected)
    assert np.allclose(post.amplitudes, expected, atol=1e-12)
    assert outcome.pair == (0, 2)


def test_teleport_identity_branches():
    # |v> (x) |+:+}: outcome (+,+) leaves |v>, outcome (-,-) leaves U3|v> up to sign
    v = random_state(1, 2, 43)
    total = tensor(v, bell_state((1, 1)))
    _, residual = measure_sequence(total, [(0, 1)], forced=[(1, 1)])
    assert abs(overlap_fidelity(residual, v) - 1.0) < 1e-12
    _, residual = measure_sequence(total, [(0, 1)], forced=[(-1, -1)])
    u3v = np.array([-v.amplitudes[1], v.amplitudes[0]])
    assert abs(abs(np.vdot(u3v, residual.amplitudes)) - 1.0) < 1e-12


def test_bell_measure_sampling_reproducible():
    rng_state = random_state(4, 2, 44)
    a = bell_measure(rng_state, 0, 1, rng=7)[0]
    b = bell_measure(rng_state, 0, 1, rng=7)[0]
    assert a == b


def test_forcing_impossible_outcome_raises():
    state = bell_basis_state([(1, 1)])
    with pytest.raises(ImpossibleOutcomeError):
        bell_measure(state, 0, 1, forced=(1, -1))


def test_measure_sequence_record_invariants():
    rng = np.random.default_rng(45)
    s = random_state(5, 2, rng)
    record, residual = measure_sequence(s, [(0, 1), (2, 3)], rng=rng)
    js = [o.label.j for o in record.outcomes]
    ks = [o.label.k for o in record.outcomes]
    assert record.aggregate_class == (np.prod(js), np.prod(ks))
    probs = [o.probability for o in record.outcomes]
    assert abs(record.joint_probability - np.prod(probs)) < 1e-12
    assert residual.num_sites == 1


def test_measure_sequence_rejects_overlap():
    s = random_state(5, 2, 46)
    with pytest.raises(ValueError):
        measure_sequence(s, [(0, 1), (1, 2)])


def test_measure_sequence_needs_leftover_site():
    s = random_state(4, 2, 47)
    with pytest.raises(ValueError):
        measure_sequence(s, [(0, 1), (2, 3)])


@pytest.mark.parametrize("phi", [0.0, 0.3, np.pi / 4, 1.2])
def test_appendix_a_outcome_probabilities(phi):
    # P(p1 q1 p2 q2) = (1 - p2 q2 sin 2phi) / 16, read off the expansion
    v = random_state(1, 2, 48)
    total = tensor(v, appendix_a_channel(phi))
    class_prob = {c: 0.0 for c in BELL_CLASSES}
    for lab1, lab2 in product(BELL_LABELS, repeat=2):
        expected = (1.0 - lab2.j * lab2.k * np.sin(2 * phi)) / 16.0
        try:
            record, _ = measure_sequence(total, [(0, 1), (2, 3)], forced=[lab1, lab2])
            prob = record.joint_probability
        except ImpossibleOutcomeError:
            prob = 0.0
        assert abs(prob - expected) < 1e-12
        class_prob[labels_class([lab1, lab2])] += prob
    for p in class_prob.values():
        assert abs(p - 0.25) < 1e-12


def test_appendix_a_zero_branches_at_quarter_pi():
    v = random_state(1, 2, 49)
    total = tensor(v, appendix_a_channel(np.pi / 4))
    zero = nonzero = 0
    for lab1, lab2 in product(BELL_LABELS, repeat=2):
        try:
            record, _ = measure_sequence(total, [(0, 1), (2, 3)], forced=[lab1, lab2])
            nonzero += 1
            assert abs(record.joint_probability - 0.125) < 1e-12
        except ImpossibleOutcomeError:
            zero += 1
    assert zero == 8 and nonzero == 8


def test_aggregate_class_uniform_for_class_channels():
    # every pairing and order: aggregate classes are equally likely
    rng = np.random.default_rng(50)
    v = random_state(1, 2, rng)
    channel = normalize(class_projector_apply(random_state(4, 2, rng), (1, -1)))
    total = tensor(v, channel)
    site_sets = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((3, 0), (4, 1))]
    for pairing in site_sets:
        for order in permutations(pairing):
            class_prob = {c: 0.0 for c in BELL_CLASSES}
            for lab1, lab2 in product(BELL_LABELS, repeat=2):
                try:
                    record, _ = measure_sequence(total, list(order), forced=[lab1, lab2])
                except ImpossibleOutcomeError:
                    continue
                class_prob[record.aggregate_class] += record.joint_probability
            for p in class_prob.values():
                assert abs(p - 0.25) < 1e-12


def test_fully_forced_sequence_builds_no_generator(monkeypatch):
    def no_generator(seed):
        raise AssertionError("a fully forced sequence needs no generator")

    monkeypatch.setattr(measure, "_as_rng", no_generator)
    v = random_state(1, 2, 52)
    channel = bell_basis_state([(1, -1), (-1, 1)])
    total = tensor(v, channel)
    record, _ = measure_sequence(total, [(0, 1), (2, 3)], forced=[(1, 1), (-1, 1)])
    assert record.aggregate_class == (-1, 1)
    res = teleport(v, channel, (-1, -1), forced=[(1, 1), (1, -1)])
    assert abs(res.fidelity - 1.0) < 1e-10
    with pytest.raises(AssertionError, match="no generator"):
        measure_sequence(total, [(0, 1), (2, 3)], forced=[(1, 1), None])


def test_sequence_builds_its_generator_before_reading_labels():
    # when some pair samples, a bad seed is reported ahead of a bad label
    total = random_state(5, 2, 53)
    pairs = [(0, 1), (2, 3)]
    with pytest.raises(TypeError):
        measure_sequence(total, pairs, forced=[(1, 2), None], rng="abc")
    with pytest.raises(ValueError):  # fully forced: no generator is built
        measure_sequence(total, pairs, forced=[(1, 2), (1, 1)], rng="abc")


def test_malformed_forced_outcomes_raise_one_value_error():
    # every single call reads its forced outcome with measure._forced_row
    bell = list(product((1, -1), repeat=2))
    trio = list(product((1, -1), repeat=3))
    qutrit = list(product(range(3), repeat=2))
    state, qutrits = random_state(3, 2, 54), random_state(3, 3, 55)
    client, channel = random_state(1, 2, 56), random_state(2, 2, 57)
    trio_channel = bell3_state((1, 1, 1))
    per_pair = "one forced label (or None) is needed per pair"
    cases = [  # the call, given the forced value, and its level's labels (or the message)
        (lambda f: bell_measure(state, 0, 1, forced=f), (2, 1), bell),
        (lambda f: bell_measure(state, 0, 1, forced=f), (1,), bell),
        (lambda f: bell_measure(state, 0, 1, forced=f), 7, bell),
        (lambda f: measure_sequence(state, [(0, 1)], forced=[f]), (1, 0), bell),
        (lambda f: measure_sequence(state, [(0, 1)], forced=f), 5, per_pair),
        (lambda f: teleport(client, channel, (1, 1), forced=[f]), (1, 1, 1), bell),
        (lambda f: teleport(client, channel, (1, 1), forced=f), 5, per_pair),
        (lambda f: teleport3(client, trio_channel, (1, 1), forced=f), (1, 1, 2), trio),
        (lambda f: teleport3(client, trio_channel, (1, 1), forced=f), 5, trio),
        (lambda f: teleport3(client, trio_channel, (1, 1), "reduced", forced=f), 5, bell),
        (lambda f: qudit_bell_measure(qutrits, 0, 1, forced=f), (1,), qutrit),
        (lambda f: qudit_teleport(random_state(1, 3, 58), (0, 0), forced=f), (1,), qutrit),
    ]
    for call, value, labels in cases:
        message = labels
        if not isinstance(labels, str):
            message = f"forced outcome {value!r} is none of {', '.join(map(str, labels))}"
        with pytest.raises(ValueError, match=re.escape(message)) as err:
            call(value)
        assert type(err.value) is ValueError  # not an ImpossibleOutcomeError


def test_localisable_entanglement_bell_class_states():
    # measuring any L-2 qubits of a class state leaves a Bell pair
    rng = np.random.default_rng(51)
    for L, cls in ((4, (1, 1)), (6, (-1, 1))):
        state = normalize(class_projector_apply(random_state(L, 2, rng), cls))
        sites = list(rng.permutation(L))
        pairs = [(sites[2 * i], sites[2 * i + 1]) for i in range((L - 2) // 2)]
        record, residual = measure_sequence(state, pairs, rng=rng)
        assert residual.num_sites == 2
        best = max(
            overlap_fidelity(residual, bell_state(lab)) for lab in BELL_LABELS
        )
        assert abs(best - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# the walk's bookkeeping: one (parent, row, prob) array per level


def old_walk(stack, levels, follow):
    """``_walk`` as it was: ``rows`` and ``probs`` regathered and extended by
    a concatenate at every level."""
    d = stack.shape[-1]
    sites = list(range(stack.ndim - 1))
    roots = np.arange(len(stack))
    rows = np.zeros((len(stack), 0), dtype=int)
    probs = np.zeros((len(stack), 0))
    amps = stack.reshape(len(stack), d ** len(sites))
    for i, (measured, bra) in enumerate(levels):
        stack = amps.reshape(len(amps), *(d,) * len(sites))
        comps, level = measure._components(stack, [sites.index(s) for s in measured], bra)
        pick = np.asarray(follow(i, level), dtype=int)
        node, row = np.divmod(pick, len(bra))
        prob = level.reshape(-1)[pick]
        sites = [s for s in sites if s not in measured]
        amps = comps.reshape(-1, comps.shape[2])[pick] / np.sqrt(prob)[:, None]
        roots = roots[node]
        rows = np.concatenate([rows[node], row[:, None]], axis=1)
        probs = np.concatenate([probs[node], prob[:, None]], axis=1)
    return roots, rows, probs, amps


def walk_case(spec, roots):
    """A stack of ``roots`` random clients times the channel of ``spec``, and
    its default Bell levels."""
    channel = build(parse_channel_spec(spec)).amplitudes
    clients = random_state(1, 2, 3).amplitudes * np.arange(1, roots + 1)[:, None] / roots
    sites = 1 + int(np.log2(channel.size))
    stack = (clients[:, :, None] * channel).reshape(roots, *(2,) * sites)
    return stack, [((i, i + 1), _BELL_BRA) for i in range(0, sites - 1, 2)]


@pytest.mark.parametrize("spec", ["random:8:1", "ghz:8", "aklt:6", "mg-dimers:8", "cluster1d:6"])
@pytest.mark.parametrize("sampled", [False, True])
def test_walk_matches_the_concatenating_walk(spec, sampled):
    stack, levels = walk_case(spec, 3)
    follows = [_possible, _possible]
    if sampled:  # 50 runs of each root, on the same uniforms
        u = np.random.default_rng(4).random((150, len(levels)))
        follows = [_Sampled(np.repeat(np.arange(3), 50), u) for _ in range(2)]
    new, old = _walk(stack, levels, follows[0]), old_walk(stack, levels, follows[1])
    for a, b in zip(new, old):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8))
    if sampled:
        assert np.array_equal(follows[0].at, follows[1].at)


@dataclass
class UniqueSampled:
    """_Sampled before its boolean table: np.unique over the (node, row) keys."""

    at: np.ndarray
    u: np.ndarray

    def __call__(self, i, probs):
        row = measure._choose(probs[self.at], self.u[:, i])
        pick, self.at = np.unique(self.at * probs.shape[1] + row, return_inverse=True)
        return pick


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_sampled_dedupe_matches_np_unique(roots, runs, seed):
    rng = np.random.default_rng(seed)
    at = np.sort(rng.integers(roots, size=runs))  # each run's root, sorted
    u = rng.random((runs, 3))
    new, old = measure._Sampled(at.copy(), u), UniqueSampled(at.copy(), u)
    nodes = roots
    for i in range(3):  # every level's probabilities, some rows impossible
        probs = rng.random((nodes, 4)) * (rng.random((nodes, 4)) < 0.8)
        probs[:, rng.integers(4)] += 0.01  # no node without a possible row
        pick, expected = new(i, probs), old(i, probs)
        assert np.array_equal(pick, expected) and pick.dtype == expected.dtype
        assert np.array_equal(new.at, old.at) and new.at.dtype == old.at.dtype
        nodes = len(pick)


def test_walk_peak_is_bounded_by_its_returned_arrays():
    # random:16:1 enumerated: 65,536 leaves over 8 levels, 10.5 MiB returned;
    # regathering rows and probs at every level peaked at 2.0x that
    stack, levels = walk_case("random:16:1", 1)
    _walk(stack, levels[:1], _possible)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        out = _walk(stack, levels, _possible)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in out)
    assert len(out[1]) == 4**8
    assert peak <= 1.6 * returned
