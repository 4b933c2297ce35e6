"""Teleportation protocol, order parameter, fidelity formula and bounds."""

import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellport.algebra import u_matrix, x_operator
from bellport.bell import (
    BELL_CLASSES,
    BELL_LABELS,
    bell_basis_state,
    bell_state,
    class_projector_apply,
    decompose_classes,
    format_sign_pair,
    labels_class,
)
from bellport.channels import cluster_state, ghz_state, singlet_random
from bellport.measure import ImpossibleOutcomeError, outcome_distribution
from bellport.protocol import (
    _KINDS,
    _scatter_channels,
    correction_gate,
    fidelity_formula,
    fig2_run,
    fig2_violations,
    min_fidelity_scan,
    order_parameter,
    outcome_probability_formula,
    rotation_gate,
    sample_scatter_channel,
    teleport,
    teleport_branches,
    teleport_samples,
)
from bellport.states import (
    PureState,
    apply_local,
    normalize,
    overlap_fidelity,
    qubit_ket,
    random_product_state,
    random_state,
    tensor,
)


def all_branches(n_pairs):
    return list(product(BELL_LABELS, repeat=n_pairs))


def test_correction_gate_identity_and_u3():
    assert np.array_equal(correction_gate((1, 1), (1, 1)), np.eye(2))
    # channel [+:+], measurement [-:-]: correction is U3^dag up to sign
    gate = correction_gate((1, 1), (-1, -1))
    u3d = u_matrix(3).conj().T
    assert np.array_equal(gate, u3d) or np.array_equal(gate, -u3d)


def test_correction_gate_unitary():
    for cls, mcls in product(BELL_CLASSES, repeat=2):
        g = correction_gate(cls, mcls)
        assert np.allclose(g @ g.conj().T, np.eye(2), atol=1e-14)


def test_singlet_correction_matches_dimer_composition():
    # D = X^{--}_{p1 q1} ... X^{--}_{pL qL} agrees with the class gate up to phase
    client = random_state(1, 2, 70)
    n_pairs = 3
    channel = bell_basis_state([(-1, -1)] * n_pairs)
    for branch in [((1, 1), (-1, 1), (1, -1)), ((-1, -1), (-1, 1), (-1, -1))]:
        res = teleport(client, channel, ((-1) ** n_pairs, (-1) ** n_pairs),
                       forced=branch)
        assert abs(res.fidelity - 1.0) < 1e-12
        d = np.eye(2, dtype=complex)
        for p, q in branch:
            d = d @ x_operator(-1, -1, p, q)
        recovered = apply_local(res.recipient_state, np.linalg.inv(res.correction), 0)
        fixed = apply_local(recovered, d, 0)
        assert abs(overlap_fidelity(fixed, client) - 1.0) < 1e-12


def test_bell_basis_channels_teleport_perfectly():
    client = random_state(1, 2, 71)
    for labels in (((1, 1), (-1, -1)), ((1, -1), (-1, 1)), ((-1, 1), (1, 1))):
        channel = bell_basis_state(labels)
        cls = labels_class(labels)
        for branch in all_branches(2):
            res = teleport(client, channel, cls, forced=branch)
            assert abs(res.fidelity - 1.0) < 1e-10
            assert res.record.aggregate_class == (
                branch[0][0] * branch[1][0],
                branch[0][1] * branch[1][1],
            )


def test_random_singlet_channels_teleport_perfectly():
    client = random_state(1, 2, 72)
    channel = singlet_random(2, seed=73)
    for branch in all_branches(2):
        res = teleport(client, channel, (1, 1), forced=branch)
        assert abs(res.fidelity - 1.0) < 1e-10


def test_pairing_and_order_invariance_for_class_channels():
    rng = np.random.default_rng(74)
    client = random_state(1, 2, rng)
    channel = normalize(class_projector_apply(random_state(4, 2, rng), (-1, 1)))
    pairings = [
        ((0, 1), (2, 3)),   # default, recipient 4
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
        ((2, 3), (0, 1)),   # reversed order
        ((1, 4), (2, 3)),   # recipient 0's neighbour measured with Bob's end
    ]
    for pairing in pairings:
        for branch in all_branches(2):
            try:
                res = teleport(client, channel, (-1, 1), pairing, forced=branch)
            except ImpossibleOutcomeError:
                continue
            assert abs(res.fidelity - 1.0) < 1e-10


def test_cluster_channel_fails_some_branch():
    client = random_state(1, 2, 75)
    channel = cluster_state(4)
    worst = 1.0
    for branch in all_branches(2):
        try:
            res = teleport(client, channel, (1, 1), forced=branch)
        except ImpossibleOutcomeError:
            continue
        worst = min(worst, res.fidelity)
    assert worst < 1.0 - 1e-6


def test_teleport_validates_inputs():
    client = random_state(1, 2, 76)
    channel = random_state(4, 2, 77)
    cases = [  # (client, channel, assumed class, pairing), and the message
        ((random_state(2, 2, 78), channel, (1, 1), None), "client must be a single qubit"),
        ((random_state(1, 4, 78), channel, (1, 1), None), "client must be a single qubit"),
        ((client, random_state(3, 2, 79), (1, 1), None), "channel must have an even number"),
        ((client, random_state(2, 4, 80), (1, 1), None), "local dimensions differ: 2 vs 4"),
        ((client, channel, (1, 1), [(0, 1)]), "pairing must cover all sites except the"),
        ((client, channel, (1, 1), [(0, 1), (1, 2)]), "measurement pairs overlap"),
        ((client, channel, (1, 1), [(0, 1), (2, 9)]), "sites (2, 9) out of range for 5 sites"),
        ((client, channel, (2, 1), None), "sign label must be +1 or -1, got 2"),
        ((client, channel, (1, -3), None), "sign label must be +1 or -1, got -3"),
    ]
    calls = [
        teleport,
        teleport_branches,
        lambda *args: teleport_samples(*args, trials=3, rng=0),
    ]
    for (args, message), call in product(cases, calls):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(*args)  # raised at the call, before any result is read
    for forced in [5, [(1, 1)], [(1, 1)] * 3]:  # one label per pair, or a ValueError
        with pytest.raises(ValueError, match="one forced label \\(or None\\) is needed per pair"):
            teleport(client, channel, (1, 1), forced=forced)


def test_order_parameter_reference_states():
    assert abs(order_parameter(ghz_state(4)).efficiency - 1.0) < 1e-12
    assert abs(order_parameter(qubit_ket([1, 1, 1, 1])).efficiency - 1 / 3) < 1e-12
    reps = [
        bell_basis_state([(1, 1), (1, 1)]).amplitudes,
        bell_basis_state([(1, 1), (1, -1)]).amplitudes,
        bell_basis_state([(1, 1), (-1, 1)]).amplitudes,
        bell_basis_state([(1, 1), (-1, -1)]).amplitudes,
    ]
    combo = PureState(sum(reps) / 2.0)
    assert abs(order_parameter(combo).efficiency) < 1e-12


def test_order_parameter_internal_consistency():
    rng = np.random.default_rng(80)
    s = random_state(4, 2, rng)
    op = order_parameter(s)
    assert abs(op.efficiency - float(op.t_vector @ op.t_vector)) < 1e-12
    dec = decompose_classes(s)
    quartic = sum(c**4 for c in dec.coefficients.values())
    assert abs(op.efficiency - (4.0 * quartic - 1.0) / 3.0) < 1e-10
    for cls in BELL_CLASSES:
        weight = dec.coefficients[cls] ** 2
        assert abs(weight - (1.0 + op.omega[cls]) / 4.0) < 1e-10


def test_every_bell_product_has_unit_efficiency():
    for labels in all_branches(2):
        eff = order_parameter(bell_basis_state(labels)).efficiency
        assert abs(eff - 1.0) < 1e-10


def test_product_states_respect_efficiency_bound():
    rng = np.random.default_rng(81)
    for _ in range(200):
        s = random_product_state(4, 2, rng)
        assert order_parameter(s).efficiency <= 1 / 3 + 1e-12


def test_single_qubit_spin_identity():
    # <U1>^2 + <U2>^2 - <U3>^2 = 1 for every pure qubit state
    rng = np.random.default_rng(82)
    for _ in range(100):
        v = random_state(1, 2, rng)
        evs = [
            complex(np.vdot(v.amplitudes, u_matrix(a) @ v.amplitudes))
            for a in (1, 2, 3)
        ]
        total = evs[0] ** 2 + evs[1] ** 2 - evs[2] ** 2
        assert abs(total - 1.0) < 1e-12


def test_efficiency_above_third_witnesses_entanglement():
    # Haar states rarely clear 1/3, so bias draws toward one Bell class
    rng = np.random.default_rng(83)
    found = 0
    for _ in range(50):
        draw = random_state(4, 2, rng)
        cls = BELL_CLASSES[rng.integers(4)]
        kept = class_projector_apply(draw, cls)
        mix = rng.uniform(0.5, 1.0)
        s = normalize(
            PureState(
                mix * kept.amplitudes / np.linalg.norm(kept.amplitudes)
                + (1 - mix) * draw.amplitudes,
                normalized=False,
            )
        )
        if order_parameter(s).efficiency <= 1 / 3:
            continue
        found += 1
        # not a product state: some site is mixed after tracing the rest
        t = s.as_tensor()
        purities = []
        for site in range(4):
            m = np.moveaxis(t, site, 0).reshape(2, -1)
            rho = m @ m.conj().T
            purities.append(float(np.real(np.trace(rho @ rho))))
        assert min(purities) < 1.0 - 1e-9
    assert found > 0


def test_rotation_gate_unitary_for_real_axis():
    gate = rotation_gate(0.7, (0.6, 0.8, 0.0))
    assert np.allclose(gate @ gate.conj().T, np.eye(2), atol=1e-12)
    assert np.allclose(rotation_gate(0.0, (1, 0, 0)), np.eye(2))


def test_fidelity_formula_perfect_channel():
    client = random_state(1, 2, 84)
    for lab in BELL_LABELS:
        for outcome in BELL_LABELS:
            f = fidelity_formula(client, bell_state(lab), lab, outcome)
            assert abs(f - 1.0) < 1e-12


def test_fidelity_formula_matches_simulation():
    rng = np.random.default_rng(85)
    for _ in range(20):
        client = random_state(1, 2, rng)
        channel = random_state(2, 2, rng)
        assumed = BELL_LABELS[rng.integers(4)]
        for outcome in BELL_LABELS:
            prob = outcome_probability_formula(client, channel, outcome)
            dist = outcome_distribution(tensor(client, channel), 0, 1)
            assert abs(prob - dist[outcome]) < 1e-12
            if prob < 1e-12:
                continue
            f = fidelity_formula(client, channel, assumed, outcome)
            res = teleport(client, channel, assumed, forced=[outcome])
            assert abs(f - res.fidelity) < 1e-10


def test_fidelity_formula_rotated_channel_bound():
    # channel (I (x) R(theta, real n)) |r:s}: F >= 2 cos^2(theta/2) - 1
    rng = np.random.default_rng(86)
    for theta in (0.3, 0.9, 1.5):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        gate = rotation_gate(theta, axis)
        for rs in BELL_LABELS:
            channel = apply_local(bell_state(rs), gate, 1)
            client = random_state(1, 2, rng)
            for outcome in BELL_LABELS:
                f = fidelity_formula(client, channel, rs, outcome)
                assert f >= 2 * np.cos(theta / 2) ** 2 - 1 - 1e-10


def test_fidelity_formula_impossible_branch():
    # product channel |+,+> with client |+>: the pair (0,1) sits in |+,+>,
    # which has no |+:-} component
    client = qubit_ket([1])
    channel = qubit_ket([1, 1])
    assert outcome_probability_formula(client, channel, (1, -1)) < 1e-14
    with pytest.raises(ImpossibleOutcomeError):
        fidelity_formula(client, channel, (1, 1), (1, -1))


@pytest.mark.parametrize("theta,expected", [(np.pi / 3, 0.5), (0.0, 1.0)])
def test_min_fidelity_scan_values(theta, expected):
    res = min_fidelity_scan(theta)
    assert abs(res.minimum - expected) < 1e-3


def test_min_fidelity_scan_argmin_structure():
    theta = 1.0
    res = min_fidelity_scan(theta)
    assert res.c_mag < 0.05
    assert abs(res.a.imag) < 0.05
    assert abs(res.a.real - (np.cos(theta) - 1.0) / np.sin(theta)) < 0.05
    with pytest.raises(ValueError):
        min_fidelity_scan(3.5)


def old_min_fidelity_scan(theta, grid_points=121, refinements=2):
    """The scan as it evaluated full meshgrids and built a result per pass."""
    c2, s2 = np.cos(theta / 2.0), np.sin(theta / 2.0)

    def evaluate(re_a, im_a, frac):
        a = re_a + 1j * im_a
        abs_a2 = np.abs(a) ** 2
        leftover = 2.0 * np.clip(1.0 - abs_a2, 0.0, None)
        b2 = leftover * frac
        num = np.abs(c2 + a * s2) ** 2
        delta = num / (num + b2 * s2**2)
        delta = np.where(abs_a2 > 1.0, np.inf, delta)
        return delta, b2, leftover * (1.0 - frac)

    lo = np.array([-1.0, -1.0, 0.0])
    hi = np.array([1.0, 1.0, 1.0])
    best = None
    for _ in range(refinements + 1):
        axes = [np.linspace(lo[i], hi[i], grid_points) for i in range(3)]
        grids = np.meshgrid(*axes, indexing="ij")
        delta, b2, cc2 = evaluate(*grids)
        i = np.unravel_index(np.argmin(delta), delta.shape)
        best = (
            float(theta),
            float(delta[i]),
            complex(grids[0][i] + 1j * grids[1][i]),
            float(np.sqrt(b2[i])),
            float(np.sqrt(cc2[i])),
        )
        center = np.array([grids[0][i], grids[1][i], grids[2][i]])
        span = (hi - lo) * (2.0 / (grid_points - 1))
        lo = np.maximum(center - span, [-1.0, -1.0, 0.0])
        hi = np.minimum(center + span, [1.0, 1.0, 1.0])
    return best


def scan_fields(res):
    return (res.theta, res.minimum, res.a, res.b_mag, res.c_mag)


SCAN_THETAS = [
    *np.linspace(0.0, np.pi, 41, endpoint=False),
    np.pi / 2,
    np.nextafter(np.pi / 2, 0.0),
    np.nextafter(np.pi, 0.0),
]


@pytest.mark.parametrize("refinements", range(4))
@pytest.mark.parametrize("grid_points", [3, 11, 31])
def test_min_fidelity_scan_is_the_meshgrid_scan_bit_for_bit(grid_points, refinements):
    for theta in SCAN_THETAS:
        new = min_fidelity_scan(theta, grid_points, refinements)
        old = old_min_fidelity_scan(theta, grid_points, refinements)
        assert repr(scan_fields(new)) == repr(old), theta


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 1.0471975512, np.pi / 2, 2.5])
def test_min_fidelity_scan_defaults_are_the_meshgrid_scan_bit_for_bit(theta):
    assert repr(scan_fields(min_fidelity_scan(theta))) == repr(old_min_fidelity_scan(theta))


@pytest.mark.parametrize("grid_points", [1, 2])
def test_min_fidelity_scan_refuses_fewer_than_three_grid_points(grid_points):
    with pytest.raises(ValueError, match="grid_points"):
        min_fidelity_scan(1.0, grid_points=grid_points)


def test_min_fidelity_scan_refuses_negative_refinements():
    with pytest.raises(ValueError, match="refinements"):
        min_fidelity_scan(1.0, refinements=-1)


def test_fig2_rows_respect_bound_and_cover_range():
    rows = fig2_run(trials=150, seed=7)
    assert len(rows) == 600
    assert not fig2_violations(rows)
    omegas = [r.omega for r in rows]
    assert max(omegas) > 2.5
    assert min(omegas) < 0.0
    fidelities = [r.fidelity for r in rows if r.omega > 2.9]
    assert fidelities and min(fidelities) > 1.0 - 1e-9


def test_fig2_bound_holds_within_every_measured_class():
    rows = fig2_run(trials=100, seed=8)
    by_class = {}
    for r in rows:
        by_class.setdefault(tuple(r.measured_class), []).append(r)
    assert len(by_class) == 4
    for group in by_class.values():
        assert not fig2_violations(group)


def test_fig2_deterministic():
    a = fig2_run(trials=20, seed=9)
    b = fig2_run(trials=20, seed=9)
    assert a == b


def test_fig2_enumerated_branches_respect_bound():
    # verification mode: even improbable branches must clear the bound
    rows = fig2_run(trials=25, seed=13, enumerate_branches=True)
    assert len(rows) > 25 * 4  # many branches per (trial, class)
    assert not fig2_violations(rows)


def test_scatter_channel_sampler_components():
    rng = np.random.default_rng(10)
    kinds = set()
    for _ in range(40):
        channel, kind = sample_scatter_channel(rng)
        kinds.add(kind.split()[0])
        omega = order_parameter(channel).omega
        if kind == "haar":
            assert max(omega.values()) <= 0.98
        else:
            assert max(omega.values()) > 3.0 - 1e-9
    assert kinds == {"haar", "pure-class"}


def old_sample_scatter_channel(rng):
    """The scatter sampler before it ran on raw amplitudes."""
    if rng.random() < 0.5:
        cls = BELL_CLASSES[rng.integers(4)]
        tag = format_sign_pair(cls)
        while True:
            draw = random_state(4, 2, rng)
            projected = class_projector_apply(draw, cls)
            if projected.norm() > 1e-6:
                return normalize(projected), f"pure-class {tag}"
    while True:
        draw = random_state(4, 2, rng)
        if max(order_parameter(draw).omega.values()) <= 0.98:
            return draw, "haar"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_raw_scatter_sampler_matches_state_sampler(seed):
    old_rng, new_rng, public_rng = (np.random.default_rng(seed) for _ in range(3))
    old, old_kind = old_sample_scatter_channel(old_rng)
    (amps,), (kind,), (omega,) = _scatter_channels([new_rng])
    channel, public_kind = sample_scatter_channel(public_rng)
    assert _KINDS[kind] == public_kind == old_kind
    assert np.array_equal(amps.view(np.uint64), old.amplitudes.view(np.uint64))
    assert np.array_equal(channel.amplitudes.view(np.uint64), amps.view(np.uint64))
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    assert public_rng.bit_generator.state == old_rng.bit_generator.state
    omega = dict(zip(BELL_CLASSES, omega.tolist()))
    assert omega == order_parameter(channel).omega  # dict of floats, compared with ==


# ---------------------------------------------------------------------------
# mean fidelity: f = (d F + 1) / (d + 1) with F the class weight (1 + Omega_c) / 4

# +-x, +-y, +-z: a qubit 3-design, so their mean of a degree-2 quantity is the Haar mean
OCTAHEDRAL_CLIENTS = [
    PureState(np.array(v, dtype=complex) / np.linalg.norm(v))
    for v in ([1, 1], [1, -1], [1, 1j], [1, -1j], [1, 0], [0, 1])
]


# the default pairing of each channel size, then others that leave another
# site (the client's own, too) as the recipient
PAIRINGS = {
    2: [None, ((1, 2),), ((0, 2),)],
    4: [None, ((0, 2), (1, 3)), ((1, 2), (0, 3)), ((3, 4), (0, 1)), ((0, 1), (2, 4))],
    6: [None],
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("L", [2, 4, 6])
def test_mean_branch_fidelity_is_the_order_parameter_law(L, seed):
    # probability-weighted fidelity over every branch, averaged over the
    # clients, is (3 + Omega_c) / 6 for any channel, pairing and assumed class c
    channel = random_state(L, 2, 100 * L + seed)
    omega = order_parameter(channel).omega
    for pairing, cls in product(PAIRINGS[L], BELL_CLASSES):
        mean = np.mean(
            [
                sum(
                    res.record.joint_probability * res.fidelity
                    for res in teleport_branches(client, channel, cls, pairing)
                )
                for client in OCTAHEDRAL_CLIENTS
            ]
        )
        assert abs(mean - (3.0 + omega[cls]) / 6.0) <= 1e-12, pairing
