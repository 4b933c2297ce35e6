"""Three-qubit channel basis, Y operators, and both measurement modes."""

from itertools import product

import numpy as np
import pytest

from bellport.algebra import SIGNS, u_matrix, x_tilde_operator
from bellport.states import (
    PureState,
    inner_product,
    normalize,
    random_state,
    tensor,
)
from bellport.threequbit import (
    BELL3_LABELS,
    Bell3Label,
    bell3_state,
    lambda_operator,
    teleport3,
    theta_operator,
    theta_rank,
    y_operator,
)

RT2 = np.sqrt(2.0)


def test_bell3_explicit_state():
    # |+:-:-} = (|+,-,-> + |-,+,+>) / sqrt(2)
    amps = bell3_state((1, -1, -1)).amplitudes
    expected = np.zeros(8)
    expected[0b011] = 1 / RT2
    expected[0b100] = 1 / RT2
    assert np.allclose(amps, expected)


def test_bell3_orthonormal():
    for a in BELL3_LABELS:
        for b in BELL3_LABELS:
            ov = inner_product(bell3_state(a), bell3_state(b))
            assert abs(ov - (1.0 if a == b else 0.0)) < 1e-15


def test_lambda_eigenvalues():
    for lab in BELL3_LABELS:
        state = bell3_state(lab).amplitudes
        for alpha, ev in ((1, lab.j), (2, lab.k), (3, lab.l)):
            assert np.allclose(lambda_operator(alpha) @ state, ev * state)


def test_lambda_operators_commute_and_self_adjoint():
    mats = [lambda_operator(a) for a in (1, 2, 3)]
    for m in mats:
        assert np.allclose(m, m.conj().T)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        assert np.allclose(mats[a] @ mats[b], mats[b] @ mats[a])


def test_y_operator_z_factor_cases():
    from bellport.algebra import x_operator

    # k == q: the Z factor is the identity; k != q: it is U1
    assert np.array_equal(
        y_operator(1, 1, -1, -1, 1, 1),
        np.kron(np.eye(2), x_operator(1, -1, -1, 1)),
    )
    assert np.array_equal(
        y_operator(1, 1, -1, -1, -1, 1),
        np.kron(u_matrix(1), x_operator(1, -1, -1, 1)),
    )


def test_y_operator_defining_relation():
    # |j:k:l} = (I (x) Y^{jkl}_{pqr}) |p:q:r} over all 64 tuples
    for jkl in BELL3_LABELS:
        target = bell3_state(jkl).amplitudes
        for pqr in BELL3_LABELS:
            y = y_operator(*jkl, *pqr)
            full = np.kron(np.eye(2), y)
            assert np.allclose(full @ bell3_state(pqr).amplitudes, target), (jkl, pqr)


def test_teleport_identity_3qc():
    # |v> (x) |j:k:l} = 1/2 sum_{p,q} |p:q:(kq)} (x) Xtilde^{jl}_{pq} |v>
    rng = np.random.default_rng(90)
    v = random_state(1, 2, rng)
    for lab in BELL3_LABELS:
        lhs = tensor(v, bell3_state(lab)).amplitudes
        rhs = np.zeros(16, dtype=complex)
        for p, q in product(SIGNS, SIGNS):
            trio = bell3_state((p, q, lab.k * q)).amplitudes
            tail = x_tilde_operator(lab.j, lab.l, p, q) @ v.amplitudes
            rhs += 0.5 * np.kron(trio, tail)
        assert np.allclose(lhs, rhs, atol=1e-12), lab


def test_third_outcome_label_is_kq():
    rng = np.random.default_rng(91)
    v = random_state(1, 2, rng)
    for lab in BELL3_LABELS:
        for _ in range(4):
            res = teleport3(v, bell3_state(lab), (lab.j, lab.l), rng=rng)
            p, q, t = res.record.outcomes[0].label
            assert t == lab.k * q


def test_basis_channels_teleport_perfectly_both_modes():
    v = random_state(1, 2, 92)
    for lab in BELL3_LABELS:
        channel = bell3_state(lab)
        for p, q in product(SIGNS, SIGNS):
            full = teleport3(v, channel, (lab.j, lab.l), mode="full",
                             forced=(p, q, lab.k * q))
            assert abs(full.fidelity - 1.0) < 1e-10
            assert abs(full.record.joint_probability - 0.25) < 1e-12
            red = teleport3(v, channel, (lab.j, lab.l), mode="reduced", forced=(p, q))
            assert abs(red.fidelity - 1.0) < 1e-10


def test_forced_wrong_third_label_impossible():
    from bellport.measure import ImpossibleOutcomeError

    v = random_state(1, 2, 93)
    lab = Bell3Label(1, 1, -1)
    with pytest.raises(ImpossibleOutcomeError):
        teleport3(v, bell3_state(lab), (1, -1), forced=(1, 1, -lab.k))


def test_class_superposition_reduced_mode_perfect():
    # alpha1 |j:+:l} + alpha2 |j:-:l} teleports at fidelity 1 in reduced mode
    rng = np.random.default_rng(94)
    for j, l in product(SIGNS, SIGNS):
        alphas = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alphas /= np.linalg.norm(alphas)
        channel = PureState(
            alphas[0] * bell3_state((j, 1, l)).amplitudes
            + alphas[1] * bell3_state((j, -1, l)).amplitudes
        )
        v = random_state(1, 2, rng)
        for p, q in product(SIGNS, SIGNS):
            res = teleport3(v, channel, (j, l), mode="reduced", forced=(p, q))
            assert abs(res.fidelity - 1.0) < 1e-10
            full = teleport3(v, channel, (j, l), mode="full", forced=(p, q, q))
            assert abs(full.fidelity - 1.0) < 1e-10


def test_mismatched_assumed_class_fails_somewhere():
    v = random_state(1, 2, 95)
    channel = bell3_state((1, 1, 1))
    worst = 1.0
    for p, q in product(SIGNS, SIGNS):
        res = teleport3(v, channel, (-1, 1), mode="reduced", forced=(p, q))
        worst = min(worst, res.fidelity)
    assert worst < 1.0 - 1e-6


def test_reduced_mode_rejects_cross_class_channel():
    # components differing in both k and l leave the recipient entangled
    v = random_state(1, 2, 96)
    channel = normalize(
        PureState(
            (bell3_state((1, 1, 1)).amplitudes + bell3_state((1, -1, -1)).amplitudes),
            normalized=False,
        )
    )
    with pytest.raises(ValueError, match="entangled"):
        teleport3(v, channel, (1, 1), mode="reduced", forced=(1, 1))


def test_two_qubit_teleport_obstruction():
    for kappa in (1, -1):
        rank, det = theta_rank(kappa)
        assert rank == 2
        assert abs(det) < 1e-12
        th = theta_operator(kappa)
        assert not np.allclose(th.conj().T @ th, np.eye(4), atol=1e-6)


def test_teleport3_validates_inputs():
    v = random_state(1, 2, 97)
    with pytest.raises(ValueError):
        teleport3(v, random_state(4, 2, 98), (1, 1))
    with pytest.raises(ValueError):
        teleport3(v, bell3_state((1, 1, 1)), (1, 1), mode="partial")
    channel = bell3_state((1, 1, 1))
    for mode, signs in [("full", 3), ("reduced", 2)]:
        # a value without a length reaches the labels; a wrong length is counted
        with pytest.raises(ValueError, match="forced outcome 5 is none of "):
            teleport3(v, channel, (1, 1), mode, forced=5)
        with pytest.raises(ValueError, match=f"{mode}-mode forced outcome has {signs} signs, got "):
            teleport3(v, channel, (1, 1), mode, forced=(1,) * (5 - signs))


# +-x, +-y, +-z: a qubit 3-design, so their mean of a degree-2 quantity is the Haar mean
OCTAHEDRAL_CLIENTS = [
    PureState(np.array(v, dtype=complex) / np.linalg.norm(v))
    for v in ([1, 1], [1, -1], [1, 1j], [1, -1j], [1, 0], [0, 1])
]


@pytest.mark.parametrize("seed", range(10))
def test_full_mode_mean_fidelity_is_the_class_weight_law(seed):
    # probability-weighted fidelity over the eight full-mode branches,
    # averaged over the clients, is (1 + 2 w) / 3 for the assumed class
    # (j, l), with w = sum_k |<j:k:l|psi>|^2 the channel's weight in it
    channel = random_state(3, 2, 300 + seed)
    for j, l in product(SIGNS, SIGNS):
        w = sum(abs(inner_product(bell3_state((j, k, l)), channel)) ** 2 for k in SIGNS)
        mean = np.mean(
            [
                sum(
                    res.record.joint_probability * res.fidelity
                    for res in (
                        teleport3(v, channel, (j, l), mode="full", forced=lab)
                        for lab in BELL3_LABELS
                    )
                )
                for v in OCTAHEDRAL_CLIENTS
            ]
        )
        assert abs(mean - (1.0 + 2.0 * w) / 3.0) <= 1e-12
