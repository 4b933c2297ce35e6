"""Qudit Weyl-Heisenberg operators, generalized Bell states, teleportation."""

from itertools import product

import numpy as np
import pytest

from bellport.algebra import u_matrix
from bellport.bell import bell_state
from bellport.measure import bell_measure
from bellport.protocol import _teleports, teleport
from bellport.qudit import (
    _bell_bra,
    _label_stack,
    _walked,
    apply_qudit_upsilon,
    generalized_pauli,
    omega_root,
    permutation_matrix,
    phase_matrix,
    qudit_bell,
    qudit_bell_measure,
    qudit_class_projector_apply,
    qudit_decompose,
    qudit_teleport,
    qudit_x_tilde,
)
from bellport.states import PureState, inner_product, random_state, tensor


def test_d2_reduces_to_qubit_operators():
    assert np.allclose(permutation_matrix(2), u_matrix(1))
    assert np.allclose(phase_matrix(2), u_matrix(2))


def test_weyl_commutation_qp_equals_omega_pq():
    for d in (2, 3, 5):
        p, q = permutation_matrix(d), phase_matrix(d)
        assert np.allclose(q @ p, omega_root(d) * (p @ q), atol=1e-12)


def test_generalized_pauli_basics():
    assert np.allclose(generalized_pauli(3, 0, 0), np.eye(3))
    for d in (3, 5):
        for k, j in product(range(d), repeat=2):
            r = generalized_pauli(d, k, j)
            assert np.allclose(r @ r.conj().T, np.eye(d), atol=1e-12)


def test_qudit_bell_00_state():
    amps = qudit_bell(3, 0, 0).amplitudes
    expected = np.zeros(9, dtype=complex)
    expected[[0, 4, 8]] = 1 / np.sqrt(3)
    assert np.allclose(amps, expected)


def test_qudit_bell_matches_r_action():
    # |j:k} = (I (x) R^{kj}) |0:0}
    for d in (2, 3, 5):
        base = qudit_bell(d, 0, 0)
        for j, k in product(range(d), repeat=2):
            from bellport.states import apply_local

            via_r = apply_local(base, generalized_pauli(d, k, j), 1)
            assert (
                abs(abs(inner_product(qudit_bell(d, j, k), via_r)) - 1.0) < 1e-12
            )
            assert np.allclose(
                qudit_bell(d, j, k).amplitudes, via_r.amplitudes, atol=1e-12
            )


def test_qudit_bells_orthonormal():
    d = 3
    states = [qudit_bell(d, j, k) for j in range(d) for k in range(d)]
    for i, a in enumerate(states):
        for m, b in enumerate(states):
            ov = inner_product(a, b)
            assert abs(ov - (1.0 if i == m else 0.0)) < 1e-12


def test_basis_change_identity():
    # |j> (x) |k> = d^{-1/2} sum_l omega^{-jl} |l : k-j}
    d = 3
    w = omega_root(d)
    for j, k in product(range(d), repeat=2):
        direct = np.zeros(9, dtype=complex)
        direct[j * d + k] = 1.0
        via_bells = sum(
            w ** (-j * l) * qudit_bell(d, l, (k - j) % d).amplitudes for l in range(d)
        ) / np.sqrt(d)
        assert np.allclose(direct, via_bells, atol=1e-12)


def test_d2_bell_states_match_qubit_bells():
    # (0,0)->|+:+}, (0,1)->|+:-}, (1,0)->|-:+}, (1,1)->|-:-}
    mapping = {(0, 0): (1, 1), (0, 1): (1, -1), (1, 0): (-1, 1), (1, 1): (-1, -1)}
    for (j, k), qubit_label in mapping.items():
        ov = inner_product(qudit_bell(2, j, k), bell_state(qubit_label))
        assert abs(abs(ov) - 1.0) < 1e-12


def test_ditcomm_identity():
    # |v> (x) |j:k} = 1/d sum_{p,q} |p:q} (x) Xtilde^{jk}_{pq} |v>
    for d in (2, 3, 5):
        rng = np.random.default_rng(100 + d)
        amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v = PureState(amps / np.linalg.norm(amps), local_dim=d)
        for j, k in product(range(d), repeat=2):
            lhs = tensor(v, qudit_bell(d, j, k)).amplitudes
            rhs = np.zeros(d**3, dtype=complex)
            for p, q in product(range(d), repeat=2):
                rhs += np.kron(
                    qudit_bell(d, p, q).amplitudes,
                    qudit_x_tilde(d, j, k, p, q) @ v.amplitudes,
                ) / d
            assert np.allclose(lhs, rhs, atol=1e-12), (d, j, k)


def test_x_tilde_monomial_form_and_group_closure():
    # Xtilde^{jk}_{pq} = omega^{jq} P^{k+q} Q^{j-p}; products stay monomials
    d = 3
    w = omega_root(d)
    pm, qm = permutation_matrix(d), phase_matrix(d)

    def monomial(a, b):
        return np.linalg.matrix_power(pm, a % d) @ np.linalg.matrix_power(qm, b % d)

    for j, k, p, q in product(range(d), repeat=4):
        expected = w ** (j * q) * monomial(k + q, j - p)
        assert np.allclose(qudit_x_tilde(d, j, k, p, q), expected, atol=1e-12)
    # closure up to a root-of-unity phase
    rng = np.random.default_rng(101)
    for _ in range(20):
        j1, k1, p1, q1, j2, k2, p2, q2 = rng.integers(0, d, size=8)
        prod_mat = qudit_x_tilde(d, j1, k1, p1, q1) @ qudit_x_tilde(d, j2, k2, p2, q2)
        a = (k1 + q1 + k2 + q2) % d
        b = (j1 - p1 + j2 - p2) % d
        target = monomial(a, b)
        ratio = prod_mat[np.abs(target) > 0.5] / target[np.abs(target) > 0.5]
        assert np.allclose(ratio, ratio[0], atol=1e-12)
        assert abs(abs(ratio[0]) - 1.0) < 1e-12
        assert abs(ratio[0] ** d - 1.0) < 1e-10  # a d-th root of unity


@pytest.mark.parametrize("d", [3, 5])
def test_qudit_teleport_all_branches(d):
    rng = np.random.default_rng(102 + d)
    amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    client = PureState(amps / np.linalg.norm(amps), local_dim=d)
    labels = [(0, 0), (d - 1, 1), (2 % d, d - 2)]
    for label in labels:
        for p, q in product(range(d), repeat=2):
            res = qudit_teleport(client, label, forced=(p, q))
            assert abs(res.fidelity - 1.0) < 1e-10
            assert abs(res.record.joint_probability - 1.0 / d**2) < 1e-12


def transposed_build(d):
    """The oracle of Bob's gate table of each label (j, k): the transposed
    view of ``generalized_pauli(d, k, j) @ tail`` built before the tables
    were C-ordered, copied C-ordered."""
    shift, phase = permutation_matrix(d), phase_matrix(d)
    powers_p = [np.linalg.matrix_power(shift, q) for q in range(d)]
    powers_q = [np.linalg.matrix_power(phase, -p % d) for p in range(d)]
    tail = np.array(powers_p)[None] @ np.array(powers_q)[:, None]
    return lambda j, k: np.ascontiguousarray(
        (generalized_pauli(d, k, j) @ tail).conj().swapaxes(-1, -2).reshape(d * d, d, d)
    )


@pytest.mark.parametrize("d", range(2, 8))
def test_gate_table_is_c_ordered_read_only_and_the_transposed_build(d):
    # the one-label table that qudit_teleport reads; it is filled for each
    # call, so nothing shared is left to be read-only
    old = transposed_build(d)
    for j, k in product(range(d), repeat=2):
        _, _, tables, _ = _label_stack(d, [(j, k)])
        assert tables.shape == (1, 1, d * d, d, d) and tables.flags.c_contiguous
        assert np.array_equal(tables[0, 0].view(np.uint64), old(j, k).view(np.uint64))


@pytest.mark.parametrize("d", range(2, 8))
def test_label_stack_holds_each_gate_table_once(d):
    labels = [(0, 0), (1 % d, 0), (0, 1 % d), (d - 1, d - 1)]  # qudit-demo's
    old = transposed_build(d)
    _, _, tables, _ = _label_stack(d, labels)
    assert tables.shape == (4, 1, d * d, d, d) and tables.flags.c_contiguous
    for (j, k), table in zip(labels, tables[:, 0]):
        assert np.array_equal(table.view(np.uint64), old(j, k).view(np.uint64))


def test_qudit_bell_bra_built_once_and_read_only():
    bra = _bell_bra(4)
    assert _bell_bra(4) is bra
    assert not bra.flags.writeable
    with pytest.raises(ValueError):
        bra[0, 0, 0] = 0.0
    rows = [qudit_bell(4, j, k).amplitudes for j in range(4) for k in range(4)]
    assert np.array_equal(bra[:, 0], np.array(rows).conj())


def test_bell_bra_cache_keeps_the_four_dimensions_of_the_gate_tables():
    # each bra holds 16 d^4 B; a sweep of dimensions must not keep them all
    for d in range(2, 13):
        _bell_bra(d)
        assert _bell_bra.cache_info().currsize <= 4
    assert _bell_bra(12) is _bell_bra(12)


def test_qudit_teleport_sampled_reproducible():
    d = 3
    rng_amps = np.random.default_rng(103)
    amps = rng_amps.standard_normal(d) + 1j * rng_amps.standard_normal(d)
    client = PureState(amps / np.linalg.norm(amps), local_dim=d)
    a = qudit_teleport(client, (1, 2), rng=5)
    b = qudit_teleport(client, (1, 2), rng=5)
    assert a.record.outcomes[0].label == b.record.outcomes[0].label
    assert abs(a.fidelity - 1.0) < 1e-10


def test_qudit_teleport_label_channel_takes_client_dimension():
    client = random_state(1, 3, 106)
    res = qudit_teleport(client, (4, 5), forced=(1, 2))
    assert res.recipient_state.local_dim == 3
    assert abs(res.fidelity - 1.0) < 1e-10
    with pytest.raises(TypeError):
        qudit_teleport(client, (1, 2), d=3)


def test_d2_qudit_protocol_agrees_with_qubit_protocol():
    mapping = {(0, 0): (1, 1), (0, 1): (1, -1), (1, 0): (-1, 1), (1, 1): (-1, -1)}
    client = random_state(1, 2, 104)
    for (j, k), qubit_label in mapping.items():
        for (p, q), qubit_out in mapping.items():
            res_d = qudit_teleport(client, (j, k), forced=(p, q))
            res_q = teleport(client, bell_state(qubit_label), qubit_label,
                             forced=[qubit_out])
            assert abs(res_d.fidelity - res_q.fidelity) < 1e-12
            ov = inner_product(res_d.recipient_state, res_q.recipient_state)
            assert abs(abs(ov) - 1.0) < 1e-12
            assert abs(res_d.record.joint_probability - 0.25) < 1e-12


def test_qudit_upsilon_eigenvalues_on_bell_products():
    d = 3
    w = omega_root(d)
    for j1, k1, j2, k2 in product(range(d), repeat=4):
        state = tensor(qudit_bell(d, j1, k1), qudit_bell(d, j2, k2))
        for alpha, total in ((1, j1 + j2), (2, k1 + k2)):
            moved = apply_qudit_upsilon(state, alpha)
            ev = inner_product(state, moved)
            assert abs(ev - w ** (-total)) < 1e-12


def test_qudit_decompose_bell_product_single_class():
    d = 3
    state = tensor(qudit_bell(d, 0, 0), qudit_bell(d, 0, 0))
    weights = qudit_decompose(state)
    assert abs(weights[(0, 0)] - 1.0) < 1e-12
    others = [w for key, w in weights.items() if key != (0, 0)]
    assert max(others) < 1e-12


def test_qudit_decompose_weights_sum_to_one():
    state = random_state(4, 3, 105)
    weights = qudit_decompose(state)
    assert len(weights) == 9
    assert abs(sum(w**2 for w in weights.values()) - 1.0) < 1e-10


def test_qudit_class_projectors_rank_and_completeness():
    # d = 3, L = 4: nine orthogonal projectors, each of rank 3^(4-2) = 9
    d, L = 3, 4
    dim = d**L
    eye = np.eye(dim, dtype=complex)
    total = np.zeros((dim, dim), dtype=complex)
    for J in range(d):
        for K in range(d):
            proj = np.zeros((dim, dim), dtype=complex)
            for col in range(dim):
                basis_col = PureState(eye[:, col], local_dim=d)
                proj[:, col] = qudit_class_projector_apply(basis_col, J, K).amplitudes
            assert np.allclose(proj @ proj, proj, atol=1e-10)
            rank = int(round(float(np.real(np.trace(proj)))))
            assert rank == d ** (L - 2)
            assert np.linalg.matrix_rank(proj, tol=1e-8) == d ** (L - 2)
            total += proj
    assert np.allclose(total, eye, atol=1e-10)


def test_qudit_measure_requires_extra_site():
    with pytest.raises(ValueError):
        qudit_bell_measure(qudit_bell(3, 0, 0), 0, 1)


@pytest.mark.parametrize("a, b", [(1, 1), (-1, 2), (0, -1), (0, 4), (4, 0), (5, 7)])
def test_qudit_measure_refuses_the_pairs_bell_measure_refuses(a, b):
    # one pair rule: the qubit and the qudit measurement share it
    with pytest.raises(ValueError):
        bell_measure(random_state(4, 2, 0), a, b, rng=1)
    with pytest.raises(ValueError):
        qudit_bell_measure(random_state(4, 3, 0), a, b, rng=1)


def mub_states(d):
    """The d (d + 1) states of the d + 1 mutually unbiased bases of a prime d
    (a 2-design): the computational basis and omega^(a l^2 + b l) / sqrt(d),
    with a l^2 / 2 for d = 2, where l^2 = l would repeat the Fourier basis."""
    l = np.arange(d)
    c = 0.5 if d == 2 else 1.0
    vectors = list(np.eye(d, dtype=complex))
    for a, b in product(range(d), repeat=2):
        vectors.append(np.exp(2j * np.pi * (c * a * l * l + b * l) / d) / np.sqrt(d))
    return [PureState(v, local_dim=d) for v in vectors]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d", [2, 3, 5])
def test_mean_branch_fidelity_is_the_class_weight_law(d, seed):
    # probability-weighted fidelity over every branch, averaged over the
    # MUB clients, is (d w + 1) / (d + 1) with w the weight of the assumed class
    channel = random_state(2, d, 10 * d + seed)
    weights = qudit_decompose(channel)
    clients = mub_states(d)
    for label in product(range(d), repeat=2):
        _, levels, tables, _ = _label_stack(d, [label])  # one channel, one class
        channels = channel.amplitudes[None]
        mean = np.mean(
            [
                np.dot(branches.probs[:, 0], branches.fidelities)
                for *_, branches in (
                    _teleports(v.amplitudes[None], channels, levels, tables, _walked)
                    for v in clients
                )
            ]
        )
        w = weights[label] ** 2
        assert abs(mean - (d * w + 1) / (d + 1)) <= 1e-12
