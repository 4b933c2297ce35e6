"""State-vector primitives against dense Kronecker-product oracles."""

import numpy as np
import pytest

from bellport.algebra import u_matrix
from bellport.bell import bell_state, upsilon_expectations
from bellport.channels import ChannelSpec, build
from bellport.states import (
    PureState,
    _adopt,
    _wrap,
    apply_local,
    apply_two_site,
    basis_state,
    inner_product,
    normalize,
    permute_sites,
    qubit_ket,
    random_product_state,
    random_state,
    tensor,
)


def kron_on_site(op, site, n, d=2):
    """Dense oracle: I (x) ... (x) op (x) ... (x) I."""
    full = np.array([[1.0]], dtype=complex)
    for s in range(n):
        full = np.kron(full, op if s == site else np.eye(d))
    return full


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_tensor_basis_product():
    state = tensor(qubit_ket([1]), qubit_ket([-1]))
    assert np.array_equal(state.amplitudes, [0, 1, 0, 0])


def test_tensor_client_with_bell_pair():
    # |v> (x) |+:+} laid out with the client as the most significant site
    rng = np.random.default_rng(0)
    v = random_state(1, 2, rng)
    a, b = v.amplitudes
    state = tensor(v, bell_state((1, 1)))
    expected = np.array([a, 0, 0, a, b, 0, 0, b]) / np.sqrt(2)
    assert np.allclose(state.amplitudes, expected, atol=1e-15)


def test_tensor_preserves_norm():
    rng = np.random.default_rng(1)
    s = tensor(random_state(3, 2, rng), basis_state([0]))
    assert abs(s.norm() - 1.0) < 1e-12


def test_tensor_dim_mismatch():
    with pytest.raises(ValueError):
        tensor(basis_state([0], 2), basis_state([0], 3))


def test_apply_local_bit_flip():
    state = apply_local(qubit_ket([1, 1]), u_matrix(1), 0)
    assert np.array_equal(state.amplitudes, qubit_ket([-1, 1]).amplitudes)


def test_apply_local_identity():
    rng = np.random.default_rng(2)
    s = random_state(3, 2, rng)
    out = apply_local(s, u_matrix(0), 1)
    assert np.array_equal(out.amplitudes, s.amplitudes)


def test_apply_local_bell_eigenvalue():
    for j, k in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        s = bell_state((j, k))
        out = apply_local(apply_local(s, u_matrix(1), 0), u_matrix(1), 1)
        assert np.allclose(out.amplitudes, j * s.amplitudes)


@pytest.mark.parametrize("site", [0, 1, 2, 3])
def test_apply_local_matches_dense_oracle(site):
    rng = np.random.default_rng(10 + site)
    s = random_state(4, 2, rng)
    op = random_unitary(2, rng)
    fast = apply_local(s, op, site)
    dense = kron_on_site(op, site, 4) @ s.amplitudes
    assert np.allclose(fast.amplitudes, dense, atol=1e-12)


def test_apply_local_qutrit_oracle():
    rng = np.random.default_rng(3)
    s = random_state(3, 3, rng)
    op = random_unitary(3, rng)
    fast = apply_local(s, op, 1)
    dense = kron_on_site(op, 1, 3, d=3) @ s.amplitudes
    assert np.allclose(fast.amplitudes, dense, atol=1e-12)


def test_apply_local_commutes_on_distinct_sites():
    rng = np.random.default_rng(4)
    s = random_state(4, 2, rng)
    op1, op2 = random_unitary(2, rng), random_unitary(2, rng)
    ab = apply_local(apply_local(s, op1, 1), op2, 3)
    ba = apply_local(apply_local(s, op2, 3), op1, 1)
    assert np.allclose(ab.amplitudes, ba.amplitudes, atol=1e-12)


def test_apply_local_errors():
    s = qubit_ket([1, 1])
    with pytest.raises(ValueError):
        apply_local(s, np.eye(3), 0)
    with pytest.raises(ValueError):
        apply_local(s, np.eye(2), 5)


def two_site_dense(op, a, b, n):
    """Dense oracle for a two-site operator, built entry by entry."""
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    op4 = np.asarray(op).reshape(2, 2, 2, 2)
    for col in range(dim):
        bits = [(col >> (n - 1 - s)) & 1 for s in range(n)]
        for xa in range(2):
            for xb in range(2):
                amp = op4[xa, xb, bits[a], bits[b]]
                if amp:
                    nb = list(bits)
                    nb[a], nb[b] = xa, xb
                    row = int("".join(map(str, nb)), 2)
                    mat[row, col] += amp
    return mat


def test_apply_two_site_matches_dense_oracle():
    rng = np.random.default_rng(5)
    s = random_state(4, 2, rng)
    op = random_unitary(4, rng)
    fast = apply_two_site(s, op, 1, 3)
    dense = two_site_dense(op, 1, 3, 4) @ s.amplitudes
    assert np.allclose(fast.amplitudes, dense, atol=1e-12)


def test_inner_product_orthonormal_bells():
    assert abs(inner_product(bell_state((1, 1)), bell_state((1, -1)))) < 1e-15
    rng = np.random.default_rng(6)
    psi = random_state(3, 2, rng)
    assert abs(inner_product(psi, psi) - 1.0) < 1e-12


def test_inner_product_value():
    # <+,+|+:+} = 1/sqrt(2)
    val = inner_product(qubit_ket([1, 1]), bell_state((1, 1)))
    assert abs(val - 1 / np.sqrt(2)) < 1e-15


def test_inner_product_conjugate_linear_first_argument():
    rng = np.random.default_rng(7)
    a, b = random_state(2, 2, rng), random_state(2, 2, rng)
    scaled = PureState(1j * a.amplitudes)
    assert np.isclose(inner_product(scaled, b), -1j * inner_product(a, b))


def test_inner_product_factorizes_over_tensor():
    rng = np.random.default_rng(8)
    a, b, c, d = (random_state(2, 2, rng) for _ in range(4))
    lhs = inner_product(tensor(a, b), tensor(c, d))
    rhs = inner_product(a, c) * inner_product(b, d)
    assert abs(lhs - rhs) < 1e-12


def test_inner_product_shape_mismatch():
    with pytest.raises(ValueError):
        inner_product(qubit_ket([1]), qubit_ket([1, 1]))


def test_permute_identity_and_swap():
    s = qubit_ket([1, -1])
    assert np.array_equal(permute_sites(s, [0, 1]).amplitudes, s.amplitudes)
    swapped = permute_sites(s, [1, 0])
    assert np.array_equal(swapped.amplitudes, qubit_ket([-1, 1]).amplitudes)


def test_permute_composition():
    rng = np.random.default_rng(9)
    s = random_state(4, 2, rng)
    p1 = list(rng.permutation(4))
    p2 = list(rng.permutation(4))
    seq = permute_sites(permute_sites(s, p1), p2)
    composed = [p2[p1[i]] for i in range(4)]
    assert np.allclose(
        seq.amplitudes, permute_sites(s, composed).amplitudes, atol=1e-15
    )


def test_permute_rejects_non_bijection():
    with pytest.raises(ValueError):
        permute_sites(qubit_ket([1, 1]), [0, 0])


def test_random_state_reproducible_and_normalized():
    a = random_state(4, 2, 123)
    b = random_state(4, 2, 123)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert abs(a.norm() - 1.0) < 1e-12
    assert not np.array_equal(a.amplitudes, random_state(4, 2, 124).amplitudes)


def test_random_product_state_is_product():
    s = random_product_state(3, 2, 11)
    t = s.as_tensor().reshape(2, 4)
    assert np.linalg.matrix_rank(t, tol=1e-10) == 1


def test_random_states_partially_ordered_upsilon():
    # Monte Carlo sanity: mean |<Upsilon^1>| strictly inside (0, 1)
    rng = np.random.default_rng(12)
    vals = [abs(upsilon_expectations(random_state(4, 2, rng))[0]) for _ in range(1000)]
    mean = float(np.mean(vals))
    assert 0.0 < mean < 1.0


@pytest.mark.parametrize("d", [2, 3])
def test_normalize_divides_a_copy_by_the_norm(d):
    state = PureState(np.arange(1, d**2 + 1) * (1 - 1j), local_dim=d, normalized=False)
    before = state.amplitudes.copy()
    out = normalize(state)
    assert out.local_dim == d and out.normalized
    assert np.array_equal(out.amplitudes.view(np.uint64), (before / state.norm()).view(np.uint64))
    assert np.array_equal(state.amplitudes, before)
    with pytest.raises(ValueError, match="zero state"):
        normalize(PureState(np.zeros(d), local_dim=d, normalized=False))


def test_normalized_flag_enforced():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]), normalized=True)
    ok = PureState(np.array([1.0, 1.0]), normalized=False)
    assert not ok.normalized
    assert abs(ok.norm() - np.sqrt(2)) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.6, np.nan)])
def test_non_finite_amplitudes_are_refused(bad):
    # a NaN norm compares False with every bound, so a check must be written to fail on it
    amps = np.array([bad, 0.8])
    with pytest.raises(ValueError, match="flagged normalized"):
        PureState(amps)
    with pytest.raises(ValueError, match="cannot normalize"):
        normalize(PureState(amps, normalized=False))
    with pytest.raises(ValueError, match="cannot normalize"):
        build(ChannelSpec(kind="explicit", amplitudes=[0.6, 0.0, 0.0, bad]))


# The normalized check takes the norm as one dot of the float view; the
# message names np.linalg.norm's value, as norm() reports it.
ACCEPTED_SCALES = [1 + 0.9e-10, 1 - 0.9e-10]
REFUSED_SCALES = [1 + 1.1e-10, 1 - 1.1e-10, np.nan, np.inf, -np.inf, 0.0, 1e200]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("scale", ACCEPTED_SCALES)
def test_norms_inside_the_tolerance_pass_the_check(scale, d):
    amps = random_state(3, d, 5).amplitudes * scale
    assert PureState(amps, local_dim=d).normalized
    assert _adopt(amps.copy(), d).normalized
    assert _wrap(amps.copy(), d).normalized


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")  # the 1e200 scale
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("scale", REFUSED_SCALES)
def test_norms_outside_the_tolerance_fail_the_check_with_the_norm_named(scale, d):
    amps = random_state(3, d, 5).amplitudes * scale
    message = f"state flagged normalized but has norm {np.linalg.norm(amps)!r}"
    for make in (PureState, lambda a, d: _adopt(a.copy(), d)):
        with pytest.raises(ValueError) as refused:
            make(amps, d)
        assert str(refused.value) == message
    assert not _wrap(amps.copy(), d).normalized


def test_tensor_and_apply_local_flag_their_results_by_the_inputs_norm():
    amps = random_state(2, 2, 7).amplitudes
    unit = PureState(amps)
    near, off, half = (PureState(amps * s, normalized=False) for s in (1 + 0.9e-10, 1 + 1.1e-10, 0.5))
    assert tensor(unit, unit).normalized and tensor(near, unit).normalized
    assert not tensor(near, near).normalized  # norm (1 + 0.9e-10)^2
    assert not tensor(unit, half).normalized and not tensor(half, half).normalized
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    for site in (0, 1):
        assert apply_local(unit, hadamard, site).normalized
        assert apply_local(near, hadamard, site).normalized
        assert not apply_local(off, hadamard, site).normalized
        assert not apply_local(half, hadamard, site).normalized
        assert not apply_local(unit, 2 * hadamard, site).normalized


def test_amplitudes_read_only():
    s = qubit_ket([1])
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_bad_amplitude_length():
    with pytest.raises(ValueError):
        PureState(np.ones(3) / np.sqrt(3), local_dim=2)


def test_num_sites_is_derived_not_settable():
    assert PureState(np.ones(8) / np.sqrt(8)).num_sites == 3
    with pytest.raises(TypeError):
        PureState(np.ones(8) / np.sqrt(8), num_sites=7)
