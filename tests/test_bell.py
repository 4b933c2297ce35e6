"""Bell basis, Upsilon operators, class projectors and decomposition."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellport.algebra import u_matrix
from bellport.bell import (
    BELL_CLASSES,
    BELL_LABELS,
    BellLabel,
    _class_weights,
    bell_basis_state,
    bell_state,
    class_projector_apply,
    decompose_classes,
    format_sign_pair,
    labels_class,
    parse_sign_pair,
    upsilon_expectations,
)
from bellport.channels import aklt_state, cluster_state, ghz_state, singlet_random
from bellport.states import (
    PureState,
    apply_local,
    inner_product,
    normalize,
    qubit_ket,
    random_state,
    tensor,
)

RT2 = np.sqrt(2.0)


def dense_upsilon(alpha, n):
    """Oracle: the full 2^n x 2^n matrix of Upsilon^alpha."""
    full = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        full = np.kron(full, u_matrix(alpha))
    return full


def random_class_state(cls, n, rng):
    draw = random_state(n, 2, rng)
    return normalize(class_projector_apply(draw, cls))


def test_bell_state_values():
    assert np.allclose(bell_state((1, -1)).amplitudes, [0, 1 / RT2, 1 / RT2, 0])
    assert np.allclose(bell_state((-1, -1)).amplitudes, [0, 1 / RT2, -1 / RT2, 0])
    assert np.allclose(bell_state((1, 1)).amplitudes, [1 / RT2, 0, 0, 1 / RT2])
    assert np.allclose(bell_state((-1, 1)).amplitudes, [1 / RT2, 0, 0, -1 / RT2])


def test_bell_states_orthonormal():
    for a in BELL_LABELS:
        for b in BELL_LABELS:
            ov = inner_product(bell_state(a), bell_state(b))
            assert abs(ov - (1.0 if a == b else 0.0)) < 1e-15


def test_bell_basis_state_class():
    assert labels_class([(1, -1), (-1, 1)]) == (-1, -1)
    for n in (1, 2, 3):
        labels = [(-1, -1)] * n
        assert labels_class(labels) == ((-1) ** n, (-1) ** n)
    single = bell_basis_state([(1, -1)])
    assert np.array_equal(single.amplitudes, bell_state((1, -1)).amplitudes)


def kron_chain_basis_state(labels):
    """bell_basis_state before the fold: one tensor product per pair."""
    out = bell_state(labels[0])
    for lab in labels[1:]:
        out = tensor(out, bell_state(lab))
    return out


# Bell labels as BellLabels and as plain tuples, mixed
label_lists = st.lists(
    st.sampled_from(BELL_LABELS).flatmap(lambda lab: st.sampled_from([lab, tuple(lab)])),
    min_size=1,
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(label_lists)
def test_bell_basis_state_is_the_kron_chain(labels):
    new, old = bell_basis_state(labels), kron_chain_basis_state(labels)
    assert new.amplitudes.tobytes() == old.amplitudes.tobytes()  # signed zeros too
    assert new.normalized and old.normalized


@pytest.mark.parametrize("bad", [(1, 0), (2, -1), (-1, 1.5), (1, -1, 1)])
def test_bell_basis_state_refuses_a_bad_label_as_bell_state_does(bad):
    with pytest.raises(ValueError) as old:
        bell_state(bad)
    with pytest.raises(ValueError) as new:
        bell_basis_state([(1, 1), bad])
    assert str(new.value) == str(old.value)


def test_bell_basis_state_leaves_the_shared_vectors_alone():
    single = bell_basis_state([(1, -1)])
    again = bell_basis_state([BellLabel(1, -1)])
    assert not np.shares_memory(single.amplitudes, again.amplitudes)
    assert np.array_equal(single.amplitudes, bell_state((1, -1)).amplitudes)


def test_upsilon_expectations_ghz():
    assert np.allclose(upsilon_expectations(ghz_state(4)), (1, 1, 1), atol=1e-12)
    # dense-oracle confirmation
    ghz = ghz_state(4).amplitudes
    for alpha in (1, 2, 3):
        ev = np.vdot(ghz, dense_upsilon(alpha, 4) @ ghz)
        assert abs(ev - 1.0) < 1e-12


def test_upsilon_expectations_plus_product():
    assert np.allclose(
        upsilon_expectations(qubit_ket([1, 1, 1, 1])), (0, 1, 0), atol=1e-15
    )


def test_upsilon_expectations_vs_dense_oracle_random():
    rng = np.random.default_rng(21)
    s = random_state(4, 2, rng)
    fast = upsilon_expectations(s)
    for alpha in (1, 2, 3):
        ev = np.vdot(s.amplitudes, dense_upsilon(alpha, 4) @ s.amplitudes)
        assert abs(fast[alpha - 1] - ev.real) < 1e-12
        assert abs(ev.imag) < 1e-12


def test_bell_products_are_joint_eigenstates():
    for l1, l2 in product(BELL_LABELS, repeat=2):
        s = bell_basis_state([l1, l2])
        e1, e2, e3 = upsilon_expectations(s)
        assert abs(e1 - l1.j * l2.j) < 1e-12
        assert abs(e2 - l1.k * l2.k) < 1e-12
        assert abs(e3 - l1.j * l1.k * l2.j * l2.k) < 1e-12


def test_upsilons_commute_on_random_states():
    rng = np.random.default_rng(22)
    from bellport.bell import apply_upsilon

    s = random_state(4, 2, rng)
    for a, b in ((1, 2), (1, 3), (2, 3)):
        ab = apply_upsilon(apply_upsilon(s, b), a)
        ba = apply_upsilon(apply_upsilon(s, a), b)
        assert np.allclose(ab.amplitudes, ba.amplitudes, atol=1e-12)


def test_class_projector_on_ghz():
    ghz = ghz_state(4)
    kept = class_projector_apply(ghz, (1, 1))
    assert np.allclose(kept.amplitudes, ghz.amplitudes, atol=1e-12)
    killed = class_projector_apply(ghz, (1, -1))
    assert np.linalg.norm(killed.amplitudes) < 1e-12


def test_class_projectors_resolve_identity_and_are_orthogonal():
    rng = np.random.default_rng(23)
    s = random_state(4, 2, rng)
    total = np.zeros_like(s.amplitudes)
    for cls in BELL_CLASSES:
        once = class_projector_apply(s, cls)
        twice = class_projector_apply(once, cls)
        assert np.allclose(once.amplitudes, twice.amplitudes, atol=1e-12)
        total = total + once.amplitudes
        for other in BELL_CLASSES:
            if other != cls:
                cross = class_projector_apply(once, other)
                assert np.linalg.norm(cross.amplitudes) < 1e-12
    assert np.allclose(total, s.amplitudes, atol=1e-12)


def test_projector_output_flagged_unnormalized():
    rng = np.random.default_rng(24)
    out = class_projector_apply(random_state(4, 2, rng), (1, 1))
    assert not out.normalized


def test_decompose_plus_product():
    dec = decompose_classes(qubit_ket([1, 1, 1, 1]))
    for cls in BELL_CLASSES:
        expected = 0.5 if cls.k == 1 else 0.0
        assert abs(dec.coefficients[cls] ** 2 - expected) < 1e-12
    assert (1, -1) not in dec.components  # absent, not noise


def test_decompose_bell_product_single_class():
    labels = [BellLabel(1, -1), BellLabel(-1, 1)]
    dec = decompose_classes(bell_basis_state(labels))
    cls = labels_class(labels)
    assert abs(dec.coefficients[cls] - 1.0) < 1e-12
    assert dec.pure_class() == cls


def test_decompose_appendix_channel_pure_class():
    for phi in (0.0, 0.3, np.pi / 4, 1.2):
        amps = np.cos(phi) * np.kron(
            bell_state((1, -1)).amplitudes, bell_state((-1, 1)).amplitudes
        ) + np.sin(phi) * np.kron(
            bell_state((-1, 1)).amplitudes, bell_state((1, -1)).amplitudes
        )
        dec = decompose_classes(PureState(amps))
        assert abs(dec.coefficients[(-1, -1)] - 1.0) < 1e-12
        assert dec.pure_class() == (-1, -1)


def test_decompose_weights_sum_to_one():
    rng = np.random.default_rng(25)
    s = random_state(6, 2, rng)
    dec = decompose_classes(s)
    assert abs(sum(c**2 for c in dec.coefficients.values()) - 1.0) < 1e-10


def test_component_eigenvalues_match_class():
    rng = np.random.default_rng(26)
    dec = decompose_classes(random_state(4, 2, rng))
    for cls, comp in dec.components.items():
        e1, e2, e3 = upsilon_expectations(comp)
        assert abs(e1 - cls.j) < 1e-10
        assert abs(e2 - cls.k) < 1e-10
        assert abs(e3 - cls.j * cls.k) < 1e-10


def test_inversion_identities():
    rng = np.random.default_rng(27)
    s = random_state(4, 2, rng)
    dec = decompose_classes(s)
    e1, e2, e3 = upsilon_expectations(s)
    w = {c: dec.coefficients[c] ** 2 for c in BELL_CLASSES}
    assert abs(e1 - sum(c.j * w[c] for c in BELL_CLASSES)) < 1e-10
    assert abs(e2 - sum(c.k * w[c] for c in BELL_CLASSES)) < 1e-10
    assert abs(e3 - sum(c.j * c.k * w[c] for c in BELL_CLASSES)) < 1e-10


def test_pure_class_states_maximally_locally_disordered():
    rng = np.random.default_rng(28)
    for cls in BELL_CLASSES:
        s = random_class_state(cls, 4, rng)
        for site in range(4):
            for alpha in (1, 2, 3):
                ev = inner_product(s, apply_local(s, u_matrix(alpha), site))
                assert abs(ev) < 1e-10


def test_pure_class_reporting_threshold():
    rng = np.random.default_rng(29)
    pure = random_class_state((1, 1), 4, rng)
    assert decompose_classes(pure).pure_class() == (1, 1)
    mixed = normalize(
        PureState(
            np.sqrt(0.9) * pure.amplitudes
            + np.sqrt(0.1) * random_class_state((1, -1), 4, rng).amplitudes,
            normalized=False,
        )
    )
    assert decompose_classes(mixed).pure_class() is None


def test_sign_pair_formatting_roundtrip():
    for cls in BELL_CLASSES:
        assert parse_sign_pair(format_sign_pair(cls)) == tuple(cls)
    with pytest.raises(ValueError):
        parse_sign_pair("+x")


@pytest.mark.parametrize(
    "state",
    [random_state(L, 2, 50 + L) for L in (2, 4, 8, 12)]
    + [ghz_state(6), cluster_state(8), aklt_state(10), singlet_random(5, 3)]
    + [bell_basis_state([(1, -1), (-1, -1), (1, 1)])],
    ids=[f"random-{L}" for L in (2, 4, 8, 12)] + ["ghz", "cluster", "aklt", "singlet", "bell"],
)
def test_class_weights_are_the_decomposition_coefficients(state):
    weights, coefficients = _class_weights(state), decompose_classes(state).coefficients
    assert list(weights) == list(coefficients) == list(BELL_CLASSES)
    assert np.array([*weights.values()]).tobytes() == np.array([*coefficients.values()]).tobytes()


def test_class_ops_reject_odd_or_qudit_states():
    rng = np.random.default_rng(30)
    with pytest.raises(ValueError):
        decompose_classes(random_state(3, 2, rng))
    with pytest.raises(ValueError):
        _class_weights(random_state(3, 2, rng))
    with pytest.raises(ValueError):
        _class_weights(random_state(2, 3, rng))
    with pytest.raises(ValueError):
        class_projector_apply(random_state(2, 3, rng), (1, 1))
