"""The U-string index map against the per-site operator loops it replaced.

Upsilon, class projectors, string order and the cluster K_j/G products
are all signed products of single-site U operators, now applied as one
sign vector and one flip of the site tensor.  The oracles below are the
old implementations, kept as references: one ``apply_local`` call per
site, and U products multiplied as 2x2 matrices and matched against
+-U^i.  Random qubit states up to 12 sites must give the same
amplitudes, coefficients and expectations (to 1e-12).

The uniform strings Upsilon^a now skip the index map too: the stack
kernel ``bell._upsilons`` reverses the amplitude vector and multiplies
by the parity sign.  Its oracle is the U-string path it replaced
(``_u_string`` into a ``PureState``, then ``inner_product``), and the
two must agree bit for bit on stacks of random states.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellport.algebra import u_matrix
from bellport.bell import (
    BELL_CLASSES,
    BELL_LABELS,
    COMPONENT_ATOL,
    _class_component,
    _expectations,
    _u_string,
    _upsilons,
    apply_upsilon,
    bell_basis_state,
    class_projector_apply,
    decompose_classes,
    upsilon_expectations,
)
from bellport.channels import UProduct, _u_product_multiply, string_order
from bellport.states import PureState, apply_local, inner_product, random_state

TOL = 1e-12
PROPERTY = settings(max_examples=60, deadline=None)
seeds = st.integers(0, 2**32 - 1)

# ---------------------------------------------------------------------------
# oracles: the U products before the index map


def old_apply_upsilon(state, alpha):
    out = state
    for site in range(state.num_sites):
        out = apply_local(out, u_matrix(alpha), site)
    return out


def old_u_product_apply(op, state):
    out = state
    for site, f in enumerate(op.factors):
        if f:
            out = apply_local(out, u_matrix(f), site)
    return PureState(op.sign * out.amplitudes, normalized=out.normalized)


def old_string_order(state):
    out = state
    for site in range(state.num_sites):
        out = apply_local(out, u_matrix(2), site)
    scalar = 4.0 * 0.5 * 0.5 * (-1.0) ** (state.num_sites // 2 - 1)
    return float(scalar * np.real(inner_product(state, out)))


def u_string_upsilon(state, alpha):
    """apply_upsilon before the stack kernel: one U-string index map."""
    return PureState(_u_string(state.amplitudes, (alpha,) * state.num_sites))


def u_string_expectations(state):
    """upsilon_expectations before the stack kernel."""
    return [
        float(np.real(inner_product(state, u_string_upsilon(state, a)))) for a in (1, 2, 3)
    ]


def old_class_projector_apply(state, cls):
    j, k = cls
    y1, y2, y3 = (old_apply_upsilon(state, a).amplitudes for a in (1, 2, 3))
    return 0.25 * (state.amplitudes + j * y1 + k * y2 + j * k * y3)


def old_u_product_multiply(ops, L):
    mats = [np.eye(2, dtype=complex) for _ in range(L)]
    sign = 1
    for op in ops:
        sign *= op.sign
        for site, f in enumerate(op.factors):
            if f:
                mats[site] = mats[site] @ u_matrix(f)
    factors = []
    for m in mats:
        for i in range(4):
            if np.array_equal(m, u_matrix(i)):
                factors.append(i)
                break
            if np.array_equal(m, -u_matrix(i)):
                factors.append(i)
                sign = -sign
                break
        else:
            raise ValueError("site product is not +-U^i")
    return UProduct(sign=sign, factors=tuple(factors))


# ---------------------------------------------------------------------------
# strategies


@st.composite
def qubit_state(draw, min_sites=1, max_sites=12, even=False):
    """A Haar-random state, or (for even sizes) a Bell-pair product in one class."""
    n = draw(st.integers(min_sites, max_sites))
    if even:
        n += n % 2
    if n % 2 == 0 and draw(st.booleans()):
        return bell_basis_state([draw(st.sampled_from(BELL_LABELS)) for _ in range(n // 2)])
    return random_state(n, 2, draw(seeds))


def u_product(n):
    return st.builds(
        UProduct,
        sign=st.sampled_from((1, -1)),
        factors=st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple),
    )


def close(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) <= TOL


# ---------------------------------------------------------------------------
# properties


@PROPERTY
@given(qubit_state(), st.sampled_from((1, 2, 3)))
def test_apply_upsilon_matches_site_loop(state, alpha):
    new = apply_upsilon(state, alpha)
    assert new.num_sites == state.num_sites and new.normalized
    assert close(new.amplitudes, old_apply_upsilon(state, alpha).amplitudes)


@PROPERTY
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(u_product(n), seeds)))
def test_u_product_apply_matches_site_loop(case):
    op, seed = case
    state = random_state(len(op.factors), 2, seed)
    assert close(op.apply(state).amplitudes, old_u_product_apply(op, state).amplitudes)


@PROPERTY
@given(qubit_state(min_sites=2, even=True))
def test_string_order_matches_site_loop(state):
    assert abs(string_order(state) - old_string_order(state)) <= TOL


@PROPERTY
@given(qubit_state(min_sites=2, even=True), st.sampled_from(BELL_CLASSES))
def test_class_projector_matches_site_loop(state, cls):
    new = class_projector_apply(state, cls)
    assert not new.normalized
    assert close(new.amplitudes, old_class_projector_apply(state, cls))


@PROPERTY
@given(qubit_state(min_sites=2, even=True))
def test_decompose_classes_matches_site_loop(state):
    dec = decompose_classes(state)
    kept = []
    for cls in BELL_CLASSES:
        amps = old_class_projector_apply(state, cls)
        c = float(np.linalg.norm(amps))
        assert abs(dec.coefficients[cls] - c) <= TOL
        if c >= COMPONENT_ATOL:
            kept.append(cls)
            assert close(dec.components[cls].amplitudes, amps / c)
    assert sorted(dec.components) == sorted(kept)


@PROPERTY
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(u_product(n), max_size=6), seeds)
    )
)
def test_u_product_multiply_xor_rule_matches_matrices(case):
    L, ops, seed = case
    product = _u_product_multiply(ops, L)
    assert product == old_u_product_multiply(ops, L)
    # the product acts like its factors, the rightmost one first
    state = random_state(L, 2, seed)
    expected = state
    for op in reversed(ops):
        expected = old_u_product_apply(op, expected)
    assert close(product.apply(state).amplitudes, expected.amplitudes)


def test_u_product_rejects_mismatched_sites():
    with pytest.raises(ValueError, match="qubit sites"):
        UProduct(sign=1, factors=(1, 2)).apply(random_state(3, 2, 0))
    with pytest.raises(ValueError, match="qubit sites"):
        UProduct(sign=1, factors=(1, 2)).apply(random_state(2, 3, 0))


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@PROPERTY
@given(st.integers(2, 12), st.integers(1, 8), seeds)
def test_upsilon_stack_kernel_matches_u_string_bits(n, count, seed):
    rng = np.random.default_rng(seed)
    states = [random_state(n, 2, rng) for _ in range(count)]
    stack = np.array([s.amplitudes for s in states])
    ys = _upsilons(stack)
    expectations = _expectations(stack)
    assert expectations.shape == (count, 3)
    for i, state in enumerate(states):
        old = u_string_expectations(state)
        assert np.array_equal(bits(expectations[i]), bits(old))
        assert np.array_equal(bits(upsilon_expectations(state)), bits(old))
        for alpha in (1, 2, 3):
            old_amps = u_string_upsilon(state, alpha).amplitudes
            assert np.array_equal(ys[alpha - 1][i].view(np.uint64), old_amps.view(np.uint64))
        if n % 2 == 0:
            y1, y2, y3 = (u_string_upsilon(state, a).amplitudes for a in (1, 2, 3))
            s = state.amplitudes
            for j, k in BELL_CLASSES:
                new = _class_component(stack, j, k)
                old_amps = 0.25 * (s + j * y1 + k * y2 + j * k * y3)
                assert np.array_equal(new[i].view(np.uint64), old_amps.view(np.uint64))
