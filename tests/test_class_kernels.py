"""The Bell-class analyses against the forms they replaced.

A class component is now ((a +- Y1 a) +- Y2 a) +- Y3 a over 4, as adds
and subtracts chosen by the class signs; ``apply_upsilon`` and
``string_order`` form only the Upsilon image they use; and the analyses
adopt the arrays they compute instead of copying them into a state.
``decompose_classes`` and ``_class_weights`` form the Upsilon^2 image
once for all four classes and take the 1/4 through the norm.  The
oracles below are the earlier forms: all three images, the products by
the signs, and a ``PureState`` copy of each quotient.  On every channel
family the coefficients, the class weights and the string order must
be ``==`` and the components ``array_equal``: a product by -1 and a
subtract round every nonzero amplitude alike, though an exact zero may
come out with the other sign.

``upsilon_expectations`` (and so ``order_parameter``) takes each
expectation as ``np.vdot(a, Y a)``, ``string_order``'s form, while
``_scatter_channels``' stacks keep the batched ``_expectations``; the two
forms must stay ``==`` on every channel family, on every BLAS the tests
run on.

``aklt-check`` and ``heisenberg-check`` read class purity off Omega, as
squared weights (1 + Omega_c) / 4; at both tolerances they use, the pure
and the dominant class must be those of the class sums' norms.
"""

import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellport.bell import (
    BELL_CLASSES,
    BELL_LABELS,
    COMPONENT_ATOL,
    PURE_CLASS_TOL,
    _class_weights,
    _dominant_class,
    _expectations,
    _omega_squares,
    _pure_class,
    apply_upsilon,
    bell_basis_state,
    class_projector_apply,
    decompose_classes,
    upsilon_expectations,
)
from bellport.channels import (
    CHANNEL_KINDS,
    ChannelSpec,
    aklt_state,
    build,
    cluster_state,
    heisenberg_ring_ground,
    string_order,
)
from bellport.cli import _EIGEN_TOL
from bellport.protocol import _omega, order_parameter
from bellport.states import PureState, _adopt, inner_product, random_state

PROPERTY = settings(max_examples=60, deadline=None)
KINDS = ("random", "singlet-random", "aklt", "cluster1d", "ghz", "heisenberg-ring")

# ---------------------------------------------------------------------------
# oracles: the analyses before the signed adds and the adopted arrays


def old_upsilons(amps):
    """The three images with a float parity sign, which numpy casts to complex
    (imaginary parts +0) in the product: the rule the cached sign must keep."""
    sign = np.ones(1)
    while sign.size < amps.shape[-1]:
        sign = np.concatenate((sign, -sign))
    y2 = sign * amps
    return amps[..., ::-1].copy(), y2, y2[..., ::-1].copy()


def old_class_components(amps):
    y1, y2, y3 = old_upsilons(amps)
    return [0.25 * (amps + j * y1 + k * y2 + j * k * y3) for j, k in BELL_CLASSES]


def old_decompose_classes(state):
    coefficients, components = {}, {}
    for cls, amps in zip(BELL_CLASSES, old_class_components(state.amplitudes)):
        c = float(np.linalg.norm(amps))
        coefficients[cls] = c
        if c >= COMPONENT_ATOL:
            components[cls] = PureState(amps / c)
    return coefficients, components


def old_pure_class(weights, tol):
    """The purity rule when it took the class weights and squared the top one."""
    best = max(weights, key=weights.__getitem__)
    return best if weights[best] ** 2 > 1.0 - tol else None


def old_apply_upsilon(state, alpha):
    return PureState(old_upsilons(state.amplitudes)[alpha - 1], normalized=state.normalized)


def old_string_order(state):
    e2 = np.real(inner_product(state, old_apply_upsilon(state, 2)))
    return float((-1.0) ** (state.num_sites // 2 - 1) * e2)


# ---------------------------------------------------------------------------


@cache
def channel(kind, L, seed):
    return build(ChannelSpec(kind=kind, qubits=L, seed=seed))


channels = st.builds(
    channel,
    st.sampled_from(KINDS),
    st.sampled_from((4, 6, 8, 10, 12)),
    st.integers(0, 7),
)


# every size 2..12 each family builds (pair families need even L, the AKLT
# chain at least two pairs, and the odd Heisenberg rings are degenerate);
# bell-product channels are drawn from their labels
EVERY_L, EVEN_L = range(2, 13), range(2, 13, 2)
FAMILY_SIZES = {
    "random": EVERY_L,
    "ghz": EVERY_L,
    "cluster1d": EVERY_L,
    "singlet-random": EVEN_L,
    "mg-dimers": EVEN_L,
    "heisenberg-ring": EVEN_L,
    "aklt": range(4, 13, 2),
}

every_family = st.one_of(
    st.sampled_from([(kind, L) for kind, sizes in FAMILY_SIZES.items() for L in sizes]).flatmap(
        lambda kind_L: st.builds(channel, st.just(kind_L[0]), st.just(kind_L[1]), st.integers(0, 7))
    ),
    st.lists(st.sampled_from(BELL_LABELS), min_size=1, max_size=6).map(bell_basis_state),
)


def test_every_buildable_family_is_drawn():
    assert set(FAMILY_SIZES) == set(CHANNEL_KINDS) - {"bell-product", "explicit"}


@settings(max_examples=200, deadline=None)
@given(every_family)
def test_vdot_expectations_equal_the_stacked_form(state):
    stacked = _expectations(state.amplitudes[None])[0].tolist()
    assert upsilon_expectations(state) == tuple(stacked)
    assert order_parameter(state).omega == _omega(*stacked)


def test_upsilon_expectations_hold_one_image_at_a_time():
    # 16 qubits, 1 MiB of amplitudes; all three images at once peaked at 3 MiB
    state = random_state(16, 2, np.random.default_rng(5))
    expected = upsilon_expectations(state)  # and the cached parity sign
    tracemalloc.start()
    try:
        assert upsilon_expectations(state) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * state.amplitudes.nbytes


@PROPERTY
@given(every_family.filter(lambda state: state.num_sites % 2 == 0))
def test_decomposition_matches_products_by_the_signs(state):
    coefficients, components = old_decompose_classes(state)
    dec = decompose_classes(state)
    assert dec.coefficients == coefficients
    assert _class_weights(state) == coefficients
    assert dec.components.keys() == components.keys()
    for cls, old in components.items():
        new = dec.components[cls].amplitudes
        assert np.array_equal(new, old.amplitudes)
        assert not np.shares_memory(new, state.amplitudes)
    for cls, old in zip(BELL_CLASSES, old_class_components(state.amplitudes)):
        projected = class_projector_apply(state, cls)
        assert not projected.normalized
        assert np.array_equal(projected.amplitudes, old)


@PROPERTY
@given(channels)
def test_one_upsilon_image_matches_all_three(state):
    assert string_order(state) == old_string_order(state)
    for alpha in (1, 2, 3):
        new, old = apply_upsilon(state, alpha), old_apply_upsilon(state, alpha)
        assert new.normalized == old.normalized
        assert np.array_equal(new.amplitudes.view(np.uint64), old.amplitudes.view(np.uint64))
        assert new.amplitudes.flags.c_contiguous and not new.amplitudes.flags.writeable


def test_class_projector_refuses_a_bad_class():
    with pytest.raises(ValueError, match="bad Bell class"):
        class_projector_apply(random_state(4, 2, 0), (0, 1))


def test_adopt_takes_the_array_and_checks_it_as_pure_state_does():
    amps = random_state(4, 2, 1).amplitudes.copy()
    state = _adopt(amps)
    assert state.amplitudes is amps and not amps.flags.writeable
    assert state.num_sites == 4 and state.normalized
    with pytest.raises(ValueError, match="power of 2"):
        _adopt(np.ones(3, dtype=complex))
    with pytest.raises(ValueError, match="flagged normalized"):
        _adopt(np.ones(4, dtype=complex))
    assert not _adopt(np.ones(4, dtype=complex), normalized=False).normalized
    # the public constructor keeps copying
    source = np.ones(4, dtype=complex) / 2
    assert not np.shares_memory(PureState(source).amplitudes, source)


def two_class_mix(p):
    """sqrt(1 - p) of a [+:+] Bell product and sqrt(p) of a [-:+] one, 8 qubits."""
    a = bell_basis_state([(1, 1)] * 4).amplitudes
    b = bell_basis_state([(-1, 1)] + [(1, 1)] * 3).amplitudes
    return PureState(np.sqrt(1.0 - p) * a + np.sqrt(p) * b)


PURITY_STATES = (
    [(f"aklt-{L}", aklt_state, L) for L in range(4, 17, 2)]
    + [(f"heisenberg-{L}", heisenberg_ring_ground, L) for L in range(4, 13, 2)]
    + [(f"cluster-{L}", cluster_state, L) for L in (4, 8, 12)]
    + [(f"random-{L}", lambda L: random_state(L, 2, L), L) for L in (4, 8, 12)]
    # straddling, and on either side of both tolerances
    + [(f"mix-{p:g}", two_class_mix, p) for p in (0.5, 0.3, 5e-9, 1.5e-9, 1e-10)]
)


@pytest.mark.parametrize("tol", [PURE_CLASS_TOL, _EIGEN_TOL])
@pytest.mark.parametrize(
    "make, arg", [case[1:] for case in PURITY_STATES], ids=[case[0] for case in PURITY_STATES]
)
def test_purity_read_off_omega_matches_the_class_sums(make, arg, tol):
    state = make(arg)
    weights = _class_weights(state)
    squares = _omega_squares(order_parameter(state).omega)
    for cls, w in weights.items():
        assert abs(squares[cls] - w**2) < 1e-12
    pure = _pure_class(squares, tol)
    assert pure == old_pure_class(weights, tol)
    assert pure == _pure_class({c: w**2 for c, w in weights.items()}, tol)
    assert pure == decompose_classes(state).pure_class(tol)
    top, second = sorted(weights.values())[:-3:-1]
    if top**2 - second**2 > 1e-9:  # tied classes may fall either way
        assert _dominant_class(squares) == _dominant_class(weights)
