"""The Bell-class analyses against the forms they replaced.

A class component is now ((a +- Y1 a) +- Y2 a) +- Y3 a over 4, as adds
and subtracts chosen by the class signs; ``apply_upsilon`` and
``string_order`` form only the Upsilon image they use; and the analyses
adopt the arrays they compute instead of copying them into a state.  The
oracles below are the earlier forms: all three images, the products by
the signs, and a ``PureState`` copy of each quotient.  On every channel
family the coefficients and the string order must be ``==`` and the
components ``array_equal``: a product by -1 and a subtract round every
nonzero amplitude alike, though an exact zero may come out with the
other sign.

``upsilon_expectations`` (and so ``order_parameter``) takes each
expectation as ``np.vdot(a, Y a)``, ``string_order``'s form, while
``_scatter_channels``' stacks keep the batched ``_expectations``; the two
forms must stay ``==`` on every channel family, on every BLAS the tests
run on.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellport.bell import (
    BELL_CLASSES,
    BELL_LABELS,
    COMPONENT_ATOL,
    _expectations,
    apply_upsilon,
    bell_basis_state,
    class_projector_apply,
    decompose_classes,
    upsilon_expectations,
)
from bellport.channels import CHANNEL_KINDS, ChannelSpec, build, string_order
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


@PROPERTY
@given(channels)
def test_decomposition_matches_products_by_the_signs(state):
    coefficients, components = old_decompose_classes(state)
    dec = decompose_classes(state)
    assert dec.coefficients == coefficients
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
