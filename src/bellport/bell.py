"""Bell basis, Upsilon string operators, and Bell-class decomposition.

A channel on an even number L of qubits splits into four orthogonal
subspaces ("Bell classes") labelled [j:k], the simultaneous eigenspaces
of the site-wise products Upsilon^1 = U1^(xL) and Upsilon^2 = U2^(xL).
Every state inside one class is a perfect teleportation channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import SIGNS
from .states import PureState, _adopt, _norm, tensor

# A state is reported as lying in a single class when its top class
# weight exceeds 1 - PURE_CLASS_TOL.
PURE_CLASS_TOL = 1e-9
# Class components below this amplitude are treated as absent.
COMPONENT_ATOL = 1e-12


class BellLabel(NamedTuple):
    """Outcome/state label (j, k) of one Bell pair; entries are +-1."""

    j: int
    k: int


class BellClass(NamedTuple):
    """Class label [j:k] of a multi-pair channel; entries are +-1."""

    j: int
    k: int


BELL_LABELS: tuple[BellLabel, ...] = tuple(
    BellLabel(j, k) for j in SIGNS for k in SIGNS
)
BELL_CLASSES: tuple[BellClass, ...] = tuple(
    BellClass(j, k) for j in SIGNS for k in SIGNS
)


def format_sign_pair(pair: Sequence[int]) -> str:
    """Compact text form of a label/class, e.g. (+1, -1) -> '+-'."""
    return "".join("+" if s == 1 else "-" for s in pair)


def parse_sign_pair(text: str) -> tuple[int, ...]:
    if not text or any(c not in "+-" for c in text):
        raise ValueError(f"cannot parse sign string {text!r}")
    return tuple(1 if c == "+" else -1 for c in text)


def bell_state(label: BellLabel | tuple[int, int]) -> PureState:
    """Two-qubit Bell state |j:k} = (|+,k> + j |-,kbar>) / sqrt(2)."""
    j, k = label
    if j not in SIGNS or k not in SIGNS:
        raise ValueError(f"bad Bell label {label!r}")
    amps = np.zeros(4, dtype=complex)
    amps[0 * 2 + (0 if k == 1 else 1)] = 1.0
    amps[1 * 2 + (0 if k == -1 else 1)] = j
    return PureState(amps / np.sqrt(2.0))


def bell_basis_state(labels: Sequence[BellLabel | tuple[int, int]]) -> PureState:
    """Tensor product of Bell pairs: |j1:k1} (x) ... (x) |jn:kn}."""
    if not labels:
        raise ValueError("need at least one Bell label")
    out = bell_state(labels[0])
    for lab in labels[1:]:
        out = tensor(out, bell_state(lab))
    return out


def labels_class(labels: Sequence[BellLabel | tuple[int, int]]) -> BellClass:
    """Class of a Bell basis product: component-wise sign products."""
    j = k = 1
    for lj, lk in labels:
        j *= lj
        k *= lk
    return BellClass(j, k)


def _u_string(amps: np.ndarray, factors: Sequence[int]) -> np.ndarray:
    """Amplitudes of a qubit state after (x)_s U^{factors[s]}, as one index map.

    U^f = U1^(f&1) U2^(f>>1): each U2 factor is the sign (-1)^bit of its
    site and each U1 factor then flips that bit, so the whole string is
    one sign vector followed by one flip of the site tensor.  The same
    rule composes strings: U^a U^b = (-1)^((a>>1)&b&1) U^(a^b).  It serves
    the mixed-factor products; a uniform string Upsilon^a is ``_upsilons``.
    """
    sign = np.ones(1)
    for f in reversed(factors):  # site 0 is the most significant bit
        sign = np.concatenate((sign, -sign if f & 2 else sign))
    flips = tuple(site for site, f in enumerate(factors) if f & 1)
    return np.flip((sign * amps).reshape((2,) * len(factors)), flips).reshape(-1)


@cache
def _parity(size: int) -> np.ndarray:
    """(-1)^(number of 1 bits of i) for i < size, by the U-string doubling rule,
    cast once to complex: numpy multiplies a float sign by complex amplitudes
    as its cast (imaginary parts +0), so the products are the same bits."""
    sign = np.ones(1)
    while sign.size < size:
        sign = np.concatenate((sign, -sign))
    sign = sign.astype(complex)  # not -(1+0j), whose -0 would flip zeros' signs
    sign.flags.writeable = False  # shared by every caller
    return sign


def _upsilon2(amps: np.ndarray) -> np.ndarray:
    """Upsilon^2 of a stack of qubit states (..., 2^n): U2 on every site is
    the parity sign."""
    return _parity(amps.shape[-1]) * amps


def _upsilons(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upsilon^1, Upsilon^2, Upsilon^3 of a stack of qubit states (..., 2^n).

    U1 on every site flips every bit of the index, which reverses the
    vector; Upsilon^3 is both U1 and U2.  The reversals are copied: BLAS
    sums a reversed view in another order.
    """
    y2 = _upsilon2(amps)
    return amps[..., ::-1].copy(), y2, y2[..., ::-1].copy()


def _expectations(amps: np.ndarray) -> np.ndarray:
    """Re <Upsilon^a> for a = 1, 2, 3 of a stack (..., 2^n), shape (..., 3)."""
    bras = amps.conj()[..., None, :]
    return np.stack([(bras @ y[..., None])[..., 0, 0].real for y in _upsilons(amps)], -1)


def apply_upsilon(state: PureState, alpha: int) -> PureState:
    """Apply Upsilon^alpha = prod_sites U^alpha."""
    if alpha not in (1, 2, 3):
        raise ValueError(f"Upsilon index must be 1, 2 or 3, got {alpha}")
    if state.local_dim != 2:
        raise ValueError("Upsilon operators are defined for qubit states")
    amps = _upsilon2(state.amplitudes) if alpha & 2 else state.amplitudes
    if alpha & 1:
        amps = amps[::-1].copy()  # C-ordered, as every state's amplitudes are
    return _adopt(amps, normalized=state.normalized)


def upsilon_expectations(state: PureState) -> tuple[float, float, float]:
    """(<Upsilon^1>, <Upsilon^2>, <Upsilon^3>) as real numbers.

    Upsilon^3 is self-adjoint only for an even number of sites; for odd
    sites its expectation is purely imaginary and the returned real part
    is zero.
    """
    if state.local_dim != 2:
        raise ValueError("Upsilon operators are defined for qubit states")
    amps = state.amplitudes
    return tuple(float(np.vdot(amps, y).real) for y in _upsilons(amps))  # string_order's form


def _require_even_qubits(state: PureState) -> None:
    if state.local_dim != 2:
        raise ValueError("Bell classes are defined for qubit states")
    if state.num_sites % 2 != 0:
        raise ValueError("Bell classes need an even number of sites")


_SIGNED_ADD = {1: np.add, -1: np.subtract}  # adding the product by each sign


def _class_component(amps: np.ndarray, j: int, k: int) -> np.ndarray:
    """P_[j:k] a = (((a + j Y1 a) + k Y2 a) + jk Y3 a) / 4 of a stack ``amps``
    (..., 2^n), unnormalized: each sign picks an add or a subtract, which
    round as adding the product by +-1 would (an exact zero may come out
    with the other sign)."""
    y2 = _upsilon2(amps)
    out = _SIGNED_ADD[j](amps, amps[..., ::-1])
    _SIGNED_ADD[k](out, y2, out=out)
    _SIGNED_ADD[j * k](out, y2[..., ::-1], out=out)
    out *= 0.25
    return out


def class_projector_apply(state: PureState, cls: BellClass | tuple[int, int]) -> PureState:
    """P_[j:k] applied to the state, possibly unnormalized."""
    _require_even_qubits(state)
    j, k = cls
    if j not in SIGNS or k not in SIGNS:
        raise ValueError(f"bad Bell class {cls!r}")
    return _adopt(_class_component(state.amplitudes, j, k), normalized=False)


@dataclass(frozen=True)
class ClassDecomposition:
    """Split of a channel into its four Bell-class components.

    ``coefficients[c]`` is the (nonnegative, by phase convention) weight
    c_[j:k]; the squared values sum to one.  ``components`` holds the
    renormalized class vectors and omits entries whose coefficient is
    below COMPONENT_ATOL, so "which class is this" queries get a crisp
    answer.
    """

    coefficients: dict[BellClass, float]
    components: dict[BellClass, PureState]

    def dominant_class(self) -> BellClass:
        return max(self.coefficients, key=lambda c: self.coefficients[c])

    def pure_class(self, tol: float = PURE_CLASS_TOL) -> BellClass | None:
        """The single occupied class, or None if the state straddles classes."""
        best = self.dominant_class()
        if self.coefficients[best] ** 2 > 1.0 - tol:
            return best
        return None


def decompose_classes(state: PureState) -> ClassDecomposition:
    """Project a channel onto the four Bell classes.

    The weights satisfy |c_[j:k]|^2 = (1 + Omega_[j:k]) / 4 with Omega
    the signed combination of Upsilon expectations.
    """
    _require_even_qubits(state)
    coefficients: dict[BellClass, float] = {}
    components: dict[BellClass, PureState] = {}
    for cls in BELL_CLASSES:
        amps = _class_component(state.amplitudes, *cls)
        c = _norm(amps)
        coefficients[cls] = c
        if c >= COMPONENT_ATOL:
            # amps / c, which numpy forms as (re + im * 0) * (1 / c): the same
            # bits, up to the sign of a zero
            f = amps.view(np.float64)
            f *= 1.0 / c
            components[cls] = _adopt(amps)
        del amps  # a dropped component is freed before the next one is formed
    return ClassDecomposition(coefficients=coefficients, components=components)
