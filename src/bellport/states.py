"""Dense state vectors for n sites of local dimension d.

Amplitude indexing puts site 0 in the most significant digit, matching
the left-to-right order of tensor-product notation (the client state of
the teleportation protocol is always the leftmost factor).  States are
immutable; every operation returns a new state.  A dense vector of n
qubits takes 16 * 2^n bytes; the channel builders stop at
channels.MAX_QUBITS = 20 qubits (16 MiB), so a teleport needs 21 sites.

Randomness comes from ``numpy.random.default_rng`` (PCG64): named,
seedable, and splittable via ``spawn``, so any sampled output can be
reproduced bit-for-bit from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

NORM_ATOL = 1e-10


def _as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class PureState:
    """Pure state of ``num_sites`` qudits with ``local_dim`` levels each.

    ``normalized=True`` asserts unit Euclidean norm (checked to 1e-10 at
    construction).  Transient projection results carry
    ``normalized=False`` together with whatever norm they actually have;
    measurement code reads that norm off as a probability.
    """

    amplitudes: np.ndarray
    local_dim: int = 2
    normalized: bool = True
    num_sites: int = field(init=False)  # derived from amplitudes/local_dim

    def __post_init__(self) -> None:
        self._settle(np.array(self.amplitudes, dtype=complex))  # always copy

    def _settle(self, amps: np.ndarray) -> None:
        """Check the complex array ``amps`` and keep it, read-only, as the amplitudes."""
        if amps.ndim != 1:
            amps = amps.reshape(-1)
        if self.local_dim < 2:
            raise ValueError(f"local_dim must be >= 2, got {self.local_dim}")
        n = 0
        size = 1
        while size < amps.size:
            size *= self.local_dim
            n += 1
        if size != amps.size or n < 1:
            raise ValueError(
                f"amplitude length {amps.size} is not a positive power of {self.local_dim}"
            )
        if self.normalized:
            norm = np.linalg.norm(amps)
            if not abs(norm - 1.0) <= NORM_ATOL:  # a NaN or infinite norm fails too
                raise ValueError(f"state flagged normalized but has norm {norm!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_sites", n)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def as_tensor(self) -> np.ndarray:
        """View of the amplitudes with one axis per site."""
        return self.amplitudes.reshape((self.local_dim,) * self.num_sites)

    def __repr__(self) -> str:  # keep reprs short; amplitudes can be huge
        return (
            f"PureState(num_sites={self.num_sites}, local_dim={self.local_dim}, "
            f"normalized={self.normalized})"
        )


def _adopt(amps: np.ndarray, local_dim: int = 2, normalized: bool = True) -> PureState:
    """``PureState(amps, local_dim, normalized)`` without its copy, for an array
    the library has just computed and holds alone: a C-ordered complex
    ``amps`` becomes the state's amplitudes, checked as ``PureState`` checks."""
    state = object.__new__(PureState)
    object.__setattr__(state, "local_dim", local_dim)
    object.__setattr__(state, "normalized", normalized)
    state._settle(np.ascontiguousarray(amps, dtype=complex))
    return state


def _wrap(amplitudes: np.ndarray, local_dim: int) -> PureState:
    """Adopt a computed array as a state, detecting whether it is normalized."""
    ok = abs(np.linalg.norm(amplitudes) - 1.0) <= NORM_ATOL
    return _adopt(amplitudes, local_dim, normalized=ok)


def basis_state(digits: Sequence[int], local_dim: int = 2) -> PureState:
    """Computational basis state |digits[0], digits[1], ...>."""
    digits = list(digits)
    if not digits:
        raise ValueError("need at least one site")
    index = 0
    for x in digits:
        if not 0 <= x < local_dim:
            raise ValueError(f"digit {x} out of range for local_dim={local_dim}")
        index = index * local_dim + x
    amps = np.zeros(local_dim ** len(digits), dtype=complex)
    amps[index] = 1.0
    return PureState(amps, local_dim=local_dim)


def qubit_ket(signs: Sequence[int]) -> PureState:
    """Qubit product state |s1, s2, ...> with s = +1 -> |+>, s = -1 -> |->."""
    return basis_state([0 if s == 1 else 1 for s in signs], local_dim=2)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; the sites of ``a`` precede the sites of ``b``."""
    if a.local_dim != b.local_dim:
        raise ValueError(
            f"local dimensions differ: {a.local_dim} vs {b.local_dim}"
        )
    return _wrap(np.kron(a.amplitudes, b.amplitudes), a.local_dim)


def apply_local(state: PureState, op: np.ndarray, site: int) -> PureState:
    """Apply a d x d operator to one site (strided kernel, no big matrix)."""
    d = state.local_dim
    op = np.asarray(op, dtype=complex)
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} does not match local_dim {d}")
    if not 0 <= site < state.num_sites:
        raise ValueError(f"site {site} out of range for {state.num_sites} sites")
    t = np.tensordot(op, state.as_tensor(), axes=([1], [site]))
    t = np.moveaxis(t, 0, site)
    return _wrap(t.reshape(-1), d)


def apply_two_site(state: PureState, op: np.ndarray, a: int, b: int) -> PureState:
    """Apply a d^2 x d^2 operator to the ordered site pair (a, b)."""
    d = state.local_dim
    op = np.asarray(op, dtype=complex)
    if op.shape != (d * d, d * d):
        raise ValueError(f"operator shape {op.shape} does not match a site pair")
    if a == b or not (0 <= a < state.num_sites and 0 <= b < state.num_sites):
        raise ValueError(f"invalid site pair ({a}, {b})")
    t = state.as_tensor()
    op4 = op.reshape(d, d, d, d)  # (a_out, b_out, a_in, b_in)
    t = np.tensordot(op4, t, axes=([2, 3], [a, b]))
    t = np.moveaxis(t, (0, 1), (a, b))
    return _wrap(t.reshape(-1), d)


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.local_dim != b.local_dim or a.num_sites != b.num_sites:
        raise ValueError("states have different shapes")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def overlap_fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, insensitive to global phases."""
    return abs(inner_product(a, b)) ** 2


def permute_sites(state: PureState, perm: Sequence[int]) -> PureState:
    """Relocate sites: the qudit at site i moves to site perm[i]."""
    n = state.num_sites
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    inverse = [0] * n
    for src, dst in enumerate(perm):
        inverse[dst] = src
    t = state.as_tensor().transpose(inverse)
    return _wrap(np.ascontiguousarray(t).reshape(-1), state.local_dim)


def normalize(state: PureState) -> PureState:
    return _normalize_own(state.amplitudes.copy(), state.local_dim)


def _normalize_own(amps: np.ndarray, local_dim: int = 2) -> PureState:
    """``normalize`` for a complex array the caller owns: ``amps`` is divided
    in place and adopted, so it is never copied."""
    nrm = float(np.linalg.norm(amps))
    if nrm < 1e-12:
        raise ValueError("cannot normalize a (numerically) zero state")
    if not nrm < np.inf:  # NaN or infinite
        raise ValueError(f"cannot normalize a state of norm {nrm}")
    amps /= nrm
    return _adopt(amps, local_dim)


def _haar(size: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vector of ``size`` i.i.d. complex normal amplitudes."""
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return amps / np.linalg.norm(amps)


def random_state(
    num_sites: int,
    local_dim: int = 2,
    seed: int | np.random.Generator | None = None,
) -> PureState:
    """Haar-style random state: i.i.d. complex normal amplitudes, normalized.

    This samples the uniform distribution on the unit sphere of the full
    Hilbert space.
    """
    if num_sites < 1:
        raise ValueError("num_sites must be >= 1")
    return PureState(_haar(local_dim**num_sites, _as_rng(seed)), local_dim=local_dim)


def random_product_state(
    num_sites: int,
    local_dim: int = 2,
    seed: int | np.random.Generator | None = None,
) -> PureState:
    """Tensor product of independently random single-site states."""
    rng = _as_rng(seed)
    out = random_state(1, local_dim, rng)
    for _ in range(num_sites - 1):
        out = tensor(out, random_state(1, local_dim, rng))
    return out
