"""Named channel families: Bell products, singlets, cluster and AKLT states.

Singlet states (invariant up to phase under A^(xL) for every unitary A)
all live in the Bell class [(-1)^(L/2) : (-1)^(L/2)] and are perfect
channels; this module builds random singlets, Majumdar-Ghosh dimer
coverings, and antiferromagnetic Heisenberg ring ground states as
physical examples.  Linear cluster states come with their K_j
stabilizers and the derived G1/G2 string operators; the AKLT ground
state is built in the virtual-qubit picture together with its string
order parameter.  These builders are index maps: a dimer product moves
the bits of the Majumdar-Ghosh product, the Heisenberg ring uses
S_i . S_j = SWAP_ij / 2 - 1/4 in its S^z = 0 sector, one translation
momentum at a time (conjugate momenta share a spectrum, and the gap is
taken over the union of all of them), and an AKLT junction is
(1 + SWAP) / 2.  No builder exceeds MAX_QUBITS qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bell import BellLabel, _parity, _u_string, _upsilon2, bell_basis_state
from .states import PureState, _as_rng, _norm, _normalize_own, inner_product, random_state

# 16 MiB per dense state vector, and about 1 s of singlet scatter-adds
MAX_QUBITS = 20

class DegenerateGroundStateError(RuntimeError):
    """Ground state not unique within tolerance; carries the gap found."""

    def __init__(self, gap: float, tol: float):
        super().__init__(
            f"ground state degenerate within tolerance: gap {gap:.3e} < {tol:.3e}"
        )
        self.gap = gap


@dataclass(frozen=True)
class ChannelSpec:
    """Declarative channel description, also usable from the CLI.

    ``qubits`` is the total qubit count L for every variant (converted
    internally to the pair count where a builder wants one).
    """

    kind: str
    qubits: int = 0
    seed: int | None = None
    labels: tuple[BellLabel, ...] | None = None
    amplitudes: np.ndarray | None = None


# kind -> the state of its ChannelSpec.  Each entry looks its builder up
# by module-level name when it runs, so a wrapped builder is the one called.
_BUILDERS: dict[str, Callable[[ChannelSpec], PureState]] = {
    "bell-product": lambda spec: _bell_product(spec.labels),
    "singlet-random": lambda spec: singlet_random(_require_even(spec.qubits), spec.seed),
    "mg-dimers": lambda spec: majumdar_ghosh_dimers(_require_even(spec.qubits)),
    "heisenberg-ring": lambda spec: heisenberg_ring_ground(spec.qubits),
    "cluster1d": lambda spec: cluster_state(spec.qubits),
    "ghz": lambda spec: ghz_state(spec.qubits),
    "aklt": lambda spec: aklt_state(spec.qubits),
    "random": lambda spec: random_state(_check_size(spec.qubits), 2, spec.seed),
    "explicit": lambda spec: _explicit(spec.amplitudes),
}
CHANNEL_KINDS = tuple(_BUILDERS)


def build(spec: ChannelSpec) -> PureState:
    """Construct the state a ChannelSpec describes."""
    if spec.kind not in _BUILDERS:
        raise ValueError(f"unknown channel kind {spec.kind!r}")
    return _BUILDERS[spec.kind](spec)


def _bell_product(labels: Sequence[BellLabel] | None) -> PureState:
    if not labels:
        raise ValueError("bell-product spec needs labels")
    _check_size(2 * len(labels))
    return bell_basis_state(labels)


def _explicit(amplitudes: np.ndarray | None) -> PureState:
    if amplitudes is None:
        raise ValueError("explicit spec needs amplitudes")
    return _normalize_own(np.array(amplitudes, dtype=complex))  # a copy


def parse_channel_spec(text: str) -> ChannelSpec:
    """Parse 'kind:qubits[:seed]' strings, e.g. 'cluster1d:6' or 'random:4:7'.

    'bell:<labels>' takes comma-separated sign pairs, e.g. 'bell:+-,-+';
    every other kind takes the qubit count, optionally followed by
    ':<seed>', and nothing more.  Text cannot carry amplitudes, so
    'explicit' is refused: an explicit channel is built from a
    ``ChannelSpec`` in code.
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind in ("bell", "bell-product"):
        labels = []
        for part in rest.split(","):
            part = part.strip()
            if len(part) != 2 or any(c not in "+-" for c in part):
                raise ValueError(f"bad Bell label {part!r} in {text!r}")
            labels.append(BellLabel(*(1 if c == "+" else -1 for c in part)))
        return ChannelSpec(kind="bell-product", qubits=2 * len(labels), labels=tuple(labels))
    if kind == "explicit":
        raise ValueError(
            f"channel spec {text!r}: explicit channels are library-only, "
            "built from ChannelSpec(kind='explicit', amplitudes=...)"
        )
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"unknown channel kind {kind!r}")
    parts = rest.split(":") if rest else []
    if not parts or not parts[0]:
        raise ValueError(f"channel spec {text!r} needs a qubit count")
    if len(parts) > 2:
        raise ValueError(f"channel spec {text!r} is not kind:qubits[:seed]")
    qubits = int(parts[0])
    seed = int(parts[1]) if len(parts) > 1 else None
    return ChannelSpec(kind=kind, qubits=qubits, seed=seed)


def _require_even(L: int) -> int:
    """The pair count L // 2 of a positive even qubit count L."""
    if L < 2 or L % 2 != 0:
        raise ValueError(f"channel size must be a positive even qubit count, got {L}")
    return L // 2


def _check_size(L: int) -> int:
    """L, unless it exceeds MAX_QUBITS."""
    if L > MAX_QUBITS:
        raise ValueError(f"{L} qubits exceed the limit of {MAX_QUBITS}")
    return L


def ghz_state(L: int) -> PureState:
    """(|++...+> + |--...->) / sqrt(2); lies in Bell class [+:+] for even L."""
    _check_size(L)
    if L < 2:
        raise ValueError("GHZ needs at least 2 qubits")
    amps = np.zeros(2**L, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState(amps)


# ---------------------------------------------------------------------------
# singlet channels


def majumdar_ghosh_dimers(n_pairs: int) -> PureState:
    """Product of nearest-neighbour singlets, the Majumdar-Ghosh ground state."""
    _check_size(2 * n_pairs)
    if n_pairs < 1:
        raise ValueError("need at least one dimer")
    return bell_basis_state([BellLabel(-1, -1)] * n_pairs)


def noncrossing_matchings(L: int) -> list[tuple[tuple[int, int], ...]]:
    """All non-crossing perfect matchings of sites 0..L-1 (Catalan many)."""
    _require_even(L)
    return [tuple(zip(row[0::2], row[1::2])) for row in _matching_sites(L).tolist()]


def _matching_sites(L: int) -> np.ndarray:
    """The non-crossing matchings of L sites as one (count, L) array.

    Row r lists the pairs of matching r one after the other, so it is the
    site each slot of the Majumdar-Ghosh product moves to.  Site 0 pairs
    with an odd site q, which leaves the matchings of the q - 1 sites
    inside and of the L - q - 1 sites outside; the table for each even
    length is built once, from the shorter ones.
    """
    tables = [np.zeros((1, 0), dtype=np.intp)]  # tables[n]: matchings of 2n sites
    for n in range(2, L + 1, 2):
        parts = [
            (tables[(q - 1) // 2], tables[(n - q - 1) // 2], q) for q in range(1, n, 2)
        ]
        table = np.empty((sum(len(a) * len(b) for a, b, _ in parts), n), dtype=np.intp)
        start = 0
        for inner, outer, q in parts:  # inner-major, as the rows are listed
            stop = start + len(inner) * len(outer)
            block = table[start:stop].reshape(len(inner), len(outer), n)
            block[..., 0] = 0  # site 0 pairs with site q
            block[..., 1] = q
            block[..., 2 : q + 1] = inner[:, None] + 1
            block[..., q + 1 :] = outer + q + 1
            start = stop
        tables.append(table)
    return tables[-1]


# Entries per block of scatter-adds.  A block holds its indices, its
# products and numpy's two buffers for the broadcast complex product,
# about 56 B per entry, so at L = 12 a block stays below the state's size.
_SCATTER_BLOCK = 2**10


def singlet_random(
    n_pairs: int, seed: int | np.random.Generator | None = None
) -> PureState:
    """Random state of the singlet space of L = 2 * n_pairs qubits.

    Draws complex-normal coefficients over the non-crossing dimer
    products (which span the singlet space) and normalizes.  A dimer
    product is the Majumdar-Ghosh product with the bit of slot s moved
    to the site that the matching lists in slot s; blocks of products
    are scatter-added in matching order, so each amplitude sums its
    terms in the same order as one product at a time would.
    """
    L = 2 * n_pairs
    _check_size(L)
    _require_even(L)
    rng = _as_rng(seed)
    sites = _matching_sites(L)
    coeffs = rng.standard_normal(len(sites)) + 1j * rng.standard_normal(len(sites))
    mg = majumdar_ghosh_dimers(n_pairs).amplitudes
    nz = np.flatnonzero(mg)
    values = mg[nz]
    del mg  # 4^n_pairs entries; only its 2^n_pairs nonzero ones are needed
    bits = (nz >> np.arange(L - 1, -1, -1)[:, None]) & 1  # bits[s] is slot s
    weights = 1 << (L - 1 - sites)  # the bit of slot s lands on site sites[r, s]
    amps = np.zeros(2**L, dtype=complex)
    block = max(1, _SCATTER_BLOCK // len(nz))
    for lo in range(0, len(sites), block):
        rows = slice(lo, lo + block)
        np.add.at(amps, weights[rows] @ bits, coeffs[rows, None] * values)
    return _normalize_own(amps)


def heisenberg_ring_ground(L: int, degeneracy_tol: float = 1e-8) -> PureState:
    """Ground state of the spin-1/2 antiferromagnetic Heisenberg ring.

    H = sum_i S_i . S_{i+1} with periodic boundary and S_i . S_j =
    SWAP_ij / 2 - 1/4, diagonalized in the S^z = 0 sector for L <= 12,
    one translation momentum k = 2 pi m / L at a time.  The sector's
    states fall into orbits under the cyclic shift T; the momentum
    state of representative r with period p exists when m p = 0 mod L,
    and bond swaps give H_k[b, a] = sum e^{ikt} sqrt(p_a / p_b) / 2 over
    the bonds taking a to T^t b.  H_k and H_{-k} share a spectrum, so
    only m <= L/2 is diagonalized and 0 < m < L/2 counts twice; H_k is
    real at k = 0 and k = pi.  The gap is taken over the union of the
    sector spectra, so it is the S^z = 0 gap, which is the full gap:
    every SU(2) multiplet of an even ring has an S^z = 0 member.
    Raises DegenerateGroundStateError unless the gap is at least
    ``degeneracy_tol`` (so a NaN tolerance always raises).
    """
    _require_even(L)
    if L > 12:
        raise ValueError("the Heisenberg ring ground state is limited to L <= 12")
    weights = 2 ** np.arange(L - 1, -1, -1)  # site s is bit L-1-s
    bits = np.arange(2**L)[:, None] // weights % 2
    basis = np.flatnonzero(bits.sum(1) == L // 2)
    # images[:, j - 1] is T^j x for j = 1..L, where T moves site s to s + 1
    j = np.arange(1, L + 1)
    images = (basis[:, None] >> j | basis[:, None] << L - j) & (2**L - 1)
    first = images.argmin(1)
    reps, orbit = np.unique(images[np.arange(len(basis)), first], return_inverse=True)
    shift = L - 1 - first  # x = T^shift r for the representative r of its orbit
    period = (images[np.searchsorted(basis, reps)] == reps[:, None]).argmax(1) + 1
    # bond b of representative a swaps it into T^t r for the representative r
    nxt = np.roll(np.arange(L), -1)
    swapped = reps[:, None] + (bits[reps][:, nxt] - bits[reps]) * (weights - weights[nxt])
    col = np.searchsorted(basis, swapped).ravel()
    source, target, t = np.repeat(np.arange(len(reps)), L), orbit[col], shift[col]
    weight = 0.5 * np.sqrt(period[source] / period[target])
    root = np.exp(2j * np.pi * np.arange(L) / L)  # e^{ik} at k = 2 pi m / L
    root[L // 2] = -1  # exactly, so that H_k is real at k = 0 and k = pi

    spectra, sectors = [], []
    for m in range(L // 2 + 1):
        live = m * period % L == 0  # orbits with a momentum-m state
        row = np.cumsum(live) - 1
        use = live[source] & live[target]
        H = np.diag(np.full(row[-1] + 1, -L / 4 + 0j))
        phase = root[m * t[use] % L]
        np.add.at(H, (row[target[use]], row[source[use]]), phase * weight[use])
        if 2 * m % L == 0:
            H = H.real
            spectra.append(np.linalg.eigvalsh(H))
        else:  # the conjugate momentum -k has the same spectrum
            spectra.append(np.repeat(np.linalg.eigvalsh(H), 2))
        sectors.append((m, H, live, row))
    union = np.sort(np.concatenate(spectra))
    gap = float(union[1] - union[0])
    if not gap >= degeneracy_tol:
        raise DegenerateGroundStateError(gap, degeneracy_tol)
    m, H, live, row = sectors[int(np.argmin([e[0] for e in spectra]))]
    vector = np.linalg.eigh(H)[1][:, 0]
    keep = live[orbit]  # x = T^shift r holds e^{-ik shift} / sqrt(period) of r's state
    ground = np.zeros(2**L, dtype=complex)
    ground[basis[keep]] = (
        vector[row[orbit[keep]]]
        * root[-m * shift[keep] % L]
        / np.sqrt(period[orbit[keep]])
    )
    return _normalize_own(ground)


# ---------------------------------------------------------------------------
# cluster states and their string operators


def cluster_state(L: int) -> PureState:
    """Linear cluster state on L qubits.

    Built by the two-site factors (|+>_j + |->_j U2_{j+1}): the sign of
    each computational amplitude is (-1)^(number of adjacent |-,-> pairs),
    the parity of x & (x >> 1) for the index x.
    """
    _check_size(L)
    if L < 2:
        raise ValueError("cluster state needs at least 2 qubits")
    x = np.arange(2**L)
    return PureState(_parity(2**L).real[x & (x >> 1)] / np.sqrt(2.0**L))


@dataclass(frozen=True)
class UProduct:
    """Signed product of single-site U factors: sign * (x)_s U^{factors[s]}."""

    sign: int
    factors: tuple[int, ...]

    def apply(self, state: PureState) -> PureState:
        if state.local_dim != 2 or state.num_sites != len(self.factors):
            raise ValueError(f"{len(self.factors)} U factors need as many qubit sites")
        amps = self.sign * _u_string(state.amplitudes, self.factors)
        return PureState(amps, normalized=state.normalized)


@dataclass(frozen=True)
class StabilizerReport:
    name: str
    eigenvalue: float
    deviation: float


def cluster_stabilizer(j: int, L: int) -> UProduct:
    """K_j for the linear cluster state (j is 1-based, as usual)."""
    if not 1 <= j <= L:
        raise ValueError(f"stabilizer index {j} out of range 1..{L}")
    factors = [0] * L
    if j == 1:
        factors[0], factors[1] = 1, 2
    elif j == L:
        factors[L - 2], factors[L - 1] = 2, 1
    else:
        factors[j - 2], factors[j - 1], factors[j] = 2, 1, 2
    return UProduct(sign=1, factors=tuple(factors))


def _u_product_multiply(ops: Sequence[UProduct], L: int) -> UProduct:
    """Site-wise product of U products, refactored as +-U^i.

    Uses U^a U^b = (-1)^((a>>1)&b&1) U^(a^b), the composition rule of
    the U-string index map in ``bell._u_string``.
    """
    sign = 1
    factors = [0] * L
    for op in ops:  # leftmost factor acts last; accumulate left-to-right
        sign *= op.sign
        for site, f in enumerate(op.factors):
            if (factors[site] >> 1) & f & 1:
                sign = -sign
            factors[site] ^= f
    return UProduct(sign=sign, factors=tuple(factors))


def cluster_g_operators(L: int) -> tuple[UProduct, UProduct]:
    """G1, G2 as signed single-site factorizations of K products.

    For an even pair count (L/2 even) the products are
    G1 = prod_j K_{4j-3} K_{4j} and G2 = prod_j K_{4j-2} K_{4j-1}; an
    odd pair count prepends K_{L-1} resp. K_L.  Each site factor lands
    on one of U0..U3, witnessing local-unitary equivalence to the
    Upsilon operators.
    """
    _require_even(L)
    if L < 4:
        raise ValueError("G operators need L >= 4")
    odd = L // 2 % 2
    ks = range(1, 4 * (L // 4) + 1)
    idx1 = [L - 1] * odd + [j for j in ks if j % 4 < 2]  # K_{4j-3} K_{4j}
    idx2 = [L] * odd + [j for j in ks if j % 4 > 1]  # K_{4j-2} K_{4j-1}
    g1 = _u_product_multiply([cluster_stabilizer(j, L) for j in idx1], L)
    g2 = _u_product_multiply([cluster_stabilizer(j, L) for j in idx2], L)
    return g1, g2


def stabilizer_report(state: PureState, op: UProduct, name: str) -> StabilizerReport:
    """Eigenvalue estimate <s|Op|s> and the residual ||Op s - ev s||."""
    applied = op.apply(state)
    ev = float(np.real(inner_product(state, applied)))
    deviation = _norm(applied.amplitudes - ev * state.amplitudes)
    return StabilizerReport(name=name, eigenvalue=ev, deviation=deviation)


# ---------------------------------------------------------------------------
# AKLT ground state in the virtual-qubit picture


def _aklt_build(L: int) -> tuple[PureState, float]:
    _check_size(L)
    _require_even(L)
    if L < 4:
        raise ValueError("AKLT construction needs L >= 4")
    t = majumdar_ghosh_dimers(L // 2).as_tensor()
    for r in range(1, L - 2, 2):  # pairs (1,2), (3,4), ..., (L-3,L-2)
        t = t + t.swapaxes(r, r + 1)  # triplet projector (1 + SWAP) / 2
        t *= 0.5
    amps = t.reshape(-1)
    nrm = _norm(amps)
    return _normalize_own(amps), nrm


def aklt_state(L: int) -> PureState:
    """AKLT ground state with spin-1/2 boundaries on L virtual qubits.

    Triplet projectors (1 + SWAP) / 2 act across the junctions of a
    singlet product; qubits 0 and L-1 are the boundary spin-1/2 sites
    and each interior pair (2r-1, 2r) represents one spin-1 site.
    """
    return _aklt_build(L)[0]


def aklt_projection_norm(L: int) -> float:
    """Norm of the unnormalized projected state (projection diagnostic)."""
    return _aklt_build(L)[1]


def string_order(state: PureState) -> float:
    """String-order parameter in the virtual-qubit representation.

    Evaluates 4 <s^z_1 (x)[prod_k exp(i pi S^z_k)] (x) s^z_(end)> where
    the boundary spin operators are U2/2 on the first and last qubits
    and exp(i pi S^z) = -U2 (x) U2 on each interior virtual pair.  The
    result lies in [-1, 1] and equals -(-1)^(L/2) <Upsilon^2>, which is
    how it is evaluated.
    """
    L = state.num_sites
    if state.local_dim != 2 or L % 2 != 0:
        raise ValueError("string order needs an even number of qubit sites")
    amps = state.amplitudes
    e2 = np.vdot(amps, _upsilon2(amps)).real  # as inner_product takes <a|Upsilon^2 a>
    return float((-1.0) ** (L // 2 - 1) * e2)
