"""Channel families: singlets, Heisenberg, cluster states, AKLT.

The many-body builders are index maps; the dense constructions they
replaced are kept here as oracles: the non-crossing matchings as a
recursive list, the dimer product as a permuted Majumdar-Ghosh state, the Heisenberg Hamiltonian as a sum of Kronecker
strings and as one dense matrix on its S^z = 0 sector, and the AKLT
junctions as a 4x4 triplet projector.  The Heisenberg builder's loop
over one momentum sector at a time is kept for the bits of its ground
state and gap.  The builders normalise their own
array in place; the wrap-normalise-wrap step they used before, and the
AKLT build that summed its junctions into fresh arrays, are kept as
oracles for the bits of the result.
"""

import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellport import channels
from bellport.bell import (
    bell_basis_state,
    bell_state,
    decompose_classes,
    upsilon_expectations,
)
from bellport.channels import (
    MAX_QUBITS,
    ChannelSpec,
    DegenerateGroundStateError,
    aklt_projection_norm,
    aklt_state,
    build,
    cluster_g_operators,
    cluster_stabilizer,
    cluster_state,
    ghz_state,
    heisenberg_ring_ground,
    majumdar_ghosh_dimers,
    noncrossing_matchings,
    parse_channel_spec,
    singlet_random,
    stabilizer_report,
    string_order,
)
from bellport.algebra import u_matrix
from bellport.states import (
    PureState,
    _norm,
    _normalize_own,
    apply_local,
    apply_two_site,
    inner_product,
    normalize,
    overlap_fidelity,
    permute_sites,
    qubit_ket,
    random_state,
)

TOL = 1e-12
PROPERTY = settings(max_examples=20, deadline=None)
seeds = st.integers(0, 2**32 - 1)

# Single-site factorizations of the string operators, L=6 and L=8.
# The overall signs come from multiplying the K factors site by site
# (the same reduction that yields the printed minus sign at L=6).
G_FACTORIZATIONS = {
    6: {
        "G1": (-1, (1, 2, 2, 3, 3, 2)),
        "G2": (-1, (2, 3, 3, 2, 2, 1)),
    },
    8: {
        "G1": (-1, (1, 2, 2, 3, 3, 2, 2, 1)),
        "G2": (1, (2, 3, 3, 2, 2, 3, 3, 2)),
    },
}


# ---------------------------------------------------------------------------
# oracles: the dense builders before the index maps


def recursive_matchings(L):
    """Site 0 pairs with each odd partner in turn; inner, then outer."""

    def match(sites):
        if not sites:
            return [()]
        first = sites[0]
        out = []
        for i in range(1, len(sites), 2):  # partner must leave even gaps
            partner = sites[i]
            inner = match(sites[1:i])
            outer = match(sites[i + 1 :])
            for a in inner:
                for b in outer:
                    out.append(((first, partner),) + a + b)
        return out

    return match(tuple(range(L)))


def dimer_product(matching, L):
    """Singlet placed on every pair of the matching (pairs may be nested)."""
    state = bell_basis_state([(-1, -1)] * (L // 2))
    perm = [0] * L
    slot = 0
    for a, b in matching:
        perm[slot] = a
        perm[slot + 1] = b
        slot += 2
    return permute_sites(state, perm)


def dense_heisenberg_ring(L):
    """sum_i S_i . S_{i+1} on the full 2^L space, from Kronecker strings."""
    sx = 0.5 * u_matrix(1)
    sy = 0.5j * u_matrix(3)  # sigma_y / 2 = i U3 / 2
    sz = 0.5 * u_matrix(2)
    H = np.zeros((2**L, 2**L), dtype=complex)
    eye = np.eye(2, dtype=complex)
    for i in range(L):
        j = (i + 1) % L
        for op in (sx, sy, sz):
            term = np.array([[1.0]], dtype=complex)
            for site in range(L):
                term = np.kron(term, op if site in (i, j) else eye)
            H += term
    return H


def sector_heisenberg_ring(L):
    """Ground state and gap from one dense eigh of the whole S^z = 0 sector."""
    weights = 2 ** np.arange(L - 1, -1, -1)
    bits = np.arange(2**L)[:, None] // weights % 2
    basis = np.flatnonzero(bits.sum(1) == L // 2)
    bits = bits[basis]
    H = np.diag(np.full(len(basis), -L / 4))
    for i in range(L):
        j = (i + 1) % L
        swapped = basis + (bits[:, j] - bits[:, i]) * (weights[i] - weights[j])
        H[np.arange(len(basis)), np.searchsorted(basis, swapped)] += 0.5
    energies, vectors = np.linalg.eigh(H)
    ground = np.zeros(2**L, dtype=complex)
    ground[basis] = vectors[:, 0]
    return ground, energies[1] - energies[0]


def dense_aklt(L):
    """Triplet projector I - |s><s| applied at every junction; (state, norm)."""
    singlet = bell_state((-1, -1)).amplitudes
    pt = np.eye(4, dtype=complex) - np.outer(singlet, singlet.conj())
    state = bell_basis_state([(-1, -1)] * (L // 2))
    for r in range(1, L - 2, 2):
        state = apply_two_site(state, pt, r, r + 1)
    return normalize(state), state.norm()


def random_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_everywhere(state, op):
    out = state
    for site in range(state.num_sites):
        out = apply_local(out, op, site)
    return out


def test_mg_dimers_is_singlet_product():
    state = majumdar_ghosh_dimers(2)
    expected = bell_basis_state([(-1, -1), (-1, -1)])
    assert np.allclose(state.amplitudes, expected.amplitudes)
    assert decompose_classes(state).pure_class() == (1, 1)


def test_build_dispatch_and_random_reproducible():
    a = build(ChannelSpec(kind="random", qubits=4, seed=5))
    b = build(ChannelSpec(kind="random", qubits=4, seed=5))
    assert np.array_equal(a.amplitudes, b.amplitudes)
    ghz = build(ChannelSpec(kind="ghz", qubits=4))
    assert abs(overlap_fidelity(ghz, ghz_state(4)) - 1.0) < 1e-12
    explicit = build(ChannelSpec(kind="explicit", amplitudes=np.array([2.0, 0, 0, 0])))
    assert abs(explicit.norm() - 1.0) < 1e-12


def test_parse_channel_spec():
    spec = parse_channel_spec("bell:+-,-+")
    assert spec.kind == "bell-product" and spec.labels == ((1, -1), (-1, 1))
    spec = parse_channel_spec("singlet-random:6:9")
    assert spec.kind == "singlet-random" and spec.qubits == 6 and spec.seed == 9
    with pytest.raises(ValueError):
        parse_channel_spec("nonsense:4")
    with pytest.raises(ValueError):
        parse_channel_spec("bell:+x")
    with pytest.raises(ValueError, match="not kind:qubits"):
        parse_channel_spec("random:4:1:2")
    with pytest.raises(ValueError, match="library-only"):
        parse_channel_spec("explicit:4")


def test_noncrossing_matchings_are_catalan():
    assert len(noncrossing_matchings(2)) == 1
    assert len(noncrossing_matchings(4)) == 2
    assert len(noncrossing_matchings(6)) == 5
    assert len(noncrossing_matchings(8)) == 14


def test_dimer_product_nested_pairs():
    # singlets on (0,3) and (1,2): antisymmetric under swapping 0 and 3
    state = dimer_product([(0, 3), (1, 2)], 4)
    t = state.as_tensor()
    assert np.allclose(t, -np.transpose(t, (3, 1, 2, 0)), atol=1e-12)


@pytest.mark.parametrize("n_pairs", [2, 3])
def test_singlet_random_invariance_and_class(n_pairs):
    # A^(xL) |Psi> = e^{i theta} |Psi> for every unitary A
    rng = np.random.default_rng(60 + n_pairs)
    state = singlet_random(n_pairs, seed=61)
    for _ in range(3):
        rotated = apply_everywhere(state, random_unitary(rng))
        assert abs(abs(inner_product(state, rotated)) - 1.0) < 1e-10
    cls = decompose_classes(state).pure_class()
    assert cls == ((-1) ** n_pairs, (-1) ** n_pairs)


@pytest.mark.parametrize("n_pairs", [1, 2, 3])
def test_singlet_random_matches_listed_basis_sum(n_pairs):
    """Summing the dimer products one at a time changes no bit."""
    L = 2 * n_pairs
    rng = np.random.default_rng(17)
    basis = [dimer_product(m, L) for m in noncrossing_matchings(L)]
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    amps = sum(c * s.amplitudes for c, s in zip(coeffs, basis))
    expected = amps / np.linalg.norm(amps)
    assert np.array_equal(singlet_random(n_pairs, 17).amplitudes, expected)


@PROPERTY
@given(st.integers(1, 7), seeds)
def test_singlet_random_equals_dimer_sum_oracle(n_pairs, seed):
    """The scatter-adds change no bit of the sum of dense dimer products."""
    L = 2 * n_pairs
    rng = np.random.default_rng(seed)
    basis = noncrossing_matchings(L)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    amps = sum(c * dimer_product(m, L).amplitudes for c, m in zip(coeffs, basis))
    expected = amps / np.linalg.norm(amps)
    assert np.array_equal(singlet_random(n_pairs, seed).amplitudes, expected)


def test_singlet_random_keeps_one_dimer_product_at_a_time():
    """132 dimer products of 12 qubits would hold 8.25 MiB at once."""
    tracemalloc.start()
    try:
        singlet_random(6, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_singlet_random_equals_dimer_sum_oracle_over_many_blocks():
    """1,430 products of 256 nonzero amplitudes span many scatter-add blocks."""
    rng = np.random.default_rng(8)
    basis = noncrossing_matchings(16)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    product = bell_basis_state([(-1, -1)] * 8).as_tensor()
    amps = np.zeros(2**16, dtype=complex)
    for c, m in zip(coeffs, basis):  # dimer_product(m, 16), one transpose each
        amps += c * product.transpose(np.argsort(np.ravel(m))).reshape(-1)
    expected = amps / np.linalg.norm(amps)
    assert np.array_equal(singlet_random(8, 8).amplitudes, expected)


def test_singlet_random_peak_memory_at_16_qubits():
    """A loop over one product at a time peaked at 5.4 MiB; the state is 1 MiB."""
    tracemalloc.start()
    try:
        singlet_random(8, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.4 * 2**20


# ---------------------------------------------------------------------------
# the builders normalise their own array in place: one copy of the state


def old_normalize(state):
    """normalize before it divided a copy in place."""
    return PureState(state.amplitudes / state.norm(), local_dim=state.local_dim)


def old_normalize_own(amps):
    """How the builders normalised before: wrap, normalise, wrap again."""
    return old_normalize(PureState(amps, normalized=False))


def old_aklt_build(L):
    """_aklt_build before it halved its junction sums in place."""
    t = majumdar_ghosh_dimers(L // 2).as_tensor()
    for r in range(1, L - 2, 2):
        t = 0.5 * (t + t.swapaxes(r, r + 1))
    state = PureState(t.reshape(-1), normalized=False)
    return old_normalize(state), state.norm()


def same_bits(a, b):
    return np.array_equal(a.amplitudes.view(np.uint64), b.amplitudes.view(np.uint64))


@pytest.mark.parametrize(
    "make",
    [partial(singlet_random, n, 40 + n) for n in (1, 4, 8)]
    + [partial(heisenberg_ring_ground, L) for L in (2, 6, 10, 12)],
    ids=[f"singlet-{2 * n}" for n in (1, 4, 8)] + [f"heisenberg-{L}" for L in (2, 6, 10, 12)],
)
def test_builders_normalize_as_before(monkeypatch, make):
    new = make()
    monkeypatch.setattr(channels, "_normalize_own", old_normalize_own)
    assert same_bits(new, make())


@pytest.mark.parametrize("L", [4, 6, 8, 12, 16])
def test_aklt_matches_its_build_before(L):
    state, nrm = old_aklt_build(L)
    assert same_bits(aklt_state(L), state)
    assert aklt_projection_norm(L) == nrm


def test_explicit_channel_normalizes_a_copy():
    amps = np.random.default_rng(3).standard_normal(16) + 0j
    given_amps = amps.copy()
    state = build(ChannelSpec(kind="explicit", amplitudes=amps))
    assert same_bits(state, old_normalize_own(amps))
    assert np.array_equal(amps.view(np.uint64), given_amps.view(np.uint64))
    with pytest.raises(ValueError, match="zero state"):
        build(ChannelSpec(kind="explicit", amplitudes=np.zeros(4)))


@pytest.mark.parametrize(
    "make", [partial(aklt_state, 16), partial(singlet_random, 8, 5)], ids=["aklt", "singlet"]
)
def test_builders_hold_one_copy_fewer_at_16_qubits(make):
    """Wrapping, normalising and wrapping again peaked at 4.0 MiB (AKLT) and
    4.41 MiB (singlets) for a 1 MiB state."""
    make()
    tracemalloc.start()
    try:
        make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * 2**20


@pytest.mark.parametrize("L", range(2, 18, 2))
def test_noncrossing_matchings_equal_recursive_oracle(L):
    """Same matchings in the same order, which fixes the scatter-add order."""
    assert noncrossing_matchings(L) == recursive_matchings(L)
    assert noncrossing_matchings(L) is not noncrossing_matchings(L)


@pytest.mark.parametrize("n_pairs", [0, -1])
def test_singlet_random_refuses_no_pairs(n_pairs):
    with pytest.raises(ValueError, match="positive even"):
        singlet_random(n_pairs, 1)


def test_singlet_random_reproducible():
    a = singlet_random(2, seed=3)
    b = singlet_random(2, seed=3)
    assert np.array_equal(a.amplitudes, b.amplitudes)


@pytest.mark.parametrize("L", [4, 6])
def test_heisenberg_ground_is_singlet_class(L):
    ground = heisenberg_ring_ground(L)
    rng = np.random.default_rng(62)
    rotated = apply_everywhere(ground, random_unitary(rng))
    assert abs(abs(inner_product(ground, rotated)) - 1.0) < 1e-8
    cls = decompose_classes(ground).pure_class(1e-8)
    assert cls == ((-1) ** (L // 2), (-1) ** (L // 2))


@pytest.mark.parametrize("L", [4, 6, 8, 10])
def test_heisenberg_matches_dense_hamiltonian(L):
    """The S^z = 0 sector gives the dense ground state and the dense gap."""
    energies, vectors = np.linalg.eigh(dense_heisenberg_ring(L))
    gap = energies[1] - energies[0]
    ground = heisenberg_ring_ground(L)
    assert abs(abs(np.vdot(vectors[:, 0], ground.amplitudes)) - 1.0) < TOL
    with pytest.raises(DegenerateGroundStateError) as err:
        heisenberg_ring_ground(L, degeneracy_tol=gap + 1e-6)
    assert abs(err.value.gap - gap) < TOL


@pytest.mark.parametrize("L", [2, 4, 6, 8, 10, 12])
def test_heisenberg_momentum_sectors_match_sector_oracle(L):
    """Same ground state up to one global phase, and the same gap."""
    expected, gap = sector_heisenberg_ring(L)
    ground = heisenberg_ring_ground(L).amplitudes
    phase = np.vdot(ground, expected)
    phase /= abs(phase)
    assert np.max(np.abs(phase * ground - expected)) < TOL
    with pytest.raises(DegenerateGroundStateError) as err:
        heisenberg_ring_ground(L, degeneracy_tol=gap + 1e-6)
    assert abs(err.value.gap - gap) < TOL


def old_heisenberg_ring_ground(L, degeneracy_tol=1e-8):
    """heisenberg_ring_ground before one scatter-add filled every sector: each
    momentum's H_k built, filled and diagonalized in its own pass."""
    place = np.arange(L - 1, -1, -1)
    weights = 1 << place
    bits = np.arange(2**L)[:, None] >> place & 1
    basis = np.flatnonzero(bits.sum(1) == L // 2)
    j = np.arange(1, L + 1)
    images = (basis[:, None] >> j | basis[:, None] << L - j) & (2**L - 1)
    first = images.argmin(1)
    least = images[np.arange(len(basis)), first]
    reps = basis[least == basis]
    orbit = np.searchsorted(reps, least)
    shift = L - 1 - first
    period = (images[np.searchsorted(basis, reps)] == reps[:, None]).argmax(1) + 1
    nxt = np.roll(np.arange(L), -1)
    swapped = reps[:, None] + (bits[reps][:, nxt] - bits[reps]) * (weights - weights[nxt])
    col = np.searchsorted(basis, swapped).ravel()
    source, target, t = np.repeat(np.arange(len(reps)), L), orbit[col], shift[col]
    weight = 0.5 * np.sqrt(period[source] / period[target])
    root = np.exp(2j * np.pi * np.arange(L) / L)
    root[L // 2] = -1
    spectra, sectors = [], []
    for m in range(L // 2 + 1):
        live = m * period % L == 0
        row = np.cumsum(live) - 1
        use = live[source] & live[target]
        H = np.diag(np.full(row[-1] + 1, -L / 4 + 0j))
        phase = root[m * t[use] % L]
        np.add.at(H, (row[target[use]], row[source[use]]), phase * weight[use])
        if 2 * m % L == 0:
            H = H.real
            spectra.append(np.linalg.eigvalsh(H))
        else:
            spectra.append(np.repeat(np.linalg.eigvalsh(H), 2))
        sectors.append((m, H, live, row))
    union = np.sort(np.concatenate(spectra))
    gap = float(union[1] - union[0])
    if not gap >= degeneracy_tol:
        raise DegenerateGroundStateError(gap, degeneracy_tol)
    m, H, live, row = sectors[int(np.argmin([e[0] for e in spectra]))]
    vector = np.linalg.eigh(H)[1][:, 0]
    keep = live[orbit]
    ground = np.zeros(2**L, dtype=complex)
    ground[basis[keep]] = (
        vector[row[orbit[keep]]] * root[-m * shift[keep] % L] / np.sqrt(period[orbit[keep]])
    )
    return _normalize_own(ground)


def heisenberg_outcome(build, L, tol):
    """The state's bits, or the bits of the gap that refused it."""
    try:
        return "state", build(L, degeneracy_tol=tol).amplitudes.tobytes()
    except DegenerateGroundStateError as err:
        return "raised", np.float64(err.gap).tobytes()


def certificate_tolerances(L):
    """Tolerances on both sides of the certificate, by name; some are set by
    the sector loop's gap."""
    with pytest.raises(DegenerateGroundStateError) as err:
        old_heisenberg_ring_ground(L, degeneracy_tol=np.inf)
    gap = err.value.gap
    return {
        "default": 1e-8,
        "nan": np.nan,
        "inf": np.inf,
        "zero": 0.0,
        "minus-one": -1.0,
        "ten": 10.0,
        "gap-1e-6": gap - 1e-6,
        "gap+1e-6": gap + 1e-6,
        "gap-ulp": np.nextafter(gap, 0),
        "gap": gap,
        "gap+ulp": np.nextafter(gap, np.inf),
    }


@pytest.mark.parametrize("L", range(2, 13, 2))
def test_heisenberg_sector_stack_keeps_the_bits_of_the_sector_loop(L):
    """Whether the Lieb-Mattis sector's gap is certified or every sector is
    diagonalized, the state's bits, the raise and the gap's bits are the
    sector loop's, at every tolerance, one ulp either side of the gap too."""
    for name, tol in certificate_tolerances(L).items():
        expected = heisenberg_outcome(old_heisenberg_ring_ground, L, tol)
        assert heisenberg_outcome(heisenberg_ring_ground, L, tol) == expected, name


def count_eigensolves(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:

        def spy(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


@pytest.mark.parametrize("L", range(2, 13, 2))
def test_heisenberg_certified_ground_state_is_one_eigensolve(L, monkeypatch):
    calls = count_eigensolves(monkeypatch)
    heisenberg_ring_ground(L)
    assert calls == {"eigh": 1, "eigvalsh": 0}


@pytest.mark.parametrize("L", [2, 8])
def test_heisenberg_uncertified_tolerance_diagonalizes_every_sector(L, monkeypatch):
    calls = count_eigensolves(monkeypatch)
    heisenberg_ring_ground(L, degeneracy_tol=-1.0)
    assert calls == {"eigh": 2, "eigvalsh": L // 2 + 1}


def test_heisenberg_certificate_on_a_small_stack():
    """Each check decides where the rings up to L = 12 leave it idle: the
    lowest excitation inside the certified sector, and a padded diagonal
    below E_0 + tol, which must fail nothing since only live parts count."""
    H = np.zeros((3, 2, 2), dtype=complex)
    H[0] = np.diag([-2.0, 5.0])  # the certified sector, k = 0
    H[1] = np.diag([3.0, -1.0])  # one live level; -1 is padding
    H[2] = np.diag([4.0, 6.0])
    size = np.array([2, 1, 2])
    assert channels._gap_certified(H, size, 0, np.array([-2.0, 5.0]), 1.5)
    assert not channels._gap_certified(H, size, 0, np.array([-2.0, 5.0]), 5.5)
    assert not channels._gap_certified(H, size, 0, np.array([-2.0, -1.0]), 1.5)


def test_heisenberg_nan_tolerance_raises():
    """gap < nan is False; the guard must still refuse to vouch for the gap."""
    _, gap = sector_heisenberg_ring(6)
    with pytest.raises(DegenerateGroundStateError) as err:
        heisenberg_ring_ground(6, degeneracy_tol=float("nan"))
    assert abs(err.value.gap - gap) < TOL


def test_heisenberg_accepts_zero_tolerance():
    assert heisenberg_ring_ground(6, degeneracy_tol=0.0).num_sites == 6


def test_heisenberg_degeneracy_guard():
    with pytest.raises(DegenerateGroundStateError) as err:
        heisenberg_ring_ground(4, degeneracy_tol=10.0)
    assert err.value.gap > 0


@pytest.mark.parametrize("L", [4, 6, 8])
def test_cluster_stabilizers(L):
    state = cluster_state(L)
    for j in range(1, L + 1):
        rep = stabilizer_report(state, cluster_stabilizer(j, L), f"K{j}")
        assert abs(rep.eigenvalue - 1.0) < 1e-12
        assert rep.deviation < 1e-12


def test_cluster_stabilizers_commute():
    L = 6
    rng = np.random.default_rng(63)
    s = random_state(L, 2, rng)
    for j, l in ((1, 2), (2, 3), (3, 6), (1, 6)):
        kj, kl = cluster_stabilizer(j, L), cluster_stabilizer(l, L)
        ab = kj.apply(kl.apply(s))
        ba = kl.apply(kj.apply(s))
        assert np.allclose(ab.amplitudes, ba.amplitudes, atol=1e-12)


@pytest.mark.parametrize("L", [4, 6, 8])
def test_cluster_g_operators_stabilize(L):
    state = cluster_state(L)
    for name, g in zip(("G1", "G2"), cluster_g_operators(L)):
        rep = stabilizer_report(state, g, name)
        assert abs(rep.eigenvalue - 1.0) < 1e-12, name
        assert rep.deviation < 1e-12
        assert all(f in (0, 1, 2, 3) for f in g.factors)


@pytest.mark.parametrize("L", [6, 8])
def test_cluster_g_factorizations_explicit(L):
    g1, g2 = cluster_g_operators(L)
    assert (g1.sign, g1.factors) == G_FACTORIZATIONS[L]["G1"]
    assert (g2.sign, g2.factors) == G_FACTORIZATIONS[L]["G2"]


def old_cluster_state(L):
    """cluster_state before it read its signs off one parity map: a flip per bond."""
    amps = np.ones(2**L, dtype=complex)
    idx = np.arange(2**L)
    for j in range(L - 1):
        bit_j = (idx >> (L - 1 - j)) & 1
        bit_j1 = (idx >> (L - 2 - j)) & 1
        amps[(bit_j & bit_j1) == 1] *= -1.0
    return PureState(amps / np.sqrt(2.0**L))


def old_g_indices(L):
    """The K indices of G1 and G2 before one formula served both pair-count parities."""
    pairs = L // 2
    if pairs % 2 == 0:
        idx1 = [x for j in range(1, pairs // 2 + 1) for x in (4 * j - 3, 4 * j)]
        idx2 = [x for j in range(1, pairs // 2 + 1) for x in (4 * j - 2, 4 * j - 1)]
    else:
        m = (pairs - 1) // 2
        idx1 = [L - 1] + [x for j in range(1, m + 1) for x in (4 * j - 3, 4 * j)]
        idx2 = [L] + [x for j in range(1, m + 1) for x in (4 * j - 2, 4 * j - 1)]
    return idx1, idx2


@pytest.mark.parametrize("L", [2, 3, 5, 8, 13])
def test_cluster_state_matches_its_bond_loop(L):
    new, old = cluster_state(L).amplitudes, old_cluster_state(L).amplitudes
    # equal values and real bits; the loop left -0.0 imaginary parts where it
    # flipped a sign twice
    assert np.array_equal(new, old)
    assert np.array_equal(new.real.view(np.uint64), old.real.view(np.uint64))


def test_cluster_g_operators_match_their_index_lists_before():
    for L in range(4, 41, 2):
        old = [
            channels._u_product_multiply([cluster_stabilizer(j, L) for j in idx], L)
            for idx in old_g_indices(L)
        ]
        assert list(cluster_g_operators(L)) == old, L


def test_cluster_state_not_pure_class():
    for L in (4, 6, 8):
        dec = decompose_classes(cluster_state(L))
        assert max(dec.coefficients.values()) ** 2 < 1.0 - 1e-6


@pytest.mark.parametrize("L", [4, 6, 8])
def test_aklt_string_order(L):
    state = aklt_state(L)
    s = string_order(state)
    assert abs(s + 1.0) < 1e-10
    e2 = upsilon_expectations(state)[1]
    assert abs(e2 - (-((-1.0) ** (L // 2))) * s) < 1e-10
    assert decompose_classes(state).pure_class() is not None


@pytest.mark.parametrize("L", [4, 6, 8, 10, 12])
def test_aklt_matches_dense_triplet_projector(L):
    state, nrm = dense_aklt(L)
    assert np.max(np.abs(aklt_state(L).amplitudes - state.amplitudes)) < TOL
    assert abs(aklt_projection_norm(L) - nrm) < TOL


def test_aklt_l4_matches_dense_projector_oracle():
    singlet = bell_state((-1, -1)).amplitudes
    two = np.kron(singlet, singlet)
    pt = np.eye(4) - np.outer(singlet, singlet.conj())
    dense = np.kron(np.kron(np.eye(2), pt), np.eye(2)) @ two
    dense /= np.linalg.norm(dense)
    assert abs(abs(np.vdot(dense, aklt_state(4).amplitudes)) - 1.0) < 1e-12


def test_aklt_projection_norm_recorded():
    # projecting out the singlet content shrinks the norm strictly
    n4 = aklt_projection_norm(4)
    assert 0.0 < n4 < 1.0
    assert abs(n4 - np.sqrt(3.0) / 2.0) < 1e-12  # single triplet projector


def test_string_order_relation_on_any_state():
    rng = np.random.default_rng(64)
    for L in (4, 6):
        s = random_state(L, 2, rng)
        e2 = upsilon_expectations(s)[1]
        assert abs(string_order(s) - (-((-1.0) ** (L // 2))) * e2) < 1e-12


def test_string_order_product_and_pre_projection_values():
    for L in (4, 6, 8):
        n_pairs = L // 2
        assert abs(string_order(qubit_ket([1] * L)) - (-1.0) ** (n_pairs - 1)) < 1e-12
        product_singlets = bell_basis_state([(-1, -1)] * n_pairs)
        e2 = upsilon_expectations(product_singlets)[1]
        s = string_order(product_singlets)
        assert abs(e2 - (-((-1.0) ** n_pairs)) * s) < 1e-12


def test_string_order_rejects_odd():
    with pytest.raises(ValueError):
        string_order(random_state(3, 2, 65))


def test_builders_refuse_more_than_max_qubits():
    """22 qubits would be 64 MiB per vector; refused before allocating."""
    L = MAX_QUBITS + 2
    for make in (
        lambda: ghz_state(L),
        lambda: majumdar_ghosh_dimers(L // 2),
        lambda: singlet_random(L // 2, 1),
        lambda: cluster_state(L),
        lambda: aklt_state(L),
        lambda: aklt_projection_norm(L),
        lambda: build(ChannelSpec(kind="random", qubits=L, seed=1)),
        lambda: build(parse_channel_spec("bell:" + ",".join(["+-"] * (L // 2)))),
    ):
        with pytest.raises(ValueError, match="limit"):
            make()


SIZED_BUILDERS = {
    "ghz": ghz_state,
    "mg-dimers": majumdar_ghosh_dimers,
    "singlet-random": singlet_random,
    "heisenberg-ring": heisenberg_ring_ground,
    "cluster1d": cluster_state,
    "aklt": aklt_state,
    "aklt-norm": aklt_projection_norm,
    "matchings": noncrossing_matchings,
    "g-operators": cluster_g_operators,
} | {
    f"spec-{kind}": partial(lambda kind, L: build(ChannelSpec(kind=kind, qubits=L, seed=1)), kind)
    for kind in ("singlet-random", "mg-dimers", "heisenberg-ring", "cluster1d", "ghz", "aklt", "random")
}


@pytest.mark.parametrize("size", [2.0, 4.0, np.float64(6), "4"], ids=repr)
@pytest.mark.parametrize("builder", SIZED_BUILDERS)
def test_builders_refuse_a_size_that_is_not_an_integer(builder, size):
    with pytest.raises(TypeError, match="channel size must be an integer"):
        SIZED_BUILDERS[builder](size)


@pytest.mark.parametrize("builder", SIZED_BUILDERS)
def test_builders_take_a_numpy_integer_size(builder):
    SIZED_BUILDERS[builder](np.int64(4))


def test_builders_accept_max_qubits():
    assert ghz_state(MAX_QUBITS).num_sites == MAX_QUBITS


def test_ghz_class():
    assert decompose_classes(ghz_state(4)).pure_class() == (1, 1)
    assert decompose_classes(ghz_state(6)).pure_class() == (1, 1)


# ---------------------------------------------------------------------------
# oracles: the builders and the stabilizer check before they stopped
# building states no output reads


def kron_mg_singlet_random(n_pairs, seed):
    """singlet_random before it folded the dimers' nonzero entries: the full
    Majumdar-Ghosh product as a kron chain, read at its nonzero entries."""
    L = 2 * n_pairs
    rng = np.random.default_rng(seed)
    sites = channels._matching_sites(L)
    coeffs = rng.standard_normal(len(sites)) + 1j * rng.standard_normal(len(sites))
    mg = bell_state((-1, -1)).amplitudes
    for _ in range(n_pairs - 1):
        mg = np.kron(mg, bell_state((-1, -1)).amplitudes)
    nz = np.flatnonzero(mg)
    values = mg[nz]
    bits = (nz >> np.arange(L - 1, -1, -1)[:, None]) & 1
    weights = 1 << (L - 1 - sites)
    amps = np.zeros(2**L, dtype=complex)
    block = max(1, channels._SCATTER_BLOCK // len(nz))
    for lo in range(0, len(sites), block):
        rows = slice(lo, lo + block)
        np.add.at(amps, weights[rows] @ bits, coeffs[rows, None] * values)
    return _normalize_own(amps)


@pytest.mark.parametrize("seed", [0, 1, 7, 41, 2**31 - 1])
@pytest.mark.parametrize("n_pairs", range(1, 9))
def test_singlet_random_matches_the_full_dimer_product_build(n_pairs, seed):
    new, old = singlet_random(n_pairs, seed), kron_mg_singlet_random(n_pairs, seed)
    assert new.amplitudes.tobytes() == old.amplitudes.tobytes()


def unique_heisenberg_ring_ground(L, degeneracy_tol=1e-8):
    """heisenberg_ring_ground before it read its orbit representatives off
    the basis: bits by // and %, and the orbits by np.unique."""
    weights = 2 ** np.arange(L - 1, -1, -1)
    bits = np.arange(2**L)[:, None] // weights % 2
    basis = np.flatnonzero(bits.sum(1) == L // 2)
    j = np.arange(1, L + 1)
    images = (basis[:, None] >> j | basis[:, None] << L - j) & (2**L - 1)
    first = images.argmin(1)
    reps, orbit = np.unique(images[np.arange(len(basis)), first], return_inverse=True)
    shift = L - 1 - first
    period = (images[np.searchsorted(basis, reps)] == reps[:, None]).argmax(1) + 1
    nxt = np.roll(np.arange(L), -1)
    swapped = reps[:, None] + (bits[reps][:, nxt] - bits[reps]) * (weights - weights[nxt])
    col = np.searchsorted(basis, swapped).ravel()
    source, target, t = np.repeat(np.arange(len(reps)), L), orbit[col], shift[col]
    weight = 0.5 * np.sqrt(period[source] / period[target])
    root = np.exp(2j * np.pi * np.arange(L) / L)
    root[L // 2] = -1
    spectra, sectors = [], []
    for m in range(L // 2 + 1):
        live = m * period % L == 0
        row = np.cumsum(live) - 1
        use = live[source] & live[target]
        H = np.diag(np.full(row[-1] + 1, -L / 4 + 0j))
        phase = root[m * t[use] % L]
        np.add.at(H, (row[target[use]], row[source[use]]), phase * weight[use])
        if 2 * m % L == 0:
            H = H.real
            spectra.append(np.linalg.eigvalsh(H))
        else:
            spectra.append(np.repeat(np.linalg.eigvalsh(H), 2))
        sectors.append((m, H, live, row))
    union = np.sort(np.concatenate(spectra))
    gap = float(union[1] - union[0])
    if not gap >= degeneracy_tol:
        raise DegenerateGroundStateError(gap, degeneracy_tol)
    m, H, live, row = sectors[int(np.argmin([e[0] for e in spectra]))]
    vector = np.linalg.eigh(H)[1][:, 0]
    keep = live[orbit]
    ground = np.zeros(2**L, dtype=complex)
    ground[basis[keep]] = (
        vector[row[orbit[keep]]] * root[-m * shift[keep] % L] / np.sqrt(period[orbit[keep]])
    )
    return _normalize_own(ground)


@pytest.mark.parametrize("L", range(4, 13, 2))
def test_heisenberg_matches_its_unique_orbit_build(L):
    new, old = heisenberg_ring_ground(L), unique_heisenberg_ring_ground(L)
    assert new.amplitudes.tobytes() == old.amplitudes.tobytes()


def pure_state_stabilizer_report(state, op, name):
    """stabilizer_report before it worked on amplitudes: the image as a state."""
    applied = op.apply(state)
    ev = float(np.real(inner_product(state, applied)))
    deviation = _norm(applied.amplitudes - ev * state.amplitudes)
    return channels.StabilizerReport(name=name, eigenvalue=ev, deviation=deviation)


def report_bits(rep):
    return rep.name, np.array([rep.eigenvalue, rep.deviation]).tobytes()


@pytest.mark.parametrize("L", range(4, 15, 2))
def test_stabilizer_report_matches_its_pure_state_path(L):
    ops = [(f"K{j}", cluster_stabilizer(j, L)) for j in range(1, L + 1)]
    ops += list(zip(("G1", "G2"), cluster_g_operators(L)))
    # the cluster state is an eigenstate of each; a random state of none
    for state in (cluster_state(L), random_state(L, 2, L)):
        for name, op in ops:
            new = stabilizer_report(state, op, name)
            assert report_bits(new) == report_bits(pure_state_stabilizer_report(state, op, name))
