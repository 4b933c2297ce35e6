"""Single-qubit operator algebra used by the Bell-measurement protocol.

The four basic unitaries are kept in the integer-entry convention

    U0 = [[1, 0], [0, 1]]     U1 = [[0, 1], [1, 0]]
    U2 = [[1, 0], [0, -1]]    U3 = [[0, -1], [1, 0]]

(U1, U2 are sigma_x, sigma_z; U3 = U1 @ U2 replaces sigma_y so that no
imaginary units appear in the gate tables).  On top of these sit the
sign maps ``nu``, ``epsilon``, ``delta`` and the two-index operator
families X^{jk}_{pq} / Xtilde^{jk}_{pq} that relate the four Bell
states to one another.  All sixteen X matrices have entries in
{0, +1, -1} exactly, so identities between them can be asserted with
exact float arithmetic.

Sign indices j, k, p, q always take the values +1 or -1.
"""

from __future__ import annotations

from itertools import product

import numpy as np

SIGNS = (1, -1)

_U_MATRICES = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
    np.array([[0, -1], [1, 0]], dtype=complex),
)
for _m in _U_MATRICES:
    _m.flags.writeable = False


def u_matrix(i: int) -> np.ndarray:
    """Return the 2x2 unitary U^i for i in 0..3 (read-only array)."""
    if i not in (0, 1, 2, 3):
        raise ValueError(f"U index must be in 0..3, got {i}")
    return _U_MATRICES[i]


def nu_parity(a: int) -> int:
    """Map a sign to Z_2: nu(+1) = 0, nu(-1) = 1.

    Satisfies nu(ab) = nu(a) + nu(b) mod 2.
    """
    if a == 1:
        return 0
    if a == -1:
        return 1
    raise ValueError(f"sign label must be +1 or -1, got {a}")


def epsilon_sign(j: int, k: int, p: int, q: int) -> int:
    """epsilon^{jk}_{pq}: -1 when j != p and k != q, +1 otherwise."""
    return -1 if (j != p and k != q) else 1


def delta_sign(j: int, k: int, p: int, q: int) -> int:
    """delta^{jk}_{pq}, the sign in X^{jk}_{pq} = delta (U1)^nu(kq) (U2)^nu(jp).

    Closed form: q^nu(jp).  The unit tests pin this against the full
    explicit table of the sixteen X matrices.
    """
    return q ** nu_parity(j * p)


def _build_x(j: int, k: int, p: int, q: int) -> np.ndarray:
    m = delta_sign(j, k, p, q) * np.linalg.matrix_power(
        _U_MATRICES[1], nu_parity(k * q)
    ) @ np.linalg.matrix_power(_U_MATRICES[2], nu_parity(j * p))
    m = m.astype(complex)
    m.flags.writeable = False
    return m


_X_TABLE: dict[tuple[int, int, int, int], np.ndarray] = {
    idx: _build_x(*idx) for idx in product(SIGNS, repeat=4)
}


def x_operator(j: int, k: int, p: int, q: int) -> np.ndarray:
    """The local unitary with |j:k} = (I (x) X^{jk}_{pq}) |p:q}.

    Entries are exactly 0 or +-1; the returned array is read-only.
    """
    for a in (j, k, p, q):
        if a not in SIGNS:
            raise ValueError(f"sign label must be +1 or -1, got {a}")
    return _X_TABLE[j, k, p, q]


def x_tilde_operator(j: int, k: int, p: int, q: int) -> np.ndarray:
    """Xtilde^{jk}_{pq} = epsilon^{pq}_{++} X^{jk}_{pq}.

    This is the operator left on the recipient qubit when a Bell
    measurement with outcome (p:q) is made against a |j:k} channel.
    """
    return epsilon_sign(p, q, 1, 1) * x_operator(j, k, p, q)
