"""Reference constructions that the tests compare the package against.

polar_pair and equatorial_pair write out, one parameter at a time, the
(state, partner) pairs that state_family builds in bulk.  cnot_in_basis
builds the two-qubit gate that flips the target in the basis {psi, psi-bar}
controlled on the same basis; it is unitary for every choice of control
state, but different choices do not commute with each other, which is what
the universality audits probe.
"""

import numpy as np

from qnogo.states import Qubit, complement

_TWO_PI = 2.0 * np.pi


def polar_pair(theta: float) -> tuple[Qubit, Qubit]:
    """Polar-circle state cos(theta/2)|0> + sin(theta/2)|1>, theta in [0, pi],
    with its partner on the opposite side.

    The partner -sin(theta/2)|0> + cos(theta/2)|1> is both the canonical
    complement and the state at theta + pi.
    """
    if not 0.0 <= theta <= np.pi:   # also refuses nan
        raise ValueError(f"polar parameter {theta!r} outside [0, pi]")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return Qubit(c, s), Qubit(-s, c)


def equatorial_pair(phi: float) -> tuple[Qubit, Qubit]:
    """Equatorial-circle state (|0> + e^{i phi}|1>)/sqrt(2), phi in [0, 2 pi),
    with its antipodal partner.

    The partner is the state at phi + pi, (|0> - e^{i phi}|1>)/sqrt(2).
    It shares a ray with the canonical complement but carries the extra
    phase -e^{-i phi}; the overlap identities that circle-check verifies
    hold for this partner and fail for the literal complement.
    """
    if not 0.0 <= phi < _TWO_PI:   # also refuses nan
        raise ValueError(f"equatorial parameter {phi!r} outside [0, 2 pi)")
    r = 1.0 / np.sqrt(2.0)
    return (Qubit(r, r * np.exp(1j * phi)),
            Qubit(r, r * np.exp(1j * ((phi + np.pi) % _TWO_PI))))


def cnot_in_basis(q: Qubit) -> np.ndarray:
    """Controlled flip in the basis of q: |q><q| (x) I + |qbar><qbar| (x) X_q.

    The control and the flipped target share the same basis, so on the
    computational basis state this reduces to the familiar CNOT matrix.
    """
    u, v = q.vector, complement(q).vector
    ctrl0 = np.outer(u, u.conj())
    ctrl1 = np.outer(v, v.conj())
    flip = np.outer(u, v.conj()) + np.outer(v, u.conj())   # X_q = |q><qbar| + |qbar><q|
    return np.kron(ctrl0, np.eye(2, dtype=complex)) + np.kron(ctrl1, flip)
