"""Fixed gate matrices and the unequal rotation.

The three Hadamard-like gates are the exact realizers for the
restricted-family checks: the standard Hadamard mixes computational
basis states, the polar variant mixes a polar-circle state with its
partner, and the equatorial variant does the same on the equator.
"""

from __future__ import annotations

import numpy as np

from ._shared import REGISTRY

_S = 1.0 / np.sqrt(2.0)

hadamard = np.array([[_S, _S], [_S, -_S]], dtype=complex)
hadamard.setflags(write=False)

hadamard_polar = np.array([[_S, -_S], [_S, _S]], dtype=complex)
hadamard_polar.setflags(write=False)

hadamard_equatorial = np.array([[_S * (1.0 + 1.0j), 0.0], [0.0, _S * (1.0 - 1.0j)]],
                               dtype=complex)
hadamard_equatorial.setflags(write=False)

cnot_computational = np.array([[1, 0, 0, 0],
                               [0, 1, 0, 0],
                               [0, 0, 0, 1],
                               [0, 0, 1, 0]], dtype=complex)
cnot_computational.setflags(write=False)

# the gates named on the command line and in the DSL, UG(a, b) being unequal_gate
NAMED_GATES = dict(zip([name for name, (keys, _) in REGISTRY["candidate"].items() if not keys],
                       (hadamard, hadamard_polar, hadamard_equatorial, cnot_computational),
                       strict=True))


def unequal_gate(weights) -> np.ndarray:
    """Rotation [[a, -b], [b, a]] sending psi to a psi + b partner.

    Only real weights are accepted: with complex entries the candidate
    column matrix stops being a single unitary consistent with both
    defining rules, so the construction is refused rather than silently
    projected.
    """
    a, b = weights
    if isinstance(a, complex) or isinstance(b, complex):
        if abs(complex(a).imag) > 0.0 or abs(complex(b).imag) > 0.0:
            raise ValueError(
                "unequal_gate needs real weights; complex weights make the two "
                "defining rules inconsistent with any one unitary")
        a, b = complex(a).real, complex(b).real
    a, b = float(a), float(b)
    if not abs(a * a + b * b - 1.0) <= 1e-12:   # NaN and inf fail too
        raise ValueError(f"weights ({a!r}, {b!r}) do not satisfy a^2 + b^2 = 1")
    return np.array([[a, -b], [b, a]], dtype=complex)
