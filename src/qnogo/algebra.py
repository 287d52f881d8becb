"""Dense complex algebra for small qubit registers.

Vectors and operators are plain numpy arrays with dtype complex128.
Register dimensions are powers of two up to 16; dimension 1 is admitted
as the trivial (absent) ancilla factor.  In tensor products the leftmost
factor is the most significant index, matching numpy.kron.

Two tolerance regimes are used throughout the package: ATOL_STATE for
algebraic self-checks (normalization, hermiticity, orthogonality of
constructed data) and the looser ATOL_VERDICT for yes/no decisions about
measured quantities, such as is_unitary.
"""

from __future__ import annotations

import numpy as np

SUPPORTED_DIMS = (1, 2, 4, 8, 16)

ATOL_STATE = 1e-12
ATOL_VERDICT = 1e-9


def state_vector(amplitudes, normalized: bool = True) -> np.ndarray:
    """Validated copy of a state vector.

    Rejects non-finite amplitudes and unsupported dimensions.  With
    normalized=True (the default) the norm must already be 1 within
    ATOL_STATE; nothing is rescaled here.
    """
    v = np.array(amplitudes, dtype=complex)
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector contains non-finite entries")
    if v.ndim != 1 or v.size not in SUPPORTED_DIMS:
        raise ValueError(f"unsupported state dimension {v.shape}")
    if normalized and abs(np.linalg.norm(v) - 1.0) > ATOL_STATE:
        raise ValueError(f"state vector is not normalized (norm {np.linalg.norm(v)!r})")
    return v


def kron_rows(a, b) -> np.ndarray:
    """np.kron of each row of a with the same row of b."""
    return (a[:, :, np.newaxis] * b[:, np.newaxis, :]).reshape(len(a), -1)


def row_dots(a, b) -> np.ndarray:
    """sum(a * b) over the last axis, with the bits of np.dot on each row."""
    return np.matmul(a[..., np.newaxis, :], b[..., :, np.newaxis])[..., 0, 0]


def row_norms(v) -> np.ndarray:
    """np.linalg.norm of each row of a complex stack, with the same bits."""
    return np.sqrt(row_dots(v.real, v.real) + row_dots(v.imag, v.imag))


def abs_squared(z) -> np.ndarray:
    """abs(z) ** 2 for each entry, rounded as for a scalar: array abs and
    ** 2 take faster routes (np.abs, x * x) whose last bits differ."""
    return np.float_power(np.hypot(np.real(z), np.imag(z)), 2)


def row_blocks(n: int, size: int):
    """(lo, hi) row blocks of range(n); a lone last row joins the block before it,
    since numpy multiplies a single row by another BLAS routine with other last bits."""
    lo = 0
    while lo < n:
        hi = n if n - lo <= size + 1 else lo + size
        yield lo, hi
        lo = hi


def is_unitary(op) -> bool:
    """True when op† op = I within ATOL_VERDICT (max-entry norm)."""
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        return False
    gram = op.conj().T @ op
    return bool(np.max(np.abs(gram - np.eye(op.shape[0]))) <= ATOL_VERDICT)


def haar_unitaries(n: int, dim: int = 2, seed: int | None = None,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Stack of n Haar-distributed dim x dim unitaries, shape (n, dim, dim).

    QR of a complex Gaussian matrix with the R-diagonal phases folded
    back in, which removes the sign/phase bias of raw QR.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2).copy()
    d = d / np.abs(d)
    return q * d[:, np.newaxis, :]
