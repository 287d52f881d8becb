"""Dense complex algebra for small qubit registers.

Vectors and operators are plain numpy arrays with dtype complex128.
Register dimensions are powers of two up to 16; dimension 1 is admitted
as the trivial (absent) ancilla factor.  In tensor products the leftmost
factor is the most significant index, matching numpy.kron.

Two tolerance regimes are used throughout the package: ATOL_STATE for
algebraic self-checks (normalization, hermiticity, orthogonality of
constructed data) and the looser ATOL_VERDICT for yes/no decisions about
measured quantities.  is_unitary takes either per call.
"""

from __future__ import annotations

import numpy as np

SUPPORTED_DIMS = (1, 2, 4, 8, 16)

ATOL_STATE = 1e-12
ATOL_VERDICT = 1e-9


def _as_complex(values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def state_vector(amplitudes, normalized: bool = True) -> np.ndarray:
    """Validated copy of a state vector.

    Rejects non-finite amplitudes and unsupported dimensions.  With
    normalized=True (the default) the norm must already be 1 within
    ATOL_STATE; nothing is rescaled here.
    """
    v = _as_complex(amplitudes, "state vector")
    if v.ndim != 1 or v.size not in SUPPORTED_DIMS:
        raise ValueError(f"unsupported state dimension {v.shape}")
    if normalized and abs(np.linalg.norm(v) - 1.0) > ATOL_STATE:
        raise ValueError(f"state vector is not normalized (norm {np.linalg.norm(v)!r})")
    return v


def operator(entries) -> np.ndarray:
    """Validated copy of a square operator on a supported dimension."""
    m = _as_complex(entries, "operator")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in SUPPORTED_DIMS:
        raise ValueError(f"unsupported operator shape {m.shape}")
    return m


def inner_product(u, v) -> complex:
    """<u|v>, conjugate-linear in the first argument."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    return complex(np.vdot(u, v))


def tensor(*factors) -> np.ndarray:
    """Kronecker product of states or operators, leftmost factor most significant."""
    if not factors:
        raise ValueError("tensor of nothing")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    size = out.shape[0]
    if size not in SUPPORTED_DIMS:
        raise ValueError(f"resulting dimension {size} unsupported")
    return out


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


def apply(op, v) -> np.ndarray:
    """Apply an operator to a vector, or to each row of a stack of them.

    Every row gets the bits of op @ row.  The result is never
    renormalized, so a non-isometric op leaves a visible norm defect."""
    op = np.asarray(op, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if op.ndim != 2 or op.shape[1] != v.shape[-1]:
        raise ValueError(f"cannot apply {op.shape} to {v.shape}")
    return np.matmul(op, v[..., np.newaxis])[..., 0]


def is_unitary(op, atol: float = ATOL_VERDICT) -> bool:
    """True when op† op = I within atol (max-entry norm)."""
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        return False
    gram = op.conj().T @ op
    return bool(np.max(np.abs(gram - np.eye(op.shape[0]))) <= atol)


class AntiUnitaryMap:
    """Antiunitary action v -> U conj(v) for a fixed unitary part U."""

    def __init__(self, unitary_part) -> None:
        u = operator(unitary_part)
        if not is_unitary(u, ATOL_STATE):
            raise ValueError("the unitary part of an antiunitary map must be unitary")
        self.unitary_part = u

    @property
    def dim(self) -> int:
        return self.unitary_part.shape[0]

    def __call__(self, v) -> np.ndarray:
        return apply(self.unitary_part, np.conj(v))

    def __repr__(self) -> str:
        return f"AntiUnitaryMap(dim={self.dim})"


def conjugation() -> AntiUnitaryMap:
    """Plain componentwise conjugation of a qubit in the computational basis."""
    return AntiUnitaryMap(np.eye(2))


def complement_map() -> AntiUnitaryMap:
    """The antiunitary sending alpha|0>+beta|1> to conj(alpha)|1>-conj(beta)|0>."""
    return AntiUnitaryMap(np.array([[0.0, -1.0], [1.0, 0.0]]))


class GeneralKMap:
    """Weighted mix of a unitary and an antiunitary action on one qubit.

    K v = sqrt(lam) U v + sqrt(1-lam) A v with lam in [0, 1]: U is the
    identity, applied as a matrix so that U v keeps a product's bits, and
    A the complement flip unless given.  The endpoints collapse exactly
    to the pure unitary (lam=1) or pure antiunitary (lam=0) action.
    """

    def __init__(self, lam: float, antiunitary: AntiUnitaryMap | None = None) -> None:
        lam = float(lam)
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {lam!r}")
        self.lam = lam
        self.unitary = np.eye(2, dtype=complex)
        self.antiunitary = antiunitary if antiunitary is not None else complement_map()
        if self.antiunitary.dim != self.unitary.shape[0]:
            raise ValueError("unitary and antiunitary parts act on different dimensions")

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        out = np.zeros_like(v)
        if self.lam > 0.0:
            out = out + np.sqrt(self.lam) * apply(self.unitary, v)
        if self.lam < 1.0:
            out = out + np.sqrt(1.0 - self.lam) * self.antiunitary(v)
        return out

    def __repr__(self) -> str:
        return f"GeneralKMap(lam={self.lam!r})"


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
