"""Qubit states, their complements, and the restricted great-circle families.

The complement of alpha|0>+beta|1> is conj(alpha)|1> - conj(beta)|0>, the
unique state orthogonal to the input up to phase.  Composing the
complement with itself returns the input with a global minus sign, so
the map is an involution on rays, not on vectors.

Each great-circle family pairs a state with a partner on the opposite
side of the circle.  On the polar circle the partner coincides with the
canonical complement.  On the equatorial circle the overlap identities
and the diagonal phase gate hold for the antipodal state instead, which
shares a ray with the complement but differs from it by the
parameter-dependent phase -e^{-i phi}.  polar_pair and equatorial_pair
write both conventions out for one parameter; state_family builds whole
families as (n, 2) arrays.
"""

from __future__ import annotations

import numpy as np

from ._record import record
from ._shared import FAMILIES
from .algebra import abs_squared, state_vector

_TWO_PI = 2.0 * np.pi
_DIGITS = 4   # decimals of ket_notation's coefficients


@record
class Qubit:
    """A single-qubit pure state with validated amplitudes."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        a, b = complex(self.alpha), complex(self.beta)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError("qubit amplitudes must be finite")
        try:
            norm = abs(a) ** 2 + abs(b) ** 2
        except OverflowError:   # a modulus or its square past the largest float
            norm = np.inf
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"qubit amplitudes are not normalized (|.|^2 = {norm!r})")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)


def complement(q: Qubit) -> Qubit:
    """conj(alpha)|1> - conj(beta)|0>: the orthogonal state."""
    return Qubit(-np.conj(q.beta), np.conj(q.alpha))


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


def _checked(vectors) -> np.ndarray:
    """Qubit's checks on each row of an (n, 2) array: finite, |norm - 1| <= 1e-12.

    Plain squared norms, within 1e-15 of Qubit's near 1, decide the rows more than 1e-14
    inside the bound; Qubit's own norm, whose bits the refusal shows, decides the others."""
    v = np.array(vectors, dtype=complex)
    if v.ndim != 2 or v.shape[1] != 2 or not len(v):
        raise ValueError(f"expected a non-empty (n, 2) array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("qubit amplitudes must be finite")
    f = v.view(float)
    near = np.flatnonzero(np.abs(np.einsum("ij,ij->i", f, f) - 1.0) > 1e-12 - 1e-14)
    norm = abs_squared(v[near, 0]) + abs_squared(v[near, 1])
    bad = np.flatnonzero(np.abs(norm - 1.0) > 1e-12)
    if bad.size:
        raise ValueError(f"qubit amplitudes are not normalized (|.|^2 = {float(norm[bad[0]])!r})")
    v.setflags(write=False)
    return v


def _rows(first, second) -> np.ndarray:
    return np.stack([first, second], axis=1).astype(complex)


def _complements(states: np.ndarray) -> np.ndarray:
    return _rows(-states[:, 1].conj(), states[:, 0].conj())


def _bloch_rows(theta, phi) -> np.ndarray:
    """States cos(theta/2)|0> + sin(theta/2) e^{i phi}|1>, one row per angle pair."""
    return _rows(np.cos(theta / 2.0), np.sin(theta / 2.0) * np.exp(1j * phi))


def _sphere_draw(n: int, rng: np.random.Generator) -> np.ndarray:
    """n states with cos(theta) and phi uniform."""
    cos_theta = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, _TWO_PI, size=n) % _TWO_PI
    return _bloch_rows(np.arccos(np.clip(cos_theta, -1.0, 1.0)), phi)


@record(eq=False)
class StateSet:
    """A family of (state, partner) pairs: the input of every rule kernel.

    The pairs are two validated, read-only (n, 2) complex arrays; pair(i)
    builds the Qubits of one pair from them on demand.
    The pairing convention travels with the set: circle sets carry their
    family partners, whole-sphere sets carry canonical complements.
    """

    state_vectors: np.ndarray
    partner_vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "state_vectors", _checked(self.state_vectors))
        object.__setattr__(self, "partner_vectors", _checked(self.partner_vectors))
        if self.state_vectors.shape != self.partner_vectors.shape:
            raise ValueError("states and partners differ in number")

    def pair(self, i: int) -> tuple[Qubit, Qubit]:
        return Qubit(*self.state_vectors[i]), Qubit(*self.partner_vectors[i])

    def __len__(self) -> int:
        return len(self.state_vectors)


def state_family(name: str, n: int, seed: int | None = None, *,
                 sampled: bool = False) -> StateSet:
    """The one builder of the named families.

    bloch draws n states from seed, paired with their complements; unless
    sampled, the probes |+> and |+i> come first (within n), so that an audit
    always meets equator points with real and with imaginary amplitudes.
    polar and equatorial are evenly spaced grids, or uniform draws from seed
    when sampled, paired as by polar_pair and equatorial_pair.
    """
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; expected bloch, polar, or equatorial")
    if n < 1:
        raise ValueError("need at least one state")
    r = 1.0 / np.sqrt(2.0)
    if name == "bloch":
        head = np.array([[r, r], [r, 1j * r]])[:0 if sampled else n]
        s = np.concatenate([head, _sphere_draw(n - len(head), np.random.default_rng(seed))])
        return StateSet(s, _complements(s))
    top = np.pi if name == "polar" else _TWO_PI
    t = (np.random.default_rng(seed).uniform(0.0, top, size=n) if sampled
         else np.linspace(0.0, top, n, endpoint=False))
    if name == "polar":
        c, s = np.cos(t / 2.0), np.sin(t / 2.0)
        return StateSet(_rows(c, s), _rows(-s, c))
    h = np.full(n, r)
    if sampled:
        # the sampled equator keeps its own rounding, e^{i phi}/sqrt2 and
        # the negated antipode; they agree with the grid form to an ulp
        e = np.exp(1j * t) / np.sqrt(2.0)
        return StateSet(_rows(h, e), _rows(h, -e))
    return StateSet(_rows(h, r * np.exp(1j * t)),
                    _rows(h, r * np.exp(1j * ((t + np.pi) % _TWO_PI))))


def polar_set(n: int = 64) -> StateSet:
    """n evenly spaced polar pairs; the pairs cover the full circle."""
    return state_family("polar", n)


def listed_set(qubits) -> StateSet:
    """Pairs built from explicit states, partnered by the canonical complement."""
    qs = list(qubits)
    if not qs:
        raise ValueError("empty state list")
    for q in qs:
        if not isinstance(q, Qubit):
            raise TypeError(f"expected Qubit, got {type(q).__name__}")
    s = np.array([q.vector for q in qs])
    return StateSet(s, _complements(s))


def ket_notation(v) -> str:
    """Human-readable a|0> + b|1> style rendering of a state vector, to _DIGITS decimals."""
    if isinstance(v, Qubit):
        v = v.vector
    v = state_vector(v, normalized=False)
    n = int(np.log2(v.size)) if v.size > 1 else 1
    terms = []
    for idx, amp in enumerate(v):
        if abs(amp) <= 10.0 ** (-_DIGITS - 2):
            continue
        label = format(idx, f"0{n}b")
        re, im = round(amp.real, _DIGITS), round(amp.imag, _DIGITS)
        if abs(im) <= 10.0 ** (-_DIGITS):
            coef = f"{re:+g}"
        elif abs(re) <= 10.0 ** (-_DIGITS):
            coef = f"{im:+g}i"
        else:
            coef = f"+({re:g}{im:+g}i)"
        terms.append(f"{coef}|{label}>")
    return " ".join(terms) if terms else "0"
