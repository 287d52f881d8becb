"""Machine extensions, impossibility audits, and the pair scans of witness and circle-check.

A candidate machine is a linear part plus an antilinear part, each
given by its images of the two basis inputs: extend linear has only the
first, extend antilinear only the second, and a hybrid weights both.
Their sum is the machine's action on every superposition.  Comparing
that action with the ideal target for each input state, or
comparing required output overlaps with input overlaps, turns the
impossibility arguments into numbers: a violation of zero means the
demanded behaviour is consistent, anything above tolerance is a
certificate that no machine of the declared class can do the job.

Violation metrics are global-phase tolerant throughout: state targets
use 1 - |<ideal|actual>|^2, overlap audits use the absolute difference
between required-output and input inner products.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from itertools import groupby

import numpy as np

from ._record import record
from ._shared import REGISTRY
from .algebra import (
    ATOL_VERDICT,
    abs_squared,
    haar_unitaries,
    kron_rows,
    row_blocks,
    row_dots,
    row_norms,
    state_vector,
)
from .states import Qubit, StateSet, state_family

_BASIS = np.eye(2, dtype=complex)
_BASIS.setflags(write=False)
# the complement's antilinear part, row i its image of |i>: it sends alpha|0> + beta|1> to
# conj(alpha)|1> - conj(beta)|0>
_COMPLEMENT = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
_COMPLEMENT.setflags(write=False)

_SCREEN_MARGIN = 1e-12   # over twice the screen's error: 1e-14 rounding, 5e-14 from _reduced
# The witness screen's states per cell, and the rounding slack of a cell's bound over its
# estimates.
_CELL, _BOUND_SLACK = 32, 1e-13
# Columns per tile, one more where row_blocks joins a lone last column.  The estimate's tiles
# stay in cache; an exact tile is a run of them, at most _EXACT_TILE wide, so it starts a
# whole number of estimate tiles from the block edge and every entry keeps its bits.
_SCREEN_TILE = 256
_EXACT_TILE = 1024
_WITNESS_BLOCK = 256   # rows per block of the witness scan
_CIRCLE_TILE = 64      # columns: five 256 x 64 complex tiles are 1.25 MiB, in a 2 MiB L2
# States per block of the per-state kernels: memory at n states is the family arrays, the
# per-state outputs and one block, and every row keeps its bits whatever the block.
_STATE_BLOCK = 1024
# Over twice the largest gap, 4e-14, between a state's screen estimate and its exact value
# (_rule_estimate, _deviation_estimate): a state that holds the maximum estimates within it
# of the top estimate.
_STATE_SLACK = 1e-13
_SURVEY_TOLERANCE, _SURVEY_BLOCK = 1e-3, 1024   # the Haar survey's pass bound, candidates a block
# the basis-flip rules (control, target) -> (control, new target); s a state, p its partner
_CNOT_RULES = [("s", "s", "s", "s"), ("s", "p", "s", "p"), ("p", "s", "p", "p"), ("p", "p", "p", "s")]


@record(eq=False)
class MachineSpec:
    """A candidate machine: a linear and an antilinear part.

    Each part is a read-only (2, 4d) array, d in {1, 2, 4}, whose row i is
    the part's image of |i> (system, transformed copy, ancilla); the machine
    sends a|0> + b|1> to a L_0 + b L_1 + conj(a) A_0 + conj(b) A_1, as
    _semilinear evaluates it; a machine target's K is two 2x2 parts of the
    same form.  extend linear is (rows, 0), extend antilinear (0, rows), and
    hybrid_machine builds the hybrid, the hybrid K's basis action.  The basis
    outputs L_i + A_i must be normalized and mutually orthogonal, and the
    machine must keep the norm of every input: with G the Gram matrix of the
    rows (L_0, L_1, A_0, A_1), the squared norm of its output on a|0> + b|1>
    is |a|^2 + |b|^2 for all a, b exactly when G_00 + G_22 = G_11 + G_33 = 1
    and G_01 + G_32 = G_02 = G_13 = G_03 + G_12 = 0.
    """

    linear: np.ndarray
    antilinear: np.ndarray

    def __post_init__(self):
        parts = [np.array(part, dtype=complex) for part in (self.linear, self.antilinear)]
        if parts[0].shape != parts[1].shape or parts[0].shape not in ((2, 4), (2, 8), (2, 16)):
            raise ValueError("machine parts must both have shape (2, 4), (2, 8) or (2, 16), "
                             f"got {parts[0].shape} and {parts[1].shape}")
        with np.errstate(all="ignore"):   # a non-finite sum is refused by state_vector
            out0, out1 = (state_vector(out) for out in parts[0] + parts[1])
        if abs(np.vdot(out0, out1)) > ATOL_VERDICT:
            raise ValueError("basis outputs are not orthogonal; the machine cannot be isometric")
        rows = np.vstack(parts)
        with np.errstate(all="ignore"):   # parts past 1e154 overflow G: inf or NaN is refused
            g = rows.conj() @ rows.T
            defects = (g[0, 0] + g[2, 2] - 1.0, g[1, 1] + g[3, 3] - 1.0, g[0, 1] + g[3, 2],
                       g[0, 2], g[1, 3], g[0, 3] + g[1, 2])
        if not all(abs(x) <= ATOL_VERDICT for x in defects):
            raise ValueError("machine parts do not keep the norm of every input; "
                             "the machine cannot be isometric")
        for name, part in zip(("linear", "antilinear"), parts):
            part.setflags(write=False)
            object.__setattr__(self, name, part)


def hybrid_machine(lam: float, ancilla_dim: int) -> MachineSpec:
    """The machine |i> -> |i> (x) K|i> (x) |0...0>, K the hybrid of weight lam.

    Row i of each part is |i> (x) (row i of K's part) (x) |0...0>: the linear
    part is sqrt(lam) times the copy |i> -> |i>|i>, the antilinear part
    sqrt(1 - lam) times the complement |i> -> |i> F|i>; the two act
    orthogonally on each basis state, so the basis outputs stay normalized.
    """
    k = _target_k(TargetTransform("hybrid", lam=lam))
    ket0 = np.eye(1, ancilla_dim, dtype=complex)[0]   # |0...0> of the ancilla
    return MachineSpec(*(np.array([np.kron(np.kron(e, row), ket0)
                                   for e, row in zip(_BASIS, part)]) for part in k))


def _semilinear(parts, s: np.ndarray) -> np.ndarray:
    """The map of (linear, antilinear) parts, a machine's or a K's, on each row s of an (n, 2)
    array: s_0 L_0 + s_1 L_1 + conj(s_0) A_0 + conj(s_1) A_1, a part that is all zeros left
    out.  The sums run elementwise: a matrix product rounds differently where a part mixes
    both amplitudes in one column."""
    out = None
    for part, conj in zip(parts, (False, True)):
        if part.any():
            x = np.conj(s) if conj else s
            term = x[:, :1] * part[0] + x[:, 1:] * part[1]
            out = term if out is None else out + term
    return out


def _unit_weights(a, b) -> tuple[complex, complex]:
    a, b = complex(a), complex(b)
    norm = a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag   # inf, no raise
    if not (cmath.isfinite(a) and cmath.isfinite(b)) or abs(norm - 1.0) > 1e-12:
        raise ValueError("unequal weights must be finite and satisfy |a|^2 + |b|^2 = 1")
    return a, b


@record(eq=False)
class TargetTransform:
    """What the machine or gate is demanded to do for every input state.

    kind names a target of _shared.REGISTRY, which lists the arguments it
    takes: unequal the weights a and b, hybrid the weight lam (lambda in
    the DSL), which must lie in [0, 1].  A machine target (side 0) demands
    the two-register output |psi> (x) K|psi>, K v = sqrt(lam) v +
    sqrt(1 - lam) F conj(v) with F conj(v) orthogonal to v.  K is stored as
    a machine is, as linear and antilinear 2x2 parts (_target_k): clone
    (I, 0), complement (0, F^T), conjugate (0, I) and hybrid (sqrt(lam) I,
    sqrt(1 - lam) F^T), F = [[0, -1], [1, 0]] the complement flip.  A gate
    target has per-state rules over (state, partner) pairs that a
    candidate gate of its side must meet:

        hadamard9   psi -> (psi + partner)/sqrt2, partner -> (psi - partner)/sqrt2
        hadamard10  psi -> (psi + i partner)/sqrt2, partner -> (i psi + partner)/sqrt2
        unequal     psi -> a psi + b partner, partner -> b psi - a partner
        cnot        flip the target qubit in the control state's own basis
    """

    kind: str
    a: complex | None = None
    b: complex | None = None
    lam: float | None = None

    def __post_init__(self):
        if self.kind not in REGISTRY["target"]:
            raise ValueError(f"unknown target kind {self.kind!r}")
        keys = REGISTRY["target"][self.kind][0]
        for key, value in (("a", self.a), ("b", self.b), ("lambda", self.lam)):
            if (value is None) == (key in keys):
                need = "needs" if value is None else "takes no"
                raise ValueError(f"target {self.kind!r} {need} argument {key}")
        if self.a is not None:
            a, b = _unit_weights(self.a, self.b)
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
        if self.lam is not None:
            lam = float(self.lam)
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"lam must lie in [0, 1], got {lam!r}")
            object.__setattr__(self, "lam", lam)

    @property
    def side(self) -> int:
        """The side of the candidate gate a gate target demands; 0 for a machine target."""
        return REGISTRY["target"][self.kind][1]


def target_hadamard9() -> TargetTransform:
    """The hadamard9 target, which perfbench's survey workload passes to the survey."""
    return TargetTransform("hadamard9")


def _rules(t: TargetTransform, s: np.ndarray, p: np.ndarray):
    """(inputs, required outputs) of each per-state rule of a gate target, as rows for the
    states s and partners p; a single-qubit rule is built when asked for."""
    r, kind = 1.0 / np.sqrt(2.0), t.kind
    if t.side == 2:
        yield s, r * (s + p) if kind == "hadamard9" else (
            r * (s + 1j * p) if kind == "hadamard10" else t.a * s + t.b * p)
        yield p, r * (s - p) if kind == "hadamard9" else (
            r * (1j * s + p) if kind == "hadamard10" else t.b * s - t.a * p)
    elif t.side == 4:   # cnot: kron(control, target) for s and p, with the bits of kron_rows
        rep = {"s": s.repeat(2, axis=1), "p": p.repeat(2, axis=1)}   # c0 c0 c1 c1
        tile = {"s": np.hstack([s, s]), "p": np.hstack([p, p])}      # x0 x1 x0 x1
        k = {c + x: rep[c] * tile[x] for c in "sp" for x in "sp"}
        for c, x, co, xo in _CNOT_RULES:
            yield k[c + x], k[co + xo]
    else:
        raise ValueError(f"target kind {kind!r} has no per-state rules")


def _target_k(t: TargetTransform) -> tuple[np.ndarray, np.ndarray]:
    """A machine target's K as (linear, antilinear) parts, 2x2 row maps of a machine's form:
    the identity and the complement, or at conjugate the identity alone, weighted by
    (sqrt(lam), sqrt(1 - lam)); a part of weight 0 is all zeros."""
    lam = {"clone": 1.0, "hybrid": t.lam}.get(t.kind, 0.0)
    return (np.sqrt(lam) * _BASIS,
            np.sqrt(1.0 - lam) * (_BASIS if t.kind == "conjugate" else _COMPLEMENT))


def _worst_deviation(m: MachineSpec, t: TargetTransform, states) -> tuple[float, int]:
    """The largest _deviations value of a machine and a machine target over the states, with
    its bits, and its first index; the exact kernel runs only on the states _screened_max
    keeps."""
    s, parts = states.state_vectors, ((m.linear, m.antilinear), _target_k(t))
    return _screened_max(len(s), lambda lo, hi: _deviation_estimate(parts, s[lo:hi]),
                         lambda rows: _deviations(parts, s[rows]))


def _deviations(parts, s: np.ndarray) -> np.ndarray:
    """1 - |<ideal|actual>|^2, clipped to [0, 1], of each row of s: ideal = s (x) K s (x)
    |0...0> and actual the machine's output, each normalized; parts holds the (linear,
    antilinear) parts of the machine and of the target's K, and _semilinear applies each."""
    actual, second = (_semilinear(p, s) for p in parts)
    actual = actual / row_norms(actual)[:, np.newaxis]
    d = actual.shape[1] // 4
    ket0 = np.broadcast_to(np.eye(1, d, dtype=complex), (len(s), d))   # the final ancilla
    ideal = kron_rows(kron_rows(s, second / row_norms(second)[:, np.newaxis]), ket0)
    return np.clip(1.0 - abs_squared(row_dots(ideal.conj(), actual)), 0.0, 1.0)


def _deviation_estimate(parts, s: np.ndarray) -> np.ndarray:
    """_deviations of the rows of s to 4e-14, in plain arithmetic; NaN where that is not
    proven, which includes every row whose output or ideal vanishes.  parts holds the
    (linear, antilinear) parts of the machine and of the target's K (_target_k), each here a
    matrix product of rows v -> v @ L + conj(v) @ A, whose bits are free.

    Both compute 1 - |<s (x) K s (x) 0|a>|^2 / |K s|^2 |a|^2, but each path forms the
    outputs a and K s its own way.  Each is within 1.1e-15 of the true one (|s| <= 1 + 1e-12,
    unit branch vectors, weights whose squares sum to 1), so where |a| and |K s| are at
    least 0.9 the two directions of each lie within 5e-15 and the squared overlaps within
    2e-14.  The dots, norms and quotient of each path round to 8.5e-15 (16 terms at most),
    and clipping to [0, 1] moves two values no further apart: 3.7e-14 in all."""
    sc = s.conj()
    actual, k = (s @ lin + sc @ anti for lin, anti in parts)
    a2, k2 = (np.einsum("ij,ij->i", x, x) for x in (actual.view(float), k.view(float)))
    ideal = sc[:, [0, 0, 1, 1]] * k.conj()[:, [0, 1, 0, 1]]   # conj(s (x) K s)
    dot = np.einsum("ij,ij->i", ideal, actual.reshape(len(s), 4, -1)[:, :, 0])
    with np.errstate(all="ignore"):   # a vanished output reads NaN, as unproven
        est = np.clip(1.0 - (dot.real * dot.real + dot.imag * dot.imag) / (a2 * k2), 0.0, 1.0)
    est[~((a2 >= 0.81) & (k2 >= 0.81))] = np.nan
    return est


@record(eq=False)
class Verdict:
    """Outcome of a realizability check.

    realizable means every demanded behaviour was matched within
    tolerance; otherwise witness holds the offending state and its
    partner, and violation the worst phase-invariant mismatch.
    """

    realizable: bool
    violation: float
    tolerance: float
    condition: str
    witness: tuple[Qubit, Qubit] | None = None
    detail: str = ""

    def __post_init__(self):
        if self.realizable and self.violation > self.tolerance:
            raise ValueError("realizable verdicts cannot exceed tolerance")
        if not self.realizable and self.witness is None:
            raise ValueError("impossible verdicts must carry a witness")

    @property
    def status(self) -> str:
        return "REALIZABLE" if self.realizable else "IMPOSSIBLE"


def _rule_violation(candidate: np.ndarray, rules) -> np.ndarray:
    """Worst phase-invariant mismatch of each state over the rules, (inputs, required
    outputs) pairs; 1 where a vector vanishes."""
    ins, outs = (np.stack(v) for v in zip(*rules))
    # every row gets the bits of candidate @ row; nothing is renormalized
    actual = np.matmul(candidate, ins[..., np.newaxis])[..., 0]
    na, no = row_norms(actual), row_norms(outs)
    with np.errstate(divide="ignore", invalid="ignore"):
        overlap_sq = abs_squared(row_dots(outs.conj(), actual)) / (na * na * no * no)
    v = np.clip(1.0 - overlap_sq, 0.0, 1.0)
    v[(na < 1e-12) | (no < 1e-12)] = 1.0
    return v.max(axis=0)


def _rule_estimate(candidate: np.ndarray, rules, floor: float) -> np.ndarray:
    """_rule_violation of each state to 4e-14, in plain arithmetic; NaN where that is not
    proven, which includes every state with a vanished vector.  floor is the larger of 4e-24
    and |C|_F^2 / 16, C the candidate, or inf where the squared norms may overflow.

    Per rule both compute the squared cosine between the required output o and a = C x, for
    the same o and x.  Each a is within 7e-16 |C|_F of the true product (|x| <= 1 + 1e-12, at
    most four complex terms a component), so where |a| >= |C|_F / 4 the two directions lie
    within 1.2e-14 and the squared cosines within 2.3e-14.  The dots, norms and quotient of
    each path round to 5e-15; clipping and taking the worst rule move two values no further
    apart: 3.3e-14 in all."""
    ratio = a_min = o_min = np.inf
    with np.errstate(all="ignore"):   # a vanished or overflowed vector reads NaN, as unproven
        for x, o in rules:   # a rule at a time: the arrays stay below the mmap threshold
            a = x @ candidate.T
            a2, o2 = (np.einsum("ij,ij->i", y, y) for y in (a.view(float), o.view(float)))
            dot = np.einsum("ij,ij->i", o.conj(), a)
            ratio = np.minimum(ratio, (dot.real * dot.real + dot.imag * dot.imag) / (a2 * o2))
            a_min, o_min = np.minimum(a_min, a2), np.minimum(o_min, o2)
    est = np.clip(1.0 - ratio, 0.0, 1.0)
    est[~((a_min >= floor) & (o_min >= 4e-24))] = np.nan
    return est


def _screened_max(n: int, estimate, exact) -> tuple[float, int]:
    """What np.argmax over the exact values of n states picks (the first NaN, else the first
    largest value) as (value, index), computing the exact values of few states.

    estimate(lo, hi) gives estimates of states lo:hi within _STATE_SLACK / 2 of their exact
    values, NaN where unproven; exact(rows) gives the exact values of the states rows, a slice
    or index array, with the bits each has in any block.  Per block of _STATE_BLOCK it keeps
    the top estimate so far, which is at most the maximum plus half the slack, and computes
    exactly the states that estimate within the slack of that top or read NaN: every state
    that holds the maximum, or a NaN, is among them.  When over a quarter of a block is, the
    whole block is computed in place, and its exact values, estimates with no error, raise the
    top; while over a quarter of them lie within the slack of it, as on a family where every
    state ties, the next block is computed whole without an estimate.  A lone state is
    computed twice over, as row_blocks joins one, for the bits of a BLAS call on several rows."""
    top, best, at, screen = -np.inf, -np.inf, 0, True
    for lo, hi in row_blocks(n, _STATE_BLOCK):
        if screen:
            est = estimate(lo, hi)   # its temporaries are freed before the exact pass
            top = np.fmax.reduce(est, initial=top)
            rows = lo + np.flatnonzero(~(est < top - _STATE_SLACK))
        if not screen or 4 * rows.size > hi - lo:
            rows, v = np.arange(lo, hi), exact(slice(lo, hi))
            top = np.fmax.reduce(v, initial=top)
            screen = 4 * np.count_nonzero(~(v < top - _STATE_SLACK)) <= hi - lo
        elif rows.size:
            v = exact(np.repeat(rows, 2) if rows.size == 1 else rows)
        else:
            continue
        k = int(np.argmax(v))
        if best == best and not v[k] <= best:   # a NaN stays; a later value must be larger
            best, at = float(v[k]), int(rows[k])
    return best, at


def _worst_rule(candidate: np.ndarray, t: TargetTransform, s: np.ndarray,
                p: np.ndarray) -> tuple[float, int]:
    """The largest _rule_violation over the states s, partners p, with its bits, and its first
    index; the exact kernel runs only on the states _screened_max keeps."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm2 = np.vdot(candidate, candidate).real
    # past 1e300 the squared norms of its images may overflow: no state is proven
    floor = max(4e-24, norm2 / 16.0) if norm2 <= 1e300 else np.inf
    return _screened_max(
        len(s), lambda lo, hi: _rule_estimate(candidate, _rules(t, s[lo:hi], p[lo:hi]), floor),
        lambda rows: _rule_violation(candidate, _rules(t, s[rows], p[rows])))


def check_universal_gate(candidate, t: TargetTransform, states: StateSet,
                         tol: float = ATOL_VERDICT) -> Verdict:
    """Does one fixed operator satisfy the target's rules on every state?

    The candidate is 2x2 for a single-qubit target and 4x4 for cnot, whose
    four basis-flip rules it must meet for each state, under the set's own
    pairing convention.  The verdict's witness is the worst-violating
    (state, partner) pair, the first one on ties.  The exact rule kernel
    runs only on the states whose screen estimate can reach the maximum
    (_worst_rule); violation and witness keep the bits of a scan over
    every state.
    """
    size = t.side
    if not size:
        raise ValueError(f"target kind {t.kind!r} is not a gate target")
    if np.shape(candidate) != (size, size):
        raise ValueError(f"{t.kind} candidates are {size}x{size}, got {np.shape(candidate)}")
    candidate = np.asarray(candidate, dtype=complex)
    worst, i = _worst_rule(candidate, t, states.state_vectors, states.partner_vectors)
    ok = worst <= tol
    return Verdict(realizable=ok, violation=worst, tolerance=tol,
                   condition=f"{t.kind}-rules",
                   witness=None if ok else states.pair(i),
                   detail=f"checked {len(states)} state pairs")


@record(eq=False)
class WitnessResult:
    """Worst pair found by witness_search."""

    pair: tuple[Qubit, Qubit]
    violation: float
    condition: str


def _squares(*parts: np.ndarray) -> np.ndarray:
    """Real rows whose dot products are the squared moduli |<x|y>|^2 of the rows x, y of
    the parts side by side."""
    d = sum(part.shape[1] for part in parts)
    a, b = np.triu_indices(d, 1)
    out = np.empty((len(parts[0]), d * d))
    for lo, hi in row_blocks(len(out), _STATE_BLOCK):
        v = np.hstack([part[lo:hi] for part in parts])
        upper = np.sqrt(2.0) * v[:, a] * v[:, b].conj()
        out[lo:hi, :d] = v.real * v.real + v.imag * v.imag
        out[lo:hi, d:d + a.size] = upper.real
        out[lo:hi, d + a.size:] = upper.imag
    return out


def _reduced(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(left q, right q), q an orthonormal basis of the span of left's rows, when that has
    fewer dimensions and keeps every product left_i . right_j to 5e-14; else (left, right)."""
    w, v = np.linalg.eigh(left.T @ left)
    q = v[:, w > 1e-12 * w[-1]]
    if q.shape == v.shape:
        return left, right
    lq = left @ q
    blocks = list(row_blocks(len(left), _STATE_BLOCK))
    misfit = max(row_norms(left[lo:hi] - lq[lo:hi] @ q.T).max() for lo, hi in blocks)
    if misfit * max(row_norms(right[lo:hi]).max() for lo, hi in blocks) > 5e-14:
        return left, right
    return lq, right @ q


def _screen_terms(s, p, o1, reduce: bool = True) -> list:
    """The screen's products as pairs of real rows, in the few dimensions the family spans
    when reduce is set, built once per scan; o1 is None for cnot."""
    fit = _reduced if reduce else lambda left, right: (left, right)
    if o1 is not None:   # <s_i|s_j> - <o_i|o_j> is one product of the rows (s, o1) and (s, -o1)
        return [(fit(_squares(s, o1), _squares(s, -o1)),)]
    # Every rule keeps its control: a rule pair's gap is |g[c1 c2]| |g[t1 t2] - g[t1' t2']|,
    # 0 for two s controls, else the larger of two differences, each one product.
    ss, ps, ds, qs, r1, r2 = (_squares(*v) for v in (
        [s], [p], [s - p], [s, p], [s, -p], [p, -s]))
    return [tuple(fit(*pair) for pair in term) for term in (
        ((ss, ps), (ss, ds), (ps, ds)), ((ps, ss), (ds, ss), (ds, ps)),
        ((ps, ps), (qs, r1), (qs, r2)))]


def _tile_estimate(terms, buf, lo: int, hi: int, c0: int, c1: int, pos=None) -> np.ndarray:
    """The squared gaps of rows lo:hi x columns c0:c1 to 6e-14, -1 where j <= i, in buf; the
    terms' row of state i is pos[i] if pos is given."""
    m, w = hi - lo, c1 - c0
    rows, cols = (slice(lo, hi), slice(c0, c1)) if pos is None else (pos[lo:hi], pos[c0:c1])
    est, *out = (b[:m * w].reshape(m, w) for b in buf)
    if not out:   # a single-qubit target: one product, straight into the estimate
        left, right = terms[0][0]
        np.matmul(left[rows], right[cols].T, out=est)
    else:
        est[:] = 0.0
        for term in terms:
            sq, *diffs = [np.matmul(x[rows], y[cols].T, out=o)
                          for (x, y), o in zip(term, out)]
            sq *= np.maximum(*diffs, out=diffs[0])
            np.maximum(est, sq, out=est)
    return _mask_lower(est, lo, c0)


@lru_cache(maxsize=8)   # a scan meets a few shapes: full tiles and the narrower last ones
def _tri_mask(m: int, w: int, k: int) -> np.ndarray:
    return np.broadcast_to(np.tri(m, w, k, dtype=bool), (m, w))   # a read-only view, shared


def _mask_lower(tile: np.ndarray, lo: int, c0: int) -> np.ndarray:   # rows lo:, columns c0:
    if c0 - lo < len(tile):   # -1 where j <= i, which only a tile that meets the diagonal holds
        np.copyto(tile, -1.0, where=_tri_mask(*tile.shape, lo - c0))
    return tile


def _cell_order(x: np.ndarray) -> np.ndarray:
    """A permutation of the rows of x, entries in [-1, 1], whose runs of _CELL are compact: each
    pass cuts every longer run at the cell edge nearest its median along its widest coordinate."""
    n, order, cut = len(x), np.arange(len(x)), np.arange(-(-len(x) // _CELL)) == 0
    coords = np.ascontiguousarray(x.T)   # one row per coordinate: the runs' reductions stream
    while (sizes := np.diff(starts := np.flatnonzero(cut) * _CELL, append=n)).max() > _CELL:
        run, pts = np.repeat(np.arange(len(starts)), sizes), coords.take(order, axis=1)
        axis = (np.maximum.reduceat(pts, starts, axis=1)
                - np.minimum.reduceat(pts, starts, axis=1)).argmax(axis=0)
        key = pts.take(axis[run] * n + np.arange(n))
        order = order[np.argsort(key + 4.0 * run)]   # runs stay apart
        cut[(starts // _CELL + -(-sizes // (2 * _CELL)))[sizes > _CELL]] = True
    return order


def _cell_forms(terms, n: int) -> np.ndarray:
    """Per pair (x, y) of screen rows, stacked and zero-padded, the rows whose products bound
    x_i . y_j over each pair of cells: over boxes of centres c, c' and half-widths r, r',
    x . y <= c.c' + |c|.r' + r.|c'| + r.r'."""
    def box(v):
        lo, hi = np.minimum.reduceat(v, starts), np.maximum.reduceat(v, starts)
        return (hi + lo) / 2.0, (hi - lo) / 2.0

    starts, pairs = np.arange(0, n, _CELL), [pair for term in terms for pair in term]
    forms = np.zeros((2, len(pairs), len(starts), 4 * max(x.shape[1] for x, _ in pairs)))
    for k, ((c, r), (c2, r2)) in enumerate(map(box, pair) for pair in pairs):
        forms[0, k, :, :4 * c.shape[1]] = np.hstack([c, abs(c), r, r])
        forms[1, k, :, :4 * c.shape[1]] = np.hstack([c2, r2, abs(c2), r2])
    return forms


def _cell_bound(forms, rows) -> np.ndarray:
    """Bounds, with a rounding slack, of the estimates over the cells rows x every cell; for cnot
    the largest over the terms of max(ub_sq, 0) max(ub_d1, ub_d2, 0)."""
    ub = np.maximum(np.matmul(forms[0][:, rows], forms[1].transpose(0, 2, 1)), 0.0)
    ub = (ub[0::3] * np.maximum(ub[1::3], ub[2::3])).max(axis=0) if len(ub) > 1 else ub[0]
    return ub + _BOUND_SLACK


def _witness_screen(terms, order, blocks) -> np.ndarray:
    """Per row block, per column tile of row_blocks(n - lo, _SCREEN_TILE) from its first row (the
    entries past a block's last tile are padding): the largest estimate of the tile's pairs within
    _SCREEN_MARGIN of the top, else -inf.  The terms' rows are those of the states order, in cells
    of _CELL.  Each _SCREEN_TILE rows, in whole cells, are computed against their cell of the
    largest bound, then against every run of cells whose bound reaches the top so far less the
    margin."""
    def pieces():   # (first row, first column, estimates): per row tile, its cell of the largest
        for g in range(0, cells, group):   # bound, then each run of cells whose bound reaches
            bound = _cell_bound(forms, slice(g, g + group))
            bound[np.arange(cells) < np.arange(g, g + len(bound))[:, None]] = -np.inf   # b < a
            r0, r1, c = g * _CELL, min(n, (g + group) * _CELL), bound.max(axis=0).argmax() * _CELL
            yield r0, c, _tile_estimate(terms, buf, r0, r1, c, min(n, c + _CELL))
            at[1:-1] = (bound >= top - _SCREEN_MARGIN).any(axis=0)
            edges = np.flatnonzero(at[1:] != at[:-1])   # the runs' first cells and ends
            for c0, c1 in zip(edges[0::2] * _CELL, np.minimum(edges[1::2] * _CELL, n)):
                for c in range(c0, c1, step):
                    yield r0, c, _tile_estimate(terms, buf, r0, r1, c, min(c1, c + step))

    n, forms, group = len(order), _cell_forms(terms, len(order)), max(1, _SCREEN_TILE // _CELL)
    cells, step, top = forms.shape[2], group * _CELL, -1.0
    at = np.zeros(cells + 2, bool)   # per cell, whether a row tile meets it; an off cell each end
    buf = np.empty((1 if len(terms) == 1 else 4, min(n, step) ** 2))
    first = np.array([lo for lo, _ in blocks])
    last = np.maximum((n - first - 2) // _SCREEN_TILE, 0)
    tiles = np.full((len(blocks), last[0] + 1), -np.inf)
    for r0, c0, est in pieces():
        top = max(top, high := est.max())
        # while the top is below the margin, so is every pair so far: below the final floor, or
        # every pair may tie
        if top < _SCREEN_MARGIN or high < top - _SCREEN_MARGIN:
            continue
        rows, cols = np.divmod(np.flatnonzero(est >= top - _SCREEN_MARGIN), est.shape[1])
        i, j = order[r0 + rows], order[c0 + cols]   # the pair, (i, j) or (j, i)
        k = np.minimum(np.minimum(i, j) // blocks[0][1], len(blocks) - 1)   # row_blocks'
        t = np.minimum((np.maximum(i, j) - first[k]) // _SCREEN_TILE, last[k])
        np.maximum.at(tiles, (k, t), est[rows, cols])
    # below twice the margin every pair may tie with the top: every tile is computed exactly
    return np.full(tiles.shape, top) if top < 2 * _SCREEN_MARGIN else tiles


def _pair_spans(n: int, rows: int, width: int):
    """(lo, hi, c0, c1) of each tile of a pair scan over n states: row blocks of rows, and
    the columns lo:n of each in tiles of width from the block edge, a lone last row or column
    joined to the one before it, as numpy multiplies a single one by another BLAS routine.
    Counted from the block edge, a tile's entries keep the bits of the full Gram's."""
    for lo, hi in row_blocks(n, rows):
        for c0, c1 in row_blocks(n - lo, width):
            yield lo, hi, lo + c0, lo + c1


def _real_rows(*rows):
    """The rows, None kept, as contiguous float copies if none has an imaginary part."""
    if any(v is not None and v.imag.any() for v in rows):
        return rows
    return tuple(v if v is None else np.ascontiguousarray(v.real) for v in rows)


def _gram_tile(xc: np.ndarray, y: np.ndarray, c0: int, c1: int, buf: np.ndarray) -> np.ndarray:
    """The Gram tile conj(x) y[c0:c1]^T of the rows xc = np.conjugate(x), formed once per row
    block, in the head of the flat buffer buf of the rows' dtype: every pair scan's product.
    Real rows keep the bits of zgemm's real parts, fma(x1, y1, x0 y0): xc is never x.conj(),
    x itself on float rows, whose x x^T goes to syrk; dgemm's unfused 4-column edge kernel
    (from about 200 columns) gets no last 4 to 7 columns; and one row is summed as zgemv does."""
    m, w = len(xc), c1 - c0
    out, cuts = buf[:m * w].reshape(m, w), ((0, w - w % 8, w) if w % 8 > 3 else (0, w))
    if m == 1 and xc.dtype == float:
        return np.add(xc[0, 0] * y[c0:c1, 0], xc[0, 1] * y[c0:c1, 1], out=out[0])[None]
    for a, b in zip(cuts, cuts[1:]):
        np.matmul(xc, y[c0 + a:c0 + b].T, out=out[:, a:b])
    return out


def _exact_tiles(n: int, squares, floor: float) -> list[tuple[int, int, int, int]]:
    """The tiles (lo, hi, c0, c1) that the exact pass computes: per row block of
    _WITNESS_BLOCK, each maximal run of adjacent estimate tiles whose squared gap,
    squares[block][tile], reaches floor, cut into pieces of at most _EXACT_TILE columns from
    its start.  Any other column holds neither the maximum nor a tie."""
    hits = [(np.asarray(tiles) >= floor).tolist() for tiles in squares]

    def screened(span):   # its row block, and whether its estimate tile reaches floor
        lo, hi, c0, _ = span
        return lo, hi, hits[lo // _WITNESS_BLOCK][(c0 - lo) // _SCREEN_TILE]

    out = []
    for (lo, hi, hit), run in groupby(_pair_spans(n, _WITNESS_BLOCK, _SCREEN_TILE), screened):
        if hit:
            run = list(run)
            r0, r1 = run[0][2], run[-1][3]
            out += [(lo, hi, r0 + c0, r0 + c1) for c0, c1 in row_blocks(r1 - r0, _EXACT_TILE)]
    return out


def _witness_tile(s, p, o1, terms, pos, buf, floor: float, lo: int, hi: int, c0: int, c1: int):
    """The first largest exact gap over j > i of rows lo:hi x columns c0:c1, as (gap, i, j).
    cnot computes only the cells whose estimate, from the terms' rows pos, reaches floor; a
    single-qubit target computes the whole tile, as its estimate would cost as much."""
    m, w = hi - lo, c1 - c0
    if o1 is not None:
        gap = _gram_tile(np.conjugate(s[lo:hi]), s, c0, c1, buf[0])
        gap -= _gram_tile(np.conjugate(o1[lo:hi]), o1, c0, c1, buf[1])
        block = _mask_lower(np.abs(gap, out=buf[1].view(float)[:m * w].reshape(m, w)), lo, c0)
    else:
        block = _tile_estimate(terms, buf[1:].view(float).reshape(4, -1), lo, hi, c0, c1, pos)
        rows, cols = np.divmod(np.flatnonzero(block >= floor), w)   # (i, j) order; j <= i reads -1
        vecs = {"s": s, "p": p}
        g = {k: _gram_tile(np.conjugate(vecs[k[0]][lo:hi]), vecs[k[1]], c0, c1, buf[0])[rows, cols]
             for k in ("ss", "sp", "ps", "pp")}   # one Gram tile at a time, kept cells only
        cells = np.zeros(rows.size)
        for a1, b1, a1o, b1o in _CNOT_RULES:
            for a2, b2, a2o, b2o in _CNOT_RULES:
                gap = g[a1 + a2] * g[b1 + b2]
                gap -= g[a1o + a2o] * g[b1o + b2o]
                np.maximum(cells, np.abs(gap), out=cells)
        block.fill(-1.0)
        block[rows, cols] = cells
    i, j = divmod(int(np.argmax(block)), w)
    return float(block[i, j]), lo + i, c0 + j


def witness_search(t: TargetTransform, n_samples: int, seed: int | None = 42,
                   family: str = "bloch") -> WitnessResult:
    """Scan all sampled pairs for the largest overlap discrepancy.

    For single-qubit targets the discrepancy of states s1, s2 is
    |<s1|s2> - <o1|o2>|, where o1 and o2 are their images under the
    first rule: a nonzero value certifies that no unitary produces the
    demanded images.  For the basis-flip target, whose per-basis
    realization is phase-exact, the largest such gap over all sixteen
    pairs of two-qubit rules is taken.

    Deterministic for a fixed seed; ties break to the first pair found in
    (i, j) order.  The scan is exhaustive, in row blocks to bound memory, but
    skips every column tile and cnot cell that a screen rules out: it orders
    the states into compact cells and computes the estimates of a pair of
    cells only where a bound from the cells' coordinate boxes reaches the top
    estimate.  No bit changes.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples to form a pair")
    if not t.side:
        raise ValueError(f"target kind {t.kind!r} has no overlap audit")
    family_set = state_family(family, n_samples, seed, sampled=True)
    s, n = family_set.state_vectors, n_samples
    # One estimate tile of rows meets every column in any order, and gains nothing from the
    # reduction either: its eigh, a process's first LAPACK call, would add about 1 MB to the
    # peak RSS of a witness run, and the order's sorts about 0.4 MB.
    wide = n > _SCREEN_TILE + 1
    order = _cell_order(np.hstack([s.real, s.imag])) if wide else np.arange(n)
    # The screen terms are built once, in the cell order, with no copy of the family beside
    # them; the exact pass takes the states back in the family's order, state i from row pos[i].
    s, p = s[order], family_set.partner_vectors[order]
    del family_set
    o1 = None if t.side == 4 else next(_rules(t, s, p))[1]
    terms, blocks = _screen_terms(s, p, o1, wide), list(row_blocks(n, _WITNESS_BLOCK))
    squares = _witness_screen(terms, order, blocks)
    floor = squares.max() - _SCREEN_MARGIN
    exact = _exact_tiles(n, squares, floor)
    # every exact tile reuses these: two Gram tiles, or for cnot one and the estimate's four
    size = max((hi - lo) * (c1 - c0) for lo, hi, c0, c1 in exact)
    buf, pos = np.empty((2 if o1 is not None else 3, size), complex), np.empty_like(order)
    pos[order] = np.arange(n)
    s = s[pos]   # one array at a time, so each ordered copy is freed as its successor is built
    p = p[pos]
    o1 = None if o1 is None else o1[pos]
    rows = _real_rows(s, p, o1)   # the pair is built from the complex rows s
    buf = buf.view(rows[0].dtype)
    best_v, best_i, best_j = -1.0, 0, 1
    for lo, hi, c0, c1 in exact:
        v, i, j = _witness_tile(*rows, terms, pos, buf, floor, lo, hi, c0, c1)
        if v > best_v or v == best_v and i < best_i:   # the first pair in (i, j) order
            best_v, best_i, best_j = v, i, j
    return WitnessResult(pair=(Qubit(*s[best_i]), Qubit(*s[best_j])),
                         violation=max(best_v, 0.0),
                         condition="pairwise-overlap-consistency")


def circle_identities(n: int) -> tuple[dict[str, float], dict[str, float]]:
    """circle-check's report on the n-point polar and equatorial grids: the largest residual
    of each circle's diagonal and own off-diagonal overlap identity, then of each circle's
    swapped off-diagonal pattern, which is expected to fail."""
    (pol_diag, pol_own, pol_cross), (eq_diag, eq_own, eq_cross) = (
        _circle_residuals(kind, n) for kind in ("polar", "equatorial"))
    return ({"polar-diagonal": pol_diag, "polar-offdiagonal": pol_own,
             "equatorial-diagonal": eq_diag, "equatorial-offdiagonal": eq_own},
            {"equatorial-pattern-on-polar": pol_cross, "polar-pattern-on-equatorial": eq_cross})


def _swap_bounds(kind: str, n: int):
    """A bound on each computed swapped-pattern residual by d = j - i, at d + n - 1, and a floor
    under their computed maximum.  The pattern is exactly 2|sin(pi d / 2n)| (polar)
    or 2|sin(pi d / n)| (equatorial); the slack, 1e-13, is ten times its worst error: with grid
    angles within 1.4e-15 and partners' (t + pi) % 2 pi within 2.7e-15, a component (modulus
    <= 1) is within 3e-15, a Gram entry (two products) 4e-15 and the pattern (two) 1e-14."""
    exact = 2.0 * np.abs(np.sin(np.pi / (2 * n if kind == "polar" else n) * np.arange(1 - n, n)))
    return exact + 1e-13, exact.max() - 1e-13


def _circle_residuals(kind: str, n: int) -> tuple[float, float, float]:
    """Max overlap-pattern residuals over the n x n parameter grid.

    Returns (diagonal residual, own-pattern off-diagonal residual,
    swapped-pattern off-diagonal residual).  The diagonal identity is
    shared; the off-diagonal sign is what distinguishes the circles.
    The polar grid's tiles are real, with the bits of the complex tiles' real
    parts (_gram_tile), whose moduli hypot(x, +-0) = |x| they keep.  On the
    equatorial grid plain squared moduli re^2 + im^2, within 3e-16 of the
    true ones relative (the entries are at most 2 in modulus), pick the
    entries within 1e-13 relative of the largest so far; np.abs, whose bits
    the maxima keep, runs only on those.  The swapped pattern is skipped on
    tiles whose bounds lie below the floor under its maximum.
    """
    family = state_family(kind, n)
    s, p = _real_rows(family.state_vectors, family.partner_vectors)
    peaks, tops = [0.0] * 3, [0.0] * 3   # diagonal, own and swapped; their top squared moduli

    def peak(k: int, op, a, b, spent) -> None:   # raise peaks[k] to the largest |op(a, b)|
        x = grams[4].view(float)[:spent.size].reshape(spent.shape)   # apart from every Gram tile
        if a.dtype == float:   # the polar grid's real tiles
            peaks[k] = max(peaks[k], float(np.abs(op(a, b, out=x), out=x).max()))
            return
        c = op(a, b, out=spent).view(float)
        squares = np.multiply(c, c, out=grams[1].view(float)[:c.size].reshape(c.shape))   # spent
        sq = np.add(squares[:, 0::2], squares[:, 1::2], out=x)
        if (top := sq.max()) >= near(tops[k]):
            tops[k] = max(tops[k], top)
            at = np.flatnonzero(sq >= near(tops[k]))
            peaks[k] = max(peaks[k], float(np.abs(spent.ravel()[at]).max()))

    def near(top: float) -> float:   # no entry whose squared modulus is below this is larger
        return top * (1.0 - 1e-13) if top > 1e-290 else 0.0   # far from subnormal rounding

    bound, floor = _swap_bounds(kind, n)
    own_op, swap_op = (np.add, np.subtract) if kind == "polar" else (np.subtract, np.add)
    grams = np.empty((5, 257 * min(_CIRCLE_TILE + 1, n)), s.dtype)   # lone rows, columns join
    # the columns lo: of each row block hold every pair, as |R_ij| = |R_ji|
    for lo, hi, c0, c1 in _pair_spans(n, 256, _CIRCLE_TILE):
        if c0 == lo:   # a row block's first tile: its rows are conjugated once
            sc, pc = np.conjugate(s[lo:hi]), np.conjugate(p[lo:hi])
        g00 = _gram_tile(sc, s, c0, c1, grams[0])
        peak(0, np.subtract, g00, _gram_tile(pc, p, c0, c1, grams[1]), g00)
        g01, g10 = _gram_tile(sc, p, c0, c1, grams[2]), _gram_tile(pc, s, c0, c1, grams[3])
        peak(1, own_op, g01, g10, g00)
        if bound[n + c0 - hi:n + c1 - lo - 1].max() >= floor:   # d from c0 - hi + 1
            peak(2, swap_op, g01, g10, g00)
    return peaks[0], peaks[1], peaks[2]


@record
class SurveyResult:
    """Outcome of scanning random candidate gates against a rule target."""

    n_candidates: int
    n_pass: int
    min_worst_violation: float
    tolerance: float
    seed: int | None


def survey_random_unitaries(t: TargetTransform, states: StateSet, n_candidates: int,
                            seed: int | None = 42) -> SurveyResult:
    """Try many Haar-distributed 2x2 unitaries against a two-rule target.

    Each candidate's worst violation over all states and both rules is
    computed; a candidate passes if that worst violation stays within
    _SURVEY_TOLERANCE.  The minimum worst-violation over all candidates
    quantifies how far even the best random gate remains from universality.
    """
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    if t.side != 2:
        raise ValueError(f"target kind {t.kind!r} is not a single-qubit gate target")
    s, p = states.state_vectors, states.partner_vectors
    # <o|U|x> = sum_ij conj(o_i) U_ij x_j, so a block's amplitudes are one (b, 4) x (4, 2n) product
    features = np.vstack([kron_rows(o.conj(), x) for x, o in _rules(t, s, p)]).T
    amp = np.empty((min(_SURVEY_BLOCK, n_candidates), features.shape[1]), dtype=complex)
    rng = np.random.default_rng(seed)
    n_pass, min_worst = 0, np.inf
    for done in range(0, n_candidates, _SURVEY_BLOCK):
        b = min(_SURVEY_BLOCK, n_candidates - done)
        np.matmul(haar_unitaries(b, rng=rng).reshape(b, 4), features, out=amp[:b])
        # squaring is monotone on x >= 0 under rounding too, so squaring the minimum has the
        # bits of the minimum of the squares
        m = np.abs(amp[:b]).min(axis=1)
        worst = 1.0 - m * m
        n_pass += int(np.count_nonzero(worst <= _SURVEY_TOLERANCE))
        min_worst = min(min_worst, float(worst.min()))
    return SurveyResult(n_candidates=n_candidates, n_pass=n_pass,
                        min_worst_violation=min_worst, tolerance=_SURVEY_TOLERANCE,
                        seed=seed)
