"""Machine extensions, impossibility audits, and witness search.

A candidate machine is pinned down by what it does to the two basis
inputs; the extension clause (linear, antilinear, or a weighted hybrid
of both) then determines its action on every superposition.  Comparing
that extended action with the ideal target for each input state, or
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
from ._shared import GATE_TARGETS, QUBIT_GATE_TARGETS
from .algebra import (
    ATOL_VERDICT,
    GeneralKMap,
    abs_squared,
    apply,
    complement_map,
    conjugation,
    haar_unitaries,
    inner_product,
    kron_rows,
    row_blocks,
    row_dots,
    row_norms,
    state_vector,
    tensor,
)
from .states import Qubit, StateSet, complement, state_family

_EXTENSIONS = ("linear", "antilinear", "hybrid")

_MACHINE_KIND = "clone-like"

# trivial one-dimensional ancilla factor
_SCALAR = np.ones(1, dtype=complex)
_BASIS = np.eye(2, dtype=complex)
_BASIS.setflags(write=False)

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


def _ancilla(value) -> np.ndarray:
    if value is None:
        return _SCALAR.copy()
    return state_vector(value)


@record(eq=False)
class MachineSpec:
    """A candidate machine, defined by its outputs on basis inputs.

    out0 and out1 are the full register outputs for inputs |0> and |1>
    (system, transformed copy, ancilla).  They must be normalized and
    mutually orthogonal: the machine is meant to be isometric, and an
    isometry maps orthogonal inputs to orthogonal outputs.

    The hybrid extension needs more than the two outputs: it is built
    from the unitary and antiunitary parts stored in kmap and from the
    per-branch ancilla states, so hybrid machines must carry a kmap.
    """

    out0: np.ndarray
    out1: np.ndarray
    extension: str = "linear"
    kmap: GeneralKMap | None = None
    ancilla0: np.ndarray | None = None
    ancilla1: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "out0", state_vector(self.out0))
        object.__setattr__(self, "out1", state_vector(self.out1))
        if self.out0.size != self.out1.size:
            raise ValueError("basis outputs live in different dimensions")
        if abs(inner_product(self.out0, self.out1)) > ATOL_VERDICT:
            raise ValueError("basis outputs are not orthogonal; the machine cannot be isometric")
        object.__setattr__(self, "ancilla0", _ancilla(self.ancilla0))
        object.__setattr__(self, "ancilla1", _ancilla(self.ancilla1))
        if self.ancilla0.size != self.ancilla1.size:
            raise ValueError("branch ancilla states live in different dimensions")
        if self.extension not in _EXTENSIONS:
            raise ValueError(f"unknown extension {self.extension!r}; expected one of {_EXTENSIONS}")
        if self.extension == "hybrid" and self.kmap is None:
            raise ValueError("hybrid machines need a kmap with the unitary and antiunitary parts")

    @property
    def ancilla_dim(self) -> int:
        return self.out0.size // 4


def cloning_machine(extension: str = "linear", ancilla0=None, ancilla1=None) -> MachineSpec:
    """Machine copying each basis state: |i> -> |i>|i>, ancilla tags free."""
    a0, a1 = _ancilla(ancilla0), _ancilla(ancilla1)
    e0, e1 = _BASIS
    return MachineSpec(out0=tensor(e0, e0, a0), out1=tensor(e1, e1, a1),
                       extension=extension, ancilla0=a0, ancilla1=a1)


def complementing_machine(extension: str = "antilinear", ancilla0=None, ancilla1=None) -> MachineSpec:
    """Machine attaching the orthogonal state: |0> -> |0>|1>, |1> -> -|1>|0>."""
    a0, a1 = _ancilla(ancilla0), _ancilla(ancilla1)
    e0, e1 = _BASIS
    f0 = complement(Qubit(1.0, 0.0)).vector
    f1 = complement(Qubit(0.0, 1.0)).vector
    return MachineSpec(out0=tensor(e0, f0, a0), out1=tensor(e1, f1, a1),
                       extension=extension, ancilla0=a0, ancilla1=a1)


def conjugating_machine(extension: str = "antilinear", ancilla0=None, ancilla1=None) -> MachineSpec:
    """Machine attaching the conjugate; on basis states it copies."""
    a0, a1 = _ancilla(ancilla0), _ancilla(ancilla1)
    e0, e1 = _BASIS
    return MachineSpec(out0=tensor(e0, e0.conj(), a0), out1=tensor(e1, e1.conj(), a1),
                       extension=extension, ancilla0=a0, ancilla1=a1)


def hybrid_machine(lam: float, ancilla0=None, ancilla1=None) -> MachineSpec:
    """Machine whose basis action is |i> -> |i> (x) K|i> (x) |Q_i|.

    K mixes the identity and the complement flip with weight lam; the two
    act orthogonally on each basis state, so the basis outputs stay
    normalized.
    """
    kmap = GeneralKMap(lam)
    a0, a1 = _ancilla(ancilla0), _ancilla(ancilla1)
    e0, e1 = _BASIS
    return MachineSpec(out0=tensor(e0, kmap(e0), a0), out1=tensor(e1, kmap(e1), a1),
                       extension="hybrid", kmap=kmap, ancilla0=a0, ancilla1=a1)


def _output_map(m: MachineSpec):
    """The machine's action on each row of an (n, 2) array under its declared extension; a
    hybrid machine's branch vectors are built here, once for every block of rows."""
    if m.extension == "linear":
        return lambda s: s[:, :1] * m.out0 + s[:, 1:] * m.out1
    if m.extension == "antilinear":
        return lambda s: np.conj(s[:, :1]) * m.out0 + np.conj(s[:, 1:]) * m.out1
    cu, ca = np.sqrt(m.kmap.lam), np.sqrt(1.0 - m.kmap.lam)
    terms = []   # (basis index, weight, conjugated amplitude, branch vector), in summation order
    for i, e, anc in ((0, _BASIS[0], m.ancilla0), (1, _BASIS[1], m.ancilla1)):
        if cu > 0.0:
            terms.append((i, cu, False, tensor(e, m.kmap.unitary @ e, anc)))
        if ca > 0.0:
            terms.append((i, ca, True, tensor(e, m.kmap.antiunitary(e), anc)))

    def outputs(s: np.ndarray) -> np.ndarray:
        out = np.zeros((len(s), m.out0.size), dtype=complex)
        for i, weight, conj, branch in terms:
            amp = s[:, i:i + 1]
            out = out + weight * (np.conj(amp) if conj else amp) * branch
        return out
    return outputs


def machine_output(m: MachineSpec, q: Qubit) -> np.ndarray:
    """The machine's action on q under its declared extension.

    linear gives alpha*out0 + beta*out1, antilinear conj(alpha)*out0 +
    conj(beta)*out1.  hybrid adds, for each basis branch i,
    sqrt(lam)*amp_i |i> (x) U|i> (x) |Q_i> and
    sqrt(1-lam)*conj(amp_i) |i> (x) A|i> (x) |Q_i>.
    """
    return _output_map(m)(q.vector[np.newaxis])[0]


def _unit_weights(a, b) -> tuple[complex, complex]:
    a, b = complex(a), complex(b)
    norm = a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag   # inf, no raise
    if not (cmath.isfinite(a) and cmath.isfinite(b)) or abs(norm - 1.0) > 1e-12:
        raise ValueError("unequal weights must be finite and satisfy |a|^2 + |b|^2 = 1")
    return a, b


@record(eq=False)
class TargetTransform:
    """What the machine or gate is demanded to do for every input state.

    clone-like targets carry a K map and describe the two-register
    output |psi> (x) K|psi|;
    gate targets (hadamard9, hadamard10, unequal, cnot) are defined by
    per-state rules over (state, partner) pairs.
    """

    kind: str
    kmap: GeneralKMap | None = None
    a: complex | None = None
    b: complex | None = None

    def __post_init__(self):
        if self.kind != _MACHINE_KIND and self.kind not in GATE_TARGETS:
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.kind == _MACHINE_KIND and self.kmap is None:
            raise ValueError("clone-like targets need a kmap")
        if self.kind == "unequal":
            if self.a is None or self.b is None:
                raise ValueError("unequal targets need weights a and b")
            a, b = _unit_weights(self.a, self.b)
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)


def target_clone() -> TargetTransform:
    return TargetTransform(_MACHINE_KIND, kmap=GeneralKMap(1.0))


def target_complement() -> TargetTransform:
    return TargetTransform(_MACHINE_KIND, kmap=GeneralKMap(0.0, antiunitary=complement_map()))


def target_conjugate() -> TargetTransform:
    return TargetTransform(_MACHINE_KIND, kmap=GeneralKMap(0.0, antiunitary=conjugation()))


def target_hybrid(lam: float) -> TargetTransform:
    """Weighted copy-and-complement target: psi -> psi (x) K psi."""
    return TargetTransform(_MACHINE_KIND, kmap=GeneralKMap(lam))


def target_hadamard9() -> TargetTransform:
    """psi -> (psi + partner)/sqrt2, partner -> (psi - partner)/sqrt2."""
    return TargetTransform("hadamard9")


def target_hadamard10() -> TargetTransform:
    """psi -> (psi + i partner)/sqrt2, partner -> (i psi + partner)/sqrt2."""
    return TargetTransform("hadamard10")


def target_unequal(a, b) -> TargetTransform:
    """psi -> a psi + b partner, partner -> b psi - a partner."""
    return TargetTransform("unequal", a=a, b=b)


def target_cnot() -> TargetTransform:
    """Flip the target qubit in the control state's own basis."""
    return TargetTransform("cnot")


def _rules(t: TargetTransform, s: np.ndarray, p: np.ndarray):
    """(inputs, required outputs) of each per-state rule of a gate target, as rows for the
    states s and partners p; a single-qubit rule is built when asked for."""
    r, kind = 1.0 / np.sqrt(2.0), t.kind
    if kind in QUBIT_GATE_TARGETS:
        yield s, r * (s + p) if kind == "hadamard9" else (
            r * (s + 1j * p) if kind == "hadamard10" else t.a * s + t.b * p)
        yield p, r * (s - p) if kind == "hadamard9" else (
            r * (1j * s + p) if kind == "hadamard10" else t.b * s - t.a * p)
    elif kind == "cnot":   # kron(control, target) for s and p, with the bits of kron_rows
        rep = {"s": s.repeat(2, axis=1), "p": p.repeat(2, axis=1)}   # c0 c0 c1 c1
        tile = {"s": np.hstack([s, s]), "p": np.hstack([p, p])}      # x0 x1 x0 x1
        k = {c + x: rep[c] * tile[x] for c in "sp" for x in "sp"}
        for c, x, co, xo in _CNOT_RULES:
            yield k[c + x], k[co + xo]
    else:
        raise ValueError(f"target kind {kind!r} has no per-state rules")


def named_target(name: str, a=None, b=None, lam=None) -> TargetTransform:
    """The target called name in the CLI and the DSL; unequal takes a and b, hybrid lam."""
    if name == "unequal":
        return target_unequal(a, b)
    if name == "hybrid":
        return target_hybrid(lam)
    return {"clone": target_clone, "complement": target_complement,
            "conjugate": target_conjugate, "hadamard9": target_hadamard9,
            "hadamard10": target_hadamard10, "cnot": target_cnot}[name]()


def _system_ideals(t: TargetTransform, s: np.ndarray) -> np.ndarray:
    """|psi> (x) K|psi> normalized, for each row psi of s."""
    second = t.kmap(s)
    norm = row_norms(second)
    if np.any(norm < 1e-12):
        raise ValueError("ideal output vanishes: the unitary and antiunitary branches cancel")
    return kron_rows(s, second / norm[:, np.newaxis])


def machine_deviations(m: MachineSpec, t: TargetTransform, states: StateSet,
                       mode: str = "fixed") -> np.ndarray:
    """1 - |<ideal|actual>|^2 between the target and the extended machine.

    One value per state.  In "fixed" mode the ideal's final ancilla is the
    machine's |Q_0>.  In "best" mode the overlap is maximized over all final
    ancilla states, which isolates the principal-system mismatch.  Every
    state runs the exact kernel, in blocks of _STATE_BLOCK; the DSL's
    worst-state check takes the same values from _worst_deviation, which
    runs that kernel only on the states that can hold the maximum.
    """
    s, outputs, anc = _deviation_inputs(m, t, states, mode)
    deviations = np.empty(len(s))
    for lo, hi in row_blocks(len(s), _STATE_BLOCK):
        deviations[lo:hi] = _deviations(outputs, t, s[lo:hi], anc)
    return deviations


def _deviation_inputs(m: MachineSpec, t: TargetTransform, states, mode: str):
    """machine_deviations' arguments checked, as the state rows, the machine's output map and
    the ideal's final ancilla, None in "best" mode."""
    if mode not in ("fixed", "best"):
        raise ValueError(f"unknown mode {mode!r}; expected 'fixed' or 'best'")
    if t.kind != _MACHINE_KIND:
        raise ValueError(f"target kind {t.kind!r} is a gate target; use check_universal_gate")
    s = states.state_vectors
    if mode == "fixed" and m.ancilla0.size != m.ancilla_dim:
        raise ValueError(f"final ancilla dimension {m.ancilla0.size} does not match "
                         f"the machine's ancilla dimension {m.ancilla_dim}")
    return s, _output_map(m), None if mode == "best" else m.ancilla0


def _worst_deviation(m: MachineSpec, t: TargetTransform, states) -> tuple[float, int]:
    """The largest "fixed" machine_deviations value, with its bits, and its first index; the
    exact kernel runs only on the states _screened_max keeps."""
    s, outputs, anc = _deviation_inputs(m, t, states, "fixed")
    maps = _semilinear(outputs), _semilinear(t.kmap)
    return _screened_max(len(s), lambda lo, hi: _deviation_estimate(maps, s[lo:hi], anc),
                         lambda rows: _deviations(outputs, t, s[rows], anc))


def _semilinear(f) -> tuple[np.ndarray, np.ndarray]:
    """(L, A) with f(v) = v @ L + conj(v) @ A for every stack of rows v, f a sum of a linear
    and an antilinear map, read off f's images of the basis and of i times it."""
    images = f(np.array([[1, 0], [0, 1], [1j, 0], [0, 1j]]))
    return (images[:2] - 1j * images[2:]) / 2.0, (images[:2] + 1j * images[2:]) / 2.0


def _deviations(outputs, t: TargetTransform, s: np.ndarray, anc) -> np.ndarray:
    """machine_deviations of the rows of s, the machine's outputs on them given by outputs,
    in "best" mode when anc is None."""
    actual = outputs(s)
    norm = row_norms(actual)
    if np.any(norm < 1e-12):
        raise ValueError("machine output vanishes for this state")
    actual = actual / norm[:, np.newaxis]
    sys_ideal = _system_ideals(t, s)
    d = actual.shape[1] // 4
    if anc is None:
        residue = np.matmul(sys_ideal.conj()[:, np.newaxis, :], actual.reshape(-1, 4, d))
        overlap_sq = abs_squared(row_norms(residue[:, 0]))
    else:
        ideal = kron_rows(sys_ideal, np.broadcast_to(anc, (len(s), d)))
        overlap_sq = abs_squared(row_dots(ideal.conj(), actual))
    return np.clip(1.0 - overlap_sq, 0.0, 1.0)


def _deviation_estimate(maps, s: np.ndarray, anc) -> np.ndarray:
    """_deviations of the rows of s in "fixed" mode to 4e-14, in plain arithmetic; NaN where
    that is not proven, which includes every row whose output or ideal vanishes.  maps holds
    _semilinear of the machine's outputs and of the target's K.

    Both compute 1 - |<s (x) K s (x) anc|a>|^2 / |K s|^2 |a|^2, but each path forms the
    outputs a and K s its own way.  Each is within 1.1e-15 of the true one (|s| <= 1 + 1e-12,
    unit branch vectors, weights whose squares sum to 1), so where |a| and |K s| are at
    least 0.9 the two directions of each lie within 5e-15 and the squared overlaps within
    2e-14.  The dots, norms and quotient of each path round to 8.5e-15 (16 terms at most),
    and clipping to [0, 1] moves two values no further apart: 3.7e-14 in all."""
    sc = s.conj()
    actual, k = (s @ lin + sc @ anti for lin, anti in maps)
    a2, k2 = (np.einsum("ij,ij->i", x, x) for x in (actual.view(float), k.view(float)))
    ideal = sc[:, [0, 0, 1, 1]] * k.conj()[:, [0, 1, 0, 1]]   # conj(s (x) K s)
    dot = np.einsum("ij,ij->i", ideal, actual.reshape(len(s), 4, -1) @ anc.conj())
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
    actual = apply(candidate, ins)
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
    if t.kind not in GATE_TARGETS:
        raise ValueError(f"target kind {t.kind!r} is not a gate target")
    size = 4 if t.kind == "cnot" else 2
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


def _exact_tiles(width: int, tiles: list[float], floor: float) -> list[tuple[int, int]]:
    """The column tiles of a row block, from its first row, that the exact pass computes:
    each maximal run of adjacent estimate tiles whose squared gap reaches floor, cut into
    pieces of at most _EXACT_TILE columns from its start.  Any other column holds neither
    the maximum nor a tie."""
    out = []
    screened = zip(row_blocks(width, _SCREEN_TILE), tiles)
    for hit, run in groupby(screened, key=lambda tile: tile[1] >= floor):
        if hit:
            edges = [edge for edge, _ in run]
            r0, r1 = edges[0][0], edges[-1][1]
            out += [(r0 + c0, r0 + c1) for c0, c1 in row_blocks(r1 - r0, _EXACT_TILE)]
    return out


def _witness_tile(s, p, o1, terms, pos, buf, floor: float, lo: int, hi: int, c0: int, c1: int):
    """The first largest exact gap over j > i of rows lo:hi x columns c0:c1, as (gap, i, j).
    cnot computes only the cells whose estimate, from the terms' rows pos, reaches floor; a
    single-qubit target computes the whole tile, as its estimate would cost as much."""
    m, w = hi - lo, c1 - c0
    if o1 is not None:
        gap = np.matmul(s[lo:hi].conj(), s[c0:c1].T, out=buf[0, :m * w].reshape(m, w))
        gap -= np.matmul(o1[lo:hi].conj(), o1[c0:c1].T, out=buf[1, :m * w].reshape(m, w))
        block = _mask_lower(np.abs(gap, out=buf[1].view(float)[:m * w].reshape(m, w)), lo, c0)
    else:
        block = _tile_estimate(terms, buf[1:].view(float).reshape(4, -1), lo, hi, c0, c1, pos)
        rows, cols = np.divmod(np.flatnonzero(block >= floor), w)   # (i, j) order; j <= i reads -1
        vecs, tile = {"s": s, "p": p}, buf[0, :m * w].reshape(m, w)
        g = {k: np.matmul(vecs[k[0]][lo:hi].conj(), vecs[k[1]][c0:c1].T, out=tile)[rows, cols]
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
    if t.kind not in GATE_TARGETS:
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
    o1 = None if t.kind == "cnot" else next(_rules(t, s, p))[1]
    terms, blocks = _screen_terms(s, p, o1, wide), list(row_blocks(n, _WITNESS_BLOCK))
    squares = _witness_screen(terms, order, blocks)
    floor = squares.max() - _SCREEN_MARGIN
    exact = [(lo, hi, lo + c0, lo + c1) for (lo, hi), tiles in zip(blocks, squares)
             for c0, c1 in _exact_tiles(n - lo, tiles, floor)]
    # every exact tile reuses these: two Gram tiles, or for cnot one and the estimate's four
    size = max((hi - lo) * (c1 - c0) for lo, hi, c0, c1 in exact)
    buf, pos = np.empty((2 if o1 is not None else 3, size), complex), np.empty_like(order)
    pos[order] = np.arange(n)
    s = s[pos]   # one array at a time, so each ordered copy is freed as its successor is built
    p = p[pos]
    o1 = None if o1 is None else o1[pos]
    best_v, best_i, best_j = -1.0, 0, 1
    for lo, hi, c0, c1 in exact:
        v, i, j = _witness_tile(s, p, o1, terms, pos, buf, floor, lo, hi, c0, c1)
        if v > best_v or v == best_v and i < best_i:   # the first pair in (i, j) order
            best_v, best_i, best_j = v, i, j
    return WitnessResult(pair=(Qubit(*s[best_i]), Qubit(*s[best_j])),
                         violation=max(best_v, 0.0),
                         condition="pairwise-overlap-consistency")


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
    if t.kind not in QUBIT_GATE_TARGETS:
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
