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
from dataclasses import dataclass

import numpy as np

from .algebra import (
    ATOL_VERDICT,
    GeneralKMap,
    abs_squared,
    apply,
    complement_map,
    conjugation,
    haar_unitaries,
    inner_product,
    row_blocks,
    row_dots,
    row_norms,
    state_vector,
    tensor,
)
from .states import Qubit, StateSet, complement, listed_set, polar_pair, state_family

_EXTENSIONS = ("linear", "antilinear", "hybrid")

_MACHINE_KIND = "clone-like"
_QUBIT_GATE_KINDS = ("hadamard9", "hadamard10", "unequal")
_GATE_KINDS = _QUBIT_GATE_KINDS + ("cnot",)

# trivial one-dimensional ancilla factor
_SCALAR = np.ones(1, dtype=complex)
_BASIS = np.eye(2, dtype=complex)
_BASIS.setflags(write=False)


def _ancilla(value) -> np.ndarray:
    if value is None:
        return _SCALAR.copy()
    return state_vector(value)


@dataclass(frozen=True, eq=False)
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
    blank: np.ndarray | None = None
    ancilla_init: np.ndarray | None = None
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
        blank = self.blank if self.blank is not None else np.array([1.0, 0.0], dtype=complex)
        object.__setattr__(self, "blank", state_vector(blank))
        if self.blank.size != 2:
            raise ValueError("the blank register is a single qubit")
        object.__setattr__(self, "ancilla_init", _ancilla(self.ancilla_init))
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


def hybrid_machine(lam: float, unitary=None, antiunitary=None,
                   ancilla0=None, ancilla1=None) -> MachineSpec:
    """Machine whose basis action is |i> -> |i> (x) K|i> (x) |Q_i|.

    K mixes the unitary and antiunitary parts with weight lam.  The
    parts must act orthogonally on each basis state (the defaults,
    identity and the complement flip, do) so the basis outputs stay
    normalized.
    """
    kmap = GeneralKMap(lam, unitary, antiunitary)
    a0, a1 = _ancilla(ancilla0), _ancilla(ancilla1)
    e0, e1 = _BASIS
    k0, k1 = kmap(e0), kmap(e1)
    if abs(np.linalg.norm(k0) - 1.0) > ATOL_VERDICT or abs(np.linalg.norm(k1) - 1.0) > ATOL_VERDICT:
        raise ValueError("the chosen unitary/antiunitary parts do not act orthogonally "
                         "on basis states, so the hybrid basis outputs are not normalized")
    return MachineSpec(out0=tensor(e0, k0, a0), out1=tensor(e1, k1, a1),
                       extension="hybrid", kmap=kmap, ancilla0=a0, ancilla1=a1)


def _outputs(m: MachineSpec, s: np.ndarray) -> np.ndarray:
    """The machine's action on each row of s under its declared extension."""
    if m.extension == "linear":
        return s[:, :1] * m.out0 + s[:, 1:] * m.out1
    if m.extension == "antilinear":
        return np.conj(s[:, :1]) * m.out0 + np.conj(s[:, 1:]) * m.out1
    cu, ca = np.sqrt(m.kmap.lam), np.sqrt(1.0 - m.kmap.lam)
    out = np.zeros((len(s), m.out0.size), dtype=complex)
    for amp, e, anc in ((s[:, :1], _BASIS[0], m.ancilla0), (s[:, 1:], _BASIS[1], m.ancilla1)):
        if cu > 0.0:
            out = out + cu * amp * tensor(e, m.kmap.unitary @ e, anc)
        if ca > 0.0:
            out = out + ca * np.conj(amp) * tensor(e, m.kmap.antiunitary(e), anc)
    return out


def machine_output(m: MachineSpec, q: Qubit) -> np.ndarray:
    """The machine's action on q under its declared extension.

    linear gives alpha*out0 + beta*out1, antilinear conj(alpha)*out0 +
    conj(beta)*out1.  hybrid adds, for each basis branch i,
    sqrt(lam)*amp_i |i> (x) U|i> (x) |Q_i> and
    sqrt(1-lam)*conj(amp_i) |i> (x) A|i> (x) |Q_i>.
    """
    return _outputs(m, q.vector[np.newaxis])[0]


def _unit_weights(a, b) -> tuple[complex, complex]:
    a, b = complex(a), complex(b)
    if not (cmath.isfinite(a) and cmath.isfinite(b)) or abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-12:
        raise ValueError("unequal weights must be finite and satisfy |a|^2 + |b|^2 = 1")
    return a, b


@dataclass(frozen=True, eq=False)
class TargetTransform:
    """What the machine or gate is demanded to do for every input state.

    clone-like targets carry a K map and describe the two-register
    output |psi> (x) K|psi| (with an optional fixed final ancilla);
    gate targets (hadamard9, hadamard10, unequal, cnot) are defined by
    per-state rules over (state, partner) pairs.
    """

    kind: str
    kmap: GeneralKMap | None = None
    a: complex | None = None
    b: complex | None = None
    ancilla_final: np.ndarray | None = None

    def __post_init__(self):
        if self.kind != _MACHINE_KIND and self.kind not in _GATE_KINDS:
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.kind == _MACHINE_KIND and self.kmap is None:
            raise ValueError("clone-like targets need a kmap")
        if self.kind == "unequal":
            if self.a is None or self.b is None:
                raise ValueError("unequal targets need weights a and b")
            a, b = _unit_weights(self.a, self.b)
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
        if self.ancilla_final is not None:
            object.__setattr__(self, "ancilla_final", state_vector(self.ancilla_final))


def target_clone(ancilla_final=None) -> TargetTransform:
    return TargetTransform(_MACHINE_KIND, kmap=GeneralKMap(1.0), ancilla_final=ancilla_final)


def target_complement(ancilla_final=None) -> TargetTransform:
    return TargetTransform(_MACHINE_KIND, kmap=GeneralKMap(0.0, antiunitary=complement_map()),
                           ancilla_final=ancilla_final)


def target_conjugate(ancilla_final=None) -> TargetTransform:
    return TargetTransform(_MACHINE_KIND, kmap=GeneralKMap(0.0, antiunitary=conjugation(2)),
                           ancilla_final=ancilla_final)


def target_hybrid(lam: float, ancilla_final=None) -> TargetTransform:
    """Weighted copy-and-complement target: psi -> psi (x) K psi."""
    return TargetTransform(_MACHINE_KIND, kmap=GeneralKMap(lam), ancilla_final=ancilla_final)


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


def _kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of each row of a with the same row of b."""
    return (a[:, :, np.newaxis] * b[:, np.newaxis, :]).reshape(len(a), -1)


def _rule_table(t: TargetTransform, s: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (inputs, required outputs) of a gate target, each (rules, n, dim)."""
    r = 1.0 / np.sqrt(2.0)
    if t.kind == "hadamard9":
        ins, outs = (s, p), (r * (s + p), r * (s - p))
    elif t.kind == "hadamard10":
        ins, outs = (s, p), (r * (s + 1j * p), r * (1j * s + p))
    elif t.kind == "unequal":
        ins, outs = (s, p), (t.a * s + t.b * p, t.b * s - t.a * p)
    elif t.kind == "cnot":
        ss, sp, ps, pp = (_kron_rows(a, b) for a, b in ((s, s), (s, p), (p, s), (p, p)))
        ins, outs = (ss, sp, ps, pp), (ss, sp, pp, ps)
    else:
        raise ValueError(f"target kind {t.kind!r} has no per-state rules")
    return np.stack(ins), np.stack(outs)


def named_target(name: str, a=None, b=None, lam=None) -> TargetTransform:
    """The target called name in the CLI and the DSL; unequal takes a and b, hybrid lam."""
    if name == "unequal":
        return target_unequal(a, b)
    if name == "hybrid":
        return target_hybrid(lam)
    return {"clone": target_clone, "complement": target_complement,
            "conjugate": target_conjugate, "hadamard9": target_hadamard9,
            "hadamard10": target_hadamard10, "cnot": target_cnot}[name]()


def target_rules(t: TargetTransform, pair: tuple[Qubit, Qubit]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(input, required output) rule list for a gate target on one pair."""
    ins, outs = _rule_table(t, pair[0].vector[np.newaxis], pair[1].vector[np.newaxis])
    return list(zip(ins[:, 0], outs[:, 0]))


def _system_ideals(t: TargetTransform, s: np.ndarray) -> np.ndarray:
    """|psi> (x) K|psi> normalized, for each row psi of s."""
    second = t.kmap(s)
    norm = row_norms(second)
    if np.any(norm < 1e-12):
        raise ValueError("ideal output vanishes: the unitary and antiunitary branches cancel")
    return _kron_rows(s, second / norm[:, np.newaxis])


def machine_deviations(m: MachineSpec, t: TargetTransform, states,
                       mode: str = "fixed") -> np.ndarray:
    """1 - |<ideal|actual>|^2 between the target and the extended machine.

    One value per state; states is a StateSet or a list of Qubits.  In
    "fixed" mode the ideal's final ancilla is the target's (or the
    machine's |Q_0> when the target leaves it free).  In "best" mode the
    overlap is maximized over all final ancilla states, which isolates
    the principal-system mismatch.
    """
    if mode not in ("fixed", "best"):
        raise ValueError(f"unknown mode {mode!r}; expected 'fixed' or 'best'")
    if t.kind != _MACHINE_KIND:
        raise ValueError(f"target kind {t.kind!r} is a gate target; use target_rules")
    s = _as_set(states).state_vectors
    actual = _outputs(m, s)
    norm = row_norms(actual)
    if np.any(norm < 1e-12):
        raise ValueError("machine output vanishes for this state")
    actual = actual / norm[:, np.newaxis]
    sys_ideal = _system_ideals(t, s)
    d = m.ancilla_dim
    if mode == "best":
        residue = np.matmul(sys_ideal.conj()[:, np.newaxis, :], actual.reshape(-1, 4, d))
        overlap_sq = abs_squared(row_norms(residue[:, 0]))
    else:
        anc = t.ancilla_final if t.ancilla_final is not None else m.ancilla0
        if anc.size != d:
            raise ValueError(f"final ancilla dimension {anc.size} does not match "
                             f"the machine's ancilla dimension {d}")
        ideal = _kron_rows(sys_ideal, np.broadcast_to(anc, (len(s), d)))
        overlap_sq = abs_squared(row_dots(ideal.conj(), actual))
    return np.clip(1.0 - overlap_sq, 0.0, 1.0)


def machine_deviation(m: MachineSpec, t: TargetTransform, q: Qubit, mode: str = "fixed") -> float:
    """machine_deviations for the single state q."""
    return float(machine_deviations(m, t, [q], mode)[0])


def audit_unequal(a, b, theta_pair: tuple[float, float]) -> float:
    """|(conj(a) b - a conj(b)) <psi(theta1)|partner(theta2)>| on the polar circle.

    This is the residual by which the unequal-weight rules fail to
    preserve overlaps; it vanishes exactly when a and b are real.
    """
    a, b = _unit_weights(a, b)
    s1, _ = polar_pair(theta_pair[0])
    _, p2 = polar_pair(theta_pair[1])
    term = (np.conj(a) * b - a * np.conj(b)) * s1.overlap(p2)
    return float(abs(term))


@dataclass(frozen=True, eq=False)
class Verdict:
    """Outcome of a realizability check.

    realizable means every demanded behaviour was matched within
    tolerance (and realizing_operator, when not None, does the job);
    otherwise witness holds the offending state and its partner, and
    violation the worst phase-invariant mismatch.
    """

    realizable: bool
    violation: float
    tolerance: float
    condition: str
    witness: tuple[Qubit, Qubit] | None = None
    realizing_operator: np.ndarray | None = None
    detail: str = ""

    def __post_init__(self):
        if self.realizable and self.violation > self.tolerance:
            raise ValueError("realizable verdicts cannot exceed tolerance")
        if not self.realizable and self.witness is None:
            raise ValueError("impossible verdicts must carry a witness")

    @property
    def status(self) -> str:
        return "REALIZABLE" if self.realizable else "IMPOSSIBLE"


def _as_set(states) -> StateSet:
    """A StateSet as it is, or a list of Qubits paired with their complements."""
    return states if isinstance(states, StateSet) else listed_set(states)


def _rule_violation(candidate: np.ndarray, ins: np.ndarray, outs: np.ndarray) -> np.ndarray:
    """Worst phase-invariant rule mismatch of each state; 1 where a vector vanishes."""
    actual = apply(candidate, ins)
    na, no = row_norms(actual), row_norms(outs)
    with np.errstate(divide="ignore", invalid="ignore"):
        overlap_sq = abs_squared(row_dots(outs.conj(), actual)) / (na * na * no * no)
    v = np.clip(1.0 - overlap_sq, 0.0, 1.0)
    v[(na < 1e-12) | (no < 1e-12)] = 1.0
    return v.max(axis=0)


def _check_rules(candidate, t: TargetTransform, states, tol: float) -> Verdict:
    candidate = np.asarray(candidate, dtype=complex)
    family = _as_set(states)
    v = _rule_violation(candidate, *_rule_table(t, family.state_vectors, family.partner_vectors))
    i = int(np.argmax(v))
    worst = float(v[i])
    ok = worst <= tol
    return Verdict(realizable=ok, violation=worst, tolerance=tol,
                   condition=f"{t.kind}-rules",
                   witness=None if ok else family.pair(i),
                   realizing_operator=candidate if ok else None,
                   detail=f"checked {len(family)} state pairs")


def check_universal_gate(candidate, t: TargetTransform, states,
                         tol: float = ATOL_VERDICT) -> Verdict:
    """Does one fixed 2x2 operator satisfy the target's rules on every state?

    states may be a StateSet (whose own pairing convention is used) or a
    plain list of Qubits (canonical complements).  The verdict's witness
    is the worst-violating (state, partner) pair, the first one on ties.
    """
    if np.shape(candidate) != (2, 2):
        raise ValueError(f"gate candidates are 2x2, got {np.shape(candidate)}")
    if t.kind not in _QUBIT_GATE_KINDS:
        raise ValueError(f"target kind {t.kind!r} is not a single-qubit gate target")
    return _check_rules(candidate, t, states, tol)


def check_cnot_universal(candidate, states, tol: float = ATOL_VERDICT) -> Verdict:
    """Does one fixed 4x4 operator satisfy all four basis-flip rules per state?"""
    if np.shape(candidate) != (4, 4):
        raise ValueError(f"two-qubit candidates are 4x4, got {np.shape(candidate)}")
    return _check_rules(candidate, target_cnot(), states, tol)


@dataclass(frozen=True, eq=False)
class WitnessResult:
    """Worst pair found by witness_search."""

    pair: tuple[Qubit, Qubit]
    violation: float
    condition: str


def witness_search(t: TargetTransform, n_samples: int, seed: int | None = 42,
                   family: str = "bloch", chunk: int = 256) -> WitnessResult:
    """Scan all sampled pairs for the largest overlap discrepancy.

    For single-qubit targets the discrepancy of states s1, s2 is
    |<s1|s2> - <o1|o2>|, where o1 and o2 are their images under the
    first rule: a nonzero value certifies that no unitary produces the
    demanded images.  For the basis-flip target, whose per-basis
    realization is phase-exact, the largest such gap over all sixteen
    pairs of two-qubit rules is taken.

    Deterministic for a fixed seed; ties break to the first pair found
    in (i, j) index order.  The scan is exhaustive over the sample, done
    in row blocks so even 10^4 states stay within modest memory.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples to form a pair")
    if t.kind not in _GATE_KINDS:
        raise ValueError(f"target kind {t.kind!r} has no overlap audit")
    family_set = state_family(family, n_samples, seed, sampled=True)
    s, p = family_set.state_vectors, family_set.partner_vectors
    n = n_samples
    if t.kind == "cnot":
        # rule table: (control, target) -> (control, new target)
        rules = [("s", "s", "s", "s"), ("s", "p", "s", "p"),
                 ("p", "s", "p", "p"), ("p", "p", "p", "s")]
    else:
        o1 = _rule_table(t, s, p)[1][0]
    best_v, best_i, best_j = -1.0, 0, 1
    vecs = {"s": s, "p": p}
    for lo, hi in row_blocks(n, chunk):
        # Only columns j >= lo can hold a pair j > i.  Cutting at the block
        # edge keeps BLAS's column alignment, so every Gram entry has the
        # bits it has in the full product.
        if t.kind == "cnot":
            g = {key: vecs[key[0]][lo:hi].conj() @ vecs[key[1]][lo:].T
                 for key in ("ss", "sp", "ps", "pp")}
            block = np.zeros((hi - lo, n - lo))
            for c1, t1, c1o, t1o in rules:
                for c2, t2, c2o, t2o in rules:
                    gin = g[c1 + c2] * g[t1 + t2]
                    gout = g[c1o + c2o] * g[t1o + t2o]
                    np.maximum(block, np.abs(gin - gout), out=block)
        else:
            gin = s[lo:hi].conj() @ s[lo:].T
            gout = o1[lo:hi].conj() @ o1[lo:].T
            block = np.abs(gin - gout)
        block[np.tril_indices(hi - lo, 0, n - lo)] = -1.0
        i_local, j = divmod(int(np.argmax(block)), n - lo)
        v = float(block[i_local, j])
        if v > best_v:
            best_v, best_i, best_j = v, lo + i_local, lo + j
    return WitnessResult(pair=(family_set.pair(best_i)[0], family_set.pair(best_j)[0]),
                         violation=max(best_v, 0.0),
                         condition="pairwise-overlap-consistency")


@dataclass(frozen=True)
class SurveyResult:
    """Outcome of scanning random candidate gates against a rule target."""

    n_candidates: int
    n_pass: int
    min_worst_violation: float
    tolerance: float
    seed: int | None


def survey_random_unitaries(t: TargetTransform, states, n_candidates: int,
                            tol: float = 1e-3, seed: int | None = 42,
                            chunk: int = 1024) -> SurveyResult:
    """Try many Haar-distributed 2x2 unitaries against a two-rule target.

    Each candidate's worst violation over all states and both rules is
    computed; a candidate passes if that worst violation stays within
    tol.  The minimum worst-violation over all candidates quantifies how
    far even the best random gate remains from universality.
    """
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    if t.kind not in _QUBIT_GATE_KINDS:
        raise ValueError(f"target kind {t.kind!r} is not a single-qubit gate target")
    family = _as_set(states)
    s, p = family.state_vectors, family.partner_vectors
    o1, o2 = _rule_table(t, s, p)[1]
    rng = np.random.default_rng(seed)
    n_pass = 0
    min_worst = np.inf
    done = 0
    while done < n_candidates:
        b = min(chunk, n_candidates - done)
        u = haar_unitaries(b, rng=rng)
        act_s = np.einsum("bij,nj->bni", u, s)
        act_p = np.einsum("bij,nj->bni", u, p)
        v1 = 1.0 - np.abs(np.einsum("ni,bni->bn", o1.conj(), act_s)) ** 2
        v2 = 1.0 - np.abs(np.einsum("ni,bni->bn", o2.conj(), act_p)) ** 2
        worst = np.maximum(v1, v2).max(axis=1)
        n_pass += int(np.count_nonzero(worst <= tol))
        min_worst = min(min_worst, float(worst.min()))
        done += b
    return SurveyResult(n_candidates=n_candidates, n_pass=n_pass,
                        min_worst_violation=min_worst, tolerance=tol, seed=seed)
