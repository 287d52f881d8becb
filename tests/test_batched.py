"""The batched state-family kernels against per-state scalar references.

Each reference below is the straightforward loop over one state (or one
pair) at a time: Qubit objects, np.kron, np.vdot and np.linalg.norm per
vector, and a strict `v > worst` scan.  The batched kernels must give
the same numbers bit for bit, and the same witness on ties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnogo.algebra import haar_unitaries
from qnogo.cli import _circle_residuals
from qnogo.gates import (
    cnot_computational,
    cnot_in_basis,
    hadamard,
    hadamard_equatorial,
    hadamard_polar,
    unequal_gate,
)
from qnogo.states import (
    Qubit,
    bloch_set,
    complement,
    equatorial_pair,
    equatorial_set,
    polar_pair,
    polar_set,
    state_family,
)
from qnogo.verifier import (
    check_cnot_universal,
    check_universal_gate,
    cloning_machine,
    complementing_machine,
    conjugating_machine,
    hybrid_machine,
    machine_deviation,
    machine_deviations,
    target_clone,
    target_cnot,
    target_complement,
    target_conjugate,
    target_hadamard9,
    target_hadamard10,
    target_hybrid,
    target_unequal,
    witness_search,
)

RT2 = 1.0 / np.sqrt(2.0)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
FAMILIES = st.sampled_from(["bloch", "polar", "equatorial"])


# --- scalar references -------------------------------------------------------


def ref_sphere(n, rng):
    cos_theta = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
    return [Qubit(np.cos(th / 2.0), np.sin(th / 2.0) * np.exp(1j * (ph % (2.0 * np.pi))))
            for th, ph in zip(theta.tolist(), phi.tolist())]


def ref_pairs(name, n, seed):
    """The (state, partner) Qubit pairs of a named grid set, one by one."""
    if name == "polar":
        return [polar_pair(float(t)) for t in np.linspace(0.0, np.pi, n, endpoint=False)]
    if name == "equatorial":
        return [equatorial_pair(float(p))
                for p in np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)]
    anchors = [Qubit(RT2, RT2), Qubit(RT2, 1j * RT2)][:n]
    qs = anchors + (ref_sphere(n - len(anchors), np.random.default_rng(seed))
                    if n > len(anchors) else [])
    return [(q, complement(q)) for q in qs]


def ref_sampled(name, n, seed):
    """The witness families as (n, 2) state and partner arrays."""
    rng = np.random.default_rng(seed)
    if name == "bloch":
        s = np.array([q.vector for q in ref_sphere(n, rng)])
        return s, np.array([complement(Qubit(*row)).vector for row in s])
    if name == "polar":
        t = rng.uniform(0.0, np.pi, size=n)
        c, si = np.cos(t / 2.0), np.sin(t / 2.0)
        return (np.stack([c, si], axis=1).astype(complex),
                np.stack([-si, c], axis=1).astype(complex))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    e = np.exp(1j * phi) / np.sqrt(2.0)
    h = np.full(n, RT2, dtype=complex)
    return np.stack([h, e], axis=1), np.stack([h, -e], axis=1)


def ref_rules(kind, s, p, a=None, b=None):
    r = 1.0 / np.sqrt(2.0)
    if kind == "hadamard9":
        return [(s, r * (s + p)), (p, r * (s - p))]
    if kind == "hadamard10":
        return [(s, r * (s + 1j * p)), (p, r * (1j * s + p))]
    if kind == "unequal":
        return [(s, a * s + b * p), (p, b * s - a * p)]
    return [(np.kron(s, s), np.kron(s, s)), (np.kron(s, p), np.kron(s, p)),
            (np.kron(p, s), np.kron(p, p)), (np.kron(p, p), np.kron(p, s))]


def ref_rule_violation(candidate, rules):
    worst = 0.0
    for vec_in, vec_out in rules:
        actual = candidate @ vec_in
        na, no = np.linalg.norm(actual), np.linalg.norm(vec_out)
        if na < 1e-12 or no < 1e-12:
            return 1.0
        overlap_sq = abs(np.vdot(vec_out, actual)) ** 2 / (na * na * no * no)
        worst = max(worst, float(min(max(1.0 - overlap_sq, 0.0), 1.0)))
    return worst


def ref_worst(values):
    """(worst, index) as a strict `v > worst` scan from 0.0 finds it."""
    worst, index = 0.0, 0
    for i, v in enumerate(values):
        if v > worst:
            worst, index = v, i
    return worst, index


def ref_machine_output(m, q):
    if m.extension == "linear":
        return q.alpha * m.out0 + q.beta * m.out1
    if m.extension == "antilinear":
        return np.conj(q.alpha) * m.out0 + np.conj(q.beta) * m.out1
    cu, ca = np.sqrt(m.kmap.lam), np.sqrt(1.0 - m.kmap.lam)
    out = np.zeros_like(m.out0)
    for i, amp in ((0, q.alpha), (1, q.beta)):
        e = np.zeros(2, dtype=complex)
        e[i] = 1.0
        anc = m.ancilla0 if i == 0 else m.ancilla1
        if cu > 0.0:
            out = out + cu * amp * np.kron(np.kron(e, m.kmap.unitary @ e), anc)
        if ca > 0.0:
            out = out + ca * np.conj(amp) * np.kron(np.kron(e, m.kmap.antiunitary.unitary_part
                                                           @ e.conj()), anc)
    return out


def ref_kmap(kmap, v):
    out = np.zeros_like(v)
    if kmap.lam > 0.0:
        out = out + np.sqrt(kmap.lam) * (kmap.unitary @ v)
    if kmap.lam < 1.0:
        out = out + np.sqrt(1.0 - kmap.lam) * (kmap.antiunitary.unitary_part @ v.conj())
    return out


def ref_deviation(m, t, q, mode):
    actual = ref_machine_output(m, q)
    actual = actual / np.linalg.norm(actual)
    second = ref_kmap(t.kmap, q.vector)
    sys_ideal = np.kron(q.vector, second / np.linalg.norm(second))
    d = m.ancilla_dim
    if mode == "best":
        overlap_sq = float(np.linalg.norm(sys_ideal.conj() @ actual.reshape(4, d)) ** 2)
    else:
        anc = t.ancilla_final if t.ancilla_final is not None else m.ancilla0
        overlap_sq = abs(np.vdot(np.kron(sys_ideal, anc), actual)) ** 2
    return float(min(max(1.0 - overlap_sq, 0.0), 1.0))


def ref_witness(kind, s, p, chunk, a=None, b=None):
    """The full-width row-block scan with a mask on j <= i."""
    n = len(s)
    if kind != "cnot":
        o1 = ref_rules(kind, s, p, a, b)[0][1]
    rules = [("s", "s", "s", "s"), ("s", "p", "s", "p"),
             ("p", "s", "p", "p"), ("p", "p", "p", "s")]
    vecs = {"s": s, "p": p}
    best_v, best_i, best_j = -1.0, 0, 1
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        if kind == "cnot":
            g = {k: vecs[k[0]][lo:hi].conj() @ vecs[k[1]].T for k in ("ss", "sp", "ps", "pp")}
            block = np.zeros((hi - lo, n))
            for c1, t1, c1o, t1o in rules:
                for c2, t2, c2o, t2o in rules:
                    gap = np.abs(g[c1 + c2] * g[t1 + t2] - g[c1o + c2o] * g[t1o + t2o])
                    np.maximum(block, gap, out=block)
        else:
            block = np.abs(s[lo:hi].conj() @ s.T - o1[lo:hi].conj() @ o1.T)
        cols = np.arange(n)[np.newaxis, :]
        rows = np.arange(lo, hi)[:, np.newaxis]
        block = np.where(cols > rows, block, -1.0)
        i_local, j = divmod(int(np.argmax(block)), n)
        if block[i_local, j] > best_v:
            best_v, best_i, best_j = float(block[i_local, j]), lo + i_local, j
    return max(best_v, 0.0), best_i, best_j


# --- strategies ---------------------------------------------------------------


@st.composite
def unit_weights(draw):
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    phase = draw(st.sampled_from([0.0, 0.5, np.pi / 2]))
    return complex(np.cos(angle)), complex(np.sin(angle) * np.exp(1j * phase))


@st.composite
def qubit_gate_cases(draw):
    """(candidate, target, target kind, weights) for the single-qubit rules."""
    kind = draw(st.sampled_from(["hadamard9", "hadamard10", "unequal"]))
    a, b = draw(unit_weights()) if kind == "unequal" else (None, None)
    target = {"hadamard9": target_hadamard9, "hadamard10": target_hadamard10,
              "unequal": lambda: target_unequal(a, b)}[kind]()
    choice = draw(st.sampled_from(["H", "HP", "HE", "UG", "haar"]))
    if choice == "haar":
        candidate = haar_unitaries(1, seed=draw(SEEDS))[0]
    elif choice == "UG":
        candidate = unequal_gate((0.6, 0.8))
    else:
        candidate = {"H": hadamard, "HP": hadamard_polar, "HE": hadamard_equatorial}[choice]
    return candidate, target, kind, (a, b)


# --- families ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(name=FAMILIES, n=st.integers(1, 300), seed=SEEDS)
def test_grid_sets_equal_their_per_state_pairs(name, n, seed):
    family = {"bloch": lambda: bloch_set(n, seed=seed), "polar": lambda: polar_set(n),
              "equatorial": lambda: equatorial_set(n)}[name]()
    pairs = ref_pairs(name, n, seed)
    assert np.array_equal(family.state_vectors, np.array([q.vector for q, _ in pairs]))
    assert np.array_equal(family.partner_vectors, np.array([r.vector for _, r in pairs]))
    assert family.pairs == tuple(pairs)
    assert len(family) == n


@settings(max_examples=40, deadline=None)
@given(name=FAMILIES, n=st.integers(1, 300), seed=SEEDS)
def test_sampled_families_equal_their_reference_arrays(name, n, seed):
    family = state_family(name, n, seed, sampled=True)
    s, p = ref_sampled(name, n, seed)
    assert np.array_equal(family.state_vectors, s)
    assert np.array_equal(family.partner_vectors, p)


def test_family_arrays_are_validated_and_read_only():
    family = polar_set(8)
    with pytest.raises(ValueError):
        family.state_vectors[0, 0] = 1.0
    with pytest.raises(ValueError, match="finite"):
        type(family)("x", [[np.nan, 0.0]], [[0.0, 1.0]])
    with pytest.raises(ValueError, match="normalized"):
        type(family)("x", [[1.0, 1.0]], [[0.0, 1.0]])
    with pytest.raises(ValueError, match="unknown family"):
        state_family("spiral", 4)


# --- rule checks ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(case=qubit_gate_cases(), name=FAMILIES, n=st.integers(1, 400), seed=SEEDS)
def test_gate_check_matches_the_scalar_reference(case, name, n, seed):
    candidate, target, kind, (a, b) = case
    pairs = ref_pairs(name, n, seed)
    values = [ref_rule_violation(candidate, ref_rules(kind, q.vector, r.vector, a, b))
              for q, r in pairs]
    worst, index = ref_worst(values)
    family = {"bloch": lambda: bloch_set(n, seed=seed), "polar": lambda: polar_set(n),
              "equatorial": lambda: equatorial_set(n)}[name]()
    verdict = check_universal_gate(candidate, target, family)
    assert verdict.violation == worst
    if not verdict.realizable:
        assert verdict.witness == pairs[index]


@settings(max_examples=30, deadline=None)
@given(name=FAMILIES, n=st.integers(1, 120), seed=SEEDS,
       gate=st.sampled_from(["computational", "basis", "haar"]))
def test_cnot_check_matches_the_scalar_reference(name, n, seed, gate):
    if gate == "computational":
        candidate = cnot_computational
    elif gate == "basis":
        candidate = cnot_in_basis(ref_sphere(1, np.random.default_rng(seed))[0])
    else:
        candidate = haar_unitaries(1, dim=4, seed=seed)[0]
    pairs = ref_pairs(name, n, seed)
    values = [ref_rule_violation(candidate, ref_rules("cnot", q.vector, r.vector))
              for q, r in pairs]
    worst, index = ref_worst(values)
    family = {"bloch": lambda: bloch_set(n, seed=seed), "polar": lambda: polar_set(n),
              "equatorial": lambda: equatorial_set(n)}[name]()
    verdict = check_cnot_universal(candidate, family)
    assert verdict.violation == worst
    if not verdict.realizable:
        assert verdict.witness == pairs[index]


TIE_CASES = [
    # HP on the equator: one state at 1.0, and the first one must win
    (hadamard_polar, "hadamard9", "equatorial", 256, 1),
    # ties at the maximum, from rounding or from symmetric grid points
    (hadamard_equatorial, "hadamard10", "equatorial", 256, 44),
    (hadamard_polar, "hadamard10", "polar", 256, 5),
    (unequal_gate((0.6, 0.8)), "hadamard10", "polar", 256, 40),
    (hadamard, "hadamard10", "equatorial", 256, 2),
    (hadamard_polar, "hadamard9", "polar", 256, 256),
]


@pytest.mark.parametrize("gate,kind,name,n,ties", TIE_CASES)
def test_ties_break_to_the_first_worst_state(gate, kind, name, n, ties):
    pairs = ref_pairs(name, n, None)
    values = [ref_rule_violation(gate, ref_rules(kind, q.vector, r.vector)) for q, r in pairs]
    worst, index = ref_worst(values)
    assert values.count(worst) == ties
    target = target_hadamard9() if kind == "hadamard9" else target_hadamard10()
    family = polar_set(n) if name == "polar" else equatorial_set(n)
    verdict = check_universal_gate(gate, target, family)
    assert verdict.violation == worst
    assert verdict.witness in (None, pairs[index])
    assert verdict.realizable or verdict.witness == pairs[index]


def test_qubit_lists_are_paired_with_their_complements():
    qs = [q for q, _ in ref_pairs("bloch", 40, 5)]
    verdict = check_universal_gate(hadamard, target_hadamard9(), qs)
    values = [ref_rule_violation(hadamard, ref_rules("hadamard9", q.vector,
                                                     complement(q).vector)) for q in qs]
    worst, index = ref_worst(values)
    assert verdict.violation == worst
    assert verdict.witness == (qs[index], complement(qs[index]))
    with pytest.raises(ValueError):
        check_universal_gate(hadamard, target_hadamard9(), [])


# --- machine deviations ------------------------------------------------------------


@st.composite
def machine_cases(draw):
    ancilla = draw(st.sampled_from([None, "tags"]))
    a0, a1 = (None, None) if ancilla is None else ([1.0, 0.0], [0.0, 1.0])
    kind = draw(st.sampled_from(["clone", "complement", "conjugate", "hybrid"]))
    if kind == "hybrid":
        lam = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0))
        return hybrid_machine(lam, ancilla0=a0, ancilla1=a1), target_hybrid(lam)
    extension = draw(st.sampled_from(["linear", "antilinear"]))
    maker = {"clone": cloning_machine, "complement": complementing_machine,
             "conjugate": conjugating_machine}[kind]
    target = {"clone": target_clone, "complement": target_complement,
              "conjugate": target_conjugate}[draw(st.sampled_from(["clone", "complement",
                                                                   "conjugate"]))]()
    return maker(extension, ancilla0=a0, ancilla1=a1), target


@settings(max_examples=60, deadline=None)
@given(case=machine_cases(), name=FAMILIES, n=st.integers(1, 300), seed=SEEDS,
       mode=st.sampled_from(["fixed", "best"]))
def test_machine_deviations_match_the_scalar_reference(case, name, n, seed, mode):
    m, t = case
    pairs = ref_pairs(name, n, seed)
    family = {"bloch": lambda: bloch_set(n, seed=seed), "polar": lambda: polar_set(n),
              "equatorial": lambda: equatorial_set(n)}[name]()
    batched = machine_deviations(m, t, family, mode)
    expected = [ref_deviation(m, t, q, mode) for q, _ in pairs]
    assert batched.tolist() == expected
    assert int(np.argmax(batched)) == ref_worst(expected)[1]
    q = pairs[-1][0]
    assert machine_deviation(m, t, q, mode) == expected[-1]


# --- witness scan ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["hadamard9", "hadamard10", "unequal", "cnot"]),
       weights=unit_weights(), name=FAMILIES, seed=SEEDS,
       n=st.integers(2, 600), chunk=st.sampled_from([16, 64, 256]))
def test_witness_search_matches_the_full_width_scan(kind, weights, name, seed, n, chunk):
    if kind == "cnot":
        n = min(n, 150)
    a, b = weights
    target = {"hadamard9": target_hadamard9, "hadamard10": target_hadamard10,
              "unequal": lambda: target_unequal(a, b), "cnot": target_cnot}[kind]()
    s, p = ref_sampled(name, n, seed)
    violation, i, j = ref_witness(kind, s, p, chunk, a, b)
    result = witness_search(target, n, seed=seed, family=name, chunk=chunk)
    assert result.violation == violation
    assert result.pair == (Qubit(*s[i]), Qubit(*s[j]))


# --- circle-check row blocks ---------------------------------------------------------


@pytest.mark.parametrize("n", [2, 255, 257, 300, 513, 700])
def test_circle_residuals_in_row_blocks_equal_the_full_gram(n):
    for kind in ("polar", "equatorial"):
        s = np.array([q.vector for q, _ in ref_pairs(kind, n, None)])
        p = np.array([r.vector for _, r in ref_pairs(kind, n, None)])
        g00, g01, g10, g11 = s.conj() @ s.T, s.conj() @ p.T, p.conj() @ s.T, p.conj() @ p.T
        diag = float(np.abs(g00 - g11).max())
        anti = float(np.abs(g01 + g10).max())
        sym = float(np.abs(g01 - g10).max())
        expected = (diag, anti, sym) if kind == "polar" else (diag, sym, anti)
        assert _circle_residuals(kind, n) == expected
