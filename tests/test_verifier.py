import numpy as np
import pytest

from qnogo.algebra import GeneralKMap, tensor
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
    complement,
    equatorial_pair,
    listed_set,
    polar_pair,
    polar_set,
    state_family,
)
from qnogo.verifier import (
    MachineSpec,
    Verdict,
    _rules,
    check_universal_gate,
    cloning_machine,
    complementing_machine,
    conjugating_machine,
    hybrid_machine,
    machine_deviations,
    machine_output,
    survey_random_unitaries,
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
KET0 = Qubit(1.0, 0.0)
KET1 = Qubit(0.0, 1.0)
PLUS = Qubit(RT2, RT2)


def first_rule_gap(t, pair1, pair2):
    """|<s1|s2> - <o1|o2>|, where o is each state's required first-rule image."""
    s, p = (np.array([pair1[k].vector, pair2[k].vector]) for k in (0, 1))
    o1, o2 = next(_rules(t, s, p))[1]
    return abs(np.vdot(s[0], s[1]) - np.vdot(o1, o2))


def deviation(m, t, q, mode="fixed"):
    """The batched deviation of the one state q."""
    return float(machine_deviations(m, t, listed_set([q]), mode)[0])


# --- machine construction and extensions ---------------------------------


def test_machine_spec_rejects_nonorthogonal_outputs():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    with pytest.raises(ValueError, match="orthogonal"):
        MachineSpec(out0=v, out1=v)


def test_machine_spec_rejects_bad_extension():
    m = cloning_machine()
    with pytest.raises(ValueError):
        MachineSpec(out0=m.out0, out1=m.out1, extension="quadratic")
    with pytest.raises(ValueError, match="kmap"):
        MachineSpec(out0=m.out0, out1=m.out1, extension="hybrid")


def test_cloning_machine_basis_outputs():
    m = cloning_machine()
    assert np.allclose(m.out0, tensor([1, 0], [1, 0]))
    assert np.allclose(m.out1, tensor([0, 1], [0, 1]))
    assert m.ancilla_dim == 1


def test_extend_linear_on_plus():
    m = cloning_machine()
    out = machine_output(m, PLUS)
    want = RT2 * (tensor([1, 0], [1, 0]) + tensor([0, 1], [0, 1]))
    assert np.allclose(out, want)


def test_extend_antilinear_conjugates_amplitudes():
    m = conjugating_machine()
    q = Qubit(0.6, 0.8j)
    out = machine_output(m, q)
    want = 0.6 * m.out0 + np.conj(0.8j) * m.out1
    assert np.allclose(out, want)


def test_hybrid_endpoints_match_pure_machines():
    m1 = hybrid_machine(1.0)
    mc = cloning_machine()
    assert np.allclose(m1.out0, mc.out0) and np.allclose(m1.out1, mc.out1)
    m0 = hybrid_machine(0.0)
    mm = complementing_machine()
    assert np.allclose(m0.out0, mm.out0) and np.allclose(m0.out1, mm.out1)


def test_extend_hybrid_mixes_both_branches():
    m = hybrid_machine(0.5)
    q = Qubit(0.6, 0.8j)
    out = machine_output(m, q)
    e0, e1 = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    r = np.sqrt(0.5)
    want = (r * 0.6 * tensor(e0, e0) + r * 0.8j * tensor(e1, e1)
            + r * 0.6 * tensor(e0, e1) + r * np.conj(0.8j) * tensor(e1, -e0))
    assert np.allclose(out, want)


def test_machine_output_respects_declared_extension():
    q = Qubit(0.6, 0.8)
    lin = machine_output(cloning_machine(), q)
    anti = machine_output(cloning_machine(extension="antilinear"), q)
    assert np.allclose(lin, anti)  # real amplitudes: the two extensions agree
    qc = Qubit(0.6, 0.8j)
    assert not np.allclose(machine_output(cloning_machine(), qc),
                           machine_output(cloning_machine(extension="antilinear"), qc))


# --- targets and deviations -----------------------------------------------


def test_target_validation():
    with pytest.raises(ValueError):
        target_unequal(0.6, 0.9)
    with pytest.raises(ValueError, match="check_universal_gate"):
        deviation(cloning_machine(), target_hadamard9(), PLUS)
    with pytest.raises(ValueError, match="no per-state rules"):
        next(_rules(target_clone(), KET0.vector[np.newaxis], KET1.vector[np.newaxis]))


def test_ideal_output_of_clone_target():
    # each clone-like target demands |q> (x) K|q>; the deviation measures the machine against it
    q = Qubit(0.6, 0.8j)
    m = cloning_machine()
    actual = machine_output(m, q)
    for t, second in ((target_clone(), q.vector), (target_complement(), complement(q).vector),
                      (target_conjugate(), q.vector.conj())):
        ideal = np.kron(q.vector, second)
        want = 1.0 - abs(np.vdot(ideal, actual)) ** 2
        assert deviation(m, t, q) == pytest.approx(want, abs=1e-12)


def test_machine_deviation_vanishes_on_basis_states():
    m = cloning_machine()
    t = target_clone()
    assert deviation(m, t, KET0) == pytest.approx(0.0, abs=1e-12)
    assert deviation(m, t, KET1) == pytest.approx(0.0, abs=1e-12)


def test_machine_deviation_at_plus_is_half():
    # overlap <++|phi+> = (1+1)/ (2 sqrt2) -> fidelity 1/2
    dev = deviation(cloning_machine(), target_clone(), PLUS)
    assert abs(dev - 0.5) < 1e-12


def test_machine_deviation_best_mode_never_worse():
    m = cloning_machine(ancilla0=[1, 0], ancilla1=[0, 1])
    t = target_clone()
    for q in (Qubit(*v) for v in state_family("bloch", 20, 13).state_vectors):
        fixed = deviation(m, t, q, mode="fixed")
        best = deviation(m, t, q, mode="best")
        assert best <= fixed + 1e-12


def test_machine_deviation_checks_ancilla_dims():
    m = cloning_machine(ancilla0=[1, 0], ancilla1=[0, 1])
    t = target_clone()
    # fixed mode borrows the machine's ancilla0, so this works
    deviation(m, t, PLUS)
    # three-register outputs whose machine declares no ancilla state: |Q_0> is one-dimensional
    e0, e1 = np.eye(2)
    bare = MachineSpec(out0=tensor(e0, e0, e0), out1=tensor(e1, e1, e1))
    with pytest.raises(ValueError, match="final ancilla dimension 1 does not match"):
        deviation(bare, t, PLUS)
    with pytest.raises(ValueError):
        deviation(m, t, PLUS, mode="optimal")


def test_hybrid_target_deviation_is_continuous_in_lambda():
    q = Qubit(0.6, 0.8)
    devs = [deviation(hybrid_machine(l), target_hybrid(l), q)
            for l in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(0.0 <= d <= 1.0 for d in devs)
    # real-amplitude states on the polar circle keep the deviation moderate
    assert max(devs) < 0.75


# --- overlap audits --------------------------------------------------------


def test_audit_polar_pairs_are_consistent():
    t = target_hadamard9()
    s1, p1 = polar_pair(0.4)
    s2, p2 = polar_pair(2.0)
    # polar partners coincide with canonical complements
    assert first_rule_gap(t, (s1, complement(s1)), (s2, complement(s2))) < 1e-12
    assert first_rule_gap(t, (s1, p1), (s2, p2)) < 1e-12


def test_audit_equatorial_pair_breaks_plain_hadamard():
    t = target_hadamard9()
    s1, p1 = equatorial_pair(0.0)
    s2, p2 = equatorial_pair(np.pi / 2)
    gap = first_rule_gap(t, (s1, p1), (s2, p2))
    assert gap == pytest.approx(RT2, abs=1e-12)
    assert gap > 0.1


def test_audit_equatorial_pair_passes_phase_variant():
    t = target_hadamard10()
    for d in (0.3, 1.1, 2.5, 4.4):
        s1, p1 = equatorial_pair(0.0)
        s2, p2 = equatorial_pair(d)
        assert first_rule_gap(t, (s1, p1), (s2, p2)) < 1e-12


def test_audit_rejects_machine_targets():
    for t in (target_clone(), target_complement(), target_conjugate(), target_hybrid(0.5)):
        with pytest.raises(ValueError):
            check_universal_gate(hadamard, t, polar_set(4))
        with pytest.raises(ValueError):
            witness_search(t, n_samples=16)


def test_unequal_real_weights_keep_polar_overlaps():
    t = target_unequal(3 / 5, 4 / 5)
    assert first_rule_gap(t, polar_pair(0.3), polar_pair(1.9)) < 1e-12


def test_unequal_complex_weights_match_the_closed_form():
    a, b = RT2, RT2 * 1j
    # |(conj(a) b - a conj(b)) <psi(0)|partner(pi/2)>| = |i| sin(pi/4)
    closed = abs(np.conj(a) * b - a * np.conj(b)) * np.sin(np.pi / 4)
    assert closed == pytest.approx(RT2, abs=1e-10)
    t = target_unequal(a, b)
    generic = first_rule_gap(t, polar_pair(0.0), polar_pair(np.pi / 2))
    assert abs(generic - closed) < 1e-12
    with pytest.raises(ValueError):
        target_unequal(0.5, 0.5)


# --- verdicts and checks ---------------------------------------------------


def test_verdict_invariants():
    with pytest.raises(ValueError):
        Verdict(realizable=True, violation=1.0, tolerance=1e-9, condition="x")
    with pytest.raises(ValueError):
        Verdict(realizable=False, violation=1.0, tolerance=1e-9, condition="x")
    v = Verdict(realizable=False, violation=1.0, tolerance=1e-9, condition="x",
                witness=(KET0, KET1))
    assert v.status == "IMPOSSIBLE"


def test_polar_gate_passes_its_own_circle():
    v = check_universal_gate(hadamard_polar, target_hadamard9(), polar_set(64),
                             tol=1e-12)
    assert v.realizable and v.violation < 1e-12
    assert v.condition == "hadamard9-rules"


def test_equatorial_gate_passes_its_own_circle():
    v = check_universal_gate(hadamard_equatorial, target_hadamard10(),
                             state_family("equatorial", 64), tol=1e-12)
    assert v.realizable and v.violation < 1e-12


def test_cross_application_fails_hard():
    v1 = check_universal_gate(hadamard_polar, target_hadamard10(), state_family("equatorial", 64))
    v2 = check_universal_gate(hadamard_equatorial, target_hadamard9(), polar_set(64))
    assert not v1.realizable and not v2.realizable
    assert v1.violation == pytest.approx(0.75, abs=1e-9)
    assert v2.violation == pytest.approx(0.75, abs=1e-9)
    assert v1.witness is not None


def test_plain_hadamard_works_on_the_computational_basis_only():
    basis = listed_set([KET0, KET1])
    v = check_universal_gate(hadamard, target_hadamard9(), basis)
    assert v.realizable
    w = check_universal_gate(hadamard, target_hadamard9(), state_family("bloch", 64, 42))
    assert not w.realizable


def test_unequal_gate_passes_polar_circle():
    v = check_universal_gate(unequal_gate((0.6, 0.8)), target_unequal(0.6, 0.8),
                             polar_set(64), tol=1e-12)
    assert v.realizable


def test_check_universal_gate_validates_input():
    with pytest.raises(ValueError):
        check_universal_gate(cnot_computational, target_hadamard9(), polar_set(4))
    with pytest.raises(ValueError):
        check_universal_gate(hadamard, target_cnot(), polar_set(4))


def test_cnot_check_passes_its_own_basis():
    v = check_universal_gate(cnot_computational, target_cnot(), listed_set([KET0]))
    assert v.realizable and v.condition == "cnot-rules"
    for q in (Qubit(*v) for v in state_family("bloch", 10, 21).state_vectors):
        assert check_universal_gate(cnot_in_basis(q), target_cnot(), listed_set([q])).realizable


def test_cnot_check_fails_on_the_sphere_with_plus_witness():
    v = check_universal_gate(cnot_computational, target_cnot(), state_family("bloch", 64, 42))
    assert not v.realizable
    assert v.violation == pytest.approx(1.0, abs=1e-12)
    # the first anchor state |+> already breaks rule 2
    assert v.witness[0].alpha == pytest.approx(RT2)
    assert v.witness[0].beta == pytest.approx(RT2)
    with pytest.raises(ValueError):
        check_universal_gate(hadamard, target_cnot(), state_family("bloch", 4, 42))


# --- witness search and random surveys ------------------------------------


def test_witness_search_polar_family_is_consistent():
    r = witness_search(target_hadamard9(), n_samples=256, seed=42, family="polar")
    assert r.violation < 1e-10
    assert r.condition == "pairwise-overlap-consistency"


def test_witness_search_bloch_family_finds_large_violation():
    r = witness_search(target_hadamard9(), n_samples=256, seed=42, family="bloch")
    assert r.violation > 0.3
    # deterministic for a fixed seed
    again = witness_search(target_hadamard9(), n_samples=256, seed=42, family="bloch")
    assert again.violation == r.violation
    assert again.pair[0].alpha == r.pair[0].alpha


def test_witness_search_equatorial_families():
    # the phase variant is consistent on the equator, the plain one is not
    ok = witness_search(target_hadamard10(), n_samples=128, seed=42, family="equatorial")
    assert ok.violation < 1e-10
    bad = witness_search(target_hadamard9(), n_samples=128, seed=42, family="equatorial")
    assert bad.violation > 0.5


def test_witness_search_unequal_and_cnot():
    r = witness_search(target_unequal(0.6, 0.8), n_samples=128, seed=42, family="polar")
    assert r.violation < 1e-10
    c = witness_search(target_cnot(), n_samples=128, seed=42, family="bloch")
    assert c.violation > 0.3
    with pytest.raises(ValueError):
        witness_search(target_hadamard9(), n_samples=1)
    with pytest.raises(ValueError):
        witness_search(target_clone(), n_samples=16)
    with pytest.raises(ValueError):
        witness_search(target_hadamard9(), n_samples=16, family="spiral")


def test_survey_random_unitaries_finds_no_universal_gate():
    res = survey_random_unitaries(target_hadamard9(), state_family("bloch", 50, 7),
                                  n_candidates=200, seed=11)
    assert res.n_candidates == 200 and res.tolerance == 1e-3
    assert res.n_pass == 0
    assert res.min_worst_violation > 0.01
    again = survey_random_unitaries(target_hadamard9(), state_family("bloch", 50, 7),
                                    n_candidates=200, seed=11)
    assert again.min_worst_violation == res.min_worst_violation
    with pytest.raises(ValueError):
        survey_random_unitaries(target_hadamard9(), state_family("bloch", 8, 42), n_candidates=0)
