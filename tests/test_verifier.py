import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnogo.gates import (
    cnot_computational,
    hadamard,
    hadamard_equatorial,
    hadamard_polar,
    unequal_gate,
)
from qnogo.states import (
    Qubit,
    complement,
    listed_set,
    polar_set,
    state_family,
)
from qnogo.verifier import (
    MachineSpec,
    TargetTransform,
    Verdict,
    _deviations,
    _rules,
    _semilinear,
    _target_k,
    check_universal_gate,
    hybrid_machine,
    survey_random_unitaries,
    witness_search,
)
from references import cnot_in_basis, equatorial_pair, polar_pair

RT2 = 1.0 / np.sqrt(2.0)
KET0 = Qubit(1.0, 0.0)
KET1 = Qubit(0.0, 1.0)
PLUS = Qubit(RT2, RT2)
COPY = np.eye(4)[[0, 3]]   # |i> -> |i>|i>
COMPLEMENT = np.array([[0, 1, 0, 0], [0, 0, -1, 0]])   # |0> -> |0>|1>, |1> -> -|1>|0>
NONE = np.zeros((2, 4))
CLONER = MachineSpec(COPY, NONE)


def first_rule_gap(t, pair1, pair2):
    """|<s1|s2> - <o1|o2>|, where o is each state's required first-rule image."""
    s, p = (np.array([pair1[k].vector, pair2[k].vector]) for k in (0, 1))
    o1, o2 = next(_rules(t, s, p))[1]
    return abs(np.vdot(s[0], s[1]) - np.vdot(o1, o2))


def deviation(m, t, q):
    """The exact kernel's deviation of the one state q."""
    parts = ((m.linear, m.antilinear), _target_k(t))
    return float(_deviations(parts, listed_set([q]).state_vectors)[0])


def output(m, q):
    """The machine's output on the one state q."""
    return _semilinear((m.linear, m.antilinear), q.vector[np.newaxis])[0]


# --- machine construction and extensions ---------------------------------


def test_machine_spec_rejects_nonorthogonal_outputs():
    with pytest.raises(ValueError, match="orthogonal"):
        MachineSpec(np.eye(4)[[0, 0]], NONE)
    # the basis outputs are the sums of the parts' rows
    with pytest.raises(ValueError, match="orthogonal"):
        MachineSpec(COPY, np.eye(4)[[0, 0]] - COPY)


def test_machine_spec_checks_each_basis_output_is_a_unit_vector():
    with pytest.raises(ValueError, match="not normalized"):
        MachineSpec(COPY, COPY)
    infinite = np.where(COPY, np.inf, 0.0)
    huge = 1e308 * COPY   # finite, but its sum overflows
    for linear, antilinear in ((infinite, NONE), (infinite, -infinite), (huge, huge)):
        with pytest.raises(ValueError, match="non-finite"):   # and no numpy warning
            MachineSpec(linear, antilinear)


def test_machine_spec_refuses_parts_that_do_not_keep_the_norm():
    # the basis outputs COPY are fine, but the parts overlap: i|0> goes to 0
    with pytest.raises(ValueError, match="do not keep the norm of every input"):
        MachineSpec(COPY / 2, COPY / 2)


def random_parts(kind, d, eps, rng):
    """Random (linear, antilinear) parts of width 4d: a hybrid-like isometry, weights
    cos t and sin t on four orthonormal rows; two orthonormal basis outputs split between
    overlapping parts; a map that keeps every real inner product, from four
    real-orthonormal columns, whose basis outputs need not be orthogonal; or Gaussian
    rows.  eps adds Gaussian noise of that size."""
    z = rng.normal(size=(4 * d, 4)) + 1j * rng.normal(size=(4 * d, 4))
    rows = np.linalg.qr(z)[0].T
    if kind == "hybrid":
        t = rng.uniform(0.0, np.pi / 2)
        linear, antilinear = np.cos(t) * rows[:2], np.sin(t) * rows[2:]
    elif kind == "split":   # as COPY / 2, COPY / 2, with the parts' difference at random
        linear, antilinear = rows[:2] / 2 + z[:, 2:].T / 4, rows[:2] / 2 - z[:, 2:].T / 4
    elif kind == "real":   # columns of the images of |0>, i|0>, |1>, i|1> as real vectors
        c = np.linalg.qr(rng.normal(size=(8 * d, 4)))[0].T.copy().view(complex)
        linear, antilinear = (c[0::2] - 1j * c[1::2]) / 2, (c[0::2] + 1j * c[1::2]) / 2
    else:
        linear, antilinear = z[:, :2].T / 2, z[:, 2:].T / 2
    noise = rng.normal(size=(2, 2, 4 * d)) + 1j * rng.normal(size=(2, 2, 4 * d))
    return linear + eps * noise[0], antilinear + eps * noise[1]


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["hybrid", "split", "real", "gaussian"]),
       d=st.sampled_from([1, 2, 4]), eps=st.sampled_from([0.0, 1e-14, 1e-6]),
       seed=st.integers(0, 2**32 - 1))
def test_a_spec_is_refused_exactly_when_it_is_not_isometric(kind, d, eps, seed):
    rng = np.random.default_rng(seed)
    linear, antilinear = random_parts(kind, d, eps, rng)
    # the machine as a real-linear map of (Re a, Im a, Re b, Im b): isometric when M^T M = I
    m = np.stack([linear[0] + antilinear[0], 1j * (linear[0] - antilinear[0]),
                  linear[1] + antilinear[1], 1j * (linear[1] - antilinear[1])], axis=1)
    m = np.vstack([m.real, m.imag])
    isometric = np.abs(m.T @ m - np.eye(4)).max() <= 1e-9
    outputs = linear + antilinear
    basis = np.abs(outputs.conj() @ outputs.T - np.eye(2)).max() <= 1e-9   # orthonormal
    try:
        spec = MachineSpec(linear, antilinear)
    except ValueError as exc:
        assert not (isometric and basis)
        # past the basis-output checks, the refusal is the isometry's
        assert basis == ("do not keep the norm of every input" in str(exc))
        return
    assert isometric and basis
    a = rng.normal(size=(64, 2)) + 1j * rng.normal(size=(64, 2))
    a /= np.linalg.norm(a, axis=1)[:, np.newaxis]
    outputs = _semilinear((spec.linear, spec.antilinear), a)
    assert np.abs(np.linalg.norm(outputs, axis=1) - 1.0).max() <= 1e-12


def test_machine_spec_refuses_other_widths_and_unequal_parts():
    for linear, antilinear in ((np.eye(2), np.zeros((2, 2))),   # no copy register
                               (COPY, np.zeros((2, 8))),
                               (np.eye(32)[[0, 31]], np.zeros((2, 32))),
                               (COPY[0], NONE[0])):
        with pytest.raises(ValueError, match=r"machine parts must both have shape \(2, 4\)"):
            MachineSpec(linear, antilinear)
    for d in (0, 3, 8):   # the hybrid's ancilla too has 1, 2 or 4 levels
        with pytest.raises(ValueError, match=r"machine parts must both have shape \(2, 4\), "
                                             rf"\(2, 8\) or \(2, 16\), got \(2, {4 * d}\)"):
            hybrid_machine(0.5, d)


def test_machine_spec_parts_are_read_only_copies():
    rows = COPY.astype(complex)
    m = MachineSpec(rows, NONE)
    rows[0, 0] = 0.0
    assert m.linear[0, 0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        m.linear[0, 0] = 0.0
    with pytest.raises(AttributeError):
        m.linear = rows


def test_extend_linear_on_plus():
    out = output(CLONER, PLUS)
    want = RT2 * (np.kron([1, 0], [1, 0]) + np.kron([0, 1], [0, 1]))
    assert np.allclose(out, want)


def test_extend_antilinear_conjugates_amplitudes():
    m = MachineSpec(NONE, COPY)
    q = Qubit(0.6, 0.8j)
    want = 0.6 * COPY[0] + np.conj(0.8j) * COPY[1]
    assert np.allclose(output(m, q), want)


def test_hybrid_endpoints_match_pure_machines():
    m1 = hybrid_machine(1.0, 1)
    assert np.array_equal(m1.linear, COPY) and not m1.antilinear.any()
    m0 = hybrid_machine(0.0, 1)
    assert np.array_equal(m0.antilinear, COMPLEMENT) and not m0.linear.any()


@pytest.mark.parametrize("d", [1, 2])
def test_hybrid_basis_outputs_are_the_dsl_canonical_ones(d):
    # |i> (x) K|i> (x) |0...0>, K|i> = sqrt(lam)|i> + sqrt(1 - lam) F|i>
    for lam in (0.0, 0.3, 0.5, 1.0):
        m = hybrid_machine(lam, d)
        assert m.linear.shape == (2, 4 * d)
        e = np.eye(2)
        for i in (0, 1):
            k = np.sqrt(lam) * e[i] + np.sqrt(1.0 - lam) * np.array([[0, -1], [1, 0]]) @ e[i]
            canonical = np.kron(np.kron(e[i], k), np.eye(d)[0])
            assert np.array_equal(m.linear[i] + m.antilinear[i], canonical)


def test_extend_hybrid_mixes_both_branches():
    m = hybrid_machine(0.5, 1)
    q = Qubit(0.6, 0.8j)
    e0, e1 = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    r = np.sqrt(0.5)
    want = (r * 0.6 * np.kron(e0, e0) + r * 0.8j * np.kron(e1, e1)
            + r * 0.6 * np.kron(e0, e1) + r * np.conj(0.8j) * np.kron(e1, -e0))
    assert np.allclose(output(m, q), want)


def test_the_two_extensions_differ_only_on_complex_amplitudes():
    lin, anti = CLONER, MachineSpec(NONE, COPY)
    q = Qubit(0.6, 0.8)
    assert np.allclose(output(lin, q), output(anti, q))  # real amplitudes: the two agree
    qc = Qubit(0.6, 0.8j)
    assert not np.allclose(output(lin, qc), output(anti, qc))


# --- targets and deviations -----------------------------------------------


def test_target_validation():
    with pytest.raises(ValueError):
        TargetTransform("unequal", 0.6, 0.9)
    # an argument the target lacks or does not take is refused by name
    for name, kwargs, message in (
            ("hybrid", {}, "target 'hybrid' needs argument lambda"),
            ("hadamard9", {"a": 0.6}, "target 'hadamard9' takes no argument a"),
            ("unequal", {"a": 0.6}, "target 'unequal' needs argument b"),
            ("clone", {"lam": 0.5}, "target 'clone' takes no argument lambda"),
            ("clone-like", {}, "unknown target kind 'clone-like'"),
            ("hybrid", {"lam": 1.5}, "lam must lie in [0, 1], got 1.5")):
        with pytest.raises(ValueError) as refused:
            TargetTransform(name, **kwargs)
        assert str(refused.value) == message
    with pytest.raises(ValueError) as refused:
        hybrid_machine(-0.5, 1)
    assert str(refused.value) == "lam must lie in [0, 1], got -0.5"
    with pytest.raises(ValueError, match="no per-state rules"):
        next(_rules(TargetTransform("clone"), KET0.vector[np.newaxis], KET1.vector[np.newaxis]))


def test_each_target_kind_fixes_its_k_map():
    # K v = sqrt(lam) v + sqrt(1 - lam) F conj(v), kept as a machine's (linear, antilinear)
    # parts; its endpoints are exactly v, the complement and the conjugate
    flip_t, zero = np.array([[0, 1], [-1, 0]]), np.zeros((2, 2))   # F^T: row i is F|i>
    for t, parts in ((TargetTransform("clone"), (np.eye(2), zero)),
                     (TargetTransform("complement"), (zero, flip_t)),
                     (TargetTransform("conjugate"), (zero, np.eye(2))),
                     (TargetTransform("hybrid", lam=0.25), (0.5 * np.eye(2),
                                                             np.sqrt(0.75) * flip_t))):
        assert all(np.array_equal(got, want) for got, want in zip(_target_k(t), parts))
    q = Qubit(0.6, 0.8j)

    def k(t):
        return _semilinear(_target_k(t), q.vector[np.newaxis])[0]
    for t, want in ((TargetTransform("clone"), q.vector),
                    (TargetTransform("hybrid", lam=1.0), q.vector),
                    (TargetTransform("complement"), complement(q).vector),
                    (TargetTransform("hybrid", lam=0.0), complement(q).vector),
                    (TargetTransform("conjugate"), q.vector.conj())):
        assert np.array_equal(k(t), want)
    half = k(TargetTransform("hybrid", lam=0.5))
    assert np.allclose(half, RT2 * (q.vector + complement(q).vector))


def test_ideal_output_of_clone_target():
    # each clone-like target demands |q> (x) K|q>; the deviation measures the machine against it
    q = Qubit(0.6, 0.8j)
    actual = output(CLONER, q)
    for t, second in ((TargetTransform("clone"), q.vector),
                      (TargetTransform("complement"), complement(q).vector),
                      (TargetTransform("conjugate"), q.vector.conj())):
        ideal = np.kron(q.vector, second)
        want = 1.0 - abs(np.vdot(ideal, actual)) ** 2
        assert deviation(CLONER, t, q) == pytest.approx(want, abs=1e-12)


def test_machine_deviation_vanishes_on_basis_states():
    t = TargetTransform("clone")
    assert deviation(CLONER, t, KET0) == pytest.approx(0.0, abs=1e-12)
    assert deviation(CLONER, t, KET1) == pytest.approx(0.0, abs=1e-12)


def test_machine_deviation_at_plus_is_half():
    # overlap <++|phi+> = (1+1)/ (2 sqrt2) -> fidelity 1/2
    dev = deviation(CLONER, TargetTransform("clone"), PLUS)
    assert abs(dev - 0.5) < 1e-12


def test_the_ideal_final_ancilla_is_the_first_basis_state():
    # a cloner that tags |1>'s branch with |1> on the ancilla: the ideal's ancilla is |0>, so
    # |0> matches, |1> misses entirely and |+> keeps half of its clone overlap
    tagged = MachineSpec(np.array([np.kron(COPY[0], [1, 0]), np.kron(COPY[1], [0, 1])]),
                         np.zeros((2, 8)))
    t = TargetTransform("clone")
    assert deviation(tagged, t, KET0) == 0.0
    assert deviation(tagged, t, KET1) == 1.0
    assert deviation(tagged, t, PLUS) == pytest.approx(0.875, abs=1e-12)
    # three registers with an untagged ancilla: the ideal carries |0> there too
    bare = MachineSpec(np.kron(COPY, [1, 0]), np.zeros((2, 8)))
    assert deviation(bare, t, PLUS) == pytest.approx(0.5, abs=1e-12)


def test_hybrid_target_deviation_is_continuous_in_lambda():
    q = Qubit(0.6, 0.8)
    devs = [deviation(hybrid_machine(l, 1), TargetTransform("hybrid", lam=l), q)
            for l in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(0.0 <= d <= 1.0 for d in devs)
    # real-amplitude states on the polar circle keep the deviation moderate
    assert max(devs) < 0.75


# --- overlap audits --------------------------------------------------------


def test_audit_polar_pairs_are_consistent():
    t = TargetTransform("hadamard9")
    s1, p1 = polar_pair(0.4)
    s2, p2 = polar_pair(2.0)
    # polar partners coincide with canonical complements
    assert first_rule_gap(t, (s1, complement(s1)), (s2, complement(s2))) < 1e-12
    assert first_rule_gap(t, (s1, p1), (s2, p2)) < 1e-12


def test_audit_equatorial_pair_breaks_plain_hadamard():
    t = TargetTransform("hadamard9")
    s1, p1 = equatorial_pair(0.0)
    s2, p2 = equatorial_pair(np.pi / 2)
    gap = first_rule_gap(t, (s1, p1), (s2, p2))
    assert gap == pytest.approx(RT2, abs=1e-12)
    assert gap > 0.1


def test_audit_equatorial_pair_passes_phase_variant():
    t = TargetTransform("hadamard10")
    for d in (0.3, 1.1, 2.5, 4.4):
        s1, p1 = equatorial_pair(0.0)
        s2, p2 = equatorial_pair(d)
        assert first_rule_gap(t, (s1, p1), (s2, p2)) < 1e-12


def test_audit_rejects_machine_targets():
    for t in (TargetTransform("clone"), TargetTransform("complement"),
              TargetTransform("conjugate"), TargetTransform("hybrid", lam=0.5)):
        with pytest.raises(ValueError):
            check_universal_gate(hadamard, t, polar_set(4))
        with pytest.raises(ValueError):
            witness_search(t, n_samples=16)


def test_unequal_real_weights_keep_polar_overlaps():
    t = TargetTransform("unequal", 3 / 5, 4 / 5)
    assert first_rule_gap(t, polar_pair(0.3), polar_pair(1.9)) < 1e-12


def test_unequal_complex_weights_match_the_closed_form():
    a, b = RT2, RT2 * 1j
    # |(conj(a) b - a conj(b)) <psi(0)|partner(pi/2)>| = |i| sin(pi/4)
    closed = abs(np.conj(a) * b - a * np.conj(b)) * np.sin(np.pi / 4)
    assert closed == pytest.approx(RT2, abs=1e-10)
    t = TargetTransform("unequal", a, b)
    generic = first_rule_gap(t, polar_pair(0.0), polar_pair(np.pi / 2))
    assert abs(generic - closed) < 1e-12
    with pytest.raises(ValueError):
        TargetTransform("unequal", 0.5, 0.5)


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
    v = check_universal_gate(hadamard_polar, TargetTransform("hadamard9"), polar_set(64),
                             tol=1e-12)
    assert v.realizable and v.violation < 1e-12
    assert v.condition == "hadamard9-rules"


def test_equatorial_gate_passes_its_own_circle():
    v = check_universal_gate(hadamard_equatorial, TargetTransform("hadamard10"),
                             state_family("equatorial", 64), tol=1e-12)
    assert v.realizable and v.violation < 1e-12


def test_cross_application_fails_hard():
    v1 = check_universal_gate(hadamard_polar, TargetTransform("hadamard10"),
                              state_family("equatorial", 64))
    v2 = check_universal_gate(hadamard_equatorial, TargetTransform("hadamard9"), polar_set(64))
    assert not v1.realizable and not v2.realizable
    assert v1.violation == pytest.approx(0.75, abs=1e-9)
    assert v2.violation == pytest.approx(0.75, abs=1e-9)
    assert v1.witness is not None


def test_plain_hadamard_works_on_the_computational_basis_only():
    basis = listed_set([KET0, KET1])
    v = check_universal_gate(hadamard, TargetTransform("hadamard9"), basis)
    assert v.realizable
    w = check_universal_gate(hadamard, TargetTransform("hadamard9"), state_family("bloch", 64, 42))
    assert not w.realizable


def test_unequal_gate_passes_polar_circle():
    v = check_universal_gate(unequal_gate((0.6, 0.8)), TargetTransform("unequal", 0.6, 0.8),
                             polar_set(64), tol=1e-12)
    assert v.realizable


def test_check_universal_gate_validates_input():
    with pytest.raises(ValueError):
        check_universal_gate(cnot_computational, TargetTransform("hadamard9"), polar_set(4))
    with pytest.raises(ValueError):
        check_universal_gate(hadamard, TargetTransform("cnot"), polar_set(4))


def test_cnot_check_passes_its_own_basis():
    v = check_universal_gate(cnot_computational, TargetTransform("cnot"), listed_set([KET0]))
    assert v.realizable and v.condition == "cnot-rules"
    for q in (Qubit(*v) for v in state_family("bloch", 10, 21).state_vectors):
        assert check_universal_gate(cnot_in_basis(q), TargetTransform("cnot"),
                                    listed_set([q])).realizable


def test_cnot_check_fails_on_the_sphere_with_plus_witness():
    v = check_universal_gate(cnot_computational, TargetTransform("cnot"),
                             state_family("bloch", 64, 42))
    assert not v.realizable
    assert v.violation == pytest.approx(1.0, abs=1e-12)
    # the first anchor state |+> already breaks rule 2
    assert v.witness[0].alpha == pytest.approx(RT2)
    assert v.witness[0].beta == pytest.approx(RT2)
    with pytest.raises(ValueError):
        check_universal_gate(hadamard, TargetTransform("cnot"), state_family("bloch", 4, 42))


# --- witness search and random surveys ------------------------------------


def test_witness_search_polar_family_is_consistent():
    r = witness_search(TargetTransform("hadamard9"), n_samples=256, seed=42, family="polar")
    assert r.violation < 1e-10
    assert r.condition == "pairwise-overlap-consistency"


def test_witness_search_bloch_family_finds_large_violation():
    r = witness_search(TargetTransform("hadamard9"), n_samples=256, seed=42, family="bloch")
    assert r.violation > 0.3
    # deterministic for a fixed seed
    again = witness_search(TargetTransform("hadamard9"), n_samples=256, seed=42, family="bloch")
    assert again.violation == r.violation
    assert again.pair[0].alpha == r.pair[0].alpha


def test_witness_search_equatorial_families():
    # the phase variant is consistent on the equator, the plain one is not
    ok = witness_search(TargetTransform("hadamard10"), n_samples=128, seed=42, family="equatorial")
    assert ok.violation < 1e-10
    bad = witness_search(TargetTransform("hadamard9"), n_samples=128, seed=42, family="equatorial")
    assert bad.violation > 0.5


def test_witness_search_unequal_and_cnot():
    r = witness_search(TargetTransform("unequal", 0.6, 0.8), n_samples=128, seed=42, family="polar")
    assert r.violation < 1e-10
    c = witness_search(TargetTransform("cnot"), n_samples=128, seed=42, family="bloch")
    assert c.violation > 0.3
    with pytest.raises(ValueError):
        witness_search(TargetTransform("hadamard9"), n_samples=1)
    with pytest.raises(ValueError):
        witness_search(TargetTransform("clone"), n_samples=16)
    with pytest.raises(ValueError):
        witness_search(TargetTransform("hadamard9"), n_samples=16, family="spiral")


def test_survey_random_unitaries_finds_no_universal_gate():
    res = survey_random_unitaries(TargetTransform("hadamard9"), state_family("bloch", 50, 7),
                                  n_candidates=200, seed=11)
    assert res.n_candidates == 200 and res.tolerance == 1e-3
    assert res.n_pass == 0
    assert res.min_worst_violation > 0.01
    again = survey_random_unitaries(TargetTransform("hadamard9"), state_family("bloch", 50, 7),
                                    n_candidates=200, seed=11)
    assert again.min_worst_violation == res.min_worst_violation
    with pytest.raises(ValueError):
        survey_random_unitaries(TargetTransform("hadamard9"), state_family("bloch", 8, 42),
                                n_candidates=0)
