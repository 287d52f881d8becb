"""The batched state-family kernels against per-state scalar references.

Each reference below is the straightforward loop over one state (or one
pair) at a time: Qubit objects, np.kron, np.vdot and np.linalg.norm per
vector, and a strict `v > worst` scan.  The batched kernels must give
the same numbers bit for bit, and the same witness on ties.
"""

import itertools
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qnogo.verifier
from qnogo.algebra import abs_squared, haar_unitaries, kron_rows, row_blocks, row_norms, tensor
from qnogo.gates import (
    cnot_computational,
    hadamard,
    hadamard_equatorial,
    hadamard_polar,
    unequal_gate,
)
from qnogo.states import (
    Qubit,
    StateSet,
    complement,
    listed_set,
    polar_set,
    state_family,
)
from qnogo.states import _checked
from qnogo.verifier import (
    MachineSpec,
    check_universal_gate,
    hybrid_machine,
    machine_deviations,
    survey_random_unitaries,
    witness_search,
)
from qnogo.verifier import (
    _CIRCLE_TILE,
    _EXACT_TILE,
    _SCREEN_MARGIN,
    _SCREEN_TILE,
    _STATE_BLOCK,
    _WITNESS_BLOCK,
    TargetTransform,
    _pair_spans,
    _rule_violation,
    _rules,
    _semilinear,
    _target_k,
    _worst_deviation,
    _worst_rule,
    _cell_bound,
    _cell_forms,
    _cell_order,
    _circle_residuals,
    _exact_tiles,
    _gram_tile,
    _mask_lower,
    _real_rows,
    _reduced,
    _screen_terms,
    _swap_bounds,
    _tile_estimate,
    _tri_mask,
    _witness_screen,
)
from references import cnot_in_basis, equatorial_pair, polar_pair

RT2 = 1.0 / np.sqrt(2.0)
FLIP = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)   # the complement flip
CLONER = MachineSpec(np.eye(4)[[0, 3]], np.zeros((2, 4)))   # |i> -> |i>|i>, extended linearly
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
FAMILIES = st.sampled_from(["bloch", "polar", "equatorial"])
LAMS = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)   # both endpoints, and between


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
    return ref_equator(rng.uniform(0.0, 2.0 * np.pi, size=n))


def ref_equator(phi):
    """Equator states at the angles phi and their partners, as the sampled family builds them."""
    e = np.exp(1j * phi) / np.sqrt(2.0)
    h = np.full(len(phi), RT2, dtype=complex)
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
    """a L_0 + b L_1 + conj(a) A_0 + conj(b) A_1 for q = a|0> + b|1>."""
    (a, b), (l0, l1), (a0, a1) = q.vector, m.linear, m.antilinear
    return a * l0 + b * l1 + np.conj(a) * a0 + np.conj(b) * a1


def ref_k(t, v):
    """K v = sqrt(lam) v + sqrt(1 - lam) F conj(v), with the (lam, F) of the target's kind."""
    lam = {"clone": 1.0, "hybrid": t.lam}.get(t.kind, 0.0)
    flip = np.eye(2) if t.kind == "conjugate" else FLIP
    out = np.zeros_like(v)
    if lam > 0.0:
        out = out + np.sqrt(lam) * v
    if lam < 1.0:
        out = out + np.sqrt(1.0 - lam) * (flip @ v.conj())
    return out


def ref_deviation(m, t, q):
    actual = ref_machine_output(m, q)
    actual = actual / np.linalg.norm(actual)
    second = ref_k(t, q.vector)
    sys_ideal = np.kron(q.vector, second / np.linalg.norm(second))
    ket0 = np.eye(len(actual) // 4, dtype=complex)[0]   # the ideal's final ancilla
    overlap_sq = abs(np.vdot(np.kron(sys_ideal, ket0), actual)) ** 2
    return float(min(max(1.0 - overlap_sq, 0.0), 1.0))


def ref_witness(kind, s, p, chunk, a=None, b=None, blocks=None):
    """The row-block scan with a mask on j <= i.

    By default each block of chunk rows meets every column.  Given (lo, hi)
    blocks, each meets the columns lo: only, as in witness_search: a block
    that starts at another column can take other BLAS code, with other last
    bits, when it is small.
    """
    n = len(s)
    cut = blocks is not None
    if blocks is None:
        blocks = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    if kind != "cnot":
        o1 = ref_rules(kind, s, p, a, b)[0][1]
    rules = [("s", "s", "s", "s"), ("s", "p", "s", "p"),
             ("p", "s", "p", "p"), ("p", "p", "p", "s")]
    vecs = {"s": s, "p": p}
    best_v, best_i, best_j = -1.0, 0, 1
    for lo, hi in blocks:
        c0 = lo if cut else 0
        if kind == "cnot":
            g = {k: vecs[k[0]][lo:hi].conj() @ vecs[k[1]][c0:].T for k in ("ss", "sp", "ps", "pp")}
            block = np.zeros((hi - lo, n - c0))
            for c1, t1, c1o, t1o in rules:
                for c2, t2, c2o, t2o in rules:
                    gap = np.abs(g[c1 + c2] * g[t1 + t2] - g[c1o + c2o] * g[t1o + t2o])
                    np.maximum(block, gap, out=block)
        else:
            block = np.abs(s[lo:hi].conj() @ s[c0:].T - o1[lo:hi].conj() @ o1[c0:].T)
        cols = np.arange(c0, n)[np.newaxis, :]
        rows = np.arange(lo, hi)[:, np.newaxis]
        block = np.where(cols > rows, block, -1.0)
        i_local, j = divmod(int(np.argmax(block)), n - c0)
        if block[i_local, j] > best_v:
            best_v, best_i, best_j = float(block[i_local, j]), lo + i_local, c0 + j
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
    target = TargetTransform(kind, a, b)
    choice = draw(st.sampled_from(["H", "HP", "HE", "UG", "haar"]))
    if choice == "haar":
        candidate = haar_unitaries(1, seed=draw(SEEDS))[0]
    elif choice == "UG":
        candidate = unequal_gate((0.6, 0.8))
    else:
        candidate = {"H": hadamard, "HP": hadamard_polar, "HE": hadamard_equatorial}[choice]
    return candidate, target, kind, (a, b)


# states per family across the 1024-state block seams
SEAMS = st.sampled_from([1, 2, 1023, 1024, 1025, 2048, 2049, 3 * 1024 + 7])


# --- families ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(name=FAMILIES, n=st.integers(1, 300), seed=SEEDS)
# the bloch anchors cut short (n = 1, 2) and followed by draws (3), and the 1024-state seams
@example(name="bloch", n=1, seed=42)
@example(name="bloch", n=2, seed=42)
@example(name="bloch", n=3, seed=42)
@example(name="bloch", n=1024, seed=0)
@example(name="bloch", n=1025, seed=42)
@example(name="bloch", n=2049, seed=7)
@example(name="polar", n=1025, seed=0)
@example(name="equatorial", n=2049, seed=0)
def test_grid_sets_equal_their_per_state_pairs(name, n, seed):
    family = state_family(name, n, seed)
    pairs = ref_pairs(name, n, seed)
    if name == "polar":   # the survey's builder
        assert np.array_equal(polar_set(n).state_vectors, family.state_vectors)
    assert np.array_equal(family.state_vectors, np.array([q.vector for q, _ in pairs]))
    assert np.array_equal(family.partner_vectors, np.array([r.vector for _, r in pairs]))
    assert [family.pair(i) for i in range(len(family))] == pairs
    assert len(family) == n


@settings(max_examples=40, deadline=None)
@given(name=FAMILIES, n=st.integers(1, 300), seed=SEEDS)
# sampled bloch draws carry no anchors, at any size
@example(name="bloch", n=1, seed=42)
@example(name="bloch", n=2, seed=42)
@example(name="bloch", n=3, seed=42)
@example(name="bloch", n=1025, seed=42)
@example(name="bloch", n=2049, seed=7)
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
        type(family)([[np.nan, 0.0]], [[0.0, 1.0]])
    with pytest.raises(ValueError, match="normalized"):
        type(family)([[1.0, 1.0]], [[0.0, 1.0]])
    with pytest.raises(ValueError, match="unknown family"):
        state_family("spiral", 4)


# --- rule checks ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["hadamard9", "hadamard10", "unequal", "cnot"]),
       weights=unit_weights(), name=FAMILIES, n=SEAMS, seed=SEEDS)
def test_the_rule_table_equals_the_per_state_reference(kind, weights, name, n, seed):
    a, b = weights if kind == "unequal" else (None, None)
    target = TargetTransform(kind, a, b)
    family = state_family(name, n, seed, sampled=name == "bloch" or seed % 2 == 1)
    s, p = family.state_vectors, family.partner_vectors
    expected = [ref_rules(kind, s[i], p[i], target.a, target.b) for i in range(n)]
    rules = list(_rules(target, s, p))
    assert len(rules) == len(expected[0])
    for r, pair in enumerate(rules):
        for k, got in enumerate(pair):
            assert got.tobytes() == np.array([e[r][k] for e in expected]).tobytes()


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(ANY_FLOAT, min_size=8, max_size=8), min_size=1, max_size=40))
def test_the_cnot_krons_keep_the_bits_of_np_kron_on_any_floats(rows):
    # signed zeros, infinities, NaNs and subnormals included: a product of repeated and tiled
    # factor rows rounds as np.kron does, and is NaN where it is; which NaN is not pinned, as a
    # family's rows are finite
    v = np.array(rows).view(complex)
    s, p = v[:, :2], v[:, 2:]
    with np.errstate(all="ignore"):
        expected = [ref_rules("cnot", s[i], p[i]) for i in range(len(v))]
        rules = list(_rules(TargetTransform("cnot"), s, p))
    for r, pair in enumerate(rules):
        for k, got in enumerate(pair):
            got, ref = got.view(float), np.array([e[r][k] for e in expected]).view(float)
            nan = np.isnan(ref)
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == ref[~nan].tobytes()


@settings(max_examples=60, deadline=None)
@given(case=qubit_gate_cases(), name=FAMILIES, n=st.integers(1, 400), seed=SEEDS)
def test_gate_check_matches_the_scalar_reference(case, name, n, seed):
    candidate, target, kind, (a, b) = case
    pairs = ref_pairs(name, n, seed)
    values = [ref_rule_violation(candidate, ref_rules(kind, q.vector, r.vector, a, b))
              for q, r in pairs]
    worst, index = ref_worst(values)
    family = state_family(name, n, seed)
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
    family = state_family(name, n, seed)
    verdict = check_universal_gate(candidate, TargetTransform("cnot"), family)
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
    target = TargetTransform(kind)
    family = state_family(name, n)
    verdict = check_universal_gate(gate, target, family)
    assert verdict.violation == worst
    assert verdict.witness in (None, pairs[index])
    assert verdict.realizable or verdict.witness == pairs[index]


def test_qubit_lists_are_paired_with_their_complements():
    qs = [q for q, _ in ref_pairs("bloch", 40, 5)]
    verdict = check_universal_gate(hadamard, TargetTransform("hadamard9"), listed_set(qs))
    values = [ref_rule_violation(hadamard, ref_rules("hadamard9", q.vector,
                                                     complement(q).vector)) for q in qs]
    worst, index = ref_worst(values)
    assert verdict.violation == worst
    assert verdict.witness == (qs[index], complement(qs[index]))
    with pytest.raises(ValueError):
        check_universal_gate(hadamard, TargetTransform("hadamard9"), listed_set([]))


# --- machine deviations ------------------------------------------------------------


# the second register of each basis output: the copy |i>, the complement F|i> and the conjugate
SECONDS = {"clone": np.eye(2), "complement": FLIP.T, "conjugate": np.eye(2)}


@st.composite
def machine_targets(draw):
    kind = draw(st.sampled_from(["clone", "complement", "conjugate", "hybrid"]))
    return TargetTransform(kind, lam=draw(LAMS) if kind == "hybrid" else None)


@st.composite
def machine_cases(draw):
    """A machine and a machine target: the copying, complementing or conjugating rows as a
    linear or an antilinear part, with or without the ancilla tags |0> on |0>'s branch and
    |1> on |1>'s; or a hybrid, hybrid_machine's with one or two ancilla levels, or a tagged
    one built from its two weighted parts; or a dense isometry as a linear or an antilinear
    part, whose basis outputs, a QR of a complex Gaussian, mix both amplitudes in every
    column."""
    if draw(st.integers(0, 4)) == 0:
        d, rng = draw(st.sampled_from([1, 2, 4])), np.random.default_rng(draw(SEEDS))
        q = np.linalg.qr(rng.standard_normal((4 * d, 2)) + 1j * rng.standard_normal((4 * d, 2)))[0]
        part, zero = q.T, np.zeros((2, 4 * d))
        linear = draw(st.booleans())
        return MachineSpec(*((part, zero) if linear else (zero, part))), draw(machine_targets())
    tags = draw(st.sampled_from([None, np.eye(2, dtype=complex)]))

    def rows(kind):
        out = kron_rows(np.eye(2, dtype=complex), SECONDS[kind].astype(complex))
        return out if tags is None else kron_rows(out, tags)
    kind = draw(st.sampled_from(["clone", "complement", "conjugate", "hybrid"]))
    if kind == "hybrid":
        lam = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0))
        m = (hybrid_machine(lam, draw(st.sampled_from([1, 2]))) if tags is None else
             MachineSpec(np.sqrt(lam) * rows("clone"), np.sqrt(1.0 - lam) * rows("complement")))
        return m, TargetTransform("hybrid", lam=lam)
    part, zero = rows(kind), np.zeros((2, 4 if tags is None else 8))
    linear = draw(st.booleans())
    target = TargetTransform(draw(st.sampled_from(["clone", "complement", "conjugate"])))
    return MachineSpec(*((part, zero) if linear else (zero, part))), target


@settings(max_examples=60, deadline=None)
@given(case=machine_cases(), name=FAMILIES, n=st.integers(1, 300), seed=SEEDS)
def test_machine_deviations_match_the_scalar_reference(case, name, n, seed):
    m, t = case
    pairs = ref_pairs(name, n, seed)
    family = state_family(name, n, seed)
    batched = machine_deviations(m, t, family)
    expected = [ref_deviation(m, t, q) for q, _ in pairs]
    assert batched.tolist() == expected
    assert int(np.argmax(batched)) == ref_worst(expected)[1]
    q = pairs[-1][0]
    assert machine_deviations(m, t, listed_set([q])).tolist() == expected[-1:]


# --- per-state blocks ------------------------------------------------------------------


def seam_family(name, n, seed):
    """A named family of n states, or for "listed" n sphere draws paired with complements."""
    if name == "listed":
        return listed_set(q for q, _ in ref_pairs("bloch", n, seed))
    return state_family(name, n, seed)


@settings(max_examples=60, deadline=None)
@given(block=st.sampled_from([1, 3, 7]), size=st.sampled_from(["1", "B-1", "B", "B+1", "2B+1"]),
       name=FAMILIES | st.just("listed"), seed=SEEDS, gate=qubit_gate_cases(),
       machine=machine_cases())
def test_per_state_blocks_change_no_bit(block, size, name, seed, gate, machine):
    n = max(1, {"1": 1, "B-1": block - 1, "B": block, "B+1": block + 1,
                "2B+1": 2 * block + 1}[size])
    family = seam_family(name, n, seed)
    candidate, target = gate[:2]
    checks = [lambda: check_universal_gate(candidate, target, family),
              lambda: check_universal_gate(haar_unitaries(1, dim=4, seed=seed)[0],
                                           TargetTransform("cnot"), family),
              lambda: machine_deviations(*machine, family)]
    whole = [check() for check in checks]   # n <= 15 states: one block of 1024
    with mock.patch("qnogo.verifier._STATE_BLOCK", block):
        blocked = [check() for check in checks]
    for one, many in zip(whole[:2], blocked[:2]):
        assert np.float64(many.violation).tobytes() == np.float64(one.violation).tobytes()
        assert many.witness == one.witness
    assert blocked[2].tobytes() == whole[2].tobytes()


def block_peak(run, make, n):
    """The tracemalloc peak of run on make(n), built beforehand, and what run returns."""
    args = make(n)
    run(make(4))   # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        out = run(args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("check", [
    *[lambda f, t=target: check_universal_gate(hadamard, t, f)
      for target in (TargetTransform("hadamard9"), TargetTransform("hadamard10"),
                     TargetTransform("unequal", 0.6, 0.8))],
    lambda f: check_universal_gate(cnot_computational, TargetTransform("cnot"), f),
    lambda f: machine_deviations(CLONER, TargetTransform("clone"), f),
    lambda f: machine_deviations(hybrid_machine(0.5, 2), TargetTransform("hybrid", lam=0.5), f)],
    ids=["hadamard9", "hadamard10", "unequal", "cnot", "clone", "hybrid-ancilla"])
def test_the_per_state_kernels_hold_one_block_whatever_the_size(check):
    # one block of temporaries at every size, so only the per-state output grows with n; whole
    # stacks peaked at 9.4 MB for the cnot rules at 8192 states, against 1.2 MB at 1024
    block = qnogo.verifier._STATE_BLOCK
    bloch = lambda n: state_family("bloch", n, 0)   # noqa: E731
    peak = block_peak(check, bloch, block)[0]
    assert block_peak(check, bloch, 8 * block)[0] <= 1.1 * peak + 8 * 8 * block


def test_the_witness_terms_hold_one_block_whatever_the_size():
    # _squares writes each block's rows into its output and _reduced fits them a block at a
    # time, so past one block only the squares of (s, o1) and (s, -o1), 16 reals a row, and
    # their fits grow with n
    def rows(n):
        s, p = ref_sampled("bloch", n, 0)
        return s, p, ref_rules("hadamard9", s, p)[0][1]

    block = qnogo.verifier._STATE_BLOCK
    terms = lambda args: _screen_terms(*args)   # noqa: E731
    peak, n = block_peak(terms, rows, block)[0], 8 * block
    wide, [(fits,)] = block_peak(terms, rows, n)
    assert wide <= 1.1 * peak + 2 * 16 * 8 * n + sum(x.nbytes for x in fits)


# --- screened worst-state reductions -------------------------------------------------


def exhaustive_rule(candidate, target, s, p):
    """(violation, index) of the unscreened scan: every state's exact violation, np.argmax."""
    candidate = np.asarray(candidate, dtype=complex)
    v = np.concatenate([_rule_violation(candidate, _rules(target, s[lo:hi], p[lo:hi]))
                        for lo, hi in row_blocks(len(s), _STATE_BLOCK)])
    i = int(np.argmax(v))
    return v[i], i


def exhaustive_deviation(m, t, family):
    deviations = machine_deviations(m, t, family)
    i = int(np.argmax(deviations))
    return deviations[i], i


def same_bits(got, expected):
    assert np.float64(got[0]).tobytes() == np.float64(expected[0]).tobytes()
    assert got[1] == expected[1]


def spy_rows(monkeypatch, name):
    """The number of states each call of the named verifier kernel gets, as a list."""
    kernel, sizes = getattr(qnogo.verifier, name), []

    def spy(*args):
        out = kernel(*args)
        sizes.append(len(out) if name != "_deviations" else len(args[1]))
        return out
    monkeypatch.setattr(qnogo.verifier, name, spy)
    return sizes


@settings(max_examples=40, deadline=None)
@given(gate=qubit_gate_cases(), name=FAMILIES, n=SEAMS, seed=SEEDS)
def test_the_screened_gate_reduction_equals_the_exhaustive_scan(gate, name, n, seed):
    candidate, target = gate[:2]
    family = state_family(name, n, seed, sampled=name == "bloch" or seed % 2 == 1)
    s, p = family.state_vectors, family.partner_vectors
    same_bits(_worst_rule(np.asarray(candidate, complex), target, s, p),
              exhaustive_rule(candidate, target, s, p))
    cnot = haar_unitaries(1, dim=4, seed=seed)[0]
    target = TargetTransform("cnot")
    same_bits(_worst_rule(cnot, target, s, p), exhaustive_rule(cnot, target, s, p))


@pytest.mark.parametrize("n", [1024, 1025, 2049, 4096])
@pytest.mark.parametrize("gate,kind,name", [
    (hadamard_polar, "hadamard9", "polar"), (hadamard_equatorial, "hadamard10", "equatorial"),
    (hadamard_polar, "hadamard9", "equatorial"), (unequal_gate((0.6, 0.8)), "hadamard10", "polar")])
def test_tie_heavy_circles_keep_the_first_worst_state(gate, kind, name, n):
    # REALIZABLE circles: every violation is rounding, most states tie within the slack and
    # whole blocks run exactly; on the other circle one state reaches 1.0 and many come close
    target = TargetTransform(kind)
    family = state_family(name, n)
    s, p = family.state_vectors, family.partner_vectors
    expected = exhaustive_rule(gate, target, s, p)
    same_bits(_worst_rule(np.asarray(gate, complex), target, s, p), expected)
    verdict = check_universal_gate(gate, target, family)
    assert np.float64(verdict.violation).tobytes() == np.float64(expected[0]).tobytes()
    assert verdict.witness in (None, family.pair(expected[1]))


@settings(max_examples=20, deadline=None)
@given(ties=st.integers(1, 3000), n=st.integers(1, 3000), seed=SEEDS)
def test_a_run_of_ties_then_random_states_equals_the_exhaustive_scan(ties, n, seed):
    # HP meets the polar rules to rounding: a tie-heavy run turns the estimates off, and the
    # random states after it turn them on again
    polar = state_family("polar", ties)
    s2, p2 = ref_sampled("bloch", n, seed)
    s, p = np.vstack([polar.state_vectors, s2]), np.vstack([polar.partner_vectors, p2])
    candidate = np.asarray(hadamard_polar, complex)
    same_bits(_worst_rule(candidate, TargetTransform("hadamard9"), s, p),
              exhaustive_rule(candidate, TargetTransform("hadamard9"), s, p))


def test_whole_blocks_of_ties_skip_the_estimate_until_the_ties_end(monkeypatch):
    polar = state_family("polar", 2048)
    s2, p2 = ref_sampled("bloch", 4096, 0)
    s, p = np.vstack([polar.state_vectors, s2]), np.vstack([polar.partner_vectors, p2])
    estimated = spy_rows(monkeypatch, "_rule_estimate")
    exact = spy_rows(monkeypatch, "_rule_violation")
    _worst_rule(np.asarray(hadamard_polar, complex), TargetTransform("hadamard9"), s, p)
    # the first polar block is estimated, the second and the first random one are not; the
    # three random blocks after them are, and few of their states run exactly
    assert estimated == [1024] * 4
    assert exact[:3] == [1024] * 3 and sum(exact[3:]) < 100


def test_a_lone_screened_state_is_computed_twice_over(monkeypatch):
    # a random gate on random states: one state per block reaches the top, and its doubled
    # row keeps the bits it has in the whole block
    family = state_family("bloch", 5000, 3)
    s, p = family.state_vectors, family.partner_vectors
    expected = exhaustive_rule(hadamard, TargetTransform("hadamard9"), s, p)
    sizes = spy_rows(monkeypatch, "_rule_violation")
    same_bits(_worst_rule(np.asarray(hadamard, complex), TargetTransform("hadamard9"), s, p),
              expected)
    assert 2 in sizes and sum(sizes) < len(s) // 10


@settings(max_examples=40, deadline=None)
@given(at=st.integers(0, 2100), n=SEAMS, seed=SEEDS, small=st.sampled_from([0.0, 1e-13, 5e-13]),
       candidate=st.sampled_from(["projector", "zero", "tiny", "huge", "singular"]))
def test_a_vanished_vector_reads_one_as_in_the_exhaustive_scan(at, n, seed, small, candidate):
    # the screen cannot bound a state whose image vanishes, or nearly, or whose candidate is
    # out of scale; such states run exactly, where they read 1.0 (or NaN past overflow)
    C = {"projector": [[1.0, 0.0], [0.0, 0.0]], "zero": np.zeros((2, 2)),
         "tiny": 1e-13 * np.eye(2), "huge": 1e160 * hadamard,
         "singular": [[1.0, 1.0], [1.0, 1.0 + 1e-13]]}[candidate]
    s, p = ref_sampled("bloch", n, seed)
    big = np.sqrt(1.0 - small * small)
    s[min(at, n - 1)] = [small, big]   # the projector's image of it has norm small < 1e-12
    p[min(at, n - 1)] = [-big, small]
    with np.errstate(over="ignore" if candidate == "huge" else "raise"):   # as exhaustively
        expected = exhaustive_rule(C, TargetTransform("hadamard9"), s, p)
        got = _worst_rule(np.asarray(C, complex), TargetTransform("hadamard9"), s, p)
    same_bits(got, expected)
    if candidate != "huge":
        assert got[0] == 1.0


@settings(max_examples=40, deadline=None)
@given(case=machine_cases(), name=FAMILIES | st.just("listed"), n=SEAMS, seed=SEEDS)
def test_the_screened_machine_reduction_equals_the_exhaustive_scan(case, name, n, seed):
    m, t = case
    family = seam_family(name, n, seed)
    same_bits(_worst_deviation(m, t, family), exhaustive_deviation(m, t, family))


def test_the_machine_reduction_computes_few_states(monkeypatch):
    family = state_family("bloch", 10_000, 0)
    expected = exhaustive_deviation(CLONER, TargetTransform("clone"), family)
    sizes = spy_rows(monkeypatch, "_deviations")
    same_bits(_worst_deviation(CLONER, TargetTransform("clone"), family), expected)
    assert sum(sizes) < len(family) // 10


@settings(max_examples=60, deadline=None)
@given(case=machine_cases(), name=FAMILIES | st.just("listed"), n=SEAMS, seed=SEEDS)
def test_every_k_map_and_machine_output_keeps_the_norm_of_the_state(case, name, n, seed):
    # |K v| = 1 for every machine target and weight, and every extension's outputs are unit
    # rows, so no ideal or machine output that machine_deviations divides by can vanish
    m, t = case
    s = seam_family(name, n, seed).state_vectors
    assert np.max(np.abs(row_norms(_semilinear(_target_k(t), s)) - 1.0)) <= 1e-15
    assert np.max(np.abs(row_norms(_semilinear((m.linear, m.antilinear), s)) - 1.0)) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(t=machine_targets(), name=FAMILIES | st.just("listed"), n=SEAMS, seed=SEEDS)
def test_the_k_parts_map_every_state_as_the_scalar_k_does(t, name, n, seed):
    # the one exact evaluator of machine parts gives K v with the bits of the scalar formula
    s = seam_family(name, n, seed).state_vectors
    expected = np.array([ref_k(t, row) for row in s])
    assert np.array_equal(_semilinear(_target_k(t), s).view(np.int64), expected.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(lam=LAMS, d=st.sampled_from([1, 2, 4]))
def test_hybrid_machine_is_the_hybrid_k_on_the_basis(lam, d):
    t, m, ket0 = TargetTransform("hybrid", lam=lam), hybrid_machine(lam, d), np.eye(d)[0]
    for e, out in zip(np.eye(2, dtype=complex), m.linear + m.antilinear):
        assert np.array_equal(out, tensor(e, ref_k(t, e), ket0))


def ref_checked(v):
    """The message _checked gives for the rows of v, or None: Qubit's norm on every row."""
    v = np.asarray(v, dtype=complex)
    norm = abs_squared(v[:, 0]) + abs_squared(v[:, 1])
    bad = np.flatnonzero(np.abs(norm - 1.0) > 1e-12)
    return f"qubit amplitudes are not normalized (|.|^2 = {float(norm[bad[0]])!r})" \
        if bad.size else None


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), seed=SEEDS, ulps=st.lists(st.integers(-40, 40), min_size=1),
       side=st.sampled_from([-1.0, 1.0]))
def test_norm_checks_at_the_bound_refuse_as_qubit_does(n, seed, ulps, side):
    # norms a few ulps either side of 1 +- 1e-12, where plain squares and Qubit's norm may
    # round apart: the rows near the bound take Qubit's norm, and the message its bits
    s, _ = ref_sampled("bloch", n, seed)
    for k, ulp in enumerate(ulps):
        scale = np.sqrt(1.0 + side * 1e-12 + ulp * 2.0 ** -52)
        s[k % n] *= scale
    expected = ref_checked(s)
    if expected is None:
        assert np.array_equal(_checked(s), s)
    else:
        with pytest.raises(ValueError) as refused:
            _checked(s)
        assert str(refused.value) == expected


# --- witness scan ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["hadamard9", "hadamard10", "unequal", "cnot"]),
       weights=unit_weights(), name=FAMILIES, seed=SEEDS,
       n=st.integers(2, 600), chunk=st.sampled_from([16, 64, 256]))
def test_witness_search_matches_the_full_width_scan(kind, weights, name, seed, n, chunk):
    if kind == "cnot":
        n = min(n, 150)
    a, b = weights
    target = witness_target(kind, a, b)
    s, p = ref_sampled(name, n, seed)
    violation, i, j = ref_witness(kind, s, p, chunk, a, b)
    with mock.patch("qnogo.verifier._WITNESS_BLOCK", chunk):
        result = witness_search(target, n, seed=seed, family=name)
    assert result.violation == violation
    assert result.pair == (Qubit(*s[i]), Qubit(*s[j]))


def witness_target(kind, a, b):
    return TargetTransform(kind, a, b) if kind == "unequal" else TargetTransform(kind)


# Families on which every pair ties near 0, so each block is certified and
# the first pair must win across blocks: polar hadamard9, equatorial
# hadamard10 and real weights on polar.
@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["hadamard9", "hadamard10", "unequal", "cnot"]),
       weights=unit_weights(), name=FAMILIES, seed=SEEDS,
       n=st.integers(2, 300), chunk=st.sampled_from([1, 2, 3, 5, 8]))
@example(kind="hadamard9", weights=(1.0, 0.0), name="polar", seed=0, n=300, chunk=8)
@example(kind="hadamard10", weights=(1.0, 0.0), name="equatorial", seed=1, n=257, chunk=5)
@example(kind="unequal", weights=(0.6, 0.8), name="polar", seed=2, n=200, chunk=3)
@example(kind="cnot", weights=(1.0, 0.0), name="polar", seed=3, n=120, chunk=1)
@example(kind="hadamard9", weights=(1.0, 0.0), name="polar", seed=0, n=117, chunk=1)   # a real
# row alone goes to gemv: summed unfused, as zgemv sums it, or a last bit changes here
@example(kind="unequal", weights=(-0.9364566872907963, -0.35078322768961984), name="bloch",
         seed=7753470, n=6, chunk=2)   # the full-width product differs in the last bit
def test_screened_witness_search_equals_the_exhaustive_scan(kind, weights, name, seed, n,
                                                            chunk):
    if kind == "cnot":
        n = min(n, 150)
    a, b = weights
    s, p = ref_sampled(name, n, seed)
    # the exhaustive scan of the same blocks, cut at the same columns
    violation, i, j = ref_witness(kind, s, p, chunk, a, b, list(row_blocks(n, chunk)))
    with mock.patch("qnogo.verifier._WITNESS_BLOCK", chunk):
        result = witness_search(witness_target(kind, a, b), n, seed=seed, family=name)
    assert result.violation == violation
    assert result.pair == (Qubit(*s[i]), Qubit(*s[j]))


@contextmanager
def gram_rows():
    """The dtypes (conjugated rows, columns, buffer) of the _gram_tile calls within, as a set.
    Conjugated rows that share memory with the columns fail at once: float rows conjugated
    by x.conj() are x itself, and numpy sends a square tile x x^T to syrk."""
    tile, dtypes = qnogo.verifier._gram_tile, set()

    def spy(xc, y, c0, c1, buf):
        assert not np.shares_memory(xc, y)
        dtypes.add((xc.dtype, y.dtype, buf.dtype))
        return tile(xc, y, c0, c1, buf)
    with mock.patch.object(qnogo.verifier, "_gram_tile", spy):
        yield dtypes


REAL = {(np.dtype(float),) * 3}
COMPLEX = {(np.dtype(complex),) * 3}


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("n", [13, 65, 319, 1025])
@pytest.mark.parametrize("kind,a,b", [("hadamard9", None, None), ("unequal", 0.6, 0.8),
                                      ("cnot", None, None)])
def test_real_families_scan_real_tiles_with_the_bits_of_the_complex_scan(kind, a, b, n, seed):
    # sampled polar states, and hadamard9's and real weights' outputs, are real: the exact
    # pass runs on float rows and finds the complex scan's pair and violation, ties included
    s, p = ref_sampled("polar", n, seed)
    violation, i, j = ref_witness(kind, s, p, None, a, b, list(row_blocks(n, _WITNESS_BLOCK)))
    with gram_rows() as dtypes:
        result = witness_search(witness_target(kind, a, b), n, seed=seed, family="polar")
    assert np.float64(result.violation).tobytes() == np.float64(violation).tobytes()
    assert result.pair == (Qubit(*s[i]), Qubit(*s[j]))
    assert dtypes == REAL


@pytest.mark.parametrize("scan,expected", [
    (lambda: _circle_residuals("polar", 300), REAL),
    (lambda: _circle_residuals("equatorial", 300), COMPLEX),
    (lambda: witness_search(TargetTransform("hadamard9"), 300, 0, "bloch"), COMPLEX),
    (lambda: witness_search(TargetTransform("cnot"), 300, 0, "bloch"), COMPLEX),
    (lambda: witness_search(TargetTransform("cnot"), 300, 0, "equatorial"), COMPLEX),
    # polar states, but complex weights give complex outputs
    (lambda: witness_search(TargetTransform("unequal", 0.6, 0.8j), 300, 0, "polar"), COMPLEX)])
def test_only_real_families_take_real_tiles(scan, expected):
    with gram_rows() as dtypes:
        scan()
    assert dtypes == expected


TILED_SCANS = [
    ("hadamard9", "bloch", 0, 300, 8, 16), ("hadamard10", "equatorial", 1, 257, 5, 16),
    ("unequal", "bloch", 4, 301, 16, 32), ("cnot", "bloch", 3, 120, 1, 16),
    ("cnot", "polar", 5, 150, 7, 32), ("cnot", "equatorial", 6, 97, 4, 16),
    # the cnot pass computes only the cells the screen keeps, on the tie-heavy families too
    ("cnot", "polar", 8, 200, 20, 16), ("cnot", "polar", 9, 161, 40, 32),
    ("cnot", "equatorial", 10, 200, 33, 16), ("cnot", "equatorial", 11, 129, 16, 32),
    # ties across tiles: a later tile of a block holds the same largest gap in an earlier row
    ("hadamard9", "polar", 17, 249, 5, 32), ("hadamard9", "polar", 29, 146, 20, 32),
    ("unequal", "polar", 3, 286, 40, 32),
    # six equator points and their antipodes: the six antipodal pairs all have cnot gap 1, so
    # the top squared gaps lie within 1e-14 of each other and only the margin keeps the first
    ("cnot", "antipodes", 0, 12, 4, 16),
    # the rows 0:8 reach the floor in two adjacent tiles, a run longer than an exact tile
    ("cnot", "antipodes-run", 0, 64, 8, 8),
    # and in two runs of tiles with two tiles between them
    ("cnot", "antipodes-gap", 0, 64, 8, 8)]


def antipodes(order):
    """Equator points 0.5 apart, then their antipodes: the k-th is that of point order[k]."""
    angles = np.arange(len(order)) * 0.5
    return ref_equator(np.concatenate([angles, angles[order] + np.pi]))


HAND_BUILT = {
    "antipodes": lambda n: antipodes(np.arange(n // 2)),
    # the antipodes of points 0-7 and 8-15 alternate over columns 32:48
    "antipodes-run": lambda n: antipodes(np.r_[np.arange(16).reshape(2, 8).T.ravel(),
                                               16:n // 2]),
    # those of points 0-3 open the second half and those of points 4-7 close it
    "antipodes-gap": lambda n: antipodes(np.r_[0:4, 8:n // 2, 4:8]),
}


def check_tiled_scan(monkeypatch, kind, name, seed, n, chunk, screen_tile, exact_tile):
    # tiles far narrower than the family, so each certified block spans several of them
    monkeypatch.setattr("qnogo.verifier._SCREEN_TILE", screen_tile)
    monkeypatch.setattr("qnogo.verifier._EXACT_TILE", exact_tile)
    monkeypatch.setattr("qnogo.verifier._WITNESS_BLOCK", chunk)
    a, b = 0.6, 0.8
    if name in HAND_BUILT:   # witness_search is handed it in place of a draw
        s, p = HAND_BUILT[name](n)
        monkeypatch.setattr("qnogo.verifier.state_family",
                            lambda *args, **kwargs: StateSet(s, p))
    else:
        s, p = ref_sampled(name, n, seed)
    violation, i, j = ref_witness(kind, s, p, chunk, a, b, list(row_blocks(n, chunk)))
    result = witness_search(witness_target(kind, a, b), n, seed=seed, family=name)
    assert result.violation == violation
    assert result.pair == (Qubit(*s[i]), Qubit(*s[j]))


@pytest.mark.parametrize("kind,name,seed,n,chunk,tile", TILED_SCANS)
def test_the_exact_pass_in_column_tiles_equals_the_exhaustive_scan(monkeypatch, kind, name,
                                                                   seed, n, chunk, tile):
    check_tiled_scan(monkeypatch, kind, name, seed, n, chunk, tile, tile)


@pytest.mark.parametrize("exact", ["twice", "half"])
@pytest.mark.parametrize("kind,name,seed,n,chunk,tile", TILED_SCANS)
def test_exact_tiles_wider_or_narrower_than_the_estimate_tiles_change_no_bit(
        monkeypatch, kind, name, seed, n, chunk, tile, exact):
    # an exact tile is skipped unless an estimate tile it meets reaches the floor, so each
    # exact tile must be matched to every estimate tile it overlaps, not only to aligned ones
    check_tiled_scan(monkeypatch, kind, name, seed, n, chunk, tile,
                     {"twice": 2 * tile, "half": tile // 2}[exact])


def screen_tiles(kind, s, p, blocks, a=0.6, b=0.8):
    """The screen's tiles as witness_search computes them, one list per row block, without the
    padding past the block's last tile."""
    o1 = None if kind == "cnot" else ref_rules(kind, s, p, a, b)[0][1]
    order = _cell_order(np.hstack([s.real, s.imag]))
    terms = _screen_terms(s[order], p[order], None if o1 is None else o1[order])
    n, tile = len(s), qnogo.verifier._SCREEN_TILE
    return [list(tiles[:len(list(row_blocks(n - lo, tile)))])
            for (lo, _), tiles in zip(blocks, _witness_screen(terms, order, blocks))]


def screened_runs(kind, s, p, chunk, tile):
    """Per row block of a scan with tile-column estimate tiles: the lengths, in tiles, of its
    runs of adjacent tiles at the floor, and whether every tile is at the floor."""
    with mock.patch("qnogo.verifier._SCREEN_TILE", tile):
        squares = screen_tiles(kind, s, p, list(row_blocks(len(s), chunk)))
    floor = max(map(max, squares)) - _SCREEN_MARGIN
    return [([len(list(run)) for hit, run in itertools.groupby(t >= floor for t in tiles) if hit],
             min(tiles) >= floor) for tiles in squares]


def test_the_hand_built_scans_hold_a_long_run_and_a_gap():
    # the two cases are there for these shapes; a scan whose every tile ties shows neither
    for name, shape in (("antipodes-run", lambda runs, every: max(runs, default=0) >= 2
                         and not every), ("antipodes-gap", lambda runs, every: len(runs) >= 2)):
        (kind, _, _, n, chunk, tile), = [c for c in TILED_SCANS if c[1] == name]
        assert any(shape(*block) for block in screened_runs(kind, *HAND_BUILT[name](n),
                                                            chunk, tile))


@settings(max_examples=100, deadline=None)
@given(hits=st.lists(st.booleans(), min_size=1, max_size=40), tile=st.sampled_from([4, 8]),
       exact=st.sampled_from([2, 4, 8, 12, 32]), lone=st.booleans())
def test_exact_tiles_cut_each_run_of_screened_tiles_from_its_start(hits, tile, exact, lone):
    width = tile * len(hits) + lone   # row_blocks joins a lone last column to the last tile
    with mock.patch("qnogo.verifier._SCREEN_TILE", tile), \
            mock.patch("qnogo.verifier._EXACT_TILE", exact), \
            mock.patch("qnogo.verifier._WITNESS_BLOCK", width):   # one row block, 0:width
        pieces = [(c0, c1) for _, _, c0, c1
                  in _exact_tiles(width, [[1.0 if hit else 0.0 for hit in hits]], 0.5)]
        estimate = list(row_blocks(width, tile))
    kept = [col for (e0, e1), hit in zip(estimate, hits) if hit for col in range(e0, e1)]
    assert [col for c0, c1 in pieces for col in range(c0, c1)] == kept
    edges, starts = {e0 for e0, _ in estimate}, []
    for k, (c0, c1) in enumerate(pieces):
        if k == 0 or pieces[k - 1][1] != c0:   # a run starts on an estimate tile's edge
            assert c0 in edges
            starts.append(c0)
        else:   # and goes on in pieces exactly as wide as the cap, but for its last one
            assert pieces[k - 1][1] - pieces[k - 1][0] == exact
        assert c1 - c0 <= exact + 1 and (c0 - starts[-1]) % exact == 0
    assert len(starts) == sum(1 for hit, _ in itertools.groupby(hits) if hit)


def ref_gaps(kind, s, p, a=None, b=None):
    """Every pair's exact gap, as ref_witness computes it, -1 where j <= i."""
    if kind == "cnot":
        vecs = {"s": s, "p": p}
        g = {k: vecs[k[0]].conj() @ vecs[k[1]].T for k in ("ss", "sp", "ps", "pp")}
        rules = [("s", "s", "s", "s"), ("s", "p", "s", "p"),
                 ("p", "s", "p", "p"), ("p", "p", "p", "s")]
        gaps = np.max([np.abs(g[c1 + c2] * g[t1 + t2] - g[c1o + c2o] * g[t1o + t2o])
                       for c1, t1, c1o, t1o in rules for c2, t2, c2o, t2o in rules], axis=0)
    else:
        o1 = ref_rules(kind, s, p, a, b)[0][1]
        gaps = np.abs(s.conj() @ s.T - o1.conj() @ o1.T)
    return np.where(np.tri(len(s), dtype=bool), -1.0, gaps)


def tile_maxima(gaps, blocks, tile):
    """The largest squared exact gap of each block's column tiles, from its first row."""
    n, squares = len(gaps), np.where(gaps < 0.0, -1.0, gaps * gaps)
    return [[float(np.max(squares[lo:hi, lo + c0:lo + c1], initial=-1.0))
             for c0, c1 in row_blocks(n - lo, tile)] for lo, hi in blocks]


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["hadamard9", "hadamard10", "unequal", "cnot"]),
       weights=unit_weights(), name=FAMILIES, seed=SEEDS,
       n=st.integers(2, 300), chunk=st.sampled_from([1, 2, 3, 5, 8, 64]))
def test_the_screen_finds_the_top_estimate_and_the_tiles_at_the_floor(kind, weights, name,
                                                                      seed, n, chunk):
    # the exact pass is exact only if the top strays by less than half the margin, and it
    # computes a tile, from a block's first row, only if an estimate in it reaches the floor
    a, b = weights
    s, p = ref_sampled(name, n, seed)
    blocks = list(row_blocks(n, chunk))
    squares = screen_tiles(kind, s, p, blocks, a, b)
    top = max(map(max, squares))
    exact = tile_maxima(ref_gaps(kind, s, p, a, b), blocks, qnogo.verifier._SCREEN_TILE)
    exact_top = max(map(max, exact))
    assert abs(top - exact_top) <= _SCREEN_MARGIN / 10
    floor = top - _SCREEN_MARGIN
    for tiles, maxima in zip(squares, exact, strict=True):
        for hit, reach in zip(tiles, maxima, strict=True):
            if reach >= floor + _SCREEN_MARGIN / 10:
                assert hit >= floor
            elif reach < floor - _SCREEN_MARGIN / 10 and top >= 2 * _SCREEN_MARGIN:
                assert hit < floor   # a tie near 0 computes every tile


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["hadamard9", "hadamard10", "unequal", "cnot"]),
       weights=unit_weights(), name=FAMILIES, seed=SEEDS, n=st.integers(2, 600),
       cell=st.sampled_from([2, 3, 8]), chunk=st.sampled_from([1, 7, 64, 256]))
def test_each_cell_bound_holds_its_estimates_and_the_hits_hold_the_top(kind, weights, name,
                                                                       seed, n, cell, chunk):
    a, b = weights
    s, p = ref_sampled(name, n, seed)
    blocks = list(row_blocks(n, chunk))
    with mock.patch("qnogo.verifier._CELL", cell):
        o1 = None if kind == "cnot" else ref_rules(kind, s, p, a, b)[0][1]
        order = _cell_order(np.hstack([s.real, s.imag]))
        terms = _screen_terms(s[order], p[order], None if o1 is None else o1[order])
        bound = _cell_bound(_cell_forms(terms, n), slice(None))
        squares = screen_tiles(kind, s, p, blocks, a, b)
    assert np.array_equal(np.sort(order), np.arange(n))
    # every estimate, j > i in the cell order, against the bound of its pair of cells
    est = _tile_estimate(terms, np.empty((1 if o1 is not None else 4, n * n)), 0, n, 0, n)
    starts = np.arange(0, n, cell)
    cell_max = np.maximum.reduceat(np.maximum.reduceat(est, starts, axis=0), starts, axis=1)
    assert np.all(np.triu(bound) >= np.triu(cell_max))
    exact = tile_maxima(ref_gaps(kind, s, p, a, b), blocks, qnogo.verifier._SCREEN_TILE)
    exact_top, floor = max(map(max, exact)), max(map(max, squares)) - _SCREEN_MARGIN
    for tiles, maxima in zip(squares, exact, strict=True):
        for hit, reach in zip(tiles, maxima, strict=True):
            if reach >= exact_top - _SCREEN_MARGIN / 2:
                assert hit >= floor


@pytest.mark.parametrize("name,every", [("bloch", False), ("polar", True)])
def test_the_screen_computes_few_cell_pairs_unless_all_tie(monkeypatch, name, every):
    # bloch hadamard9 has few pairs near its top, so the bounds rule out most pairs of cells;
    # polar hadamard9 ties near 0 everywhere, and no bound can rule any out
    n, cell, pairs = 4096, qnogo.verifier._CELL, set()
    estimate = qnogo.verifier._tile_estimate

    def count(terms, buf, lo, hi, c0, c1, pos=None):
        if pos is None:   # the screen's, in cells; the cnot exact pass passes pos
            pairs.update((a, b) for a in range(lo // cell, -(-hi // cell))
                         for b in range(max(a, c0 // cell), -(-c1 // cell)))
        return estimate(terms, buf, lo, hi, c0, c1, pos)

    monkeypatch.setattr("qnogo.verifier._tile_estimate", count)
    witness_search(TargetTransform("hadamard9"), n, seed=0, family=name)
    cells = n // cell
    total = cells * (cells + 1) // 2   # pairs of cells b >= a
    assert len(pairs) == total if every else len(pairs) < 0.15 * total


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["hadamard9", "hadamard10", "unequal", "cnot"]),
       weights=unit_weights(), name=FAMILIES, seed=SEEDS, n=st.integers(2, 400))
def test_the_reduced_rows_keep_every_screen_product_to_5e_14(kind, weights, name, seed, n):
    a, b = weights
    s, p = ref_sampled(name, n, seed)
    o1 = None if kind == "cnot" else ref_rules(kind, s, p, a, b)[0][1]
    with mock.patch("qnogo.verifier._reduced", lambda left, right: (left, right)):
        full = _screen_terms(s, p, o1)
    for term, full_term in zip(_screen_terms(s, p, o1), full, strict=True):
        for (left, right), (full_left, full_right) in zip(term, full_term, strict=True):
            assert left.shape[1] <= full_left.shape[1]
            assert np.abs(left @ right.T - full_left @ full_right.T).max() <= 5e-14


@pytest.mark.parametrize("off_span", [1.0, 1e-8])
def test_rows_that_span_every_dimension_come_back_unchanged(off_span):
    # random rows span all 16 columns; rows in 6 of them plus 1e-8 in the other 10 have
    # eigenvalues below 1e-12 of the largest there, but residuals far above 5e-14
    rng = np.random.default_rng(0)
    left, right = rng.standard_normal((2, 300, 16))
    left[:, 6:] *= off_span
    assert all(x is y for x, y in zip(_reduced(left, right), (left, right)))


@pytest.mark.parametrize("kind", ["hadamard9", "cnot"])
def test_a_scan_of_one_estimate_tile_of_rows_is_not_reduced(monkeypatch, kind):
    # the reduction's eigh would be a witness process's first LAPACK call, and add about
    # 1 MB to its peak RSS; rows that fit one estimate tile keep their 16 columns instead
    def refuse(*_):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    target = witness_target(kind, None, None)
    for n in (256, 257):
        s, p = ref_sampled("bloch", n, 0)
        violation, i, j = ref_witness(kind, s, p, 256, blocks=list(row_blocks(n, 256)))
        result = witness_search(target, n, seed=0)
        assert result.violation == violation
        assert result.pair == (Qubit(*s[i]), Qubit(*s[j]))
    with pytest.raises(AssertionError, match="eigh called"):
        witness_search(target, 258, seed=0)


@pytest.mark.parametrize("name,fewer", [("bloch", True), ("polar", False)])
def test_the_exact_pass_skips_the_tiles_no_estimate_tile_reaches(monkeypatch, name, fewer):
    # bloch has one block whose estimate reaches the floor in only a few of its columns;
    # polar hadamard9 ties near 0 everywhere, so every tile of every block is computed, in
    # one run per block cut into exact tiles as wide as they may be
    n, target = 4096, TargetTransform("hadamard9")
    s, p = ref_sampled(name, n, 0)
    blocks = list(row_blocks(n, 256))
    squares = screen_tiles("hadamard9", s, p, blocks)
    floor = max(map(max, squares)) - _SCREEN_MARGIN
    held = sum(len(list(row_blocks(n - lo, _EXACT_TILE)))
               for (lo, _), tiles in zip(blocks, squares) if max(tiles) >= floor)
    runs = _exact_tiles(n, squares, floor)
    calls = []
    tile = qnogo.verifier._witness_tile
    monkeypatch.setattr("qnogo.verifier._witness_tile", lambda *a: calls.append(a) or tile(*a))
    witness_search(target, n, seed=0, family=name)
    assert len(calls) == len(runs)
    assert 0 < len(calls) < held if fewer else len(calls) == held


@pytest.mark.parametrize("kind,n,bound", [("hadamard9", 4096, 3_410_000),
                                           ("cnot", 2048, 4_340_000)])
def test_the_witness_scan_holds_few_gram_blocks_at_once(kind, n, bound):
    # 1.1 x the measured peaks of 3.10 MB and 3.94 MB: the terms built a block of rows at a
    # time, and exact tiles no wider than the screened runs they cover.  Whole-stack terms
    # and 1024-column exact tiles peaked at 9.7 MB and 13.6 MB (numpy 2.4), whole-width
    # blocks at 27.8 MB and 47.8 MB, and both Gram blocks and their difference at 64.0 MB
    # and 84.0 MB
    target = witness_target(kind, None, None)
    witness_search(target, 64, seed=0)   # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        witness_search(target, n, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 300), w=st.integers(1, 1100), lo=st.integers(0, 5000),
       offset=st.integers(0, 310))
@example(m=256, w=1024, lo=0, offset=0)       # at the diagonal
@example(m=257, w=65, lo=768, offset=192)     # across it
@example(m=256, w=1024, lo=256, offset=256)   # just past it
def test_the_mask_covers_exactly_the_cells_with_j_at_most_i(m, w, lo, offset):
    c0 = lo + offset   # tiles start at or after their block's first row
    tile = np.full((m, w), 0.5)
    assert _mask_lower(tile, lo, c0) is tile
    i, j = np.indices((m, w))
    assert np.array_equal(tile == -1.0, c0 + j <= lo + i)
    assert np.all(tile[c0 + j > lo + i] == 0.5)
    if offset < m:
        assert not _tri_mask(m, w, lo - c0).flags.writeable


# --- Haar survey -----------------------------------------------------------------------


def ref_survey(kind, s, p, a, b, n_candidates, tol, seed, chunk):
    """(n_pass, min worst violation) with U applied to every state, then one overlap per rule."""
    (_, o1), (_, o2) = ref_rules(kind, s, p, a, b)
    rng = np.random.default_rng(seed)
    n_pass, min_worst = 0, np.inf
    for done in range(0, n_candidates, chunk):
        u = haar_unitaries(min(chunk, n_candidates - done), rng=rng)
        act_s = np.einsum("bij,nj->bni", u, s)
        act_p = np.einsum("bij,nj->bni", u, p)
        v1 = 1.0 - np.abs(np.einsum("ni,bni->bn", o1.conj(), act_s)) ** 2
        v2 = 1.0 - np.abs(np.einsum("ni,bni->bn", o2.conj(), act_p)) ** 2
        worst = np.maximum(v1, v2).max(axis=1)
        n_pass += int(np.count_nonzero(worst <= tol))
        min_worst = min(min_worst, float(worst.min()))
    return n_pass, min_worst


def ref_survey_squares(t, family, n_candidates, tol, seed, chunk):
    """The survey's loop taking the minimum of the squared moduli: (n_pass, min worst)."""
    s, p = family.state_vectors, family.partner_vectors
    (_, o1), (_, o2) = ref_rules(t.kind, s, p, t.a, t.b)
    features = np.vstack([kron_rows(o1.conj(), s), kron_rows(o2.conj(), p)]).T
    rng = np.random.default_rng(seed)
    n_pass, min_worst = 0, np.inf
    for done in range(0, n_candidates, chunk):
        b = min(chunk, n_candidates - done)
        amp = haar_unitaries(b, rng=rng).reshape(b, 4) @ features
        worst = 1.0 - (np.abs(amp) ** 2).min(axis=1)
        n_pass += int(np.count_nonzero(worst <= tol))
        min_worst = min(min_worst, float(worst.min()))
    return n_pass, min_worst


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1])
@pytest.mark.parametrize("kind", ["hadamard9", "hadamard10", "unequal"])
def test_squaring_the_smallest_modulus_keeps_the_bits_of_the_smallest_square(kind, seed):
    target, family = witness_target(kind, 0.6, 0.8j), state_family("bloch", 300, seed)
    with mock.patch("qnogo.verifier._SURVEY_TOLERANCE", 0.3):
        result = survey_random_unitaries(target, family, 2500, seed=seed)
    n_pass, min_worst = ref_survey_squares(target, family, 2500, 0.3, seed, 1024)
    assert result.n_pass == n_pass
    assert np.float64(result.min_worst_violation).tobytes() == np.float64(min_worst).tobytes()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["hadamard9", "hadamard10", "unequal"]), weights=unit_weights(),
       name=FAMILIES, n=st.integers(1, 80), seed=SEEDS,
       n_candidates=st.integers(1, 600), chunk=st.integers(1, 300),
       tol=st.sampled_from([0.0, 1e-3, 0.05, 0.5]))
def test_the_survey_product_equals_the_per_state_einsums(kind, weights, name, n, seed,
                                                         n_candidates, chunk, tol):
    a, b = weights
    family = state_family(name, n, seed)
    s, p = family.state_vectors, family.partner_vectors
    n_pass, min_worst = ref_survey(kind, s, p, a, b, n_candidates, tol, seed, chunk)
    with mock.patch("qnogo.verifier._SURVEY_TOLERANCE", tol), \
            mock.patch("qnogo.verifier._SURVEY_BLOCK", chunk):
        result = survey_random_unitaries(witness_target(kind, a, b), family, n_candidates,
                                         seed=seed)
    assert result.n_pass == n_pass
    assert abs(result.min_worst_violation - min_worst) <= 1e-12


# --- circle-check row blocks ---------------------------------------------------------


def ref_circle_residuals(kind, n):
    """The three residual maxima over every (i, j) of the square: each row meets all n columns."""
    pairs = ref_pairs(kind, n, None)
    s, p = (np.array([q.vector for q in states]) for states in zip(*pairs))
    diag = anti = sym = 0.0
    # 64 rows keep the temporaries in cache; the maxima equal those of 256-row blocks, which the
    # test below pins to the whole Gram, for every n up to 2500 and at 4096 and 4097 (measured)
    for lo, hi in row_blocks(n, 64):
        sc, pc = s[lo:hi].conj(), p[lo:hi].conj()
        g01, g10 = sc @ p.T, pc @ s.T
        diag = max(diag, float(np.abs(sc @ s.T - pc @ p.T).max()))
        anti = max(anti, float(np.abs(g01 + g10).max()))
        sym = max(sym, float(np.abs(g01 - g10).max()))
    return (diag, anti, sym) if kind == "polar" else (diag, sym, anti)


@settings(max_examples=6, deadline=None)
@given(n=st.integers(2, 1500))
@example(n=13)   # one square tile: real rows conjugated with .conj() went to syrk here
@example(n=63)   # the sizes at which a block's columns end on, next to or past a tile edge
@example(n=64)
@example(n=65)
@example(n=255)
@example(n=256)
@example(n=257)
@example(n=319)
@example(n=320)
@example(n=321)
@example(n=513)
@example(n=2000)
@example(n=2049)
@example(n=4097)
def test_circle_residuals_over_the_upper_triangle_equal_the_whole_square(n):
    # |R_ij| = |R_ji| holds exactly, but the computed Gram is not bitwise Hermitian: the
    # maxima must still come out the same.  gram_rows pins the route: real polar tiles, never
    # from rows that x.conj() returned, whose square tiles go to syrk (at 13, 29 of its
    # entries lose the bits of zgemm's real parts, though no maximum here has changed)
    with gram_rows() as dtypes:
        for kind in ("polar", "equatorial"):
            assert _circle_residuals(kind, n) == ref_circle_residuals(kind, n)
    assert dtypes == REAL | COMPLEX


@settings(max_examples=4, deadline=None)
@given(n=st.integers(2, 1500))
@example(n=2)
@example(n=3)
@example(n=63)
@example(n=64)
@example(n=65)
@example(n=255)
@example(n=256)
@example(n=257)
@example(n=2000)
def test_the_swapped_pattern_keeps_within_its_bound_and_its_maximum_tile(n):
    # every pair of the square lies at or below its bound, and a tile of the scan whose bounds
    # all lie below the floor does not hold the maximum
    for kind in ("polar", "equatorial"):
        family = state_family(kind, n)
        s, p = family.state_vectors, family.partner_vectors
        bound, floor = _swap_bounds(kind, n)
        swap = np.add if kind == "equatorial" else np.subtract
        tiles = []   # (largest bound, largest residual) of each tile the scan walks
        for lo, hi in row_blocks(n, 256):
            swapped = np.abs(swap(s[lo:hi].conj() @ p.T, p[lo:hi].conj() @ s.T))
            at = np.arange(n) - np.arange(lo, hi)[:, None] + n - 1   # d + n - 1 of each pair
            assert (swapped <= bound[at]).all()
            tiles += [(bound[at[:, lo + c0:lo + c1]].max(), swapped[:, lo + c0:lo + c1].max())
                      for c0, c1 in row_blocks(n - lo, _CIRCLE_TILE)]
        top_residual = max(residual for _, residual in tiles)
        assert all(residual < top_residual for reach, residual in tiles if reach < floor)


def test_circle_residuals_hold_fixed_tiles_whatever_the_size():
    # the same 257 x 65 tile buffers at every size, so only the family arrays grow with n;
    # whole-width row blocks peaked at 135 MB for 8192 states
    def peak(n):
        tracemalloc.start()
        try:
            _circle_residuals("equatorial", n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    family = state_family("equatorial", 8192)
    arrays = family.state_vectors.nbytes + family.partner_vectors.nbytes
    assert peak(8192) <= 1.1 * peak(1024) + arrays


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


# --- the pair scan's tiles ---------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 13, 257, 319, 1025, 1281])
def test_every_tile_of_the_span_walk_has_the_bits_of_the_full_gram(n):
    # the circles' tiles, the witness screen's, and its exact pass's widest: rows of 256, and
    # at 1025 a lone last row joins the fourth block and a column range runs one past 1024;
    # at 13 and 319 a row block meets itself in a square tile.  The polar rows, real, also
    # give real tiles, whose moduli keep the bits of the complex tiles' real parts: their
    # conjugated rows are a new array, or numpy sends x x^T to syrk, and at 319 the first
    # block's 319 columns differed in up to 400 entries before their last 7 were split off
    widths = [(256, _CIRCLE_TILE), (_WITNESS_BLOCK, _SCREEN_TILE), (_WITNESS_BLOCK, _EXACT_TILE)]
    buf = np.empty(257 * (_EXACT_TILE + 1), complex)   # reused, as every scan reuses its own
    for name in ("bloch", "polar", "equatorial"):
        family = state_family(name, n, 0, sampled=name == "bloch")
        s, p = family.state_vectors, family.partner_vectors
        o1 = next(_rules(TargetTransform("hadamard9"), s, p))[1]
        rows_of = dict(zip("spo", (s, p, o1)))
        real_of = dict(zip("spo", _real_rows(s, p, o1)))
        assert real_of["s"].dtype == (float if name == "polar" else complex)
        for a, b in ("ss", "sp", "ps", "pp", "oo"):
            x, y = rows_of[a], rows_of[b]
            full = (x.conj() @ y.T).view(np.int64)
            for rows, width in widths:
                spans = list(_pair_spans(n, rows, width))
                for lo, hi, c0, c1 in spans:
                    tile = _gram_tile(np.conjugate(x[lo:hi]), y, c0, c1, buf)
                    assert np.array_equal(tile.view(np.int64), full[lo:hi, 2 * c0:2 * c1])
                    if name != "polar":
                        continue
                    moduli = np.abs(tile.real)
                    xc, y_real = np.conjugate(real_of[a][lo:hi]), real_of[b]
                    assert not np.shares_memory(xc, y_real)
                    real = np.abs(_gram_tile(xc, y_real, c0, c1, buf.view(float)))
                    assert np.array_equal(real.view(np.int64), moduli.view(np.int64))
                # the tiles cover each pair j >= i once, in (i, j) order by row block
                cover = np.zeros((n, n), int)
                for lo, hi, c0, c1 in spans:
                    cover[lo:hi, c0:c1] += 1
                assert (np.triu(cover) == np.triu(np.ones((n, n), int))).all()
