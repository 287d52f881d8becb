"""Acceptance checks for the package's headline behaviors.

Each test covers one advertised guarantee and prints a one-line summary;
run with -v to get one pass/fail line per check.  Where a number matters
(the 5/6 optimum, the 0.5 deviation, the closed-form discrepancy) the
expected value is recomputed here from scratch rather than imported.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qnogo.fidelity import (
    IsometryParam,
    OptimizerConfig,
    sweep_lambda,
    uniform_grid,
)
from qnogo.gates import (
    cnot_computational,
    cnot_in_basis,
    hadamard_equatorial,
    hadamard_polar,
)
from qnogo.states import (
    Qubit,
    complement,
    listed_set,
    polar_set,
    state_family,
)
from qnogo.verifier import (
    check_universal_gate,
    cloning_machine,
    machine_deviations,
    survey_random_unitaries,
    target_clone,
    target_cnot,
    target_hadamard9,
    target_hadamard10,
    target_unequal,
    witness_search,
)

ROOT = Path(__file__).resolve().parents[1]
MACHINES = ROOT / "machines"
SCHEMA = json.loads((ROOT / "schemas" / "report.json").read_text())

RT2 = 1.0 / np.sqrt(2.0)


def test_01_circle_gates_pass_their_own_circle_and_fail_the_other():
    t0 = time.perf_counter()
    own_p = check_universal_gate(hadamard_polar, target_hadamard9(),
                                 polar_set(256), tol=1e-12)
    own_e = check_universal_gate(hadamard_equatorial, target_hadamard10(),
                                 state_family("equatorial", 256), tol=1e-12)
    assert own_p.realizable and own_p.violation < 1e-12
    assert own_e.realizable and own_e.violation < 1e-12

    cross_p = check_universal_gate(hadamard_polar, target_hadamard9(),
                                   state_family("equatorial", 256))
    cross_e = check_universal_gate(hadamard_equatorial, target_hadamard10(),
                                   polar_set(256))
    assert not cross_p.realizable and cross_p.violation > 0.05
    assert not cross_e.realizable and cross_e.violation > 0.05
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"check 1 PASS: own-circle <1e-12, cross {cross_p.violation:.3f}/"
          f"{cross_e.violation:.3f} >0.05, {dt:.3f}s")


def test_02_gram_sign_patterns_on_full_grids():
    t0 = time.perf_counter()
    results = {}
    for name, states, delta_fn in (
            ("polar", polar_set(100), None),
            ("equatorial", state_family("equatorial", 100), None)):
        s, p = states.state_vectors, states.partner_vectors
        g00 = s.conj() @ s.T
        g01 = s.conj() @ p.T
        g10 = p.conj() @ s.T
        g11 = p.conj() @ p.T
        diag = float(np.abs(g00 - g11).max())
        if name == "polar":
            own = float(np.abs(g01 + g10).max())
            cross = float(np.abs(g01 - g10).max())
            # closed forms: entries depend only on the half-difference
            ts = np.linspace(0.0, np.pi, 100, endpoint=False)
            d = (ts[:, None] - ts[None, :]) / 2.0
            oracle = max(np.abs(g00 - np.cos(d)).max(),
                         np.abs(g01 - np.sin(d)).max(),
                         np.abs(g10 + np.sin(d)).max(),
                         np.abs(g11 - np.cos(d)).max())
        else:
            own = float(np.abs(g01 - g10).max())
            cross = float(np.abs(g01 + g10).max())
            ph = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
            e = np.exp(1j * (ph[None, :] - ph[:, None]))
            oracle = max(np.abs(g00 - (1.0 + e) / 2.0).max(),
                         np.abs(g01 - (1.0 - e) / 2.0).max(),
                         np.abs(g10 - (1.0 - e) / 2.0).max(),
                         np.abs(g11 - (1.0 + e) / 2.0).max())
        assert diag < 1e-12 and own < 1e-12
        assert float(oracle) < 1e-12
        assert cross > 0.1
        results[name] = (diag, own, cross)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"check 2 PASS: identities <1e-12 on 100x100, swapped patterns "
          f"{results['polar'][2]:.2f}/{results['equatorial'][2]:.2f} >0.1, {dt:.3f}s")


def naive_clone_deviation(a: complex, b: complex) -> float:
    # hand-rolled: |0>->|00>, |1>->|11>, extended by linearity on (a, b)
    actual = np.array([a, 0.0, 0.0, b], dtype=complex)
    actual = actual / np.linalg.norm(actual)
    ideal = np.kron(np.array([a, b]), np.array([a, b]))
    return float(min(max(1.0 - abs(np.vdot(ideal, actual)) ** 2, 0.0), 1.0))


def test_03_linear_extension_deviation_matches_a_naive_evaluator():
    m = cloning_machine()
    t = target_clone()
    states = state_family("bloch", 1000, 5)
    lib = machine_deviations(m, t, states)
    naive = [naive_clone_deviation(a, b) for a, b in states.state_vectors]
    worst = float(np.max(np.abs(lib - naive)))
    assert worst < 1e-12

    plus = Qubit(RT2, RT2)
    dev = float(machine_deviations(m, t, listed_set([plus]))[0])
    assert dev == pytest.approx(0.5, abs=1e-12)
    print(f"check 3 PASS: naive-vs-library gap {worst:.2e} on 1000 states, "
          f"|+> deviation {dev!r}")


def test_04_no_random_unitary_satisfies_the_first_gate_rules():
    t0 = time.perf_counter()
    res = survey_random_unitaries(target_hadamard9(), state_family("bloch", 500, 42),
                                  n_candidates=10_000, seed=42)
    dt = time.perf_counter() - t0
    assert res.n_candidates == 10_000
    assert res.n_pass == 0
    assert res.min_worst_violation > 0.01
    assert dt < 60.0
    print(f"check 4 PASS: 0/10000 pass at 1e-3, min worst violation "
          f"{res.min_worst_violation:.4f} >0.01, {dt:.1f}s")


def test_05_computational_cnot_scope_and_basis_rebuilds():
    t0 = time.perf_counter()
    plus = Qubit(RT2, RT2)
    pbar = complement(plus)
    rule2_in = np.kron(plus.vector, pbar.vector)
    actual = cnot_computational @ rule2_in
    fid = abs(np.vdot(rule2_in, actual)) ** 2   # rule 2 demands the input back
    assert fid == pytest.approx(0.0, abs=1e-12)

    for q in (Qubit(*v) for v in state_family("bloch", 50, 11).state_vectors):
        gate = cnot_in_basis(q)
        verdict = check_universal_gate(gate, target_cnot(), listed_set([q]), tol=1e-9)
        assert verdict.realizable
        # the four rules in q's basis: flip the target exactly when the control is qbar
        u, v = q.vector, complement(q).vector
        for rin, rout in ((np.kron(u, u), np.kron(u, u)), (np.kron(u, v), np.kron(u, v)),
                          (np.kron(v, u), np.kron(v, v)), (np.kron(v, v), np.kron(v, u))):
            assert np.max(np.abs(gate @ rin - rout)) < 1e-12
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"check 5 PASS: |+> rule-2 fidelity {fid:.1e}, 50 rebuilt-basis "
          f"gates pass all four rules, {dt:.3f}s")


def unequal_closed_form(a: complex, b: complex, n: int, seed: int) -> float:
    # |(conj(a) b - a conj(b)) <psi_i|psi_j-bar>| at its largest over the seed's
    # polar draws, where |<psi_i|psi_j-bar>| = |sin((theta_i - theta_j)/2)|
    th = np.random.default_rng(seed).uniform(0.0, np.pi, n)
    return abs(np.conj(a) * b - a * np.conj(b)) * float(
        np.abs(np.sin((th[:, None] - th[None, :]) / 2.0)).max())


def test_06_unequal_weight_discrepancy_closed_form():
    rng = np.random.default_rng(99)
    worst_real = 0.0
    for seed in range(20):
        t = float(rng.uniform(0.0, 2.0 * np.pi))
        r = witness_search(target_unequal(np.cos(t), np.sin(t)), 40, seed, family="polar")
        worst_real = max(worst_real, r.violation)
    assert worst_real <= 1e-14

    worst_gap = 0.0
    for seed in range(20):
        t = float(rng.uniform(0.0, np.pi / 2.0))
        pa, pb = rng.uniform(0.0, 2.0 * np.pi, size=2)
        a = np.cos(t) * np.exp(1j * pa)
        b = np.sin(t) * np.exp(1j * pb)
        got = witness_search(target_unequal(a, b), 40, seed, family="polar").violation
        worst_gap = max(worst_gap, abs(got - unequal_closed_form(a, b, 40, seed)))
    assert worst_gap < 1e-12

    a, b = 0.6, 0.8j
    got = witness_search(target_unequal(a, b), 300, 3, family="polar").violation
    assert got == pytest.approx(unequal_closed_form(a, b, 300, 3), abs=1e-12)
    assert got == pytest.approx(0.9599978562492536, abs=1e-12)
    print(f"check 6 PASS: real weights <=1e-14, complex vs closed form "
          f"gap {worst_gap:.2e} <1e-12, (0.6, 0.8i) on 300 polar draws {got!r}")


def symmetric_two_output_isometry(mu: float) -> IsometryParam:
    """One-parameter family: weight mu between exact basis copy and the
    symmetric spill (|01>+|10>)/sqrt(2), with an orthogonal ancilla tag."""
    e = np.eye(4)
    a0 = np.array([1.0, 0.0])
    a1 = np.array([0.0, 1.0])
    sym = (e[1] + e[2]) / np.sqrt(2.0)
    c0 = np.cos(mu) * np.kron(e[0], a0) + np.sin(mu) * np.kron(sym, a1)
    c1 = np.cos(mu) * np.kron(e[3], a1) + np.sin(mu) * np.kron(sym, a0)
    return IsometryParam(np.stack([c0, c1], axis=1).astype(complex), 2)


def clone_fidelity(iso: IsometryParam, states: np.ndarray, weights: np.ndarray) -> float:
    # the mean over the two output registers of <psi|rho_k|psi>, rho_k the
    # register's reduced state for input psi, averaged with the grid weights
    out = (states @ iso.matrix.T).reshape(len(states), 2, 2, iso.ancilla_dim)
    f1 = np.linalg.norm(np.einsum("ni,nijk->njk", states.conj(), out), axis=(1, 2)) ** 2
    f2 = np.linalg.norm(np.einsum("nj,nijk->nik", states.conj(), out), axis=(1, 2)) ** 2
    return float(weights @ (0.5 * (f1 + f2)))


def test_07_fidelity_curve_endpoints_and_ceiling():
    t0 = time.perf_counter()
    grid = uniform_grid(200)
    assert len(grid) >= 200

    # oracle at the unitary endpoint: scanning the symmetric family must
    # peak at 5/6, and the known best member hits it on the nose
    mu_star = np.arcsin(1.0 / np.sqrt(3.0))
    nodes = (grid.states, grid.weights)
    f_star = clone_fidelity(symmetric_two_output_isometry(mu_star), *nodes)
    assert f_star == pytest.approx(5.0 / 6.0, abs=1e-9)
    scan = max(clone_fidelity(symmetric_two_output_isometry(m), *nodes)
               for m in np.linspace(0.0, np.pi / 2.0, 2001))
    assert 5.0 / 6.0 - 1e-6 < scan <= 5.0 / 6.0 + 1e-9

    cfg = OptimizerConfig(ancilla_dim=2, restarts=8, max_evals=4000, seed=42)
    lams = [round(0.1 * k, 1) for k in range(11)]
    records = sweep_lambda(lams, grid, cfg)
    by_lam = {r.lam: r.f_opt for r in records}
    assert abs(by_lam[1.0] - 5.0 / 6.0) <= 0.01
    assert by_lam[1.0] <= f_star + 1e-9
    assert by_lam[0.0] >= 0.657
    assert all(f < 0.999 for f in by_lam.values())
    dt = time.perf_counter() - t0
    assert dt < 600.0
    print(f"check 7 PASS: f(1)={by_lam[1.0]:.6f} (5/6 oracle {f_star:.6f}), "
          f"f(0)={by_lam[0.0]:.6f} >=0.657, max {max(by_lam.values()):.4f} <0.999, "
          f"{dt:.1f}s")


EXPECTED_EXITS = {
    "clone.qmachine": 2,
    "cnot.qmachine": 2,
    "complement.qmachine": 2,
    "conjugate.qmachine": 2,
    "hadamard10_equatorial.qmachine": 0,
    "hadamard9_polar.qmachine": 0,
    "hadamard_list.qmachine": 0,
    "hybrid_0.qmachine": 2,
    "hybrid_1.qmachine": 2,
    "hybrid_half.qmachine": 2,
    "identity_basis.qmachine": 0,
    "invalid_bad_ket.qmachine": 3,
    "invalid_missing_extend.qmachine": 3,
    "invalid_syntax.qmachine": 3,
    "unequal_polar.qmachine": 0,
}


def test_08_machine_corpus_exit_codes_and_reproducible_json():
    files = sorted(MACHINES.glob("*.qmachine"))
    assert len(files) >= 12
    assert {f.name for f in files} == set(EXPECTED_EXITS)

    for f in files:
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "qnogo.cli", "dsl-check", str(f),
                 "--samples", "100", "--seed", "42", "--format", "json"],
                capture_output=True, cwd=str(ROOT))
            assert proc.returncode == EXPECTED_EXITS[f.name], \
                f"{f.name}: exit {proc.returncode}, stderr {proc.stderr!r}"
            runs.append(proc.stdout)
        assert runs[0] == runs[1], f"{f.name}: output differs between runs"
        if EXPECTED_EXITS[f.name] == 3:
            assert runs[0] == b""
        else:
            doc = json.loads(runs[0])
            jsonschema.validate(doc, SCHEMA)
    print(f"check 8 PASS: {len(files)} corpus files, expected exits, "
          f"byte-identical reruns")
