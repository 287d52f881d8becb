import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError, _umath_linalg

import qnogo.fidelity
from qnogo.cli import main
from qnogo.fidelity import (
    CSV_HEADER,
    FidelitySweepRecord,
    OptimizerConfig,
    QuadratureGrid,
    _bounds,
    _omega,
    _targets,
    optimize_fidelity,
    records_to_csv,
    sweep_lambda,
    uniform_grid,
)
from qnogo.states import Qubit, _bloch_rows, state_family

MODES = ("second-register", "joint")


def bloch_xyz(q: Qubit) -> np.ndarray:
    a, b = q.alpha, q.beta
    return np.array([2 * (np.conj(a) * b).real,
                     2 * (np.conj(a) * b).imag,
                     abs(a) ** 2 - abs(b) ** 2])


def basis_cloner() -> np.ndarray:
    """|0> -> |00>, |1> -> |11| as a (4, 2) isometry, with no ancilla."""
    m = np.zeros((4, 2), dtype=complex)
    m[0, 0] = 1.0
    m[3, 1] = 1.0
    return m


def per_state_fidelity(iso: np.ndarray, lam: float, grid: QuadratureGrid, mode: str) -> float:
    """The definition, one node at a time, for a (4 * ancilla_dim, 2) isometry: the reference
    for the 8x8 tr(J Omega) form."""
    total = 0.0
    for psi, t, w in zip(grid.states, _targets(grid.states, lam), grid.weights):
        out = (iso @ psi).reshape(2, 2, -1)   # registers 1, 2, ancilla
        if mode == "joint":
            f = np.linalg.norm(np.einsum("i,j,ijk->k", psi.conj(), t.conj(), out)) ** 2
        else:
            f = 0.5 * (np.linalg.norm(np.einsum("i,ijk->jk", psi.conj(), out)) ** 2
                       + np.linalg.norm(np.einsum("j,ijk->ik", t.conj(), out)) ** 2)
        total += w * f
    return total


def choi_fidelity(iso: np.ndarray, lam: float, grid: QuadratureGrid, mode: str) -> float:
    """tr(J Omega), the objective optimize_fidelity maximizes, for the isometry's J."""
    # Kraus vectors W[(m, i, j), k] = V[(i, j, k), m], so that J = W W^dagger
    w = iso.reshape(2, 2, -1, 2).transpose(3, 0, 1, 2).reshape(8, -1)
    return _bounds(_omega(grid, lam, mode), w)[0]


def random_isometry(rng, ancilla_dim: int) -> np.ndarray:
    z = rng.standard_normal((4 * ancilla_dim, 2)) + 1j * rng.standard_normal((4 * ancilla_dim, 2))
    return np.linalg.qr(z)[0]


def test_quadrature_grid_validation():
    s = np.array([[1.0, 0.0], [0.0, 1.0]])
    g = QuadratureGrid(s, [0.5, 0.5])
    assert len(g) == 2
    with pytest.raises(ValueError):
        g.weights[0] = 1.0  # read-only
    with pytest.raises(ValueError):
        g.states[0, 0] = 0.0
    with pytest.raises(ValueError, match="sum"):
        QuadratureGrid(s, [0.6, 0.6])  # weights exceed 1
    with pytest.raises(ValueError, match="non-negative"):
        QuadratureGrid(s, [-0.5, 1.5])
    with pytest.raises(ValueError, match="finite"):
        QuadratureGrid(s, [np.nan, 1.0])
    with pytest.raises(ValueError, match="weights"):
        QuadratureGrid(s, [1.0])  # one weight for two states
    with pytest.raises(ValueError, match="normalized"):
        QuadratureGrid([[1.0, 1.0]], [1.0])
    with pytest.raises(ValueError):
        QuadratureGrid(np.empty((0, 2)), [])


def product_rule(m: int, k: int) -> QuadratureGrid:
    """m Gauss-Legendre nodes in cos(theta), from numpy's own rule, times k azimuths."""
    x, w = np.polynomial.legendre.leggauss(m)
    theta, phi = np.meshgrid(np.arccos(x), 2.0 * np.pi * np.arange(k) / k, indexing="ij")
    return QuadratureGrid(_bloch_rows(theta.ravel(), phi.ravel()), np.repeat(w / (2.0 * k), k))


def test_uniform_grid_is_the_10_by_20_gauss_legendre_product_rule():
    g = uniform_grid()
    assert len(g) == 200
    assert np.all(g.weights > 0.0)
    assert abs(g.weights.sum() - 1.0) <= 1e-12
    ref = product_rule(10, 20)
    assert np.max(np.abs(g.states - ref.states)) <= 1e-13
    assert np.max(np.abs(g.weights - ref.weights)) <= 1e-13 / 20


LAMBDAS = (0.0, 0.1, 0.25, 0.5, 0.77, 0.976, 1.0)


@pytest.mark.parametrize("mode", MODES)
def test_omega_is_the_same_on_every_grid_from_the_2_by_5_rule_up(mode):
    for lam in LAMBDAS:
        ref = _omega(product_rule(2, 5), lam, mode)
        for g in (uniform_grid(), product_rule(3, 6), product_rule(50, 100),
                  product_rule(64, 32)):
            assert np.max(np.abs(_omega(g, lam, mode) - ref)) <= 1e-15


@pytest.mark.parametrize("m,k", [(1, 5), (2, 4)])
def test_smaller_product_rules_are_not_exact(m, k):
    # one node in cos(theta) misses the quadratic k = 0 terms, four azimuths
    # alias the joint grading's e^{+-4 i phi} terms onto k = 0
    ref = _omega(product_rule(2, 5), 0.5, "joint")
    assert np.max(np.abs(_omega(product_rule(m, k), 0.5, "joint") - ref)) > 1e-2


def test_uniform_grid_integrates_degree_two_exactly():
    g = uniform_grid()
    xyz = np.array([bloch_xyz(Qubit(*row)) for row in g.states])
    w = g.weights
    # first moments vanish, second moments are delta_ij / 3
    assert np.max(np.abs(w @ xyz)) < 1e-12
    second = np.einsum("n,ni,nj->ij", w, xyz, xyz)
    assert np.max(np.abs(second - np.eye(3) / 3.0)) < 1e-12


def test_uniform_grid_is_deterministic():
    a = uniform_grid().states
    b = uniform_grid.__wrapped__().states   # built again, not the shared grid
    assert np.array_equal(a, b)


def test_uniform_grid_is_built_once_and_shared_read_only():
    g = uniform_grid()
    assert uniform_grid() is g
    assert not g.states.flags.writeable
    assert not g.weights.flags.writeable


def test_the_basis_cloner_scores_two_thirds():
    # per-state score |alpha|^4 + |beta|^4 averages to 2/3 over the sphere,
    # and the grid integrates that degree-2 expression exactly
    g = uniform_grid()
    for f in (choi_fidelity(basis_cloner(), 1.0, g, "second-register"),
              per_state_fidelity(basis_cloner(), 1.0, g, "second-register")):
        assert abs(f - 2.0 / 3.0) < 1e-12


def test_the_choi_objective_equals_the_per_state_reference():
    rng = np.random.default_rng(5)
    for g in (product_rule(3, 6), product_rule(5, 10), uniform_grid()):
        for lam in (0.0, 0.3, 0.7, 1.0):
            for mode in ("second-register", "joint"):
                for dim in (1, 2, 3, 4):
                    iso = random_isometry(rng, dim)
                    ref = per_state_fidelity(iso, lam, g, mode)
                    assert abs(choi_fidelity(iso, lam, g, mode) - ref) <= 1e-12


def test_the_choi_objective_stays_in_the_unit_interval():
    g = QuadratureGrid(state_family("bloch", 50, seed=23).state_vectors, np.full(50, 1.0 / 50))
    rng = np.random.default_rng(2)
    for lam in (0.0, 0.3, 1.0):
        for mode in ("second-register", "joint"):
            iso = random_isometry(rng, 2)
            f = choi_fidelity(iso, lam, g, mode)
            assert 0.0 <= f <= 1.0


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(ancilla_dim=9)
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(mode="overall")


def test_optimize_reaches_the_symmetric_cloning_score():
    g = uniform_grid()
    cfg = OptimizerConfig(restarts=2, max_evals=800, seed=42)
    res = optimize_fidelity(1.0, g, cfg)
    assert res.record.f_opt == pytest.approx(5.0 / 6.0, abs=1e-3)
    assert res.record.lam == 1.0
    assert res.record.mode == "second-register"
    # the returned isometry reproduces the reported value on the same grid
    check = per_state_fidelity(res.isometry, 1.0, g, "second-register")
    assert check == pytest.approx(res.record.f_opt, abs=1e-9)


def test_optimize_is_deterministic():
    g = uniform_grid()
    cfg = OptimizerConfig(restarts=2, max_evals=500, seed=7)
    a = optimize_fidelity(0.5, g, cfg).record
    b = optimize_fidelity(0.5, g, cfg).record
    assert a == b


def test_optimize_joint_mode_endpoint():
    g = uniform_grid()
    cfg = OptimizerConfig(restarts=4, max_evals=1500, mode="joint", seed=42)
    res = optimize_fidelity(1.0, g, cfg)
    assert res.record.f_opt == pytest.approx(2.0 / 3.0, abs=5e-3)
    assert res.record.mode == "joint"


def test_optimize_validates_lambda():
    for lam in (-0.2, 1.5, float("nan")):
        with pytest.raises(ValueError):
            optimize_fidelity(lam, uniform_grid())


def test_sweep_lambda_and_csv():
    g = uniform_grid()
    cfg = OptimizerConfig(restarts=1, max_evals=400, seed=42)
    records = sweep_lambda([0.0, 1.0], g, cfg)
    assert len(records) == 2
    assert [r.lam for r in records] == [0.0, 1.0]
    text = records_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("0.0,")
    # repr round-trip keeps full precision
    assert repr(records[0].f_opt) in lines[1]
    assert records_to_csv(records) == text


def test_sweep_record_fields():
    cert = {"f_upper": 0.9, "gap": 0.0, "kraus_rank": 1}
    r = FidelitySweepRecord(lam=0.5, f_opt=0.9, mode="joint", ancilla_dim=2,
                            converged=True, iterations=10, seed=1, **cert)
    d = r.to_dict()
    assert d["lambda"] == 0.5 and d["mode"] == "joint"
    assert d["f_upper"] == 0.9 and d["gap"] == 0.0 and d["kraus_rank"] == 1
    with pytest.raises(ValueError):
        FidelitySweepRecord(lam=0.5, f_opt=1.2, mode="joint", ancilla_dim=2,
                            converged=True, iterations=10, seed=1, **cert)


# --- the certified optimum ----------------------------------------------------

# Bužek and Hillery, PRA 54, 1844 (1996); Bužek, Hillery and Werner,
# PRA 60, R2626 (1999); (3 + sqrt 3)/6 for the complement in register 2.
CLOSED_FORMS = [("second-register", 1.0, 5.0 / 6.0),
                ("second-register", 0.0, (3.0 + np.sqrt(3.0)) / 6.0),
                ("joint", 0.0, 2.0 / 3.0),
                ("joint", 1.0, 2.0 / 3.0)]


@pytest.mark.parametrize("mode,lam,exact", CLOSED_FORMS)
def test_endpoints_hit_their_closed_forms(mode, lam, exact):
    rec = optimize_fidelity(lam, uniform_grid(), OptimizerConfig(mode=mode)).record
    assert abs(rec.f_opt - exact) <= 1e-12
    assert rec.converged and rec.gap <= 1e-9
    assert rec.f_opt <= rec.f_upper and abs(rec.f_upper - exact) <= 1e-9
    assert rec.kraus_rank == 2   # the optimal endpoint machines need a 2-level ancilla


def test_a_one_level_ancilla_leaves_the_certificate_open():
    # the optimal cloner has Kraus rank 2, so rank 1 stops short and says so
    cfg = OptimizerConfig(ancilla_dim=1, restarts=2, max_evals=500)
    rec = optimize_fidelity(1.0, uniform_grid(), cfg).record
    assert rec.converged is False
    assert rec.gap > 0.0 and rec.kraus_rank == 1
    assert rec.f_upper >= 5.0 / 6.0 - 1e-12
    assert rec.f_opt < 5.0 / 6.0
    assert rec.iterations == 2 * 500


def test_restarts_stop_at_the_first_certified_start():
    rec = optimize_fidelity(0.5, uniform_grid(), OptimizerConfig()).record
    assert rec.converged
    assert 1 <= rec.iterations <= OptimizerConfig().max_evals   # one start was enough


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_restarts_stop_at_a_converged_start_that_misses_the_stop_gap(seed):
    # with 50 steps a start ends with a gap between 1.9e-10 and 4.8e-10:
    # above the 1e-10 that stops a start, inside converged
    cfg = OptimizerConfig(mode="joint", max_evals=50, seed=seed)
    rec = optimize_fidelity(0.96, uniform_grid(), cfg).record
    assert rec.converged and rec.gap > 1e-10
    assert rec.iterations == cfg.max_evals


# The continuum optima at interior weights, to 10 digits
INTERIOR = [("second-register", 0.25, 0.8720861356), ("second-register", 0.5, 0.8869067624),
            ("joint", 0.25, 0.7650597530), ("joint", 0.5, 0.7924023526)]


@pytest.mark.parametrize("mode,lam,exact", INTERIOR)
def test_interior_optima_are_the_continuum_values(mode, lam, exact):
    rec = optimize_fidelity(lam, uniform_grid(), OptimizerConfig(mode=mode)).record
    assert rec.converged
    assert abs(rec.f_opt - exact) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(0.0, 1.0), mode=st.sampled_from(MODES), m=st.integers(2, 50),
       k=st.integers(5, 100))
def test_the_optimum_does_not_depend_on_the_node_count(lam, mode, m, k):
    cfg = OptimizerConfig(mode=mode)
    a = optimize_fidelity(lam, product_rule(m, k), cfg).record
    b = optimize_fidelity(lam, uniform_grid(), cfg).record
    assert a.converged and b.converged
    assert abs(a.f_opt - b.f_opt) <= 1e-9


# Weights where a start that stops at gap 1e-10 leaves a second Kraus weight near 1e-9
FLICKER = [("second-register", 0.03), ("second-register", 0.904),
           ("second-register", 0.918), ("joint", 0.976)]


@pytest.mark.parametrize("mode,lam", [(m, round(0.1 * k, 1)) for m in MODES for k in range(11)]
                         + FLICKER)
def test_kraus_rank_is_the_smallest_ancilla_that_reaches_the_optimum(mode, lam):
    rec = optimize_fidelity(lam, uniform_grid(), OptimizerConfig(mode=mode)).record
    assert rec.converged
    if lam in (0.0, 1.0):
        assert rec.kraus_rank == 2
    one_level = OptimizerConfig(mode=mode, ancilla_dim=1, restarts=2, max_evals=1000)
    one = optimize_fidelity(lam, uniform_grid(), one_level).record
    assert (rec.kraus_rank == 1) == (one.gap <= 1e-9)


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.0, 1.0), mode=st.sampled_from(["second-register", "joint"]),
       m=st.integers(2, 22), k=st.integers(5, 44), ancilla_dim=st.sampled_from([2, 3, 4]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_certificate_brackets_the_optimum(lam, mode, m, k, ancilla_dim, seed):
    grid = product_rule(m, k)
    cfg = OptimizerConfig(ancilla_dim=ancilla_dim, mode=mode, seed=seed)
    res = optimize_fidelity(lam, grid, cfg)
    rec = res.record
    assert rec.f_opt <= rec.f_upper
    assert rec.gap <= 1e-9 and rec.converged
    assert 1 <= rec.kraus_rank <= ancilla_dim
    assert 1 <= rec.iterations <= cfg.restarts * cfg.max_evals
    # the isometry is the plain (4 * ancilla_dim, 2) array, its columns orthonormal
    assert res.isometry.shape == (4 * ancilla_dim, 2)
    assert np.max(np.abs(res.isometry.conj().T @ res.isometry - np.eye(2))) <= 1e-9
    assert abs(choi_fidelity(res.isometry, lam, grid, mode) - rec.f_opt) <= 1e-12
    assert abs(per_state_fidelity(res.isometry, lam, grid, mode) - rec.f_opt) <= 1e-12


def test_the_eigen_solvers_are_numpys_lapack_gufuncs():
    # numpy renaming its private module fails here, and at the import above
    assert qnogo.fidelity._eigh is _umath_linalg.eigh_lo
    assert qnogo.fidelity._eigvalsh is _umath_linalg.eigvalsh_lo


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), a=st.integers(1, 4), lam=st.floats(0.0, 1.0),
       mode=st.sampled_from(MODES), near=st.sampled_from([0.0, 1e-8, 1e-15]))
def test_the_direct_calls_give_np_linalgs_bits(seed, a, lam, mode, near):
    """Every shape the optimizer hands LAPACK: the 2 x 2 Gram B B^dagger of _normalized,
    with near > 0 a nearly singular one, the 8 x 8 Omega - Y (x) I of _bounds and the
    a x a W^dagger W of the Kraus rank."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, 2, 4 * a))
    b = z[0] + 1j * z[1]
    if near:
        b[1] = (0.6 - 0.8j) * b[0] + near * b[1]
    for gram in (b @ b.conj().T, b.reshape(8, a).conj().T @ b.reshape(8, a)):
        vals, vecs = qnogo.fidelity._eigh(gram, signature="D->dD")
        ref = np.linalg.eigh(gram)
        assert_same_bits(vals, ref.eigenvalues)
        assert_same_bits(vecs, ref.eigenvectors)
        assert_same_bits(qnogo.fidelity._eigvalsh(gram, signature="D->d"),
                         np.linalg.eigvalsh(gram))
    y = b[:, :2] @ b[:, 2:4].conj().T
    d = _omega(uniform_grid(), lam, mode) - np.kron(0.5 * (y + y.conj().T), np.eye(4))
    assert_same_bits(qnogo.fidelity._eigvalsh(d, signature="D->d"), np.linalg.eigvalsh(d))


def flagging(solver):
    """solver, then the invalid flag set as a LAPACK failure sets it."""
    def call(a, signature):
        out = solver(a, signature=signature)
        np.sqrt(np.full(1, -1.0))
        return out
    return call


def returning_nan(solver):
    """solver with every output NaN and no flag set."""
    def call(a, signature):
        out = solver(a, signature=signature)
        return tuple(np.full_like(o, np.nan) for o in out) if isinstance(out, tuple) \
            else np.full_like(out, np.nan)
    return call


# NaN from _eigh may already flag invalid in _normalized's division; from _eigvalsh it
# reaches the bound unflagged
FAILURES = [("_eigh", flagging, "did not converge"), ("_eigvalsh", flagging, "did not converge"),
            ("_eigh", returning_nan, "did not converge|not finite"),
            ("_eigvalsh", returning_nan, "not finite")]


@pytest.mark.parametrize("name,fault,message", FAILURES)
def test_a_failed_eigen_solve_raises_linalgerror(monkeypatch, name, fault, message):
    monkeypatch.setattr(qnogo.fidelity, name, fault(getattr(qnogo.fidelity, name)))
    with pytest.raises(LinAlgError, match=message):
        optimize_fidelity(0.5, uniform_grid(), OptimizerConfig())


@pytest.mark.parametrize("name,fault,message", FAILURES)
def test_a_failed_eigen_solve_exits_1_with_one_line(monkeypatch, capsys, name, fault, message):
    monkeypatch.setattr(qnogo.fidelity, name, fault(getattr(qnogo.fidelity, name)))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(["fidelity-sweep", "--lambda", "0.5"])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and not seen
    assert re.match(f"qnogo: .*({message})", err) and err.count("\n") == 1
