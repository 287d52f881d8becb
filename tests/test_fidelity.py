import numpy as np
import pytest

from qnogo.fidelity import (
    CSV_HEADER,
    FidelitySweepRecord,
    IsometryParam,
    OptimizerConfig,
    QuadratureGrid,
    average_fidelity,
    optimize_fidelity,
    records_to_csv,
    sweep_lambda,
    uniform_grid,
)
from qnogo.states import Qubit, state_family


def bloch_xyz(q: Qubit) -> np.ndarray:
    a, b = q.alpha, q.beta
    return np.array([2 * (np.conj(a) * b).real,
                     2 * (np.conj(a) * b).imag,
                     abs(a) ** 2 - abs(b) ** 2])


def basis_cloner(ancilla_dim: int = 1) -> IsometryParam:
    """|0> -> |00>, |1> -> |11| as an isometry column matrix."""
    d = 4 * ancilla_dim
    m = np.zeros((d, 2), dtype=complex)
    m[0, 0] = 1.0
    m[3 * ancilla_dim, 1] = 1.0
    return IsometryParam(matrix=m, ancilla_dim=ancilla_dim)


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


def test_uniform_grid_size_and_weights():
    g = uniform_grid(200)
    assert len(g) >= 200
    assert np.allclose(g.weights, 1.0 / len(g))
    with pytest.raises(ValueError):
        uniform_grid(0)


def test_uniform_grid_integrates_degree_two_exactly():
    g = uniform_grid(200)
    xyz = np.array([bloch_xyz(Qubit(*row)) for row in g.states])
    w = g.weights
    # first moments vanish, second moments are delta_ij / 3
    assert np.max(np.abs(w @ xyz)) < 1e-12
    second = np.einsum("n,ni,nj->ij", w, xyz, xyz)
    assert np.max(np.abs(second - np.eye(3) / 3.0)) < 1e-12


def test_uniform_grid_is_deterministic():
    a = uniform_grid(250).states
    b = uniform_grid(250).states
    assert np.array_equal(a, b)


def test_isometry_param_validation():
    basis_cloner()  # valid
    with pytest.raises(ValueError):
        IsometryParam(matrix=np.ones((4, 2), dtype=complex), ancilla_dim=1)
    with pytest.raises(ValueError):
        IsometryParam(matrix=np.eye(4, 2, dtype=complex), ancilla_dim=3)
    with pytest.raises(ValueError):
        IsometryParam(matrix=np.eye(4, 2, dtype=complex), ancilla_dim=0)


def test_from_unconstrained_always_lands_on_the_manifold():
    rng = np.random.default_rng(17)
    for dim in (1, 2):
        for _ in range(10):
            x = rng.standard_normal(16 * dim)
            iso = IsometryParam.from_unconstrained(x, dim)
            gram = iso.matrix.conj().T @ iso.matrix
            assert np.max(np.abs(gram - np.eye(2))) < 1e-9
    # deterministic in the input vector
    x = rng.standard_normal(16)
    a = IsometryParam.from_unconstrained(x, 1).matrix
    b = IsometryParam.from_unconstrained(x, 1).matrix
    assert np.array_equal(a, b)


def test_average_fidelity_of_basis_cloner_is_two_thirds():
    # per-state score |alpha|^4 + |beta|^4 averages to 2/3 over the sphere,
    # and the grid integrates that degree-2 expression exactly
    g = uniform_grid(200)
    f = average_fidelity(basis_cloner(), 1.0, g, mode="second-register")
    assert abs(f - 2.0 / 3.0) < 1e-12


def test_average_fidelity_validation():
    g = uniform_grid(24)
    with pytest.raises(ValueError):
        average_fidelity(basis_cloner(), 1.5, g)
    with pytest.raises(ValueError):
        average_fidelity(basis_cloner(), 0.5, g, mode="sideways")


def test_average_fidelity_bounds_hold_everywhere():
    g = QuadratureGrid(state_family("bloch", 50, seed=23).state_vectors, np.full(50, 1.0 / 50))
    rng = np.random.default_rng(2)
    for lam in (0.0, 0.3, 1.0):
        for mode in ("second-register", "joint"):
            iso = IsometryParam.from_unconstrained(rng.standard_normal(32), 2)
            f = average_fidelity(iso, lam, g, mode=mode)
            assert 0.0 <= f <= 1.0


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(ancilla_dim=9)
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(method="newton")
    with pytest.raises(ValueError):
        OptimizerConfig(mode="overall")


def test_optimize_reaches_the_symmetric_cloning_score():
    g = uniform_grid(200)
    cfg = OptimizerConfig(restarts=2, max_evals=800, method="lbfgs", seed=42)
    res = optimize_fidelity(1.0, g, cfg)
    assert res.record.f_opt == pytest.approx(5.0 / 6.0, abs=1e-3)
    assert res.record.lam == 1.0
    assert res.record.mode == "second-register"
    # the returned isometry reproduces the reported value on the same grid
    check = average_fidelity(res.isometry, 1.0, g)
    assert check == pytest.approx(res.record.f_opt, abs=1e-9)


def test_optimize_is_deterministic():
    g = uniform_grid(200)
    cfg = OptimizerConfig(restarts=2, max_evals=500, method="lbfgs", seed=7)
    a = optimize_fidelity(0.5, g, cfg).record
    b = optimize_fidelity(0.5, g, cfg).record
    assert a == b


def test_optimize_joint_mode_endpoint():
    g = uniform_grid(200)
    cfg = OptimizerConfig(restarts=4, max_evals=1500, method="lbfgs",
                          mode="joint", seed=42)
    res = optimize_fidelity(1.0, g, cfg)
    assert res.record.f_opt == pytest.approx(2.0 / 3.0, abs=5e-3)
    assert res.record.mode == "joint"


def test_optimize_nelder_mead_backend_runs():
    g = uniform_grid(200)
    cfg = OptimizerConfig(restarts=1, max_evals=400, method="nelder-mead", seed=3)
    res = optimize_fidelity(1.0, g, cfg)
    assert 0.5 <= res.record.f_opt <= 1.0
    assert res.record.iterations > 0


def test_optimize_validates_lambda():
    with pytest.raises(ValueError):
        optimize_fidelity(-0.2, uniform_grid(24))


def test_sweep_lambda_and_csv():
    g = uniform_grid(200)
    cfg = OptimizerConfig(restarts=1, max_evals=400, method="lbfgs", seed=42)
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
    r = FidelitySweepRecord(lam=0.5, f_opt=0.9, mode="joint", ancilla_dim=2,
                            converged=True, iterations=10, seed=1)
    d = r.to_dict()
    assert d["lambda"] == 0.5 and d["mode"] == "joint"
    with pytest.raises(ValueError):
        FidelitySweepRecord(lam=0.5, f_opt=1.2, mode="joint", ancilla_dim=2,
                            converged=True, iterations=10, seed=1)
