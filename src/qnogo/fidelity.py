"""Best achievable average fidelity for the weighted copy-and-complement task.

The exact machine psi -> psi (x) (sqrt(lam) psi + sqrt(1-lam) psi-bar)
does not exist, so the interesting quantity is how close an isometry
from the input qubit into (system1 (x) system2 (x) ancilla) can get on
average over the sphere.  Two gradings are provided:

  second-register: the mean of the two per-register fidelities — how
      well register 1 retains psi and register 2 carries the weighted
      output.  At lam=1 this is the standard symmetric-cloning score.
  joint: fidelity of the two principal registers against the full
      product target, tracing out only the ancilla.

Averages use a deterministic quadrature: unions of rotated icosahedra,
whose vertices integrate degree-2 polynomials of the Bloch vector
exactly, so the endpoint objectives are averaged without grid error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import BlochAngles, Qubit, qubit_from_bloch, sample_bloch

_MODES = ("second-register", "joint")


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Weighted states over which fidelities are averaged."""

    nodes: tuple

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("empty quadrature grid")
        total = 0.0
        for q, w in self.nodes:
            if not isinstance(q, Qubit):
                raise TypeError("grid nodes must be (Qubit, weight) pairs")
            if w < 0.0:
                raise ValueError("negative quadrature weight")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"quadrature weights sum to {total!r}, not 1")

    def __len__(self) -> int:
        return len(self.nodes)

    def states_array(self) -> np.ndarray:
        return np.array([q.vector for q, _ in self.nodes])

    def weights_array(self) -> np.ndarray:
        return np.array([w for _, w in self.nodes])


def _icosahedron() -> np.ndarray:
    g = (1.0 + np.sqrt(5.0)) / 2.0
    raw = []
    for a in (-1.0, 1.0):
        for b in (-g, g):
            raw.extend([(0.0, a, b), (a, b, 0.0), (b, 0.0, a)])
    pts = np.array(raw)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _bloch_to_qubit(xyz: np.ndarray) -> Qubit:
    theta = float(np.arccos(np.clip(xyz[2], -1.0, 1.0)))
    phi = float(np.arctan2(xyz[1], xyz[0])) % (2.0 * np.pi)
    return qubit_from_bloch(BlochAngles(theta, phi))


def uniform_grid(n_min: int = 200) -> QuadratureGrid:
    """Deterministic sphere quadrature with at least n_min nodes.

    Built as a union of rotated icosahedra (the first copy unrotated);
    every copy keeps the degree-2 exactness of the icosahedron, so the
    union does too.  All nodes carry equal weight.
    """
    if n_min < 1:
        raise ValueError("need at least one node")
    base = _icosahedron()
    copies = math.ceil(n_min / len(base))
    rng = np.random.default_rng(1069406)
    blocks = [base]
    for _ in range(copies - 1):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
        if np.linalg.det(q) < 0.0:
            q[:, 0] = -q[:, 0]
        blocks.append(base @ q.T)
    pts = np.concatenate(blocks, axis=0)
    w = 1.0 / len(pts)
    return QuadratureGrid(tuple((_bloch_to_qubit(p), w) for p in pts))


def monte_carlo_grid(n: int, seed: int | None = 42) -> QuadratureGrid:
    """Equal-weight uniform random sphere sample; deterministic per seed."""
    qs = sample_bloch(n, seed=seed)
    w = 1.0 / n
    return QuadratureGrid(tuple((q, w) for q in qs))


@dataclass(frozen=True, eq=False)
class IsometryParam:
    """A (4*ancilla_dim) x 2 isometry from the input qubit to the output registers."""

    matrix: np.ndarray
    ancilla_dim: int

    def __post_init__(self):
        if not 1 <= self.ancilla_dim <= 4:
            raise ValueError("ancilla dimension must lie in [1, 4]")
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4 * self.ancilla_dim, 2):
            raise ValueError(f"expected shape {(4 * self.ancilla_dim, 2)}, got {m.shape}")
        gram = m.conj().T @ m
        if np.max(np.abs(gram - np.eye(2))) > 1e-9:
            raise ValueError("columns are not orthonormal: not an isometry")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_unconstrained(cls, x: np.ndarray, ancilla_dim: int) -> "IsometryParam":
        """Orthonormalize a free real vector into an isometry.

        x holds the real parts of the 2 columns followed by the
        imaginary parts (16*ancilla_dim real numbers in total).  QR with
        the R-diagonal phases folded back keeps the map smooth almost
        everywhere, which is what the optimizer needs.
        """
        d = 4 * ancilla_dim
        x = np.asarray(x, dtype=float)
        if x.size != 4 * d:
            raise ValueError(f"expected {4 * d} parameters, got {x.size}")
        z = (x[:2 * d] + 1j * x[2 * d:]).reshape(d, 2)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        safe = np.where(np.abs(diag) > 1e-12, diag, 1.0)
        return cls(matrix=q * (safe / np.abs(safe))[np.newaxis, :], ancilla_dim=ancilla_dim)


def _targets(states: np.ndarray, lam: float) -> np.ndarray:
    comp = np.stack([-states[:, 1].conj(), states[:, 0].conj()], axis=1)
    t = np.sqrt(lam) * states + np.sqrt(1.0 - lam) * comp
    return t / np.linalg.norm(t, axis=1, keepdims=True)


def _avg_fidelity_arrays(v: np.ndarray, ancilla_dim: int, states: np.ndarray,
                         targets: np.ndarray, weights: np.ndarray, mode: str) -> float:
    out = (v @ states.T).T.reshape(-1, 2, 2, ancilla_dim)
    if mode == "joint":
        resid = np.einsum("ni,nj,nijk->nk", states.conj(), targets.conj(), out)
        f = np.abs(np.einsum("nk,nk->n", resid.conj(), resid))
    else:
        r1 = np.einsum("ni,nijk->njk", states.conj(), out)
        r2 = np.einsum("nj,nijk->nik", targets.conj(), out)
        f1 = np.einsum("njk,njk->n", r1.conj(), r1).real
        f2 = np.einsum("nik,nik->n", r2.conj(), r2).real
        f = 0.5 * (f1 + f2)
    return float(np.dot(weights, f))


def average_fidelity(v: IsometryParam, lam: float, grid: QuadratureGrid,
                     mode: str = "second-register") -> float:
    """Grid-weighted fidelity of the isometry against the lam-weighted target."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam!r}")
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
    s = grid.states_array()
    val = _avg_fidelity_arrays(v.matrix, v.ancilla_dim, s, _targets(s, lam),
                               grid.weights_array(), mode)
    if val > 1.0 + 1e-9:
        raise ValueError(f"fidelity {val!r} exceeds 1: corrupted isometry or grid")
    return min(val, 1.0)


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the fidelity search.

    method "nelder-mead" is the default direct search; "lbfgs" switches
    to gradient ascent with finite differences, which converges in far
    fewer evaluations on this smooth objective.
    """

    ancilla_dim: int = 2
    restarts: int = 20
    max_evals: int = 5000
    seed: int = 42
    method: str = "nelder-mead"
    mode: str = "second-register"

    def __post_init__(self):
        if not 1 <= self.ancilla_dim <= 4:
            raise ValueError("ancilla dimension must lie in [1, 4]")
        if self.restarts < 1 or self.max_evals < 1:
            raise ValueError("restarts and max_evals must be positive")
        if self.method not in ("nelder-mead", "lbfgs"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class FidelitySweepRecord:
    """One optimized point of the fidelity-vs-lam curve."""

    lam: float
    f_opt: float
    mode: str
    ancilla_dim: int
    converged: bool
    iterations: int
    seed: int

    def __post_init__(self):
        if not -1e-9 <= self.f_opt <= 1.0 + 1e-9:
            raise ValueError(f"fidelity {self.f_opt!r} outside [0, 1]")

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "f_opt": self.f_opt, "mode": self.mode,
                "ancilla_dim": self.ancilla_dim, "converged": self.converged,
                "iterations": self.iterations, "seed": self.seed}


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best isometry found, its sweep record, and the improvement trace."""

    record: FidelitySweepRecord
    isometry: IsometryParam
    trace: tuple


def optimize_fidelity(lam: float, grid: QuadratureGrid,
                      cfg: OptimizerConfig = OptimizerConfig()) -> OptimizationResult:
    """Maximize average fidelity over isometries by seeded random restarts.

    Every candidate parameter vector is orthonormalized before being
    scored, so the search never leaves the isometry manifold.  The trace
    records the running best value at each improvement, and is monotone
    by construction.  converged reflects the optimizer's own success
    flag on the best restart.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam!r}")
    from scipy import optimize as _sciopt   # deferred: only this function needs scipy
    s = grid.states_array()
    t = _targets(s, lam)
    w = grid.weights_array()
    dim = 16 * cfg.ancilla_dim
    state = {"best": -1.0, "best_x": None, "evals": 0, "trace": []}

    def objective(x: np.ndarray) -> float:
        iso = IsometryParam.from_unconstrained(x, cfg.ancilla_dim)
        f = _avg_fidelity_arrays(iso.matrix, cfg.ancilla_dim, s, t, w, cfg.mode)
        state["evals"] += 1
        if f > state["best"]:
            state["best"] = f
            state["best_x"] = x.copy()
            state["trace"].append(f)
        return -f

    converged = False
    best_fun = np.inf
    for k in range(cfg.restarts):
        x0 = np.random.default_rng([cfg.seed, k]).standard_normal(dim)
        if cfg.method == "lbfgs":
            res = _sciopt.minimize(objective, x0, method="L-BFGS-B",
                                   options={"maxfun": cfg.max_evals})
        else:
            res = _sciopt.minimize(objective, x0, method="Nelder-Mead",
                                   options={"maxfev": cfg.max_evals, "xatol": 1e-8,
                                            "fatol": 1e-10, "adaptive": True})
        if res.fun < best_fun:
            best_fun = res.fun
            converged = bool(res.success)
    iso = IsometryParam.from_unconstrained(state["best_x"], cfg.ancilla_dim)
    record = FidelitySweepRecord(lam=float(lam), f_opt=min(state["best"], 1.0),
                                 mode=cfg.mode, ancilla_dim=cfg.ancilla_dim,
                                 converged=converged, iterations=state["evals"],
                                 seed=cfg.seed)
    return OptimizationResult(record=record, isometry=iso, trace=tuple(state["trace"]))


def sweep_lambda(lambdas, grid: QuadratureGrid,
                 cfg: OptimizerConfig = OptimizerConfig()) -> list[FidelitySweepRecord]:
    """One optimized record per weight; deterministic for a fixed config."""
    records = []
    for lam in lambdas:
        records.append(optimize_fidelity(float(lam), grid, cfg).record)
    return records


CSV_HEADER = "lambda,f_opt,mode,ancilla_dim,converged,iterations,seed"


def records_to_csv(records) -> str:
    """Stable CSV rendering; floats use repr so reruns are byte-identical."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.lam!r},{r.f_opt!r},{r.mode},{r.ancilla_dim},"
                     f"{str(r.converged).lower()},{r.iterations},{r.seed}")
    return "\n".join(lines) + "\n"
