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

psi-bar is antilinear, so the target is not a function of the ray and the
average depends on the phase convention: psi = (cos theta/2, e^{i phi} sin theta/2)
and psi-bar = (-e^{-i phi} sin theta/2, cos theta/2).  Both gradings are linear
in the 8x8 Choi matrix of the machine, F = tr(J Omega), so the optimum is a small
SDP, solved with numpy alone and certified by its dual.

Omega is averaged exactly by a product rule: Gauss-Legendre nodes in cos theta
times equispaced azimuths.  Expanded, each entry of Omega (an average of
amplitudes of psi, psi-bar and t) is a sum of products of at most six factors,
each cos(theta/2), or sin(theta/2) times e^{i phi} or e^{-i phi}.  So a term
e^{i k phi} has |k| <= 3 (second-register) or |k| <= 4 (joint), and 5 azimuths
sum every k != 0 term to zero.  The number of sin(theta/2) factors has the
parity of k, so a k = 0 term has an even number of each factor: it is a
polynomial of degree at most 3 in cos theta, which 2 Gauss-Legendre nodes
integrate exactly.  The 2 x 5 rule is the smallest exact one (1 x 5 and 2 x 4
are not); larger rules change only rounding.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._record import record
from ._shared import MODES, OPTIMIZER_DEFAULTS
from .algebra import kron_rows
from .states import _bloch_rows, _checked, _complements


@record(eq=False)
class QuadratureGrid:
    """Weighted states over which fidelities are averaged.

    states is a validated, read-only (n, 2) complex array; weights is a
    read-only (n,) array of finite, non-negative weights that sum to 1.
    """

    states: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", _checked(self.states))
        w = np.array(self.weights, dtype=float)
        if w.shape != (len(self.states),):
            raise ValueError(f"expected {len(self.states)} quadrature weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("quadrature weights must be finite and non-negative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"quadrature weights sum to {total!r}, not 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.states)


@lru_cache(maxsize=1)   # every call shares the grid: its arrays are read-only
def uniform_grid() -> QuadratureGrid:
    """The sphere quadrature of fidelity-sweep: 10 Gauss-Legendre nodes in cos theta
    times 20 equispaced azimuths.  Any product rule of at least 2 x 5 nodes gives the
    exact average of Omega (module docstring), so a larger one changes only rounding."""
    m, k = 10, 20
    # Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix, and the
    # weights (summing to 1) the squares of the first row of its eigenvectors
    j = np.arange(1.0, m)
    off = j / np.sqrt(4.0 * j * j - 1.0)
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    theta = np.repeat(np.arccos(x), k)
    phi = np.tile(np.arange(k) * (2.0 * np.pi / k), m)
    return QuadratureGrid(_bloch_rows(theta, phi), np.repeat(v[0] ** 2 / k, k))


def _targets(states: np.ndarray, lam: float) -> np.ndarray:
    """sqrt(lam) psi + sqrt(1-lam) psi-bar per row: unit, since <psi|psi-bar> is exactly 0."""
    return np.sqrt(lam) * states + np.sqrt(1.0 - lam) * _complements(states)


def _omega(grid: QuadratureGrid, lam: float, mode: str) -> np.ndarray:
    """Omega = sum_n w_n conj(psi_n) psi_n^T (x) A_n, so F = tr(J Omega) for the
    Choi matrix J, indexed (input, register 1, register 2).  Each sum over nodes
    is one matmul of (n, 4) or (n, 8) rows; no (n, 8, 8) stack is built."""
    s, w = grid.states, grid.weights
    t = _targets(s, lam)
    psi = kron_rows(s.conj(), s)
    if mode == "joint":   # A_n = |psi t><psi t|
        r = kron_rows(psi, t)
        return (r.T * w) @ r.conj()
    # A_n = (|psi><psi| (x) I + I (x) |t><t|) / 2
    g1, g2 = ((r.T * w) @ r.conj() for r in (psi, kron_rows(s.conj(), t)))
    e = np.eye(2) / 2.0
    return (np.einsum("aibk,jl->aijbkl", g1.reshape(2, 2, 2, 2), e)
            + np.einsum("ajbl,ik->aijbkl", g2.reshape(2, 2, 2, 2), e)).reshape(8, 8)


@record
class OptimizerConfig:
    """Settings for the fidelity search; the CLI's defaults are these.

    restarts is the most random starts tried and max_evals the most
    fixed-point steps per start.
    """

    ancilla_dim: int = OPTIMIZER_DEFAULTS["ancilla_dim"]
    restarts: int = OPTIMIZER_DEFAULTS["restarts"]
    max_evals: int = OPTIMIZER_DEFAULTS["max_evals"]
    seed: int = 42
    mode: str = OPTIMIZER_DEFAULTS["mode"]

    def __post_init__(self):
        if not 1 <= self.ancilla_dim <= 4:
            raise ValueError("ancilla dimension must lie in [1, 4]")
        if self.restarts < 1 or self.max_evals < 1:
            raise ValueError("restarts and max_evals must be positive")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


@record
class FidelitySweepRecord:
    """One optimized point of the fidelity-vs-lam curve: the returned isometry
    achieves f_opt, and the optimum lies in [f_opt, f_upper], gap = f_upper - f_opt.
    kraus_rank is the smallest ancilla dimension that achieves f_opt."""

    lam: float
    f_opt: float
    mode: str
    ancilla_dim: int
    converged: bool
    iterations: int
    seed: int
    f_upper: float
    gap: float
    kraus_rank: int

    def __post_init__(self):
        if not -1e-9 <= self.f_opt <= 1.0 + 1e-9:
            raise ValueError(f"fidelity {self.f_opt!r} outside [0, 1]")

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "f_opt": self.f_opt, "mode": self.mode,
                "ancilla_dim": self.ancilla_dim, "converged": self.converged,
                "iterations": self.iterations, "seed": self.seed,
                "f_upper": self.f_upper, "gap": self.gap, "kraus_rank": self.kraus_rank}


@record(eq=False)
class OptimizationResult:
    """Best isometry found, a (4 * ancilla_dim, 2) array from the input qubit to the output
    registers, and its sweep record."""

    record: FidelitySweepRecord
    isometry: np.ndarray


_STOP_GAP = 1e-10        # a start stops once its certificate closes this far
_CONVERGED_GAP = 1e-9    # a record is converged when its gap is at most this
_CHECK_EVERY = 10        # fixed-point steps between certificate checks
_SHIFT = 1e-3            # Omega + _SHIFT I has the same maximizer, since tr J = 2
# Kraus weights (eigenvalues of W^dagger W, summing to tr J = 2) above this count
# towards kraus_rank.  A start that stops at _STOP_GAP on a rank-1 optimum keeps a
# second weight of up to about 6e-8 that carries no fidelity; the rank-2 optima of
# both modes have a second weight of at least 0.03.
_RANK_FLOOR = 1e-5


def _normalized(x: np.ndarray) -> np.ndarray:
    """(tr_out X X^dagger)^(-1/2) (x) I applied to stacked Kraus vectors X."""
    blocks = x.reshape(2, -1)   # rows: input index; columns: (out1, out2, ancilla)
    vals, vecs = np.linalg.eigh(blocks @ blocks.conj().T)
    return ((vecs / np.sqrt(vals)) @ vecs.conj().T @ blocks).reshape(x.shape)


def _bounds(omega: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """tr(J Omega) for J = W W^dagger, and the dual bound tr Y + 2 lambda_max(Omega - Y (x) I)
    from Y = Herm(tr_out Omega J): Y shifted by that lambda_max is dual feasible."""
    x = omega @ w
    y = x.reshape(2, -1) @ w.reshape(2, -1).conj().T
    y = 0.5 * (y + y.conj().T)
    d = omega.copy()
    d.reshape(2, 4, 2, 4)[:, range(4), :, range(4)] -= y   # Omega - Y (x) I
    shift = np.linalg.eigvalsh(d)[-1]
    return float(np.vdot(w, x).real), float(np.trace(y).real + 2.0 * shift)


def _aitken(w: np.ndarray, d: np.ndarray, d_prev: np.ndarray):
    """Jump a linearly converging sequence towards its limit along its last step d."""
    norm = np.vdot(d_prev, d_prev).real
    r = np.vdot(d_prev, d).real / norm if norm > 0.0 else 0.0
    return _normalized(w + r / (1.0 - r) * d) if 0.0 < r < 1.0 else None


def optimize_fidelity(lam: float, grid: QuadratureGrid,
                      cfg: OptimizerConfig = OptimizerConfig()) -> OptimizationResult:
    """Maximize average fidelity over isometries, with a certified upper bound.

    F is linear in the Choi matrix J: maximize tr(J Omega) over J >= 0 with
    tr_out J = I.  Each start runs Fiurasek's extremal-equation iteration
    (PRA 64, 062310 (2001)) on J = W W^dagger, W an 8 x ancilla_dim matrix of
    Kraus vectors.  Every _CHECK_EVERY steps it checks the dual bound and
    keeps an Aitken jump that scores higher: near a change of Kraus rank the
    plain iteration takes thousands of steps.  A start stops at gap _STOP_GAP,
    the restarts once the best start is within _CONVERGED_GAP of the bound.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam!r}")
    omega = _omega(grid, lam, cfg.mode)
    climb = omega + _SHIFT * np.eye(8)   # keeps tr_out X X^dagger invertible
    a = cfg.ancilla_dim
    best_f, best_w, f_upper, steps = -math.inf, None, math.inf, 0
    for k in range(cfg.restarts):
        z = np.random.default_rng([cfg.seed, k]).standard_normal((2, 8, a))
        w = w_seen = _normalized(z[0] + 1j * z[1])
        d_seen = np.zeros_like(w)
        for n in range(1, cfg.max_evals + 1):
            w = _normalized(climb @ w)
            if n % _CHECK_EVERY and n < cfg.max_evals:
                continue
            f, upper = _bounds(omega, w)
            d = w - w_seen
            jump = _aitken(w, d, d_seen)
            if jump is not None:
                f_jump, upper_jump = _bounds(omega, jump)
                upper = min(upper, upper_jump)
                if f_jump > f:
                    w, f = jump, f_jump
            w_seen, d_seen = w, d
            f_upper = min(f_upper, upper)
            if f > best_f:
                best_f, best_w = f, w
            if upper - f <= _STOP_GAP:
                break
        steps += n
        if f_upper - best_f <= _CONVERGED_GAP:
            break
    f_opt = min(best_f, 1.0)
    f_upper = max(f_upper, f_opt)   # rounding may put the bound 1 ulp below
    rank = int(np.sum(np.linalg.eigvalsh(best_w.conj().T @ best_w) > _RANK_FLOOR))
    iso = best_w.reshape(2, 2, 2, a).transpose(1, 2, 3, 0).reshape(4 * a, 2)
    record = FidelitySweepRecord(lam=float(lam), f_opt=f_opt, mode=cfg.mode, ancilla_dim=a,
                                 converged=f_upper - f_opt <= _CONVERGED_GAP, iterations=steps,
                                 seed=cfg.seed, f_upper=f_upper, gap=f_upper - f_opt,
                                 kraus_rank=rank)
    return OptimizationResult(record=record, isometry=iso)


def sweep_lambda(lambdas, grid: QuadratureGrid,
                 cfg: OptimizerConfig = OptimizerConfig()) -> list[FidelitySweepRecord]:
    """One optimized record per weight; deterministic for a fixed config."""
    return [optimize_fidelity(float(lam), grid, cfg).record for lam in lambdas]


CSV_HEADER = "lambda,f_opt,mode,ancilla_dim,converged,iterations,seed,f_upper,gap,kraus_rank"


def records_to_csv(records) -> str:
    """Stable CSV rendering; floats use repr so reruns are byte-identical."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.lam!r},{r.f_opt!r},{r.mode},{r.ancilla_dim},"
                     f"{str(r.converged).lower()},{r.iterations},{r.seed},"
                     f"{r.f_upper!r},{r.gap!r},{r.kraus_rank}")
    return "\n".join(lines) + "\n"
