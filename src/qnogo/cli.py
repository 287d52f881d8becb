"""Command-line front end.

Five subcommands: gate-verify (one fixed gate against a rule target on
a state family), witness (worst overlap-discrepancy pair), circle-check
(great-circle overlap-pattern identities), fidelity-sweep (optimal
approximate-machine fidelity versus the mixing weight), and dsl-check
(verdicts for .qmachine files).

Exit codes are a stable contract:

    0  success / REALIZABLE
    1  usage error
    2  IMPOSSIBLE (a successful verification whose answer is "no")
    3  malformed content (parse or compile errors, bad matrix files)
    4  I/O failure

All randomized paths honor --seed (falling back to the QNOGO_SEED
environment variable, then 42); identical invocations produce
byte-identical machine-readable output.  Files are written atomically.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .algebra import is_unitary, row_blocks
from .dsl import CheckOptions, check_source
from .fidelity import (
    CSV_HEADER,
    OptimizerConfig,
    optimize_fidelity,
    records_to_csv,
    uniform_grid,
)
from .gates import NAMED_GATES, unequal_gate
from .states import ket_notation, named_set, state_family
from .verifier import check_cnot_universal, check_universal_gate, named_target, witness_search

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IMPOSSIBLE = 2
EXIT_CONTENT = 3
EXIT_IO = 4

SCHEMA_VERSION = "1"

MAX_LAMBDAS = 10_001


class _CliError(Exception):
    """Internal: carries an exit code and a message for stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    """Resolved options shared by the subcommands."""

    subcommand: str
    tolerance: float = 1e-9
    grid_n: int = 256
    seed: int = 42
    fmt: str = "human"
    output: str | None = None

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.grid_n < 2:
            raise ValueError("grid size must be at least 2")


def parse_complex(text: str) -> complex:
    """Parse a finite scalar like '0.6', '0.8i', '0.6+0.8i', '-i'."""
    s = text.strip().replace(" ", "")
    if s in ("i", "+i"):
        return 1j
    if s == "-i":
        return -1j
    try:
        value = complex(s.replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex number from {text!r}") from None
    if not cmath.isfinite(value):
        raise ValueError(f"complex number {text!r} is not finite")
    return value


def parse_lambda_values(text: str) -> list[float]:
    """--lambda accepts a single value, a comma list, or start:stop:step.

    A range has at most MAX_LAMBDAS values; its parts are checked before
    any value is built.
    """
    s = text.strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError("range form is start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise ValueError("range parts must be finite")
        if step <= 0.0:
            raise ValueError("step must be positive")
        if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0):
            raise ValueError("range endpoints must lie in [0, 1]")
        span = (stop - start) / step   # inf when the step underflows
        if span > MAX_LAMBDAS - 1:
            raise ValueError(f"lambda range has more than {MAX_LAMBDAS} values")
        values = []
        # one k past the span, which rounding to 12 digits may still put at stop
        for k in range(max(math.floor(span), -1) + 2):
            v = round(start + k * step, 12)
            if v > stop + 1e-12:
                break
            values.append(min(v, stop))
        if not values:
            raise ValueError("empty lambda range")
    elif "," in s:
        values = [float(p) for p in s.split(",") if p.strip()]
    else:
        values = [float(s)]
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"lambda {v} outside [0, 1]")
    return values


def load_matrix_file(path: str) -> np.ndarray:
    """Read a 2x2 or 4x4 complex matrix: one row per line, 're,im' entries."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read matrix file {path!r}: {exc}")
    lines = [ln for ln in raw.splitlines() if ln.strip()]
    if len(lines) not in (2, 4):
        raise _CliError(EXIT_CONTENT,
                        f"matrix file {path!r} must have 2 or 4 rows, found {len(lines)}")
    rows = []
    for ln in lines:
        entries = []
        for tok in ln.split():
            parts = tok.split(",")
            if len(parts) != 2:
                raise _CliError(EXIT_CONTENT,
                                f"matrix entry {tok!r} is not of the form re,im")
            try:
                entries.append(complex(float(parts[0]), float(parts[1])))
            except ValueError:
                raise _CliError(EXIT_CONTENT,
                                f"matrix entry {tok!r} has non-numeric parts") from None
        rows.append(entries)
    n = len(lines)
    if any(len(r) != n for r in rows):
        raise _CliError(EXIT_CONTENT, f"matrix file {path!r} is not square")
    m = np.array(rows, dtype=complex)
    if not is_unitary(m):
        raise _CliError(EXIT_CONTENT, f"matrix in {path!r} is not unitary")
    return m


def resolve_gate(token: str) -> np.ndarray:
    """A gate is a known name, UG(a=..,b=..), or a matrix file path."""
    if token in NAMED_GATES:
        return NAMED_GATES[token]
    if token.startswith("UG(") and token.endswith(")"):
        body = token[3:-1]
        kv = {}
        for part in body.split(","):
            if "=" not in part:
                raise _CliError(EXIT_USAGE, f"bad UG weight syntax in {token!r}")
            key, val = part.split("=", 1)
            kv[key.strip()] = val.strip()
        if set(kv) != {"a", "b"}:
            raise _CliError(EXIT_USAGE, f"UG needs exactly a= and b=, got {token!r}")
        try:
            a, b = parse_complex(kv["a"]), parse_complex(kv["b"])
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, str(exc))
        try:
            return unequal_gate((a, b))
        except ValueError as exc:
            raise _CliError(EXIT_CONTENT, str(exc))
    return load_matrix_file(token)


def _resolve_target(name: str, a, b):
    if name == "unequal" and (a is None or b is None):
        raise _CliError(EXIT_USAGE, "target 'unequal' needs --a and --b weights")
    try:
        return named_target("cnot" if name == "cnot23" else name, a, b)
    except ValueError as exc:
        raise _CliError(EXIT_CONTENT, str(exc))


def _qubit_json(q) -> dict:
    return {"ket": ket_notation(q),
            "amplitudes": [[q.alpha.real, q.alpha.imag],
                           [q.beta.real, q.beta.imag]]}


def _pair_json(pair) -> dict:
    return {"state": _qubit_json(pair[0]), "partner": _qubit_json(pair[1])}


def emit(cfg: RunConfig, payload: dict, human_lines: list[str]) -> None:
    """Render the result in the requested format and write it out."""
    if cfg.fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": cfg.subcommand,
               "seed": cfg.seed}
        doc.update(payload)
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(human_lines) + "\n"
    _write_out(cfg.output, text)


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qnogo-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {path!r}: {exc}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gate_verify(args, cfg: RunConfig) -> int:
    gate = resolve_gate(args.gate)
    target = _resolve_target(args.target, args.a, args.b)
    states = named_set(args.set, cfg.grid_n, cfg.seed)
    if args.target == "cnot23":
        if gate.shape != (4, 4):
            raise _CliError(EXIT_CONTENT,
                            "target 'cnot23' needs a 4x4 candidate gate")
        verdict = check_cnot_universal(gate, states, tol=cfg.tolerance)
    else:
        if gate.shape != (2, 2):
            raise _CliError(EXIT_CONTENT,
                            f"target {args.target!r} needs a 2x2 candidate gate")
        verdict = check_universal_gate(gate, target, states, tol=cfg.tolerance)
    payload = {
        "gate": args.gate,
        "target": args.target,
        "set": args.set,
        "n": cfg.grid_n,
        "status": verdict.status,
        "realizable": verdict.realizable,
        "violation": verdict.violation,
        "tolerance": verdict.tolerance,
        "condition": verdict.condition,
        "witness": None if verdict.witness is None else _pair_json(verdict.witness),
        "detail": verdict.detail,
    }
    lines = [f"gate-verify: {verdict.status}",
             f"  gate: {args.gate}",
             f"  target: {args.target}",
             f"  set: {args.set} (n={cfg.grid_n}, seed={cfg.seed})",
             f"  condition: {verdict.condition}",
             f"  violation: {verdict.violation!r}",
             f"  tolerance: {verdict.tolerance!r}"]
    if verdict.witness is not None:
        lines.append(f"  witness: {ket_notation(verdict.witness[0])}")
        lines.append(f"  partner: {ket_notation(verdict.witness[1])}")
    emit(cfg, payload, lines)
    return EXIT_OK if verdict.realizable else EXIT_IMPOSSIBLE


def cmd_witness(args, cfg: RunConfig) -> int:
    target = _resolve_target(args.target, args.a, args.b)
    result = witness_search(target, n_samples=cfg.grid_n, seed=cfg.seed,
                            family=args.set)
    payload = {
        "target": args.target,
        "set": args.set,
        "n": cfg.grid_n,
        "violation": result.violation,
        "condition": result.condition,
        "pair": _pair_json(result.pair),
    }
    lines = [f"witness: worst sampled pair for target {args.target}",
             f"  set: {args.set} (n={cfg.grid_n}, seed={cfg.seed})",
             f"  condition: {result.condition}",
             f"  violation: {result.violation!r}",
             f"  state: {ket_notation(result.pair[0])}",
             f"  other: {ket_notation(result.pair[1])}"]
    emit(cfg, payload, lines)
    return EXIT_OK


def _circle_residuals(kind: str, n: int) -> tuple[float, float, float]:
    """Max overlap-pattern residuals over the n x n parameter grid.

    Returns (diagonal residual, own-pattern off-diagonal residual,
    swapped-pattern off-diagonal residual).  The diagonal identity is
    shared; the off-diagonal sign is what distinguishes the circles.
    """
    family = state_family(kind, n)
    s, p = family.state_vectors, family.partner_vectors
    diag = anti = sym = 0.0
    for lo, hi in row_blocks(n, 256):   # 256 rows of Gram entries at a time
        sc, pc = s[lo:hi].conj(), p[lo:hi].conj()
        g01, g10 = sc @ p.T, pc @ s.T
        diag = max(diag, float(np.abs(sc @ s.T - pc @ p.T).max()))
        anti = max(anti, float(np.abs(g01 + g10).max()))   # polar sign pattern
        sym = max(sym, float(np.abs(g01 - g10).max()))     # equatorial sign pattern
    if kind == "polar":
        return diag, anti, sym
    return diag, sym, anti


def cmd_circle_check(args, cfg: RunConfig) -> int:
    pol_diag, pol_own, pol_cross = _circle_residuals("polar", cfg.grid_n)
    eq_diag, eq_own, eq_cross = _circle_residuals("equatorial", cfg.grid_n)
    identities = {
        "polar-diagonal": pol_diag,
        "polar-offdiagonal": pol_own,
        "equatorial-diagonal": eq_diag,
        "equatorial-offdiagonal": eq_own,
    }
    cross = {
        "equatorial-pattern-on-polar": pol_cross,
        "polar-pattern-on-equatorial": eq_cross,
    }
    ok = all(v <= cfg.tolerance for v in identities.values())
    status = "REALIZABLE" if ok else "IMPOSSIBLE"
    payload = {"status": status, "grid_n": cfg.grid_n,
               "identities": identities, "cross": cross,
               "tolerance": cfg.tolerance}
    lines = [f"circle-check: {status} (grid {cfg.grid_n}x{cfg.grid_n})"]
    for name, value in identities.items():
        lines.append(f"  {name}: {value!r}")
    for name, value in cross.items():
        lines.append(f"  {name}: {value!r} (expected failure of the swapped pattern)")
    emit(cfg, payload, lines)
    return EXIT_OK if ok else EXIT_IMPOSSIBLE


def cmd_fidelity_sweep(args, cfg: RunConfig) -> int:
    try:
        lams = parse_lambda_values(args.lam)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    grid = uniform_grid(args.nodes)
    records = []
    for lam in lams:
        ocfg = OptimizerConfig(ancilla_dim=args.ancilla_dim,
                               restarts=args.restarts,
                               max_evals=args.max_evals,
                               seed=cfg.seed,
                               method=args.method,
                               mode=args.mode)
        records.append(optimize_fidelity(lam, grid, ocfg).record)
    if cfg.fmt == "csv" or (cfg.fmt == "human" and args.output_csv):
        _write_out(cfg.output, records_to_csv(records))
        return EXIT_OK
    payload = {"mode": args.mode, "nodes": len(grid),
               "records": [r.to_dict() for r in records]}
    lines = [CSV_HEADER]
    lines += records_to_csv(records).splitlines()[1:]
    emit(cfg, payload, lines)
    return EXIT_OK


def cmd_dsl_check(args, cfg: RunConfig) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {args.file!r}: {exc}")
    opts = CheckOptions(tolerance=cfg.tolerance, samples=args.samples,
                        seed=cfg.seed)
    report = check_source(text, args.file, opts)
    for d in report.diagnostics:
        sys.stderr.write(d.render() + "\n")
    if report.has_errors:
        return EXIT_CONTENT
    payload = {
        "file": args.file,
        "samples": args.samples,
        "diagnostics": [d.render() for d in report.diagnostics],
        "machines": [
            {"name": name, "status": v.status, "realizable": v.realizable,
             "violation": v.violation, "tolerance": v.tolerance,
             "condition": v.condition,
             "witness": None if v.witness is None else _pair_json(v.witness)}
            for name, v in zip(report.names, report.verdicts)],
    }
    emit(cfg, payload, list(report.reports))
    return EXIT_OK if report.ok else EXIT_IMPOSSIBLE


# ---------------------------------------------------------------------------
# argument wiring


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("QNOGO_SEED")
    if env is None:
        return 42
    try:
        return int(env)
    except ValueError:
        raise _CliError(EXIT_USAGE, f"QNOGO_SEED must be an integer, got {env!r}")


def _add_common(sub, grid_help: str):
    sub.add_argument("--tolerance", type=float, default=1e-9,
                     help="verdict tolerance (default 1e-9)")
    sub.add_argument("--grid-n", type=int, default=256, help=grid_help)
    sub.add_argument("--seed", type=int, default=None,
                     help="RNG seed (default: QNOGO_SEED or 42)")
    sub.add_argument("--format", choices=("human", "json", "csv"),
                     default="human", dest="fmt")
    sub.add_argument("--output", default=None,
                     help="write the report to this file atomically")


def build_parser() -> _Parser:
    parser = _Parser(prog="qnogo",
                     description="Numerical audits of impossible qubit operations")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    gv = subs.add_parser("gate-verify", parents=[], help="check one gate on a family")
    gv.add_argument("--gate", required=True,
                    help="H | HP | HE | CNOT | UG(a=..,b=..) | matrix file")
    gv.add_argument("--target", required=True,
                    choices=("hadamard9", "hadamard10", "unequal", "cnot23"))
    gv.add_argument("--set", default="bloch",
                    choices=("bloch", "polar", "equatorial"))
    gv.add_argument("--a", type=parse_complex, default=None,
                    help="weight a for the unequal target")
    gv.add_argument("--b", type=parse_complex, default=None,
                    help="weight b for the unequal target")
    _add_common(gv, "number of states in the family (default 256)")

    wt = subs.add_parser("witness", help="search for the worst overlap witness")
    wt.add_argument("--target", required=True,
                    choices=("hadamard9", "hadamard10", "unequal", "cnot23"))
    wt.add_argument("--set", default="bloch",
                    choices=("bloch", "polar", "equatorial"))
    wt.add_argument("--a", type=parse_complex, default=None)
    wt.add_argument("--b", type=parse_complex, default=None)
    _add_common(wt, "number of sampled states (default 256)")

    cc = subs.add_parser("circle-check", help="great-circle overlap identities")
    _add_common(cc, "grid points per circle (default 256)")

    fs = subs.add_parser("fidelity-sweep", help="optimal fidelity vs lambda")
    fs.add_argument("--lambda", dest="lam", required=True,
                    help="single value, comma list, or start:stop:step")
    opt = OptimizerConfig()
    fs.add_argument("--mode", choices=("second-register", "joint"), default=opt.mode)
    fs.add_argument("--ancilla-dim", type=int, default=opt.ancilla_dim)
    fs.add_argument("--restarts", type=int, default=opt.restarts)
    fs.add_argument("--max-evals", type=int, default=opt.max_evals)
    fs.add_argument("--method", choices=("nelder-mead", "lbfgs"), default=opt.method)
    fs.add_argument("--nodes", type=int, default=200,
                    help="minimum quadrature nodes (default 200)")
    fs.add_argument("--output-csv", action="store_true",
                    help="force CSV rows even in human mode")
    _add_common(fs, "unused for this subcommand")

    dc = subs.add_parser("dsl-check", help="check a .qmachine file")
    dc.add_argument("file")
    dc.add_argument("--samples", type=int, default=500,
                    help="states sampled for universal requirements (default 500)")
    _add_common(dc, "unused for this subcommand")
    return parser


_COMMANDS = {
    "gate-verify": cmd_gate_verify,
    "witness": cmd_witness,
    "circle-check": cmd_circle_check,
    "fidelity-sweep": cmd_fidelity_sweep,
    "dsl-check": cmd_dsl_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        seed = _resolve_seed(args.seed)
        cfg = RunConfig(subcommand=args.subcommand,
                        tolerance=args.tolerance,
                        grid_n=args.grid_n,
                        seed=seed,
                        fmt=args.fmt,
                        output=args.output)
        if cfg.fmt == "csv" and cfg.subcommand != "fidelity-sweep":
            raise _CliError(EXIT_USAGE,
                            "csv output is only available for fidelity-sweep")
        return _COMMANDS[cfg.subcommand](args, cfg)
    except _CliError as exc:
        sys.stderr.write(f"qnogo: {exc}\n")
        return exc.code
    except ValueError as exc:
        # RunConfig, CheckOptions, OptimizerConfig and uniform_grid refuse bad options
        sys.stderr.write(f"qnogo: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
