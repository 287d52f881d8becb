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
from functools import lru_cache

from ._shared import FAMILIES, MODES, OPTIMIZER_DEFAULTS, REGISTRY

# Each subcommand imports the qnogo modules and numpy it runs, when it runs:
# a process loads only what its command needs.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IMPOSSIBLE = 2
EXIT_CONTENT = 3
EXIT_IO = 4

SCHEMA_VERSION = "1"

MAX_LAMBDAS = 10_001
MIN_STEP = 1e-12   # a --lambda range's least step: its values are rounded to 12 digits
MAX_GRID_N = 65_536   # circle-check memory is fixed, but its time grows as n^2: 26 s on 2 cores
# The gate targets as --target spells them, cnot as cnot23, with their names in REGISTRY
_TARGET_OPTIONS = {"cnot23" if name == "cnot" else name: name
                   for name, (_, side) in REGISTRY["target"].items() if side}


class _CliError(Exception):
    """Internal: carries an exit code and a message for stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self._print_message(self.format_usage(), sys.stderr)   # print_usage reads None as stdout
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    # help and usage text that cannot be written exit 4, as a report does; argparse drops the error
    def _print_message(self, message, file=None):
        if file is sys.stdout:
            _write_out(None, message)
        elif not _to_stderr(message):
            raise _CliError(EXIT_IO, "cannot write to stderr")


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

    A list or a range has from 1 to MAX_LAMBDAS values; a range's parts
    are checked before any value is built.  Range values are rounded to 12
    digits, so a range's step is at least MIN_STEP and its values rise strictly.
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
        if step < MIN_STEP:   # a finer step rounds onto the values it has already given
            raise ValueError(f"step must be at least {MIN_STEP}, got {step!r}")
        if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0):
            raise ValueError("range endpoints must lie in [0, 1]")
        span = (stop - start) / step
        if span > MAX_LAMBDAS - 1:
            raise ValueError(f"lambda range has more than {MAX_LAMBDAS} values")
        values = []
        # one k past the span, which rounding to 12 digits may still put at stop
        for k in range(max(math.floor(span), -1) + 2):
            v = round(start + k * step, 12)
            if v > stop + MIN_STEP:
                break
            if not values or min(v, stop) > values[-1]:   # it may round onto stop twice
                values.append(min(v, stop))
        if not values:
            raise ValueError("empty lambda range")
    elif "," in s:
        parts = [p for p in s.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty lambda list")
        if len(parts) > MAX_LAMBDAS:
            raise ValueError(f"lambda list has more than {MAX_LAMBDAS} values")
        values = [float(p) for p in parts]
    else:
        values = [float(s)]
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"lambda {v} outside [0, 1]")
    return [v + 0.0 for v in values]   # -0.0 + 0.0 is 0.0


def _read_text(path: str, what: str) -> str:
    """A file's UTF-8 text: exit 4 when it cannot be read, 3 when it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {what}{path!r}: {exc.strerror}")   # names it once
    except UnicodeDecodeError as exc:
        raise _CliError(EXIT_CONTENT, f"{what}{path!r} is not UTF-8 text: {exc}")


def load_matrix_file(path: str) -> np.ndarray:
    """Read a 2x2 or 4x4 complex matrix: one row per line, 're,im' entries."""
    import numpy as np
    from .algebra import is_unitary
    raw = _read_text(path, "matrix file ")
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
                entry = complex(float(parts[0]), float(parts[1]))
            except ValueError:
                raise _CliError(EXIT_CONTENT,
                                f"matrix entry {tok!r} has non-numeric parts") from None
            if not cmath.isfinite(entry):
                raise _CliError(EXIT_CONTENT, f"matrix entry {tok!r} is not finite")
            entries.append(entry)
        rows.append(entries)
    n = len(lines)
    if any(len(r) != n for r in rows):
        raise _CliError(EXIT_CONTENT, f"matrix file {path!r} is not square")
    m = np.array(rows, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):   # a huge entry's Gram overflows
        unitary = is_unitary(m)
    if not unitary:
        raise _CliError(EXIT_CONTENT, f"matrix in {path!r} is not unitary")
    return m


def resolve_gate(token: str) -> np.ndarray:
    """A gate is a known name, UG(a=..,b=..), or a matrix file path."""
    from .gates import NAMED_GATES, unequal_gate
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


def _resolve_target(args):
    """The target --target names; main has refused --a and --b where it takes no weights."""
    from .verifier import TargetTransform
    name = _TARGET_OPTIONS[args.target]
    if REGISTRY["target"][name][0] and (args.a is None or args.b is None):
        raise _CliError(EXIT_USAGE, f"target {args.target!r} needs --a and --b weights")
    try:
        return TargetTransform(name, args.a, args.b)
    except ValueError as exc:
        raise _CliError(EXIT_CONTENT, str(exc))


def _qubit_json(q) -> dict:
    from .states import ket_notation
    return {"ket": ket_notation(q),
            "amplitudes": [[q.alpha.real, q.alpha.imag],
                           [q.beta.real, q.beta.imag]]}


def _pair_json(pair) -> dict:
    return {"state": _qubit_json(pair[0]), "partner": _qubit_json(pair[1])}


def emit(args, payload: dict, human_lines: list[str]) -> None:
    """Render the result in the requested format and write it out."""
    if args.fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": args.subcommand,
               "seed": args.seed}
        doc.update(payload)
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(human_lines) + "\n"
    _write_out(args.output, text)


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        if sys.stdout is None:   # the process started with its stdout closed
            raise _CliError(EXIT_IO, "cannot write to stdout: it is closed")
        try:
            sys.stdout.write(text)
        except OSError as exc:
            raise _CliError(EXIT_IO, f"cannot write to stdout: {exc.strerror}")
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
        raise _CliError(EXIT_IO, f"cannot write {path!r}: {exc.strerror}")   # not the temp name


# ---------------------------------------------------------------------------
# subcommands


def cmd_gate_verify(args) -> int:
    from .states import ket_notation, state_family
    from .verifier import check_universal_gate
    gate = resolve_gate(args.gate)
    target = _resolve_target(args)
    if gate.shape != (target.side, target.side):   # refused before the family is built
        raise _CliError(EXIT_CONTENT, f"target {args.target!r} needs a "
                                      f"{target.side}x{target.side} candidate gate")
    states = state_family(args.set, args.grid_n, args.seed)
    verdict = check_universal_gate(gate, target, states, tol=args.tolerance)
    payload = {
        "gate": args.gate,
        "target": args.target,
        "set": args.set,
        "n": args.grid_n,
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
             f"  set: {args.set} (n={args.grid_n}, seed={args.seed})",
             f"  condition: {verdict.condition}",
             f"  violation: {verdict.violation!r}",
             f"  tolerance: {verdict.tolerance!r}"]
    if verdict.witness is not None:
        lines.append(f"  witness: {ket_notation(verdict.witness[0])}")
        lines.append(f"  partner: {ket_notation(verdict.witness[1])}")
    emit(args, payload, lines)
    return EXIT_OK if verdict.realizable else EXIT_IMPOSSIBLE


def cmd_witness(args) -> int:
    from .states import ket_notation
    from .verifier import witness_search
    target = _resolve_target(args)
    result = witness_search(target, n_samples=args.grid_n, seed=args.seed,
                            family=args.set)
    payload = {
        "target": args.target,
        "set": args.set,
        "n": args.grid_n,
        "violation": result.violation,
        "condition": result.condition,
        "pair": _pair_json(result.pair),
    }
    lines = [f"witness: worst sampled pair for target {args.target}",
             f"  set: {args.set} (n={args.grid_n}, seed={args.seed})",
             f"  condition: {result.condition}",
             f"  violation: {result.violation!r}",
             f"  state: {ket_notation(result.pair[0])}",
             f"  other: {ket_notation(result.pair[1])}"]
    emit(args, payload, lines)
    return EXIT_OK


def cmd_circle_check(args) -> int:
    from .verifier import circle_identities
    identities, cross = circle_identities(args.grid_n)
    ok = all(v <= args.tolerance for v in identities.values())
    status = "REALIZABLE" if ok else "IMPOSSIBLE"
    payload = {"status": status, "grid_n": args.grid_n,
               "identities": identities, "cross": cross,
               "tolerance": args.tolerance}
    lines = [f"circle-check: {status} (grid {args.grid_n}x{args.grid_n})"]
    for name, value in identities.items():
        lines.append(f"  {name}: {value!r}")
    for name, value in cross.items():
        lines.append(f"  {name}: {value!r} (expected failure of the swapped pattern)")
    emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_IMPOSSIBLE


def cmd_fidelity_sweep(args) -> int:
    try:
        lams = parse_lambda_values(args.lam)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    from .fidelity import OptimizerConfig, records_to_csv, sweep_lambda, uniform_grid
    grid = uniform_grid()
    cfg = OptimizerConfig(ancilla_dim=args.ancilla_dim, restarts=args.restarts,
                          max_evals=args.max_evals, seed=args.seed, mode=args.mode)
    records = sweep_lambda(lams, grid, cfg)
    payload = {"mode": args.mode, "nodes": len(grid),
               "records": [r.to_dict() for r in records]}
    emit(args, payload, records_to_csv(records).splitlines())
    return EXIT_OK


def cmd_dsl_check(args) -> int:
    from .dsl import CheckOptions, check_source
    text = _read_text(args.file, "")
    opts = CheckOptions(tolerance=args.tolerance, samples=args.samples,
                        seed=args.seed)
    report = check_source(text, args.file, opts)
    if not _to_stderr("".join(d.render() + "\n" for d in report.diagnostics)):
        return EXIT_IO
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
    emit(args, payload, list(report.reports))
    return EXIT_OK if report.ok else EXIT_IMPOSSIBLE


# ---------------------------------------------------------------------------
# argument wiring


def _resolve_seed(value: int | None) -> int:
    source, text = "--seed", value
    if value is None:
        source, text = "QNOGO_SEED", os.environ.get("QNOGO_SEED", "42")
    try:
        seed = int(text)
    except ValueError:
        raise _CliError(EXIT_USAGE, f"QNOGO_SEED must be an integer, got {text!r}")
    if seed < 0:
        raise _CliError(EXIT_USAGE, f"{source} must be a non-negative integer, got {seed}")
    return seed


def _add_common(sub, tolerance: bool, grid_help: str | None, formats=("human", "json")):
    if tolerance:
        sub.add_argument("--tolerance", type=float, default=1e-9,
                         help="verdict tolerance (default 1e-9)")
    if grid_help is not None:
        sub.add_argument("--grid-n", type=int, default=256, help=grid_help)
    sub.add_argument("--seed", type=int, default=None,
                     help="RNG seed (default: QNOGO_SEED or 42)")
    sub.add_argument("--format", choices=formats, default="human", dest="fmt")
    sub.add_argument("--output", default=None,
                     help="write the report to this file atomically")


def _add_target(sub):
    sub.add_argument("--target", required=True, choices=_TARGET_OPTIONS)
    sub.add_argument("--set", default="bloch", choices=FAMILIES)
    for weight in "ab":
        sub.add_argument(f"--{weight}", type=parse_complex, default=None,
                         help=f"weight {weight} for the unequal target")


@lru_cache(maxsize=1)   # built once per process: parsing leaves the parser as it was
def build_parser() -> _Parser:
    parser = _Parser(prog="qnogo",
                     description="Numerical audits of impossible qubit operations")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommands = subs.choices

    gv = subs.add_parser("gate-verify", parents=[], help="check one gate on a family")
    gates = [name + (f"({','.join(k + '=..' for k in keys)})" if keys else "")
             for name, (keys, _) in REGISTRY["candidate"].items()]
    gv.add_argument("--gate", required=True, help=" | ".join(gates + ["matrix file"]))
    _add_target(gv)
    _add_common(gv, tolerance=True, grid_help="number of states in the family (default 256)")

    wt = subs.add_parser("witness", help="search for the worst overlap witness")
    _add_target(wt)
    _add_common(wt, tolerance=False, grid_help="number of sampled states (default 256)")

    cc = subs.add_parser("circle-check", help="great-circle overlap identities")
    _add_common(cc, tolerance=True, grid_help="grid points per circle (default 256)")

    fs = subs.add_parser("fidelity-sweep", help="optimal fidelity vs lambda")
    fs.add_argument("--lambda", dest="lam", required=True,
                    help="single value, comma list, or start:stop:step")
    fs.set_defaults(**OPTIMIZER_DEFAULTS)   # OptimizerConfig's, read without loading fidelity
    fs.add_argument("--mode", choices=MODES)
    fs.add_argument("--ancilla-dim", type=int)
    fs.add_argument("--restarts", type=int, help="most starts tried")
    fs.add_argument("--max-evals", type=int, help="most steps per start")
    _add_common(fs, tolerance=False, grid_help=None, formats=("human", "json", "csv"))

    dc = subs.add_parser("dsl-check", help="check a .qmachine file")
    dc.add_argument("file")
    dc.add_argument("--samples", type=int, default=500,
                    help="states sampled for universal requirements (default 500)")
    _add_common(dc, tolerance=True, grid_help=None)
    return parser


_COMMANDS = {
    "gate-verify": cmd_gate_verify,
    "witness": cmd_witness,
    "circle-check": cmd_circle_check,
    "fidelity-sweep": cmd_fidelity_sweep,
    "dsl-check": cmd_dsl_check,
}


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args, extra = parser.parse_known_args(argv)
        sub = parser.subcommands[args.subcommand]
        if extra:   # reported with the usage of the subcommand that was given them
            sub.error(f"unrecognized arguments: {' '.join(extra)}")
        if "target" in args:   # and so are weights that the target does not take
            keys = REGISTRY["target"][_TARGET_OPTIONS[args.target]][0]
            for key in ("a", "b"):
                if getattr(args, key) is not None and key not in keys:
                    sub.error(f"argument --{key}: target {args.target} takes no weight {key}")
        args.seed = _resolve_seed(args.seed)
        # --tolerance and --grid-n where the subcommand has them, before any family is built
        if "tolerance" in args and not 0.0 < args.tolerance < math.inf:
            raise _CliError(EXIT_USAGE, "tolerance must be positive and finite")
        if "grid_n" in args and not 2 <= args.grid_n <= MAX_GRID_N:
            raise _CliError(EXIT_USAGE,
                            f"grid size must lie in [2, {MAX_GRID_N}], got {args.grid_n}")
        return _COMMANDS[args.subcommand](args)
    except _CliError as exc:
        return exc.code if _to_stderr(f"qnogo: {exc}\n") else EXIT_IO
    except ValueError as exc:
        # CheckOptions and OptimizerConfig refuse bad options
        return EXIT_USAGE if _to_stderr(f"qnogo: {exc}\n") else EXIT_IO


def _to_stderr(text: str) -> bool:
    """Write text to stderr; False when stderr is closed or cannot take it."""
    try:
        sys.stderr.write(text)
    except (AttributeError, OSError):   # sys.stderr is None when the process started without it
        return False
    return True


def _traced() -> bool:
    """True under a tracer, profiler or debugger, whose own exit work needs a normal exit."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)   # Python 3.12+: cProfile and coverage use it
    return monitoring is not None and any(monitoring.get_tool(i) for i in range(6))


def run() -> None:
    """The process entry of `python -m qnogo`, `python -m qnogo.cli` and the `qnogo` script.

    Runs main(), flushes stdout and stderr and ends the process with os._exit, skipping
    the interpreter's teardown of numpy and the other loaded modules, which nothing here
    needs: about 35 ms of a 0.23 s command on a 2-core VM.  argparse's exits (--help,
    usage errors) end main() with SystemExit, whose code is taken the same way.  A stream
    that cannot be flushed makes the exit code 4.  Under a tracer, profiler or debugger
    the process ends through sys.exit instead, so that they still run their own exit work.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    for name in ("stdout", "stderr"):
        stream = getattr(sys, name)
        try:
            if stream is not None:
                stream.flush()
        except OSError as exc:
            # a teardown flush, under a tracer, now writes the leftover bytes to /dev/null
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
            _to_stderr(f"qnogo: cannot write to {name}: {exc.strerror}\n")
            code = EXIT_IO
    if _traced():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
