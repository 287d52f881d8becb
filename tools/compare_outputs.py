"""Compare qnogo's command-line output between two source trees.

    python tools/compare_outputs.py PARENT_TREE CHANGE_TREE
    python tools/compare_outputs.py PARENT_TREE CHANGE_TREE --grid-n 10000

Each command runs as `python -m qnogo` with the tree's src/ on PYTHONPATH
and the tree as the working directory, so file names in the reports
read the same in both.  The commands are

  * every command-line operation of perfbench/workloads.py (all three
    workloads; none writes a file),
  * witness for every target and family at each --grid-n,
  * circle-check at each --grid-n,
  * gate-verify for every gate, target and family at the default size,
    size mismatches included, and
  * gate-verify for every matched gate and target on every family, and
    dsl-check on every file of machines/, at STATE_BLOCK + 1 and
    2 STATE_BLOCK + 1 states (the per-state kernels' one block with a
    lone last row joined to it, and two blocks with a seam between them)
    and at each --grid-n, so that the screened worst-state reductions
    also meet families of 10^4 or 65 536 states,

each at seeds 0 and 42, then a few usage errors (an unrecognized option, an
invalid --format choice, a missing --target, weights for a target that takes
none), and dsl-check on each of a fixed
list of small units, one per diagnostic, written once to a temporary directory
that both trees read; two commands run at a time.  A command whose exit
code, stdout or stderr differs between the trees is printed with the
first line that differs, and the script exits 1 if there is one, 0 if
all agree.
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

TARGETS = (("hadamard9",), ("hadamard10",), ("unequal", "--a", "0.6", "--b", "0.8i"),
           ("cnot23",))
FAMILIES = ("bloch", "polar", "equatorial")
SEEDS = (0, 42)
GATES = ("H", "HP", "HE", "CNOT", "UG(a=0.6,b=0.8)")
STATE_BLOCK = 1024   # qnogo.verifier._STATE_BLOCK, the rows per block of the per-state kernels
# the witness targets and unequal with real weights; a 2x2 gate on cnot23 or a 4x4 one on the
# others exits 3
GATE_TARGETS = TARGETS[:2] + (("unequal", "--a", "0.6", "--b", "0.8"),) + TARGETS[2:]
_RULES = "on |0> -> |0>|0>;\non |1> -> |1>|1>;\n"
_R = "0.7071067811865476"   # 1/sqrt(2), as machines/hybrid_half.qmachine writes it
# command lines refused with exit 1, a usage line and one error line: by argparse, and weights
# for a target that takes none
USAGE_ERRORS = (
    ("witness", "--target", "hadamard9", "--tolerance", "1e-9"),   # witness decides no verdict
    ("circle-check", "--format", "csv"),   # a choice of fidelity-sweep alone
    ("gate-verify", "--gate", "H"),
    ("gate-verify", "--gate", "H", "--target", "hadamard9", "--a", "0.6", "--b", "0.8"),
)
# One unit per lexer diagnostic, parser recovery path and compile diagnostic, each reported
# on stderr
UNITS = {
    "unknown-ket": "on |2> -> |0>|0>;\n",
    "bad-ket-bar-only": "on |0> -> |22222222|0>;\nrequire basis;\n",   # no '>' close by
    "bar-at-end": "candidate H;\nrequire universal on polar target hadamard9; |",
    "unexpected-character": "machine m; @\nrequire basis;\n",
    "overflow": "on |0> -> 1e999|00>;\non |1> -> |1>|1>;\nextend linear;\nrequire basis;\n",
    "overflow-complex": "candidate UG(a=1e999i, b=0.5);\nrequire basis;\n",
    "comment-at-end": "machine m;\nrequire # and no newline",
    "no-statement": "machine m;\nfoo bar;\nrequire basis;\n",
    "no-machine-name": "machine ;\ncandidate H;\nrequire basis;\n",
    "rule-not-on-basis": "on |+> -> |0>|0>;\n",
    "no-arrow": "on |0> |0>|0>;\n",
    "term-without-ket": "on |0> -> 0.5 + ;\n",
    "no-number": "candidate UG(a=(), b=1);\n",
    "unknown-extension": "extend quadratic;\n",
    "complex-lambda": "extend hybrid(lambda=0.5i);\n",
    "unknown-requirement": "require always;\n",
    "unknown-family": "require universal on torus target clone;\n",
    "unknown-target": "require universal on bloch target teleport;\n",
    "unknown-gate": "candidate T;\n",
    "duplicate-clause": "candidate H;\ncandidate HP;\nrequire basis;\nrequire basis;\n",
    "duplicate-rule": "on |0> -> |0>|0>;\non |0> -> |1>|1>;\nextend linear;\nrequire basis;\n",
    "missing-extension": "on |0> -> |0>|0>;\non |1> -> |1>|1>;\nrequire basis;\n",
    "rules-and-candidate": ("on |0> -> |0>|0>;\non |1> -> |1>|1>;\nextend linear;\n"
                            "candidate H;\nrequire universal on bloch target clone;\n"),
    "targets-without-clauses": ("machine a;\nrequire universal on bloch target clone;\n"
                                "machine b;\nextend linear;\nrequire basis;\n"
                                "machine c;\nrequire universal on polar target cnot;\n"),
    # the call clauses' argument lists
    "call-no-lparen": "extend hybrid lambda=0.5);\n",
    "call-wrong-key": "candidate UG(a=0.6, c=0.8);\n",
    "call-no-comma": "require universal on polar target unequal(a=0.6 b=0.8);\n",
    "call-no-rparen": "extend hybrid(lambda=0.5;\n",
    "call-name-only": "candidate UG;\n",
    # a rule that fails to parse still counts as declared: one diagnostic, not two
    "unclosed-parenthesis": ("on |0> -> (0.6|0>|0>;\non |1> -> |1>|1>;\nextend linear;\n"
                             "require basis;\n"),
    # compile diagnostics, and a warning that lets the check run
    "lambda-range-extend": _RULES + "extend hybrid(lambda=1.5);\nrequire basis;\n",
    "lambda-range-target": _RULES + "extend linear;\n"
                                    "require universal on bloch target hybrid(lambda=-0.5);\n",
    "not-normalized": "on |0> -> 2|0>|0>;\non |1> -> |1>|1>;\nextend linear;\nrequire basis;\n",
    "renormalized": ("on |0> -> 1.0000001|0>|0>;\non |1> -> |1>|1>;\nextend linear;\n"
                     "require basis;\n"),
    "mismatched-terms": ("on |0> -> |00> + |0>;\non |1> -> |1>|1>;\nextend linear;\n"
                         "require basis;\n"),
    "one-register": "on |0> -> |0>;\non |1> -> |1>;\nextend linear;\nrequire basis;\n",
    "rules-differ-in-size": ("on |0> -> |0>|0>|0>;\non |1> -> |1>|1>;\nextend linear;\n"
                             "require basis;\n"),
    "not-orthogonal": "on |0> -> |0>|0>;\non |1> -> |0>|0>;\nextend linear;\nrequire basis;\n",
    "hybrid-rule-mismatch": _RULES + "extend hybrid(lambda=0.5);\nrequire basis;\n",
    # the one unit whose ideal output carries a two-level final ancilla
    "three-register-hybrid": (f"on |0> -> {_R}|0>|0>|0> + {_R}|0>|1>|0>;\n"
                              f"on |1> -> {_R}|1>|1>|0> - {_R}|1>|0>|0>;\n"
                              "extend hybrid(lambda=0.5);\n"
                              "require universal on bloch target hybrid(lambda=0.5);\n"),
    "three-register-linear": ("on |0> -> |0>|0>|0>;\non |1> -> |1>|1>|0>;\nextend linear;\n"
                              "require universal on bloch target clone;\n"),
    "multi-qubit-listed": "candidate H;\nrequire universal on list(|0>, |01>) target hadamard9;\n",
    "candidate-size": "candidate CNOT;\nrequire universal on polar target hadamard9;\n",
    "complex-UG": ("candidate UG(a=0.6, b=0.8i);\n"
                   "require universal on polar target unequal(a=0.6, b=0.8i);\n"),
    "bad-unequal-weights": ("candidate UG(a=0.6, b=0.8);\n"
                            "require universal on polar target unequal(a=1, b=1);\n"),
    # a coefficient in 5000 parentheses, which checks as in one pair, and a 24-qubit term,
    # refused before its 2^24 amplitudes are built
    "nested-parentheses": "on |0> -> " + "(-" * 5000 + "1" + ")" * 5000 + "|0>|0>;\n"
                          "on |1> -> |1>|1>;\nextend linear;\nrequire basis;\n",
    "wide-term": "on |0> -> " + "|0000>" * 6 + ";\non |1> -> |1>|1>;\nextend linear;\n"
                 "require basis;\n",
    # parts that mix both amplitudes in one column, where a matrix product rounds otherwise
    "dense-parts": ("on |0> -> 0.6|0>|0> + 0.8i|1>|1>;\non |1> -> 0.8|0>|0> - 0.6i|1>|1>;\n"
                    "extend linear;\nrequire universal on polar target hybrid(lambda=0.3);\n"),
}


def commands(grid_sizes, unit_dir: Path) -> list[tuple[str, ...]]:
    """The argv of every command to compare, in a fixed order and without repeats;
    unit_dir holds UNITS, each in a file named after its key."""
    argvs = []
    for seed in SEEDS:
        for name in workloads.NAMES:
            ops = workloads.build(name, Path("."), seed).ops
            argvs += [op.argv for op in ops if op.argv is not None]   # the survey has none
        for target, family, n in itertools.product(TARGETS, FAMILIES, grid_sizes):
            argvs.append(("witness", "--target", *target, "--set", family,
                          "--grid-n", str(n), "--format", "json", "--seed", str(seed)))
        argvs += [("circle-check", "--grid-n", str(n), "--format", "json", "--seed", str(seed))
                  for n in grid_sizes]
        for gate, target, family in itertools.product(GATES, GATE_TARGETS, FAMILIES):
            argvs.append(("gate-verify", "--gate", gate, "--target", *target, "--set", family,
                          "--format", "json", "--seed", str(seed)))
        sizes = dict.fromkeys((STATE_BLOCK + 1, 2 * STATE_BLOCK + 1, *grid_sizes))
        for gate, target, family, n in itertools.product(GATES, GATE_TARGETS, FAMILIES, sizes):
            if (gate == "CNOT") == (target[0] == "cnot23"):   # a mismatch builds no family
                argvs.append(("gate-verify", "--gate", gate, "--target", *target,
                              "--set", family, "--grid-n", str(n),
                              "--format", "json", "--seed", str(seed)))
        for stem, samples in itertools.product(sorted(workloads.CORPUS_EXIT), sizes):
            argvs.append(("dsl-check", str(Path("machines") / f"{stem}.qmachine"),
                          "--samples", str(samples), "--format", "json", "--seed", str(seed)))
    argvs += USAGE_ERRORS
    argvs += [("dsl-check", str(unit_dir / f"{name}.qmachine")) for name in UNITS]
    return list(dict.fromkeys(argvs))


def run(tree: Path, argv: tuple[str, ...]) -> tuple[int, bytes, bytes]:
    env = {k: v for k, v in os.environ.items() if k not in ("QNOGO_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(tree / "src")
    done = subprocess.run([sys.executable, "-m", "qnogo", *argv], cwd=tree, env=env,
                          capture_output=True, timeout=600)
    return done.returncode, done.stdout, done.stderr


def difference(before: tuple[int, bytes, bytes], after: tuple[int, bytes, bytes]) -> str | None:
    """How two (exit code, stdout, stderr) results differ, or None when they agree."""
    if before[0] != after[0]:
        return f"exit {before[0]} -> {after[0]}"
    for stream, old, new in (("stdout", before[1], after[1]), ("stderr", before[2], after[2])):
        if old == new:
            continue
        pairs = itertools.zip_longest(old.splitlines(), new.splitlines(), fillvalue=b"")
        for k, (a, b) in enumerate(pairs):
            if a != b:
                return f"{stream} line {k + 1}: {a.decode(errors='replace')!r} -> " \
                       f"{b.decode(errors='replace')!r}"
        return f"{stream} differs"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/compare_outputs.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="tree of the parent commit")
    parser.add_argument("change", type=Path, help="tree of the change")
    # 13: one row block meets itself in one square tile, 8 + 5 columns wide: real polar tiles
    # lose the bits of the complex ones there if the tile goes to syrk, whose 4-column edge
    # kernel does not fuse its multiply-adds.  1025 = 4 x 256 + 1: four row blocks,
    # the last with a lone row joined, and the first block's columns run one past an exact
    # tile.  1281 = 5 x 256 + 1 = 1024 + 257: the first row block's last column tile is 257
    # wide at both the estimate's and the exact pass's tile width, a lone column joined to each
    parser.add_argument("--grid-n", type=int, nargs="+",
                        default=[2, 13, 257, 321, 1025, 1281, 2000],
                        help="witness, circle-check, gate-verify and dsl-check sizes "
                             "(default 2 13 257 321 1025 1281 2000)")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in (args.parent, args.change)]
    for tree in trees:
        if not (tree / "src" / "qnogo").is_dir():
            parser.error(f"{tree} has no src/qnogo")
    with tempfile.TemporaryDirectory(prefix="qnogo-units-") as unit_dir, \
            ThreadPoolExecutor(max_workers=2) as pool:
        for name, text in UNITS.items():
            (Path(unit_dir) / f"{name}.qmachine").write_text(text, encoding="utf-8")
        argvs = commands(args.grid_n, Path(unit_dir))
        results = [pool.map(lambda a, tree=tree: run(tree, a), argvs) for tree in trees]
        differences = [(a, difference(b, c)) for a, b, c in zip(argvs, *results)]
    differing = [(a, d) for a, d in differences if d is not None]
    for a, d in differing:
        print(f"DIFFERS  qnogo {' '.join(a)}\n         {d}")
    print(f"{len(argvs)} commands, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
