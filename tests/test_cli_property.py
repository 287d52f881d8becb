"""main(argv) ends every command line in an exit code, never in a traceback.

Command lines are drawn from the CLI grammar, with sizes kept small so
that each run takes milliseconds: each subcommand with the options it
has, --tolerance where it decides a verdict and --grid-n where it builds
a family, then --seed, --format and --output, with values that are
valid, out of range or malformed.  A run may end through argparse
(SystemExit with code 1); any other exception, or a code outside 0..4,
is a defect.  An option a subcommand does not have is refused by argparse
with exit 1, whatever its value.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from qnogo.cli import main

MACHINES = Path(__file__).resolve().parents[1] / "machines"
CORPUS = sorted(str(p) for p in MACHINES.glob("*.qmachine"))


def required(name, values):
    return values.map(lambda v: [name, str(v)])


def option(name, values):
    return st.one_of(st.just([]), required(name, values))


def one_of(*values):
    return st.sampled_from(values)


def sizes(top, low=1):
    """Counts from low to top, and the refused 0 and -1."""
    return one_of(low, 0, -1, *sorted({max(top // 4, low), max(top // 2, low)}), top)


TOLERANCES = one_of("1e-9", "0", "nan", "inf", "1e999", "x", "1e-6", "0.5", "1e-9")
WEIGHTS = one_of("0.6", "0.8", "0.8i", "0", "1e200", "1e308+1e308i", "nan", "1+", "-i",
                 "0.6+0.8i", "0.8", "0.6")
LAMBDAS = one_of("0", "-0.0", "0:1", "1.5", "0:1:0", "0:2:0.5", "nan", "a:b:c", "0:1:1e-9",
                 "1", "0.5", "0.07", "0.976", "0,0.5,1", "-0.0:1:0.5", "0:1:0.5")

TOLERANCE = option("--tolerance", TOLERANCES)
GRID_SIZES = sizes(64, low=2)
GRID = option("--grid-n", GRID_SIZES)
SEED = option("--seed", st.one_of(st.integers(0, 2 ** 63), st.just(-1)))
FORMAT = option("--format", one_of("json", "human", "xml", "json"))
OUTPUT = option("--output", one_of("report.out", "missing/report.out", "report.out"))

TARGETS = one_of("hadamard9", "hadamard10", "clone", "cnot23", "unequal")
FAMILIES = one_of("bloch", "polar", "torus", "equatorial")
GATES = st.one_of(one_of("H", "HP", "no-such.mat", "UG(a=1)", "HE", "CNOT"),
                  st.tuples(WEIGHTS, WEIGHTS).map(lambda ab: f"UG(a={ab[0]},b={ab[1]})"))

COMMANDS = st.one_of(
    st.tuples(st.just(["gate-verify"]), required("--gate", GATES), required("--target", TARGETS),
              option("--set", FAMILIES), option("--a", WEIGHTS), option("--b", WEIGHTS),
              TOLERANCE, GRID, SEED, FORMAT, OUTPUT),
    st.tuples(st.just(["witness"]), required("--target", TARGETS), option("--set", FAMILIES),
              option("--a", WEIGHTS), option("--b", WEIGHTS), GRID, SEED, FORMAT, OUTPUT),
    st.tuples(st.just(["circle-check"]), TOLERANCE, GRID, SEED, FORMAT, OUTPUT),
    st.tuples(st.just(["fidelity-sweep"]), required("--lambda", LAMBDAS),
              option("--mode", one_of("second-register", "both", "joint")),
              option("--ancilla-dim", sizes(4)), option("--restarts", sizes(2)),
              option("--max-evals", sizes(200)), SEED,
              option("--format", one_of("json", "human", "xml", "csv", "json")), OUTPUT),
    st.tuples(st.just(["dsl-check"]), one_of(*CORPUS, "missing.qmachine").map(lambda f: [f]),
              option("--samples", sizes(100)), TOLERANCE, SEED, FORMAT, OUTPUT),
)

# Each subcommand's valid head, and an option it does not have: --tolerance where it decides
# no verdict, --grid-n where it builds no family of that size, csv on all but fidelity-sweep,
# the removed --nodes, and a weight where the target takes none
HEADS = {"gate-verify": ["gate-verify", "--gate", "H", "--target", "hadamard9"],
         "witness": ["witness", "--target", "hadamard9"],
         "circle-check": ["circle-check"],
         "fidelity-sweep": ["fidelity-sweep", "--lambda", "0.5"],
         "dsl-check": ["dsl-check", CORPUS[0]]}
REFUSED = st.one_of(
    st.tuples(one_of(HEADS["witness"], HEADS["fidelity-sweep"]),
              required("--tolerance", TOLERANCES)),
    st.tuples(one_of(HEADS["fidelity-sweep"], HEADS["dsl-check"]),
              required("--grid-n", GRID_SIZES)),
    st.tuples(one_of(*(head for name, head in HEADS.items() if name != "fidelity-sweep")),
              st.just(["--format", "csv"])),
    st.tuples(st.just(HEADS["fidelity-sweep"]), required("--nodes", sizes(100))),
    st.tuples(one_of(HEADS["gate-verify"], HEADS["witness"], ["witness", "--target", "cnot23"]),
              st.one_of(required("--a", one_of("0.6", "0.8i")),
                        required("--b", one_of("0.8", "-i")))),
)


def run_main(argv) -> tuple[int, str]:
    """main's exit code, or argparse's, and what it wrote to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse refuses the command line
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(command=COMMANDS)
def test_main_returns_an_exit_code_for_every_command_line(command):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("QNOGO_SEED", None)
        argv = [part for group in command for part in group]
        argv = [os.path.join(tmp, a) if a.endswith("report.out") else a for a in argv]
        code, err = run_main(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code, err)
    if code == 1:
        assert err.strip(), argv


@settings(max_examples=100, deadline=None)
@given(command=REFUSED, extra=st.tuples(SEED, option("--format", one_of("json", "human"))))
def test_an_option_the_subcommand_does_not_have_exits_1(command, extra):
    argv = [part for group in command + extra for part in group]
    code, err = run_main(argv)
    assert code == 1, argv
    assert err.startswith("usage: qnogo "), argv
    last = err.splitlines()[-1]
    assert last.startswith("qnogo") and ": error: " in last and command[1][0] in last, argv
