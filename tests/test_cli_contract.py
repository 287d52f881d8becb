"""The command line refuses bad numbers and bad options with exit 1.

Non-finite weights and tolerances used to slip through (a NaN weight
passes an `abs(...) > 1e-12` check and then loses every comparison, so
the run reported REALIZABLE with violation 0.0), and four option errors
ended in a Python traceback.  Every case here must end with exit 1 and a
one-line message instead.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qnogo.cli import main, parse_complex
from qnogo.dsl import CheckOptions
from qnogo.gates import UnequalAmplitudes
from qnogo.verifier import audit_unequal, target_unequal

ROOT = Path(__file__).resolve().parents[1]
CLONE = str(ROOT / "machines" / "clone.qmachine")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("QNOGO_SEED", raising=False)


def exit_code(argv, capsys):
    """main's return code, or argparse's exit code, plus stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["gate-verify", "--gate", "HP", "--target", "unequal", "--a", "nan", "--b", "1",
     "--set", "polar"],
    ["witness", "--target", "unequal", "--a", "nan", "--b", "1", "--set", "polar"],
    ["witness", "--target", "unequal", "--a", "0.6", "--b", "1e999", "--set", "polar"],
    ["gate-verify", "--gate", "UG(a=nan,b=1)", "--target", "unequal", "--a", "0.6",
     "--b", "0.8", "--set", "polar"],
])
def test_non_finite_weights_exit_1(argv, capsys):
    code, out, err = exit_code(argv, capsys)
    assert code == 1
    assert out == ""
    assert "REALIZABLE" not in err


@pytest.mark.parametrize("tolerance", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("argv", [
    ["gate-verify", "--gate", "HP", "--target", "hadamard9", "--set", "polar"],
    ["witness", "--target", "hadamard9", "--set", "polar"],
    ["circle-check", "--grid-n", "16"],
    ["dsl-check", CLONE],
])
def test_non_finite_tolerance_exits_1(argv, tolerance, capsys):
    code, out, err = exit_code(argv + [f"--tolerance={tolerance}"], capsys)
    assert code == 1
    assert out == ""
    assert err == "qnogo: tolerance must be positive and finite\n"


@pytest.mark.parametrize("argv,needle", [
    (["fidelity-sweep", "--lambda", "0.5", "--nodes", "0"], "node"),
    (["fidelity-sweep", "--lambda", "0.5", "--restarts", "0"], "restarts"),
    (["fidelity-sweep", "--lambda", "0.5", "--ancilla-dim", "9"], "ancilla"),
    (["dsl-check", CLONE, "--samples", "0"], "sample"),
])
def test_bad_options_exit_1_without_a_traceback(argv, needle, capsys):
    code, out, err = exit_code(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("qnogo: ") and err.count("\n") == 1
    assert needle in err


def test_library_entry_points_refuse_non_finite_numbers():
    for text in ("nan", "1e999", "nan+1i", "-1e999i"):
        with pytest.raises(ValueError):
            parse_complex(text)
    for a, b in ((math.nan, 1.0), (1.0, math.inf), (complex(math.nan, 1.0), 0.0)):
        with pytest.raises(ValueError):
            target_unequal(a, b)
        with pytest.raises(ValueError):
            audit_unequal(a, b, (0.1, 0.2))
    with pytest.raises(ValueError):
        UnequalAmplitudes(math.nan, 1.0)
    for tol in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            CheckOptions(tolerance=tol)


def test_importing_the_cli_does_not_load_scipy():
    code = "import sys, qnogo.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.strip() == "False"
