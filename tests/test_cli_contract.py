"""The command line refuses bad numbers and bad options with exit 1.

Non-finite weights and tolerances used to slip through (a NaN weight
passes an `abs(...) > 1e-12` check and then loses every comparison, so
the run reported REALIZABLE with violation 0.0), and four option errors
ended in a Python traceback.  Every case here must end with exit 1 and a
one-line message instead.  A .qmachine number too large for a float is
malformed content: exit 3, reported at the literal, with no numpy warning.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qnogo
import qnogo.cli
import qnogo.dsl
import qnogo.fidelity
from qnogo.cli import (
    MAX_GRID_N,
    MAX_LAMBDAS,
    MAX_NODES,
    RunConfig,
    main,
    parse_complex,
    parse_lambda_values,
)
from qnogo.dsl import MAX_SAMPLES, CheckOptions
from qnogo.gates import unequal_gate
from qnogo.verifier import target_unequal

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
    ["circle-check", "--grid-n", "16"],
    ["dsl-check", CLONE],
])
def test_non_finite_tolerance_exits_1(argv, tolerance, capsys):
    code, out, err = exit_code(argv + [f"--tolerance={tolerance}"], capsys)
    assert code == 1
    assert out == ""
    assert err == "qnogo: tolerance must be positive and finite\n"


@pytest.mark.parametrize("tolerance", ["inf", "nan", "1e-9"])
def test_witness_has_no_tolerance_to_refuse(tolerance, capsys):
    # witness decides no verdict: argparse refuses the option whatever its value
    code, out, err = exit_code(["witness", "--target", "hadamard9", "--set", "polar",
                                f"--tolerance={tolerance}"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: qnogo witness ")   # the usage of the subcommand refusing it
    last = err.splitlines()[-1]
    assert last == f"qnogo witness: error: unrecognized arguments: --tolerance={tolerance}"


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


@pytest.mark.parametrize("text", ["0:nan:0.1", "0:1:nan", "0:inf:0.5", "0:1:1e-9",
                                  "0:2:0.5", "-1:1:0.5"])
def test_lambda_ranges_are_checked_before_they_are_built(text, capsys):
    code, out, err = exit_code(["fidelity-sweep", f"--lambda={text}"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("qnogo: ") and err.count("\n") == 1


@pytest.mark.parametrize("source,where,literal", [
    ("machine big;\non |0> -> 1e999|0>|0>;\non |1> -> |1>|1>;\nextend linear;\n"
     "require universal on bloch target clone;\n", "2:11", "1e999"),
    ("machine u;\ncandidate UG(a=0.6, b=1e999i);\n"
     "require universal on polar target unequal(a=0.6, b=0.8);\n", "2:23", "1e999i"),
    ("machine h;\non |0> -> |0>|0>;\non |1> -> |1>|1>;\nextend hybrid(lambda=1e999);\n"
     "require universal on bloch target clone;\n", "4:22", "1e999"),
])
def test_overflowing_dsl_literals_are_refused_at_the_literal(source, where, literal,
                                                             tmp_path, capsys):
    path = tmp_path / "big.qmachine"
    path.write_text(source)
    code, out, err = exit_code(["dsl-check", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err == f"{path}:{where}: error: number {literal!r} overflows\n"


def test_library_entry_points_refuse_non_finite_numbers():
    for text in ("nan", "1e999", "nan+1i", "-1e999i"):
        with pytest.raises(ValueError):
            parse_complex(text)
    for a, b in ((math.nan, 1.0), (1.0, math.inf), (complex(math.nan, 1.0), 0.0)):
        with pytest.raises(ValueError):
            target_unequal(a, b)
    with pytest.raises(ValueError):
        unequal_gate((math.nan, 1.0))
    for tol in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            CheckOptions(tolerance=tol)


def _forbidden(*args, **kwargs):
    raise AssertionError("a refused size reached a command")


@pytest.mark.parametrize("value", [MAX_GRID_N + 1, 10**12])
@pytest.mark.parametrize("argv", [
    ["witness", "--target", "hadamard9"],
    ["witness", "--target", "cnot23", "--set", "polar"],
    ["gate-verify", "--gate", "CNOT", "--target", "cnot23"],
    ["circle-check"],
])
def test_grid_sizes_above_the_cap_exit_1_before_any_family(argv, value, monkeypatch, capsys):
    # RunConfig refuses the size, so no command runs and no family is allocated
    for name in ("gate-verify", "witness", "circle-check"):
        monkeypatch.setitem(qnogo.cli._COMMANDS, name, _forbidden)
    code, out, err = exit_code(argv + ["--grid-n", str(value)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"qnogo: grid size must lie in [2, {MAX_GRID_N}], got {value}\n"


@pytest.mark.parametrize("value", [MAX_SAMPLES + 1, 10**12])
def test_sample_counts_above_the_cap_exit_1_before_any_family(value, monkeypatch, capsys):
    monkeypatch.setattr(qnogo.dsl, "check_source", _forbidden)
    code, out, err = exit_code(["dsl-check", CLONE, "--samples", str(value)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"qnogo: samples must lie in [1, {MAX_SAMPLES}], got {value}\n"
    with pytest.raises(ValueError, match="samples"):
        CheckOptions(samples=value)


@pytest.mark.parametrize("value", [MAX_NODES + 1, 10**8])
def test_node_counts_above_the_cap_exit_1_before_any_grid(value, monkeypatch, capsys):
    # 10^6 nodes took 5.5 s and 433 MB; 65 536 take about 0.4 s and 56 MB (whole process)
    monkeypatch.setattr(qnogo.fidelity, "uniform_grid", _forbidden)
    code, out, err = exit_code(["fidelity-sweep", "--lambda", "0.5", "--nodes", str(value)],
                               capsys)
    assert code == 1
    assert out == ""
    assert err == f"qnogo: nodes must lie in [1, {MAX_NODES}], got {value}\n"


@pytest.mark.parametrize("text,message", [
    (",", "empty lambda list"),
    (" , ,", "empty lambda list"),
    (",".join(["0.5"] * (MAX_LAMBDAS + 1)), f"lambda list has more than {MAX_LAMBDAS} values"),
])
def test_lambda_lists_are_refused_when_empty_or_over_the_range_cap(text, message, monkeypatch,
                                                                   capsys):
    # "," ran no weight and exited 0 with "records": []; a list skipped the range's cap
    monkeypatch.setattr(qnogo.fidelity, "sweep_lambda", _forbidden)
    code, out, err = exit_code(["fidelity-sweep", f"--lambda={text}"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"qnogo: {message}\n"
    assert parse_lambda_values(",".join(["1"] * MAX_LAMBDAS) + ",") == [1.0] * MAX_LAMBDAS


@pytest.mark.parametrize("argv", [["dsl-check", "{path}"],
                                  ["gate-verify", "--gate", "{path}", "--target", "hadamard9"]])
def test_undecodable_files_exit_3_naming_the_file(argv, tmp_path, capsys):
    # a UnicodeDecodeError is a ValueError, which ended as exit 1 without the file's name
    path = tmp_path / "latin1.txt"
    path.write_bytes("# r\u00e9sum\u00e9\nmachine main;\n".encode("latin-1"))
    code, out, err = exit_code([a.format(path=path) for a in argv], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("qnogo: ") and err.count("\n") == 1
    assert f"{str(path)!r} is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9" in err


def test_the_caps_admit_every_size_the_suite_and_benchmark_use():
    # sizes of 10 000 are the largest in use; both caps are checked without running them
    assert RunConfig(subcommand="witness", grid_n=MAX_GRID_N).grid_n >= 10_000
    assert CheckOptions(samples=MAX_SAMPLES).samples >= 10_000


@pytest.mark.parametrize("argv", [
    ["gate-verify", "--gate", "UG(a=0.6,b=1e200)", "--target", "hadamard9"],
    ["witness", "--target", "unequal", "--a", "0.6", "--b", "1e200", "--set", "polar"],
    ["witness", "--target", "unequal", "--a", "1e308+1e308i", "--b", "0.8"],
])
def test_weights_whose_squares_overflow_exit_1(argv, capsys):
    # squaring 1e200 raised OverflowError, which ended in a traceback
    code, out, err = exit_code(argv, capsys)
    assert code in (1, 3)
    assert out == ""
    assert err.startswith("qnogo: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["-0.0", "-0.0,0.5", "-0.0:1:0.5"])
def test_negative_zero_lambda_is_reported_as_zero(text, capsys):
    values = parse_lambda_values(text)
    assert values[0] == 0.0 and math.copysign(1.0, values[0]) == 1.0
    code, out, _ = exit_code(["fidelity-sweep", f"--lambda={text}", "--format", "csv",
                              "--restarts", "1", "--max-evals", "20"], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("0.0,")


@pytest.mark.parametrize("argv", [
    ["witness", "--target", "hadamard9", "--grid-n", "8"],
    ["gate-verify", "--gate", "H", "--target", "hadamard9", "--grid-n", "8"],
    ["circle-check", "--grid-n", "8"],
    ["fidelity-sweep", "--lambda", "0.5", "--nodes", "12"],
    ["dsl-check", CLONE, "--samples", "8"],
])
@pytest.mark.parametrize("flag,env,source", [(["--seed", "-1"], None, "--seed"),
                                             ([], "-3", "QNOGO_SEED")])
def test_negative_seeds_exit_1_naming_their_source(argv, flag, env, source, monkeypatch, capsys):
    # numpy's own refusal names neither the option nor the value
    if env is not None:
        monkeypatch.setenv("QNOGO_SEED", env)
    code, out, err = exit_code(argv + flag, capsys)
    assert code == 1
    assert out == ""
    value = flag[1] if flag else env
    assert err == f"qnogo: {source} must be a non-negative integer, got {value}\n"


@pytest.mark.parametrize("restarts,max_evals,ancilla_dim", [(1, 5, 1), (2, 7, 1), (1, 1, 2),
                                                            (3, 40, 2), (2, 200, 1)])
def test_iterations_count_fixed_point_steps_within_the_budget(restarts, max_evals,
                                                             ancilla_dim, capsys):
    code, out, _ = exit_code(["fidelity-sweep", "--lambda", "0,1", "--format", "json",
                              "--restarts", str(restarts), "--max-evals", str(max_evals),
                              "--ancilla-dim", str(ancilla_dim)], capsys)
    assert code == 0
    for record in json.loads(out)["records"]:
        assert 1 <= record["iterations"] <= restarts * max_evals
        assert record["converged"] == (record["gap"] <= 1e-9)


def test_a_usage_error_leaves_the_shared_parser_as_a_fresh_process_finds_it(capsys):
    # main builds its parser once per process; a refused command line that set --set and
    # --grid-n before failing must not change what the next one parses to
    assert exit_code(["witness", "--target", "hadamard9", "--set", "polar", "--grid-n", "x"],
                     capsys)[0] == 1
    argv = ["witness", "--target", "hadamard9", "--format", "json", "--seed", "3"]
    code, out, _ = exit_code(argv, capsys)
    fresh = subprocess.run([sys.executable, "-m", "qnogo", *argv], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (code, out) == (fresh.returncode, fresh.stdout)
    assert json.loads(out)["set"] == "bloch"


def test_importing_the_cli_does_not_load_scipy():
    # a whole fidelity-sweep runs on numpy alone
    code = ("import sys, qnogo.cli\n"
            "qnogo.cli.main(['fidelity-sweep', '--lambda', '0:1:0.5', '--format', 'csv'])\n"
            "sys.stderr.write(str('scipy' in sys.modules))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert len(run.stdout.splitlines()) == 4
    assert run.stderr == "False"


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def test_importing_the_cli_loads_neither_numpy_nor_the_dsl_nor_fidelity():
    # each subcommand imports what it runs when it runs
    run = _python("import sys, qnogo.cli\n"
                  "sys.stdout.write(' '.join(m for m in ('numpy', 'qnogo.dsl', 'qnogo.fidelity')"
                  " if m in sys.modules))")
    assert run.stdout == ""


@pytest.mark.parametrize("stem", ["invalid_bad_ket", "invalid_missing_extend", "invalid_syntax"])
def test_a_malformed_unit_exits_3_without_loading_numpy(stem):
    # lexing and parsing are numpy-free, and compile_unit runs only on a clean parse
    path = str(ROOT / "machines" / f"{stem}.qmachine")
    run = _python("import sys, qnogo.cli\n"
                  f"code = qnogo.cli.main(['dsl-check', {path!r}])\n"
                  "sys.stdout.write(f'{code} {\"numpy\" in sys.modules}')")
    assert run.stdout == "3 False"
    lines = run.stderr.splitlines()
    assert lines and all(line.startswith(f"{path}:") and ": error: " in line for line in lines)


def test_every_public_name_resolves_to_its_submodule_object():
    # qnogo/__init__ loads a submodule on first use of one of its names
    run = _python("import importlib, sys, qnogo\n"
                  "print(sorted(m for m in sys.modules if m.startswith('qnogo')))\n"
                  "mods = [importlib.import_module('qnogo.' + m) for m in\n"
                  "        ('algebra', 'dsl', 'fidelity', 'gates', 'states', 'verifier')]\n"
                  "print([n for n in qnogo.__all__\n"
                  "       if not any(vars(m).get(n, qnogo) is getattr(qnogo, n) for m in mods)])")
    assert run.stdout.splitlines() == ["['qnogo']", "[]"]
    assert len(qnogo.__all__) == len(set(qnogo.__all__)) == 67
    star = {}
    exec("from qnogo import *", star)
    assert set(star) - {"__builtins__"} == set(qnogo.__all__)
    assert set(qnogo.__all__) <= set(dir(qnogo))
    assert qnogo.states is sys.modules["qnogo.states"]
    with pytest.raises(AttributeError, match="no_such_name"):
        qnogo.no_such_name
