import errno
import json
import os
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qnogo.cli import (
    MAX_LAMBDAS,
    _CliError,
    build_parser,
    load_matrix_file,
    main,
    parse_complex,
    parse_lambda_values,
    resolve_gate,
)
from qnogo.fidelity import CSV_HEADER, OptimizerConfig
from qnogo.gates import hadamard, unequal_gate

ROOT = Path(__file__).resolve().parents[1]
MACHINES = ROOT / "machines"
SCHEMA = json.loads((ROOT / "schemas" / "report.json").read_text())

RT2 = 1.0 / np.sqrt(2.0)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("QNOGO_SEED", raising=False)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv + ["--format", "json"], capsys)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc, err


# --- option parsing helpers --------------------------------------------------


@pytest.mark.parametrize("text,value", [
    ("0.6", 0.6 + 0j),
    ("0.8i", 0.8j),
    ("0.6+0.8i", 0.6 + 0.8j),
    ("-0.5-0.5i", -0.5 - 0.5j),
    ("i", 1j),
    ("+i", 1j),
    ("-i", -1j),
])
def test_parse_complex(text, value):
    assert parse_complex(text) == value


def test_parse_complex_rejects_garbage():
    with pytest.raises(ValueError, match="cannot parse"):
        parse_complex("zebra")


def test_parse_lambda_single_and_list():
    assert parse_lambda_values("0.5") == [0.5]
    assert parse_lambda_values("0, 0.5, 1") == [0.0, 0.5, 1.0]


def test_parse_lambda_range_is_inclusive():
    assert parse_lambda_values("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    # 11 points, endpoint hit despite float accumulation
    vals = parse_lambda_values("0:1:0.1")
    assert len(vals) == 11 and vals[-1] == 1.0
    # a stop that is not on the step lattice just truncates
    assert parse_lambda_values("0:1:0.3") == [0.0, 0.3, 0.6, 0.9]


@pytest.mark.parametrize("text", ["0:1", "0:1:-0.1", "0:1:0", "1.5", "-0.1"])
def test_parse_lambda_rejects(text):
    with pytest.raises(ValueError):
        parse_lambda_values(text)


def test_parse_lambda_range_size_is_bounded():
    assert len(parse_lambda_values("0:1:0.0001")) == MAX_LAMBDAS
    with pytest.raises(ValueError, match="more than"):
        parse_lambda_values("0:1:0.00009")
    with pytest.raises(ValueError, match="more than"):
        parse_lambda_values("0:1:5e-324")


def test_fidelity_sweep_defaults_are_the_optimizer_config():
    args = build_parser().parse_args(["fidelity-sweep", "--lambda", "1"])
    cfg = OptimizerConfig()
    cli = (args.ancilla_dim, args.restarts, args.max_evals, args.mode)
    assert cli == (cfg.ancilla_dim, cfg.restarts, cfg.max_evals, cfg.mode)
    assert cli == (2, 8, 4000, "second-register")


def test_load_matrix_file_roundtrip(tmp_path):
    path = tmp_path / "h.mat"
    path.write_text(f"{RT2},0 {RT2},0\n{RT2},0 {-RT2},0\n")
    m = load_matrix_file(str(path))
    assert np.allclose(m, hadamard, atol=1e-12)


@pytest.mark.parametrize("content,code,needle", [
    ("1,0 0,0\n0,0 1,0\n1,0 0,0\n", 3, "2 or 4 rows"),
    ("1,0 0\n0,0 1,0\n", 3, "re,im"),
    ("1,0 zebra,0\n0,0 1,0\n", 3, "non-numeric"),
    ("1,0 0,0 0,0\n0,0 1,0\n", 3, "not square"),
    ("1,0 1,0\n1,0 1,0\n", 3, "not unitary"),
])
def test_load_matrix_file_content_errors(tmp_path, content, code, needle):
    path = tmp_path / "bad.mat"
    path.write_text(content)
    with pytest.raises(_CliError) as ei:
        load_matrix_file(str(path))
    assert ei.value.code == code
    assert needle in str(ei.value)


def test_load_matrix_file_missing_is_io_error(tmp_path):
    with pytest.raises(_CliError) as ei:
        load_matrix_file(str(tmp_path / "nope.mat"))
    assert ei.value.code == 4


def test_resolve_gate_named_and_ug():
    assert resolve_gate("H") is hadamard
    got = resolve_gate("UG(a=0.6, b=0.8)")
    assert np.allclose(got, unequal_gate((0.6, 0.8)), atol=1e-15)


@pytest.mark.parametrize("token,code", [
    ("UG(a=0.6)", 1),                 # missing b
    ("UG(x=0.6, b=0.8)", 1),          # wrong key
    ("UG(a=0.6 0.8)", 1),             # no '='
    ("UG(a=0.6, b=0.8i)", 3),         # complex weights are a content error
])
def test_resolve_gate_errors(token, code):
    with pytest.raises(_CliError) as ei:
        resolve_gate(token)
    assert ei.value.code == code


# --- gate-verify -------------------------------------------------------------


def test_gate_verify_realizable(capsys):
    code, out, _ = run(["gate-verify", "--gate", "HP", "--target", "hadamard9",
                        "--set", "polar"], capsys)
    assert code == 0
    assert out.startswith("gate-verify: REALIZABLE")


def test_gate_verify_cross_circle_fails(capsys):
    code, doc, _ = run_json(["gate-verify", "--gate", "HP",
                             "--target", "hadamard9", "--set", "equatorial"],
                            capsys)
    assert code == 2
    assert doc["status"] == "IMPOSSIBLE"
    assert doc["violation"] > 0.05
    assert doc["condition"] == "hadamard9-rules"
    assert doc["witness"] is not None


def test_gate_verify_json_payload(capsys):
    code, doc, _ = run_json(["gate-verify", "--gate", "HE",
                             "--target", "hadamard10", "--set", "equatorial",
                             "--grid-n", "128"], capsys)
    assert code == 0
    assert doc["command"] == "gate-verify"
    assert doc["schema_version"] == "1"
    assert doc["seed"] == 42
    assert doc["n"] == 128
    assert doc["violation"] <= doc["tolerance"]


def test_gate_verify_cnot_needs_4x4(capsys):
    code, _, err = run(["gate-verify", "--gate", "H", "--target", "cnot23"],
                       capsys)
    assert code == 3
    assert "4x4" in err


def test_gate_verify_2x2_target_rejects_cnot_gate(capsys):
    code, _, err = run(["gate-verify", "--gate", "CNOT",
                        "--target", "hadamard9"], capsys)
    assert code == 3
    assert "2x2" in err


def test_gate_verify_cnot_on_bloch_finds_plus_witness(capsys):
    code, doc, _ = run_json(["gate-verify", "--gate", "CNOT",
                             "--target", "cnot23", "--set", "bloch",
                             "--grid-n", "64"], capsys)
    assert code == 2
    assert doc["condition"] == "cnot-rules"
    assert doc["violation"] == pytest.approx(1.0, abs=1e-9)


def test_gate_verify_unequal_needs_weights(capsys):
    code, _, err = run(["gate-verify", "--gate", "UG(a=0.6, b=0.8)",
                        "--target", "unequal"], capsys)
    assert code == 1
    assert "--a and --b" in err


def test_gate_verify_unequal_with_weights(capsys):
    code, out, _ = run(["gate-verify", "--gate", "UG(a=0.6, b=0.8)",
                        "--target", "unequal", "--a", "0.6", "--b", "0.8",
                        "--set", "polar"], capsys)
    assert code == 0
    assert "REALIZABLE" in out


def test_gate_verify_matrix_file_gate(tmp_path, capsys):
    path = tmp_path / "hp.mat"
    path.write_text(f"{RT2},0 {-RT2},0\n{RT2},0 {RT2},0\n")
    code, _, _ = run(["gate-verify", "--gate", str(path),
                      "--target", "hadamard9", "--set", "polar"], capsys)
    assert code == 0


# --- witness -----------------------------------------------------------------


def test_witness_is_deterministic(capsys):
    argv = ["witness", "--target", "cnot23", "--set", "bloch",
            "--grid-n", "64", "--format", "json"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    jsonschema.validate(doc, SCHEMA)
    assert doc["violation"] > 1.0
    assert doc["condition"] == "pairwise-overlap-consistency"


def test_witness_polar_consistency_is_tiny(capsys):
    code, doc, _ = run_json(["witness", "--target", "hadamard9",
                             "--set", "polar", "--grid-n", "64"], capsys)
    assert code == 0
    assert doc["violation"] < 1e-10


def test_witness_seed_changes_the_sample(capsys):
    base = ["witness", "--target", "cnot23", "--set", "bloch",
            "--grid-n", "32", "--format", "json"]
    _, out1, _ = run(base + ["--seed", "1"], capsys)
    _, out2, _ = run(base + ["--seed", "2"], capsys)
    assert json.loads(out1)["pair"] != json.loads(out2)["pair"]


# --- circle-check ------------------------------------------------------------


def test_circle_check(capsys):
    code, doc, _ = run_json(["circle-check", "--grid-n", "64"], capsys)
    assert code == 0
    assert doc["status"] == "REALIZABLE"
    assert all(v < 1e-12 for v in doc["identities"].values())
    assert all(v > 0.1 for v in doc["cross"].values())


def test_circle_check_human_lines(capsys):
    code, out, _ = run(["circle-check", "--grid-n", "32"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "circle-check: REALIZABLE (grid 32x32)"
    assert "polar-diagonal" in out


# --- fidelity-sweep ----------------------------------------------------------


FS_FAST = ["fidelity-sweep", "--lambda", "1", "--restarts", "2",
           "--max-evals", "800"]


def test_fidelity_sweep_csv(capsys):
    code, out, _ = run(FS_FAST + ["--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert float(fields[0]) == 1.0
    assert 0.80 <= float(fields[1]) <= 5.0 / 6.0 + 1e-6
    assert fields[2] == "second-register"


def test_fidelity_sweep_byte_identical(capsys):
    _, out1, _ = run(FS_FAST + ["--format", "csv"], capsys)
    _, out2, _ = run(FS_FAST + ["--format", "csv"], capsys)
    assert out1 == out2


def test_fidelity_sweep_json_records(capsys):
    code, doc, _ = run_json(FS_FAST, capsys)
    assert code == 0
    rec = doc["records"][0]
    assert rec["lambda"] == 1.0
    assert rec["converged"] in (True, False)
    assert doc["nodes"] >= 200


@pytest.mark.parametrize("extra", [["--method", "lbfgs"], ["--method", "nelder-mead"],
                                   ["--output-csv"]])
def test_the_removed_legacy_options_are_usage_errors(extra, capsys):
    # --method and --output-csv were accepted and ignored; both are gone
    with pytest.raises(SystemExit) as ei:
        main(FS_FAST + extra)
    assert ei.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and f"unrecognized arguments: {' '.join(extra)}" in err


@pytest.mark.parametrize("argv,extra", [
    (["witness", "--target", "hadamard9"], ["--tolerance", "1e-9"]),
    (["gate-verify", "--gate", "HP", "--target", "hadamard9"], ["--samples", "8"]),
    (["circle-check"], ["stray"]),
    (FS_FAST, ["--grid-n", "8"]),
    (["dsl-check", str(MACHINES / "clone.qmachine")], ["--set", "polar"]),
])
def test_unrecognized_arguments_print_the_usage_of_their_subcommand(argv, extra, capsys):
    # argparse's own check names the top-level usage, which lists no option of a subcommand
    with pytest.raises(SystemExit) as ei:
        main(argv + extra)
    assert ei.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: qnogo {argv[0]} ")
    assert captured.err.splitlines()[-1] == \
        f"qnogo {argv[0]}: error: unrecognized arguments: {' '.join(extra)}"


def test_human_output_is_the_csv_output(capsys):
    # human output is already CSV rows: --format csv writes the same bytes
    human = run(FS_FAST, capsys)
    assert human[0] == 0 and human[1].splitlines()[0] == CSV_HEADER
    assert run(FS_FAST + ["--format", "csv"], capsys) == human
    assert run(FS_FAST + ["--format", "json"], capsys)[1].startswith("{")


def test_fidelity_sweep_bad_range_is_usage_error(capsys):
    code, _, err = run(["fidelity-sweep", "--lambda", "0:1"], capsys)
    assert code == 1
    assert "start:stop:step" in err


@pytest.mark.parametrize("argv", [
    ["gate-verify", "--gate", "HP", "--target", "hadamard9"],
    ["witness", "--target", "hadamard9"],
    ["circle-check"],
    ["dsl-check", str(MACHINES / "clone.qmachine")],
])
def test_csv_format_rejected_elsewhere(argv, capsys):
    # csv is a --format choice of fidelity-sweep alone, so argparse refuses it
    with pytest.raises(SystemExit) as ei:
        main(argv + ["--format", "csv"])
    assert ei.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: qnogo {argv[0]} ")
    assert captured.err.splitlines()[-1].endswith(
        "argument --format: invalid choice: 'csv' (choose from 'human', 'json')")


# --- dsl-check ---------------------------------------------------------------


def test_dsl_check_realizable_corpus_file(capsys):
    code, doc, _ = run_json(["dsl-check", str(MACHINES / "hadamard9_polar.qmachine"),
                             "--samples", "50"], capsys)
    assert code == 0
    assert doc["machines"][0]["status"] == "REALIZABLE"


def test_dsl_check_impossible_corpus_file(capsys):
    code, doc, _ = run_json(["dsl-check", str(MACHINES / "clone.qmachine"),
                             "--samples", "50"], capsys)
    assert code == 2
    m = doc["machines"][0]
    assert m["status"] == "IMPOSSIBLE"
    assert m["condition"] == "ideal-vs-extended-output"
    assert m["witness"] is not None


def test_dsl_check_syntax_errors(capsys):
    code, out, err = run(["dsl-check", str(MACHINES / "invalid_syntax.qmachine")],
                         capsys)
    assert code == 3
    assert out == ""
    assert "error:" in err


def test_dsl_check_missing_file(capsys):
    code, _, err = run(["dsl-check", "/tmp/no-such-file.qmachine"], capsys)
    assert code == 4
    assert "cannot read" in err


@pytest.mark.parametrize("argv,what", [(["dsl-check"], ""),
                                       (["gate-verify", "--target", "hadamard9", "--gate"],
                                        "matrix file ")])
def test_read_errors_name_the_file_once(tmp_path, capsys, argv, what):
    # as write errors do: the path, then the reason, without the errno and the path again
    code, out, err = run(argv + [str(tmp_path)], capsys)
    assert (code, out) == (4, "")
    assert err == f"qnogo: cannot read {what}{str(tmp_path)!r}: {os.strerror(errno.EISDIR)}\n"


def test_dsl_check_byte_identical(capsys):
    argv = ["dsl-check", str(MACHINES / "cnot.qmachine"),
            "--samples", "50", "--format", "json"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


# --- seeds, output files, usage ----------------------------------------------


def test_seed_precedence(monkeypatch, capsys):
    monkeypatch.setenv("QNOGO_SEED", "17")
    _, doc, _ = run_json(["witness", "--target", "hadamard9", "--set", "polar",
                          "--grid-n", "16"], capsys)
    assert doc["seed"] == 17
    _, doc, _ = run_json(["witness", "--target", "hadamard9", "--set", "polar",
                          "--grid-n", "16", "--seed", "7"], capsys)
    assert doc["seed"] == 7


def test_invalid_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("QNOGO_SEED", "zebra")
    code, _, err = run(["circle-check", "--grid-n", "16"], capsys)
    assert code == 1
    assert "QNOGO_SEED" in err


def test_output_file_is_atomic(tmp_path, capsys):
    target = tmp_path / "report.json"
    argv = ["circle-check", "--grid-n", "32", "--format", "json",
            "--output", str(target)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == ""   # everything went to the file
    doc = json.loads(target.read_text())
    jsonschema.validate(doc, SCHEMA)
    # no temp droppings left behind
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_output_to_missing_directory_is_io_error(capsys):
    code, _, err = run(["circle-check", "--grid-n", "16",
                        "--output", "/tmp/no-such-dir/out.txt"], capsys)
    assert code == 4
    assert "cannot write" in err


@pytest.mark.parametrize("where", ["nodir/o.json", "."])
def test_output_errors_name_only_the_users_path(tmp_path, capsys, where):
    # the temporary file beside the target has a random name, which stderr must not show
    target = str(tmp_path / where)
    argv = ["circle-check", "--grid-n", "16", "--output", target]
    runs = [run(argv, capsys) for _ in range(2)]
    assert runs[0] == runs[1]
    code, _, err = runs[0]
    assert code == 4
    assert err.startswith(f"qnogo: cannot write {target!r}: ")
    assert ".qnogo-" not in err and err.count("\n") == 1


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["gate-verify", "--gate", "H", "--target", "bogus"])
    assert ei.value.code == 1
    capsys.readouterr()


def test_bad_tolerance_exits_1(capsys):
    code, _, err = run(["circle-check", "--tolerance", "0"], capsys)
    assert code == 1
    assert "tolerance" in err


def test_bad_grid_exits_1(capsys):
    code, _, err = run(["circle-check", "--grid-n", "1"], capsys)
    assert code == 1
    assert "grid size" in err
