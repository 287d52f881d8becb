"""tools/compare_outputs.py: the command list and the difference report."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import qnogo.verifier
from qnogo.cli import _CliError, load_matrix_file
from qnogo.gates import cnot_computational, hadamard

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_every_workload_command_and_the_witness_and_gate_matrices_run_at_both_seeds():
    argvs = compare_outputs.commands([2, 257], Path("units"))
    assert len(argvs) == len(set(argvs))
    # 411 commands at each seed, the 15 usage errors and 2 sweeps, then dsl-check once on each
    # of the 48 units
    assert len(compare_outputs.UNITS) == 48
    assert len(compare_outputs.USAGE_ERRORS) == 17
    assert len(argvs) == 2 * 411 + 17 + 48
    assert argvs[-65:-48] == list(compare_outputs.USAGE_ERRORS)
    assert argvs[-48:] == [("dsl-check", str(Path("units") / f"{name}.qmachine"))
                           for name in compare_outputs.UNITS]
    for seed in ("0", "42"):
        mine = [a for a in argvs if a[-2:] == ("--seed", seed)]
        witness = [a for a in mine if a[0] == "witness" and "--set" in a and "--grid-n" in a
                   and a[a.index("--grid-n") + 1] in ("2", "257")]
        assert len(witness) == 4 * 3 * 2
        # the Hadamard file on two families, the CNOT file, and the two files it refuses
        files = [a for a in mine if a[0] == "gate-verify" and a[2].endswith(".mat")]
        assert [(Path(a[2]).stem, a[4], a[6]) for a in files] == [
            ("hadamard", "hadamard9", "bloch"), ("hadamard", "hadamard9", "polar"),
            ("cnot", "cnot23", "bloch"), ("not-square", "hadamard9", "bloch"),
            ("not-unitary", "hadamard9", "bloch")]
        assert all(Path(a[2]).parent == Path("units") for a in files)
        # 5 gates x 5 targets x 3 families at the default size, mismatched sizes included
        gates = [a for a in mine if a[0] == "gate-verify" and "--grid-n" not in a
                 and a not in files]
        assert len(gates) == 5 * 5 * 3
        for gate, target in (("CNOT", "hadamard9"), ("H", "cnot23")):
            assert ("gate-verify", "--gate", gate, "--target", target, "--set", "polar",
                    "--format", "json", "--seed", seed) in gates
        # each matched gate and target on each family, and each corpus file, at one row past
        # one block of the per-state kernels, one past two, and each grid size
        block = compare_outputs.STATE_BLOCK
        sizes = {str(block + 1), str(2 * block + 1), "2", "257"}
        seams = [a for a in mine if a[0] == "gate-verify" and "--grid-n" in a
                 and a[a.index("--grid-n") + 1] in sizes]
        assert len(seams) == (4 * 4 + 1) * 3 * 4
        corpus = [a for a in mine if a[0] == "dsl-check" and "--samples" in a
                  and a[a.index("--samples") + 1] != "10000"]
        assert len(corpus) == 15 * 4
        assert {a[a.index("--samples") + 1] for a in corpus} == sizes
        # the 43 command lines of the three workloads (the survey is a library call), two of
        # them in the gate matrix, and circle-check at 2 and 257; the workloads run it at the
        # default 256 and at 2000
        rest = len(mine) - len(witness) - len(files) - len(gates) - len(seams) - len(corpus)
        assert rest == 43 - 2 + 2
        circles = [a[a.index("--grid-n") + 1] for a in mine
                   if a[0] == "circle-check" and "--grid-n" in a]
        assert sorted(circles) == ["2", "2000", "257"]
    assert all("--output" not in a for a in argvs)


def test_the_matrix_files_load_as_their_gates(tmp_path):
    for name, (text, _, _) in compare_outputs.MATRICES.items():
        (tmp_path / f"{name}.mat").write_text(text, encoding="utf-8")
    assert np.array_equal(load_matrix_file(str(tmp_path / "hadamard.mat")), hadamard)
    assert np.array_equal(load_matrix_file(str(tmp_path / "cnot.mat")), cnot_computational)
    for name, reason in (("not-square", "not square"), ("not-unitary", "not unitary")):
        with pytest.raises(_CliError, match=reason):
            load_matrix_file(str(tmp_path / f"{name}.mat"))


def test_the_block_seam_commands_follow_the_kernels_block():
    assert compare_outputs.STATE_BLOCK == qnogo.verifier._STATE_BLOCK


def test_a_difference_names_the_exit_code_or_the_first_line_that_differs():
    same = (0, b'{\n  "violation": 1.0\n}\n', b"")
    assert compare_outputs.difference(same, same) is None
    assert compare_outputs.difference(same, (2, *same[1:])) == "exit 0 -> 2"
    report = compare_outputs.difference(same, (0, b'{\n  "violation": 1.5\n}\n', b""))
    assert report.startswith("stdout line 2:") and "1.5" in report
    assert compare_outputs.difference(same, (0, same[1] + b"extra\n", b"")).startswith(
        "stdout line 4")


def test_stderr_is_compared_after_the_exit_code_and_stdout():
    # the diagnostics of a malformed unit go to stderr, with exit 3 and nothing on stdout
    bad = (3, b"", b"m.qmachine:3:8: error: expected '->', found '0'\n")
    assert compare_outputs.difference(bad, bad) is None
    moved = (3, b"", b"m.qmachine:3:9: error: expected '->', found '0'\n")
    report = compare_outputs.difference(bad, moved)
    assert report.startswith("stderr line 1:") and "3:9" in report
    assert compare_outputs.difference(bad, (3, b"", b"")).startswith("stderr line 1:")
    assert compare_outputs.difference(bad, (3, b"x\n", b"")).startswith("stdout line 1:")
