import itertools
import tracemalloc

import numpy as np
import pytest

from qnogo.cli import main
from qnogo.dsl import (
    Ast,
    CheckOptions,
    check,
    check_source,
    compile_unit,
    parse,
    tokenize,
)
from qnogo.gates import hadamard_polar
from qnogo.states import polar_set
from qnogo.verifier import TargetTransform, check_universal_gate

CLONE_SRC = """\
machine main;
on |0> -> |0>|0>;
on |1> -> |1>|1>;
extend linear;
require universal on bloch target clone;
"""

HP_SRC = """\
machine hp;
candidate HP;
require universal on polar target hadamard9;
"""


def lex(text):
    return tokenize(text)


def parse_text(text, origin="<stdin>"):
    tokens, lex_diags = lex(text)
    ast, diags = parse(tokens, origin)
    return ast, list(lex_diags) + list(diags)


def errors(diags):
    return [d for d in diags if d.severity == "error"]


# --- lexing ----------------------------------------------------------------


def test_tokenize_kinds_of_a_simple_rule():
    tokens, diags = lex("on |0> -> 0.6|00> + 0.8|11>;")
    assert not diags
    kinds = [t.kind for t in tokens]
    assert kinds == ["ON", "KET", "ARROW", "NUM", "KET", "PLUS", "NUM",
                     "KET", "SEMI", "EOF"]
    assert tokens[1].value == "0"
    assert tokens[4].value == "00"


def test_tokenize_complex_literal_is_one_token():
    tokens, _ = lex("0.6+0.8i 2i 0.6")
    assert [(t.kind, t.value) for t in tokens[:3]] == [
        ("CPLX", "0.6+0.8i"), ("CPLX", "2i"), ("NUM", "0.6")]


def test_tokenize_multi_qubit_ket_labels():
    tokens, diags = lex("|01> |1+-> |0000>")
    assert not diags
    assert [t.value for t in tokens[:3]] == ["01", "1+-", "0000"]


def test_tokenize_unknown_ket_label():
    tokens, diags = lex("on |2> -> |0>;")
    assert len(diags) == 1
    assert diags[0].message == "unknown ket label"
    assert diags[0].line == 1 and diags[0].column == 4
    # lexing continues past the bad ket
    assert tokens[-2].kind == "SEMI"


def test_tokenize_unexpected_character_and_comments():
    _, diags = lex("machine m; @ # trailing comment with |junk\nrequire basis;")
    assert len(diags) == 1
    assert "unexpected character" in diags[0].message


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])   # superscript two, Arabic-Indic three
def test_non_ascii_digits_are_unexpected_characters(tmp_path, capsys, digit):
    # str.isdigit accepts both, \d only the second; neither is part of a number
    tokens, diags = lex(f"0.5{digit}")
    assert [(t.kind, t.value) for t in tokens] == [("NUM", "0.5"), ("EOF", "")]
    assert [d.render() for d in diags] == [f"<stdin>:1:4: error: unexpected character {digit!r}"]
    unit = tmp_path / "digit.qmachine"
    unit.write_text(f"candidate H; {digit}\nrequire universal on polar target hadamard9;\n",
                    encoding="utf-8")
    assert main(["dsl-check", str(unit)]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"{unit}:1:14: error: unexpected character {digit!r}\n")


def test_a_bad_ket_skip_stops_at_the_newline():
    # no '>' before the line ends: only the bar is skipped, and every later position holds
    src = "machine m;\non |0> -> |2\n>|00>;\non |1> -> |1>|1>;\nextend linear;\nrequire\n"
    _, diags = parse_text(src)
    assert [d.render() for d in diags] == [
        "<stdin>:2:11: error: unknown ket label",
        "<stdin>:3:1: error: unexpected character '>'",
        "<stdin>:7:1: error: expected 'basis' or 'universal', found end of input"]


def test_tokenize_arrow_vs_minus():
    tokens, _ = lex("-> - -1")
    assert [t.kind for t in tokens[:3]] == ["ARROW", "MINUS", "MINUS"]


# --- parsing and structural validation -------------------------------------


def test_parse_complete_unit():
    ast, diags = parse_text(CLONE_SRC)
    assert not diags
    assert len(ast.machines) == 1
    m = ast.machines[0]
    assert m.name == "main"
    assert [r.basis for r in m.rules] == ["0", "1"]
    assert m.extension.name == "linear"
    assert m.requirement.kind == "universal"
    assert m.requirement.family == "bloch"
    assert m.requirement.target.name == "clone"


def test_parse_implicit_main_machine():
    ast, diags = parse_text("candidate H;\nrequire universal on list(|0>, |1>) target hadamard9;\n")
    assert not diags
    assert ast.machines[0].name == "main"
    assert ast.machines[0].requirement.listed == ("0", "1")


def test_parse_two_machines():
    src = HP_SRC + "machine he;\ncandidate HE;\nrequire universal on equatorial target hadamard10;\n"
    ast, diags = parse_text(src)
    assert not diags
    assert [m.name for m in ast.machines] == ["hp", "he"]


def test_parse_hybrid_extension_and_target():
    src = ("on |0> -> 0.707107|00> + 0.707107|01>;\n"
           "on |1> -> 0.707107|11> - 0.707107|10>;\n"
           "extend hybrid(lambda=0.5);\n"
           "require universal on bloch target hybrid(lambda=0.5);\n")
    ast, diags = parse_text(src)
    assert not errors(diags)
    m = ast.machines[0]
    assert m.extension.name == "hybrid" and m.extension.lam == 0.5
    assert m.requirement.target.lam == 0.5


def test_parse_unequal_weights():
    ast, diags = parse_text("candidate UG(a=0.6, b=0.8);\n"
                            "require universal on polar target unequal(a=0.6, b=0.8);\n")
    assert not diags
    c = ast.machines[0].candidate
    assert c.name == "UG" and c.a == 0.6 and c.b == 0.8


@pytest.mark.parametrize("src,message", [
    ("on |0> -> |0>|0>;\non |0> -> |0>|1>;\non |1> -> |1>|1>;\n"
     "extend linear;\nrequire basis;\n", "duplicate basis rule"),
    ("on |0> -> |0>|0>;\non |1> -> |1>|1>;\nrequire basis;\n",
     "machine must declare extension"),
    ("on |0> -> |0>|0>;\nextend linear;\nrequire basis;\n",
     "machine must declare rules for both |0> and |1>"),
    ("on |0> -> |0>|0>;\non |1> -> |1>|1>;\nextend linear;\n",
     "machine must declare a requirement"),
    ("extend linear;\nrequire basis;\n", "extension clause needs basis rules"),
    ("candidate H;\nrequire basis;\n", "basis requirement needs basis rules"),
    ("on |0> -> |0>|0>;\non |1> -> |1>|1>;\nextend linear;\ncandidate H;\n"
     "require basis;\n",
     "machine cannot declare both basis rules and a gate candidate"),
    ("require universal on bloch target clone;\n",
     "target 'clone' needs basis rules and an extension"),
    ("on |0> -> |0>|0>;\non |1> -> |1>|1>;\nextend linear;\n"
     "require universal on bloch target hadamard9;\n",
     "target 'hadamard9' needs a candidate clause"),
    ("on |+> -> |0>|0>;\n", "basis rules must be on |0> or |1>"),
    ("candidate H;\ncandidate HP;\nrequire universal on bloch target hadamard9;\n",
     "duplicate candidate clause"),
])
def test_validation_messages(src, message):
    _, diags = parse_text(src)
    assert any(d.message == message for d in errors(diags)), \
        f"wanted {message!r} in {[d.message for d in diags]}"


# Every path of the one parser of extend, candidate and target clauses, on line 2 after two
# spaces: (clause, line, column, message) of the first diagnostic
CALL_DIAGNOSTICS = [
    ("extend;", 2, 9, "expected an extension kind (linear, antilinear, hybrid), found ';'"),
    ("extend quadratic;", 2, 10,
     "unknown extension 'quadratic'; expected linear, antilinear, or hybrid(lambda=...)"),
    ("extend hybrid;", 2, 16, "expected '(', found ';'"),
    ("extend hybrid lambda=0.5);", 2, 17, "expected '(', found 'lambda'"),
    ("extend hybrid(lam=0.5);", 2, 17, "expected 'lambda', found 'lam'"),
    ("extend hybrid(lambda 0.5);", 2, 24, "expected '=', found '0.5'"),
    ("extend hybrid(lambda=);", 2, 24, "expected a number, found ')'"),
    ("extend hybrid(lambda=0.5i);", 2, 24, "lambda must be a real number"),
    ("extend hybrid(lambda=0.5;", 2, 27, "expected ')', found ';'"),
    ("extend hybrid(lambda=0.5, a=1);", 2, 27, "expected ')', found ','"),
    ("extend linear(lambda=0.5);", 2, 16, "expected ';', found '('"),
    ("extend hybrid(lambda=0.5", 3, 1, "expected ')', found end of input"),
    ("candidate;", 2, 12, "expected a gate name (H, HP, HE, CNOT, UG), found ';'"),
    ("candidate T;", 2, 13, "unknown gate 'T'; expected H, HP, HE, CNOT, or UG"),
    ("candidate UG;", 2, 15, "expected '(', found ';'"),
    ("candidate UG(b=0.8, a=0.6);", 2, 16, "expected 'a', found 'b'"),
    ("candidate UG(a=0.6 b=0.8);", 2, 22, "expected ',', found 'b'"),
    ("candidate UG(a=0.6, c=0.8);", 2, 23, "expected 'b', found 'c'"),
    ("candidate UG(a=0.6, b=0.8;", 2, 28, "expected ')', found ';'"),
    ("candidate H(a=1);", 2, 14, "expected ';', found '('"),
    ("candidate UG(a=0.6, b=0.8", 3, 1, "expected ')', found end of input"),
    ("candidate UG(a=0.6, b=-(0.8i);", 2, 32, "expected ')', found ';'"),
    ("require universal on polar target;", 2, 36, "expected a target name, found ';'"),
    ("require universal on polar target teleport;", 2, 37, "unknown target 'teleport'"),
    ("require universal on polar target unequal;", 2, 44, "expected '(', found ';'"),
    ("require universal on polar target unequal(a=0.6 b=0.8);", 2, 51,
     "expected ',', found 'b'"),
    ("require universal on polar target unequal(a=0.6, b=0.8;", 2, 57,
     "expected ')', found ';'"),
    ("require universal on polar target hybrid(lambda=0.5i);", 2, 51,
     "lambda must be a real number"),
    ("require universal on polar target hybrid(x=1);", 2, 44, "expected 'lambda', found 'x'"),
    ("require universal on polar target clone(lambda=1);", 2, 42, "expected ';', found '('"),
    ("require universal on polar target", 3, 1, "expected a target name, found end of input"),
]


@pytest.mark.parametrize("clause,line,column,message", CALL_DIAGNOSTICS)
def test_call_clause_diagnostics(clause, line, column, message):
    _, diags = parse_text(f"machine m;\n  {clause}\n")
    assert (diags[0].line, diags[0].column, diags[0].message) == (line, column, message)


def test_parser_recovers_at_semicolons():
    src = ("machine broken;\n"
           "on |0> |0>|0>;\n"          # missing arrow
           "on |1> -> |1>|1>;\n"
           "extend linear;\n"
           "require basis;\n")
    ast, diags = parse_text(src)
    assert len(errors(diags)) >= 1
    # the remaining statements still populated the machine
    m = ast.machines[0]
    assert len(m.rules) == 1 and m.extension is not None


def test_a_duplicate_clause_keeps_the_next_statement():
    # the duplicate's ';' is already read, so recovery must not skip the next statement
    ast, diags = parse_text("candidate H;\ncandidate HP;\n"
                            "require universal on polar target hadamard9;\n")
    assert [(d.line, d.column, d.message) for d in diags] == [
        (2, 1, "duplicate candidate clause")]
    m = ast.machines[0]
    assert m.candidate.name == "H" and m.requirement.target.name == "hadamard9"


def test_a_bad_machine_header_does_not_repeat_the_machine_before_it():
    ast, diags = parse_text("machine a;\nmachine ;\ncandidate H;\n"
                            "require universal on polar target hadamard9;\n")
    # the statements after the bad header open the implicit machine, as on a first line
    assert [m.name for m in ast.machines] == ["a", "main"]
    assert [(d.line, d.column, d.message) for d in diags] == [
        (2, 9, "expected a machine name, found ';'"), (1, 1, "machine must declare a requirement")]


@pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n", "  # two\n# comments"])
def test_a_unit_that_declares_no_machine_is_an_error(text, tmp_path, capsys):
    # an empty or comment-only unit used to pass with no verdict at all: exit 0
    ast, diags = parse_text(text)
    assert ast.machines == ()
    assert [(d.line, d.column, d.message) for d in diags] == [(1, 1, "unit declares no machine")]
    path = tmp_path / "empty.qmachine"
    path.write_text(text)
    assert main(["dsl-check", str(path), "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}:1:1: error: unit declares no machine\n"


def test_diagnostic_rendering_includes_position():
    _, diags = parse_text("machine ;\n", origin="unit.qmachine")
    text = diags[0].render()
    assert text.startswith("unit.qmachine:1:")
    assert ": error: " in text


# --- compiling --------------------------------------------------------------


def compile_text(src):
    ast, diags = parse_text(src)
    assert not errors(diags), diags
    return compile_unit(ast)


def test_compile_clone_unit():
    compiled, diags = compile_text(CLONE_SRC)
    assert not diags
    c = compiled[0]
    assert c.name == "main"
    # extend linear: the rules are the linear part, and the antilinear part is zero
    assert np.array_equal(c.machine.linear, np.eye(4)[[0, 3]]) and not c.machine.antilinear.any()
    assert c.family == "bloch"
    assert c.candidate is None
    assert c.target_name == "clone"


def test_compile_gate_candidate():
    compiled, diags = compile_text(HP_SRC)
    assert not diags
    c = compiled[0]
    assert np.array_equal(c.candidate, hadamard_polar)
    assert c.machine is None


def test_compile_rejects_unnormalized_output():
    src = ("on |0> -> 2|0>|0>;\non |1> -> |1>|1>;\nextend linear;\nrequire basis;\n")
    ast, diags = parse_text(src)
    compiled, cdiags = compile_unit(ast)
    assert not compiled
    assert any(d.message == "output not normalized" for d in cdiags)


def test_compile_warns_when_renormalizing():
    src = ("on |0> -> 0.707107|00> + 0.707107|01>;\n"
           "on |1> -> |1>|1>;\nextend linear;\nrequire basis;\n")
    ast, _ = parse_text(src)
    compiled, cdiags = compile_unit(ast)
    assert compiled
    warnings = [d for d in cdiags if d.severity == "warning"]
    assert any(d.message == "output renormalized" for d in warnings)
    # the stored output is exactly normalized afterwards
    assert np.linalg.norm(compiled[0].machine.linear[0]) == pytest.approx(1.0, abs=1e-12)


def test_compile_rejects_single_register_outputs():
    src = "on |0> -> |0>;\non |1> -> |1>;\nextend linear;\nrequire basis;\n"
    ast, _ = parse_text(src)
    compiled, cdiags = compile_unit(ast)
    assert any("two or three registers" in d.message for d in cdiags)


def test_compile_rejects_mismatched_term_dimensions():
    src = "on |0> -> |00> + |0>;\non |1> -> |1>|1>;\nextend linear;\nrequire basis;\n"
    ast, _ = parse_text(src)
    compiled, cdiags = compile_unit(ast)
    assert any("mismatched register counts" in d.message for d in cdiags)


def test_compile_hybrid_checks_declared_rules_against_weights():
    src = ("on |0> -> |0>|0>;\non |1> -> |1>|1>;\n"
           "extend hybrid(lambda=0.5);\nrequire basis;\n")
    ast, _ = parse_text(src)
    compiled, cdiags = compile_unit(ast)
    assert any(d.message == "basis rule does not match the declared hybrid weights"
               for d in cdiags)


def test_compile_hybrid_accepts_matching_rules():
    r = 0.7071067811865476
    src = (f"on |0> -> {r}|0>|0> + {r}|0>|1>;\n"
           f"on |1> -> {r}|1>|1> - {r}|1>|0>;\n"
           "extend hybrid(lambda=0.5);\nrequire basis;\n")
    compiled, diags = compile_text(src)
    assert compiled and not errors(diags)
    m = compiled[0].machine
    assert np.array_equal(m.linear, np.sqrt(0.5) * np.eye(4)[[0, 3]])
    assert np.array_equal(m.antilinear, np.sqrt(0.5) * np.array([[0, 1, 0, 0], [0, 0, -1, 0]]))


def test_compile_rejects_complex_unequal_candidate():
    src = ("candidate UG(a=0.6, b=0.8i);\n"
           "require universal on polar target unequal(a=0.6, b=0.8);\n")
    ast, _ = parse_text(src)
    compiled, cdiags = compile_unit(ast)
    assert any("real weights" in d.message for d in cdiags)


def test_compile_rejects_bad_target_weights():
    src = ("candidate UG(a=0.6, b=0.8);\n"
           "require universal on polar target unequal(a=0.6, b=0.9);\n")
    ast, _ = parse_text(src)
    compiled, cdiags = compile_unit(ast)
    assert any("|a|^2 + |b|^2 = 1" in d.message for d in cdiags)


def test_compile_rejects_out_of_range_lambda():
    src = ("on |0> -> |0>|0>;\non |1> -> |1>|1>;\nextend hybrid(lambda=1.5);\n"
           "require basis;\n")
    ast, _ = parse_text(src)
    compiled, cdiags = compile_unit(ast)
    assert any("lambda must lie in [0, 1]" in d.message for d in cdiags)


def test_compile_rejects_candidate_dimension_mismatch():
    src = "candidate CNOT;\nrequire universal on polar target hadamard9;\n"
    ast, _ = parse_text(src)
    compiled, cdiags = compile_unit(ast)
    assert any("candidate dimension" in d.message for d in cdiags)


def test_compile_rejects_multi_qubit_listed_states():
    src = "candidate H;\nrequire universal on list(|01>) target hadamard9;\n"
    ast, _ = parse_text(src)
    compiled, cdiags = compile_unit(ast)
    assert any("single qubits" in d.message for d in cdiags)


def test_three_register_rules_need_hybrid_against_a_machine_target():
    # a linear machine declares no ancilla for the ideal output, so it is refused where
    # the requirement stands rather than when the check runs
    rules = "on |0> -> |0>|0>|0>;\non |1> -> |1>|1>|0>;\n"
    report = check_source(rules + "extend linear;\nrequire universal on bloch target clone;\n",
                          "three.qmachine")
    assert [d.render() for d in report.diagnostics] == [
        "three.qmachine:4:1: error: target 'clone' needs two-register outputs, "
        "or three with extend hybrid(...)"]
    assert check_source(rules + "extend antilinear;\nrequire basis;\n").ok


def test_three_register_machine_against_a_machine_target_exits_3(tmp_path, capsys):
    path = tmp_path / "three.qmachine"
    path.write_text("on |0> -> |0>|0>|0>;\non |1> -> |1>|1>|0>;\nextend antilinear;\n"
                    "require universal on polar target complement;\n")
    assert main(["dsl-check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{path}:4:1: error: target 'complement' needs two-register "
                            "outputs, or three with extend hybrid(...)\n")


def nested(depth, closing=None):
    """A rule unit whose |0> coefficient, 0.6, sits in depth parentheses with a sign inside
    each (minus, none and plus in turn), closed closing times."""
    signs = itertools.islice(itertools.cycle(["-", "", "+"]), depth)
    opened = "".join("(" + sign for sign in signs)
    shut = ")" * (depth if closing is None else closing)
    return (f"on |0> -> {opened}0.6{shut}|0>|0> + 0.8|1>|0>;\n"
            "on |1> -> 0.8|0>|1> - 0.6|1>|1>;\nextend linear;\nrequire basis;\n")


def twin(depth):
    """nested(depth) with the coefficient in one pair of parentheses, its net sign inside."""
    minus = sum(i % 3 == 0 for i in range(depth)) % 2
    return nested(0).replace("0.6", "(-0.6)" if minus else "(0.6)", 1)


@pytest.mark.parametrize("depth", [5000, 5002])
def test_deep_parentheses_parse_to_the_value_of_one_pair(depth):
    # 1667 minus signs at depth 5000, 1668 at 5002
    deep_ast, deep_diags = parse_text(nested(depth))
    twin_ast, twin_diags = parse_text(twin(depth))
    assert twin(depth).startswith("on |0> -> (-0.6)|0>|0>" if depth == 5000
                                  else "on |0> -> (0.6)|0>|0>")
    assert deep_diags == twin_diags == []
    assert deep_ast == twin_ast
    assert deep_ast.machines[0].rules[0].terms[0].coefficient == (-0.6 if depth == 5000 else 0.6)
    assert check_source(nested(depth)).reports == check_source(twin(depth)).reports


def test_a_missing_parenthesis_at_depth_5000_is_one_diagnostic():
    text = nested(5000, closing=4999)
    _, diags = parse_text(text)
    column = text.index("|0>|0>") + 1
    assert [(d.line, d.column, d.message) for d in errors(diags)] == [
        (1, column, "expected ')', found '0'")]
    # as in one pair of parentheses
    _, diags = parse_text("on |0> -> (0.6|0>|0>;\non |1> -> |1>|1>;\nextend linear;\n"
                          "require basis;\n")
    assert [d.message for d in errors(diags)] == ["expected ')', found '0'"]


def test_a_statement_that_fails_to_parse_still_counts_as_declared():
    # one diagnostic for the bad statement, and none saying its clause is missing; the
    # duplicate check and the other machines' presence checks still run
    one = "on |1> -> |1>|1>;\n"
    rules = "on |0> -> |0>|0>;\n" + one
    for text, expected in (
            (rules + "extend hybrid(lambda=);\nrequire basis;\n",
             ["3:22: error: expected a number, found ')'"]),
            (rules + "extend linear;\nrequire always;\n",
             ["4:9: error: unknown requirement 'always'; expected basis or universal"]),
            ("on |+> -> |0>|0>;\nextend linear;\nrequire universal on bloch target clone;\n",
             ["1:4: error: basis rules must be on |0> or |1>"]),
            ("on |+> -> |0>|0>;\n" + one * 2 + "extend linear;\nrequire basis;\n",
             ["1:4: error: basis rules must be on |0> or |1>", "3:1: error: duplicate basis rule"]),
            ("candidate T;\nrequire universal on polar target hadamard9;\n",
             ["1:11: error: unknown gate 'T'; expected H, HP, HE, CNOT, or UG"]),
            ("machine a;\non |0> -> (1|0>|0>;\nrequire basis;\n"
             "machine b;\non |0> -> |0>|0>;\nextend linear;\nrequire basis;\n",
             ["2:13: error: expected ')', found '0'",
              "4:1: error: machine must declare rules for both |0> and |1>"])):
        _, diags = parse_text(text)
        assert [d.render().removeprefix("<stdin>:") for d in diags] == expected


def test_deep_parentheses_exit_as_their_twin_does(tmp_path, capsys):
    outputs = []
    for text in (nested(5000), twin(5000)):
        path = tmp_path / "nested.qmachine"
        path.write_text(text)
        assert main(["dsl-check", str(path), "--format", "json"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


def wide_unit(qubits):
    return (f"on |0> -> {'|0000>' * (qubits // 4)};\non |1> -> |1>|1>;\nextend linear;\n"
            "require basis;\n")


@pytest.mark.parametrize("qubits", [16, 24, 40])
def test_a_wide_term_is_refused_before_its_vector_is_built(qubits, tmp_path, capsys):
    path = tmp_path / "wide.qmachine"
    path.write_text(wide_unit(qubits))
    assert main(["dsl-check", str(path)]) == 3
    assert capsys.readouterr() == ("", f"{path}:1:1: error: machine outputs need two or "
                                       "three registers\n")
    check_source(wide_unit(qubits))   # the modules it loads, loaded before the trace
    tracemalloc.start()
    try:
        report = check_source(wide_unit(qubits))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [d.message for d in report.diagnostics] == [
        "machine outputs need two or three registers"]
    assert peak < 1 << 20


def test_a_wide_term_after_a_narrow_one_is_a_register_mismatch():
    report = check_source("on |0> -> |00> + " + "|0000>" * 10 + ";\non |1> -> |1>|1>;\n"
                          "extend linear;\nrequire basis;\n")
    assert [(d.line, d.column, d.message) for d in report.diagnostics] == [
        (1, 18, "terms have mismatched register counts")]


# --- checking ----------------------------------------------------------------


OPTS = CheckOptions(samples=50)


def test_check_clone_machine_is_impossible():
    compiled, _ = compile_text(CLONE_SRC)
    verdict, report = check(compiled[0], OPTS)
    assert not verdict.realizable
    assert verdict.condition == "ideal-vs-extended-output"
    assert verdict.violation > 0.3
    assert report.startswith("machine main: IMPOSSIBLE")
    assert "requirement: universal clone on bloch" in report


def test_check_gate_candidate_matches_direct_verifier_call():
    compiled, _ = compile_text(HP_SRC)
    verdict, _ = check(compiled[0], OPTS)
    direct = check_universal_gate(hadamard_polar, TargetTransform("hadamard9"),
                                  polar_set(OPTS.samples), tol=OPTS.tolerance)
    assert verdict.realizable == direct.realizable
    assert verdict.violation == direct.violation
    assert verdict.condition == direct.condition


def test_check_basis_requirement():
    src = "on |0> -> |0>|0>;\non |1> -> |1>|0>;\nextend linear;\nrequire basis;\n"
    compiled, _ = compile_text(src)
    verdict, report = check(compiled[0], OPTS)
    assert verdict.realizable
    assert verdict.condition == "basis-rules"
    assert "REALIZABLE" in report


def test_check_options_validation():
    with pytest.raises(ValueError):
        CheckOptions(tolerance=0.0)
    with pytest.raises(ValueError):
        CheckOptions(samples=0)


def test_check_source_end_to_end():
    report = check_source(HP_SRC, origin="hp.qmachine", opts=OPTS)
    assert report.ok and not report.has_errors
    assert report.names == ("hp",)
    assert len(report.verdicts) == len(report.reports) == 1
    # deterministic: byte-identical reports on a second run
    again = check_source(HP_SRC, origin="hp.qmachine", opts=OPTS)
    assert again.reports == report.reports


def test_check_source_stops_on_lex_or_parse_errors():
    report = check_source("on |2> -> |0>|0>;\n")
    assert report.has_errors and not report.ok
    assert report.verdicts == ()
    assert any(d.message == "unknown ket label" for d in report.diagnostics)


def test_check_source_stops_on_compile_errors():
    # amplitudes whose norm or sum overflows fail the norm check without a numpy warning
    for expr in ("2|0>|0>", "1e200|0>|0>", "1e308|0>|0> + 1e308|0>|0>"):
        report = check_source(f"on |0> -> {expr};\non |1> -> |1>|1>;\n"
                              "extend linear;\nrequire basis;\n")
        assert report.has_errors
        assert report.verdicts == ()
        assert [d.message for d in report.diagnostics] == ["output not normalized"]
