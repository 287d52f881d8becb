import numpy as np
import pytest

from qnogo.dsl import (
    Ast,
    CheckOptions,
    SourceUnit,
    check,
    check_source,
    compile_unit,
    parse,
    pretty_print,
    tokenize,
)
from qnogo.gates import hadamard_polar
from qnogo.states import polar_set
from qnogo.verifier import check_universal_gate, target_hadamard9

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
    return tokenize(SourceUnit(text))


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
    assert m.extension.kind == "linear"
    assert m.requirement.kind == "universal"
    assert m.requirement.family == "bloch"
    assert m.requirement.target.kind == "clone"


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
    assert m.extension.kind == "hybrid" and m.extension.lam == 0.5
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
    assert c.machine is not None and c.machine.extension == "linear"
    assert c.family == "bloch"
    assert not c.is_gate_check
    assert c.target_name == "clone"


def test_compile_gate_candidate():
    compiled, diags = compile_text(HP_SRC)
    assert not diags
    c = compiled[0]
    assert c.is_gate_check
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
    assert np.linalg.norm(compiled[0].machine.out0) == pytest.approx(1.0, abs=1e-12)


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
    assert compiled[0].machine.extension == "hybrid"


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
    direct = check_universal_gate(hadamard_polar, target_hadamard9(),
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


# --- pretty printing ---------------------------------------------------------


def roundtrip(src):
    ast, diags = parse_text(src)
    assert not errors(diags)
    text = pretty_print(ast)
    again, diags2 = parse_text(text)
    assert not errors(diags2)
    return ast, again, text


def test_pretty_print_round_trips_the_corpus_shapes():
    for src in (CLONE_SRC, HP_SRC,
                "candidate UG(a=0.6, b=0.8);\n"
                "require universal on polar target unequal(a=0.6, b=0.8);\n",
                "machine h;\ncandidate H;\n"
                "require universal on list(|0>, |1>) target hadamard9;\n"):
        ast, again, _ = roundtrip(src)
        assert again == ast


def test_pretty_print_folds_signs():
    src = "on |0> -> -1|01> + 0.6|00> - 0.8i|11>;\non |1> -> |1>|1>;\nextend linear;\nrequire basis;\n"
    ast, again, text = roundtrip(src)
    assert again == ast
    assert "-|01>" in text
    assert "- 0.0+0.8i|11>" in text


def test_pretty_print_hybrid_lambda():
    src = ("on |0> -> 0.707107|00> + 0.707107|01>;\n"
           "on |1> -> 0.707107|11> - 0.707107|10>;\n"
           "extend hybrid(lambda=0.5);\n"
           "require universal on bloch target hybrid(lambda=0.5);\n")
    ast, again, text = roundtrip(src)
    assert again == ast
    assert "extend hybrid(lambda=0.5);" in text
