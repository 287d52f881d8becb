"""Records: the frozen value types of every layer, built without generated code.

qnogo._record.record replaces dataclass(frozen=True): the constructor,
defaults, __post_init__, equality over the compared fields, hashing,
repr and the refusal to assign must all read as they did.
"""

import inspect
import re
from pathlib import Path

import pytest

from qnogo import cli, dsl, fidelity, gates, states, verifier
from qnogo._record import _Signature, field, record
from qnogo.dsl import Call, Diagnostic, Term, Token, parse, tokenize
from qnogo.fidelity import OptimizerConfig
from qnogo.states import Qubit
from qnogo.verifier import SurveyResult, Verdict

SRC = Path(__file__).resolve().parents[1] / "src" / "qnogo"

UNIT = """machine m;
on |0> -> 0.6|0>|0> + 0.8i|1>|1>;
on |1> -> |1>|0>;
extend linear;
require universal on list(|0>, |+>) target clone;
machine g;
candidate UG(a=0.6, b=0.8);
require universal on polar target unequal(a=0.6, b=0.8);
"""


def _records():
    modules = (cli, dsl, fidelity, gates, states, verifier)
    return {obj for m in modules for obj in vars(m).values()
            if isinstance(obj, type) and isinstance(vars(obj).get("__signature__"), _Signature)}


def test_every_former_dataclass_is_a_record_and_src_never_imports_dataclasses():
    assert len(_records()) == 22
    for path in SRC.glob("*.py"):
        assert not re.search(r"^\s*(from|import) dataclasses\b", path.read_text(), re.M), path


def test_ast_nodes_compare_equal_whatever_their_line_and_column():
    assert Term(1j, ("0",), line=1, column=2) == Term(1j, ("0",), line=7, column=9)
    assert Term(1j, ("0",)) != Term(1j, ("1",))
    assert Call("UG", 0.6, 0.8, line=3) == Call("UG", 0.6, 0.8, column=5)
    # the same unit with every token moved: equal trees, though no position agrees
    shifted = "\n\n" + "\n".join("   " + line.replace(" ", "  ") for line in UNIT.splitlines())
    parsed = [parse(tokenize(text)[0]) for text in (UNIT, shifted)]
    assert [diags for _, diags in parsed] == [[], []]
    trees = [tree for tree, _ in parsed]
    assert trees[0] == trees[1]
    assert trees[0].machines[0].line != trees[1].machines[0].line
    assert hash(trees[0]) == hash(trees[1])


@pytest.mark.parametrize("make", [
    lambda: Token("KET", "0", 1, 2),
    lambda: Diagnostic("error", 1, 2, "bad", origin="f"),
    lambda: Term(0.6 + 0.8j, ("0", "1"), line=4),
    lambda: OptimizerConfig(restarts=3),
    lambda: Qubit(0.6, 0.8),
])
def test_equal_records_hash_equal_and_refuse_assignment(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    name = next(iter(inspect.signature(type(a)).parameters))
    for attempt in (lambda: setattr(a, name, None), lambda: delattr(a, name),
                    lambda: setattr(a, "extra", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert a == b


def test_records_without_equality_compare_and_hash_by_identity():
    v = Verdict(True, 0.0, 1e-9, "c")
    w = Verdict(True, 0.0, 1e-9, "c")
    assert v == v and v != w and len({v, w}) == 2
    with pytest.raises(AttributeError):
        v.realizable = False


@pytest.mark.parametrize("value,text", [
    (Token("KET", "0", 1, 2), "Token(kind='KET', value='0', line=1, column=2)"),
    (Term(1j, ("0", "1"), line=3, column=4),
     "Term(coefficient=1j, kets=('0', '1'), line=3, column=4)"),
    (Call("UG", a=0.6, b=0.8j), "Call(name='UG', a=0.6, b=0.8j, lam=None, line=0, column=0)"),
    (OptimizerConfig(), "OptimizerConfig(ancilla_dim=2, restarts=8, max_evals=4000, seed=42, "
                        "mode='second-register')"),
    (Qubit(1, 0), "Qubit(alpha=(1+0j), beta=0j)"),
    (SurveyResult(3, 1, 0.5, 1e-3, None), "SurveyResult(n_candidates=3, n_pass=1, "
                                          "min_worst_violation=0.5, tolerance=0.001, seed=None)"),
    (Verdict(True, 0.0, 1e-9, "c"), "Verdict(realizable=True, violation=0.0, tolerance=1e-09, "
                                    "condition='c', witness=None, detail='')"),
])
def test_repr_reads_as_the_dataclass_repr_did(value, text):
    assert repr(value) == text


def test_the_constructor_keeps_its_signature_defaults_and_post_init():
    assert str(inspect.signature(Term)) == ("(coefficient: 'complex', kets: 'tuple[str, ...]', "
                                            "line: 'int' = 0, column: 'int' = 0) -> None")
    assert Term(1, ("0",), 2, 3) == Term(kets=("0",), coefficient=1)
    assert (Term(1, ("0",), 2, 3).line, Term(1, ("0",)).column) == (2, 0)
    assert Qubit(1, 0).alpha == 1 + 0j and isinstance(Qubit(1, 0).beta, complex)
    with pytest.raises(ValueError, match="normalized"):
        Qubit(1, 1)
    with pytest.raises(ValueError, match="restarts"):
        OptimizerConfig(restarts=0)
    for args, kwargs in [((), {}), ((1, ("0",), 2, 3, 4), {}), ((1,), {"coefficient": 2}),
                         ((1, ("0",)), {"row": 2})]:
        with pytest.raises(TypeError):
            Term(*args, **kwargs)


def test_a_field_without_a_default_cannot_follow_one():
    with pytest.raises(TypeError, match="'b'"):
        @record
        class Bad:
            a: int = 0
            b: int

    @record(eq=False)
    class Fine:
        a: int
        b: int = field(default=2, compare=False)

    assert Fine(1).b == 2 and Fine.b == 2 and Fine(1) != Fine(1)
