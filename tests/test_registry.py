"""The name registry in _shared and the front ends that read it agree.

REGISTRY gives every name of the DSL's call clauses (extensions, gate
candidates and targets) with its argument keys and the side of its gate.
The DSL parses each name with exactly its keys, a target builds a
TargetTransform whose side and rules match its entry, the command line
offers the gate targets and the families, and every front end accepts
exactly FAMILIES.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qnogo._shared import FAMILIES, REGISTRY
from qnogo.cli import build_parser
from qnogo.dsl import parse, tokenize
from qnogo.gates import NAMED_GATES
from qnogo.states import state_family
from qnogo.verifier import TargetTransform, _rules

ARGUMENTS = {"a": 0.6, "b": 0.8, "lambda": 0.5, "c": 1.0}   # no name takes c
RULES = "on |0> -> |0>|0>;\non |1> -> |1>|1>;\n"


def call(name: str, keys) -> str:
    return name + ("(" + ", ".join(f"{k}={ARGUMENTS[k]}" for k in keys) + ")" if keys else "")


def unit(clause: str, name: str, keys, side: int) -> str:
    """A unit that uses the name in its clause and passes validation: a machine target needs
    basis rules and an extension, a gate target a candidate, and every machine a requirement."""
    if clause == "extend":
        return f"{RULES}extend {call(name, keys)};\nrequire basis;\n"
    if clause == "candidate":
        return f"candidate {call(name, keys)};\nrequire universal on bloch target hadamard9;\n"
    head = "candidate H;\n" if side else RULES + "extend linear;\n"
    return f"{head}require universal on bloch target {call(name, keys)};\n"


def parsed(text: str):
    ast, diags = parse(tokenize(text)[0])
    return ast, [d.message for d in diags]


def given_keys(node) -> set[str]:
    values = {"a": node.a, "b": node.b, "lambda": node.lam}
    return {key for key, value in values.items() if value is not None}


ENTRIES = [(clause, name, keys, side) for clause, names in REGISTRY.items()
           for name, (keys, side) in names.items()]


@pytest.mark.parametrize("clause, name, keys, side", ENTRIES)
def test_every_registered_name_parses_in_the_dsl_with_exactly_its_keys(clause, name, keys,
                                                                        side):
    ast, diags = parsed(unit(clause, name, keys, side))
    assert diags == []
    m = ast.machines[0]
    node = {"extend": m.extension, "candidate": m.candidate,
            "target": m.requirement.target}[clause]
    assert node.name == name and given_keys(node) == set(keys)
    # a key the name does not take, or one it takes left out, is refused
    _, diags = parsed(unit(clause, name, keys + ("c",), side))
    assert diags
    if keys:
        _, diags = parsed(unit(clause, name, keys[:-1], side))
        assert diags


@pytest.mark.parametrize("name, keys, side",
                         [entry[1:] for entry in ENTRIES if entry[0] == "target"])
def test_every_target_builds_with_its_side_and_its_rules(name, keys, side):
    t = TargetTransform(name, **{"lam" if k == "lambda" else k: ARGUMENTS[k] for k in keys})
    assert t.kind == name and t.side == side
    s = state_family("bloch", 5, 1).state_vectors
    p = state_family("bloch", 5, 2).state_vectors
    if side == 0:
        with pytest.raises(ValueError, match="has no per-state rules"):
            next(_rules(t, s, p))
    else:
        rules = list(_rules(t, s, p))
        assert rules and all(x.shape == o.shape == (5, side) for x, o in rules)


def test_the_named_gates_are_the_registered_candidates_without_arguments():
    assert list(NAMED_GATES) == [name for name, (keys, _) in REGISTRY["candidate"].items()
                                 if not keys]
    for name, gate in NAMED_GATES.items():
        assert gate.shape == (REGISTRY["candidate"][name][1],) * 2


def options(subcommand: str) -> dict:
    sub = build_parser().subcommands[subcommand]
    return {action.dest: action for action in sub._actions}


@pytest.mark.parametrize("subcommand", ["gate-verify", "witness"])
def test_the_cli_offers_the_gate_targets_with_cnot_as_cnot23_and_the_families(subcommand):
    actions = options(subcommand)
    gate_targets = [name for name, (_, side) in REGISTRY["target"].items() if side]
    assert list(actions["target"].choices) == [
        "cnot23" if name == "cnot" else name for name in gate_targets]
    assert list(actions["target"].choices) == ["hadamard9", "hadamard10", "unequal", "cnot23"]
    assert tuple(actions["set"].choices) == FAMILIES


def test_the_gate_help_lists_the_registered_candidates():
    assert options("gate-verify")["gate"].help == (
        "H | HP | HE | CNOT | UG(a=..,b=..) | matrix file")


NAMES = (st.sampled_from(FAMILIES + ("list", "torus", "Bloch", "polars", "sphere"))
         | st.from_regex(r"[a-z_][a-z0-9_]{0,9}", fullmatch=True))


@given(name=NAMES)
def test_the_dsl_and_state_family_accept_exactly_the_registered_families(name):
    family = f"{name}(|0>)" if name == "list" else name
    _, diags = parsed(f"candidate H;\nrequire universal on {family} target hadamard9;\n")
    assert (diags == []) == (name in FAMILIES + ("list",)), diags
    if name in FAMILIES:
        assert len(state_family(name, 3, 0)) == 3
    else:
        with pytest.raises(ValueError, match="unknown family"):
            state_family(name, 3, 0)
