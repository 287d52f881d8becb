"""check_source over generated .qmachine units.

Units are drawn from the README grammar as token lists: rule machines
(both basis rules, an extension and a requirement) and candidate
machines (a gate and a gate target).  Scalars may sit in up to 2000
nested parentheses and terms may hold up to 40 kets, far more qubits
than a machine output takes.  Every generated unit parses without
error.  Mutated units, with tokens
dropped, swapped or duplicated, or with any character inserted, may be
malformed in any way, and check_source must still return a report rather
than raise.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from qnogo.dsl import CheckOptions, check_source, parse, tokenize

OPTIONS = CheckOptions(samples=8)

NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in ("machine", "on", "extend", "require", "candidate"))
NUMBERS = st.floats(0.0, 4.0, allow_nan=False).map(repr)
KETS = st.text("01+-", min_size=1, max_size=4).map(lambda label: f"|{label}>")


@st.composite
def scalars(draw):
    """A scalar as tokens: NUM, CPLX, or either in parentheses, maybe signed, or a number in
    up to 2000 nested parentheses, signed inside each by a repeated pattern."""
    kind = draw(st.sampled_from(["num", "cplx", "paren", "deep"]))
    if kind == "num":
        return [draw(NUMBERS)]
    if kind == "deep":
        depth = draw(st.integers(1, 2000))
        pattern = draw(st.lists(st.sampled_from([[], ["-"], ["+"]]), min_size=1, max_size=3))
        signs = itertools.islice(itertools.cycle(pattern), depth)
        return [t for sign in signs for t in ["(", *sign]] + [draw(NUMBERS)] + [")"] * depth
    if kind == "cplx":
        im = draw(NUMBERS)
        re_part = draw(st.none() | NUMBERS)
        if re_part is None:
            return [f"{im}i"]
        return [f"{re_part}{draw(st.sampled_from('+-'))}{im}i"]
    sign = draw(st.sampled_from([[], ["-"], ["+"]]))
    return ["("] + sign + draw(scalars()) + [")"]


@st.composite
def expressions(draw):
    tokens = []
    for k in range(draw(st.integers(1, 4))):
        if k:
            tokens.append(draw(st.sampled_from("+-")))
        elif draw(st.booleans()):
            tokens.append("-")
        if draw(st.booleans()):
            tokens += draw(scalars())
        tokens += draw(st.lists(KETS, min_size=1, max_size=3)
                       | st.lists(KETS, min_size=1, max_size=40))
    return tokens


def weights(draw, head):
    return [head, "(", "a", "=", *draw(scalars()), ",", "b", "=", *draw(scalars()), ")"]


def lam(draw, head):
    return [head, "(", "lambda", "=", draw(st.floats(0.0, 1.0).map(repr)), ")"]


def families(draw):
    name = draw(st.sampled_from(["bloch", "polar", "equatorial", "list"]))
    if name != "list":
        return [name]
    kets = draw(st.lists(KETS, min_size=1, max_size=3))
    return ["list", "("] + [t for k in kets for t in (k, ",")][:-1] + [")"]


@st.composite
def machines(draw):
    """One machine's statements as tokens, with or without its machine header."""
    head = ["machine", draw(NAMES), ";"] if draw(st.booleans()) else []
    if draw(st.booleans()):   # basis rules, an extension and a requirement
        rules = [["on", f"|{b}>", "->", *draw(expressions()), ";"] for b in "01"]
        kind = draw(st.sampled_from(["linear", "antilinear", "hybrid"]))
        extend = ["extend", *(lam(draw, "hybrid") if kind == "hybrid" else [kind]), ";"]
        target = draw(st.sampled_from(["clone", "complement", "conjugate", "hybrid", None]))
        if target is None:
            require = ["require", "basis", ";"]
        else:
            target = lam(draw, "hybrid") if target == "hybrid" else [target]
            require = ["require", "universal", "on", *families(draw), "target", *target, ";"]
        body = draw(st.permutations(rules + [extend, require]))
    else:   # a gate candidate against a gate target
        gate = draw(st.sampled_from(["H", "HP", "HE", "CNOT", "UG"]))
        gate = weights(draw, "UG") if gate == "UG" else [gate]
        target = draw(st.sampled_from(["hadamard9", "hadamard10", "cnot", "unequal"]))
        target = weights(draw, "unequal") if target == "unequal" else [target]
        body = draw(st.permutations([["candidate", *gate, ";"],
                                     ["require", "universal", "on", *families(draw),
                                      "target", *target, ";"]]))
    return head + [t for statement in body for t in statement]


@st.composite
def units(draw):
    """A unit as tokens; every machine after the first carries a header."""
    first, *rest = draw(st.lists(machines(), min_size=1, max_size=3))
    return first + [t for m in rest
                    for t in (m if m[0] == "machine" else ["machine", "m", ";"] + m)]


def parsed(text):
    tokens, lex_diags = tokenize(text)
    ast, parse_diags = parse(tokens)
    return ast, list(lex_diags) + list(parse_diags)


@settings(max_examples=150, deadline=None)
@given(tokens=units())
def test_every_generated_unit_parses_without_error(tokens):
    ast, diags = parsed(" ".join(tokens))
    assert [d.render() for d in diags if d.severity == "error"] == []
    assert len(ast.machines) == tokens.count("machine") + (tokens[0] != "machine")


@st.composite
def mutated_units(draw):
    tokens = draw(units())
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tokens) - 1))
        how = draw(st.sampled_from(["drop", "swap", "duplicate", "insert"]))
        if how == "drop" and len(tokens) > 1:
            del tokens[i]
        elif how == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif how == "insert":   # any character, non-ASCII digits and letters among them
            tokens.insert(i, draw(st.sampled_from("\u00b2\u0663\u00e9") | st.characters()))
        else:
            tokens.insert(i, tokens[i])
    return tokens


@settings(max_examples=200, deadline=None)
@given(tokens=units() | mutated_units(), glue=st.sampled_from([" ", "", "\n"]))
def test_check_source_never_raises(tokens, glue):
    # glued without spaces, neighbouring tokens may fuse into new ones
    report = check_source(glue.join(tokens), "gen.qmachine", OPTIONS)
    assert report.has_errors or len(report.verdicts) == len(report.names) > 0
    for d in report.diagnostics:
        assert d.render().startswith("gen.qmachine:")
