"""A small declaration language for machines and universality demands.

A unit declares one or more machines.  A machine is either a pair of
basis rules plus an extension clause (how the machine acts on
superpositions), or a named gate candidate; each machine then states
one requirement: hold on the basis inputs only, or hold universally
over a family of states for a named target.  Checking a compiled
machine hands the question to the verifier and returns a Verdict plus
a human-readable report.

Example unit:

    machine main;
    on |0> -> |0>|0>;
    on |1> -> |1>|1>;
    extend linear;
    require universal on bloch target clone;

Statements end with ';', comments run from '#' to end of line, and all
lexer/parser/compiler problems are collected as positioned diagnostics
rather than exceptions.
"""

from __future__ import annotations

import cmath
import math
import re

from ._record import field, record
from ._shared import FAMILIES, REGISTRY

# Lexing and parsing need nothing but the standard library.  numpy, gates,
# states and verifier load in compile_unit and check, once a unit has parsed
# cleanly, so a malformed unit is reported without them.

ERROR = "error"
WARNING = "warning"
MAX_SAMPLES = 800_000   # a cnot check at this many peaks at 147 MB RSS, 31 MB before it starts

_NUM = r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?"   # ASCII digits: float() would read any script's
# Each character starts the first of these that matches there; the last matches any one.
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("NEWLINE", r"\n"), ("SPACE", r"[ \t\r]+"), ("COMMENT", r"#[^\n]*"),
    ("KET", r"\|[01+\-]{1,4}>"),   # one to four of 0, 1, + and -: |0>, |+>, |01>, |1+->
    ("BADKET", r"\|(?:[^>\n]{0,6}>)?"),   # to a '>' close by on the same line, else the bar
    ("ARROW", "->"), ("CPLX", rf"{_NUM}(?:[+-]{_NUM})?i"), ("NUM", _NUM),
    ("WORD", "[A-Za-z_][A-Za-z0-9_]*"), ("SEMI", ";"), ("COMMA", ","), ("LPAREN", r"\("),
    ("RPAREN", r"\)"), ("EQ", "="), ("PLUS", r"\+"), ("MINUS", "-"), ("OTHER", r"[\s\S]"))))

_KEYWORDS = {"machine": "MACHINE", "on": "ON", "extend": "EXTEND",
             "require": "REQUIRE", "candidate": "CANDIDATE"}

_R = 1.0 / math.sqrt(2.0)   # the bits of numpy's 1 / np.sqrt(2.0)
_KET_AMPLITUDES = {"0": (1 + 0j, 0j), "1": (0j, 1 + 0j), "+": (_R + 0j, _R + 0j),
                   "-": (_R + 0j, -_R + 0j)}

# What each call clause expects, and its message for a name that REGISTRY does not give it
_CALL_CLAUSES = {
    "extend": ("an extension kind (linear, antilinear, hybrid)",
               "unknown extension {!r}; expected linear, antilinear, or hybrid(lambda=...)"),
    "candidate": ("a gate name (H, HP, HE, CNOT, UG)",
                  "unknown gate {!r}; expected H, HP, HE, CNOT, or UG"),
    "target": ("a target name", "unknown target {!r}"),
}

# compile-time grace for hand-written amplitudes; exact values are
# restored by renormalization before the strict model types see them
_LITERAL_ATOL = 1e-6


@record
class Diagnostic:
    """A positioned problem report; renders as origin:line:col: severity: message."""

    severity: str
    line: int
    column: int
    message: str
    origin: str = "<stdin>"

    def render(self) -> str:
        return f"{self.origin}:{self.line}:{self.column}: {self.severity}: {self.message}"


@record
class Token:
    kind: str
    value: str
    line: int
    column: int


def tokenize(text: str, origin: str = "<stdin>") -> tuple[list[Token], list[Diagnostic]]:
    """Lex a unit's text into tokens; problems become diagnostics, never raises.

    Ket tokens carry their label ('0', '+', '01', ...).  A complex
    literal like 0.6+0.8i or 2i is one contiguous token; a plain number
    is NUM.  Unknown characters are reported and skipped so the rest of
    the file still lexes; a number too large for a float is reported at
    its own position.
    """
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, line_start, end = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        kind, value, col = m.lastgroup, m.group(), m.start() - line_start + 1
        # a comment that ends the input puts the end of input at its '#'
        end = m.start() if kind == "COMMENT" else m.end()
        if kind == "NEWLINE":
            line, line_start = line + 1, end
        elif kind == "BADKET":
            diags.append(Diagnostic(ERROR, line, col, "unknown ket label", origin))
        elif kind == "OTHER":
            diags.append(Diagnostic(ERROR, line, col, f"unexpected character {value!r}", origin))
        elif kind not in ("SPACE", "COMMENT"):
            if kind == "KET":
                value = value[1:-1]
            elif kind == "WORD":
                kind = _KEYWORDS.get(value, "IDENT")
            elif kind in ("NUM", "CPLX") and not cmath.isfinite(_number(value)):
                diags.append(Diagnostic(ERROR, line, col, f"number {value!r} overflows", origin))
            tokens.append(Token(kind, value, line, col))
    tokens.append(Token("EOF", "", line, end - line_start + 1))
    return tokens, diags


def _number(text: str) -> complex:
    """The value of a NUM or CPLX token, which complex() reads once its 'i' is a 'j'."""
    return complex(text.replace("i", "j"))


# ---------------------------------------------------------------------------
# syntax tree


@record
class Term:
    """One additive term: a scalar coefficient times a product of kets."""

    coefficient: complex
    kets: tuple[str, ...]
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@record
class Rule:
    basis: str  # '0' or '1'
    terms: tuple[Term, ...]
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@record
class Call:
    """An extension, a target or a gate candidate: a name and the arguments it takes."""

    name: str
    a: complex | None = None
    b: complex | None = None
    lam: float | None = None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@record
class Requirement:
    kind: str  # basis | universal
    family: str | None = None
    listed: tuple[str, ...] | None = None  # ket labels for list(...)
    target: Call | None = None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@record
class MachineNode:
    name: str
    rules: tuple[Rule, ...]
    extension: Call | None
    requirement: Requirement | None
    candidate: Call | None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@record
class Ast:
    machines: tuple[MachineNode, ...]


class _ParseError(Exception):
    def __init__(self, at, message: str):   # at: a token or a node, read for its position
        super().__init__(message)
        self.at = at


def _machine(name: str, at: Token) -> dict:
    """A MachineNode's fields, for the parser to fill in."""
    return {"name": name, "rules": (), "extension": None, "requirement": None,
            "candidate": None, "line": at.line, "column": at.column}


class _Parser:
    """Recursive descent over the token list, recovering at ';'."""

    def __init__(self, tokens: list[Token], origin: str):
        self.tokens = tokens
        self.pos = 0
        self.origin = origin
        self.diags: list[Diagnostic] = []
        self.failed: set[tuple[int, str]] = set()   # (machine index, keyword) of each bad statement

    # --- token helpers

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def report(self, at, message: str):
        """An error at the line and column of at, a token or a node."""
        self.diags.append(Diagnostic(ERROR, at.line, at.column, message, self.origin))

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise _ParseError(tok, f"expected {what}, found {tok.value!r}"
                              if tok.kind != "EOF" else f"expected {what}, found end of input")
        return self.advance()

    def expect_word(self, word: str) -> Token:
        # keywords double as plain words inside clauses ('on' in
        # 'require universal on ...'), so match by spelling, not kind
        tok = self.peek()
        if tok.kind == "EOF" or tok.value != word:
            found = tok.value if tok.kind != "EOF" else "end of input"
            raise _ParseError(tok, f"expected '{word}', found {found!r}")
        return self.advance()

    def skip_statement(self):
        while self.peek().kind not in ("SEMI", "EOF"):
            self.advance()
        if self.peek().kind == "SEMI":
            self.advance()

    # --- grammar

    def parse_unit(self) -> Ast:
        machines: list[MachineNode] = []
        current: dict | None = None
        while self.peek().kind != "EOF":
            tok = self.peek()
            try:
                if tok.kind == "MACHINE":
                    if current is not None:
                        machines.append(MachineNode(**current))
                        current = None   # a bad header below leaves no machine current
                    self.advance()
                    name = self.expect("IDENT", "a machine name")
                    self.expect("SEMI", "';'")
                    current = _machine(name.value, tok)
                    continue
                if current is None:
                    current = _machine("main", tok)
                if tok.kind == "ON":
                    self.parse_rule(current)
                elif tok.kind in ("EXTEND", "CANDIDATE"):
                    self.advance()
                    clause = "extension" if tok.kind == "EXTEND" else "candidate"
                    self.set_clause(current, clause, self.parse_call(tok.value, tok), tok)
                elif tok.kind == "REQUIRE":
                    self.parse_require(current)
                else:
                    raise _ParseError(tok, f"expected a statement, found {tok.value!r}")
            except _ParseError as exc:
                self.report(exc.at, str(exc))
                self.skip_statement()
                self.failed.add((len(machines), tok.kind))
        if current is not None:
            machines.append(MachineNode(**current))
        ast = Ast(tuple(machines))
        self.validate(ast)
        return ast

    def set_clause(self, m: dict, clause: str, value, kw: Token):
        """End the statement that kw opened, and set its clause once."""
        self.expect("SEMI", "';'")
        if m[clause] is not None:   # reported, not raised: a raise would skip the next statement
            self.report(kw, f"duplicate {clause} clause")
        else:
            m[clause] = value

    def parse_rule(self, m: dict):
        on = self.advance()
        ket = self.expect("KET", "a basis ket like |0>")
        if ket.value not in ("0", "1"):
            raise _ParseError(ket, "basis rules must be on |0> or |1>")
        self.expect("ARROW", "'->'")
        terms = self.parse_terms()
        self.expect("SEMI", "';'")
        m["rules"] += (Rule(ket.value, terms, line=on.line, column=on.column),)

    def parse_terms(self) -> tuple[Term, ...]:
        terms = [self.parse_term(leading=True)]
        while self.peek().kind in ("PLUS", "MINUS"):
            sign = self.advance()
            term = self.parse_term(leading=False)
            if sign.kind == "MINUS":
                term = Term(-term.coefficient, term.kets,
                            line=term.line, column=term.column)
            terms.append(term)
        return tuple(terms)

    def parse_sign(self) -> float:
        if self.peek().kind in ("PLUS", "MINUS"):
            return -1.0 if self.advance().kind == "MINUS" else 1.0
        return 1.0

    def parse_term(self, leading: bool) -> Term:
        sign = self.parse_sign() if leading else 1.0
        coeff = complex(1.0)
        head = self.peek()
        if head.kind in ("NUM", "CPLX", "LPAREN"):
            coeff = self.parse_scalar_body()
        kets: list[str] = []
        while self.peek().kind == "KET":
            kets.append(self.advance().value)
        if not kets:
            raise _ParseError(self.peek(), "expected a ket in this term")
        return Term(sign * coeff, tuple(kets), line=head.line, column=head.column)

    def parse_scalar(self) -> complex:
        return self.parse_sign() * self.parse_scalar_body()

    def parse_scalar_body(self) -> complex:
        """A number, or a signed scalar in parentheses, read in a loop rather than by
        recursion, so that no depth of parentheses exhausts the stack."""
        signs = []   # the sign inside each open parenthesis, outermost first
        while self.peek().kind == "LPAREN":
            self.advance()
            signs.append(self.parse_sign())
        tok = self.peek()
        if tok.kind not in ("NUM", "CPLX"):
            raise _ParseError(tok, f"expected a number, found {tok.value!r}")
        self.advance()
        value = _number(tok.value)
        for sign in reversed(signs):
            value = sign * value
            self.expect("RPAREN", "')'")
        return value

    def parse_call(self, clause: str, at) -> Call:
        """A name that clause takes and its arguments, as a Call at the position of at."""
        what, unknown = _CALL_CLAUSES[clause]
        tok = self.expect("IDENT", what)
        if tok.value not in REGISTRY[clause]:
            raise _ParseError(tok, unknown.format(tok.value))
        args = {}
        keys = REGISTRY[clause][tok.value][0]   # in the order they are written
        for i, key in enumerate(keys):
            self.expect(*(("COMMA", "','") if i else ("LPAREN", "'('")))
            self.expect_word(key)
            self.expect("EQ", "'='")
            start = self.peek()
            args[key] = self.parse_scalar()
            # a non-finite value comes from a literal the lexer already refused
            if key == "lambda" and cmath.isfinite(args[key]) and args[key].imag != 0.0:
                raise _ParseError(start, "lambda must be a real number")
        if keys:
            self.expect("RPAREN", "')'")
        lam = args["lambda"].real if "lambda" in args else None
        return Call(tok.value, args.get("a"), args.get("b"), lam, line=at.line, column=at.column)

    def parse_require(self, m: dict):
        kw = self.advance()
        tok = self.expect("IDENT", "'basis' or 'universal'")
        if tok.value == "basis":
            req = Requirement("basis", line=kw.line, column=kw.column)
        elif tok.value == "universal":
            self.expect_word("on")
            fam = self.expect("IDENT", "a family (bloch, polar, equatorial, list)")
            if fam.value not in FAMILIES + ("list",):
                raise _ParseError(fam, f"unknown family {fam.value!r}")
            listed = None
            if fam.value == "list":
                self.expect("LPAREN", "'('")
                labels = [self.expect("KET", "a ket").value]
                while self.peek().kind == "COMMA":
                    self.advance()
                    labels.append(self.expect("KET", "a ket").value)
                self.expect("RPAREN", "')'")
                listed = tuple(labels)
            target = self.parse_call("target", self.expect_word("target"))
            req = Requirement("universal", family=fam.value, listed=listed,
                              target=target, line=kw.line, column=kw.column)
        else:
            raise _ParseError(tok, f"unknown requirement {tok.value!r}; "
                                   "expected basis or universal")
        self.set_clause(m, "requirement", req, kw)

    # --- structural validation

    def validate(self, ast: Ast):
        if not ast.machines:   # an empty or comment-only unit
            self.diags.append(Diagnostic(ERROR, 1, 1, "unit declares no machine", self.origin))
        for i, m in enumerate(ast.machines):
            # a statement that failed to parse is reported; its clause counts as present
            failed = {kind for at, kind in self.failed if at == i}
            seen = set()
            for rule in m.rules:
                if rule.basis in seen:
                    self.report(rule, "duplicate basis rule")
                seen.add(rule.basis)
            if m.rules and m.candidate is not None:
                self.report(m.candidate,
                            "machine cannot declare both basis rules and a gate candidate")
            no_rules = not m.rules and "ON" not in failed
            if m.rules:
                if len(seen) < 2 and len(m.rules) == len(seen) and "ON" not in failed:
                    self.report(m, "machine must declare rules for both |0> and |1>")
                if m.extension is None and "EXTEND" not in failed:
                    self.report(m, "machine must declare extension")
            elif m.extension is not None and no_rules:
                self.report(m.extension, "extension clause needs basis rules")
            req = m.requirement
            if req is None:
                if "REQUIRE" not in failed:
                    self.report(m, "machine must declare a requirement")
            elif req.kind == "basis" and no_rules:
                self.report(req, "basis requirement needs basis rules")
            elif req.kind == "universal":
                name = req.target.name
                side = REGISTRY["target"][name][1]   # 0 for a machine target
                if not side and no_rules:
                    self.report(req, f"target {name!r} needs basis rules and an extension")
                if side and m.candidate is None and "CANDIDATE" not in failed:
                    self.report(req, f"target {name!r} needs a candidate clause")


def parse(tokens: list[Token], origin: str = "<stdin>") -> tuple[Ast, list[Diagnostic]]:
    """Parse a token list; syntax problems are collected, not raised.

    Returns the (possibly partial) tree and the diagnostics.  An empty
    diagnostic list means the unit is structurally valid.
    """
    p = _Parser(tokens, origin)
    ast = p.parse_unit()
    return ast, p.diags


# ---------------------------------------------------------------------------
# compilation


@record
class CompiledMachine:
    """A checked unit member: model objects ready for the verifier.

    machine is None for pure gate-candidate declarations; target is
    None for basis-only requirements.  family, or the states of a list(...)
    requirement in listed, says where a universal requirement must hold.
    """

    name: str
    requirement: str
    machine: MachineSpec | None = None
    target: TargetTransform | None = None
    target_name: str | None = None
    family: str | None = None
    listed: StateSet | None = None
    candidate: np.ndarray | None = None


def _eval_terms(terms: tuple[Term, ...], where: tuple[int, int]) -> np.ndarray:
    """The output vector of a rule's terms, at where; the qubits of each term are counted
    from its kets before any vector is built, so a wide term costs no memory."""
    import numpy as np
    qubits = [sum(map(len, term.kets)) for term in terms]
    for term, count in zip(terms, qubits):
        if count != qubits[0]:
            raise _CompileError("terms have mismatched register counts",
                                term.line, term.column)
    if qubits[0] not in (2, 3):
        raise _CompileError("machine outputs need two or three registers", *where)
    total = None
    for term in terms:
        vec = np.ones(1, dtype=complex) * term.coefficient
        for label in term.kets:
            for ch in label:
                vec = np.kron(vec, _KET_AMPLITUDES[ch])
        if total is None:
            total = vec
        else:
            with np.errstate(over="ignore"):   # an overflowing sum fails _normalized
                total = total + vec
    return total


class _CompileError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(message)
        self.message, self.line, self.col = message, line, col


def _normalized(vec: np.ndarray, where: tuple[int, int],
                diags: list[Diagnostic], origin: str) -> np.ndarray:
    import numpy as np
    with np.errstate(over="ignore"):   # huge amplitudes give an infinite norm
        norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > _LITERAL_ATOL:
        raise _CompileError("output not normalized", *where)
    if abs(norm - 1.0) > 1e-12:
        diags.append(Diagnostic(WARNING, where[0], where[1],
                                "output renormalized", origin))
    return vec / norm


def _compile_target(tgt: Call, where: tuple[int, int]) -> TargetTransform:
    from .verifier import TargetTransform
    try:
        if tgt.lam is not None and not 0.0 <= tgt.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        return TargetTransform(tgt.name, tgt.a, tgt.b, tgt.lam)
    except ValueError as exc:
        raise _CompileError(str(exc), *where) from exc


def _compile_machine_spec(m: MachineNode, diags: list[Diagnostic],
                          origin: str) -> MachineSpec:
    import numpy as np
    from .verifier import MachineSpec, hybrid_machine
    by_basis = {r.basis: r for r in m.rules}
    outs = {}
    for basis in ("0", "1"):
        rule = by_basis[basis]
        where = (rule.line, rule.column)
        try:
            vec = _eval_terms(rule.terms, where)
        except KeyError as exc:
            raise _CompileError(f"unknown ket label {exc.args[0]!r}", *where)
        outs[basis] = _normalized(vec, where, diags, origin)
    if outs["0"].size != outs["1"].size:
        rule = by_basis["1"]
        raise _CompileError("dimension mismatch between the two basis rules",
                            rule.line, rule.column)
    ext = m.extension
    where = (ext.line, ext.column)
    try:
        if ext.name == "hybrid":
            if not 0.0 <= ext.lam <= 1.0:
                raise _CompileError("lambda must lie in [0, 1]", *where)
            spec = hybrid_machine(ext.lam, outs["0"].size // 4)
            for basis, canonical in zip("01", spec.linear + spec.antilinear):
                if np.linalg.norm(outs[basis] - canonical) > _LITERAL_ATOL:
                    rule = by_basis[basis]
                    raise _CompileError(
                        "basis rule does not match the declared hybrid weights",
                        rule.line, rule.column)
            return spec
        rows = np.array([outs["0"], outs["1"]])
        zero = np.zeros_like(rows)
        return MachineSpec(*((rows, zero) if ext.name == "linear" else (zero, rows)))
    except ValueError as exc:
        raise _CompileError(str(exc), *where) from exc


def _compile_candidate(c: Call) -> np.ndarray:
    from .gates import NAMED_GATES, unequal_gate
    if c.name == "UG":
        try:
            return unequal_gate((c.a, c.b))
        except (TypeError, ValueError) as exc:
            raise _CompileError(str(exc), c.line, c.column) from exc
    return NAMED_GATES[c.name]


def compile_unit(ast: Ast, origin: str = "<stdin>"
                 ) -> tuple[list[CompiledMachine], list[Diagnostic]]:
    """Turn a validated tree into verifier-ready machine descriptions.

    Value-level problems (non-normalized outputs, weight constraints,
    dimension mismatches) come back as error diagnostics; machines that
    compile cleanly are returned even when siblings fail.
    """
    compiled: list[CompiledMachine] = []
    diags: list[Diagnostic] = []
    for m in ast.machines:
        try:
            compiled.append(_compile_one(m, diags, origin))
        except _CompileError as exc:
            diags.append(Diagnostic(ERROR, exc.line, exc.col, exc.message, origin))
    return compiled, diags


def _compile_one(m: MachineNode, diags: list[Diagnostic],
                 origin: str) -> CompiledMachine:
    from .states import Qubit, listed_set
    spec = _compile_machine_spec(m, diags, origin) if m.rules else None
    candidate = _compile_candidate(m.candidate) if m.candidate else None
    req = m.requirement
    if req.kind == "basis":
        return CompiledMachine(m.name, "basis", machine=spec)
    target = _compile_target(req.target, (req.line, req.column))
    # a linear or antilinear machine declares no ancilla state for the ideal output to carry
    if spec is not None and m.extension.name != "hybrid" and spec.linear.shape[1] != 4:
        raise _CompileError(f"target {req.target.name!r} needs two-register outputs, "
                            "or three with extend hybrid(...)", req.line, req.column)
    listed = None
    if req.listed is not None:
        bad = [label for label in req.listed if len(label) != 1]
        if bad:
            raise _CompileError("listed states must be single qubits",
                                req.line, req.column)
        listed = listed_set(Qubit(*_KET_AMPLITUDES[label]) for label in req.listed)
    if candidate is not None and REGISTRY["candidate"][m.candidate.name][1] != target.side:
        raise _CompileError("candidate dimension does not match the target", req.line, req.column)
    return CompiledMachine(m.name, "universal", machine=spec, target=target,
                           target_name=_fmt_call(req.target),
                           family=req.family,
                           listed=listed, candidate=candidate)


# ---------------------------------------------------------------------------
# checking


@record
class CheckOptions:
    """Knobs shared by every check: tolerance, sample count, seed."""

    tolerance: float = 1e-9
    samples: int = 500
    seed: int = 42

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise ValueError(f"samples must lie in [1, {MAX_SAMPLES}], got {self.samples}")


def _family_states(c: CompiledMachine, opts: CheckOptions) -> StateSet:
    from .states import state_family
    if c.listed is not None:
        return c.listed
    return state_family(c.family, opts.samples, opts.seed)


def check(c: CompiledMachine, opts: CheckOptions = CheckOptions()
          ) -> tuple[Verdict, str]:
    """Decide a compiled machine's requirement and narrate the outcome.

    Dispatches to the verifier: a basis requirement confirms only that the
    unit compiled (see _check_basis), machine targets sweep the
    family for the worst deviation from the ideal two-register output,
    and gate targets check the candidate against the per-state rules.
    Returns the verdict and a deterministic multi-line report.
    """
    from .verifier import check_universal_gate
    if c.requirement == "basis":
        verdict = _check_basis(c, opts)
    elif c.candidate is not None:
        verdict = check_universal_gate(c.candidate, c.target, _family_states(c, opts),
                                       tol=opts.tolerance)
    else:
        verdict = _check_machine_target(c, opts)
    return verdict, _report(c, verdict)


def _check_basis(c: CompiledMachine, opts: CheckOptions) -> Verdict:
    """The basis-rules verdict, which confirms only that the unit compiled: the machine's
    output on |i> is L_i + A_i, the declared rule itself, whose norm compile_unit checked,
    so 1 - |<out|out>|^2 reads 0 to rounding for every unit that compiles."""
    import numpy as np
    from .states import Qubit, complement
    from .verifier import Verdict
    m, worst = c.machine, 0.0
    for out in m.linear + m.antilinear:   # the machine's output on |0> and on |1>
        overlap_sq = abs(np.vdot(out, out)) ** 2
        worst = max(worst, float(min(max(1.0 - overlap_sq, 0.0), 1.0)))
    ok = worst <= opts.tolerance
    witness = None
    if not ok:
        q = Qubit(1.0, 0.0)
        witness = (q, complement(q))
    return Verdict(realizable=ok, violation=worst, tolerance=opts.tolerance,
                   condition="basis-rules", witness=witness,
                   detail="checked both basis inputs")


def _check_machine_target(c: CompiledMachine, opts: CheckOptions) -> Verdict:
    from .states import complement
    from .verifier import Verdict, _worst_deviation
    states = _family_states(c, opts)
    worst, i = _worst_deviation(c.machine, c.target, states)
    worst_q = states.pair(i)[0]
    ok = worst <= opts.tolerance
    return Verdict(realizable=ok, violation=worst, tolerance=opts.tolerance,
                   condition="ideal-vs-extended-output",
                   witness=None if ok else (worst_q, complement(worst_q)),
                   detail=f"checked {len(states)} states")


def _describe_requirement(c: CompiledMachine) -> str:
    from .states import ket_notation
    if c.requirement == "basis":
        return "basis"
    fam = c.family
    if c.listed is not None:
        fam = "list(" + ", ".join(map(ket_notation, c.listed.state_vectors)) + ")"
    return f"universal {c.target_name} on {fam}"


def _report(c: CompiledMachine, verdict: Verdict) -> str:
    from .states import ket_notation
    lines = [f"machine {c.name}: {verdict.status}",
             f"  requirement: {_describe_requirement(c)}",
             f"  condition: {verdict.condition}",
             f"  violation: {verdict.violation!r}",
             f"  tolerance: {verdict.tolerance!r}"]
    if verdict.witness is not None:
        lines.append(f"  witness: {ket_notation(verdict.witness[0])}")
    if verdict.detail:
        lines.append(f"  detail: {verdict.detail}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# whole-unit convenience and target names


@record
class UnitReport:
    """Everything a caller needs after checking one source unit."""

    names: tuple[str, ...]
    verdicts: tuple[Verdict, ...]
    reports: tuple[str, ...]
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return not self.has_errors and all(v.realizable for v in self.verdicts)

    @property
    def has_errors(self) -> bool:
        return any(d.severity == ERROR for d in self.diagnostics)


def check_source(text: str, origin: str = "<stdin>",
                 opts: CheckOptions = CheckOptions()) -> UnitReport:
    """Lex, parse, compile, and check a whole unit in one call."""
    tokens, diags = tokenize(text, origin)
    ast, parse_diags = parse(tokens, origin)
    diags = list(diags) + list(parse_diags)
    if any(d.severity == ERROR for d in diags):
        return UnitReport((), (), (), tuple(diags))
    compiled, compile_diags = compile_unit(ast, origin)
    diags += compile_diags
    if any(d.severity == ERROR for d in diags):
        return UnitReport((), (), (), tuple(diags))
    names, verdicts, reports = [], [], []
    for c in compiled:
        verdict, report = check(c, opts)
        names.append(c.name)
        verdicts.append(verdict)
        reports.append(report)
    return UnitReport(tuple(names), tuple(verdicts), tuple(reports), tuple(diags))


def _fmt_scalar(value: complex) -> str:
    value = complex(value) + 0.0   # -0.0 parts print as 0.0: "+ -0.0|0>" would not parse
    if value.imag == 0.0:
        return repr(value.real)
    if value.real < 0.0:   # a leading "-" negates the whole literal, "-1-1i" is -(1-1i)
        return "-" + _fmt_scalar(-value)
    re_part = repr(value.real)
    im_part = repr(value.imag)
    if not im_part.startswith("-"):
        im_part = "+" + im_part
    return f"{re_part}{im_part}i"


def _fmt_call(call: Call) -> str:
    """A target as the DSL writes it."""
    if call.name == "hybrid":
        return f"hybrid(lambda={call.lam!r})"
    if call.name == "unequal":
        return f"{call.name}(a={_fmt_scalar(call.a)}, b={_fmt_scalar(call.b)})"
    return call.name
