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
from ._shared import GATE_NAMES

# Lexing and parsing need nothing but the standard library.  numpy, gates,
# states and verifier load in compile_unit and check, once a unit has parsed
# cleanly, so a malformed unit is reported without them.

ERROR = "error"
WARNING = "warning"
MAX_SAMPLES = 800_000   # a cnot check holds about 1.2 KB per sample: at most about 1 GB

# a ket label is one to four of 0, 1, + and -, e.g. |0>, |+>, |01>, |1+->
_KET_RE = re.compile(r"\|([01+\-]{1,4})>")
_NUM_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_CPLX_RE = re.compile(
    r"(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)((?:[+-]\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)?)i")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_KEYWORDS = {"machine": "MACHINE", "on": "ON", "extend": "EXTEND",
             "require": "REQUIRE", "candidate": "CANDIDATE"}
_PUNCT = {";": "SEMI", ",": "COMMA", "(": "LPAREN", ")": "RPAREN",
          "=": "EQ", "+": "PLUS", "-": "MINUS"}

_MACHINE_TARGETS = ("clone", "complement", "conjugate", "hybrid")
_GATE_TARGETS = ("hadamard9", "hadamard10", "unequal", "cnot")
_FAMILIES = ("bloch", "polar", "equatorial", "list")

_R = 1.0 / math.sqrt(2.0)   # the bits of numpy's 1 / np.sqrt(2.0)
_KET_AMPLITUDES = {"0": (1 + 0j, 0j), "1": (0j, 1 + 0j), "+": (_R + 0j, _R + 0j),
                   "-": (_R + 0j, -_R + 0j)}

# compile-time grace for hand-written amplitudes; exact values are
# restored by renormalization before the strict model types see them
_LITERAL_ATOL = 1e-6


@record
class SourceUnit:
    """Raw text plus where it came from (file path or '<stdin>')."""

    text: str
    origin: str = "<stdin>"


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


def tokenize(src: SourceUnit) -> tuple[list[Token], list[Diagnostic]]:
    """Lex a unit into tokens; problems become diagnostics, never raises.

    Ket tokens carry their label ('0', '+', '01', ...).  A complex
    literal like 0.6+0.8i or 2i is one contiguous token; a plain number
    is NUM.  Unknown characters are reported and skipped so the rest of
    the file still lexes; a number too large for a float is reported at
    its own position.
    """
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, col = 1, 1
    i, text = 0, src.text
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "|":
            m = _KET_RE.match(text, i)
            if m:
                tokens.append(Token("KET", m.group(1), line, col))
                col += m.end() - i
                i = m.end()
            else:
                diags.append(Diagnostic(ERROR, line, col, "unknown ket label",
                                        src.origin))
                # skip to the closing '>' if one is near, else just the bar
                stop = text.find(">", i, i + 8)
                step = (stop - i + 1) if stop != -1 else 1
                col += step
                i += step
            continue
        if c == "-" and text.startswith("->", i):
            tokens.append(Token("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if c.isdigit():
            m = _CPLX_RE.match(text, i)
            if m:
                tokens.append(Token("CPLX", m.group(0), line, col))
                value = _parse_cplx(m.group(0))
            else:
                m = _NUM_RE.match(text, i)
                tokens.append(Token("NUM", m.group(0), line, col))
                value = float(m.group(0))
            if not cmath.isfinite(value):
                diags.append(Diagnostic(ERROR, line, col,
                                        f"number {m.group(0)!r} overflows", src.origin))
            col += m.end() - i
            i = m.end()
            continue
        if c in _PUNCT:
            tokens.append(Token(_PUNCT[c], c, line, col))
            i += 1
            col += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group(0)
            tokens.append(Token(_KEYWORDS.get(word, "IDENT"), word, line, col))
            col += len(word)
            i = m.end()
            continue
        diags.append(Diagnostic(ERROR, line, col, f"unexpected character {c!r}",
                                src.origin))
        i += 1
        col += 1
    tokens.append(Token("EOF", "", line, col))
    return tokens, diags


def _parse_cplx(text: str) -> complex:
    m = _CPLX_RE.fullmatch(text)
    if m.group(2):
        return complex(float(m.group(1)), float(m.group(2)))
    return complex(0.0, float(m.group(1)))


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
class KetExpr:
    terms: tuple[Term, ...]


@record
class Rule:
    basis: str  # '0' or '1'
    expr: KetExpr
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@record
class Extension:
    kind: str  # linear | antilinear | hybrid
    lam: float | None = None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@record
class Target:
    kind: str
    a: complex | None = None
    b: complex | None = None
    lam: float | None = None


@record
class Requirement:
    kind: str  # basis | universal
    family: str | None = None
    listed: tuple[str, ...] | None = None  # ket labels for list(...)
    target: Target | None = None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@record
class Candidate:
    name: str  # H | HP | HE | CNOT | UG
    a: complex | None = None
    b: complex | None = None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@record
class MachineNode:
    name: str
    rules: tuple[Rule, ...]
    extension: Extension | None
    requirement: Requirement | None
    candidate: Candidate | None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@record
class Ast:
    machines: tuple[MachineNode, ...]


class _ParseError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


class _MachineBuilder:
    def __init__(self, name: str, line: int, col: int):
        self.name = name
        self.line, self.col = line, col
        self.rules: list[Rule] = []
        self.extension: Extension | None = None
        self.requirement: Requirement | None = None
        self.candidate: Candidate | None = None

    def build(self) -> MachineNode:
        return MachineNode(self.name, tuple(self.rules), self.extension,
                           self.requirement, self.candidate,
                           line=self.line, column=self.col)


class _Parser:
    """Recursive descent over the token list, recovering at ';'."""

    def __init__(self, tokens: list[Token], origin: str):
        self.tokens = tokens
        self.pos = 0
        self.origin = origin
        self.diags: list[Diagnostic] = []

    # --- token helpers

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, tok: Token, message: str) -> _ParseError:
        return _ParseError(Diagnostic(ERROR, tok.line, tok.column, message,
                                      self.origin))

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(tok, f"expected {what}, found {tok.value!r}"
                             if tok.kind != "EOF" else f"expected {what}, found end of input")
        return self.advance()

    def expect_word(self, word: str) -> Token:
        # keywords double as plain words inside clauses ('on' in
        # 'require universal on ...'), so match by spelling, not kind
        tok = self.peek()
        if tok.kind == "EOF" or tok.value != word:
            found = tok.value if tok.kind != "EOF" else "end of input"
            raise self.error(tok, f"expected '{word}', found {found!r}")
        return self.advance()

    def skip_statement(self):
        while self.peek().kind not in ("SEMI", "EOF"):
            self.advance()
        if self.peek().kind == "SEMI":
            self.advance()

    # --- grammar

    def parse_unit(self) -> Ast:
        machines: list[MachineNode] = []
        current: _MachineBuilder | None = None
        while self.peek().kind != "EOF":
            tok = self.peek()
            try:
                if tok.kind == "MACHINE":
                    if current is not None:
                        machines.append(current.build())
                    self.advance()
                    name = self.expect("IDENT", "a machine name")
                    self.expect("SEMI", "';'")
                    current = _MachineBuilder(name.value, tok.line, tok.column)
                    continue
                if current is None:
                    current = _MachineBuilder("main", tok.line, tok.column)
                if tok.kind == "ON":
                    self.parse_rule(current)
                elif tok.kind == "EXTEND":
                    self.parse_extend(current)
                elif tok.kind == "REQUIRE":
                    self.parse_require(current)
                elif tok.kind == "CANDIDATE":
                    self.parse_candidate(current)
                else:
                    raise self.error(tok, f"expected a statement, found {tok.value!r}")
            except _ParseError as exc:
                self.diags.append(exc.diag)
                self.skip_statement()
        if current is not None:
            machines.append(current.build())
        ast = Ast(tuple(machines))
        self.validate(ast)
        return ast

    def parse_rule(self, m: _MachineBuilder):
        on = self.advance()
        ket = self.expect("KET", "a basis ket like |0>")
        if ket.value not in ("0", "1"):
            raise self.error(ket, "basis rules must be on |0> or |1>")
        self.expect("ARROW", "'->'")
        expr = self.parse_ketexpr()
        self.expect("SEMI", "';'")
        m.rules.append(Rule(ket.value, expr, line=on.line, column=on.column))

    def parse_ketexpr(self) -> KetExpr:
        terms = [self.parse_term(leading=True)]
        while self.peek().kind in ("PLUS", "MINUS"):
            sign = self.advance()
            term = self.parse_term(leading=False)
            if sign.kind == "MINUS":
                term = Term(-term.coefficient, term.kets,
                            line=term.line, column=term.column)
            terms.append(term)
        return KetExpr(tuple(terms))

    def parse_term(self, leading: bool) -> Term:
        tok = self.peek()
        sign = 1.0
        if leading and tok.kind in ("PLUS", "MINUS"):
            self.advance()
            if tok.kind == "MINUS":
                sign = -1.0
        coeff = complex(1.0)
        head = self.peek()
        if head.kind in ("NUM", "CPLX", "LPAREN"):
            coeff = self.parse_scalar_body()
        kets: list[str] = []
        while self.peek().kind == "KET":
            kets.append(self.advance().value)
        if not kets:
            raise self.error(self.peek(), "expected a ket in this term")
        return Term(sign * coeff, tuple(kets), line=head.line, column=head.column)

    def parse_scalar(self) -> complex:
        tok = self.peek()
        sign = 1.0
        if tok.kind in ("PLUS", "MINUS"):
            self.advance()
            if tok.kind == "MINUS":
                sign = -1.0
        return sign * self.parse_scalar_body()

    def parse_scalar_body(self) -> complex:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return complex(float(tok.value))
        if tok.kind == "CPLX":
            self.advance()
            return _parse_cplx(tok.value)
        if tok.kind == "LPAREN":
            self.advance()
            value = self.parse_scalar()
            self.expect("RPAREN", "')'")
            return value
        raise self.error(tok, f"expected a number, found {tok.value!r}")

    def parse_extend(self, m: _MachineBuilder):
        kw = self.advance()
        tok = self.expect("IDENT", "an extension kind (linear, antilinear, hybrid)")
        if tok.value in ("linear", "antilinear"):
            ext = Extension(tok.value, line=kw.line, column=kw.column)
        elif tok.value == "hybrid":
            lam = self.parse_lambda_args(tok)
            ext = Extension("hybrid", lam=lam, line=kw.line, column=kw.column)
        else:
            raise self.error(tok, f"unknown extension {tok.value!r}; "
                                  "expected linear, antilinear, or hybrid(lambda=...)")
        self.expect("SEMI", "';'")
        if m.extension is not None:
            raise self.error(kw, "duplicate extension clause")
        m.extension = ext

    def parse_lambda_args(self, at: Token) -> float:
        self.expect("LPAREN", "'('")
        self.expect_word("lambda")
        self.expect("EQ", "'='")
        tok = self.peek()
        value = self.parse_scalar()
        # a non-finite value comes from a literal the lexer already refused
        if cmath.isfinite(value) and value.imag != 0.0:
            raise self.error(tok, "lambda must be a real number")
        self.expect("RPAREN", "')'")
        return value.real

    def parse_weight_args(self) -> tuple[complex, complex]:
        self.expect("LPAREN", "'('")
        self.expect_word("a")
        self.expect("EQ", "'='")
        a = self.parse_scalar()
        self.expect("COMMA", "','")
        self.expect_word("b")
        self.expect("EQ", "'='")
        b = self.parse_scalar()
        self.expect("RPAREN", "')'")
        return a, b

    def parse_require(self, m: _MachineBuilder):
        kw = self.advance()
        tok = self.expect("IDENT", "'basis' or 'universal'")
        if tok.value == "basis":
            req = Requirement("basis", line=kw.line, column=kw.column)
        elif tok.value == "universal":
            self.expect_word("on")
            fam = self.expect("IDENT", "a family (bloch, polar, equatorial, list)")
            if fam.value not in _FAMILIES:
                raise self.error(fam, f"unknown family {fam.value!r}")
            listed = None
            if fam.value == "list":
                self.expect("LPAREN", "'('")
                labels = [self.expect("KET", "a ket").value]
                while self.peek().kind == "COMMA":
                    self.advance()
                    labels.append(self.expect("KET", "a ket").value)
                self.expect("RPAREN", "')'")
                listed = tuple(labels)
            self.expect_word("target")
            target = self.parse_target()
            req = Requirement("universal", family=fam.value, listed=listed,
                              target=target, line=kw.line, column=kw.column)
        else:
            raise self.error(tok, f"unknown requirement {tok.value!r}; "
                                  "expected basis or universal")
        self.expect("SEMI", "';'")
        if m.requirement is not None:
            raise self.error(kw, "duplicate requirement clause")
        m.requirement = req

    def parse_target(self) -> Target:
        tok = self.expect("IDENT", "a target name")
        name = tok.value
        if name in ("clone", "complement", "conjugate", "hadamard9",
                    "hadamard10", "cnot"):
            return Target(name)
        if name == "unequal":
            a, b = self.parse_weight_args()
            return Target("unequal", a=a, b=b)
        if name == "hybrid":
            lam = self.parse_lambda_args(tok)
            return Target("hybrid", lam=lam)
        raise self.error(tok, f"unknown target {name!r}")

    def parse_candidate(self, m: _MachineBuilder):
        kw = self.advance()
        tok = self.expect("IDENT", "a gate name (H, HP, HE, CNOT, UG)")
        name = tok.value
        if name in GATE_NAMES:
            cand = Candidate(name, line=kw.line, column=kw.column)
        elif name == "UG":
            a, b = self.parse_weight_args()
            cand = Candidate("UG", a=a, b=b, line=kw.line, column=kw.column)
        else:
            raise self.error(tok, f"unknown gate {name!r}; expected H, HP, HE, CNOT, or UG")
        self.expect("SEMI", "';'")
        if m.candidate is not None:
            raise self.error(kw, "duplicate candidate clause")
        m.candidate = cand

    # --- structural validation

    def validate(self, ast: Ast):
        for m in ast.machines:
            at = (m.line, m.column)
            seen = set()
            for rule in m.rules:
                if rule.basis in seen:
                    self.diags.append(Diagnostic(
                        ERROR, rule.line, rule.column, "duplicate basis rule",
                        self.origin))
                seen.add(rule.basis)
            if m.rules and m.candidate is not None:
                self.diags.append(Diagnostic(
                    ERROR, m.candidate.line, m.candidate.column,
                    "machine cannot declare both basis rules and a gate candidate",
                    self.origin))
            if m.rules:
                if len(seen) < 2 and len(m.rules) == len(seen):
                    self.diags.append(Diagnostic(
                        ERROR, at[0], at[1],
                        "machine must declare rules for both |0> and |1>",
                        self.origin))
                if m.extension is None:
                    self.diags.append(Diagnostic(
                        ERROR, at[0], at[1], "machine must declare extension",
                        self.origin))
            elif m.extension is not None:
                self.diags.append(Diagnostic(
                    ERROR, m.extension.line, m.extension.column,
                    "extension clause needs basis rules", self.origin))
            if m.requirement is None:
                self.diags.append(Diagnostic(
                    ERROR, at[0], at[1], "machine must declare a requirement",
                    self.origin))
                continue
            req = m.requirement
            if req.kind == "basis" and not m.rules:
                self.diags.append(Diagnostic(
                    ERROR, req.line, req.column,
                    "basis requirement needs basis rules", self.origin))
            if req.kind == "universal":
                tgt = req.target
                if tgt.kind in _MACHINE_TARGETS and not m.rules:
                    self.diags.append(Diagnostic(
                        ERROR, req.line, req.column,
                        f"target {tgt.kind!r} needs basis rules and an extension",
                        self.origin))
                if tgt.kind in _GATE_TARGETS and m.candidate is None:
                    self.diags.append(Diagnostic(
                        ERROR, req.line, req.column,
                        f"target {tgt.kind!r} needs a candidate clause",
                        self.origin))


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
    None for basis-only requirements.  family/listed describe where a
    universal requirement must hold.
    """

    name: str
    requirement: str
    machine: MachineSpec | None = None
    target: TargetTransform | None = None
    target_name: str | None = None
    family: str | None = None
    listed: tuple[Qubit, ...] | None = None
    candidate: np.ndarray | None = None

    @property
    def is_gate_check(self) -> bool:
        return self.candidate is not None


def _eval_ketexpr(expr: KetExpr) -> np.ndarray:
    import numpy as np
    total = None
    for term in expr.terms:
        vec = np.ones(1, dtype=complex) * term.coefficient
        for label in term.kets:
            for ch in label:
                vec = np.kron(vec, _KET_AMPLITUDES[ch])
        if total is None:
            total = vec
        elif vec.size != total.size:
            raise _CompileError("terms have mismatched register counts",
                                term.line, term.column)
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


def _compile_target(tgt: Target, where: tuple[int, int]) -> TargetTransform:
    from .verifier import named_target
    try:
        if tgt.kind == "hybrid" and not 0.0 <= tgt.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        return named_target(tgt.kind, tgt.a, tgt.b, tgt.lam)
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
            vec = _eval_ketexpr(rule.expr)
        except KeyError as exc:
            raise _CompileError(f"unknown ket label {exc.args[0]!r}", *where)
        if vec.size not in (4, 8):
            raise _CompileError(
                "machine outputs need two or three registers", *where)
        outs[basis] = _normalized(vec, where, diags, origin)
    if outs["0"].size != outs["1"].size:
        rule = by_basis["1"]
        raise _CompileError("dimension mismatch between the two basis rules",
                            rule.line, rule.column)
    ext = m.extension
    where = (ext.line, ext.column)
    try:
        if ext.kind == "hybrid":
            if not 0.0 <= ext.lam <= 1.0:
                raise _CompileError("lambda must lie in [0, 1]", *where)
            anc_dim = outs["0"].size // 4
            anc = np.zeros(anc_dim, dtype=complex)
            anc[0] = 1.0
            spec = hybrid_machine(ext.lam, ancilla0=anc, ancilla1=anc)
            for basis in ("0", "1"):
                canonical = spec.out0 if basis == "0" else spec.out1
                if np.linalg.norm(outs[basis] - canonical) > _LITERAL_ATOL:
                    rule = by_basis[basis]
                    raise _CompileError(
                        "basis rule does not match the declared hybrid weights",
                        rule.line, rule.column)
            return spec
        return MachineSpec(out0=outs["0"], out1=outs["1"], extension=ext.kind)
    except ValueError as exc:
        raise _CompileError(str(exc), *where) from exc


def _compile_candidate(c: Candidate) -> np.ndarray:
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
    from .states import Qubit
    spec = _compile_machine_spec(m, diags, origin) if m.rules else None
    candidate = _compile_candidate(m.candidate) if m.candidate else None
    req = m.requirement
    if req.kind == "basis":
        return CompiledMachine(m.name, "basis", machine=spec)
    target = _compile_target(req.target, (req.line, req.column))
    listed = None
    if req.listed is not None:
        bad = [label for label in req.listed if len(label) != 1]
        if bad:
            raise _CompileError("listed states must be single qubits",
                                req.line, req.column)
        listed = tuple(Qubit(*_KET_AMPLITUDES[label]) for label in req.listed)
    if candidate is not None:
        need = 4 if target.kind == "cnot" else 2
        if candidate.shape[0] != need:
            raise _CompileError("candidate dimension does not match the target",
                                req.line, req.column)
    tgt = req.target
    if tgt.kind == "unequal":
        target_name = f"unequal(a={_fmt_scalar(tgt.a)}, b={_fmt_scalar(tgt.b)})"
    elif tgt.kind == "hybrid":
        target_name = f"hybrid(lambda={tgt.lam!r})"
    else:
        target_name = tgt.kind
    return CompiledMachine(m.name, "universal", machine=spec, target=target,
                           target_name=target_name, family=req.family,
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
    from .states import listed_set, named_set
    if c.listed is not None:
        return listed_set(list(c.listed), name="list")
    return named_set(c.family, opts.samples, opts.seed)


def check(c: CompiledMachine, opts: CheckOptions = CheckOptions()
          ) -> tuple[Verdict, str]:
    """Decide a compiled machine's requirement and narrate the outcome.

    Dispatches to the verifier: basis requirements compare the extended
    machine against its own declared rules, machine targets sweep the
    family for the worst deviation from the ideal two-register output,
    and gate targets check the candidate against the per-state rules.
    Returns the verdict and a deterministic multi-line report.
    """
    from .verifier import check_cnot_universal, check_universal_gate
    if c.requirement == "basis":
        verdict = _check_basis(c, opts)
    elif c.is_gate_check:
        states = _family_states(c, opts)
        if c.target.kind == "cnot":
            verdict = check_cnot_universal(c.candidate, states, tol=opts.tolerance)
        else:
            verdict = check_universal_gate(c.candidate, c.target, states,
                                           tol=opts.tolerance)
    else:
        verdict = _check_machine_target(c, opts)
    return verdict, _report(c, verdict)


def _check_basis(c: CompiledMachine, opts: CheckOptions) -> Verdict:
    import numpy as np
    from .states import Qubit, complement
    from .verifier import Verdict, machine_output
    worst = 0.0
    for basis, out in (("0", c.machine.out0), ("1", c.machine.out1)):
        q = Qubit(*_KET_AMPLITUDES[basis])
        actual = machine_output(c.machine, q)
        overlap_sq = abs(np.vdot(out, actual)) ** 2
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
    import numpy as np
    from .states import complement
    from .verifier import Verdict, machine_deviations
    states = _family_states(c, opts)
    deviations = machine_deviations(c.machine, c.target, states)
    i = int(np.argmax(deviations))
    worst, worst_q = float(deviations[i]), states.pair(i)[0]
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
        fam = "list(" + ", ".join(ket_notation(q, digits=4) for q in c.listed) + ")"
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
# whole-unit convenience and pretty-printing


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
    tokens, diags = tokenize(SourceUnit(text, origin))
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


def _fmt_term(term: Term, first: bool) -> str:
    c = term.coefficient
    negative = c.real < 0.0 or (c.real == 0.0 and c.imag < 0.0)
    if negative:
        c = -c
    body = "" if c == 1.0 else _fmt_scalar(c)
    kets = "".join(f"|{label}>" for label in term.kets)
    if first:
        return ("-" if negative else "") + body + kets
    return ("- " if negative else "+ ") + body + kets


def pretty_print(ast: Ast) -> str:
    """Render a tree back to canonical source text.

    The output reparses to a tree equal to the input (positions are
    ignored in comparisons), which is the round-trip property the
    corpus tests rely on.
    """
    out: list[str] = []
    for m in ast.machines:
        out.append(f"machine {m.name};")
        for rule in m.rules:
            expr = " ".join(_fmt_term(t, i == 0)
                            for i, t in enumerate(rule.expr.terms))
            out.append(f"on |{rule.basis}> -> {expr};")
        if m.extension is not None:
            if m.extension.kind == "hybrid":
                out.append(f"extend hybrid(lambda={m.extension.lam!r});")
            else:
                out.append(f"extend {m.extension.kind};")
        if m.candidate is not None:
            c = m.candidate
            if c.name == "UG":
                out.append(f"candidate UG(a={_fmt_scalar(c.a)}, b={_fmt_scalar(c.b)});")
            else:
                out.append(f"candidate {c.name};")
        if m.requirement is not None:
            req = m.requirement
            if req.kind == "basis":
                out.append("require basis;")
            else:
                if req.listed is not None:
                    fam = "list(" + ", ".join(f"|{x}>" for x in req.listed) + ")"
                else:
                    fam = req.family
                t = req.target
                if t.kind == "unequal":
                    tgt = f"unequal(a={_fmt_scalar(t.a)}, b={_fmt_scalar(t.b)})"
                elif t.kind == "hybrid":
                    tgt = f"hybrid(lambda={t.lam!r})"
                else:
                    tgt = t.kind
                out.append(f"require universal on {fam} target {tgt};")
    return "\n".join(out) + "\n"
