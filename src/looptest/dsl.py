"""Parsing and printing for model files, requirement files, and suite files.

Three formats live here:

  .clm  closed-loop model: declarations plus plant{} and controller{} blocks
  .ltl  requirements: `<id> [expect-pass|expect-fail] : <formula>;`
  .cts  test suites: a line-oriented matrix format

Parsing is tolerant about whitespace; serializers emit one canonical form, so
serialize(parse(text)) is the canonical spelling of any accepted input and is
a fixpoint of the round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .model import (
    Assignment,
    Binary,
    BoolDomain,
    ClosedLoopModel,
    Cond,
    EnumDomain,
    Expr,
    IntRange,
    Lit,
    ModelError,
    Ref,
    Unary,
    UpdateBlock,
    VarKind,
    Variable,
    enum_label_map,
    ref_text,
    validate_model,
)
from . import ltl
from .sim import TestCase, TestSuite, parse_value, value_text


class ParseError(ModelError):
    """Input text rejected, with a 1-based source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "id" | "int" | "punct" | "eof"
    text: str
    line: int
    col: int


_TWO_CHAR = ("->", "==", "!=", "<=", ">=", "&&", "||", "..")
_ONE_CHAR = "+-*/<>=!(){}[],:;?"

_DECL_KEYWORDS = {
    "nondet": VarKind.NONDET,
    "input": VarKind.INPUT,
    "output": VarKind.OUTPUT,
    "plantvar": VarKind.PLANT,
    "ctrlvar": VarKind.CTRL,
}

# Words the grammars claim for themselves; none may name a variable or label.
_RESERVED = frozenset(_DECL_KEYWORDS) | {
    "model", "plant", "controller", "bool", "int", "enum", "true", "false",
    "mod", "U", "X", "F", "G", "suite", "test", "length",
}


def tokenize(text: str) -> list:
    """Split source text into tokens, dropping whitespace and // comments."""
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(Token("int", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            # expectation tags contain a dash
            if word == "expect" and text[i:i + 5] in ("-pass", "-fail"):
                word += text[i:i + 5]
                i += 5
            tokens.append(Token("id", word, line, col))
            col += len(word)
            continue
        two = text[i:i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"stray character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Cursor:
    """Token stream with one-token lookahead."""

    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            got = tok.text or "end of input"
            raise ParseError(f"expected {text!r}, got {got!r}", tok.line, tok.col)
        return self.next()

    def expect_id(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "id":
            got = tok.text or "end of input"
            raise ParseError(f"expected {what}, got {got!r}", tok.line, tok.col)
        return self.next()

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)


# --------------------------------------------------------------------------
# Expression parsing, shared by model bodies and requirement atoms


def _parse_int(cur: _Cursor) -> int:
    sign = -1 if cur.accept("-") else 1
    tok = cur.peek()
    if tok.kind != "int":
        cur.error("expected an integer")
    cur.next()
    return sign * int(tok.text, 10)


def _parse_ref_name(cur: _Cursor) -> str:
    """A possibly indexed name: door[2] flattens to door.2."""
    tok = cur.expect_id()
    name = tok.text
    if cur.accept("["):
        idx = cur.peek()
        if idx.kind != "int":
            cur.error("array index must be an integer literal")
        cur.next()
        cur.expect("]")
        name = f"{name}.{idx.text}"
    return name


class _ExprParser:
    """Recursive descent over the expression grammar.

    resolve(name, token) turns an identifier into a Ref or enum-label Lit.
    """

    def __init__(self, cur: _Cursor, resolve: Callable[[str, Token], Expr]):
        self.cur = cur
        self.resolve = resolve

    def parse(self) -> Expr:
        return self.conditional()

    def conditional(self) -> Expr:
        guard = self.implication()
        if self.cur.accept("?"):
            then = self.conditional()
            self.cur.expect(":")
            other = self.conditional()
            return Cond(guard, then, other)
        return guard

    def implication(self) -> Expr:
        lhs = self.disjunction()
        if self.cur.accept("->"):
            return Binary("->", lhs, self.implication())
        return lhs

    def disjunction(self) -> Expr:
        lhs = self.conjunction()
        while self.cur.accept("||"):
            lhs = Binary("||", lhs, self.conjunction())
        return lhs

    def conjunction(self) -> Expr:
        lhs = self.equality()
        while self.cur.accept("&&"):
            lhs = Binary("&&", lhs, self.equality())
        return lhs

    def equality(self) -> Expr:
        lhs = self.relational()
        while True:
            if self.cur.accept("=="):
                lhs = Binary("==", lhs, self.relational())
            elif self.cur.accept("!="):
                lhs = Binary("!=", lhs, self.relational())
            else:
                return lhs

    def relational(self) -> Expr:
        lhs = self.additive()
        while True:
            op = self.cur.peek().text
            if op in ("<", "<=", ">", ">=") and self.cur.peek().kind == "punct":
                self.cur.next()
                lhs = Binary(op, lhs, self.additive())
            else:
                return lhs

    def additive(self) -> Expr:
        lhs = self.multiplicative()
        while True:
            if self.cur.accept("+"):
                lhs = Binary("+", lhs, self.multiplicative())
            elif self.cur.accept("-"):
                lhs = Binary("-", lhs, self.multiplicative())
            else:
                return lhs

    def multiplicative(self) -> Expr:
        lhs = self.unary()
        while True:
            if self.cur.accept("*"):
                lhs = Binary("*", lhs, self.unary())
            elif self.cur.accept("/"):
                lhs = Binary("/", lhs, self.unary())
            elif self.cur.at("mod"):
                self.cur.next()
                lhs = Binary("mod", lhs, self.unary())
            else:
                return lhs

    def unary(self) -> Expr:
        if self.cur.accept("!"):
            return Unary("!", self.unary())
        if self.cur.at("-"):
            tok = self.cur.peek()
            self.cur.next()
            operand = self.unary()
            # fold a negated literal so -5 parses as the literal it prints as
            if isinstance(operand, Lit) and isinstance(operand.value, int) \
                    and not isinstance(operand.value, bool):
                return Lit(-operand.value)
            return Unary("-", operand)
        return self.primary()

    def primary(self) -> Expr:
        tok = self.cur.peek()
        if tok.kind == "int":
            self.cur.next()
            return Lit(int(tok.text, 10))
        if tok.text == "(":
            self.cur.next()
            inner = self.parse()
            self.cur.expect(")")
            return inner
        if tok.kind == "id":
            if tok.text == "true":
                self.cur.next()
                return Lit(True)
            if tok.text == "false":
                self.cur.next()
                return Lit(False)
            name = _parse_ref_name(self.cur)
            return self.resolve(name, tok)
        self.cur.error(f"expected an expression, got {tok.text or 'end of input'!r}")


def _make_resolver(var_names, labels) -> Callable[[str, Token], Expr]:
    def resolve(name: str, tok: Token) -> Expr:
        if name in var_names:
            return Ref(name)
        if name in labels:
            return Lit(name)
        raise ParseError(f"unknown identifier '{ref_text(name)}'", tok.line, tok.col)
    return resolve


# --------------------------------------------------------------------------
# Model files


def parse_model(text: str) -> ClosedLoopModel:
    """Parse a .clm model file.  Structural only; run validate_model after."""
    cur = _Cursor(tokenize(text))
    cur.expect("model")
    name = cur.expect_id("model name").text
    cur.expect(";")

    variables = []
    var_names = set()
    labels = set()
    while cur.peek().kind == "id" and cur.peek().text in _DECL_KEYWORDS:
        kind = _DECL_KEYWORDS[cur.next().text]
        name_tok = cur.peek()
        base = cur.expect_id("variable name").text
        if base in _RESERVED:
            raise ParseError(f"'{base}' is a reserved word",
                             name_tok.line, name_tok.col)
        count = None
        if cur.accept("["):
            size = cur.peek()
            if size.kind != "int":
                cur.error("array size must be an integer literal")
            cur.next()
            count = int(size.text, 10)
            if count < 1:
                cur.error("array size must be positive")
            cur.expect("]")
        cur.expect(":")
        domain = _parse_domain(cur)
        if isinstance(domain, EnumDomain):
            labels.update(domain.labels)
        init = None
        if cur.accept("="):
            init = _parse_init(cur, domain)
        cur.expect(";")
        new_names = [base] if count is None else [f"{base}.{i}" for i in range(count)]
        for n in new_names:
            variables.append(Variable(n, kind, domain, init))
            var_names.add(n)

    resolve = _make_resolver(var_names, labels)
    blocks = {}
    for block_name in ("plant", "controller"):
        cur.expect(block_name)
        cur.expect("{")
        assignments = []
        while not cur.accept("}"):
            target = _parse_ref_name(cur)
            cur.expect("=")
            expr = _ExprParser(cur, resolve).parse()
            cur.expect(";")
            assignments.append(Assignment(target, expr))
        blocks[block_name] = UpdateBlock(tuple(assignments))
    tok = cur.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return ClosedLoopModel(name=name, variables=tuple(variables),
                           plant=blocks["plant"], controller=blocks["controller"])


def _parse_domain(cur: _Cursor):
    if cur.accept("bool"):
        return BoolDomain()
    if cur.accept("int"):
        lo = _parse_int(cur)
        cur.expect("..")
        hi = _parse_int(cur)
        return IntRange(lo, hi)
    if cur.accept("enum"):
        cur.expect("{")
        names = []
        while True:
            tok = cur.peek()
            label = cur.expect_id("enum label").text
            if label in _RESERVED:
                raise ParseError(f"'{label}' is a reserved word",
                                 tok.line, tok.col)
            names.append(label)
            if not cur.accept(","):
                break
        cur.expect("}")
        return EnumDomain(names)
    cur.error("expected a domain: bool, int lo..hi, or enum {...}")


def _parse_init(cur: _Cursor, domain):
    tok = cur.peek()
    if isinstance(domain, BoolDomain):
        if cur.accept("true"):
            return True
        if cur.accept("false"):
            return False
        cur.error("bool init must be true or false")
    if isinstance(domain, IntRange):
        return _parse_int(cur)
    label = cur.expect_id("enum label").text
    if label not in domain.labels:
        raise ParseError(f"label '{label}' not in the enum", tok.line, tok.col)
    return label


def load_model(path: str) -> ClosedLoopModel:
    """Parse and validate a model file; raises on any diagnostic."""
    with open(path, "r", encoding="utf-8") as handle:
        model = parse_model(handle.read())
    diags = validate_model(model)
    if diags:
        listing = "; ".join(str(d) for d in diags)
        raise ParseError(f"invalid model: {listing}")
    return model


def _decl_runs(model: ClosedLoopModel):
    """Group consecutive flattened array elements back into array declarations."""
    runs = []
    i = 0
    variables = model.variables
    while i < len(variables):
        v = variables[i]
        base, dot, idx = v.name.rpartition(".")
        if dot and idx.isdigit():
            if idx != "0":
                raise ValueError(
                    f"cannot serialize: '{v.name}' is an array element without "
                    "a full 0-based run")
            count = 1
            while i + count < len(variables):
                nxt = variables[i + count]
                if (nxt.name == f"{base}.{count}" and nxt.kind is v.kind
                        and nxt.domain == v.domain and nxt.init == v.init):
                    count += 1
                else:
                    break
            runs.append((v, base, count))
            i += count
        else:
            runs.append((v, v.name, None))
            i += 1
    return runs


def _init_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _domain_text(domain) -> str:
    if isinstance(domain, BoolDomain):
        return "bool"
    if isinstance(domain, IntRange):
        return f"int {domain.lo}..{domain.hi}"
    return "enum { " + ", ".join(domain.labels) + " }"


def serialize_model(model: ClosedLoopModel) -> str:
    """Canonical text for a model."""
    lines = [f"model {model.name};"]
    for v, shown, count in _decl_runs(model):
        decl = f"{v.kind.value} {shown}"
        if count is not None:
            decl += f"[{count}]"
        decl += f" : {_domain_text(v.domain)}"
        if v.init is not None:
            decl += f" = {_init_text(v.init)}"
        lines.append(decl + ";")
    for block_name, block in (("plant", model.plant),
                              ("controller", model.controller)):
        lines.append(block_name + " {")
        for asn in block.assignments:
            lines.append(f"  {ref_text(asn.target)} = {asn.expr};")
        lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Requirement files


def parse_reqs(text: str, model: ClosedLoopModel) -> list:
    """Parse a .ltl requirements file against a model's declarations.

    Note on grouping: parentheses at formula level group formulas, so an
    atom may not start with '(' (write `a + 1 == 2`, which parses fine, not
    `(a + 1) == 2`).
    """
    cur = _Cursor(tokenize(text))
    var_names = {v.name for v in model.variables}
    labels = set(enum_label_map(model))
    resolve = _make_resolver(var_names, labels)
    reqs = []
    seen = set()
    while cur.peek().kind != "eof":
        tok = cur.expect_id("requirement name")
        rid = tok.text
        if rid in seen:
            raise ParseError(f"duplicate requirement id '{rid}'", tok.line, tok.col)
        seen.add(rid)
        expectation = None
        if cur.peek().text in ("expect-pass", "expect-fail"):
            expectation = cur.next().text
        cur.expect(":")
        formula = _LtlParser(cur, resolve, model).parse()
        cur.expect(";")
        reqs.append(ltl.Requirement(rid=rid, formula=formula,
                                    expectation=expectation))
    return reqs


def parse_ltl(text: str, model: ClosedLoopModel) -> ltl.Formula:
    """Parse a single formula, with nothing after it.

    Same grammar as the formula part of a requirements file, including the
    note on parentheses in parse_reqs.
    """
    cur = _Cursor(tokenize(text))
    var_names = {v.name for v in model.variables}
    labels = set(enum_label_map(model))
    formula = _LtlParser(cur, _make_resolver(var_names, labels), model).parse()
    if cur.peek().kind != "eof":
        cur.error(f"unexpected '{cur.peek().text}' after formula")
    return formula


class _LtlParser:
    """Formula grammar: -> loosest, then ||, U, &&, then unary X F G U !."""

    def __init__(self, cur: _Cursor, resolve, model: ClosedLoopModel):
        self.cur = cur
        self.resolve = resolve
        self.model = model
        self.labels = enum_label_map(model)

    def parse(self) -> ltl.Formula:
        return self.implication()

    def implication(self) -> ltl.Formula:
        lhs = self.disjunction()
        if self.cur.accept("->"):
            return ltl.Implies(lhs, self.implication())
        return lhs

    def disjunction(self) -> ltl.Formula:
        lhs = self.until()
        while self.cur.accept("||"):
            lhs = ltl.Or(lhs, self.until())
        return lhs

    def until(self) -> ltl.Formula:
        lhs = self.conjunction()
        if self.cur.peek().kind == "id" and self.cur.peek().text == "U":
            self.cur.next()
            return ltl.Until(lhs, self.until())
        return lhs

    def conjunction(self) -> ltl.Formula:
        lhs = self.unary()
        while self.cur.accept("&&"):
            lhs = ltl.And(lhs, self.unary())
        return lhs

    def unary(self) -> ltl.Formula:
        tok = self.cur.peek()
        if tok.text == "!" and tok.kind == "punct":
            self.cur.next()
            return ltl.Not(self.unary())
        if tok.kind == "id" and tok.text in ("X", "F", "G"):
            self.cur.next()
            ctor = {"X": ltl.Next, "F": ltl.Finally, "G": ltl.Globally}[tok.text]
            return ctor(self.unary())
        if tok.text == "(":
            self.cur.next()
            inner = self.parse()
            self.cur.expect(")")
            return inner
        return self.atom()

    def atom(self) -> ltl.Formula:
        tok = self.cur.peek()
        expr = _ExprParser(self.cur, self.resolve).equality()
        self._check_bool(expr, tok)
        return ltl.Atom(expr)

    def _check_bool(self, expr: Expr, tok: Token):
        from .model import _type_of
        diags = []
        t = _type_of(expr, self.model, self.labels, diags, "atom")
        if diags:
            raise ParseError(diags[0].message, tok.line, tok.col)
        if t != "bool":
            raise ParseError("atoms must be boolean", tok.line, tok.col)


def serialize_reqs(reqs: list) -> str:
    """Canonical text for a requirements list."""
    lines = []
    for req in reqs:
        tag = f" {req.expectation}" if req.expectation else ""
        lines.append(f"{req.rid}{tag} : {req.formula};")
    return "\n".join(lines) + "\n"


def load_reqs(path: str, model: ClosedLoopModel) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_reqs(handle.read(), model)


# --------------------------------------------------------------------------
# Suite files


def parse_suite(text: str, model: ClosedLoopModel) -> TestSuite:
    """Parse a .cts suite file.  Values are checked against the model."""
    nondet = model.nondet_variables()
    decl_names = tuple(v.name for v in nondet)
    domains = {v.name: v.domain for v in nondet}

    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    def fail(lineno: int, message: str):
        raise ParseError(message, lineno, 1)

    if not lines or not lines[0].startswith("suite"):
        fail(1, "suite files start with a 'suite' header line")
    header = lines[0][len("suite"):].strip()
    file_names = tuple(p.strip() for p in header.split(",")) if header else ()
    shown_names = tuple(ref_text(n) for n in decl_names)
    if sorted(file_names) != sorted(shown_names):
        fail(1, f"suite variables {list(file_names)} do not match the model's "
                f"nondet variables {list(shown_names)}")

    order = [file_names.index(n) for n in shown_names]
    cases = []
    seen_ids = set()
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        parts = line.split()
        if len(parts) != 4 or parts[0] != "test" or parts[2] != "length":
            fail(i + 1, "expected a 'test <id> length <N>' line")
        tid = parts[1]
        if tid in seen_ids:
            fail(i + 1, f"duplicate test id '{tid}'")
        seen_ids.add(tid)
        try:
            length = int(parts[3], 10)
        except ValueError:
            length = 0
        if length < 1:
            fail(i + 1, "test length must be a positive integer")
        rows = []
        for j in range(length):
            lineno = i + 2 + j
            if lineno - 1 >= len(lines):
                fail(lineno, f"test '{tid}' is missing value rows")
            cells = [c.strip() for c in lines[lineno - 1].split(",")]
            if len(cells) != len(file_names):
                fail(lineno, f"expected {len(file_names)} values, got {len(cells)}")
            row = []
            for name, pos in zip(decl_names, order):
                value = parse_value(domains[name], cells[pos])
                if value is None and cells[pos] != "":
                    fail(lineno, f"bad value {cells[pos]!r} for '{name}'")
                if value is None:
                    fail(lineno, f"missing value for '{name}'")
                row.append(value)
            rows.append(tuple(row))
        cases.append(TestCase(tid=tid, variables=decl_names, rows=tuple(rows)))
        i += 1 + length
    return TestSuite(variables=decl_names, cases=tuple(cases))


def serialize_suite(suite: TestSuite) -> str:
    """Canonical text for a suite: LF endings, no trailing whitespace."""
    lines = ["suite " + ",".join(ref_text(n) for n in suite.variables)]
    for case in suite.cases:
        lines.append(f"test {case.tid} length {case.length}")
        for row in case.rows:
            lines.append(",".join(value_text(v) for v in row))
    return "\n".join(lines) + "\n"


def load_suite(path: str, model: ClosedLoopModel) -> TestSuite:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_suite(handle.read(), model)
