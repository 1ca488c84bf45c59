"""Parsing and printing for model files, requirement files, and suite files.

Three formats live here:

  .clm  closed-loop model: declarations plus plant{} and controller{} blocks
  .ltl  requirements: `<id> [expect-pass|expect-fail] : <formula>;`
  .cts  test suites: a line-oriented matrix format

Parsing is tolerant about whitespace; serializers emit one canonical form, so
serialize(parse(text)) is the canonical spelling of any accepted input and is
a fixpoint of the round trip.

Models and requirements share one regular-expression scanner, whose tokens
are their texts (a line and column are worked out again only for an error),
and one precedence-climbing routine, _climb, which each parser calls with
its syntax's printing table (model._PREC, the ltl infix levels).  Every node
a parse call builds goes through one table of that call, so equal subtrees
of one file are one object.  Integer literals are ASCII digits in all three
formats.
"""

from __future__ import annotations

import re
from itertools import islice

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
    _PREC,
    _type_of,
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


_PUNCT = frozenset(
    "-> == != <= >= && || .. + - * / < > = ! ( ) { } [ ] , : ; ?".split())

# Each match skips blanks and // comments, then takes one token: an integer
# (ASCII digits), an identifier, punctuation (the two-character operators
# of _PUNCT first) or any other character, which tokenize rejects as stray;
# at the end it takes "", the end of input.  An identifier starts with a
# letter or '_' (str.isalpha) and goes on with letters, digits or '_'
# (str.isalnum); [^\W\d] also admits numeric characters such as '²', which
# tokenize rejects too.
_SCAN = re.compile(r"(?:[ \t\r\n]|//[^\n]*)*([0-9]+|expect-(?:pass|fail)|[^\W\d]\w*|"
                   + "".join(re.escape(p) + "|" for p in sorted(_PUNCT) if len(p) > 1)
                   + r".|\Z)")

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
    """Split source text into token texts, dropping blanks and // comments,
    and ending in "" for the end of input.  A token's kind is its first
    character's: an ASCII digit starts an integer, a letter or '_' an
    identifier; anything else is punctuation."""
    tokens = _SCAN.findall(text)
    if len(tokens) > 1 and not tokens[-2]:  # trailing blanks give a second ""
        tokens.pop()
    stray = [word for word in set(tokens) if word and not (
        "0" <= word[0] <= "9" or _is_id(word) or word in _PUNCT)]
    if stray:
        at = min(map(tokens.index, stray))
        raise ParseError(f"stray character {tokens[at][0]!r}",
                         *next(_positions(text, at)))
    return tokens


def _positions(text: str, first: int = 0):
    """Yield the 1-based (line, column) of each token of text from token
    number first on, scanning it again: positions are needed only for
    errors.  A comment on the last line takes no column from the end."""
    for match in islice(_SCAN.finditer(text), first, None):
        start = match.start(1)
        line_start = text.rfind("\n", 0, start) + 1
        if not match.group(1) and "//" in text[line_start:]:
            start = text.index("//", line_start)
        yield text.count("\n", 0, start) + 1, start - line_start + 1


def _is_id(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _shared(nodes: dict, key: tuple, *parts):
    """key[0](*parts), built once per table.  key is the class, its leaf
    values (a literal's value with its class, so true and 1 stay apart) and
    the ids of its children, which are shared already: a node equal to one
    built before is found by one dict lookup, with no tree walk."""
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = key[0](*parts)
    return node


class _Cursor:
    """One parse call: the token texts with one-token lookahead, and the
    table through which every node built is shared."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.nodes = {}

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> str:
        tok = self.tokens[self.pos]
        if tok != text:
            self.error(f"expected {text!r}, got {tok or 'end of input'!r}")
        self.pos += 1
        return tok

    def expect_id(self, what: str = "identifier") -> str:
        tok = self.tokens[self.pos]
        if not _is_id(tok):
            self.error(f"expected {what}, got {tok or 'end of input'!r}")
        self.pos += 1
        return tok

    def error(self, message: str, at: int | None = None):
        """Raise at token at, by default the next one."""
        at = self.pos if at is None else at
        raise ParseError(message, *next(_positions(self.text, at)))


# --------------------------------------------------------------------------
# Expression parsing, shared by model bodies and requirement atoms


def _parse_int(cur: _Cursor) -> int:
    sign = -1 if cur.accept("-") else 1
    if not cur.peek().isdigit():
        cur.error("expected an integer")
    return sign * int(cur.next(), 10)


def _indexed(cur: _Cursor, name: str) -> str:
    """name, read already, and an index if one follows: door[2] flattens
    to door.2."""
    if cur.accept("["):
        if not cur.peek().isdigit():
            cur.error("array index must be an integer literal")
        name = f"{name}.{cur.next()}"
        cur.expect("]")
    return name


def _climb(cur: _Cursor, operand, infix: dict, level: int):
    """Precedence climbing: an operand, then every operator of infix that
    binds at level or tighter, so one call per operand, not per level.

    infix maps an operator's text to (its level, the level its right
    operand binds at, head), larger levels binding tighter; the node is
    head[0](*head[1:], lhs, rhs), keyed in the table by head and the ids.
    """
    lhs = operand()
    while True:
        op = infix.get(cur.tokens[cur.pos])
        if op is None or op[0] < level:
            return lhs
        cur.pos += 1
        rhs = _climb(cur, operand, infix, op[1])
        head = op[2]
        lhs = _shared(cur.nodes, head + (id(lhs), id(rhs)), *head[1:], lhs, rhs)


# the binary operators at their printing levels, -> associating right and
# the rest left; ?: is parsed on its own
_BINARY = {op: (prec, prec if op == "->" else prec + 1, (Binary, op))
           for op, prec in _PREC.items() if op != "?"}


class _ExprParser:
    """Recursive descent over the expression grammar.  Binary operators
    bind at their levels in model._PREC, the table the printer reads.  An
    identifier names a variable of var_names or an enum label of labels.
    """

    def __init__(self, cur: _Cursor, var_names, labels):
        self.cur = cur
        self.var_names = var_names
        self.labels = labels

    def parse(self) -> Expr:
        """A whole expression: binary operators, then an optional ?: chain."""
        guard = _climb(self.cur, self.operand, _BINARY, _PREC["->"])
        if self.cur.accept("?"):
            then = self.parse()
            self.cur.expect(":")
            other = self.parse()
            return _shared(self.cur.nodes, (Cond, id(guard), id(then), id(other)),
                           guard, then, other)
        return guard

    def operand(self) -> Expr:
        """A literal, a name, a parenthesized expression or ! or - before
        an operand."""
        cur = self.cur
        tok = cur.tokens[cur.pos]
        if tok.isdigit():
            cur.pos += 1
            return _shared(cur.nodes, (Lit, int, int(tok, 10)), int(tok, 10))
        if tok == "true" or tok == "false":
            cur.pos += 1
            return _shared(cur.nodes, (Lit, bool, tok == "true"), tok == "true")
        if _is_id(tok):
            at = cur.pos
            cur.pos += 1
            name = _indexed(cur, tok)
            if name in self.var_names:
                return _shared(cur.nodes, (Ref, name), name)
            if name in self.labels:
                return _shared(cur.nodes, (Lit, str, name), name)
            cur.error(f"unknown identifier '{ref_text(name)}'", at)
        if tok == "(":
            cur.pos += 1
            inner = self.parse()
            cur.expect(")")
            return inner
        if tok != "!" and tok != "-":
            cur.error(f"expected an expression, got {tok or 'end of input'!r}")
        cur.pos += 1
        operand = self.operand()
        # fold a negated literal so -5 parses as the literal it prints as
        if tok == "-" and isinstance(operand, Lit) and type(operand.value) is int:
            return _shared(cur.nodes, (Lit, int, -operand.value), -operand.value)
        return _shared(cur.nodes, (Unary, tok, id(operand)), tok, operand)


# --------------------------------------------------------------------------
# Model files


def parse_model(text: str) -> ClosedLoopModel:
    """Parse a .clm model file.  Structural only; run validate_model after.

    Equal subexpressions and domains of one file are one object.
    """
    cur = _Cursor(text)
    cur.expect("model")
    name = cur.expect_id("model name")
    cur.expect(";")

    variables = []
    var_names = set()
    labels = set()
    while cur.peek() in _DECL_KEYWORDS:
        kind = _DECL_KEYWORDS[cur.next()]
        at = cur.pos
        base = cur.expect_id("variable name")
        if base in _RESERVED:
            cur.error(f"'{base}' is a reserved word", at)
        count = None
        if cur.accept("["):
            if not cur.peek().isdigit():
                cur.error("array size must be an integer literal")
            count = int(cur.next(), 10)
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

    parser = _ExprParser(cur, var_names, labels)
    blocks = {}
    for block_name in ("plant", "controller"):
        cur.expect(block_name)
        cur.expect("{")
        assignments = []
        while not cur.accept("}"):
            target = _indexed(cur, cur.expect_id())
            cur.expect("=")
            expr = parser.parse()
            cur.expect(";")
            assignments.append(Assignment(target, expr))
        blocks[block_name] = UpdateBlock(tuple(assignments))
    if cur.peek():
        cur.error(f"unexpected trailing input {cur.peek()!r}")
    return ClosedLoopModel(name=name, variables=tuple(variables),
                           plant=blocks["plant"], controller=blocks["controller"])


def _parse_domain(cur: _Cursor):
    if cur.accept("bool"):
        return _shared(cur.nodes, (BoolDomain,))
    if cur.accept("int"):
        lo = _parse_int(cur)
        cur.expect("..")
        hi = _parse_int(cur)
        return _shared(cur.nodes, (IntRange, lo, hi), lo, hi)
    if cur.accept("enum"):
        cur.expect("{")
        names = []
        while True:
            at = cur.pos
            label = cur.expect_id("enum label")
            if label in _RESERVED:
                cur.error(f"'{label}' is a reserved word", at)
            names.append(label)
            if not cur.accept(","):
                break
        cur.expect("}")
        return _shared(cur.nodes, (EnumDomain, tuple(names)), names)
    cur.error("expected a domain: bool, int lo..hi, or enum {...}")


def _parse_init(cur: _Cursor, domain):
    at = cur.pos
    if isinstance(domain, BoolDomain):
        if cur.accept("true"):
            return True
        if cur.accept("false"):
            return False
        cur.error("bool init must be true or false")
    if isinstance(domain, IntRange):
        return _parse_int(cur)
    label = cur.expect_id("enum label")
    if label not in domain.labels:
        cur.error(f"label '{label}' not in the enum", at)
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
            decl += f" = {Lit(v.init)}"
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

    Equal subformulas and subexpressions of one file are one object.

    Note on grouping: parentheses at formula level group formulas, so an
    atom may not start with '(' (write `a + 1 == 2`, which parses fine, not
    `(a + 1) == 2`).
    """
    cur = _Cursor(text)
    parser = _LtlParser(cur, model)
    reqs = []
    seen = set()
    while cur.peek():
        at = cur.pos
        rid = cur.expect_id("requirement name")
        if rid in seen:
            cur.error(f"duplicate requirement id '{rid}'", at)
        seen.add(rid)
        expectation = None
        if cur.peek() in ("expect-pass", "expect-fail"):
            expectation = cur.next()
        cur.expect(":")
        formula = parser.parse()
        cur.expect(";")
        reqs.append(ltl.Requirement(rid=rid, formula=formula,
                                    expectation=expectation))
    return reqs


def parse_ltl(text: str, model: ClosedLoopModel) -> ltl.Formula:
    """Parse a single formula, with nothing after it.

    Same grammar as the formula part of a requirements file, including the
    note on parentheses in parse_reqs.
    """
    cur = _Cursor(text)
    formula = _LtlParser(cur, model).parse()
    if cur.peek():
        cur.error(f"unexpected '{cur.peek()}' after formula")
    return formula


# the formula operators at their printing levels
_INFIX = {cls.symbol: (cls.level, cls.level if cls.right else cls.level + 1, (cls,))
          for cls in ltl._Infix.__subclasses__()}
_PREFIX = {cls.symbol: cls for cls in ltl._Prefix.__subclasses__()}


class _LtlParser:
    """Formula grammar: the infix operators of ltl at their levels (-> loosest,
    then ||, U, &&), then the prefix operators ! X F G and atoms.
    """

    def __init__(self, cur: _Cursor, model: ClosedLoopModel):
        self.cur = cur
        self.model = model
        self.labels = enum_label_map(model)
        self.atoms = _ExprParser(cur, {v.name for v in model.variables},
                                 self.labels)

    def parse(self) -> ltl.Formula:
        # every infix level is at least 1, so level 0 admits them all
        return _climb(self.cur, self.unary, _INFIX, 0)

    def unary(self) -> ltl.Formula:
        cur = self.cur
        tok = cur.peek()
        if tok in _PREFIX:
            cur.next()
            operand = self.unary()
            return _shared(cur.nodes, (_PREFIX[tok], id(operand)), operand)
        if tok == "(":
            cur.next()
            inner = self.parse()
            cur.expect(")")
            return inner
        at = cur.pos
        expr = _climb(cur, self.atoms.operand, _BINARY, _PREC["=="])
        key = (ltl.Atom, id(expr))
        if key not in cur.nodes:  # an atom met before passed its check
            self._check_bool(expr, at)
        return _shared(cur.nodes, key, expr)

    def _check_bool(self, expr: Expr, at: int):
        diags = []
        t = _type_of(expr, self.model, self.labels, diags, "atom")
        if diags:
            self.cur.error(diags[0].message, at)
        if t != "bool":
            self.cur.error("atoms must be boolean", at)


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
        digits = parts[3]
        length = int(digits) if digits.isascii() and digits.isdigit() else 0
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
