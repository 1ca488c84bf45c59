"""Parsing and canonical serialization of the three file formats."""

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from looptest import casegen
from looptest.dsl import (
    ParseError,
    _Cursor,
    _ExprParser,
    _is_id,
    _positions,
    parse_ltl,
    parse_model,
    parse_reqs,
    parse_suite,
    serialize_model,
    serialize_reqs,
    serialize_suite,
    tokenize,
)
from looptest.ltl import (
    And,
    Atom,
    Finally,
    Formula,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    Until,
    to_expr,
)
from looptest.model import (
    Binary,
    BoolDomain,
    ClosedLoopModel,
    Cond,
    Expr,
    IntRange,
    Lit,
    ModelError,
    Node,
    Ref,
    Unary,
    UpdateBlock,
    Variable,
    VarKind,
    validate_model,
)
from looptest.runner import execute_suite
from looptest.sim import TestCase, TestSuite
from looptest.testgen import GeneratorConfig, enumerate_goals, generate_suite

import oracles
import randgen


CANONICAL = """model sample;
nondet press[2] : bool;
input level : int 0..3 = 0;
input lamp : enum { off, on } = off;
output motor : bool = false;
plant {
  level = press[0] && level < 3 ? level + 1 : level;
  lamp = level > 0 ? on : off;
}
controller {
  motor = lamp == on;
}
"""


def test_parse_canonical_model():
    m = parse_model(CANONICAL)
    assert m.name == "sample"
    names = [v.name for v in m.variables]
    assert names == ["press.0", "press.1", "level", "lamp", "motor"]
    assert m.variables[0].kind is VarKind.NONDET
    assert m.variables[2].domain == IntRange(0, 3)
    assert m.variables[3].init == "off"
    assert len(m.plant.assignments) == 2
    assert len(m.controller.assignments) == 1


def test_serialize_is_a_fixpoint_on_canonical_text():
    m = parse_model(CANONICAL)
    assert serialize_model(m) == CANONICAL


def test_comments_and_whitespace_are_ignored():
    text = "// heading\nmodel m; // trailing\nnondet u : bool;\n" \
           "plant{}controller{}\n// tail"
    m = parse_model(text)
    assert m.name == "m"
    assert serialize_model(m) == "model m;\nnondet u : bool;\n" \
                                 "plant {\n}\ncontroller {\n}\n"


def test_array_declarations_flatten_and_collapse():
    text = "model m;\ninput door[3] : bool = true;\nplant {\n}\ncontroller {\n}\n"
    m = parse_model(text)
    assert [v.name for v in m.variables] == ["door.0", "door.1", "door.2"]
    assert all(v.init is True for v in m.variables)
    assert serialize_model(m) == text


def test_partial_array_runs_cannot_serialize():
    m = ClosedLoopModel(
        name="m",
        variables=[Variable("door.1", VarKind.INPUT, BoolDomain(), False)],
        plant=UpdateBlock([]),
        controller=UpdateBlock([]),
    )
    with pytest.raises(ValueError):
        serialize_model(m)


def test_reserved_words_rejected_as_names():
    with pytest.raises(ParseError) as err:
        parse_model("model m;\ninput test : bool = false;\n"
                    "plant {\n}\ncontroller {\n}\n")
    assert "reserved" in str(err.value)
    with pytest.raises(ParseError):
        parse_model("model m;\ninput x : enum { suite } = suite;\n"
                    "plant {\n}\ncontroller {\n}\n")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_model("model m;\ninput x : bool = maybe;\n"
                    "plant {\n}\ncontroller {\n}\n")
    assert err.value.line == 2
    assert err.value.col == 18


def test_unknown_identifier_in_expression():
    with pytest.raises(ParseError) as err:
        parse_model("model m;\nnondet u : bool;\ninput x : bool = false;\n"
                    "plant {\n  x = ghost;\n}\ncontroller {\n}\n")
    assert "unknown identifier" in str(err.value)


def test_trailing_input_rejected():
    with pytest.raises(ParseError) as err:
        parse_model(CANONICAL + "extra")
    assert "trailing" in str(err.value)


# pieces the scanner treats specially: blanks, comments, the dashed
# expectation tags, and letters and digits outside ASCII
_SCAN_PIECES = ("\t", "\r", "\n", " ", "//", "/", "expect", "expect-pass",
                "-fail", "-", "é", "²", "½", "٣", "_", "x", "7", "->", "==",
                "|", "||", "&", ".", "..", "$", "#")


def _kind(tok):
    if not tok:
        return "eof"
    if "0" <= tok[0] <= "9":
        return "int"
    return "id" if _is_id(tok) else "punct"


def _scan(scanner, text):
    """Each token as (kind, text, line, col), or the error's text.  tokenize
    gives token texts: the kind comes from the first character, and the
    position from dsl._positions, which works it out for a parse error."""
    try:
        tokens = scanner(text)
    except ParseError as err:
        return str(err)
    if scanner is not tokenize:
        return [tuple(tok) for tok in tokens]
    return [(_kind(tok), tok, *position)
            for tok, position in zip(tokens, _positions(text))]


def test_tokenize_matches_the_reference_scanner():
    rng = random.Random(11)
    sources = []
    for study in (casegen.elevator(3), casegen.pnp(3)):
        sources += [study.model_text.split("\n"), study.reqs_text.split("\n")]
    texts = []
    for _ in range(3000):
        lines = rng.choice(sources)
        start = rng.randrange(len(lines))
        text = "\n".join(lines[start:start + rng.randint(1, 4)])
        for _ in range(rng.randint(1, 3)):
            at = rng.randint(0, len(text))
            if rng.random() < 0.3:
                text = text[:at] + text[at + rng.randint(1, 4):]
            else:
                text = text[:at] + rng.choice(_SCAN_PIECES) + text[at:]
        texts.append(text)
    for _ in range(1000):
        texts.append("".join(rng.choice(_SCAN_PIECES)
                             for _ in range(rng.randint(0, 12))))
    outcomes = set()
    for text in texts:
        got = _scan(tokenize, text)
        assert got == _scan(oracles.reference_tokenize, text), repr(text)
        outcomes.add(type(got))
    assert outcomes == {list, str}


@pytest.mark.parametrize("digit", ["²", "٣"])
def test_non_ascii_digits_are_stray_in_models_and_requirements(digit):
    # int() raised a bare ValueError on '²' and read '٣' as 3
    with pytest.raises(ParseError) as err:
        parse_model(f"model m;\ninput x : int 0..9 = {digit};\n"
                    "plant {\n}\ncontroller {\n}\n")
    assert str(err.value) == f"line 2:22: stray character {digit!r}"
    with pytest.raises(ParseError) as err:
        parse_reqs(f"R : level == {digit};\n", reqs_model())
    assert str(err.value) == f"line 1:14: stray character {digit!r}"


_COUNTER = ("model m;\nnondet n : int 0..10;\ninput x : bool = false;\n"
            "plant {\n  x = n > 0;\n}\ncontroller {\n}\n")


@pytest.mark.parametrize("text", ["1_0", "+3", "٣"])
def test_suite_values_are_ascii_integers(text):
    # int() reads each of these, as 10, 3 and 3
    with pytest.raises(ParseError) as err:
        parse_suite(f"suite n\ntest a length 1\n{text}\n",
                    parse_model(_COUNTER))
    assert str(err.value) == f"line 3:1: bad value {text!r} for 'n'"


@pytest.mark.parametrize("text", ["1_0", "+3", "٣"])
def test_suite_lengths_are_ascii_integers(text):
    rows = "0\n" * int(text)
    with pytest.raises(ParseError) as err:
        parse_suite(f"suite n\ntest a length {text}\n{rows}",
                    parse_model(_COUNTER))
    assert str(err.value) == "line 2:1: test length must be a positive integer"


def test_model_roundtrip_fuzz():
    rng = random.Random(40)
    for i in range(150):
        m = randgen.random_model(rng, name=f"fuzz{i}")
        text = serialize_model(m)
        back = parse_model(text)
        assert back.name == m.name
        assert back.variables == m.variables
        assert back.plant == m.plant
        assert back.controller == m.controller
        assert serialize_model(back) == text


EXPR_MODEL = """model exprs;
input i : int 0..3;
input a[2] : int 0..3;
input b : bool;
input c : bool;
plant {
  i = %s;
}
controller {
}
"""

_BOOL_HEADS = {"&&", "||", "->", "==", "!=", "<", "<=", ">", ">=", "u!"}


def _fold_negated_literals(expr):
    """The tree the parser reads back from expr's text: minus applied to an
    int literal is read as the negative literal."""
    if isinstance(expr, Unary):
        operand = _fold_negated_literals(expr.operand)
        if expr.op == "-" and isinstance(operand, Lit) \
                and type(operand.value) is int:
            return Lit(-operand.value)
        return Unary(expr.op, operand)
    if isinstance(expr, Binary):
        return Binary(expr.op, _fold_negated_literals(expr.lhs),
                      _fold_negated_literals(expr.rhs))
    if isinstance(expr, Cond):
        return Cond(*map(_fold_negated_literals,
                         (expr.cond, expr.then, expr.other)))
    return expr


def _shapes(expr, out):
    """Collect (parent head, operand slot, child head) of every edge; a
    head is the operator, "u" + op for unary ones, "?" for conditionals."""
    def head(node):
        if isinstance(node, Unary):
            return "u" + node.op
        if isinstance(node, Binary):
            return node.op
        return "?" if isinstance(node, Cond) else "leaf"

    if isinstance(expr, Unary):
        kids = (expr.operand,)
    elif isinstance(expr, Binary):
        kids = (expr.lhs, expr.rhs)
    elif isinstance(expr, Cond):
        kids = (expr.cond, expr.then, expr.other)
    else:
        kids = ()
    for slot, kid in enumerate(kids):
        out.add((head(expr), slot, head(kid)))
        _shapes(kid, out)


def test_expression_roundtrip_fuzz():
    rng = random.Random(43)
    shapes = set()
    for i in range(400):
        expr = randgen.random_expr(rng, ["i", "a.0", "a.1"], ["b", "c"],
                                   ("int", "bool")[i % 2], 5)
        _shapes(expr, shapes)
        text = EXPR_MODEL % expr
        back = parse_model(text)
        assert back.plant.assignments[0].expr == \
            _fold_negated_literals(expr), str(expr)
        canonical = serialize_model(back)
        assert serialize_model(parse_model(canonical)) == canonical
    binary = ("->", "||", "&&", "==", "!=", "<", "<=", ">", ">=",
              "+", "-", "*", "/", "mod")
    slots = [(head, s) for head in binary + ("?",) for s in (0, 1)] \
        + [("?", 2), ("u-", 0), ("u!", 0)]
    missing = [slot for slot in slots if slot + ("?",) not in shapes]
    assert missing == [], "no conditional drawn as operand " + str(missing)
    assert ("->", 0, "->") in shapes and ("->", 1, "->") in shapes
    assert any(p == "==" and kid in _BOOL_HEADS for p, _, kid in shapes)


def _subtrees(roots, kind):
    """Every node reached from roots through children of class kind."""
    nodes, stack = [], list(roots)
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(kid for kid in node._key() if isinstance(kid, kind))
    return nodes


def _node_tables():
    """The table of every node class, each once."""
    tables, classes = [], [Node]
    while classes:
        cls = classes.pop()
        classes += cls.__subclasses__()
        if "_table" in vars(cls):
            tables.append(cls._table)
    return tables


def _token_spans(text):
    """(start, end) offsets of text's tokens, the end of input left out."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    spans = []
    for _, word, line, col in oracles.reference_tokenize(text)[:-1]:
        start = line_starts[line - 1] + col - 1
        spans.append((start, start + len(word)))
    return spans


# digest of the outcomes below; any change to what a text parses to, or to
# an error's class, message, line or column, changes it
_GOLDEN_PARSES = \
    "b7f6ef8463591f089f08777abf274147c8d12b21b8283dab066fc39d369d7b47"


def test_mutated_case_study_texts_parse_as_pinned():
    """3,000 seeded token mutations of the elevator and pnp n=3 model and
    requirement texts, the requirements parsed against the unmutated model.
    Each outcome is the canonical text and a count of distinct nodes, or
    the error with its position.  Requirements count their formula nodes
    by identity (equal subformulas are one object), models their
    expression nodes by structure, which holds whether or not equal
    subexpressions are shared."""
    rng = random.Random(14)
    sources = []
    for study in (casegen.elevator(3), casegen.pnp(3)):
        for text in (study.model_text, study.reqs_text):
            spans = _token_spans(text)
            pool = [text[a:b] for a, b in spans] + ["²", "$", "//", "-", "("]
            sources.append((text, spans, pool, study.model))
    digest = hashlib.sha256()
    for i in range(3000):
        text, spans, pool, model = sources[i % 4]
        k = rng.randrange(len(spans) - 1)
        (start, end), (after, stop) = spans[k], spans[k + 1]
        piece = rng.choice(pool)
        text = (text[:start] + text[end:],  # delete, replace, insert, swap
                text[:start] + piece + text[end:],
                text[:start] + piece + " " + text[start:],
                text[:start] + text[after:stop] + text[end:after]
                + text[start:end] + text[stop:])[rng.randrange(4)]
        try:
            if i % 2 == 0:
                parsed = parse_model(text)
                roots = [a.expr for block in (parsed.plant, parsed.controller)
                         for a in block.assignments]
                outcome = (serialize_model(parsed),
                           len(set(_subtrees(roots, Expr))))
            else:
                reqs = parse_reqs(text, model)
                nodes = _subtrees([r.formula for r in reqs], Formula)
                outcome = (serialize_reqs(reqs), len(set(map(id, nodes))))
        except ModelError as err:
            outcome = (type(err).__name__, str(err))
        digest.update(repr(outcome).encode())
    assert digest.hexdigest() == _GOLDEN_PARSES


# --------------------------------------------------------------------------
# Requirements


def reqs_model():
    return parse_model(CANONICAL)


def test_parse_reqs_shapes():
    m = reqs_model()
    text = ("R1 : G (press[0] -> F motor);\n"
            "R2 expect-fail : !motor U lamp == on;\n"
            "R3 expect-pass : X X level > 0;\n")
    reqs = parse_reqs(text, m)
    assert [r.rid for r in reqs] == ["R1", "R2", "R3"]
    assert reqs[0].expectation is None
    assert reqs[1].expectation == "expect-fail"
    assert isinstance(reqs[0].formula, Globally)
    assert isinstance(reqs[0].formula.operand, Implies)
    assert isinstance(reqs[1].formula, Until)
    assert isinstance(reqs[1].formula.lhs, Not)
    assert isinstance(reqs[2].formula, Next)
    assert serialize_reqs(reqs) == text


def test_until_and_implication_associate_right():
    m = reqs_model()
    reqs = parse_reqs("R : motor U motor U motor;\n"
                      "S : motor -> motor -> motor;\n", m)
    u = reqs[0].formula
    assert isinstance(u, Until) and isinstance(u.rhs, Until)
    s = reqs[1].formula
    assert isinstance(s, Implies) and isinstance(s.rhs, Implies)


def test_formula_parens_group_formulas():
    m = reqs_model()
    reqs = parse_reqs("R : (motor U lamp == on) U press[1];\n", m)
    u = reqs[0].formula
    assert isinstance(u, Until) and isinstance(u.lhs, Until)


def test_parse_ltl_single_formula():
    m = reqs_model()
    f = parse_ltl("X G (press[0] -> F motor)", m)
    assert isinstance(f, Next)
    assert isinstance(f.operand, Globally)
    body = f.operand.operand
    assert isinstance(body, Implies) and isinstance(body.rhs, Finally)
    assert str(f) == "X G (press[0] -> F motor)"


def test_parse_ltl_rejects_trailing_and_unknown_names():
    m = reqs_model()
    with pytest.raises(ParseError, match="after formula"):
        parse_ltl("G motor; R2 : F motor", m)
    with pytest.raises(ParseError):
        parse_ltl("G engine", m)


def test_atoms_must_be_boolean():
    m = reqs_model()
    with pytest.raises(ParseError) as err:
        parse_reqs("R : G level;\n", m)
    assert "boolean" in str(err.value)
    # arithmetic works inside comparisons without parentheses
    reqs = parse_reqs("R : G level + 1 > 0;\n", m)
    assert str(reqs[0].formula) == "G level + 1 > 0"
    # but a parenthesized arithmetic atom is read as a formula group
    with pytest.raises(ParseError):
        parse_reqs("R : (level + 1) > 0;\n", m)


ATOM_MODEL = """model atoms;
nondet f[3] : bool;
input b : bool = false;
input n : int 0..3 = 0;
input a[3] : int 0..3 = 0;
input c : enum { red, green } = red;
plant {
}
controller {
}
"""

_B, _F1, _F2 = Atom(Ref("b")), Atom(Ref("f.1")), Atom(Ref("f.2"))


# each atom text and the formula it parses to, or the column and message of
# its error in parse_ltl, and in parse_reqs where the message differs
@pytest.mark.parametrize("text, want", [
    ("b", _B), ("f[2]", _F2), ("f [ 2 ]", _F2),
    ("a[2] == 1", Atom(Binary("==", Ref("a.2"), Lit(1)))),
    ("a[2] + 1 > 2",
     Atom(Binary(">", Binary("+", Ref("a.2"), Lit(1)), Lit(2)))),
    ("n mod 2 == 0",
     Atom(Binary("==", Binary("mod", Ref("n"), Lit(2)), Lit(0)))),
    ("b == f[0]", Atom(Binary("==", Ref("b"), Ref("f.0")))),
    ("f[1] != b", Atom(Binary("!=", Ref("f.1"), Ref("b")))),
    ("c == green", Atom(Binary("==", Ref("c"), Lit("green")))),
    ("b && f[1]", And(_B, _F1)), ("b -> b", Implies(_B, _B)),
    ("true", Atom(Lit(True))), ("!b", Not(_B)), ("X b", Next(_B)),
    ("(b)", _B), ("b U f[1]", Until(_B, _F1)),
    ("a[", (3, "array index must be an integer literal")),
    ("a[b]", (3, "array index must be an integer literal")),
    ("b[", (3, "array index must be an integer literal")),
    ("a[9]", (1, "unknown identifier 'a[9]'")),
    ("b[0]", (1, "unknown identifier 'b[0]'")),
    ("mod", (1, "unknown identifier 'mod'")),
    ("red", (1, "atoms must be boolean")),
    ("n", (1, "atoms must be boolean")),
    ("a[2]", (1, "atoms must be boolean")),
    ("X n", (3, "atoms must be boolean")),
    ("b == 1", (1, "type mismatch: '==' compares bool with int")),
    ("b < f[0]", (1, "type mismatch: '<' compares ints, got bool and bool")),
    ("n + b > 0",
     (1, "type mismatch: '+' needs int operands, got int and bool")),
    ("", (1, "expected an expression, got 'end of input'",
          "expected an expression, got ';'")),
    ("f[2]]", (5, "unexpected ']' after formula", "expected ';', got ']'")),
    ("b ? b : b", (3, "unexpected '?' after formula",
                   "expected ';', got '?'")),
])
def test_atoms_parse_to_the_same_nodes_and_errors(text, want):
    """Atoms that read a variable alone, the comparisons next to them and
    their errors: parse_ltl on the text, and parse_reqs on it as the second
    requirement of a file, give the same node or the same error."""
    model = parse_model(ATOM_MODEL)
    outcomes = []
    for parse, source, line, shift in (
            (parse_ltl, text, 1, 0),
            (lambda *args: parse_reqs(*args)[1].formula,
             f"Q : G b;\nR : {text};\n", 2, 4)):
        try:
            outcomes.append(parse(source, model))
        except ParseError as err:
            outcomes.append((err.line, err.col, str(err)))
        if isinstance(want, Formula):
            assert outcomes[-1] is want, (text, outcomes[-1])
        else:
            col, message, *other = want
            message = other[0] if other and shift else message
            assert outcomes[-1] == (line, col + shift, f"line {line}:"
                                    f"{col + shift}: {message}"), text


def test_atoms_read_names_no_model_file_declares_as_before():
    """A model built in code may name variables true, true.0 or f.b: an
    atom still reads true as the literal and f[b] as a bad index."""
    model = ClosedLoopModel(
        name="odd", variables=tuple(
            Variable(name, VarKind.INPUT, BoolDomain(), False)
            for name in ("true", "true.0", "f.b")),
        plant=UpdateBlock(), controller=UpdateBlock())
    assert parse_ltl("true", model) is Atom(Lit(True))
    for text, message in (
            ("true[0]", "line 1:5: unexpected '[' after formula"),
            ("f[b]", "line 1:3: array index must be an integer literal")):
        with pytest.raises(ParseError) as caught:
            parse_ltl(text, model)
        assert str(caught.value) == message


def test_parse_reqs_shares_equal_subformulas():
    study = casegen.build("pnp", 3)
    reqs = parse_reqs(study.reqs_text, study.model)
    nodes = _subtrees([req.formula for req in reqs], Formula)
    assert len(nodes) == 831
    assert len(set(nodes)) == 240
    assert len({id(node) for node in nodes}) == 240
    # the expressions of atoms too: distinct objects are distinct trees
    nodes = _subtrees([req.formula for req in reqs], Node)
    assert len(nodes) == 1188
    assert len(set(nodes)) == len({id(node) for node in nodes}) == 263
    reqs = parse_reqs("R : G (level + 1 == 2 -> F level + 1 > 1);\n"
                      "S : level == 1 U level + 1 > 1;\n", reqs_model())
    nodes = _subtrees([req.formula for req in reqs], Node)
    assert len(nodes) == 26
    assert len(set(nodes)) == len({id(node) for node in nodes}) == 14


def test_parse_model_shares_equal_subexpressions():
    model = parse_model(casegen.pnp(3).model_text)
    nodes = _subtrees([a.expr for block in (model.plant, model.controller)
                       for a in block.assignments], Expr)
    assert len(nodes) == 682
    assert len(set(nodes)) == len({id(node) for node in nodes}) == 193
    domains = {id(v.domain) for v in model.variables}
    assert len(domains) == len({v.domain for v in model.variables}) == 5


def test_bool_and_int_literals_are_never_shared():
    text = ("model m;\ninput b : bool = false;\ninput x : int 0..1 = 0;\n"
            "plant {\n  b = x == 1 || b == true;\n  x = b ? 1 : 0;\n}\n"
            "controller {\n}\n")
    model = parse_model(text)
    one, true = (model.plant.assignments[0].expr.lhs.rhs,
                 model.plant.assignments[0].expr.rhs.rhs)
    assert (type(one.value), type(true.value)) == (int, bool)
    assert model.plant.assignments[1].expr.then is one
    reqs = parse_reqs("R : b == true && x == 1 && X x == 1;\n", model)
    atoms = _subtrees([reqs[0].formula], Formula)
    values = {id(atom.expr.rhs): atom.expr.rhs.value for atom in atoms
              if hasattr(atom, "expr")}
    assert sorted(map(repr, values.values())) == ["1", "True"]


def test_nodes_built_outside_the_parser_are_the_parsed_ones():
    study = casegen.pnp(3)
    model = parse_model(study.model_text)
    for built, parsed in zip(study.model.variables, model.variables):
        assert built.domain is parsed.domain
    exprs = [[a.expr for block in (m.plant, m.controller)
              for a in block.assignments] for m in (study.model, model)]
    assert len(exprs[0]) == len(exprs[1]) > 0
    assert all(a is b for a, b in zip(*exprs))
    reqs = parse_reqs(study.reqs_text, model)
    assert all(a.formula is b.formula for a, b in zip(study.reqs, reqs))
    # the negated goals, and ltl.to_expr, build what a model file spells so
    model = parse_model(CANONICAL.replace(
        "motor = lamp == on;",
        "motor = !(lamp == on && level > 0);\n  motor = level > 0 || motor;"))
    negated, joined = (a.expr for a in model.controller.assignments)
    goals = enumerate_goals(model, parse_reqs(
        "R : G (lamp == on && level > 0 -> F (level > 0 || motor));\n", model),
        "all")
    assert [goal.predicate for goal in goals].count(negated) == 1
    formula = parse_ltl("level > 0 || motor", model)
    assert isinstance(formula, Or) and to_expr(formula) is joined


# Run in a fresh interpreter, so that no object another test keeps alive
# holds a node of these parses.
_DRAIN = """
import gc, json, sys, weakref
sys.path[:0] = sys.argv[1:3]
from looptest import casegen, model
from looptest.dsl import parse_model, parse_reqs
from test_dsl import _node_tables, _subtrees
study = casegen.pnp(3)
texts = (study.model_text, study.reqs_text)
del study
gc.collect()

def live():
    return {id(node) for table in _node_tables()
            for node in (e() for e in table.values()) if node is not None}

def entries():
    return sum(map(len, _node_tables()))

def parse():
    m = parse_model(texts[0])
    return m, parse_reqs(texts[1], m)

def nodes(parsed):
    m, reqs = parsed
    roots = [v.domain for v in m.variables] + [r.formula for r in reqs] + [
        a.expr for block in (m.plant, m.controller) for a in block.assignments]
    return _subtrees(roots, model.Node)

before = live()
size = entries()
first, second = parse(), parse()
out = {"nodes": len(nodes(first)),
       "shared": sum(a is b for a, b in zip(nodes(first), nodes(second)))}
refs = [weakref.ref(node) for node in nodes(first) if id(node) not in before]
del first, second
gc.collect()
out["theirs"] = len(refs)
out["alive"] = sum(ref() is not None for ref in refs)
out["live_after"] = len(live() - before)
sizes = {entries() - size}
for _ in range(1000):
    parsed = parse()
    del parsed
    sizes.add(entries() - size)
for i in range(10000):  # distinct leaves, each dropped at once
    model.Lit(i)
sizes.add(entries() - size)
out["sizes"] = sorted(sizes)
out["keys"] = len(model._owners) - entries()
print(json.dumps(out))
"""


def test_parses_share_nodes_and_the_table_drains():
    root = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", _DRAIN, str(root.parent / "src"), str(root)],
        capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    # two parses share every node
    assert out["shared"] == out["nodes"] > 1000
    # once both are dropped, no node they built is alive, so the tables
    # hold no live entry of theirs
    assert out["theirs"] > 400
    assert out["alive"] == out["live_after"] == 0
    # nor any dead entry: after 1,000 parse/drop cycles, and 10,000 leaves
    # built and dropped, the tables are back to their size before the
    # parses, and every reverse entry has its table entry
    assert out["sizes"] == [0] and out["keys"] == 0


def test_duplicate_requirement_ids_rejected():
    m = reqs_model()
    with pytest.raises(ParseError) as err:
        parse_reqs("R : motor;\nR : !motor;\n", m)
    assert "duplicate requirement id" in str(err.value)


def test_reqs_roundtrip_fuzz():
    rng = random.Random(41)
    for i in range(100):
        m = randgen.random_model(rng, name=f"fr{i}")
        atoms = randgen.model_atoms(m)
        reqs = [
            __import__("looptest").ltl.Requirement(
                rid=f"R{j}",
                formula=randgen.random_formula(rng, atoms, depth=3),
                expectation=rng.choice((None, "expect-pass", "expect-fail")))
            for j in range(3)
        ]
        text = serialize_reqs(reqs)
        back = parse_reqs(text, m)
        assert [r.formula for r in back] == [r.formula for r in reqs], text
        assert [r.expectation for r in back] == [r.expectation for r in reqs]
        assert serialize_reqs(back) == text


# --------------------------------------------------------------------------
# Suites


def test_parse_suite_normalizes_column_order():
    m = reqs_model()
    text = ("suite press[1],press[0]\n"
            "test a length 2\n"
            "1,0\n"
            "0,1\n")
    suite = parse_suite(text, m)
    assert suite.variables == ("press.0", "press.1")
    assert suite.cases[0].rows == ((False, True), (True, False))
    # canonical text puts columns back into declaration order
    assert serialize_suite(suite) == ("suite press[0],press[1]\n"
                                      "test a length 2\n"
                                      "0,1\n"
                                      "1,0\n")


def test_suite_roundtrip_fixpoint():
    m = reqs_model()
    suite = TestSuite(
        variables=("press.0", "press.1"),
        cases=(
            TestCase("t0", ("press.0", "press.1"), ((True, True),)),
            TestCase("t1", ("press.0", "press.1"),
                     ((False, False), (True, False))),
        ))
    text = serialize_suite(suite)
    assert parse_suite(text, m) == suite
    assert serialize_suite(parse_suite(text, m)) == text


def test_suite_header_must_match_model():
    m = reqs_model()
    with pytest.raises(ParseError) as err:
        parse_suite("suite press[0]\ntest a length 1\n0\n", m)
    assert "do not match" in str(err.value)


def test_suite_rejects_duplicate_ids_and_bad_values():
    m = reqs_model()
    base = "suite press[0],press[1]\n"
    with pytest.raises(ParseError) as err:
        parse_suite(base + "test a length 1\n0,1\ntest a length 1\n0,1\n", m)
    assert "duplicate test id" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_suite(base + "test a length 1\n0,2\n", m)
    assert "bad value" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_suite(base + "test a length 2\n0,1\n", m)
    assert "missing value rows" in str(err.value)
    with pytest.raises(ParseError):
        parse_suite(base + "test a length 0\n", m)


def test_suite_value_texts_cover_every_domain_kind():
    text = ("model kinds;\n"
            "nondet flag : bool;\n"
            "nondet amount : int -2..1;\n"
            "nondet mode : enum { slow, fast };\n"
            "input x : bool = false;\n"
            "plant {\n  x = flag;\n}\ncontroller {\n}\n")
    m = parse_model(text)
    suite_text = ("suite flag,amount,mode\n"
                  "test t length 2\n"
                  "0,-2,slow\n"
                  "1,1,fast\n")
    suite = parse_suite(suite_text, m)
    assert suite.cases[0].rows == ((False, -2, "slow"), (True, 1, "fast"))
    assert serialize_suite(suite) == suite_text


def _deep(terms: int):
    """A model assigning a chain of terms ||-terms and a requirement G of
    another.  900 terms nest 899 deep, within the interpreter's default
    recursion limit of 1,000; 3,000 and 30,000 nest past it."""
    chain = " || ".join(["u"] * terms)
    model = parse_model(f"""model deep;
nondet u : bool;
output y : bool = false;
plant {{
}}
controller {{
  y = {chain};
}}
""")
    reqs = parse_reqs(f"R expect-pass : G ({chain.replace('u', 'y')});\n",
                      model)
    return model, reqs, chain


def test_deep_expressions_and_formulas_print_and_reparse():
    model, reqs, chain = _deep(900)
    expr = model.controller.assignments[0].expr
    assert str(expr) == chain
    assert parse_model(serialize_model(model)).controller.assignments[0] \
        .expr is expr
    text = serialize_reqs(reqs)
    assert text == f"R expect-pass : G ({chain.replace('u', 'y')});\n"
    assert parse_reqs(text, model)[0].formula is reqs[0].formula


@pytest.mark.parametrize("terms", [900, 3000, 30000])
def test_deep_requirements_generate_and_execute(terms):
    model, reqs, chain = _deep(terms)
    suite, report = generate_suite(model, reqs, GeneratorConfig(max_len=3))
    origins = [out.origin for out in report.outcomes]
    assert origins[-2:] == [f"sub R {chain.replace('u', 'y')}",
                            f"sub R !({chain.replace('u', 'y')})"]
    assert [(out.status, out.test_id) for out in report.outcomes] == [
        ("COVERED", "t0"), ("COVERED", "t1"), ("SUBSUMED", "t1"),
        ("SUBSUMED", "t0")]
    assert execute_suite(model, reqs, suite).text() == (
        "REQ R VIOLATED test=t0\n#0 loop-start u=0 y=0\n"
        "violated=1 passed=0 errored=0\n")


def _spine(node, step) -> list:
    """The nodes down a chain, each the step of the one before, and the
    node it ends in."""
    nodes = [node]
    while step(nodes[-1]) is not None:
        nodes.append(step(nodes[-1]))
    return nodes


@pytest.mark.parametrize("op, cls", [("U", Until), ("->", Implies)])
def test_deep_right_associative_formula_chains_parse(op, cls):
    # one parse per chain link would recurse 3,000 deep
    m = reqs_model()
    reqs = parse_reqs(f"R : {f' {op} '.join(['motor'] * 3000)};\n", m)
    spine = _spine(reqs[0].formula,
                   lambda f: f.rhs if isinstance(f, cls) else None)
    assert len(spine) == 3000
    assert all(f.lhs is spine[-1] for f in spine[:-1])
    assert parse_reqs(serialize_reqs(reqs), m)[0].formula is reqs[0].formula


def test_deep_prefix_formula_stacks_parse():
    m = reqs_model()
    ops = ("X", "F", "G", "!") * 750
    formula = parse_reqs(f"R : {' '.join(ops)} motor;\n", m)[0].formula
    spine = _spine(formula, lambda f: getattr(f, "operand", None))
    assert [type(f) for f in spine[:4]] == [Next, Finally, Globally, Not]
    assert [type(f) for f in spine[:-1]] == [Next, Finally, Globally,
                                             Not] * 750
    assert str(spine[-1]) == "motor"


def test_deep_model_chains_and_prefix_stacks_parse():
    m = parse_model(f"""model stacks;
input b : bool = false;
input x : int -9..9 = 0;
output c : bool = false;
output y : int -9..9 = 0;
plant {{
  b = {' -> '.join(['b'] * 3000)};
  x = {'- ' * 3001}x;
}}
controller {{
  c = {'! ' * 3000}b;
  y = {'- ' * 3000}5 + {'- ' * 2999}5;
}}
""")
    implies, minus = (a.expr for a in m.plant.assignments)
    spine = _spine(implies, lambda e: e.rhs if isinstance(e, Binary) else None)
    assert len(spine) == 3000 and {e.op for e in spine[:-1]} == {"->"}
    spine = _spine(minus, lambda e: e.operand if isinstance(e, Unary) else None)
    assert len(spine) == 3002 and {e.op for e in spine[:-1]} == {"-"}
    nots, folded = (a.expr for a in m.controller.assignments)
    spine = _spine(nots, lambda e: e.operand if isinstance(e, Unary) else None)
    assert len(spine) == 3001 and {e.op for e in spine[:-1]} == {"!"}
    # a minus folds into the literal below it, one at a time
    assert folded is Binary("+", Lit(5), Lit(-5))


def test_deep_conditional_else_chains_parse():
    # one parse per else-arm would recurse 3,000 deep
    arms = " : ".join(f"b ? {i}" for i in range(3000))
    m = parse_model(f"""model arms;
input b : bool = false;
output x : int 0..2999 = 0;
plant {{
}}
controller {{
  x = {arms} : x;
}}
""")
    assert validate_model(m) == []
    expr = m.controller.assignments[0].expr
    spine = _spine(expr, lambda e: e.other if isinstance(e, Cond) else None)
    assert len(spine) == 3001 and spine[-1] is Ref("x")
    assert all(e.cond is Ref("b") for e in spine[:-1])
    assert [e.then for e in spine[:-1]] == [Lit(i) for i in range(3000)]
    assert parse_model(serialize_model(m)).controller.assignments[0] \
        .expr is expr


@pytest.mark.parametrize("text, want", [
    ("a ? 1 : 2", Cond(Ref("a"), Lit(1), Lit(2))),
    ("a ? 1 : b ? 2 : 3",
     Cond(Ref("a"), Lit(1), Cond(Ref("b"), Lit(2), Lit(3)))),
    ("a ? b ? 1 : 2 : 3",
     Cond(Ref("a"), Cond(Ref("b"), Lit(1), Lit(2)), Lit(3))),
    ("a ? b ? 1 : 2 : b ? 3 : 4",
     Cond(Ref("a"), Cond(Ref("b"), Lit(1), Lit(2)),
          Cond(Ref("b"), Lit(3), Lit(4)))),
    ("(a ? 1 : 2) + 3", Binary("+", Cond(Ref("a"), Lit(1), Lit(2)), Lit(3))),
])
def test_conditional_chains_nest_as_before(text, want):
    assert _ExprParser(_Cursor(text), {"a", "b"}, {}).parse() is want


@pytest.mark.parametrize("text, want", [
    ("-5", Lit(-5)), ("--5", Lit(5)), ("- - -5", Lit(-5)),
    ("-(-5)", Lit(5)), ("!-5", Unary("!", Lit(-5))),
    ("-!5", Unary("-", Unary("!", Lit(5)))),
    ("-x", Unary("-", Ref("x"))), ("--x", Unary("-", Unary("-", Ref("x")))),
    ("-true", Unary("-", Lit(True))),
    ("- -5 - -5", Binary("-", Lit(5), Lit(-5))),
])
def test_negated_literals_fold_as_before(text, want):
    assert _ExprParser(_Cursor(text), {"x"}, {}).parse() is want
