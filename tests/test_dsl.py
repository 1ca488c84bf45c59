"""Parsing and canonical serialization of the three file formats."""

import random

import pytest

from looptest import casegen
from looptest.dsl import (
    ParseError,
    parse_ltl,
    parse_model,
    parse_reqs,
    parse_suite,
    serialize_model,
    serialize_reqs,
    serialize_suite,
    tokenize,
)
from looptest.ltl import Finally, Globally, Implies, Next, Not, Until
from looptest.model import (
    Binary,
    BoolDomain,
    ClosedLoopModel,
    Cond,
    IntRange,
    Lit,
    Unary,
    UpdateBlock,
    Variable,
    VarKind,
)
from looptest.sim import TestCase, TestSuite

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


def _scan(scanner, text):
    try:
        return [tuple(tok) for tok in scanner(text)]
    except ParseError as err:
        return str(err)


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


def test_parse_reqs_shares_equal_subformulas():
    study = casegen.build("pnp", 3)
    reqs = parse_reqs(study.reqs_text, study.model)
    nodes = []
    stack = [req.formula for req in reqs]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(getattr(node, part) for part in ("operand", "lhs", "rhs")
                     if hasattr(node, part))
    assert len(nodes) == 831
    assert len(set(nodes)) == 240
    assert len({id(node) for node in nodes}) == 240


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
