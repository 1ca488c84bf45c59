"""Expression evaluation, validation, and single-step semantics."""

import pytest

from looptest.ltl import Atom, Or
from looptest.model import (
    Assignment,
    Binary,
    BoolDomain,
    ClosedLoopModel,
    Cond,
    Diagnostic,
    DomainViolation,
    Expr,
    EnumDomain,
    EvalError,
    IntRange,
    Lit,
    Ref,
    Unary,
    UpdateBlock,
    Variable,
    VarKind,
    eval_expr,
    init_state,
    ref_text,
    referenced_names,
    step,
    validate_model,
)


def test_bool_domain():
    d = BoolDomain()
    assert list(d.values()) == [False, True]
    assert d.first() is False
    assert d.contains(True)
    assert not d.contains(1)  # plain ints are not bools here


def test_int_range():
    d = IntRange(-1, 2)
    assert list(d.values()) == [-1, 0, 1, 2]
    assert d.first() == -1
    assert d.contains(0)
    assert not d.contains(3)
    assert not d.contains(True)


def test_enum_domain():
    d = EnumDomain(("idle", "busy"))
    assert list(d.values()) == ["idle", "busy"]
    assert d.first() == "idle"
    assert d.contains("busy")
    assert not d.contains("gone")


def test_eval_arithmetic_and_comparison():
    env = {"a": 7, "b": -3}
    assert eval_expr(Binary("+", Ref("a"), Ref("b")), env) == 4
    assert eval_expr(Binary("*", Ref("a"), Lit(2)), env) == 14
    assert eval_expr(Binary("<", Ref("b"), Lit(0)), env) is True
    assert eval_expr(Binary(">=", Ref("a"), Lit(7)), env) is True
    assert eval_expr(Binary("!=", Ref("a"), Ref("b")), env) is True
    assert eval_expr(Unary("-", Ref("a")), env) == -7


def test_division_is_floored():
    # mirrors Python's // and mod on negatives: -7 / 2 == -4, -7 mod 2 == 1
    env = {}
    assert eval_expr(Binary("/", Lit(-7), Lit(2)), env) == -4
    assert eval_expr(Binary("mod", Lit(-7), Lit(2)), env) == 1
    assert eval_expr(Binary("/", Lit(7), Lit(-2)), env) == -4


def test_division_by_zero_raises():
    with pytest.raises(EvalError):
        eval_expr(Binary("/", Lit(1), Lit(0)), {})
    with pytest.raises(EvalError):
        eval_expr(Binary("mod", Lit(1), Lit(0)), {})


def test_boolean_short_circuit():
    # the right side would blow up on the unknown name if it were evaluated
    env = {"a": False}
    assert eval_expr(Binary("&&", Ref("a"), Ref("missing")), env) is False
    env = {"a": True}
    assert eval_expr(Binary("||", Ref("a"), Ref("missing")), env) is True
    assert eval_expr(Binary("->", Unary("!", Ref("a")), Ref("missing")), env) is True


def test_conditional_picks_one_branch():
    env = {"c": True}
    assert eval_expr(Cond(Ref("c"), Lit(1), Ref("missing")), env) == 1
    env = {"c": False}
    assert eval_expr(Cond(Ref("c"), Ref("missing"), Lit(2)), env) == 2


def test_structural_equality_and_hash():
    a = Binary("&&", Ref("x"), Lit(True))
    b = Binary("&&", Ref("x"), Lit(True))
    assert a == b
    assert hash(a) == hash(b)
    assert a != Binary("||", Ref("x"), Lit(True))
    # bool and int literals stay distinct even though True == 1 in Python
    assert Lit(True) != Lit(1)


def test_equal_nodes_are_one_object():
    assert Binary("+", Ref("x"), Lit(1)) is Binary("+", Ref("x"), Lit(1))
    assert Cond(Ref("c"), Lit(0), Lit(1)) is Cond(Ref("c"), Lit(0), Lit(1))
    assert Lit(True) is not Lit(1) and Lit(False) is not Lit(0)
    assert Lit(1) is Lit(1) and Lit("on") is not Ref("on")
    assert IntRange(0, 3) is IntRange(0, 3)
    assert EnumDomain(["a", "b"]) is EnumDomain(("a", "b"))
    assert EnumDomain(["a", "b"]) is not EnumDomain(["b", "a"])
    assert Atom(Ref("x")) is Atom(Ref("x"))
    assert Or(Atom(Ref("x")), Atom(Ref("y"))) \
        is not Or(Atom(Ref("y")), Atom(Ref("x")))


def test_deep_trees_compare_without_recursion():
    def chain(leaf, join, odd=None, value=9):
        """A 600-deep left-nested chain, leaf odd swapped for x == value."""
        out = leaf(Binary("==", Ref("x"), Lit(0)))
        for i in range(1, 600):
            out = join(out, leaf(Binary("==", Ref("x"),
                                        Lit(value if i == odd else i % 3))))
        return out

    for leaf, join in ((lambda e: e, lambda a, b: Binary("||", a, b)),
                       (Atom, Or)):
        # equal chains are one object, unequal ones are not
        a, b = chain(leaf, join), chain(leaf, join)
        assert a is b and a == b and not a != b
        assert len({a, b}) == 1
        for odd in (1, 599):
            other = chain(leaf, join, odd=odd)
            assert other is not a and other != a and len({a, other}) == 2
        # -1 and -2 hash alike as ints, yet their chains are told apart
        c, d = chain(leaf, join, 1, -1), chain(leaf, join, 1, -2)
        assert c is not d and c != d and len({c, d}) == 2


def test_str_uses_minimal_parentheses():
    e = Binary("||", Binary("&&", Ref("a"), Ref("b")), Ref("c"))
    assert str(e) == "a && b || c"
    e = Binary("&&", Binary("||", Ref("a"), Ref("b")), Ref("c"))
    assert str(e) == "(a || b) && c"
    e = Binary("*", Binary("+", Ref("a"), Lit(1)), Lit(2))
    assert str(e) == "(a + 1) * 2"
    e = Cond(Ref("c"), Lit(0), Cond(Ref("d"), Lit(1), Lit(2)))
    assert str(e) == "c ? 0 : d ? 1 : 2"


def test_ref_text_renders_array_elements():
    assert ref_text("door.2") == "door[2]"
    assert ref_text("plain") == "plain"
    assert str(Ref("door.2")) == "door[2]"


def test_referenced_names():
    e = Cond(Ref("c"), Binary("+", Ref("a"), Lit(1)), Unary("!", Ref("b")))
    assert referenced_names(e) == {"a", "b", "c"}


def _tiny_model(**overrides):
    spec = dict(
        variables=[
            Variable("u", VarKind.NONDET, BoolDomain(), None),
            Variable("x", VarKind.INPUT, IntRange(0, 3), 0),
            Variable("y", VarKind.OUTPUT, BoolDomain(), False),
        ],
        plant=UpdateBlock([Assignment("x", Binary("+", Ref("x"), Cond(Ref("u"), Lit(1), Lit(0))))]),
        controller=UpdateBlock([Assignment("y", Binary("==", Ref("x"), Lit(2)))]),
    )
    spec.update(overrides)
    return ClosedLoopModel(name="tiny", **spec)


def test_validate_accepts_tiny_model():
    assert validate_model(_tiny_model()) == []


def test_validate_rejects_duplicate_names():
    m = _tiny_model(variables=[
        Variable("x", VarKind.INPUT, IntRange(0, 3), 0),
        Variable("x", VarKind.OUTPUT, BoolDomain(), False),
        Variable("u", VarKind.NONDET, BoolDomain(), None),
        Variable("y", VarKind.OUTPUT, BoolDomain(), False),
    ])
    assert any("duplicate" in d.message for d in validate_model(m))


def test_validate_rejects_bad_inits():
    m = _tiny_model(variables=[
        Variable("u", VarKind.NONDET, BoolDomain(), True),
        Variable("x", VarKind.INPUT, IntRange(0, 3), 9),
        Variable("y", VarKind.OUTPUT, BoolDomain(), None),
    ])
    messages = [d.message for d in validate_model(m)]
    assert any("no init" in msg for msg in messages)
    assert any("outside domain" in msg for msg in messages)
    assert any("missing init" in msg for msg in messages)


def test_validate_rejects_empty_range():
    m = _tiny_model(variables=[
        Variable("u", VarKind.NONDET, BoolDomain(), None),
        Variable("x", VarKind.INPUT, IntRange(3, 0), 0),
        Variable("y", VarKind.OUTPUT, BoolDomain(), False),
    ])
    assert any("empty range" in d.message for d in validate_model(m))


def test_validate_rejects_shared_enum_labels():
    m = _tiny_model(
        variables=[
            Variable("u", VarKind.NONDET, BoolDomain(), None),
            Variable("x", VarKind.INPUT, EnumDomain(("a", "b")), "a"),
            Variable("y", VarKind.OUTPUT, EnumDomain(("b", "c")), "c"),
        ],
        plant=UpdateBlock([Assignment("x", Ref("x"))]),
        controller=UpdateBlock([Assignment("y", Ref("y"))]),
    )
    assert any("already belongs" in d.message for d in validate_model(m))


def test_validate_enforces_block_targets():
    # plant may not assign outputs, controller may not assign inputs
    m = _tiny_model(
        plant=UpdateBlock([Assignment("y", Lit(True))]),
        controller=UpdateBlock([Assignment("x", Lit(1))]),
    )
    messages = [d.message for d in validate_model(m)]
    assert any("plant block may not assign" in msg for msg in messages)
    assert any("controller block may not assign" in msg for msg in messages)


def test_validate_never_allows_assigning_nondet():
    m = _tiny_model(plant=UpdateBlock([
        Assignment("x", Ref("x")),
        Assignment("u", Lit(True)),
    ]))
    assert any("nondet" in d.message for d in validate_model(m))


def test_validate_rejects_type_mismatch():
    m = _tiny_model(controller=UpdateBlock([Assignment("y", Lit(3))]))
    assert any("type mismatch" in d.message for d in validate_model(m))
    m = _tiny_model(plant=UpdateBlock([Assignment("x", Ref("u"))]))
    assert any("type mismatch" in d.message for d in validate_model(m))


def test_validate_rejects_unknown_assignment_target():
    m = _tiny_model(controller=UpdateBlock([Assignment("ghost", Lit(True))]))
    assert any("undeclared" in d.message for d in validate_model(m))


def test_init_state_holds_declared_values():
    s = init_state(_tiny_model())
    # (x, y) only: nondet values are not part of the state
    assert s == (0, False)
    assert s[0] == 0 and s[1] is False


def test_step_applies_plant_then_controller():
    m = _tiny_model()
    s = init_state(m)
    s = step(m, s, {"u": True})
    assert s[0] == 1 and s[1] is False
    s = step(m, s, {"u": True})
    # the controller reads the freshly assigned x, not the previous one
    assert s[0] == 2 and s[1] is True
    s = step(m, s, {"u": True})
    assert s[0] == 3 and s[1] is False


def test_step_sees_assignments_in_block_order():
    m = ClosedLoopModel(
        name="chain",
        variables=[
            Variable("u", VarKind.NONDET, IntRange(0, 1), None),
            Variable("a", VarKind.INPUT, IntRange(0, 9), 0),
            Variable("b", VarKind.INPUT, IntRange(0, 9), 0),
        ],
        plant=UpdateBlock([
            Assignment("a", Binary("+", Ref("u"), Lit(1))),
            Assignment("b", Binary("+", Ref("a"), Lit(1))),  # reads the new a
        ]),
        controller=UpdateBlock([]),
    )
    assert validate_model(m) == []
    s = step(m, init_state(m), {"u": 1})
    assert s == (2, 3)


def test_step_checks_assigned_domains():
    m = ClosedLoopModel(
        name="narrow",
        variables=[
            Variable("u", VarKind.NONDET, BoolDomain(), None),
            Variable("x", VarKind.INPUT, IntRange(0, 1), 0),
        ],
        plant=UpdateBlock([Assignment("x", Binary("+", Ref("x"), Lit(1)))]),
        controller=UpdateBlock([]),
    )
    s = step(m, init_state(m), {"u": False})
    assert s == (1,)
    with pytest.raises(DomainViolation) as err:
        step(m, s, {"u": False})
    assert err.value.name == "x"
    assert err.value.value == 2
    assert "plant assignment" in err.value.where


def test_step_checks_nondet_domain():
    m = _tiny_model()
    with pytest.raises(DomainViolation):
        step(m, init_state(m), {"u": 3})


def test_diagnostic_renders_location():
    d = Diagnostic("broken", "variable 'x'")
    assert str(d) == "variable 'x': broken"


class _Strange(Expr):
    """An expression node of no kind the validator knows."""

    __slots__ = ()


def test_validate_lists_every_type_error_in_order():
    u, x, e = Ref("u"), Ref("x"), Ref("e")
    one, yes = Lit(1), Lit(True)
    m = ClosedLoopModel(
        name="typing",
        variables=[
            Variable("u", VarKind.NONDET, BoolDomain(), None),
            Variable("x", VarKind.INPUT, IntRange(0, 3), 0),
            Variable("e", VarKind.INPUT, EnumDomain(("lo", "hi")), "lo"),
            Variable("y", VarKind.OUTPUT, BoolDomain(), False),
            Variable("z", VarKind.CTRL, IntRange(0, 3), 0),
        ],
        plant=UpdateBlock([
            Assignment("x", Binary("+", Lit("zz"), Ref("ghost"))),
            Assignment("x", Binary("*", Unary("-", u), Unary("!", x))),
            Assignment("x", Binary("-", u, one)),
            Assignment("e", Cond(Binary("<", e, one), e, Lit("hi"))),
            # the guard's own messages, then its type, then the arms'
            Assignment("x", Cond(Cond(one, x, x), Unary("!", one),
                                 Binary("mod", x, yes))),
            Assignment("x", Cond(x, Binary("&&", x, u), one)),
            Assignment("e", Cond(u, e, x)),
        ]),
        controller=UpdateBlock([
            Assignment("y", Binary("||", Binary("==", x, u),
                                   Binary("!=", e, Lit("hi")))),
            Assignment("y", Binary("^", u, u)),
            Assignment("z", Binary("+", _Strange(), one)),
            # a subexpression of an earlier assignment, listed again
            Assignment("y", Cond(Binary("&&", u, x), Unary("-", u), u)),
            Assignment("y", Binary("/", x, one)),
            Assignment("y", Binary("->", Cond(u, x, x), u)),
        ]),
    )
    got = [(d.message, d.where) for d in validate_model(m)]
    plant = "plant assignment {} to '{}'".format
    ctrl = "controller assignment {} to '{}'".format
    guard = "conditional guard must be bool, got int"
    assert got == [
        ("unknown enum label 'zz'", plant(1, "x")),
        ("undeclared variable 'ghost'", plant(1, "x")),
        ("operator '-' needs int, got bool", plant(2, "x")),
        ("operator '!' needs bool, got int", plant(2, "x")),
        ("type mismatch: '-' needs int operands, got bool and int",
         plant(3, "x")),
        ("type mismatch: '<' compares ints, got enum{lo,hi} and int",
         plant(4, "e")),
        (guard, plant(5, "x")),
        (guard, plant(5, "x")),
        ("operator '!' needs bool, got int", plant(5, "x")),
        ("type mismatch: 'mod' needs int operands, got int and bool",
         plant(5, "x")),
        (guard, plant(6, "x")),
        ("type mismatch: '&&' needs bool operands, got int and bool",
         plant(6, "x")),
        ("conditional arms disagree: enum{lo,hi} vs int", plant(7, "e")),
        ("type mismatch: '==' compares int with bool", ctrl(1, "y")),
        ("unknown operator '^'", ctrl(2, "y")),
        ("unknown expression node _Strange", ctrl(3, "z")),
        ("type mismatch: '&&' needs bool operands, got bool and int",
         ctrl(4, "y")),
        ("operator '-' needs int, got bool", ctrl(4, "y")),
        ("type mismatch: assigning int to bool variable", ctrl(5, "y")),
        ("type mismatch: '->' needs bool operands, got int and bool",
         ctrl(6, "y")),
    ]
