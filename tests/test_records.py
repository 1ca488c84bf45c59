"""Value records: printing, equality, hashing, defaults and immutability.

Each record is a named tuple.  The reprs below are the ones the records
printed when they were frozen dataclasses, so a change of record form
that alters any of them shows here.
"""

import pytest

from looptest import casegen
from looptest.casegen import CaseStudy
from looptest.dsl import parse_model
from looptest.ltl import Atom, Globally, Requirement
from looptest.model import (
    Assignment,
    Binary,
    BoolDomain,
    ClosedLoopModel,
    Diagnostic,
    IntRange,
    Lit,
    Ref,
    UpdateBlock,
    Variable,
    VarKind,
)
from looptest.runner import ExecutionReport, ReqVerdict
from looptest.sim import LassoTrace, TestCase, TestSuite
from looptest.testgen import (
    DEFAULT_STATE_CAP,
    DEFAULT_STEP_CAP,
    CoverageGoal,
    GenerationReport,
    GeneratorConfig,
    GoalOutcome,
)


def _samples() -> list:
    """One instance of every record class, built from scratch each call."""
    u = Variable("u", VarKind.NONDET, BoolDomain())
    x = Variable("x", VarKind.INPUT, IntRange(0, 3), 0)
    inc = Assignment("x", Binary("+", Ref("x"), Lit(1)))
    plant = UpdateBlock((inc,))
    model = ClosedLoopModel("m", (u, x), plant, UpdateBlock())
    req = Requirement("R1", Globally(Atom(Ref("u"))), "expect-pass")
    case = TestCase("t1", ("u",), ((True,), (False,)))
    verdict = ReqVerdict("R1", "violated", "t1", None, "no")
    outcome = GoalOutcome(1, "x=1", "COVERED", "t1", 2)
    return [u, x, inc, plant, model, Diagnostic("bad value", "line 3"), req,
            case, TestSuite(("u",), (case,)),
            LassoTrace(model, case, [(0,), (1,)], [None, {"u": True}], 0, 2,
                       {"u": False}),
            verdict, ExecutionReport((verdict,)),
            CoverageGoal(Ref("u"), "u=true"), GeneratorConfig(5), outcome,
            GenerationReport(5, (outcome,), 1, 2),
            CaseStudy("s", model, [req], "model text", "reqs text", 4)]


_U = ("Variable(name='u', kind=<VarKind.NONDET: 'nondet'>, "
      "domain=BoolDomain(), init=None)")
_X = ("Variable(name='x', kind=<VarKind.INPUT: 'input'>, "
      "domain=IntRange(0, 3), init=0)")
_INC = "Assignment(target='x', expr=Binary('+', Ref('x'), Lit(1)))"
_PLANT = f"UpdateBlock(assignments=({_INC},))"
_MODEL = (f"ClosedLoopModel(name='m', variables=({_U}, {_X}), "
          f"plant={_PLANT}, controller=UpdateBlock(assignments=()))")
_REQ = ("Requirement(rid='R1', formula=Globally(Atom(Ref('u'))), "
        "expectation='expect-pass')")
_CASE = "TestCase(tid='t1', variables=('u',), rows=((True,), (False,)))"
_VERDICT = ("ReqVerdict(rid='R1', status='violated', test_id='t1', "
            "trace=None, message='no')")
_OUTCOME = ("GoalOutcome(index=1, origin='x=1', status='COVERED', "
            "test_id='t1', position=2)")

REPRS = [
    _U, _X, _INC, _PLANT, _MODEL,
    "Diagnostic(message='bad value', where='line 3')",
    _REQ, _CASE,
    f"TestSuite(variables=('u',), cases=({_CASE},))",
    f"LassoTrace(model={_MODEL}, case={_CASE}, states=[(0,), (1,)], "
    "nondet=[None, {'u': True}], prefix_len=0, loop_len=2, "
    "wrap_nondet={'u': False})",
    _VERDICT,
    f"ExecutionReport(verdicts=({_VERDICT},))",
    "CoverageGoal(predicate=Ref('u'), origin='u=true')",
    "GeneratorConfig(max_len=5, goal_mode='maximal', state_cap=10000000, "
    "step_cap=10000000)",
    _OUTCOME,
    f"GenerationReport(bound=5, outcomes=({_OUTCOME},), test_count=1, "
    "element_count=2)",
    f"CaseStudy(name='s', model={_MODEL}, reqs=[{_REQ}], "
    "model_text='model text', reqs_text='reqs text', suggested_max_len=4)",
]


def test_samples_cover_every_record_class():
    assert len({type(r) for r in _samples()}) == 16


@pytest.mark.parametrize("index", range(len(REPRS)))
def test_repr_is_the_dataclass_repr(index):
    assert repr(_samples()[index]) == REPRS[index]


@pytest.mark.parametrize("index", range(len(REPRS)))
def test_equal_fields_give_equal_records(index):
    a, b = _samples()[index], _samples()[index]
    assert a is not b and a == b and not a != b
    if not isinstance(a, (LassoTrace, CaseStudy)):  # these hold lists
        assert hash(a) == hash(b)


@pytest.mark.parametrize("index", range(len(REPRS)))
def test_fields_cannot_be_assigned(index):
    record = _samples()[index]
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)


def test_records_are_tuples_of_their_fields():
    for record in _samples():
        fields = tuple(getattr(record, name) for name in record._fields)
        assert tuple(record) == fields
        assert record == fields


def test_defaults_are_unchanged():
    assert GeneratorConfig(7) == GeneratorConfig(
        max_len=7, goal_mode="maximal", state_cap=DEFAULT_STATE_CAP,
        step_cap=DEFAULT_STEP_CAP)
    outcome = GoalOutcome(2, "o", "UNREACHABLE")
    assert (outcome.test_id, outcome.position) == (None, None)
    verdict = ReqVerdict("r", "pass")
    assert (verdict.test_id, verdict.trace, verdict.message) == (
        None, None, None)
    assert Requirement("r", Atom(Ref("u"))).expectation is None
    assert Variable("u", VarKind.NONDET, BoolDomain()).init is None
    assert UpdateBlock().assignments == ()


def test_keyword_and_positional_construction_agree():
    assert GoalOutcome(index=1, origin="o", status="COVERED", test_id="t",
                       position=0) == GoalOutcome(1, "o", "COVERED", "t", 0)
    model = _samples()[4]
    assert ClosedLoopModel(name=model.name, variables=model.variables,
                           plant=model.plant,
                           controller=model.controller) == model


def test_default_wrap_nondet_is_not_shared_mutable_state():
    samples = _samples()
    model, case = samples[4], samples[7]
    a = LassoTrace(model, case, [(0,)], [None], 0, 1)
    b = LassoTrace(model, case, [(0,)], [None], 0, 1)
    assert a.wrap_nondet == {} and a == b
    with pytest.raises(TypeError):
        a.wrap_nondet["u"] = True
    assert b.wrap_nondet == {}
    with pytest.raises(TypeError):
        hash(a)


def test_parsed_models_compare_by_fields_with_separate_caches():
    text = casegen.pnp(2).model_text
    a, b = parse_model(text), parse_model(text)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.compiled() is not b.compiled()
    assert a.compiled() is a.compiled()
    # the caches stay out of equality and printing
    assert a == parse_model(text)
    assert "_compiled" not in repr(a) and "_by_name" not in repr(a)
