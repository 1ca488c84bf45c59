"""Executing suites: verdicts, report text, expectation bookkeeping."""

import copy
import pickle
import random

import pytest

from looptest import casegen, ltl, runner, testgen
from looptest.dsl import parse_model, parse_reqs, parse_suite, serialize_suite
from looptest.ltl import Atom, Finally, Globally, Or, Requirement
from looptest.model import (Binary, BoolDomain, Cond, EvalError, Lit,
                             ModelError, Ref, Unary)
from looptest.runner import execute_suite
from looptest.sim import TestCase, TestSuite, simulate_lasso
from looptest.testgen import GeneratorConfig, generate_suite

import oracles
import randgen
from test_lowering import _CORNERS, _faulty, _outside_init
from test_testgen import RING, TAIL


MODEL = parse_model("""model run;
nondet go : bool;
input x : int 0..3 = 0;
output y : bool = false;
plant {
  x = go && x < 3 ? x + 1 : x;
}
controller {
  y = x == 3;
}
""")

IDLE = TestCase("t0", ("go",), ((False,),))
CLIMB = TestCase("t1", ("go",), ((True,),))
SUITE = TestSuite(variables=("go",), cases=(IDLE, CLIMB))


def _low():
    return Requirement("R_low",
                       Globally(Atom(Binary("<", Ref("x"), Lit(2)))),
                       "expect-pass")


def _any():
    return Requirement("R_any",
                       Globally(Atom(Binary(">=", Ref("x"), Lit(0)))),
                       "expect-fail")


def _hit():
    return Requirement("R_hit", Finally(Atom(Ref("y"))))


def test_first_failing_test_is_the_witness():
    # Both climbing tests violate the bound; suite order decides the blame.
    suite = TestSuite(variables=("go",), cases=(
        IDLE,
        CLIMB,
        TestCase("t2", ("go",), ((True,), (True,))),
    ))
    report = execute_suite(MODEL, [_low()], suite)
    verdict = report.verdicts[0]
    assert verdict.status == "violated"
    assert verdict.test_id == "t1"


def test_report_text_embeds_the_violating_trace():
    report = execute_suite(MODEL, [_low(), _any(), _hit()], SUITE)
    assert report.text() == """\
REQ R_low VIOLATED test=t1
#0 go=0 x=0 y=0
#1 go=1 x=1 y=0
#2 go=1 x=2 y=0
#3 loop-start go=1 x=3 y=1
REQ R_any PASS-ON-SUITE
REQ R_hit VIOLATED test=t0
#0 loop-start go=0 x=0 y=0
violated=2 passed=1 errored=0
"""
    assert report.violated == 2
    assert report.passed == 1
    assert report.errored == 0


def test_report_text_renders_a_shared_trace_once(monkeypatch):
    calls = []
    real = runner.dump_trace

    def counting(trace):
        calls.append(trace.case.tid)
        return real(trace)

    monkeypatch.setattr(runner, "dump_trace", counting)
    never_y = Requirement("R_never", Globally(Atom(Unary("!", Ref("y")))))
    report = execute_suite(MODEL, [_low(), never_y], SUITE)
    trace = """\
#0 go=0 x=0 y=0
#1 go=1 x=1 y=0
#2 go=1 x=2 y=0
#3 loop-start go=1 x=3 y=1
"""
    assert report.text() == ("REQ R_low VIOLATED test=t1\n" + trace
                             + "REQ R_never VIOLATED test=t1\n" + trace
                             + "violated=2 passed=0 errored=0\n")
    assert calls == ["t1"]


def test_expectation_misses_in_requirement_order():
    reqs = [_low(), _any(), _hit()]
    report = execute_suite(MODEL, reqs, SUITE)
    assert report.expectation_misses(reqs) == [
        ("R_low", "expect-pass", "VIOLATED"),
        ("R_any", "expect-fail", "PASS-ON-SUITE"),
    ]


def test_matching_expectations_are_not_misses():
    reqs = [
        Requirement("R_ok",
                    Globally(Atom(Binary("<=", Ref("x"), Lit(3)))),
                    "expect-pass"),
        Requirement("R_bad", Globally(Atom(Binary("<", Ref("x"), Lit(2)))),
                    "expect-fail"),
    ]
    report = execute_suite(MODEL, reqs, SUITE)
    assert report.expectation_misses(reqs) == []


def test_broken_test_turns_every_verdict_into_an_error():
    model = parse_model("""model frail;
nondet go : bool;
input x : int 0..2 = 0;
plant {
  x = go ? x + 1 : x;
}
controller {
}
""")
    suite = TestSuite(variables=("go",), cases=(
        TestCase("t0", ("go",), ((False,),)),
        TestCase("t1", ("go",), ((True,),)),
    ))
    reqs = [
        Requirement("R0", Globally(Atom(Binary("<", Ref("x"), Lit(9))))),
        Requirement("R1", Finally(Atom(Binary("==", Ref("x"), Lit(1))))),
    ]
    report = execute_suite(model, reqs, suite)
    assert report.errored == 2
    for verdict in report.verdicts:
        assert verdict.status == "error"
        assert "test=t1" in verdict.message
    assert report.text().splitlines()[0].startswith("REQ R0 ERROR test=t1")
    # errors never count as expectation misses
    tagged = [Requirement("R0", reqs[0].formula, "expect-pass"),
              Requirement("R1", reqs[1].formula, "expect-fail")]
    report = execute_suite(model, tagged, suite)
    assert report.expectation_misses(tagged) == []


def test_a_case_without_rows_errors_every_verdict():
    suite = TestSuite(variables=("go",), cases=(
        CLIMB, TestCase("t9", ("go",), ())))
    report = execute_suite(MODEL, [_low(), _hit()], suite)
    assert [(v.status, v.message) for v in report.verdicts] == [
        ("error", "test=t9 test 't9' needs at least one row")] * 2


def test_step_cap_is_passed_through():
    report = execute_suite(MODEL, [_low()], SUITE, step_cap=2)
    assert report.errored == 1
    assert "step" in report.verdicts[0].message


# --------------------------------------------------------------------------
# Trace-major checking against a per-pair reference


def _atom_exprs(formula):
    """Atom expressions in the order evaluation reaches them."""
    if isinstance(formula, Atom):
        yield formula.expr
    for attr in ("operand", "lhs", "rhs"):
        if hasattr(formula, attr):
            yield from _atom_exprs(getattr(formula, attr))


def _reference_run(reqs, traces):
    """Verdicts as (status, test id, message), requirement by requirement
    and test by test, with the (rid, tid) pairs checked.

    Every atom is evaluated at every position, so the first atom that
    raises anywhere on a test decides the error.
    """
    verdicts, pairs = [], []
    for req in reqs:
        verdict = ("pass", None, None)
        for trace in traces:
            tid = trace.case.tid
            pairs.append((req.rid, tid))
            envs, prefix = oracles.lasso_positions(trace)
            message = None
            for expr in _atom_exprs(req.formula):
                try:
                    for env in envs:
                        oracles.reference_eval(expr, env)
                except EvalError as err:
                    message = str(err)
                    break
            if message is not None:
                verdict = ("error", None, f"test={tid} {message}")
                break
            if not oracles.path_eval(req.formula, envs, prefix):
                verdict = ("violated", tid, None)
                break
        verdicts.append(verdict)
    return verdicts, pairs


def _first_rids(reqs):
    """Each requirement's rid -> the first rid with the same formula.  Equal
    formulas are one object, so a check of either reads alike."""
    first = {}
    return {req.rid: first.setdefault(id(req.formula), req.rid) for req in reqs}


def _same_pairs(reqs, pairs):
    """(rid, tid) pairs with each rid replaced by its _first_rids entry."""
    first = _first_rids(reqs)
    return sorted((first[rid], tid) for rid, tid in pairs)


def _checked_run(monkeypatch, model, reqs, suite):
    """execute_suite's verdicts and the (rid, tid) pairs it checked, each
    rid the first one whose requirement has the formula checked."""
    pairs = []
    first = _first_rids(reqs)
    rid_of = {id(req.formula): first[req.rid] for req in reqs}
    real = runner.eval_on_lasso

    def recording(formula, trace, *args):
        pairs.append((rid_of[id(formula)], trace.case.tid))
        return real(formula, trace, *args)

    monkeypatch.setattr(runner, "eval_on_lasso", recording)
    report = execute_suite(model, reqs, suite)
    monkeypatch.undo()
    verdicts = [(v.status, v.test_id, v.message) for v in report.verdicts]
    return verdicts, pairs


def _raises_when(cond):
    """An atom that divides by zero where cond holds."""
    return Binary("==", Binary("/", Lit(1), Cond(cond, Lit(0), Lit(1))),
                  Lit(0))


def _x_is(value):
    return Binary("==", Ref("x"), Lit(value))


def test_error_on_a_middle_test_names_that_test(monkeypatch):
    suite = TestSuite(variables=("go",), cases=(
        IDLE, CLIMB, TestCase("t2", ("go",), ((False,), (True,)))))
    low = Atom(Binary("<", Ref("x"), Lit(2)))
    reqs = [
        Requirement("R_err", Globally(Or(low, Atom(_raises_when(_x_is(2)))))),
        Requirement("R_low", Globally(low)),
        Requirement("R_some", Finally(low)),
    ]
    verdicts, pairs = _checked_run(monkeypatch, MODEL, reqs, suite)
    assert verdicts == [("error", None, "test=t1 division by zero"),
                        ("violated", "t1", None),
                        ("pass", None, None)]
    traces = [simulate_lasso(MODEL, case) for case in suite.cases]
    want, want_pairs = _reference_run(reqs, traces)
    assert verdicts == want
    assert sorted(pairs) == _same_pairs(reqs, want_pairs)


def test_trace_major_verdicts_match_per_pair_reference(monkeypatch):
    rng = random.Random(606)
    statuses = set()
    late_errors = 0
    for i in range(120):
        model = randgen.random_model(rng, name=f"r{i}")
        pool = rng.sample(randgen.model_atoms(model), 3)
        if rng.random() < 0.5:
            # position 0 carries the first domain value, so the atom only
            # raises on tests that play another one
            v = rng.choice(model.nondet_variables())
            values = v.domain.values()
            pool.append(_raises_when(
                Ref(v.name) if isinstance(v.domain, BoolDomain)
                else Binary("==", Ref(v.name), Lit(rng.choice(values[1:])))))
        reqs = [Requirement(f"R{j}",
                            randgen.random_formula(rng, pool, depth=3))
                for j in range(4)]
        cases = tuple(randgen.random_case(rng, model, tid=f"t{j}")
                      for j in range(rng.randint(2, 5)))
        suite = TestSuite(variables=cases[0].variables, cases=cases)
        verdicts, pairs = _checked_run(monkeypatch, model, reqs, suite)
        traces = [simulate_lasso(model, case) for case in cases]
        want, want_pairs = _reference_run(reqs, traces)
        assert verdicts == want, i
        assert sorted(pairs) == _same_pairs(reqs, want_pairs), i
        statuses.update(status for status, _, _ in verdicts)
        late_errors += sum(1 for status, _, message in verdicts
                           if status == "error"
                           and not message.startswith("test=t0 "))
    assert statuses == {"pass", "violated", "error"}
    assert late_errors > 0


# --------------------------------------------------------------------------
# A generated suite's lassos, evaluated on again by execution


def _bare(suite):
    """The suite as a new record: equal to it, carrying nothing."""
    bare = TestSuite(*suite)
    assert bare == suite and vars(bare) == {}
    return bare


def _same_execution(model, reqs, suite, **caps):
    """execute_suite's report on the generated suite, checked against the
    report on a bare copy, which unwinds every test."""
    report = execute_suite(model, reqs, suite, **caps)
    want = execute_suite(model, reqs, _bare(suite), **caps)
    assert report == want
    assert report.text() == want.text()
    assert report.expectation_misses(reqs) == want.expectation_misses(reqs)
    return report


def _random_reqs(rng, model) -> list:
    pool = rng.sample(randgen.model_atoms(model), 3)
    v = rng.choice(model.state_variables())
    if rng.random() < 0.5:  # generation raises where a goal fails first
        pool.append(_raises_when(
            Ref(v.name) if isinstance(v.domain, BoolDomain) else
            Binary("==", Ref(v.name), Lit(rng.choice(v.domain.values())))))
    return [Requirement(f"R{j}", randgen.random_formula(rng, pool, depth=3),
                        rng.choice((None, "expect-pass", "expect-fail")))
            for j in range(3)]


def _generated_models():
    """(model, reqs, bound) to generate suites for."""
    rng = random.Random(2525)
    for i in range(120):
        model = randgen.random_model(rng, name=f"u{i}")
        if i % 3 == 1:
            model = _faulty(rng, model)
        if i % 4 == 3:
            model = _outside_init(rng, model)
        yield model, _random_reqs(rng, model), rng.randint(2, 5)
    for text, bound, *_ in _CORNERS.values():
        model = parse_model(text)
        yield model, _random_reqs(rng, model), bound + 2
    for kind in ("elevator", "pnp"):
        for n in (2, 3):
            study = casegen.build(kind, n)
            yield study.model, study.reqs, study.suggested_max_len
    # goals holding before a position fails, which the atoms then raise at
    for model, goal in ((RING, "10 / (x - 2) < -7"),
                        (TAIL, "10 / (x - 4) < -4")):
        yield model, parse_reqs(f"R1 : G ({goal});\n", model), 8


def test_execution_on_a_generated_suite_matches_a_bare_copy():
    seen = {"pass": 0, "violated": 0, "error": 0, "aborted": 0}
    for model, reqs, bound in _generated_models():
        for mode in ("maximal", "all", "all-kinds"):
            try:
                suite, _ = generate_suite(model, reqs,
                                          GeneratorConfig(bound, mode))
            except ModelError:
                seen["aborted"] += 1
                continue
            report = _same_execution(model, reqs, suite)
            for verdict in report.verdicts:
                seen[verdict.status] += 1
    assert min(seen.values()) >= 10, seen


def _lasso_positions(model, suite) -> list:
    return [simulate_lasso(model, case).positions for case in suite.cases]


def test_a_step_cap_below_a_lasso_gives_the_unwound_errors():
    reqs = [_low(), _any(), _hit()]
    suite, _ = generate_suite(MODEL, reqs, GeneratorConfig(max_len=6))
    positions = _lasso_positions(MODEL, suite)
    assert sorted(positions) == [1, 4]
    errors = set()
    for cap in range(max(positions) + 2):
        report = _same_execution(MODEL, reqs, suite, step_cap=cap)
        errors.update(v.message for v in report.verdicts
                      if v.status == "error")
    assert errors == {"test=t0 no lasso within 0 steps for test 't0'",
                      "test=t1 no lasso within 1 steps for test 't1'",
                      "test=t1 no lasso within 2 steps for test 't1'",
                      "test=t1 no lasso within 3 steps for test 't1'"}


def _unwound(monkeypatch) -> list:
    """The tids of the tests generation and execution unwind from now on,
    and of those whose position rows they build."""
    calls = []
    for module in (testgen, runner):
        def counted(model, case, *args, real=module.simulate_lasso,
                    **named):
            calls.append(case.tid)
            return real(model, case, *args, **named)

        monkeypatch.setattr(module, "simulate_lasso", counted)
    real_rows = ltl.lasso_rows

    def rows_counted(trace, orders):
        calls.append(("rows", trace.case.tid))
        return real_rows(trace, orders)

    monkeypatch.setattr(ltl, "lasso_rows", rows_counted)
    return calls


def test_each_generated_test_is_unwound_once(monkeypatch):
    study = casegen.pnp(3)
    calls = _unwound(monkeypatch)
    suite, _ = generate_suite(study.model, study.reqs,
                              GeneratorConfig(study.suggested_max_len, "all"))
    report = execute_suite(study.model, study.reqs, suite)
    tids = [case.tid for case in suite.cases]
    once = [call for tid in tids for call in (tid, ("rows", tid))]
    assert len(tids) > 5 and calls == once
    kept = dict(vars(study.model))
    for other in (parse_suite(serialize_suite(suite), study.model),
                  _bare(suite), pickle.loads(pickle.dumps(suite))):
        del calls[:]
        assert execute_suite(study.model, study.reqs, other) == report
        assert calls == tids + [("rows", tid) for tid in tids]
        # a replay records nothing, on the suite or on the model
        assert vars(other) == {} and vars(study.model) == kept


def test_a_suite_executed_on_another_model_object_unwinds_again(
        monkeypatch):
    study = casegen.elevator(2)
    suite, _ = generate_suite(study.model, study.reqs,
                              GeneratorConfig(study.suggested_max_len))
    report = execute_suite(study.model, study.reqs, suite)
    calls = _unwound(monkeypatch)
    again = parse_model(study.model_text)
    assert again == study.model and again is not study.model
    assert execute_suite(again, parse_reqs(study.reqs_text, again),
                         suite) == report
    tids = [case.tid for case in suite.cases]
    assert calls == tids + [("rows", tid) for tid in tids]


def test_a_generated_suite_is_a_plain_record():
    study = casegen.pnp(2)
    model = study.model
    suite, _ = generate_suite(model, study.reqs,
                              GeneratorConfig(study.suggested_max_len))
    parsed = parse_suite(serialize_suite(suite), model)
    assert suite == parsed and not suite != parsed
    assert repr(suite) == repr(parsed) and hash(suite) == hash(parsed)
    report = execute_suite(model, study.reqs, suite)
    for other in (pickle.loads(pickle.dumps(suite)), copy.copy(suite),
                  copy.deepcopy(suite), suite._replace(cases=suite.cases)):
        assert type(other) is TestSuite and other == suite
        assert vars(other) == {}
        assert execute_suite(model, study.reqs, other) == report
    with pytest.raises(AttributeError):
        suite.cases = ()
