"""Executing suites: verdicts, report text, expectation bookkeeping."""

import random

from looptest import runner
from looptest.dsl import parse_model
from looptest.ltl import Atom, Finally, Globally, Or, Requirement
from looptest.model import (Binary, BoolDomain, Cond, EvalError, Lit, Ref,
                             Unary)
from looptest.runner import execute_suite
from looptest.sim import TestCase, TestSuite, simulate_lasso

import oracles
import randgen


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


def _checked_run(monkeypatch, model, reqs, suite):
    """execute_suite's verdicts and the (rid, tid) pairs it checked."""
    pairs = []
    rid_of = {id(req.formula): req.rid for req in reqs}
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
    assert sorted(pairs) == sorted(want_pairs)


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
        assert sorted(pairs) == sorted(want_pairs), i
        statuses.update(status for status, _, _ in verdicts)
        late_errors += sum(1 for status, _, message in verdicts
                           if status == "error"
                           and not message.startswith("test=t0 "))
    assert statuses == {"pass", "violated", "error"}
    assert late_errors > 0
