"""Formula structure and lasso evaluation."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from looptest.dsl import parse_model
from looptest.ltl import (
    And,
    Atom,
    Finally,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    Until,
    boolean_subformulas,
    eval_on_lasso,
    is_temporal_free,
    lasso_rows,
    position_envs,
    to_expr,
)
from looptest.model import Binary, EvalError, Lit, Ref
from looptest.sim import LassoTrace, TestCase, simulate_lasso

import oracles
import randgen


def make_lasso(rows, prefix):
    """Lasso over (p, q, n) tuples with no nondet dimension."""
    return LassoTrace(model=randgen._SYN_MODEL, case=None, states=list(rows),
                      nondet=[None] * len(rows), prefix_len=prefix,
                      loop_len=len(rows) - prefix, wrap_nondet={})


P = Atom(Ref("p"))
Q = Atom(Ref("q"))


def test_next_wraps_to_loop_start():
    # positions: 0 (prefix), then a loop of 1
    t = make_lasso([(False, False, 0), (True, False, 1)], prefix=1)
    assert eval_on_lasso(Next(P), t) is True
    assert eval_on_lasso(Next(P), t, position=1) is True  # succ(1) is 1 again
    assert eval_on_lasso(P, t) is False


def test_globally_ignores_prefix_when_asked_inside_loop():
    t = make_lasso([(False, False, 0), (True, False, 0), (True, True, 0)],
                   prefix=1)
    assert eval_on_lasso(Globally(P), t) is False
    assert eval_on_lasso(Globally(P), t, position=1) is True
    assert eval_on_lasso(Globally(Q), t, position=1) is False


def test_finally_sees_whole_loop():
    t = make_lasso([(False, False, 0), (False, False, 1), (False, True, 2)],
                   prefix=0)
    assert eval_on_lasso(Finally(Q), t) is True
    assert eval_on_lasso(Finally(P), t) is False
    n2 = Atom(Binary("==", Ref("n"), Lit(2)))
    assert eval_on_lasso(Globally(Finally(n2)), t) is True


def test_until_crosses_the_wrap():
    # loop of three: q holds only at the loop start; p holds elsewhere
    t = make_lasso([(False, True, 0), (True, False, 0), (True, False, 0)],
                   prefix=0)
    # from position 1 the path must wrap to reach q at position 0
    assert eval_on_lasso(Until(P, Q), t, position=1) is True
    # without p at position 2 the corridor is broken
    t2 = make_lasso([(False, True, 0), (True, False, 0), (False, False, 0)],
                    prefix=0)
    assert eval_on_lasso(Until(P, Q), t2, position=1) is False


def test_until_is_strong():
    t = make_lasso([(True, False, 0)], prefix=0)
    assert eval_on_lasso(Until(P, Q), t) is False
    assert eval_on_lasso(Globally(P), t) is True


def test_position_bounds_checked():
    t = make_lasso([(True, False, 0)], prefix=0)
    with pytest.raises(ValueError):
        eval_on_lasso(P, t, position=1)


def test_atom_raises_at_its_earliest_failing_position():
    # 1 / (n - 2) fails at n = 2; at n = 1 it passes and 1 mod (n - 1)
    # fails.  Every position is evaluated, so the one asked does not matter.
    n = Ref("n")
    atom = Atom(Binary("==", Binary(
        "+", Binary("/", Lit(1), Binary("-", n, Lit(2))),
        Binary("mod", Lit(1), Binary("-", n, Lit(1)))), Lit(0)))
    for order, message in (((1, 2), "mod by zero"),
                           ((2, 1), "division by zero")):
        states = [(False, False, k) for k in (0,) + order + (3,)]
        with pytest.raises(EvalError, match=message):
            eval_on_lasso(atom, make_lasso(states, prefix=1), 3)


def test_left_operand_raises_before_the_right():
    # n is 0, 1, 2, 3.  early fails at position 1 (mod by zero); late
    # fails first at position 2 (division by zero), then at 3 (mod by zero).
    # Whichever operand is on the left raises, at its earliest failure,
    # though the other fails at an earlier position.
    n = Ref("n")
    early = Atom(Binary("==", Binary("mod", Lit(1), Binary("-", n, Lit(1))),
                        Lit(0)))
    late = Atom(Binary("==", Binary(
        "+", Binary("/", Lit(1), Binary("-", n, Lit(2))),
        Binary("mod", Lit(1), Binary("-", n, Lit(3)))), Lit(0)))
    states = [(False, False, k) for k in range(4)]
    for op in (Or, And, Until, Implies):
        for lhs, rhs, message in ((late, early, "division by zero"),
                                  (early, late, "mod by zero"),
                                  (Next(Not(late)), Globally(early),
                                   "division by zero")):
            with pytest.raises(EvalError, match=message):
                eval_on_lasso(op(lhs, rhs), make_lasso(states, prefix=1))


def test_prefix_zero_lasso_distinguishes_first_visit_from_reentry():
    # x counts 0,1,0,1,... so the lasso closes back onto position 0, but the
    # first visit of position 0 carries default nondet values while the
    # re-entry carries the column the wrapping step applied.
    m = parse_model("""
model wrapdemo;
nondet u : bool;
input x : int 0..3 = 0;
plant { x = (x + 1) mod 2; }
controller { }
""")
    case = TestCase(tid="t0", variables=("u",), rows=((True,), (False,)))
    trace = simulate_lasso(m, case)
    assert trace.prefix_len == 0
    assert trace.loop_len == 2
    assert trace.wrap_nondet == {"u": False}

    u = Atom(Ref("u"))
    # word: (u=F default) (u=T) then forever [(u=F wrap) (u=T)]
    assert eval_on_lasso(u, trace) is False
    assert eval_on_lasso(Next(u), trace) is True
    assert eval_on_lasso(Next(Next(u)), trace) is False
    assert eval_on_lasso(Globally(Finally(u)), trace) is True
    assert eval_on_lasso(Globally(u), trace) is False

    envs, prefix = position_envs(trace)
    assert prefix == 2
    assert len(envs) == 4
    assert [env["u"] for env in envs] == [False, True, False, True]


def test_temporal_free_recognition():
    f = Implies(And(P, Q), Or(Not(P), Q))
    assert is_temporal_free(f)
    assert not is_temporal_free(Next(P))
    assert not is_temporal_free(And(P, Finally(Q)))


def test_to_expr_lowers_connectives():
    f = Implies(And(P, Not(Q)), P)
    e = to_expr(f)
    assert str(e) == "p && !q -> p"
    with pytest.raises(ValueError):
        to_expr(Finally(P))


def test_boolean_subformulas_maximal():
    f = Globally(Implies(P, Finally(And(P, Q))))
    subs = boolean_subformulas(f)
    assert [str(e) for e in subs] == ["p", "p && q"]


def test_boolean_subformulas_all_includes_leaves():
    f = Globally(Implies(P, Finally(And(P, Q))))
    subs = boolean_subformulas(f, mode="all")
    assert [str(e) for e in subs] == ["p", "p && q", "q"]


def test_boolean_subformulas_dedup():
    f = And(Finally(And(P, Q)), Globally(And(P, Q)))
    subs = boolean_subformulas(f)
    assert [str(e) for e in subs] == ["p && q"]


def test_formula_text_minimizes_parentheses():
    f = Globally(Implies(P, Finally(And(P, Q))))
    assert str(f) == "G (p -> F (p && q))"
    assert str(Until(P, Until(Q, P))) == "p U q U p"
    assert str(Until(Until(P, Q), P)) == "(p U q) U p"
    assert str(Next(Next(P))) == "X X p"
    assert str(And(P, And(Q, P))) == "p && (q && p)"


def test_formula_structural_equality():
    assert Globally(P) == Globally(Atom(Ref("p")))
    assert Globally(P) != Finally(P)
    assert hash(Until(P, Q)) == hash(Until(Atom(Ref("p")), Atom(Ref("q"))))


def test_random_synthetic_lassos_match_path_oracle():
    rng = random.Random(1105)
    atoms = randgen.synthetic_atoms()
    for _ in range(2000):
        trace = randgen.random_lasso(rng)
        formula = randgen.random_formula(rng, atoms, depth=4)
        got = eval_on_lasso(formula, trace)
        want = oracles.eval_trace(formula, trace)
        assert got == want, (str(formula), trace.states, trace.prefix_len)


def test_random_simulated_lassos_match_path_oracle():
    rng = random.Random(733)
    for _ in range(300):
        model = randgen.random_model(rng)
        case = randgen.random_case(rng, model)
        trace = simulate_lasso(model, case)
        atoms = randgen.model_atoms(model)
        for _ in range(4):
            formula = randgen.random_formula(rng, atoms, depth=3)
            position = rng.randrange(trace.prefix_len + trace.loop_len)
            got = eval_on_lasso(formula, trace, position)
            want = oracles.eval_trace(formula, trace, position)
            assert got == want, (model.name, str(formula), position)


def test_long_lassos_match_path_oracle_at_every_position():
    # Masks span hundreds of positions here, far past one machine word, and
    # every position is compared, so a wrong bit anywhere in the loop shows.
    rng = random.Random(4409)
    atoms = randgen.synthetic_atoms()
    shapes = [(0, 200), (150, 1), (0, 1)] + [(150, 200)] * 12
    for max_prefix, max_loop in shapes:
        trace = randgen.random_lasso(rng, max_prefix, max_loop)
        envs, prefix = oracles.lasso_positions(trace)
        for _ in range(4):
            formula = randgen.random_formula(rng, atoms, depth=4)
            want = oracles.path_evaluator(envs, prefix)
            for position in range(trace.prefix_len + trace.loop_len):
                got = eval_on_lasso(formula, trace, position)
                assert got == want(formula, position), (
                    str(formula), trace.prefix_len, trace.loop_len, position)


def test_a_shared_holder_decides_as_a_fresh_one_and_the_path_oracle():
    # one holder passed to every call shares its tables between formulas
    # and positions; without one, each call builds its own
    rng = random.Random(929)
    for _ in range(120):
        model = randgen.random_model(rng)
        trace = simulate_lasso(model, randgen.random_case(rng, model))
        atoms = randgen.model_atoms(model)
        formulas = [randgen.random_formula(rng, atoms, depth=3)
                    for _ in range(4)]
        want = oracles.path_evaluator(*oracles.lasso_positions(trace))
        held = lasso_rows(trace, {})
        for position in range(trace.prefix_len + trace.loop_len):
            for formula in formulas:
                got = eval_on_lasso(formula, trace, position, held)
                assert got == eval_on_lasso(formula, trace, position) \
                    == want(formula, position), (model.name, str(formula),
                                                 position)


def test_interleaved_holders_keep_each_trace_its_verdicts():
    # two traces of one model, their holders sharing one orders dict as
    # execute_suite's do, evaluated A, B, A: no table of one reaches the
    # other's verdicts
    rng = random.Random(5150)
    differ = 0
    for _ in range(80):
        model = randgen.random_model(rng)
        traces = [simulate_lasso(model, randgen.random_case(rng, model))
                  for _ in range(2)]
        orders = {}
        holders = [lasso_rows(trace, orders) for trace in traces]
        wants = [oracles.path_evaluator(*oracles.lasso_positions(trace))
                 for trace in traces]
        atoms = randgen.model_atoms(model)
        for _ in range(8):
            formula = randgen.random_formula(rng, atoms, depth=3)
            got = [eval_on_lasso(formula, traces[k], 0, holders[k])
                   for k in (0, 1, 0)]
            assert got == [wants[k](formula, 0) for k in (0, 1, 0)], (
                model.name, str(formula))
            differ += got[0] != got[1]
    assert differ > 15


# Run in a fresh interpreter, so that no object another test keeps alive
# holds a formula of these parses.
_DRAIN = """
import gc, json, sys, weakref
sys.path[:0] = sys.argv[1:3]
from looptest import casegen, model
from looptest.dsl import parse_model, parse_reqs, parse_suite, serialize_suite
from looptest.ltl import Formula
from looptest.runner import execute_suite
from looptest.testgen import GeneratorConfig, generate_suite
from test_dsl import _node_tables, _subtrees

def run(texts):
    m = parse_model(texts[0])
    reqs = parse_reqs(texts[1], m)
    suite, _ = generate_suite(m, reqs, GeneratorConfig(max_len=4))
    execute_suite(m, reqs, suite)
    execute_suite(m, reqs, parse_suite(serialize_suite(suite), m))
    return _subtrees([r.formula for r in reqs], Formula)

a, b = ((s.model_text, s.reqs_text)
        for s in (casegen.elevator(2), casegen.pnp(2)))
gc.collect()
before = {id(e()) for table in _node_tables() for e in table.values()}
refs = [weakref.ref(f) for f in run(a) if id(f) not in before]
gc.collect()
out = {"theirs": len(refs), "held": sum(r() is not None for r in refs)}
ours = run(b)
gc.collect()
out["alive"] = sum(r() is not None and r() not in ours for r in refs)
print(json.dumps(out))
"""


def test_formulas_drain_once_the_caller_drops_the_model():
    root = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", _DRAIN, str(root.parent / "src"), str(root)],
        capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    # once the caller drops what generating and executing model A's suite,
    # and executing its replay, returned, no formula built only by A's
    # parse is alive: no call keeps a trace, model or formula for the next
    assert out["theirs"] > 50 and out["held"] == 0
    # nor after a trace of model B is evaluated
    assert out["alive"] == 0
