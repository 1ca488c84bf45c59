"""Coverage goals, bounded exploration, and suite generation."""

import builtins
import random

import pytest

from looptest import casegen, compiled, testgen
from looptest.dsl import parse_model, parse_reqs
from looptest.ltl import Atom, Globally, Implies, Requirement
from looptest.model import Binary, EvalError, Lit, Ref, Unary
from looptest.runner import execute_suite
from looptest.sim import simulate_lasso
from looptest.testgen import (
    BoundedExplorer,
    GeneratorConfig,
    StateCapExceeded,
    _direct_nondet_witness,
    enumerate_goals,
    generate_suite,
)

import oracles
import randgen


CLIMB = parse_model("""model gen;
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


def _req(rid, formula, expectation=None):
    return Requirement(rid=rid, formula=formula, expectation=expectation)


def _x_is(n):
    return Binary("==", Ref("x"), Lit(n))


# --------------------------------------------------------------------------
# Goal enumeration


def test_value_goals_follow_declaration_and_domain_order():
    goals = enumerate_goals(CLIMB, [])
    origins = [g.origin for g in goals]
    assert origins == [
        "var x=0", "var x=1", "var x=2", "var x=3",
        "var y=false", "var y=true",
    ]
    assert goals[0].predicate == _x_is(0)
    assert goals[4].predicate == Unary("!", Ref("y"))
    assert goals[5].predicate == Ref("y")


def test_nondet_value_goals_only_under_all_kinds():
    plain = enumerate_goals(CLIMB, [])
    wide = enumerate_goals(CLIMB, [], "all-kinds")
    assert [g.origin for g in wide[:2]] == ["var go=false", "var go=true"]
    assert wide[2:] == plain


def test_subformula_goals_come_in_both_polarities():
    req = _req("R0", Globally(Implies(Atom(_x_is(3)), Atom(Ref("y")))))
    goals = enumerate_goals(CLIMB, [req])
    origins = [g.origin for g in goals[6:]]
    assert origins == [
        "sub R0 x == 3 -> y",
        "sub R0 !(x == 3 -> y)",
    ]


def test_subformula_duplicates_of_value_goals_are_dropped():
    # "y" lowers to the same expression as the y=true value goal, and its
    # negation to the y=false goal, so the requirement adds nothing.
    req = _req("R0", Globally(Atom(Ref("y"))))
    assert enumerate_goals(CLIMB, [req]) == enumerate_goals(CLIMB, [])


def test_subformulas_reading_nondet_variables_are_skipped():
    req = _req("R0", Globally(Implies(Atom(Ref("go")), Atom(Ref("y")))))
    for mode in ("maximal", "all"):
        goals = enumerate_goals(CLIMB, [req], mode)
        assert all(g.origin.startswith("var ") for g in goals)
    wide = enumerate_goals(CLIMB, [req], "all-kinds")
    subs = [g for g in wide if g.origin.startswith("sub ")]
    assert subs == []


def test_unknown_goal_mode_is_rejected():
    with pytest.raises(ValueError, match="goal mode"):
        enumerate_goals(CLIMB, [], "everything")


# --------------------------------------------------------------------------
# Bounded exploration


def test_explorer_returns_shortest_witness():
    ex = BoundedExplorer(CLIMB, 6)
    assert ex.find(_x_is(0)) == ([], 0)
    assert ex.find(_x_is(1)) == ([(True,)], 1)
    assert ex.find(_x_is(3)) == ([(True,), (True,), (True,)], 3)


def test_explorer_reports_unreachable_within_bound():
    ex = BoundedExplorer(CLIMB, 2)
    assert ex.find(_x_is(3)) is None
    # A fresh explorer with a larger bound does reach it.
    assert BoundedExplorer(CLIMB, 3).find(_x_is(3)) is not None


def test_explorer_prefers_lexicographically_least_columns():
    model = parse_model("""model lex;
nondet a : bool;
nondet b : bool;
input x : int 0..1 = 0;
plant {
  x = a || b ? 1 : 0;
}
controller {
}
""")
    ex = BoundedExplorer(model, 3)
    # a=true short-circuits b (padded to false), but a=false, b=true ranks
    # lower and reaches the same state.
    assert ex.find(_x_is(1)) == ([(False, True)], 1)


@pytest.mark.parametrize("expr, error", [
    # d=0 passes, and d=1 is tried before d=2
    ("d == 0 ? 1 : d == 1 ? 4 / y : 4 mod y", "division by zero"),
    # b is read first, so (a=true, b=false) is tried before (false, true)
    ("b ? (a ? 1 : 4 / y) : (a ? 4 mod y : 2)", "mod by zero"),
])
def test_explorer_raises_the_first_failing_branch_in_read_order(expr, error):
    model = parse_model(f"""model order;
nondet a : bool;
nondet b : bool;
nondet d : int 0..2;
output y : int 0..3 = 0;
plant {{
}}
controller {{
  y = {expr};
}}
""")
    with pytest.raises(EvalError, match=error):
        BoundedExplorer(model, 2).find(Lit(False))


def test_explorer_state_cap():
    model = parse_model("""model caps;
nondet go : bool;
input x : int 0..99 = 0;
plant {
  x = go && x < 99 ? x + 1 : x;
}
controller {
}
""")
    ex = BoundedExplorer(model, 200, state_cap=5)
    with pytest.raises(StateCapExceeded, match="state budget of 5"):
        ex.find(_x_is(50))


def test_branch_steps_are_pinned_on_a_saturating_search():
    # every search-tree node is one branch step: the root of each expanded
    # state and each value taken at a read nondet variable
    study = casegen.build("elevator", 3)
    ex = BoundedExplorer(study.model, 15)
    assert ex.find(Lit(False)) is None
    assert (len(ex.nodes), ex._steps) == (1249, 21241)


def test_branch_steps_are_pinned_on_a_lazy_generation(monkeypatch):
    made = []

    class Recording(BoundedExplorer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(testgen, "BoundedExplorer", Recording)
    study = casegen.build("pnp", 3)
    generate_suite(study.model, study.reqs,
                   GeneratorConfig(max_len=11, goal_mode="all"))
    assert [(len(ex.nodes), ex._steps) for ex in made] == [(408, 4246)]


# --------------------------------------------------------------------------
# Suite generation


def test_generate_covers_subsumes_and_pads():
    config = GeneratorConfig(max_len=6)
    suite, report = generate_suite(CLIMB, [], config)
    assert suite.variables == ("go",)
    assert len(suite.cases) == 2
    # The x=0 goal is witnessed by the empty column list, padded to one
    # default row so the test is playable.
    assert suite.cases[0].rows == ((False,),)
    assert suite.cases[1].rows == ((True,),)
    assert report.text() == """\
goal 1 var x=0 :: COVERED test=t0 pos=0
goal 2 var x=1 :: COVERED test=t1 pos=1
goal 3 var x=2 :: SUBSUMED test=t1
goal 4 var x=3 :: SUBSUMED test=t1
goal 5 var y=false :: SUBSUMED test=t0
goal 6 var y=true :: SUBSUMED test=t1
suite 2/2
"""


def test_every_subsumed_goal_really_is_covered():
    req = _req("R0", Globally(Implies(Atom(_x_is(3)), Atom(Ref("y")))))
    suite, report = generate_suite(CLIMB, [req], GeneratorConfig(max_len=6))
    goals = enumerate_goals(CLIMB, [req])
    by_id = {case.tid: case for case in suite.cases}
    scanned = 0
    for out in report.outcomes:
        if out.status != "SUBSUMED":
            continue
        trace = simulate_lasso(CLIMB, by_id[out.test_id])
        envs, _ = oracles.lasso_positions(trace)
        predicate = goals[out.index - 1].predicate
        assert any(oracles.reference_eval(predicate, env) for env in envs)
        scanned += 1
    assert scanned == 5


def test_generate_marks_unreachable_with_bound():
    req = _req("R0", Globally(Implies(Atom(_x_is(3)), Atom(Ref("y")))))
    config = GeneratorConfig(max_len=6)
    suite, report = generate_suite(CLIMB, [req], config)
    lines = report.text().splitlines()
    # y is forced the same step x reaches 3, so the violating polarity has
    # no witness at any bound.
    assert lines[6] == "goal 7 sub R0 x == 3 -> y :: SUBSUMED test=t0"
    assert lines[7] == "goal 8 sub R0 !(x == 3 -> y) :: UNREACHABLE(bound=6)"
    assert len(suite.cases) == 2


def test_generate_is_deterministic():
    req = _req("R0", Globally(Implies(Atom(_x_is(3)), Atom(Ref("y")))))
    config = GeneratorConfig(max_len=6)
    first = generate_suite(CLIMB, [req], config)
    second = generate_suite(CLIMB, [req], config)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_direct_witnesses_for_nondet_value_goals():
    # The plant ignores u entirely, so the explorer never sees u=true as a
    # producing column; the one-step witness path must answer instead.
    model = parse_model("""model ign;
nondet u : bool;
input x : bool = false;
plant {
  x = !x;
}
controller {
}
""")
    config = GeneratorConfig(max_len=4, goal_mode="all-kinds")
    suite, report = generate_suite(model, [], config)
    lines = report.text().splitlines()
    assert lines[0] == "goal 1 var u=false :: COVERED test=t0 pos=0"
    assert lines[1] == "goal 2 var u=true :: COVERED test=t1 pos=1"
    assert suite.cases[1].rows == ((True,),)


def test_direct_witness_helper_handles_unsatisfiable_predicates():
    model = parse_model("""model ign2;
nondet u : bool;
input x : bool = false;
plant {
  x = !x;
}
controller {
}
""")
    impossible = Binary("&&", Ref("u"), Unary("!", Ref("u")))
    assert _direct_nondet_witness(model, impossible) is None
    assert _direct_nondet_witness(model, Unary("!", Ref("u"))) == ([], 0)
    assert _direct_nondet_witness(model, Ref("u")) == ([(True,)], 1)


def test_direct_witness_enumerates_only_the_variables_read(monkeypatch):
    # pnp n=5 has 31 boolean nondet variables; the least full column with
    # the first one true comes 2^30 columns into their product.
    model = casegen.build("pnp", 5).model
    nondet = model.nondet_variables()
    assert len(nondet) == 31
    calls = []

    def counted(expr, env):
        calls.append(expr)
        if len(calls) > 100:
            raise AssertionError("more than 100 evaluations")
        return evaluate(expr, env)

    evaluate = testgen.eval_expr
    monkeypatch.setattr(testgen, "eval_expr", counted)
    column = (True,) + (False,) * 30
    assert _direct_nondet_witness(model, Ref(nondet[0].name)) == \
        ([column], 1)


def test_abort_preserves_partial_results():
    model = parse_model("""model caps;
nondet go : bool;
input x : int 0..9 = 0;
plant {
  x = go && x < 9 ? x + 1 : x;
}
controller {
}
""")
    config = GeneratorConfig(max_len=20, state_cap=1)
    with pytest.raises(StateCapExceeded) as caught:
        generate_suite(model, [], config)
    report = caught.value.partial_report
    partial = caught.value.partial_suite
    # x=0 was decided before the budget ran out; x=1 was mid-search.
    assert [out.origin for out in report.outcomes] == ["var x=0"]
    assert report.outcomes[0].status == "COVERED"
    assert len(partial.cases) == 1
    assert report.text().endswith("suite 1/1\n")


# x runs 0..3 and back to 0: the loop is the whole lasso
RING = parse_model("""model ring;
input x : int 0..3 = 0;
plant {
  x = x < 3 ? x + 1 : 0;
}
controller {
}
""")

# x runs 0..5, then 4, 5 forever under the default go = false
TAIL = parse_model("""model tail;
nondet go : bool;
input x : int 0..5 = 0;
plant {
  x = x < 5 ? x + 1 : go ? 3 : 4;
}
controller {
}
""")


@pytest.mark.parametrize("model, goal, raised", [
    # holds at x = 1, before the failing x = 2
    (RING, "10 / (x - 2) < -7", None),
    # holds at x = 3, after it
    (RING, "10 / (x - 2) > 3", "division by zero"),
    # holds at x = 2 in the prefix, fails at x = 4 in the loop
    (TAIL, "10 / (x - 4) < -4", None),
    # fails at x = 2 and x = 4, holds at x = 3 between them
    (TAIL, "10 / (x - 2) + 10 mod (x - 4) > 3", "division by zero"),
    # fails at x = 2 and x = 4 the other way round, holds at x = 5
    (TAIL, "10 mod (x - 2) + 10 / (x - 4) > 4", "mod by zero"),
    # never holds
    (TAIL, "10 / (x - 4) > 100", "division by zero"),
])
def test_scan_raises_only_where_a_position_fails_before_the_goal_holds(
        model, goal, raised):
    reqs = parse_reqs(f"R1 : G ({goal});\n", model)
    values = [f"goal {k + 1} var x={k} :: "
              + ("SUBSUMED test=t0" if k else "COVERED test=t0 pos=0")
              for k in range(len(model.var("x").domain.values()))]
    config = GeneratorConfig(max_len=8)
    if raised is None:
        _, report = generate_suite(model, reqs, config)
        text = reqs[0].formula.operand
        assert report.text() == "\n".join(values + [
            f"goal {len(values) + 1} sub R1 {text} :: SUBSUMED test=t0",
            f"goal {len(values) + 2} sub R1 !({text}) :: SUBSUMED test=t0",
            "suite 1/1\n"])
    else:
        with pytest.raises(EvalError, match=f"^{raised}$") as caught:
            generate_suite(model, reqs, config)
        assert caught.value.partial_report.text() == \
            "\n".join(values + ["suite 1/1\n"])


# --------------------------------------------------------------------------
# Outcomes against exhaustive enumeration


def test_goal_outcomes_match_exhaustive_enumeration_fuzz():
    rng = random.Random(52)
    for i in range(30):
        model = randgen.random_model(rng, name=f"g{i}")
        atoms = randgen.model_atoms(model, include_nondet=True)
        reqs = [
            _req(f"R{j}", randgen.random_formula(rng, atoms, depth=3))
            for j in range(2)
        ]
        mode = ("maximal", "all", "all-kinds")[i % 3]
        columns = oracles.all_columns(model)
        bound = rng.randint(2, 6 if len(columns) <= 3 else 4)
        config = GeneratorConfig(max_len=bound, goal_mode=mode)
        suite, report = generate_suite(model, reqs, config)

        goals = enumerate_goals(model, reqs, mode)
        assert len(report.outcomes) == len(goals)
        assert report.test_count == len(suite.cases)
        assert report.element_count == sum(len(c.rows) for c in suite.cases)

        depths = oracles.shortest_hits(
            model, [g.predicate for g in goals], bound)
        envs_of = {
            case.tid: oracles.lasso_positions(simulate_lasso(model, case))[0]
            for case in suite.cases
        }
        for goal, out, depth in zip(goals, report.outcomes, depths):
            where = (i, goal.origin)
            if out.status == "COVERED":
                assert depth == out.position, where
                envs = envs_of[out.test_id]
                assert out.position < len(envs), where
                assert oracles.reference_eval(
                    goal.predicate, envs[out.position]), where
            elif out.status == "SUBSUMED":
                held = envs_of[out.test_id]
                assert any(oracles.reference_eval(goal.predicate, e)
                           for e in held), where
            else:
                assert out.status == "UNREACHABLE", where
                assert depth is None, where


def test_goals_and_atoms_compile_nothing(monkeypatch):
    # compile() runs once per model, in looptest.compiled, for expand();
    # goals and LTL atoms are decided over row bitmasks instead
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return builtins.compile(*args, **kwargs)

    monkeypatch.setattr(compiled, "compile", counting, raising=False)
    study = casegen.pnp(3)
    suite, _ = generate_suite(study.model, study.reqs,
                              GeneratorConfig(max_len=11, goal_mode="all"))
    execute_suite(study.model, study.reqs, suite)
    assert len(calls) == 1, len(calls)


VARIABLE_SHAPES = """model shapes;
nondet press : bool;
nondet speed : int 0..2;
input level : int 0..3 = 0;
input mode : enum { idle, busy } = idle;
output lamp : bool = false;
plant {
  level = press && level < 3 ? level + speed : level;
  mode = level > 1 ? busy : idle;
}
controller {
  lamp = mode == busy;
}
"""


def _count_lower_set(monkeypatch) -> list:
    calls = []
    lower_set = compiled.lower_set

    def counting(expr, *args):
        calls.append(expr)
        return lower_set(expr, *args)

    monkeypatch.setattr(compiled, "lower_set", counting)
    return calls


def test_variable_goals_and_atoms_take_the_direct_paths(monkeypatch):
    # value goals x, !x and x == v, and atoms that are bool variables
    # (their negated goals !x too), are each one lookup of a row mask
    calls = _count_lower_set(monkeypatch)
    model = parse_model(VARIABLE_SHAPES)
    reqs = parse_reqs("R1 : G (press -> F lamp);\n"
                      "R2 expect-fail : X lamp U X X lamp;\n", model)
    suite, report = generate_suite(model, reqs, GeneratorConfig(
        max_len=6, goal_mode="all"))
    assert [o.status for o in report.outcomes] == \
        ["COVERED"] * 2 + ["SUBSUMED"] * 6
    report = execute_suite(model, reqs, suite)
    assert [v.status for v in report.verdicts] == ["pass", "violated"]
    assert calls == []


def test_compound_goals_alone_go_to_lower_set(monkeypatch):
    # every other goal and atom is lowered by lower_set: on pnp n=3 under
    # --goals all, 223 of the 501 lowerings, all in generation (a count
    # measured when the direct paths came in; it repeats exactly)
    calls = _count_lower_set(monkeypatch)
    study = casegen.pnp(3)
    suite, _ = generate_suite(study.model, study.reqs,
                              GeneratorConfig(max_len=11, goal_mode="all"))
    execute_suite(study.model, study.reqs, suite)
    assert len(calls) == 223, len(calls)
    assert not any(expr.__class__ is Ref for expr in calls)


def test_replay_compiles_the_straight_line_step_only(monkeypatch):
    # a replay compiles run() alone, without the search's branching; a
    # search compiles expand(), which run() is from then on
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return builtins.compile(*args, **kwargs)

    monkeypatch.setattr(compiled, "compile", counting, raising=False)
    study = casegen.pnp(3)
    suite, _ = generate_suite(study.model, study.reqs,
                              GeneratorConfig(max_len=11, goal_mode="all"))
    searched = study.model.compiled()
    assert searched.run is searched.expand and len(calls) == 1
    fresh = parse_model(study.model_text)
    report = execute_suite(fresh, parse_reqs(study.reqs_text, fresh), suite)
    replayed = fresh.compiled()
    assert len(calls) == 2 and replayed.run.__name__ == "run"
    assert "expand" not in vars(replayed)
    assert report == execute_suite(study.model, study.reqs, suite)
    assert len(calls) == 2
