"""The symbolic phase of the bounded search against the explicit engine.

A handoff after 0 steps turns the search symbolic at the root, a small
positive one in the middle of a layer; a search that never hands off is the
reference.  Suites, reports, search-time errors and budget aborts must all
match it exactly.
"""

import random

import pytest

from looptest import casegen, ltl, testgen
from looptest.dsl import parse_model
from looptest.model import Binary, EvalError, Lit, ModelError, Ref, Unary
from looptest.symbolic import StepRelation
from looptest.testgen import BoundedExplorer, GeneratorConfig

import oracles
import randgen

NEVER = 10 ** 18


def _outcome(monkeypatch, handoff, run):
    """What run() returns, or the error it raises with its partial results."""
    monkeypatch.setattr(testgen, "SYMBOLIC_HANDOFF_STEPS", handoff)
    try:
        return run()
    except ModelError as err:
        return (type(err), str(err), getattr(err, "partial_report", None),
                getattr(err, "partial_suite", None))


def _generate(model, reqs, config):
    return lambda: testgen.generate_suite(model, reqs, config)


@pytest.mark.parametrize("handoff", [0, 7])
def test_random_models_match_explicit_search(monkeypatch, handoff):
    rng = random.Random(52)
    for i in range(30):
        model = randgen.random_model(rng, name=f"g{i}")
        atoms = randgen.model_atoms(model, include_nondet=True)
        reqs = [ltl.Requirement(f"R{j}",
                                randgen.random_formula(rng, atoms, depth=3))
                for j in range(2)]
        mode = ("maximal", "all", "all-kinds")[i % 3]
        bound = rng.randint(2, 6 if len(oracles.all_columns(model)) <= 3
                            else 4)
        run = _generate(model, reqs,
                        GeneratorConfig(max_len=bound, goal_mode=mode))
        assert _outcome(monkeypatch, handoff, run) == \
            _outcome(monkeypatch, NEVER, run), (i, mode)


@pytest.mark.parametrize("kind, n, handoff", [
    ("elevator", 3, 0), ("elevator", 3, 5_000), ("elevator", 4, 0),
    ("pnp", 2, 0), ("pnp", 3, 0), ("pnp", 3, 2_000)])
def test_case_studies_match_explicit_search(monkeypatch, kind, n, handoff):
    study = casegen.build(kind, n)
    run = _generate(study.model, study.reqs,
                    GeneratorConfig(max_len=study.suggested_max_len))
    suite, report = _outcome(monkeypatch, handoff, run)
    assert (suite, report) == _outcome(monkeypatch, NEVER, run)


# y=1 is unreachable, so its search steps the whole depth-1 frontier.  Of
# those states the one reached by column (a=false, b=true) comes first in
# search order and takes the second arm; the (true, false) one, first in
# bit order because q is declared before p, takes the first arm.
FAULTS = """model faults;
nondet a : bool;
nondet b : bool;
output y : int 0..3 = 0;
input x : int 0..3 = 0;
input q : bool = false;
input p : bool = false;
plant {{
  x = x < 3 ? x + 1 : 3;
  p = x == 1 && a || p;
  q = x == 1 && b || q;
}}
controller {{
  y = x >= 2 && p && !q ? y + 4 : x >= 2 && q && !p ? {arm} : (y != 0 && 4 / y > 1 ? 1 : 0);
}}
"""


@pytest.mark.parametrize("arm, error", [
    ("4 / y", "division by zero"),
    ("4 mod y", "mod by zero"),
    ("y", "controller assignment 1: value 4 outside domain of 'y'"),
])
def test_search_time_errors_match_explicit_search(monkeypatch, arm, error):
    model = parse_model(FAULTS.format(arm=arm))
    run = _generate(model, [], GeneratorConfig(max_len=5))
    explicit = _outcome(monkeypatch, NEVER, run)
    assert explicit[1] == error
    # raised by the search for y=1, not by a witness's simulation
    assert "var y=1" not in [out.origin for out in explicit[2].outcomes]
    assert _outcome(monkeypatch, 0, run) == explicit


def test_state_budget_in_symbolic_phase(monkeypatch):
    # y=true is unreachable, so its search runs into the budget at depth 4
    model = parse_model("""model caps;
nondet go : bool;
output y : bool = false;
input x : int 0..9 = 0;
plant {
  x = go && x < 9 ? x + 1 : x;
}
controller {
}
""")
    run = _generate(model, [], GeneratorConfig(max_len=20, state_cap=4))
    symbolic = _outcome(monkeypatch, 0, run)
    assert symbolic[1] == "state budget of 4 exhausted"
    assert [out.origin for out in symbolic[2].outcomes] == \
        ["var y=false", "var x=0"]
    assert symbolic == _outcome(monkeypatch, NEVER, run)


def test_state_set_matches_the_bits_contains_reads():
    rng = random.Random(91)
    models = [randgen.random_model(rng, name=f"e{i}") for i in range(40)]
    # array variables lay their bits out by index, not declaration order
    models += [casegen.build(kind, 2).model for kind in ("elevator", "pnp")]
    for model in models:
        states = [state for layer in oracles.reference_layers(model, 4)
                  for state, _parent, _column in layer]
        relation = StepRelation(model)
        bdd = relation.bdd
        want = 0
        for state in states:
            want = bdd.or_(want, bdd.cube(relation.bits(state)))
        assert relation.count(want) == len(states)
        assert relation.state_set(states) == want


def test_find_matches_explicit_search_on_any_predicate(monkeypatch):
    # generate_suite never asks for predicates over nondet variables, but
    # find answers them by the producing column, in both phases.
    rng = random.Random(11)
    for i in range(20):
        model = randgen.random_model(rng, name=f"f{i}")
        atoms = randgen.model_atoms(model, include_nondet=True)
        predicates = atoms + [Unary("!", a) for a in atoms] + [
            Binary("&&", a, b) for a, b in zip(atoms, reversed(atoms))]

        def run():
            explorer = BoundedExplorer(model, 4)
            return [explorer.find(p) for p in predicates]
        assert _outcome(monkeypatch, 0, run) == \
            _outcome(monkeypatch, NEVER, run), i

    climb = parse_model("""model climb;
nondet go : bool;
input x : int 0..3 = 0;
plant {
  x = go && x < 3 ? x + 1 : x;
}
controller {
}
""")
    # false up to depth 2, then fails on x=2 before x=3 can satisfy it
    failing = Binary("&&", Binary(">=", Ref("x"), Lit(2)),
                     Binary(">", Binary("/", Lit(4),
                                        Binary("-", Ref("x"), Lit(2))),
                            Lit(0)))
    outcome = _outcome(monkeypatch, 0,
                       lambda: BoundedExplorer(climb, 4).find(failing))
    assert outcome[:2] == (EvalError, "division by zero")
    assert outcome == _outcome(
        monkeypatch, NEVER, lambda: BoundedExplorer(climb, 4).find(failing))
