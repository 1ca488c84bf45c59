"""The compiled step, compiled predicates and the search that drives the
compiled step against the tree-walking references in oracles.py: same
values, same exception class and message."""

import random

from looptest import casegen, testgen
from looptest.dsl import parse_model
from looptest.model import (
    Assignment,
    Binary,
    BoolDomain,
    ClosedLoopModel,
    Cond,
    DomainViolation,
    IntRange,
    Lit,
    ModelError,
    Ref,
    UpdateBlock,
    eval_expr,
    step,
    validate_model,
)
from looptest.testgen import BoundedExplorer

import oracles
import randgen


def _typed(values) -> tuple:
    # True == 1, so compare types too
    return tuple((type(v), v) for v in values)


def _outcome(fn, *args):
    """Typed state values fn returns, or the class and message it raises."""
    try:
        return _typed(fn(*args))
    except ModelError as err:
        return type(err), str(err)


def _faulty(rng, model):
    """The model with each int assignment wrapped in an arithmetic step
    that can leave the domain or divide by zero."""
    ints = [v.name for v in model.variables if isinstance(v.domain, IntRange)]
    if not ints:
        return model

    def wrap(asn):
        if asn.target not in ints or rng.random() < 0.3:
            return asn
        op = rng.choice(("+", "-", "*", "/", "mod"))
        term = Ref(rng.choice(ints)) if rng.random() < 0.6 \
            else Lit(rng.randrange(0, 3))
        return Assignment(asn.target, Binary(op, asn.expr, term))

    faulty = ClosedLoopModel(
        name=model.name + "-faulty", variables=model.variables,
        plant=UpdateBlock(tuple(wrap(a) for a in model.plant.assignments)),
        controller=UpdateBlock(tuple(wrap(a)
                                     for a in model.controller.assignments)))
    assert validate_model(faulty) == []
    return faulty


def _column(rng, model):
    """A nondet column, now and then with a value outside its domain."""
    column = {}
    for v in model.nondet_variables():
        column[v.name] = rng.choice(list(v.domain.values()))
        if rng.random() < 0.05:
            column[v.name] = rng.choice((7, -3, 1, "zz"))
    return column


def test_compiled_step_matches_reference_step():
    rng = random.Random(2024)
    seen = {"single": 0, "violation": 0, "division by zero": 0,
            "mod by zero": 0, "nondet value": 0}
    for i in range(400):
        model = randgen.random_model(rng, name=f"s{i}")
        if i % 2:
            model = _faulty(rng, model)
        if len(model.state_variables()) == 1:
            seen["single"] += 1
        state = oracles.reference_root(model)
        for _ in range(6):
            column = _column(rng, model)
            got = _outcome(step, model, state, column)
            want = _outcome(oracles.reference_step, model, state, column)
            assert got == want, (model, state, column)
            if isinstance(want[0], type):
                message = want[1]
                seen["violation"] += "outside domain" in message
                for key in ("division by zero", "mod by zero",
                            "nondet value"):
                    seen[key] += message.startswith(key)
                break
            state = step(model, state, column)
    assert all(count > 0 for count in seen.values()), seen


def test_single_state_variable_steps_to_a_one_tuple():
    model = parse_model("""model one;
nondet go : bool;
input x : int 0..2 = 0;
plant {
  x = go ? x + 1 : x;
}
controller {
}
""")
    state = oracles.reference_root(model)
    for go in (True, False, True):
        want = oracles.reference_step(model, state, {"go": go})
        state = step(model, state, {"go": go})
        assert state == want
        assert isinstance(state, tuple)
    # x is 2, so one more climb leaves the domain
    assert _outcome(step, model, state, {"go": True}) == \
        _outcome(oracles.reference_step, model, state, {"go": True}) == \
        (DomainViolation, "plant assignment 1: value 3 outside domain of 'x'")


def _value(fn, *args):
    try:
        value = fn(*args)
        return type(value), value
    except ModelError as err:
        return type(err), str(err)


def test_compiled_predicates_match_reference_eval():
    rng = random.Random(77)
    raised = set()
    for i in range(300):
        model = randgen.random_model(rng, name=f"p{i}")
        ints = [v.name for v in model.variables
                if isinstance(v.domain, IntRange)]
        bools = [v.name for v in model.variables
                 if isinstance(v.domain, BoolDomain)]
        compiled = model.compiled()
        state = oracles.reference_root(model)
        column = {v.name: rng.choice(list(v.domain.values()))
                  for v in model.nondet_variables()}
        names = [v.name for v in model.state_variables()]
        env = dict(zip(names, state), **column)
        row = compiled.row(state, column)
        for _ in range(10):
            expr = randgen.random_expr(rng, ints, bools,
                                       rng.choice(("int", "bool")), 4,
                                       missing=0.05)
            got = _value(compiled.predicate(expr), row)
            want = _value(oracles.reference_eval, expr, env)
            assert got == want, (str(expr), env)
            assert _value(eval_expr, expr, env) == want, (str(expr), env)
            if isinstance(want[1], str) and issubclass(want[0], ModelError):
                raised.add(want[1].split(" '")[0])
    assert raised == {"division by zero", "mod by zero",
                      "undefined variable"}


def test_short_circuit_hides_undefined_variables():
    model = randgen._SYN_MODEL
    compiled = model.compiled()
    row = compiled.row((True, False, 0), {})
    missing = Ref("missing")
    cases = [
        (Binary("&&", Ref("q"), missing), False),
        (Binary("||", Ref("p"), missing), True),
        (Binary("->", Ref("q"), missing), True),
        (Cond(Ref("p"), Lit(1), missing), 1),
        (Cond(Ref("q"), missing, Lit(2)), 2),
    ]
    for expr, want in cases:
        assert compiled.predicate(expr)(row) == want
    evaluated = Binary("&&", Ref("p"), missing)
    assert _value(compiled.predicate(evaluated), row) == \
        _value(oracles.reference_eval, evaluated, {"p": True})


def _explored_layers(model, max_len):
    """The explorer's nodes, parents and columns grouped by depth, after
    building every layer within the bound."""
    explorer = BoundedExplorer(model, max_len)
    assert explorer.find(Lit(False)) is None
    depth = [0]
    layers = [[]]
    for node, parent, column in zip(explorer.nodes, explorer.parents,
                                    explorer.columns):
        if parent >= 0:
            depth.append(depth[parent] + 1)
            if depth[-1] == len(layers):
                layers.append([])
        layers[depth[-1]].append((node, parent, column))
    return layers


def _layers_or_error(build, model, max_len):
    # Errors compare by class only: the reference tries full columns in
    # declaration order, the explorer branches in read order, so the first
    # failing column may differ.  test_symbolic.py pins the messages.
    try:
        return build(model, max_len)
    except ModelError as err:
        return type(err)


def test_explorer_layers_match_reference_bfs(monkeypatch):
    monkeypatch.setattr(testgen, "SYMBOLIC_HANDOFF_STEPS", 10 ** 18)
    rng = random.Random(4242)
    raised = 0
    for i in range(120):
        model = randgen.random_model(rng, name=f"b{i}")
        if i % 3 == 2:
            model = _faulty(rng, model)
        bound = rng.randint(2, 6 if len(oracles.all_columns(model)) <= 3
                            else 4)
        want = _layers_or_error(oracles.reference_layers, model, bound)
        got = _layers_or_error(_explored_layers, model, bound)
        assert got == want, (i, model)
        raised += isinstance(want, type)
    assert 0 < raised < 60, raised
    for kind in ("elevator", "pnp"):
        study = casegen.build(kind, 2)
        bound = study.suggested_max_len
        assert _explored_layers(study.model, bound) == \
            oracles.reference_layers(study.model, bound)


def test_deep_chains_compile():
    depth = 600
    chain = " || ".join(f"x == {i % 3}" for i in range(depth))
    arms = "".join(f"x == {i % 3} ? {i % 3} : " for i in range(depth))
    model = parse_model(f"""model deep;
nondet go : bool;
input x : int 0..3 = 3;
output y : bool = false;
plant {{
  x = {arms}go ? 3 : 2;
}}
controller {{
  y = {chain} || go;
}}
""")
    state = oracles.reference_root(model)
    for go in (True, False, True):
        want = oracles.reference_step(model, state, {"go": go})
        state = step(model, state, {"go": go})
        assert state == want
    # at x=3 both chains read go only at their bottom, so the search
    # branches from inside the deepest nesting
    layers = oracles.reference_layers(model, 3)
    assert _explored_layers(model, 3) == layers
    assert [len(layer) for layer in layers] == [1, 2]
