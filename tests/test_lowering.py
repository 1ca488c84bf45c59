"""The compiled step, the set lowering of goals and atoms, and the search
that drives the compiled step against the tree-walking references in
oracles.py: same values, same exception class and message."""

import importlib.util
import random
import sys
from itertools import islice, product
from pathlib import Path

import pytest

from looptest import casegen, compiled, ltl, testgen
from looptest.compiled import RowSets, lower_set
from looptest.dsl import parse_model, parse_reqs, parse_suite
from looptest.model import (
    Assignment,
    Binary,
    BoolDomain,
    ClosedLoopModel,
    Cond,
    DomainViolation,
    EvalError,
    IntRange,
    Lit,
    ModelError,
    Ref,
    Unary,
    UpdateBlock,
    Variable,
    VarKind,
    eval_expr,
    init_state,
    referenced_names,
    step,
    validate_model,
)
from looptest.sim import StepCapExceeded, TestCase, simulate_lasso
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
            # the same values as a column tuple, in declaration order
            assert _outcome(step, model, state, tuple(column.values())) \
                == want, (model, state, column)
            if isinstance(want[0], type):
                message = want[1]
                seen["violation"] += "outside domain" in message
                for key in ("division by zero", "mod by zero",
                            "nondet value"):
                    seen[key] += message.startswith(key)
                break
            state = step(model, state, column)
    assert all(count > 0 for count in seen.values()), seen

    # a literal divisor of either sign lowers to Python's // or %, which
    # floor, and a literal 0 to the helper that raises
    for op, helper in (("/", "floor_div"), ("mod", "floor_mod")):
        for divisor in (-3, -1, 0, 1, 2):
            model = ClosedLoopModel(
                name="divide",
                variables=(Variable("x", VarKind.INPUT, IntRange(-9, 9), 0),),
                plant=UpdateBlock((Assignment("x", Binary(
                    op, Binary("-", Ref("x"), Lit(2)), Lit(divisor))),)),
                controller=UpdateBlock(()))
            assert (helper in _names(model)) == (divisor == 0)
            for x in range(-5, 6):
                assert _outcome(step, model, (x,), {}) == \
                    _outcome(oracles.reference_step, model, (x,), {}), \
                    (op, divisor, x)


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


def _outside_init(rng, model):
    """The model, unvalidated, with one state variable's init outside its
    domain: a value of another class or past an end, which still compares
    and adds without a TypeError."""
    target = rng.choice(model.state_variables())
    domain = target.domain
    if isinstance(domain, IntRange):
        init = rng.choice((domain.lo - 1, domain.hi + 1, True))
    else:
        init = rng.choice((0, 2) if isinstance(domain, BoolDomain) else (0, 5))
    return ClosedLoopModel(
        name=model.name + "-init", plant=model.plant,
        controller=model.controller,
        variables=tuple(Variable(v.name, v.kind, v.domain, init)
                        if v is target else v for v in model.variables))


def _read_values(model, name) -> list:
    """The values a read of the variable can see within a step."""
    v = model.var(name)
    values = list(v.domain.values())
    if v.kind is not VarKind.NONDET and not v.domain.contains(v.init):
        values.append(v.init)
    return values


def _step_code(model) -> tuple:
    """The code of run() as a replay compiles it, before any search, and
    the codes of expand() and of the functions it goes on in past its
    nesting limit, each the default of the one before."""
    lowered = compiled.CompiledModel(model)
    run = lowered.run.__code__
    codes = []
    fn = lowered.expand
    while fn is not None:
        codes.append(fn.__code__)
        fn = fn.__defaults__[-1] if fn.__defaults__ else None
    return [run], codes


def _tested(model) -> list:
    """The DomainViolation where of each assignment the compiled step
    tests at run time, the same in run() and in expand()."""
    run, expand = ([c for code in codes for c in code.co_consts
                    if isinstance(c, str) and " assignment " in c]
                   for codes in _step_code(model))
    assert run == expand, (run, expand)
    return expand


def _names(model) -> set:
    """The global names the compiled run() and expand() read."""
    return {name for codes in _step_code(model) for code in codes
            for name in code.co_names}


def test_assignments_without_run_time_test_stay_in_their_domains():
    rng = random.Random(1313)
    dropped = kept_faulty = 0
    for i in range(600):
        model = randgen.random_model(rng, name=f"d{i}")
        if i % 2:
            model = _faulty(rng, model)
        if i % 3 == 2:
            model = _outside_init(rng, model)
        tested = _tested(model)
        for block_name, block in (("plant", model.plant),
                                  ("controller", model.controller)):
            for k, asn in enumerate(block.assignments):
                if f"{block_name} assignment {k + 1}" in tested:
                    kept_faulty += i % 2
                    continue
                dropped += 1
                domain = model.var(asn.target).domain
                names = sorted(referenced_names(asn.expr))
                reads = product(*[_read_values(model, n) for n in names])
                for values in islice(reads, 3000):
                    env = dict(zip(names, values))
                    # the compiled step's and/or give an operand, where the
                    # reference gives a bool, so check both
                    for evaluate in (oracles.reference_eval, eval_expr):
                        try:
                            value = evaluate(asn.expr, env)
                        except EvalError:
                            continue
                        assert domain.contains(value), \
                            (i, str(asn.expr), env, value)
    assert dropped > 900 and kept_faulty > 100, (dropped, kept_faulty)


def _counter(update: str):
    return parse_model(f"""model counter;
nondet go : bool;
input x : int 0..2 = 0;
plant {{
  x = {update};
}}
controller {{
}}
""")


@pytest.mark.parametrize("update", ["x < 2 ? x + 1 : x",
                                    "2 > x ? x + 1 : x"])
def test_clamped_counter_is_not_tested_at_run_time(update):
    model = _counter(update)
    assert validate_model(model) == []
    assert _tested(model) == []
    assert "_violation" not in _names(model)
    state = init_state(model)
    for want in (1, 2, 2):
        state = step(model, state, {"go": True})
        assert state == (want,)


@pytest.mark.parametrize("update", ["x + 1", "0 < x ? x + 1 : x"])
def test_unproven_assignment_keeps_its_run_time_test(update):
    model = _counter(update)
    assert _tested(model) == ["plant assignment 1"]
    assert _outcome(step, model, (2,), {"go": False}) == \
        (DomainViolation, "plant assignment 1: value 3 outside domain of 'x'")


def test_init_outside_its_domain_is_read_as_it_is():
    # unvalidated: a's init is a bool, which an int variable never holds
    model = ClosedLoopModel(
        name="loose",
        variables=(Variable("a", VarKind.PLANT, IntRange(0, 2), True),
                   Variable("x", VarKind.INPUT, IntRange(0, 2), 0)),
        plant=UpdateBlock((Assignment("x", Ref("a")),)),
        controller=UpdateBlock(()))
    assert validate_model(model) != []
    assert _tested(model) == ["plant assignment 1"]
    assert _outcome(step, model, init_state(model), {}) == \
        (DomainViolation, "plant assignment 1: value True outside domain of 'x'")


@pytest.mark.parametrize("kind, sizes", [("elevator", range(3, 9)),
                                         ("pnp", range(2, 6))])
def test_case_studies_need_no_run_time_domain_test(kind, sizes):
    for n in sizes:
        model = casegen.build(kind, n).model
        assert "_violation" not in _names(model), (kind, n)


def _value(fn, *args):
    try:
        value = fn(*args)
        return type(value), value
    except ModelError as err:
        return type(err), str(err)


def _raises(outcome) -> bool:
    return isinstance(outcome[1], str) and issubclass(outcome[0], ModelError)


def _row_outcome(value, err, i: int):
    """What lowered sets say of row i: that it fails, or its typed value."""
    bit = 1 << i
    if err & bit:
        return "fails"
    if isinstance(value, dict):
        (x,) = [x for x, rows in value.items() if rows & bit]
        return type(x), x
    return bool, bool(value & bit)


def _first_hit(goal, envs: list):
    """The reference scan of a goal: the index of the first env where it
    holds, or the error of the first env that raises before one does."""
    for i, env in enumerate(envs):
        outcome = _value(oracles.reference_eval, goal, env)
        if _raises(outcome):
            return outcome
        if outcome[1]:
            return int, i
    return type(None), None


def test_row_sets_match_reference_eval():
    rng = random.Random(77)
    raised = set()
    hit_errors = set()
    for i in range(300):
        model = randgen.random_model(rng, name=f"p{i}")
        ints = [v.name for v in model.variables
                if isinstance(v.domain, IntRange)]
        bools = [v.name for v in model.variables
                 if isinstance(v.domain, BoolDomain)]
        state = oracles.reference_root(model)
        column = {v.name: rng.choice(list(v.domain.values()))
                  for v in model.nondet_variables()}
        names = [v.name for v in model.state_variables()]
        env = dict(zip(names, state), **column)
        # more rows from their own generator, so rng draws the same models
        # and expressions whatever the rows
        more = random.Random(i)
        envs = [env] + [{v.name: more.choice(list(v.domain.values()))
                         for v in model.variables} for _ in range(5)]
        rows = RowSets(model, [tuple(e[v.name] for v in
                                     model.state_variables()) for e in envs],
                       [tuple(e[v.name] for v in model.nondet_variables())
                        for e in envs])
        for _ in range(10):
            kind = rng.choice(("int", "bool"))
            expr = randgen.random_expr(rng, ints, bools, kind, 4,
                                       missing=0.05)
            want = _value(oracles.reference_eval, expr, env)
            assert _value(eval_expr, expr, env) == want, (str(expr), env)
            value, err = lower_set(expr, rows, rows)
            for k, row_env in enumerate(envs):
                outcome = _value(oracles.reference_eval, expr, row_env)
                if _raises(outcome):
                    raised.add(outcome[1].split(" '")[0])
                    outcome = "fails"
                assert _row_outcome(value, err, k) == outcome, \
                    (str(expr), row_env)
            goal = expr if kind == "bool" else Binary("!=", expr, Lit(0))
            first = _first_hit(goal, envs)
            assert _value(rows.first_hit, goal) == first, (str(goal), envs)
            if _raises(first):
                hit_errors.add(first[1].split(" '")[0])
    assert raised == hit_errors == {"division by zero", "mod by zero",
                                    "undefined variable"}


def _ill_typed_goal(rng, ints, bools):
    """A goal where a bool meets an int, as type checking would reject:
    compared, in arithmetic, negated, or as the other arm of a ?: ."""
    def draw(want):
        return randgen.random_expr(rng, ints, bools, want, 2, missing=0.05)

    mixed = [draw("bool"), draw("int")]
    rng.shuffle(mixed)
    shape = rng.randrange(4)
    if shape == 1:
        mixed = [Binary(rng.choice(("+", "-", "*", "/", "mod")), *mixed),
                 draw("int")]
    elif shape == 2:
        mixed = [Unary("-", draw("bool")), draw("int")]
    elif shape == 3:
        mixed = [Cond(draw("bool"), *mixed), draw("int")]
    return Binary(rng.choice(("==", "!=", "<", "<=", ">", ">=")), *mixed)


def test_row_sets_read_a_bool_next_to_an_int_as_reference_eval():
    # a bool's set is its value map {True: set, False: the rest} wherever
    # it meets an int's, since True == 1 where the expression is evaluated
    rng = random.Random(2929)
    seen = {"True": 0, "False": 0, "fails": 0, "hits": 0}
    for i in range(200):
        model = randgen.random_model(rng, name=f"m{i}")
        ints = [v.name for v in model.variables
                if isinstance(v.domain, IntRange)]
        bools = [v.name for v in model.variables
                 if isinstance(v.domain, BoolDomain)]
        envs = [{v.name: rng.choice(list(v.domain.values()))
                 for v in model.variables} for _ in range(6)]
        rows = RowSets(model, [tuple(e[v.name] for v in
                                     model.state_variables()) for e in envs],
                       [tuple(e[v.name] for v in model.nondet_variables())
                        for e in envs])
        for _ in range(10):
            goal = _ill_typed_goal(rng, ints, bools)
            value, err = rows.lower(goal)
            for k, env in enumerate(envs):
                want = _value(oracles.reference_eval, goal, env)
                if _raises(want):
                    want = "fails"
                seen[want if want == "fails" else str(want[1])] += 1
                assert _row_outcome(value, err, k) == want, (str(goal), env)
            first = _first_hit(goal, envs)
            seen["hits"] += first[0] is int
            assert _value(rows.first_hit, goal) == first, (str(goal), envs)
    assert min(seen.values()) > 100, seen


def test_short_circuit_hides_undefined_variables():
    model = randgen._SYN_MODEL
    rows = RowSets(model, [(True, False, 0)], [()])
    missing = Ref("missing")
    cases = [
        (Binary("&&", Ref("q"), missing), False),
        (Binary("||", Ref("p"), missing), True),
        (Binary("->", Ref("q"), missing), True),
        (Cond(Ref("p"), Lit(1), missing), 1),
        (Cond(Ref("q"), missing, Lit(2)), 2),
    ]
    for expr, want in cases:
        value, err = lower_set(expr, rows, rows)
        assert _row_outcome(value, err, 0) == (type(want), want)
    evaluated = Binary("&&", Ref("p"), missing)
    assert _value(rows.first_hit, evaluated) == \
        _value(oracles.reference_eval, evaluated, {"p": True})


# what an unvalidated bool variable may hold; each reads as its truth
_ODD_BOOLS = (False, True, 0, 1, 2, 48, 49, 255, 256, -1, None)


def _bool_copy_model(init) -> ClosedLoopModel:
    """ctrlvar b : bool = init, stepped by b = b, left unvalidated."""
    return ClosedLoopModel(
        name="odd", variables=(Variable("b", VarKind.CTRL, BoolDomain(),
                                        init),),
        plant=UpdateBlock(),
        controller=UpdateBlock((Assignment("b", Ref("b")),)))


def test_bool_masks_read_truth_like_reference_eval():
    model = _bool_copy_model(False)
    # all values in one column, and each alone, where bytes() takes it
    columns = [_ODD_BOOLS] + [(x,) for x in _ODD_BOOLS]
    for values in columns:
        rows = RowSets(model, [(x,) for x in values], [()] * len(values))
        for expr in (Ref("b"), Unary("!", Ref("b"))):
            value, err = lower_set(expr, rows, rows)
            assert err == 0
            for k, x in enumerate(values):
                want = bool(oracles.reference_eval(expr, {"b": x}))
                assert bool(value >> k & 1) == want, (str(expr), x)


@pytest.mark.parametrize("init", [2, 48, 256, -1])
def test_search_reads_an_odd_bool_init_by_truth(init):
    model = _bool_copy_model(init)
    assert BoundedExplorer(model, 1).find(Ref("b")) == ([], 0)
    failure = _value(step, model, init_state(model), {})
    assert failure[0] is DomainViolation
    assert _value(BoundedExplorer(model, 1).find,
                  Unary("!", Ref("b"))) == failure


def test_a_missing_init_is_not_proven_to_stay_in_its_domain():
    # unvalidated: b = b copies the missing init, which no bool holds
    model = _bool_copy_model(None)
    assert validate_model(model) != []
    assert _tested(model) == ["controller assignment 1"]
    failure = _value(oracles.reference_step, model, (None,), {})
    assert failure == (DomainViolation, "controller assignment 1: value "
                       "None outside domain of 'b'")
    assert _value(step, model, (None,), {}) == failure
    assert _value(BoundedExplorer(model, 1).find, Ref("b")) == failure


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


# Corner cases of the expansion, each with the branch steps of its whole
# search, or with its first error and the step budget that just lets the
# search reach it: one step less and the budget runs out first.
_CORNERS = {
    # one nondet variable read by two assignments, by the second one only
    # where the first did not read it
    "twice": ("""model twice;
nondet a : bool;
input x : int 0..3 = 0;
output y : bool = false;
plant {
  x = x == 2 && a ? 0 : x < 3 ? x + 1 : x;
}
controller {
  y = y || a;
}
""", 6, 18, None),
    # b is read only where a fails
    "either": ("""model either;
nondet a : bool;
nondet b : bool;
input n : int 0..4 = 0;
plant {
  n = a || b ? (n < 4 ? n + 1 : 0) : n;
}
controller {
}
""", 6, 25, None),
    # the guard of the read divides by zero at x = 1, before any branch
    "guarded": ("""model guarded;
nondet a : bool;
input x : int 0..3 = 3;
plant {
  x = 3 / (x - 1) >= 1 ? (a ? x - 1 : x) : 3;
}
controller {
}
""", 2, 6, (7, EvalError, "division by zero")),
    # the left operand divides by zero at x = 1, before a is read
    "strict": ("""model strict;
nondet a : bool;
input x : int 0..3 = 3;
plant {
  x = 0 * (3 / (x - 1)) + (a ? x - 1 : x);
}
controller {
}
""", 2, 6, (7, EvalError, "division by zero")),
    # zed ranks first: domain order, not the order of the labels; g is
    # read only where m is zed
    "labels": ("""model labels;
nondet m : enum { zed, alpha, mid };
nondet g : bool;
input h : bool = false;
input k : int 0..2 = 0;
plant {
  k = m == mid ? 1 : m == alpha && h ? 2 : 0;
  h = m == zed && g;
}
controller {
}
""", 3, 24, None),
    # where c fails, b is read before a, and one leaf leaves x's domain
    "order": ("""model order;
nondet a : int 0..1;
nondet b : int 0..2;
input c : bool = false;
input x : int 0..2 = 0;
plant {
  c = !c;
  x = c ? (a + b) mod 3 : b + a;
}
controller {
}
""", 1, 9, (19, DomainViolation,
            "plant assignment 2: value 3 outside domain of 'x'")),
    # both arms read a, the then arm only where k > 0
    "then_guarded": ("""model then_guarded;
nondet a : bool;
input c : bool = false;
input k : int 0..2 = 0;
output y : bool = false;
plant {
  c = !c;
  k = k < 2 ? k + 1 : 0;
}
controller {
  y = c ? (k > 0 && a) : a;
}
""", 4, 14, None),
    # both arms read a, each under a guard of its own
    "arms_guarded": ("""model arms_guarded;
nondet a : bool;
input c : bool = false;
input k : int 0..2 = 0;
output y : bool = false;
plant {
  c = !c;
  k = k < 2 ? k + 1 : 0;
}
controller {
  y = c ? (k > 0 && a) : (k < 2 && a);
}
""", 4, 9, None),
    # as arms_guarded, and the else arm's x - 1 leaves x's domain
    "arms_leaf": ("""model arms_leaf;
nondet a : bool;
input c : bool = false;
input k : int 0..2 = 0;
ctrlvar x : int 0..2 = 0;
plant {
  c = !c;
  k = k < 2 ? k + 1 : 0;
}
controller {
  x = c ? (k > 0 && a ? x + 1 : x) : (k < 2 && a ? x - 1 : x);
}
""", 2, 5, (10, DomainViolation,
            "controller assignment 1: value -1 outside domain of 'x'")),
}


@pytest.mark.parametrize("name", sorted(_CORNERS))
def test_expansion_corner_cases(name):
    text, bound, steps, failure = _CORNERS[name]
    model = parse_model(text)
    assert validate_model(model) == []
    explorer = BoundedExplorer(model, bound)
    assert explorer.find(Lit(False)) is None
    assert explorer._steps == steps
    assert _explored_layers(model, bound) == \
        oracles.reference_layers(model, bound)
    if failure is None:
        return
    cap, error, message = failure
    with pytest.raises(error) as raised:
        BoundedExplorer(model, bound + 3, step_cap=cap).find(Lit(False))
    assert type(raised.value) is error and str(raised.value) == message
    with pytest.raises(StepCapExceeded):
        BoundedExplorer(model, bound + 3, step_cap=cap - 1).find(Lit(False))


def test_expansion_split_over_functions_matches_reference(monkeypatch):
    # past _NESTED_LOOPS nested loops expand() goes on in a further
    # function; at 1, every loop opens one
    monkeypatch.setattr(testgen, "SYMBOLIC_HANDOFF_STEPS", 10 ** 18)
    rng = random.Random(99)
    models = [randgen.random_model(rng, name=f"n{i}") for i in range(40)]
    models += [parse_model(text) for text, *_ in _CORNERS.values()]
    models.append(casegen.build("elevator", 2).model)

    def search(model):
        explorer = BoundedExplorer(model, 3)
        try:
            explorer.find(Lit(False))
        except ModelError as err:
            return type(err), str(err)
        return (explorer._steps, explorer.nodes, explorer.parents,
                explorer.columns)

    for model in models:
        nested = search(model)
        model._compiled = None
        with monkeypatch.context() as patch:
            patch.setattr(compiled, "_NESTED_LOOPS", 1)
            assert search(model) == nested, model
        state = oracles.reference_root(model)
        for column in oracles.all_columns(model)[:4]:
            assert _outcome(step, model, state, column) == \
                _outcome(oracles.reference_step, model, state, column)


def _deep_model():
    """A model whose assignments nest 600 deep: a chain of conditionals
    and a chain of ||."""
    depth = 600
    chain = " || ".join(f"x == {i % 3}" for i in range(depth))
    arms = "".join(f"x == {i % 3} ? {i % 3} : " for i in range(depth))
    return parse_model(f"""model deep;
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


def test_deep_chains_compile():
    model = _deep_model()
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


def test_deep_chains_decide_goals_and_atoms():
    model = _deep_model()
    # the controller's expression is chain || go; x is 3 at the root
    chain = model.controller.assignments[0].expr.lhs
    root = dict(zip(["x", "y"], oracles.reference_root(model)),
                go=False)
    assert oracles.reference_eval(chain, root) is False
    assert BoundedExplorer(model, 3).find(Unary("!", chain)) == ([], 0)
    # go=false steps x to 2, the first state where the chain holds
    columns, position = BoundedExplorer(model, 3).find(chain)
    assert (columns, position) == ([(False,)], 1)
    state = oracles.reference_step(model, oracles.reference_root(model),
                                   {"go": False})
    assert oracles.reference_eval(
        chain, dict(zip(["x", "y"], state), go=False)) is True

    case = TestCase(tid="t0", variables=("go",),
                    rows=((True,), (False,), (True,)))
    trace = simulate_lasso(model, case)
    envs, _ = ltl.position_envs(trace)
    atom = ltl.Atom(chain)
    for position in range(trace.prefix_len + trace.loop_len):
        assert ltl.eval_on_lasso(atom, trace, position) is \
            oracles.reference_eval(chain, envs[position])


def _row_masks(model, rows: list) -> dict:
    """Each variable's value over rows, read from the rows themselves: a
    mask for a bool, else a map from each value to its mask."""
    masks = {}
    for slot, v in enumerate(model.variables):
        column = [row[slot] for row in rows]
        bits = {x: sum(1 << i for i, y in enumerate(column) if y == x)
                for x in set(column)}
        masks[v.name] = bits.get(True, 0) \
            if isinstance(v.domain, BoolDomain) else bits
    return masks


def _replay_cases(monkeypatch):
    """(model, expressions, traces) for the pnp3 benchmark input under the
    first eight pinned replay suites: every trace with no expression, and
    the shortest and longest trace of each suite with every coverage goal
    and subformula of the requirements."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while it loads
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    model_text = (bench / "inputs" / "pnp3.clm").read_text()
    model = parse_model(model_text)
    reqs = parse_reqs((bench / "inputs" / "pnp3.ltl").read_text(), model)
    exprs = [goal.predicate for goal in
             testgen.enumerate_goals(model, reqs, "all-kinds")]
    for req in reqs:
        exprs += ltl.boolean_subformulas(req.formula, "all")
    traces = [simulate_lasso(model, case) for seed in range(8)
              for case in parse_suite(workloads.replay_suite_text(
                  model_text, seed), model).cases]
    ends = [trace for trace in traces if trace.case.tid in ("t0", "t9")]
    return [(model, (), traces), (model, list(dict.fromkeys(exprs)), ends)]


def test_row_sets_from_states_and_columns_match_position_rows(monkeypatch):
    rng = random.Random(20)
    cases = []
    for i in range(120):
        model = randgen.random_model(rng, name=f"d{i}")
        ints = [v.name for v in model.variables
                if isinstance(v.domain, IntRange)]
        bools = [v.name for v in model.variables
                 if isinstance(v.domain, BoolDomain)]
        exprs = []
        for kind in (rng.choice(("int", "bool")) for _ in range(6)):
            expr = randgen.random_expr(rng, ints, bools, kind, 4,
                                       missing=0.05)
            exprs.append(expr if kind == "bool"
                         else Binary("!=", expr, Lit(0)))
        names = tuple(v.name for v in model.nondet_variables())
        rows = tuple(tuple(rng.choice(v.domain.values())
                           for v in model.nondet_variables())
                     for _ in range(rng.randint(1, 4)))
        try:
            trace = simulate_lasso(model, TestCase("t0", names, rows))
        except ModelError:
            continue
        cases.append((model, exprs, [trace]))
    cases += _replay_cases(monkeypatch)
    raised = set()
    for model, exprs, traces in cases:
        for trace in traces:
            rows, prefix = ltl.position_rows(trace)
            states, columns, unrolled = ltl.unroll(trace)
            assert unrolled == prefix
            sets = RowSets(model, states, columns)
            assert {v.name: sets.get(v.name) for v in model.variables} == \
                _row_masks(model, rows)
            envs = ltl.position_envs(trace)[0]
            for goal in exprs:
                want = _first_hit(goal, envs)
                if _raises(want):
                    raised.add(want[1].split(" '")[0])
                assert _value(sets.first_hit, goal) == want, (str(goal), envs)
    assert raised == {"division by zero", "mod by zero", "undefined variable"}


def _direct_shapes(model) -> tuple:
    """The expressions RowSets.lower decides by one lookup, a variable, !b
    of a bool b and x == v of a non-bool x and a literal v not a bool, and
    the near misses lower_set decides: each over every variable and an
    undeclared one."""
    direct, general = [], [Lit("red"), Lit(1), Lit(True)]
    for name in [v.name for v in model.variables] + ["missing"]:
        x = Ref(name)
        domain = model.var(name).domain if model.has_var(name) else None
        boolean = isinstance(domain, BoolDomain)
        direct.append(x)
        (direct if boolean else general).append(Unary("!", x))
        values = [] if domain is None or boolean else list(domain.values())
        for v in values[:2] + [7, "red", "lo"]:
            (direct if domain is not None and not boolean else general).append(
                Binary("==", x, Lit(v)))
            general += [Binary("==", Lit(v), x), Binary("!=", x, Lit(v))]
        general += [Binary("==", x, Lit(True)), Binary("==", x, x),
                    Unary("-", x), Binary("<", x, Lit(1)), Cond(x, x, x)]
    return direct, general


def _lowered(lower, expr):
    try:
        return lower(expr)
    except Exception as err:  # ! over a value map raises, on both paths
        return type(err), str(err)


def test_direct_row_set_paths_match_lower_set(monkeypatch):
    """RowSets.lower against lower_set with a fresh memo, over explorer
    layers (rows in search order) and lasso rows (positions reversed):
    the same value and error, or the same exception; one lookup for the
    direct shapes and lower_set for the rest; and the same first_hit and
    scan bits as the reference evaluation of each row."""
    calls = []
    real = compiled.lower_set
    monkeypatch.setattr(compiled, "lower_set",
                        lambda *args: calls.append(args) or real(*args))
    rng = random.Random(28)
    taken = {True: 0, False: 0}
    scans = {"hits": 0, "misses": 0, "raises": 0}
    for i in range(40):
        model = randgen.random_model(rng, name=f"d{i}")
        direct, general = _direct_shapes(model)
        explorer = BoundedExplorer(model, 3)
        assert explorer.find(Lit(False)) is None
        trace = simulate_lasso(model, randgen.random_case(rng, model))
        lasso = ltl.lasso_rows(trace, {})[1]
        for rows in [rows for _, rows in explorer._row_layers] + [lasso]:
            envs = [dict(zip(model.compiled().index, (*column, *state)))
                    for column, state in zip(rows.columns, rows.states)]
            for expr in direct + general:
                calls.clear()
                got = _lowered(rows.lower, expr)
                assert len(calls) == (expr not in direct), str(expr)
                assert got == _lowered(
                    lambda e: real(e, rows, rows, {}), expr), str(expr)
                taken[expr in direct] += 1
                if got[0].__class__ is not int:  # a value map, or raised
                    continue
                assert _value(rows.first_hit, expr) == \
                    _first_hit(expr, envs), str(expr)
                if rows is lasso:  # position 0 is the highest bit
                    value, err = got
                    hit, fail = (value & ~err).bit_length(), err.bit_length()
                    want = _first_hit(expr, envs[::-1])
                    scans["raises" if _raises(want) else
                          "misses" if want[1] is None else "hits"] += 1
                    if _raises(want):
                        assert fail > hit, str(expr)
                    elif want[1] is None:
                        assert hit == fail == 0, str(expr)
                    else:
                        assert hit == len(envs) - want[1] > fail, str(expr)
    assert min(taken.values()) > 1000, taken
    # goals that hold, raise first, and neither, in the scan
    assert min(scans.values()) > 200, scans


def _step_forms(model) -> tuple:
    """run() as a replay compiles it, and expand() under a full column,
    each lowered afresh."""
    run = compiled.CompiledModel(model).run
    expand = compiled.CompiledModel(model).expand
    assert run.__name__ == "run" and expand.__name__ == "expand"
    return run, expand


def _any_outcome(fn, *args):
    """Typed state values fn returns, or the class and message of whatever
    it raises."""
    try:
        return _typed(fn(*args))
    except Exception as err:  # both forms must raise alike, whatever it is
        return type(err), str(err)


def test_run_matches_full_column_expand(monkeypatch):
    # the straight-line step and the search's expand() under a full column
    # give the same successor or raise the same error, from reached states
    # and from states drawn from the values a read can see
    rng = random.Random(2121)
    models = []
    for i in range(150):
        model = randgen.random_model(rng, name=f"r{i}")
        if i % 2:
            model = _faulty(rng, model)
        if i % 3 == 2:
            model = _outside_init(rng, model)
        models.append(model)
    models += [parse_model(text) for text, *_ in _CORNERS.values()]
    models += [casegen.build(kind, 2).model for kind in ("elevator", "pnp")]
    seen = {"successor": 0, "raised": 0}
    for nested in (compiled._NESTED_LOOPS, 1):
        monkeypatch.setattr(compiled, "_NESTED_LOOPS", nested)
        for model in models:
            run, expand = _step_forms(model)
            state = init_state(model)
            for k in range(12):
                if k % 4 == 3:
                    state = tuple(rng.choice(_read_values(model, v.name))
                                  for v in model.state_variables())
                column = tuple(rng.choice(list(v.domain.values()))
                               for v in model.nondet_variables())
                want = _any_outcome(expand, state, column)
                assert _any_outcome(run, state, column) == want, \
                    (model, state, column)
                if isinstance(want[0], type):
                    seen["raised"] += 1
                    state = init_state(model)
                else:
                    seen["successor"] += 1
                    state = expand(state, column)
    assert seen["raised"] > 300 and seen["successor"] > 2000, seen


# Models where, at the same leaf, an assignment to a derived variable (one
# whose value follows from the successor's other values) and a later one to
# a free variable both raise, each with the error the search raises.
_ERROR_ORDER = {
    # d divides by the successor's y, which is 0 where f leaves its domain
    "divide": ("""model divide;
nondet go : bool;
input g : bool = false;
input y : int 0..1 = 1;
output d : int -9..9 = 0;
output f : int 0..3 = 0;
plant {
  g = go;
  y = f == 3 ? 0 : 1;
}
controller {
  d = 6 / y;
  f = f + 1;
}
""", EvalError, "division by zero"),
    # d needs a run-time domain test, which fails where f divides by zero
    "tested": ("""model tested;
nondet go : bool;
input y : int 0..2 = 0;
output d : int 0..9 = 8;
output f : int -9..9 = 1;
plant {
  y = go && y < 2 ? y + 1 : y;
}
controller {
  d = y + 8;
  f = 3 / (y - 2);
}
""", DomainViolation, "controller assignment 1: value 10 outside domain of 'd'"),
    # d cannot raise; the free f after it does, at the leaf d is finished on
    "finished": ("""model finished;
nondet go : bool;
input y : int 0..2 = 0;
output d : bool = false;
output e : bool = false;
output f : int -9..9 = 1;
plant {
  y = go && y < 2 ? y + 1 : y;
}
controller {
  d = y == 2;
  e = d && y > 0;
  f = 3 / (y - 2);
}
""", EvalError, "division by zero"),
    # the derived d reads the free g, whose domain test fails first
    "free_first": ("""model free_first;
nondet go : bool;
input y : int 0..2 = 0;
output g : int 0..2 = 0;
output d : int -9..9 = 0;
plant {
  y = go && y < 2 ? y + 1 : y;
}
controller {
  g = g + y;
  d = 6 / (g - 3);
}
""", DomainViolation, "controller assignment 1: value 3 outside domain of 'g'"),
    # u, never assigned, holds a string, given as its init where the model
    # is not validated, so d's comparison fails on the step f fails on
    "untyped": ("""model untyped;
nondet go : bool;
input g : bool = false;
input u : int 0..3 = 0;
output d : bool = false;
output f : int 0..3 = 0;
plant {
  g = go;
}
controller {
  d = u < 2;
  f = f + 4;
}
""", TypeError, "'<' not supported between instances of 'str' and 'int'",
                {"u": "zz"}),
}


@pytest.mark.parametrize("name", sorted(_ERROR_ORDER))
def test_search_raises_the_first_error_of_the_step(name, monkeypatch):
    text, error, message, *inits = _ERROR_ORDER[name]
    model = parse_model(text)
    assert validate_model(model) == []
    for var, init in (inits[0] if inits else {}).items():
        model = ClosedLoopModel(
            name=model.name, plant=model.plant, controller=model.controller,
            variables=tuple(v._replace(init=init) if v.name == var else v
                            for v in model.variables))
    for nested in (compiled._NESTED_LOOPS, 1):
        monkeypatch.setattr(compiled, "_NESTED_LOOPS", nested)
        model._compiled = None
        with pytest.raises(error) as raised:
            BoundedExplorer(model, 8).find(Lit(False))
        assert type(raised.value) is error and str(raised.value) == message


def _all_free(model):
    """The model with v = v appended for each state variable it assigns:
    the same step, under which no variable is derived, so the search
    dedupes on whole states."""
    assigned = {asn.target for block in (model.plant, model.controller)
                for asn in block.assignments}
    again = tuple(Assignment(v.name, Ref(v.name))
                  for v in model.state_variables() if v.name in assigned)
    return ClosedLoopModel(
        name=model.name, variables=model.variables, plant=model.plant,
        controller=UpdateBlock(model.controller.assignments + again))


# a successor has the root's free components, but the root's derived d is
# not what d's assignment gives, as the elevator's on_floor[0] is not
_ROOT_UNDERIVED = """model root_underived;
nondet go : bool;
input x : int 0..2 = 0;
output d : bool = false;
plant {
  x = go ? (x < 2 ? x + 1 : 0) : x;
}
controller {
  d = x == 0;
}
"""

# the same, with the root's d what its assignment gives: the root again
_ROOT_DERIVED = _ROOT_UNDERIVED.replace("d : bool = false", "d : bool = true")


def test_keyed_search_matches_whole_state_search(monkeypatch):
    # The search dedupes successors on their free components; on the same
    # step with every variable free it dedupes on whole states, as the
    # reference does.  Both find the same nodes, parents, columns and
    # branch steps, or raise the same error.
    monkeypatch.setattr(testgen, "SYMBOLIC_HANDOFF_STEPS", 10 ** 18)
    rng = random.Random(2323)
    models = []
    for i in range(120):
        model = randgen.random_model(rng, name=f"k{i}")
        if i % 3 == 1:
            model = _faulty(rng, model)
        if i % 4 == 3:
            model = _outside_init(rng, model)
        models.append((model, rng.randint(2, 5)))
    models += [(parse_model(text), bound + 2)
               for text, bound, *_ in _CORNERS.values()]
    models += [(parse_model(text), 6) for text, *_ in _ERROR_ORDER.values()]
    models += [(parse_model(text), 4)
               for text in (_ROOT_UNDERIVED, _ROOT_DERIVED)]
    models += [(casegen.build(kind, 2).model, 8) for kind in ("elevator",
                                                            "pnp")]
    seen = dict.fromkeys(("derived", "deferred", "raised", "root again",
                          "root's key"), 0)

    def search(model, bound):
        model._compiled = None
        explorer = BoundedExplorer(model, bound)
        try:
            explorer.find(Lit(False))
        except ModelError as err:
            return (type(err), str(err)), explorer
        return (explorer._steps, explorer.nodes, explorer.parents,
                explorer.columns), explorer

    for nested in (compiled._NESTED_LOOPS, 1):
        monkeypatch.setattr(compiled, "_NESTED_LOOPS", nested)
        for model, bound in models:
            got, explorer = search(model, bound)
            assert search(_all_free(model), bound)[0] == got, model
            key = model.compiled().key
            root = init_state(model)
            seen["derived"] += len(key(root)) < len(root)
            # an assignment runs between the key's test and the successor
            source = model.compiled()._source({}, True)
            at = next(i for i, line in enumerate(source) if "(key := " in line)
            seen["deferred"] += "return" not in source[at + 1]
            if isinstance(got[0], type):
                seen["raised"] += 1
                assert isinstance(_layers_or_error(
                    oracles.reference_layers, model, bound), type), model
                continue
            assert _explored_layers(model, bound) == \
                oracles.reference_layers(model, bound), model
            if key(root) in explorer._visited:  # a successor had its key
                shared = key(root) in map(key, explorer.nodes[1:])
                seen["root's key" if shared else "root again"] += 1
    assert seen["derived"] > 60 and seen["deferred"] > 30 \
        and seen["raised"] > 30 and seen["root again"] > 60 \
        and seen["root's key"] > 10, seen
