"""The compiled step, the set lowering of goals and atoms, and the search
that drives the compiled step against the tree-walking references in
oracles.py: same values, same exception class and message."""

import random
from itertools import islice, product

import pytest

from looptest import casegen, compiled, ltl, testgen
from looptest.dsl import parse_model
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
    RowSets,
    Unary,
    UpdateBlock,
    Variable,
    VarKind,
    eval_expr,
    init_state,
    lower_set,
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


def _expand_code(model) -> list:
    """The code of the compiled expand() and of the functions it goes on
    in past its nesting limit, each the default of the one before."""
    codes = []
    fn = model.compiled().expand
    while fn is not None:
        codes.append(fn.__code__)
        fn = fn.__defaults__[-1] if fn.__defaults__ else None
    return codes


def _tested(model) -> list:
    """The DomainViolation where of each assignment the compiled step
    tests at run time."""
    return [c for code in _expand_code(model) for c in code.co_consts
            if isinstance(c, str) and " assignment " in c]


def _names(model) -> set:
    """The global names the compiled expand() reads."""
    return {name for code in _expand_code(model) for name in code.co_names}


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
        rows = RowSets(model, [[e[v.name] for v in model.variables]
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


def test_short_circuit_hides_undefined_variables():
    model = randgen._SYN_MODEL
    rows = RowSets(model, [model.compiled().row((True, False, 0), {})])
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
                explorer.rows)

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
