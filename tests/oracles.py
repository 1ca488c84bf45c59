"""Independent reference implementations the tests compare against.

Everything here favors the dumbest correct algorithm: expressions and steps
by walking the expression tree over dict environments, lassos by stepping
until a (row, state) pair repeats, formula evaluation by literally walking
an unrolled path, reachability by enumerating every nondet sequence as a
tree without any visited bookkeeping, the breadth-first layers by stepping
every full nondet column, and tokens by a loop over characters.  Slow on
purpose.  Only the package's data classes and its ParseError and
StepCapExceeded are imported, never its evaluators.
"""

from itertools import product

from looptest.dsl import ParseError

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
)
from looptest.model import (
    Binary,
    Cond,
    DomainViolation,
    EvalError,
    Lit,
    Ref,
    Unary,
)
from looptest.sim import LassoTrace, StepCapExceeded


def reference_eval(expr, env):
    """Evaluate an expression over a dict environment by walking its tree.

    Boolean connectives short-circuit.  Integer division and mod are
    floored; by zero they raise EvalError.
    """
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Ref):
        try:
            return env[expr.name]
        except KeyError:
            raise EvalError(f"undefined variable '{expr.name}'") from None
    if isinstance(expr, Unary):
        value = reference_eval(expr.operand, env)
        return (not value) if expr.op == "!" else -value
    if isinstance(expr, Binary):
        op = expr.op
        lhs = reference_eval(expr.lhs, env)
        if op == "&&":
            return bool(lhs) and bool(reference_eval(expr.rhs, env))
        if op == "||":
            return bool(lhs) or bool(reference_eval(expr.rhs, env))
        if op == "->":
            return (not lhs) or bool(reference_eval(expr.rhs, env))
        rhs = reference_eval(expr.rhs, env)
        if op in ("/", "mod") and rhs == 0:
            raise EvalError("division by zero" if op == "/"
                            else "mod by zero")
        return {
            "+": lambda: lhs + rhs, "-": lambda: lhs - rhs,
            "*": lambda: lhs * rhs, "/": lambda: lhs // rhs,
            "mod": lambda: lhs % rhs,
            "==": lambda: lhs == rhs, "!=": lambda: lhs != rhs,
            "<": lambda: lhs < rhs, "<=": lambda: lhs <= rhs,
            ">": lambda: lhs > rhs, ">=": lambda: lhs >= rhs,
        }[op]()
    if isinstance(expr, Cond):
        if reference_eval(expr.cond, env):
            return reference_eval(expr.then, env)
        return reference_eval(expr.other, env)
    raise TypeError(f"unknown expression node {expr!r}")


def reference_tokenize(text):
    """Split .clm/.ltl text into (kind, text, line, col) tuples, the last of
    kind "eof", one character at a time.  Blanks and // comments take no
    token, integers are ASCII digits, and identifiers start with str.isalpha
    or '_' and go on with str.isalnum or '_'.  Any other character raises
    ParseError("stray character ...") at its line and column.
    """
    tokens = []
    line = col = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif text.startswith("//", i):
            while i < len(text) and text[i] != "\n":
                i += 1
        elif "0" <= ch <= "9":
            start = i
            while i < len(text) and "0" <= text[i] <= "9":
                i += 1
            tokens.append(("int", text[start:i], line, col))
            col += i - start
        elif ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            if word == "expect" and text[i:i + 5] in ("-pass", "-fail"):
                word += text[i:i + 5]
                i += 5
            tokens.append(("id", word, line, col))
            col += len(word)
        elif text[i:i + 2] in ("->", "==", "!=", "<=", ">=", "&&", "||", ".."):
            tokens.append(("punct", text[i:i + 2], line, col))
            i += 2
            col += 2
        elif ch in "+-*/<>=!(){}[],:;?":
            tokens.append(("punct", ch, line, col))
            i += 1
            col += 1
        else:
            raise ParseError(f"stray character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


def _state_names(model):
    return [v.name for v in model.state_variables()]


def reference_root(model):
    """The initial state: every state variable at its init value, as a
    tuple in declaration order."""
    return tuple(v.init for v in model.state_variables())


def reference_step(model, state, nondet):
    """One step by walking the assignment expressions over a dict.

    The state is a tuple over the state variables in declaration order.
    Nondet values are checked first, in declaration order, then the plant
    and the controller assignments run in source order, each read seeing
    the latest value, and each result is checked against its target's
    domain.
    """
    names = _state_names(model)
    env = dict(zip(names, state))
    for v in model.nondet_variables():
        value = nondet[v.name]
        if not v.domain.contains(value):
            raise DomainViolation(v.name, value, "nondet value")
        env[v.name] = value
    for block_name, block in (("plant", model.plant),
                              ("controller", model.controller)):
        for i, asn in enumerate(block.assignments):
            value = reference_eval(asn.expr, env)
            if not model.var(asn.target).domain.contains(value):
                raise DomainViolation(asn.target, value,
                                      f"{block_name} assignment {i + 1}")
            env[asn.target] = value
    return tuple(env[n] for n in names)


def reference_lasso(model, case, step_cap):
    """The lasso a test case induces: reference_step applies its rows,
    cyclically, until a (step index mod L, state) pair repeats.  Raises
    StepCapExceeded once position step_cap is new."""
    rows = [dict(zip(case.variables, row)) for row in case.rows]
    seen = {}  # (k mod L, state) -> k
    states = []
    state = reference_root(model)
    k = 0
    while (k % len(rows), state) not in seen:
        if k >= step_cap:
            raise StepCapExceeded(
                f"no lasso within {step_cap} steps for test '{case.tid}'")
        seen[k % len(rows), state] = k
        states.append(state)
        state = reference_step(model, state, rows[k % len(rows)])
        k += 1
    start = seen[k % len(rows), state]
    return LassoTrace(
        model=model, case=case, states=states,
        nondet=[None] + [rows[j % len(rows)] for j in range(k - 1)],
        prefix_len=start, loop_len=k - start,
        wrap_nondet=rows[(k - 1) % len(rows)])


def lasso_positions(trace):
    """Position environments of a trace, rebuilt from its raw fields.

    Returns (envs, prefix) in a shape where the loop re-entry is spelled out
    explicitly: the whole first pass becomes the prefix and the loop body
    starts with the wrap environment.  For traces whose loop starts after
    position 0 this is a redundant but equivalent unrolling, which is the
    point: it never takes the shortcut the production code takes.
    """
    names = _state_names(trace.model)
    defaults = trace.model.nondet_defaults()
    envs = []
    for k, state in enumerate(trace.states):
        env = dict(zip(names, state))
        env.update(defaults if trace.nondet[k] is None else trace.nondet[k])
        envs.append(env)
    wrap = dict(zip(names, trace.states[trace.prefix_len]))
    wrap.update(trace.wrap_nondet)
    unrolled = envs + [wrap] + envs[trace.prefix_len + 1:]
    return unrolled, len(envs)


def path_eval(formula, envs, prefix, position=0):
    """Evaluate a formula on a lasso by scanning explicit paths.

    envs[prefix:] repeats forever.  Temporal operators walk the position
    sequence directly: from position i the future consists of i..end plus
    one full loop, which visits every reachable environment at least once.
    """
    return path_evaluator(envs, prefix)(formula, position)


def path_evaluator(envs, prefix):
    """path_eval on one lasso as a function of (formula, position).

    Calls share one cache of (subformula, position) values, so asking every
    position of a long lasso costs one scan per subformula and position
    instead of one per call.  The cache is keyed by node identity: use one
    evaluator per formula object, kept alive while the evaluator is used.
    """
    m = len(envs)
    cache = {}

    def future(i):
        return list(range(i, m)) + list(range(prefix, m))

    def ev(node, i):
        key = (id(node), i)
        if key in cache:
            return cache[key]
        if isinstance(node, Atom):
            value = bool(reference_eval(node.expr, envs[i]))
        elif isinstance(node, Not):
            value = not ev(node.operand, i)
        elif isinstance(node, And):
            value = ev(node.lhs, i) and ev(node.rhs, i)
        elif isinstance(node, Or):
            value = ev(node.lhs, i) or ev(node.rhs, i)
        elif isinstance(node, Implies):
            value = not ev(node.lhs, i) or ev(node.rhs, i)
        elif isinstance(node, Next):
            value = ev(node.operand, i + 1 if i + 1 < m else prefix)
        elif isinstance(node, Finally):
            value = any(ev(node.operand, j) for j in set(future(i)))
        elif isinstance(node, Globally):
            value = all(ev(node.operand, j) for j in set(future(i)))
        elif isinstance(node, Until):
            value = False
            seq = future(i)
            for k, j in enumerate(seq):
                if ev(node.rhs, j):
                    value = all(ev(node.lhs, seq[x]) for x in range(k))
                    break
        else:
            raise TypeError(f"unknown formula node {node!r}")
        cache[key] = value
        return value

    return ev


def eval_trace(formula, trace, position=0):
    """path_eval over a trace's reconstructed position environments."""
    envs, prefix = lasso_positions(trace)
    return path_eval(formula, envs, prefix, position)


def all_columns(model):
    """Every nondet assignment for one step, as dicts, in domain order."""
    names = [v.name for v in model.nondet_variables()]
    spaces = [v.domain.values() for v in model.nondet_variables()]
    return [dict(zip(names, combo)) for combo in product(*spaces)]


def shortest_hit(model, predicate, max_len):
    """Length of the shortest nondet sequence reaching the predicate.

    Enumerates the full tree of nondet sequences level by level, no state
    dedup, and checks the predicate on each position environment (state plus
    the values applied by the incoming step; domain defaults at the root).
    Returns None when no sequence of length <= max_len reaches it.
    """
    return shortest_hits(model, [predicate], max_len)[0]


def shortest_hits(model, predicates, max_len):
    """shortest_hit for many predicates in one tree walk."""
    hits = [None] * len(predicates)
    pending = set(range(len(predicates)))

    def check(env, depth):
        for i in list(pending):
            if reference_eval(predicates[i], env):
                hits[i] = depth
                pending.discard(i)

    names = _state_names(model)
    columns = all_columns(model)
    root = reference_root(model)
    env = dict(zip(names, root))
    env.update(model.nondet_defaults())
    check(env, 0)
    level = [root]
    for depth in range(1, max_len + 1):
        if not pending:
            break
        grown = []
        for state in level:
            for column in columns:
                after = reference_step(model, state, column)
                env = dict(zip(names, after))
                env.update(column)
                check(env, depth)
                grown.append(after)
        level = grown
    return hits


def reference_layers(model, max_len):
    """Breadth-first layers up to max_len steps, stepping every full column.

    Each layer lists its new nodes as (state values, parent index, column),
    where node indices count from the root (0) across layers and the root's
    layer is [(root values, -1, None)].  A new state belongs to the first
    parent, in node order, that reaches it, with the lexicographically
    least full column (declaration order, then domain order) from that
    parent; each parent's new states come in the order of those columns.
    Stops early once a layer adds nothing.
    """
    columns = all_columns(model)
    root = reference_root(model)
    layers = [[(root, -1, None)]]
    seen = {root}
    frontier = [(0, root)]
    count = 1
    for _ in range(max_len):
        layer = []
        grown = []
        for idx, state in frontier:
            for column in columns:
                after = reference_step(model, state, column)
                if after not in seen:
                    seen.add(after)
                    layer.append((after, idx, tuple(column.values())))
                    grown.append(after)
        if not layer:
            break
        frontier = [(count + i, state) for i, state in enumerate(grown)]
        count += len(layer)
        layers.append(layer)
    return layers
