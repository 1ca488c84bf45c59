"""The lowerings of expressions and a model lowered to compiled Python,
loaded on first use: loading a model needs none of it.

lower_expr lowers an expression to a template of Python source reading
slot i as the field {i}, for str.format to name the local holding its
value where the source runs.  Division and mod are floored and raise
EvalError by zero, and an error is raised only where a left-to-right,
short-circuiting evaluation reaches the failing node.

lower_set lowers it to the sets where it takes each value or fails, over
any algebra of sets: the BDDs of symbolic.py, or RowSets, where a set of
rows is one integer bitmask, so a coverage goal or an LTL atom is decided
over many rows at once without compiling anything; RowSets.lower decides
a variable, !b and x == v by one lookup of the variable's masks instead.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Mapping
from functools import partial
from itertools import count, groupby
from operator import itemgetter

from .model import (UNSET, Binary, BoolDomain, ClosedLoopModel, Cond,
                    DomainViolation, EnumDomain, EvalError, Expr, IntRange,
                    Lit, Ref, Unary, Variable, VarKind, _fold, eval_expr)


def floor_div(a: int, b: int) -> int:
    """Floored a / b; division by zero raises EvalError."""
    if b == 0:
        raise EvalError("division by zero")
    return a // b


def floor_mod(a: int, b: int) -> int:
    """Floored a mod b; mod by zero raises EvalError."""
    if b == 0:
        raise EvalError("mod by zero")
    return a % b


def _raise(message: str, *_operands):
    raise EvalError(message)


_HELPERS = {"floor_div": floor_div, "floor_mod": floor_mod, "_raise": _raise,
            "_violation": DomainViolation, "UNSET": UNSET}

# Python binding strength of each emitted form, larger binds tighter:
# 1 conditional, 2 or, 3 and, 4 not, 5 comparison, 6 + -, 7 * // %, 8
# unary minus, 9 atoms and calls.  Binary entries map a model operator to
# its Python one, its own strength and the strengths its operands need;
# comparisons never chain.
_BINARY = {
    "||": ("or", 2, 2, 2),
    "&&": ("and", 3, 3, 3),
    "==": ("==", 5, 6, 6), "!=": ("!=", 5, 6, 6),
    "<": ("<", 5, 6, 6), "<=": ("<=", 5, 6, 6),
    ">": (">", 5, 6, 6), ">=": (">=", 5, 6, 6),
    "+": ("+", 6, 6, 7), "-": ("-", 6, 6, 7),
    "*": ("*", 7, 7, 8),
}

#: braces doubled, so that text passes through str.format as it is
_BRACES = str.maketrans({"{": "{{", "}": "}}"})


def lower_expr(expr: Expr, slot_of: Mapping[str, int],
               memo: dict | None = None) -> str:
    """An expression's source template over slot_of, memo as for _fold."""
    return _fold(expr, partial(_emit, slot_of), memo)[0]


def _emit(slot_of, node: Expr, parts: list) -> tuple:
    """(template, binding strength) of a node, given those of its
    children."""
    cls = node.__class__
    if cls is Lit:
        text = repr(node.value).translate(_BRACES)
        return text, 8 if text.startswith("-") else 9
    if cls is Ref:
        slot = slot_of.get(node.name)
        if slot is not None:
            return f"{{{slot}}}", 9
        message = f"undefined variable '{node.name}'"
    elif cls is Unary:
        return (f"not {_arg(parts[0], 4)}", 4) if node.op == "!" \
            else (f"-{_arg(parts[0], 8)}", 8)
    elif cls is Cond:
        a, b, c = parts
        return f"{_arg(b, 2)} if {_arg(a, 2)} else {c[0]}", 1
    elif cls is Binary:
        (a, b), op = parts, node.op
        if op == "->":
            return f"not {_arg(a, 4)} or {_arg(b, 2)}", 2
        if op in _BINARY:
            py, level, left, right = _BINARY[op]
            return f"{_arg(a, left)} {py} {_arg(b, right)}", level
        if op in ("/", "mod") and node.rhs.__class__ is Lit \
                and node.rhs.value.__class__ is int and node.rhs.value:
            # Python's // and % floor, and raise only by zero
            return f"{_arg(a, 7)} {'//' if op == '/' else '%'} " \
                   f"{_arg(b, 8)}", 7
        # an unknown operator raises after evaluating both operands
        message = f"unknown operator '{op}'"
        call = {"/": "floor_div(", "mod": "floor_mod("}.get(
            op, f"_raise({message!r}, ".translate(_BRACES))
        return f"{call}{a[0]}, {b[0]})", 9
    else:
        message = f"cannot evaluate {node!r}"
    return f"_raise({message!r})".translate(_BRACES), 9


def _arg(part: tuple, need: int) -> str:
    text, level = part
    return text if level >= need else f"({text})"


def _read_points(expr: Expr, present: list, memo: dict, slot_of) -> list:
    """(slot, condition) of each loop an assignment reading the nondet
    slots present needs, in evaluation order: one per run of reads of a
    slot, the condition a source template that holds where evaluation
    reaches one of the run's reads."""
    runs = [(present[0], range(1 << 62))]  # every read of the one slot
    if len(present) > 1:
        slots = []  # the slot of each nondet read, in evaluation order
        stack = [expr]
        while stack:
            node = stack.pop()
            if node.__class__ is Ref and slot_of.get(node.name) in present:
                slots.append(slot_of[node.name])
            stack.extend(reversed(node.kids))
        runs = []
        for slot, run in groupby(slots):  # counted among the slot's reads
            first = sum(len(r) for s, r in runs if s == slot)
            runs.append((slot, range(first, first + len(list(run)))))
    points = []
    for slot, run in runs:
        field = f"{{{slot}}}"
        reads = partial(_reads, run, count(), slot, memo, slot_of)
        # subtrees whose templates do not read the slot are left out
        points.append((slot, _fold(expr, reads, None, lambda node: (
            node.kids if node.kids and field in memo[node][0] else ()))[0]))
    return points


_TRUE = ("True", 9)


def _reads(run, numbers, slot, memo, slot_of, node, parts):
    """(template, binding strength) of the source that holds where the
    evaluation of node reaches a read of slot numbered in run, given those
    of its children, or None where it never does.  It evaluates what the
    expression evaluates before the read, in the same order, so it raises
    where the expression raises."""
    if node.__class__ is Ref:
        read = slot_of.get(node.name) == slot and next(numbers) in run
        return _TRUE if read else None
    if parts.count(None) == len(parts):
        return None
    if node.__class__ is Unary:
        return parts[0]
    before = node.cond if node.__class__ is Cond else node.lhs
    text = memo.get(before) or _emit(slot_of, before, ())
    if node.__class__ is Cond:
        guard, then, other = parts
        if then is None and other is None:
            branch = None
        elif then is None or other is None:
            branch = _and(text, then) if other is None \
                else _and((f"not {_arg(text, 4)}", 4), other)
        elif then is _TRUE:
            branch = _or(text, other)
        elif other is _TRUE:
            branch = _or((f"not {_arg(text, 4)}", 4), then)
        else:
            branch = f"{_arg(then, 2)} if {_arg(text, 2)} else " \
                     f"{other[0]}", 1
        return _or(guard, branch)
    left, right = parts
    if right is not None and node.op in ("&&", "->"):
        right = _and(text, right)
    elif right is not None and node.op == "||":
        right = _and((f"not {_arg(text, 4)}", 4), right)
    elif right is not None and before.__class__ is not Lit and not (
            before.__class__ is Ref and before.name in slot_of):
        # a strict operand, evaluated for what it raises
        right = _and((f"{_arg(text, 2)} or True", 2), right)
    return _or(left, right)


def _and(a: tuple, b: tuple) -> tuple:
    return a if b is _TRUE else (f"{_arg(a, 3)} and {_arg(b, 3)}", 3)


def _or(a: tuple | None, b: tuple | None) -> tuple | None:
    if a is None or b is None or a is _TRUE:
        return b if a is None else a
    return f"{_arg(a, 2)} or {_arg(b, 2)}", 2


# --------------------------------------------------------------------------
# Lowering to sets: where an expression takes each value, and where it fails
#
# An algebra of sets provides true (the set of everything), and_, or_,
# not_ and iff; false is 0.  A boolean expression lowers to one set, any
# other to a map from each value it can take to the set where it takes it,
# in the style of Bryant 1986.  Next to the value goes the set where
# evaluating it raises, under the same short-circuit rules as lower_expr.

_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.floordiv, "mod": operator.mod}


def lower_set(expr: Expr, env, algebra, memo: dict | None = None) -> tuple:
    """(value, error) of an expression over sets of the algebra.

    env.get(name) is a variable's value: a set for a bool, else a map from
    each value to its set.  A name env does not hold fails everywhere.
    memo keeps the (value, error) of every subexpression lowered over the
    same env, so later expressions sharing them skip their lowering.
    """
    return _fold(expr, lambda node, parts: _set_of(node, parts, env, algebra),
                 {} if memo is None else memo)


def _as_map(value, alg) -> dict:
    # a bool's set as the value map eval_expr reads next to an int's
    return value if isinstance(value, dict) else \
        {True: value, False: alg.not_(value)}


def _set_of(node: Expr, parts: list, env, alg) -> tuple:
    """(value, error) of a node, given those of its children."""
    if isinstance(node, Lit):
        if isinstance(node.value, bool):
            return (alg.true if node.value else 0), 0
        return {node.value: alg.true}, 0
    if isinstance(node, Ref):
        value = env.get(node.name)
        return (0, alg.true) if value is None else (value, 0)
    if isinstance(node, Unary):
        ((value, err),) = parts
        if node.op == "!":
            return alg.not_(value), err
        return {-x: g for x, g in _as_map(value, alg).items()}, err
    and_, or_ = alg.and_, alg.or_
    if isinstance(node, Binary):
        (a, err_a), (b, err_b) = parts
        op = node.op
        if op == "&&":
            return and_(a, b), or_(err_a, and_(a, err_b))
        if op == "||":
            return or_(a, b), or_(err_a, and_(alg.not_(a), err_b))
        if op == "->":
            return or_(alg.not_(a), b), or_(err_a, and_(a, err_b))
        err = or_(err_a, err_b)
        if op in ("==", "!=") and not isinstance(a, dict) \
                and not isinstance(b, dict):
            same = alg.iff(a, b)
            return (same if op == "==" else alg.not_(same)), err
        compare = _COMPARE.get(op)
        arith = _ARITH.get(op)
        if compare is None and arith is None:
            return 0, alg.true
        out = 0 if compare else {}
        for x, gx in _as_map(a, alg).items():
            for y, gy in _as_map(b, alg).items():
                guard = and_(gx, gy)
                if guard == 0:
                    continue
                if compare:
                    if compare(x, y):
                        out = or_(out, guard)
                elif y == 0 and op in ("/", "mod"):
                    err = or_(err, guard)
                else:
                    r = arith(x, y)
                    out[r] = or_(out.get(r, 0), guard)
        return out, err
    if not isinstance(node, Cond):
        return 0, alg.true
    (c, err_c), (then, err_t), (other, err_o) = parts
    not_c = alg.not_(c)
    err = or_(err_c, or_(and_(c, err_t), and_(not_c, err_o)))
    if not isinstance(then, dict) and not isinstance(other, dict):
        return or_(and_(c, then), and_(not_c, other)), err
    out = {}
    for arm, guard_arm in ((then, c), (other, not_c)):
        for x, g in _as_map(arm, alg).items():
            guard = and_(guard_arm, g)
            if guard:
                out[x] = or_(out.get(x, 0), guard)
    return out, err


class RowSets:
    """The algebra of sets of rows, each set an integer bitmask with bit i
    for row i, and the env of those rows for lower_set.  Row i is the state
    states[i] under the nondet column columns[i] (see CompiledModel).

    A variable's value over the rows is built on its first read, from the
    states or the columns taken apart once: one mask for a bool, else one
    mask per value it takes.
    """

    def __init__(self, model: ClosedLoopModel, states: list, columns: list):
        self.model = model
        self.states = states
        self.columns = columns
        self.true = (1 << len(states)) - 1
        self._values = {}
        self._memo = {}
        self._split = {}  # nondet or not -> each variable's values

    and_ = operator.and_
    or_ = operator.or_

    def not_(self, u: int) -> int:
        return self.true ^ u

    def iff(self, u: int, v: int) -> int:
        return self.true ^ u ^ v

    def get(self, name: str):
        value = self._values.get(name)
        if value is None and self.model.has_var(name):
            nondet = self.model.var(name).kind is VarKind.NONDET
            if nondet not in self._split:
                # row 0 is the last digit, so it lands in bit 0
                self._split[nondet] = list(zip(*reversed(
                    self.columns if nondet else self.states))) \
                    or [()] * len(self.model.variables)
            column = self._split[nondet][self.model.compiled().index[name]]
            if isinstance(self.model.var(name).domain, BoolDomain):
                try:
                    digits = bytes(column)
                except (TypeError, ValueError):  # not all in range(256)
                    digits = bytes(map(operator.truth, column))
                value = int(b"0" + digits.translate(_DIGITS), 2)
            else:
                value = {x: int("0" + "".join(["1" if y == x else "0"
                                               for y in column]), 2)
                         for x in set(column)}
            self._values[name] = value
        return value

    def lower(self, expr: Expr) -> tuple:
        """lower_set over these rows, sharing subexpressions across calls.
        A variable, !b of a bool b, and x == v of a non-bool x and a
        literal v not a bool each take one lookup of the variable's value."""
        cls = expr.__class__
        if cls is Ref:
            value = self.get(expr.name)
            return (0, self.true) if value is None else (value, 0)
        if (cls is Unary or cls is Binary) and expr.kids[0].__class__ is Ref:
            value = self.get(expr.kids[0].name)
            if expr.op == "!" and value.__class__ is int:
                return self.true ^ value, 0
            lit = expr.kids[-1]
            if expr.op == "==" and value.__class__ is dict and lit.__class__ \
                    is Lit and lit.value.__class__ is not bool:
                return value.get(lit.value, 0), 0
        return lower_set(expr, self, self, self._memo)

    def first_hit(self, expr: Expr):
        """Index of the first row where the expression holds, or None.
        Where a row fails before that, its error is raised."""
        value, err = self.lower(expr)
        hit = value & ~err
        if err and not (hit and hit & -hit < err & -err):
            self.fail(expr, err & -err)
        return (hit & -hit).bit_length() - 1 if hit else None

    def fail(self, expr: Expr, bit: int):
        """Raise what evaluating the expression raises on the row of a
        one-bit mask."""
        i = bit.bit_length() - 1
        eval_expr(expr, dict(zip(self.model.compiled().index,
                                 (*self.columns[i], *self.states[i]))))
        raise RuntimeError(f"set lowering of {expr} disagrees with eval_expr")


#: bools as bytes to binary digits, by truth: every byte but 0 is true
_DIGITS = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)


#: Loops nested in one generated function, short of CPython's 20 blocks
_NESTED_LOOPS = 16


class CompiledModel:
    """A model lowered to compiled Python: run() steps a state.

    A position is a state and a nondet column, the tuple of the nondet
    values in the order of model.nondet_variables(); index maps each nondet
    variable, then each state variable, to its index in the one or the
    other.  column(nondet) gives the column of a mapping from names to
    values, row((*column, *state)) the position's row: one value per
    declared variable, in declaration order.  step() tests a column's
    domains and passes it to run().

    Nothing is compiled up front.  run(s, column) gives the successor of s
    under a full column.  Asked for before any search, as a replay asks for
    it, it compiles on its own as straight-line code: the assignments and
    their domain tests in order, with no branching.  expand() is compiled
    when a search (testgen.BoundedExplorer) first asks for it, and from
    then on run is expand itself, whose defaults make expand(s, column) the
    same step.

    expand(s, column, visited, best, steps, limit, over) keeps assigned
    values in fresh locals and loops over a nondet variable's domain where
    it is read while UNSET.  Under a full column it returns the successor.
    Else each leaf whose successor's key is not in visited and whose
    column (unread values first) ranks lowest so far for that key sets
    best[key] = (rank, successor, column), unread values taking their
    domain's first, and steps counts the state and each branching
    iteration, calling over(steps) past limit; expand returns it.

    A successor's key, key(successor), is the tuple of its free
    components.  A state variable is derived when its final assignment
    reads only final values, those of variables assigned before it for the
    last time or never assigned, so successors with equal keys are equal;
    the key holds every other state variable, in state order.  Assignments
    to derived variables after the last nondet loop that cannot raise, read
    only by other such assignments, run only once a leaf's key is new.  So
    both forms make the same assignments that can raise, domain tests and
    raises in the same order, and assigned values are proven at lowering
    or tested at run time to lie in their targets' domains.
    """

    def __init__(self, model: ClosedLoopModel):
        self._nondet = model.nondet_variables()
        # the model's fields, not the model, which holds this
        self._model_fields = tuple(model)
        self.index = {v.name: i for group in (self._nondet,
                                              model.state_variables())
                      for i, v in enumerate(group)}
        at = {name: i for i, name in enumerate(self.index)}  # in (*c, *s)
        self.column = _getter([v.name for v in self._nondet])
        self.row = _getter([at[v.name] for v in model.variables])

    def __getattr__(self, name: str):
        """Compile run() or expand() on first use; run is expand from then
        on."""
        if name not in ("run", "expand"):
            raise AttributeError(name)
        self.run = function = self._compile(name)
        if name == "expand":
            self.expand = function
        return function

    def step(self, state: tuple, nondet: Mapping | tuple) -> tuple:
        """The successor of state under the nondet values, named in a
        mapping or as a column, each tested against its domain first."""
        column = nondet if nondet.__class__ is tuple else self.column(nondet)
        for v, value in zip(self._nondet, column):
            if not v.domain.contains(value):
                raise DomainViolation(v.name, value, "nondet value")
        return self.run(state, column)

    def _compile(self, name: str):
        """The compiled function run or expand."""
        space = dict(_HELPERS)
        # the functions are kept out of their globals, which would make a
        # cycle that only the collector frees; each finds the function it
        # calls in a default argument, defined before it
        functions = {}
        exec(compile("\n".join(self._source(space, name == "expand")),
                     f"<looptest model {self._model_fields[0]}>", "exec"),
             space, functions)
        return functions[name]

    def _source(self, space: dict, search: bool) -> list:
        """The lines defining expand() and the functions it goes on in,
        setting key, or without search the lines defining run()."""
        _, variables, plant, controller = self._model_fields
        slot_of = {v.name: i for i, v in enumerate(variables)}
        nondet = {v.name: slot_of[v.name] for v in self._nondet}
        state = [slot for name, slot in slot_of.items() if name not in nondet]
        names = [f"x{slot}" for slot in slot_of.values()]
        lines = ["def expand(s, column, visited=None, best=None, steps=0, "
                 "limit=1, over=None",
                 "    if (steps := steps + 1) > limit: over(steps)"] \
            if search else ["def run(s, column"]
        lines += [f"    [{', '.join(names[slot] for slot in state)}] = s",
                  f"    [{', '.join(names[slot] for slot in nondet.values())}]"
                  " = column"]
        functions = [lines]  # expand() and those it goes on in
        read_sets = {v.name: _read_set(v) for v in variables}
        fields = [(slot, f"{{{slot}}}") for slot in nondet.values()] \
            if search else []
        memo = {}  # the template of every operator node, alike everywhere
        loops = fresh = 0  # loops open in the function being written
        # where each assigned slot takes its final value
        final = {slot_of[asn.target]: (block_name, i)
                 for block_name, block in (("plant", plant),
                                           ("controller", controller))
                 for i, asn in enumerate(block.assignments)} if search else {}
        # the fields of the slots whose final values are not known yet
        pending = {f"{{{slot}}}" for slot in (*final, *nondet.values())}
        derived = set()  # the slots whose final assignments read known ones
        tail = []  # (slot, template, lines, tested) since the last loop
        for block_name, block in (("plant", plant),
                                  ("controller", controller)):
            for i, asn in enumerate(block.assignments):
                template = lower_expr(asn.expr, slot_of, memo)
                present = [slot for slot, field in fields if field in template]
                if present:
                    lines += _placed(tail)
                    tail = []
                for slot, condition in _read_points(
                        asn.expr, present, memo, slot_of) if present else ():
                    old = names[slot]
                    test = f"{old} is UNSET" if condition == "True" else \
                        f"{old} is UNSET and ({condition})"
                    fresh += 1
                    new = names[slot] = f"x{slot}_{fresh}"
                    pad = "    " * (loops + 1)
                    lines += [f"{pad}for {new} in (D{slot} if "
                              f"{test.format(*names)} else ({old},)):",
                              f"{pad}    if {new} is not {old} and (steps := "
                              "steps + 1) > limit: over(steps)"]
                    loops += 1
                    if loops == _NESTED_LOOPS:
                        params = f"visited, best, steps, limit, over, " \
                                 f"{', '.join(names)}"
                        lines[0] += f", more=expand_{fresh}"
                        lines += [f"{pad}    steps = more({params})",
                                  f"{pad}    if visited is None:",
                                  f"{pad}        return steps  # successor",
                                  "    return steps"]
                        lines = [f"def expand_{fresh}({params}"]
                        functions.append(lines)
                        loops = 0
                pad = "    " * (loops + 1)
                target = slot_of[asn.target]
                fresh += 1
                new = f"x{target}_{fresh}"
                body = [f"{pad}{new} = {template.format(*names)}"]
                names[target] = new
                domain = variables[target].domain
                values = _fold((asn.expr, read_sets), _values_of, None,
                               _narrowed)
                if values is None or not all(domain.contains(x)
                                             for _, x in values):
                    where = f"{block_name} assignment {i + 1}"
                    body += [f"{pad}if not ({domain.test_source(new)}):",
                             f"{pad}    raise _violation({asn.target!r}, "
                             f"{new}, {where!r})"]
                if not search:
                    lines += body
                    continue
                if final[target] == (block_name, i) \
                        and asn.target not in nondet:
                    if pending.isdisjoint(_FIELD.findall(template)):
                        derived.add(target)
                    pending.discard(f"{{{target}}}")
                tail.append((target, template, body, len(body) > 1))
        successor = f"({''.join(names[slot] + ', ' for slot in state)})"
        if not search:
            return [lines[0] + "):", *lines[1:], f"    return {successor}"]
        pad = "    " * (loops + 1)
        tail, finish = self._deferred(tail, derived, final)
        lines += _placed(tail)
        rank = chosen = ""
        for i, (name, slot) in enumerate(nondet.items()):
            values = space[f"D{slot}"] = variables[slot].domain.values()
            space[f"K{slot}"] = {UNSET: 0, **{x: r for r, x in
                                             enumerate(values)}}
            rank += f"K{slot}[{names[slot]}], "
            chosen += f"D{slot}[k[{i}]], "
        free = [i for i, slot in enumerate(state) if slot not in derived]
        self.key = _getter(free)
        key = f"({''.join(names[state[i]] + ', ' for i in free)})"
        lines += [
            f"{pad}if visited is None or (key := {key}) not in visited:",
            *_placed(finish, "    "),
            f"{pad}    if visited is None: return {successor}",
            f"{pad}    k = ({rank})",
            f"{pad}    held = best.get(key)",
            f"{pad}    if held is None or k < held[0]:",
            f"{pad}        best[key] = k, "
            f"{'key' if key == successor else successor}, ({chosen})",
            "    return steps"]
        return [line for lines in reversed(functions)
                for line in (lines[0] + "):", *lines[1:])]

    def _deferred(self, tail: list, derived: set, final: dict) -> tuple:
        """The entries of tail, the assignments after the last loop, that
        run where they are, and those that run only for a new key: the
        assignments to derived variables that cannot raise, read by none
        of the others."""
        _, variables, _, _ = self._model_fields
        # an operation fails only on values other than ints and bools: an
        # enum's labels, and the init of a variable the step never assigns,
        # which an unchecked model may hold outside its domain
        loose = [f"{{{slot}}}" for slot, v in enumerate(variables)
                 if isinstance(v.domain, EnumDomain) or slot not in final
                 and not v.domain.contains(v.init)]
        kept, finish = [], []
        for entry in reversed(tail):
            target, template, _, tested = entry
            if target in derived and not tested \
                    and not any(call in template for call in _CALLS) \
                    and not (_FAILS.search(template) and any(
                        text in template for text in (*loose, "'", '"'))) \
                    and not any(f"{{{target}}}" in other
                                for _, other, *_ in kept):
                finish.append(entry)
            else:
                kept.append(entry)
        return kept[::-1], finish[::-1]


def _placed(entries: list, indent: str = "") -> list:
    """The lines of assignment entries, indented further by indent."""
    return [indent + line for *_, body, _ in entries for line in body]


#: a slot's field in a template
_FIELD = re.compile(r"\{\d+\}")
#: the operators that fail on operands of another type: comparisons of
#: order and arithmetic (a minus sign may be a literal's)
_FAILS = re.compile(r"[<>+*%-]|//")
#: the helpers whose calls can raise
_CALLS = ("floor_div(", "floor_mod(", "_raise(")


def _getter(keys: list):
    """A function giving the tuple of its argument's items at keys."""
    if len(keys) == 1:  # itemgetter would give the bare item
        return lambda items, key=keys[0]: (items[key],)
    return itemgetter(*keys) if keys else lambda items: ()


# --------------------------------------------------------------------------
# Value sets: what an expression can evaluate to, worked out at lowering
# by folding items (node, each variable's value set) (Cousot & Cousot 1977).
# A value set holds (class, value) pairs, since True is not 1, or is None,
# not worked out: past _VALUE_CAP values or operand pairs, for arithmetic on
# other than ints, and for unknown operators and names, which raise.

_VALUE_CAP = 4096
_BOOLS = frozenset({(bool, False), (bool, True)})
_GIVES_BOOL = {"!", *_COMPARE}  # the operators whose value is a bool


def _read_set(v: Variable) -> set | None:
    """v's domain, and a state variable's init, kept until it is assigned:
    even a missing one, None, which no domain holds (a nondet has none)."""
    if isinstance(v.domain, IntRange) and v.domain.hi - v.domain.lo >= _VALUE_CAP:
        return None
    init = () if v.kind is VarKind.NONDET else (v.init,)
    return {(x.__class__, x) for x in (*v.domain.values(), *init)}


def _narrowed(item: tuple) -> list:
    """An item's child items: none below an operator giving bools, and not
    a conditional's guard.  Where the guard compares a variable with a
    literal, the then-arm reads the values passing it, the else-arm the
    values failing it."""
    node, reads = item
    if node.__class__ is not Cond:
        if not node.kids or node.op in _GIVES_BOOL:
            return ()
        return [(kid, reads) for kid in node.kids]
    arms = [reads, reads]
    guard = node.cond
    if isinstance(guard, Binary) and guard.op in _COMPARE:
        flip = isinstance(guard.lhs, Lit)
        ref, lit = (guard.rhs, guard.lhs) if flip else (guard.lhs, guard.rhs)
        if isinstance(ref, Ref) and isinstance(lit, Lit) and reads.get(ref.name):
            arms = [{**reads, ref.name: set()}, {**reads, ref.name: set()}]
            for pair in reads[ref.name]:
                args = (lit.value, pair[1]) if flip else (pair[1], lit.value)
                try:
                    arms[not _COMPARE[guard.op](*args)][ref.name].add(pair)
                except TypeError:  # the guard raises, so neither arm runs
                    pass
    return [(node.then, arms[0]), (node.other, arms[1])]


def _values_of(item: tuple, parts: list) -> set | None:
    """An item's value set, given its child items'."""
    node, reads = item
    cls = node.__class__
    if cls is Lit:
        return {(node.value.__class__, node.value)}
    if cls is Ref:
        return reads.get(node.name)
    op = "?" if cls is Cond else getattr(node, "op", None)
    if op in _GIVES_BOOL:
        return _BOOLS
    if op is None or None in parts:
        return None
    if op in ("?", "&&", "||", "->"):  # an arm, or an operand and/or give
        return (_BOOLS if op == "->" else parts[0]) | parts[1]
    a, b = parts if len(parts) == 2 else ({(int, 0)}, *parts)  # -x is 0 - x
    arith = _ARITH.get(op)
    if arith is None or len(a) * len(b) > _VALUE_CAP \
            or any(cls is not int for cls, _ in a | b):
        return None
    # a zero divisor raises before the value is stored
    return {(int, arith(x, y)) for _, x in a for _, y in b
            if y or op not in ("/", "mod")}
