"""Linear temporal logic over ultimately periodic traces.

Formulas are evaluated on lasso traces (finite prefix followed by a loop)
over all positions at once, so G, F and U get their exact infinite-word
semantics.

A trace is evaluated over its position rows (position_rows): one row per
position, one slot per declared variable.  Atoms are compiled once per
model (model.CompiledModel.predicate) and run on every row.  A
subformula's table is one integer bitmask over the positions: position i
of m is bit m-1-i, so the loop is the low bits and the connectives and
temporal operators are a few whole-word integer operations (Until uses one
addition whose carries run backward along the word).  Each table is
memoized per trace, and the tables of the trace evaluated last are kept, so
requirements checked one after another on the same trace share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import Binary, Expr, Unary, referenced_names


class Formula:
    """Base class for LTL nodes; comparison is structural.  Nodes are never
    changed after construction, so each computes its hash once."""

    _hash = None

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((type(self),) + self._key())
        return self._hash

    def _key(self):  # pragma: no cover - abstract
        raise NotImplementedError


class Atom(Formula):
    """A temporal-free observation: a model expression of comparison level."""

    def __init__(self, expr: Expr):
        self.expr = expr

    def _key(self):
        return (self.expr,)

    def __repr__(self):
        return f"Atom({self.expr!r})"

    def __str__(self):
        text = str(self.expr)
        if isinstance(self.expr, Binary) and self.expr.op in ("&&", "||", "->"):
            return f"({text})"
        return text


class Not(Formula):
    def __init__(self, operand: Formula):
        self.operand = operand

    def _key(self):
        return (self.operand,)

    def __repr__(self):
        return f"Not({self.operand!r})"

    def __str__(self):
        return "!" + _sub(self.operand, 5)


class Next(Formula):
    def __init__(self, operand: Formula):
        self.operand = operand

    def _key(self):
        return (self.operand,)

    def __repr__(self):
        return f"Next({self.operand!r})"

    def __str__(self):
        return "X " + _sub(self.operand, 5)


class Finally(Formula):
    def __init__(self, operand: Formula):
        self.operand = operand

    def _key(self):
        return (self.operand,)

    def __repr__(self):
        return f"Finally({self.operand!r})"

    def __str__(self):
        return "F " + _sub(self.operand, 5)


class Globally(Formula):
    def __init__(self, operand: Formula):
        self.operand = operand

    def _key(self):
        return (self.operand,)

    def __repr__(self):
        return f"Globally({self.operand!r})"

    def __str__(self):
        return "G " + _sub(self.operand, 5)


class And(Formula):
    def __init__(self, lhs: Formula, rhs: Formula):
        self.lhs = lhs
        self.rhs = rhs

    def _key(self):
        return (self.lhs, self.rhs)

    def __repr__(self):
        return f"And({self.lhs!r}, {self.rhs!r})"

    def __str__(self):
        return f"{_sub(self.lhs, 4)} && {_sub(self.rhs, 4, tighten=True)}"


class Until(Formula):
    """Strong until: the right side must eventually hold."""

    def __init__(self, lhs: Formula, rhs: Formula):
        self.lhs = lhs
        self.rhs = rhs

    def _key(self):
        return (self.lhs, self.rhs)

    def __repr__(self):
        return f"Until({self.lhs!r}, {self.rhs!r})"

    def __str__(self):
        # right associative
        return f"{_sub(self.lhs, 3, tighten=True)} U {_sub(self.rhs, 3)}"


class Or(Formula):
    def __init__(self, lhs: Formula, rhs: Formula):
        self.lhs = lhs
        self.rhs = rhs

    def _key(self):
        return (self.lhs, self.rhs)

    def __repr__(self):
        return f"Or({self.lhs!r}, {self.rhs!r})"

    def __str__(self):
        return f"{_sub(self.lhs, 2)} || {_sub(self.rhs, 2, tighten=True)}"


class Implies(Formula):
    def __init__(self, lhs: Formula, rhs: Formula):
        self.lhs = lhs
        self.rhs = rhs

    def _key(self):
        return (self.lhs, self.rhs)

    def __repr__(self):
        return f"Implies({self.lhs!r}, {self.rhs!r})"

    def __str__(self):
        # right associative
        return f"{_sub(self.lhs, 1, tighten=True)} -> {_sub(self.rhs, 1)}"


_LEVEL = {And: 4, Until: 3, Or: 2, Implies: 1}


def _sub(node: Formula, parent_level: int, tighten: bool = False) -> str:
    text = str(node)
    level = _LEVEL.get(type(node), 5)
    if level < parent_level or (tighten and level == parent_level):
        return f"({text})"
    return text


@dataclass(frozen=True)
class Requirement:
    """A named formula with an optional expected outcome tag."""

    rid: str
    formula: Formula
    expectation: Optional[str] = None  # None | "expect-pass" | "expect-fail"


# --------------------------------------------------------------------------
# Structure walks


def is_temporal_free(f: Formula) -> bool:
    """True when no X, F, G or U occurs in the formula."""
    if isinstance(f, Atom):
        return True
    if isinstance(f, Not):
        return is_temporal_free(f.operand)
    if isinstance(f, (And, Or, Implies)):
        return is_temporal_free(f.lhs) and is_temporal_free(f.rhs)
    return False


def to_expr(f: Formula) -> Expr:
    """Lower a temporal-free formula to a plain model expression."""
    if isinstance(f, Atom):
        return f.expr
    if isinstance(f, Not):
        return Unary("!", to_expr(f.operand))
    if isinstance(f, And):
        return Binary("&&", to_expr(f.lhs), to_expr(f.rhs))
    if isinstance(f, Or):
        return Binary("||", to_expr(f.lhs), to_expr(f.rhs))
    if isinstance(f, Implies):
        return Binary("->", to_expr(f.lhs), to_expr(f.rhs))
    raise ValueError(f"not temporal free: {f}")


def boolean_subformulas(f: Formula, mode: str = "maximal") -> list:
    """Temporal-free subtrees of a formula, as model expressions.

    With mode "maximal" (the default) only subtrees not contained in a larger
    temporal-free subtree are returned.  With mode "all", every temporal-free
    subtree is returned.  Order is pre-order; structural duplicates are
    dropped.
    """
    if mode not in ("maximal", "all"):
        raise ValueError(f"unknown subformula mode {mode!r}")
    out = []
    seen = set()

    def emit(node: Formula):
        expr = to_expr(node)
        if expr not in seen:
            seen.add(expr)
            out.append(expr)

    def walk(node: Formula, inside_free: bool):
        free = is_temporal_free(node)
        if free and (mode == "all" or not inside_free):
            emit(node)
            if mode == "maximal":
                return
        if isinstance(node, (Not, Next, Finally, Globally)):
            walk(node.operand, free or inside_free)
        elif isinstance(node, (And, Or, Implies, Until)):
            walk(node.lhs, free or inside_free)
            walk(node.rhs, free or inside_free)

    walk(f, False)
    return out


def formula_names(f: Formula) -> set:
    """All variable names referenced by the formula's atoms."""
    out = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            out |= referenced_names(node.expr)
        elif isinstance(node, (Not, Next, Finally, Globally)):
            stack.append(node.operand)
        elif isinstance(node, (And, Or, Implies, Until)):
            stack.append(node.lhs)
            stack.append(node.rhs)
    return out


# --------------------------------------------------------------------------
# Evaluation on lassos


# The last trace evaluated on: (trace, rows, prefix, memo).  Replaced as a
# whole, so at most one trace's tables are alive at a time.
_last = (None, None, 0, None)


def eval_on_lasso(f: Formula, trace, position: int = 0) -> bool:
    """Decide the formula at a position of the infinite unwinding of a lasso.

    The trace is a sim.LassoTrace.  Position indexes the stored part of the
    trace (0 <= position < prefix_len + loop_len).

    Calls on the same trace object share its position rows and one memo of
    subformula tables, so checking many requirements on one trace, as
    runner.execute_suite does, evaluates each distinct subformula once.
    The trace must not be changed in between.
    """
    global _last
    held = _last
    if held[0] is not trace:
        rows, prefix = position_rows(trace)
        held = (trace, rows, prefix, {})
        _last = held
    _, rows, prefix, memo = held
    if not 0 <= position < trace.prefix_len + trace.loop_len:
        raise ValueError(f"position {position} outside lasso")
    table = _eval_table(f, rows, prefix, memo,
                        trace.model.compiled().predicate)
    return bool(table >> (len(rows) - 1 - position) & 1)


def position_rows(trace) -> tuple:
    """One row per evaluated position, plus the effective prefix length.

    A row holds every declared variable in declaration order: the state,
    and the nondet values applied by the step into the position (domain
    defaults at position 0).  Position 0 has no applied nondeterministic
    values, so when the loop starts at 0 the stored word is not purely
    periodic in its nondet extension.  In that case one loop copy is
    unrolled and the second copy becomes the loop.
    """
    model = trace.model
    row = model.compiled().row
    defaults = model.nondet_defaults()
    rows = [row(s, defaults if nd is None else nd)
            for s, nd in zip(trace.states, trace.nondet)]
    prefix = trace.prefix_len
    if prefix == 0:
        q = trace.loop_len
        wrap = row(trace.states[0], {**defaults, **trace.wrap_nondet})
        rows = rows + [wrap] + rows[1:q]
        prefix = q
    return rows, prefix


def position_envs(trace) -> tuple:
    """position_rows with each row as a dict from variable name to value."""
    rows, prefix = position_rows(trace)
    names = [v.name for v in trace.model.variables]
    return [dict(zip(names, row)) for row in rows], prefix


def _eval_table(f: Formula, rows: list, prefix: int, memo: dict, lower):
    """Satisfaction of f at every position row, as one integer bitmask.

    Position i of the m rows is bit m-1-i, so later positions sit in lower
    bits and the loop (positions prefix..m-1) is the low q = m-prefix bits.
    Information flows backward along the word, from low bits to high, the
    direction addition carries run.  Until writes the loop out twice, so
    every position's witness lies within the finite word, then clears with
    one addition the a-only positions after the last b of each run of a|b.

    memo maps subformulas to their finished masks; lower compiles an atom's
    expression to a function of a row.
    """
    hit = memo.get(f)
    if hit is not None:
        return hit
    m = len(rows)
    full = (1 << m) - 1
    q = m - prefix
    loop = (1 << q) - 1
    if isinstance(f, Atom):
        test = lower(f.expr)
        table = int("".join(["1" if test(row) else "0" for row in rows]), 2)
    elif isinstance(f, Not):
        table = full ^ _eval_table(f.operand, rows, prefix, memo, lower)
    elif isinstance(f, (And, Or, Implies)):
        a = _eval_table(f.lhs, rows, prefix, memo, lower)
        b = _eval_table(f.rhs, rows, prefix, memo, lower)
        if isinstance(f, And):
            table = a & b
        elif isinstance(f, Or):
            table = a | b
        else:
            table = (full ^ a) | b
    elif isinstance(f, Next):
        sub = _eval_table(f.operand, rows, prefix, memo, lower)
        # the last position's successor is the loop start, bit q-1
        table = ((sub << 1) & full) | ((sub >> (q - 1)) & 1)
    elif isinstance(f, Finally):
        sub = _eval_table(f.operand, rows, prefix, memo, lower)
        table = _finally(sub, full, loop)
    elif isinstance(f, Globally):
        sub = _eval_table(f.operand, rows, prefix, memo, lower)
        table = full ^ _finally(full ^ sub, full, loop)
    elif isinstance(f, Until):
        a = _eval_table(f.lhs, rows, prefix, memo, lower)
        b = _eval_table(f.rhs, rows, prefix, memo, lower)
        # with the loop written out twice, a U b holds on each run of a|b
        # up to its last b; adding the run's lowest bit carries through the
        # a-only bits after that b
        a |= b
        a = (a << q) | (a & loop)
        r = a & ~((b << q) | (b & loop))
        bottom = a & ~(a << 1)
        table = (a & ~(((r + bottom) ^ r) & r)) >> q
    else:
        raise ValueError(f"cannot evaluate {f!r}")
    memo[f] = table
    return table


def _finally(mask: int, full: int, loop: int) -> int:
    """F of a mask: every position if a loop position is set, else every
    position at or before the last one set."""
    return full if mask & loop else full & -(mask & -mask)
