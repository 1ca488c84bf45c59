"""Linear temporal logic over ultimately periodic traces.

Formulas are evaluated on lasso traces (finite prefix followed by a loop)
over all positions at once, so G, F and U get their exact infinite-word
semantics.

Every operator node is a _Prefix (! X F G) or an _Infix (&& U || ->) node.
Each carries its symbol, and an infix node its binding level and whether
it associates right, so printing here and parsing in dsl read one table.

A trace is evaluated over its positions (unroll): each a state and the
nondet column applied into it.  Atoms are not compiled: each is lowered
over the positions' bitmasks by compiled.RowSets.lower, all positions at
once, an atom x or x == v by one lookup of x's masks and any other by
compiled.lower_set.  A subformula's table is one integer bitmask over the
positions: position i of m is bit m-1-i, so the loop is the low bits and
the connectives and temporal operators are a few whole-word integer
operations (Until uses one addition whose carries run backward along the
word).  Nothing recurses: a formula is evaluated, or lowered to a model
expression, by one loop over its _postorder.  A caller checking many
requirements on one trace passes its lasso_rows to each evaluation, so they
share tables, and traces built with one orders dict share each formula's
order; nothing is kept from one call to the next.
"""

from __future__ import annotations

from collections import namedtuple

from .model import Binary, Expr, Node, Unary, _dead, _new


class Formula(Node):
    """Base class for LTL nodes, interned like every model.Node.

    level is the binding strength the printer and the parser share: atoms
    and prefix operators bind tighter than every infix operator.
    """

    __slots__ = ()
    level = 5
    __str__ = Expr.__str__  # from each class's _text, as expressions print


class Atom(Formula):
    """A temporal-free observation: a model expression of comparison level."""

    __slots__ = _fields = ("expr",)

    def __new__(cls, expr: Expr):
        if (node := cls._table.get(expr, _dead)()) is None:
            node = _new(cls, expr)
            node.expr = expr
        return node

    def _text(self, parts):
        text = str(self.expr)
        if isinstance(self.expr, Binary) and self.expr.op in ("&&", "||", "->"):
            return f"({text})"
        return text


class _Prefix(Formula):
    """An operator written before its one operand.  The temporal ones are
    letters (X, F, G); the boolean one shares its symbol with expressions."""

    __slots__ = _fields = ("operand", "kids")
    symbol = ""

    def __new__(cls, operand: Formula):
        if (node := cls._table.get(operand, _dead)()) is None:
            node = _new(cls, operand)
            node.operand, node.kids = operand, (operand,)
        return node

    def _text(self, parts):
        # a letter needs a space to stay apart from the name after it
        gap = " " if self.symbol.isalpha() else ""
        return self.symbol + gap + _sub(self.operand, parts[0], self.level)


class Not(_Prefix):
    __slots__ = ()
    symbol = "!"


class Next(_Prefix):
    __slots__ = ()
    symbol = "X"


class Finally(_Prefix):
    __slots__ = ()
    symbol = "F"


class Globally(_Prefix):
    __slots__ = ()
    symbol = "G"


class _Infix(Formula):
    """An operator written between its two operands, binding at level
    (larger binds tighter) and associating right when right is set.  The
    temporal one is a letter (U); the boolean ones share their symbols with
    expressions."""

    __slots__ = _fields = ("lhs", "rhs", "kids")
    symbol = ""
    right = False

    def __new__(cls, lhs: Formula, rhs: Formula):
        kids = lhs, rhs
        if (node := cls._table.get(kids, _dead)()) is None:
            node = _new(cls, kids)
            node.lhs, node.rhs, node.kids = lhs, rhs, kids
        return node

    def _text(self, parts):
        lhs = _sub(self.lhs, parts[0], self.level, tighten=self.right)
        rhs = _sub(self.rhs, parts[1], self.level, tighten=not self.right)
        return f"{lhs} {self.symbol} {rhs}"


class And(_Infix):
    __slots__ = ()
    symbol = "&&"
    level = 4


class Until(_Infix):
    """Strong until: the right side must eventually hold."""

    __slots__ = ()
    symbol = "U"
    level = 3
    right = True


class Or(_Infix):
    __slots__ = ()
    symbol = "||"
    level = 2


class Implies(_Infix):
    __slots__ = ()
    symbol = "->"
    level = 1
    right = True


def _sub(node: Formula, text: str, parent_level: int, tighten=False) -> str:
    if node.level < parent_level or (tighten and node.level == parent_level):
        return f"({text})"
    return text


class Requirement(namedtuple("Requirement", "rid formula expectation",
                             defaults=(None,))):
    """A named formula with an optional expected outcome tag.

    expectation is None, "expect-pass" or "expect-fail".
    """

    __slots__ = ()


# --------------------------------------------------------------------------
# Structure walks


def _postorder(f: Formula, done=()) -> list:
    """f's distinct subformulas not in done, each after its kids, left to
    right, from an explicit stack: nothing below a node in done is listed."""
    order, todo = {}, [f]  # listed in order; to list, [node] after its kids
    while todo:
        node = todo.pop()
        if node.__class__ is list:
            order[node[0]] = None
        elif node not in order and node not in done:
            if node.kids:
                todo.append([node])
                todo += node.kids[::-1]
            else:
                order[node] = None
    return list(order)


def is_temporal_free(f: Formula) -> bool:
    """True when no X, F, G or U occurs in the formula."""
    return _lowered(f, {}) is not None


def to_expr(f: Formula) -> Expr:
    """Lower a temporal-free formula to a plain model expression."""
    expr = _lowered(f, {})
    if expr is None:
        raise ValueError(f"not temporal free: {f}")
    return expr


def _lowered(f: Formula, memo: dict):
    """f as a model expression, None where X, F, G or U occurs in it.  memo
    maps the subformulas lowered before to theirs, and gains f's others."""
    for node in _postorder(f, memo):
        if node.__class__ is Atom:
            memo[node] = node.expr
        elif node.symbol.isalpha():  # X, F, G or U
            memo[node] = None
        else:
            parts = [memo[kid] for kid in node.kids]
            memo[node] = None if None in parts else \
                (Unary if len(parts) == 1 else Binary)(node.symbol, *parts)
    return memo[f]


def boolean_subformulas(f: Formula, mode: str = "maximal",
                        memo: dict | None = None) -> list:
    """Temporal-free subtrees of a formula, as model expressions.

    With mode "maximal" (the default) only subtrees not contained in a larger
    temporal-free subtree are returned.  With mode "all", every temporal-free
    subtree is returned.  Order is pre-order; structural duplicates are
    dropped.  memo, if given, keeps the expression of every subformula
    lowered (None where it is temporal), so later calls sharing it lower
    each subformula once.
    """
    if mode not in ("maximal", "all"):
        raise ValueError(f"unknown subformula mode {mode!r}")
    out = {}  # the expressions found, in order
    lowered = {} if memo is None else memo
    _lowered(f, lowered)
    todo = [f]  # in pre-order
    while todo:
        node = todo.pop()
        expr = lowered[node]
        if expr is not None:
            out[expr] = None
            if mode == "maximal":  # and not below it
                continue
        todo += node.kids[::-1]
    return list(out)


# --------------------------------------------------------------------------
# Evaluation on lassos


def eval_on_lasso(f: Formula, trace, position: int = 0, held=None) -> bool:
    """Decide the formula at a position of the infinite unwinding of a lasso.

    The trace is a sim.LassoTrace.  Position indexes the stored part of the
    trace (0 <= position < prefix_len + loop_len).

    held is the trace's lasso_rows, built for this call alone when None.
    Calls passing one holder share it, so checking many requirements on
    one trace evaluates each distinct subformula once.  The trace must not
    be changed in between.
    """
    _, rows, prefix, memo, orders = \
        lasso_rows(trace, {}) if held is None else held
    if not 0 <= position < trace.prefix_len + trace.loop_len:
        raise ValueError(f"position {position} outside lasso")
    if f not in orders:
        orders[f] = _postorder(f)
    table = _eval_table(orders[f], rows, prefix, memo)
    return bool(table >> (rows.true.bit_length() - 1 - position) & 1)


def lasso_rows(trace, orders: dict) -> tuple:
    """What eval_on_lasso holds of a trace: (trace, RowSets of its positions
    in reverse, effective prefix, memo of subformula tables, orders), orders
    mapping formulas to their _postorder, one dict for a suite's traces."""
    from .compiled import RowSets
    states, columns, prefix = unroll(trace)
    return (trace, RowSets(trace.model, states[::-1], columns[::-1]), prefix,
            {}, orders)


def unroll(trace) -> tuple:
    """(states, columns, prefix) of the positions a trace is evaluated on,
    compiling nothing.  Position k is states[k] under columns[k], the nondet
    column the step into it applied (row k-1 mod L of a test case of L rows,
    each row's built once), or the domain defaults at position 0.  A loop
    starting at 0 is not purely periodic in its nondet extension, so one
    copy is unrolled, its first position under the wrap column, and the
    second copy becomes the loop.  prefix is the effective prefix length."""
    column = trace.model.compiled().column
    defaults = trace.model.nondet_defaults()
    states, prefix, k = trace.states, trace.prefix_len, trace.positions
    length = trace.case.length if trace.case else k
    columns = [column(defaults if nd is None else nd)
               for nd in trace.nondet[:length + 1]]
    columns = (columns + columns[1:] * ((k - 1) // length))[:k]
    if prefix == 0:
        prefix = q = trace.loop_len
        states = states + states[:q]
        columns = columns + [column({**defaults, **trace.wrap_nondet})] \
            + columns[1:q]
    return states, columns, prefix


def position_rows(trace) -> tuple:
    """unroll with each position as a row, every declared variable's value
    in declaration order, and the effective prefix length."""
    states, columns, prefix = unroll(trace)
    row = trace.model.compiled().row
    return list(map(row, map(tuple.__add__, columns, states))), prefix


def position_envs(trace) -> tuple:
    """position_rows with each row as a dict from variable name to value."""
    rows, prefix = position_rows(trace)
    names = [v.name for v in trace.model.variables]
    return [dict(zip(names, row)) for row in rows], prefix


def _eval_table(order: list, rows, prefix: int, memo: dict):
    """Satisfaction of order[-1] at every position, as one integer bitmask.

    rows, a compiled.RowSets, holds the positions in reverse, so position
    i of the m rows is bit m-1-i: later positions sit in lower bits and the
    loop (positions prefix..m-1) is the low q = m-prefix bits.
    Information flows backward along the word, from low bits to high, the
    direction addition carries run.  Until writes the loop out twice, so
    every position's witness lies within the finite word, then clears with
    one addition the a-only positions after the last b of each run of a|b.

    order is a _postorder, and memo maps subformulas to their finished
    masks.  An atom is its expression lowered to a mask; where it fails,
    the earliest failing position raises, the first failing atom in order.
    """
    full = rows.true
    q = full.bit_length() - prefix
    loop = (1 << q) - 1
    for f in order:
        if f in memo:
            continue
        cls = f.__class__
        if cls is Atom:
            table, err = rows.lower(f.expr)
            if err:
                rows.fail(f.expr, 1 << (err.bit_length() - 1))
        elif cls is Not:
            table = full ^ memo[f.operand]
        elif cls is And:
            table = memo[f.lhs] & memo[f.rhs]
        elif cls is Or:
            table = memo[f.lhs] | memo[f.rhs]
        elif cls is Implies:
            table = (full ^ memo[f.lhs]) | memo[f.rhs]
        elif cls is Next:
            sub = memo[f.operand]
            # the last position's successor is the loop start, bit q-1
            table = ((sub << 1) & full) | ((sub >> (q - 1)) & 1)
        elif cls is Finally or cls is Globally:  # G g is !F !g
            # F g holds everywhere if g holds in the loop, else up to g's last
            flip = 0 if cls is Finally else full
            sub = memo[f.operand] ^ flip
            table = flip ^ (full if sub & loop else full & -(sub & -sub))
        elif cls is Until:
            a, b = memo[f.lhs], memo[f.rhs]
            # with the loop written out twice, a U b holds on each run of
            # a|b up to its last b; adding the run's lowest bit carries
            # through the a-only bits after that b
            a |= b
            a = (a << q) | (a & loop)
            r = a & ~((b << q) | (b & loop))
            bottom = a & ~(a << 1)
            table = (a & ~(((r + bottom) ^ r) & r)) >> q
        else:
            raise ValueError(f"cannot evaluate {f!r}")
        memo[f] = table
    return memo[order[-1]]
