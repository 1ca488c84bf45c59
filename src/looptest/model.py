"""Core model representation: variables, domains, expressions, update blocks.

A closed-loop model pairs a plant block with a controller block over a shared
set of typed scalar variables.  One step of the composed system runs the plant
assignments first, then the controller assignments, both in source order with
read-latest semantics.

A state is a tuple holding one value per state variable, in the order of
state_variables().  Expressions have two lowerings, both in compiled.py,
which loads on first use.  compiled.lower_expr gives Python source: the
model is lowered at first use to one function (compiled.CompiledModel)
that steps a state, or expands it for a search.  compiled.lower_set gives
the sets where an expression takes each value or fails, over any algebra
of sets: the BDDs of symbolic.py, or compiled.RowSets, where a set of rows
is one integer bitmask.  eval_expr lowers an expression over a dict's
names for one-off use.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Iterable, Mapping

# the weak reference type, without the weakref module, whose import would
# add to every fresh start
from _weakref import ref as _weakref


class ModelError(Exception):
    """Base class for everything raised by this package."""


class EvalError(ModelError):
    """Runtime failure while evaluating an expression (division by zero etc.)."""


class DomainViolation(ModelError):
    """An assignment produced a value outside the target variable's domain."""

    def __init__(self, name: str, value: object, where: str):
        super().__init__(f"{where}: value {value!r} outside domain of '{name}'")
        self.name = name
        self.value = value
        self.where = where


class VarKind(enum.Enum):
    """The five variable roles a model distinguishes."""

    NONDET = "nondet"
    INPUT = "input"
    OUTPUT = "output"
    PLANT = "plantvar"
    CTRL = "ctrlvar"


PLANT_TARGETS = (VarKind.INPUT, VarKind.PLANT)
CTRL_TARGETS = (VarKind.OUTPUT, VarKind.CTRL)


class Node:
    """A value built once per structure, so structurally equal nodes are
    one object, and == and hash are identity.  Nodes never change.  Each
    concrete class keeps its own weak table from a key, its leaf values and
    its subtrees themselves, to the live node of that key; its constructor
    looks the key up and, on a miss, makes the node by _new and sets its
    slots.  _fields names those slots, kids the subtrees an operator node
    holds among them; repr prints every field but kids, as _key() gives
    them.
    """

    __slots__ = ("__weakref__",)
    _fields = ()
    kids = ()

    def __init_subclass__(cls):
        cls._table = {}

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"

    def _key(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields if n != "kids")


# weak reference to a live node -> (its class's table, its key).  A node's
# death drops its entry from both before its slots are cleared, so a key
# never outlives its node, and it holds nothing the node does not.  No
# lock: build nodes from one thread at a time.
_owners = {}
_dead = type(None)  # called like the weak reference of a dead node: None


def _drop(entry, owners=_owners):
    # the map is bound here, since a module's globals may be cleared
    # before the last of its nodes dies
    table, key = owners.pop(entry)
    if table.get(key) is entry:
        del table[key]


def _new(cls, key):
    """A new node of cls, entered in its table under key; the caller sets
    its _fields."""
    node = object.__new__(cls)
    table = cls._table
    entry = table[key] = _weakref(node, _drop)
    _owners[entry] = table, key
    return node


class BoolDomain(Node):
    """Two-valued domain, printed as 0/1 in files."""

    __slots__ = ()

    def __new__(cls):
        node = cls._table.get((), _dead)()
        return _new(cls, ()) if node is None else node

    def values(self):
        return (False, True)

    def contains(self, value: object) -> bool:
        return isinstance(value, bool)

    def test_source(self, name: str) -> str:
        """contains() as Python source over the variable called name."""
        return f"isinstance({name}, bool)"

    def first(self):
        return False


class IntRange(Node):
    """Inclusive integer interval lo..hi."""

    __slots__ = _fields = ("lo", "hi")

    def __new__(cls, lo: int, hi: int):
        if (node := cls._table.get((lo, hi), _dead)()) is None:
            node = _new(cls, (lo, hi))
            node.lo, node.hi = lo, hi
        return node

    def values(self):
        return tuple(range(self.lo, self.hi + 1))

    def contains(self, value: object) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) \
            and self.lo <= value <= self.hi

    def test_source(self, name: str) -> str:
        return (f"isinstance({name}, int) and not isinstance({name}, bool) "
                f"and {self.lo!r} <= {name} <= {self.hi!r}")

    def first(self):
        return self.lo


class EnumDomain(Node):
    """Finite set of named labels; values are the label strings."""

    __slots__ = _fields = ("labels",)

    def __new__(cls, labels: Iterable[str]):
        labels = tuple(labels)
        if (node := cls._table.get(labels, _dead)()) is None:
            node = _new(cls, labels)
            node.labels = labels
        return node

    def values(self):
        return self.labels

    def contains(self, value: object) -> bool:
        return value in self.labels

    def test_source(self, name: str) -> str:
        return f"{name} in {self.labels!r}"

    def first(self):
        return self.labels[0]

    def __repr__(self):
        return f"EnumDomain({list(self.labels)})"


class Variable(namedtuple("Variable", "name kind domain init",
                          defaults=(None,))):
    """A declared scalar variable.  Nondeterministic variables carry no init.

    kind is a VarKind and domain a BoolDomain, IntRange or EnumDomain.
    """

    __slots__ = ()


# --------------------------------------------------------------------------
# Expressions


class Expr(Node):
    """Base class for expression nodes, each printed by its _text(kids')."""

    __slots__ = ()

    def __str__(self):
        # folded, so deep nodes print; the memo prints shared subtrees once
        return _fold(self, _show, {}) if self.kids else self._text(())


class Lit(Expr):
    """Literal: bool, int, or enum label (a string)."""

    __slots__ = _fields = ("value",)

    def __new__(cls, value):
        # the value's class, so that true and 1 stay apart
        key = value.__class__, value
        if (node := cls._table.get(key, _dead)()) is None:
            node = _new(cls, key)
            node.value = value
        return node

    def _key(self):
        return (type(self.value).__name__, self.value)

    def __repr__(self):
        return f"Lit({self.value!r})"

    def _text(self, parts):
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return str(self.value)


class Ref(Expr):
    """Reference to a declared variable by flattened name."""

    __slots__ = _fields = ("name",)

    def __new__(cls, name: str):
        if (node := cls._table.get(name, _dead)()) is None:
            node = _new(cls, name)
            node.name = name
        return node

    def _text(self, parts):
        return ref_text(self.name)


class Unary(Expr):
    """Unary operator: '!' (bool) or '-' (int)."""

    __slots__ = _fields = ("op", "operand", "kids")

    def __new__(cls, op: str, operand: Expr):
        key = op, operand
        if (node := cls._table.get(key, _dead)()) is None:
            node = _new(cls, key)
            node.op, node.operand, node.kids = op, operand, (operand,)
        return node

    def _text(self, parts):
        inner, = parts
        if not isinstance(self.operand, (Lit, Ref, Unary)):
            inner = f"({inner})"
        return self.op + inner


#: binding strength, larger binds tighter
_PREC = {
    "?": 1,
    "->": 2,
    "||": 3,
    "&&": 4,
    "==": 5, "!=": 5,
    "<": 6, "<=": 6, ">": 6, ">=": 6,
    "+": 7, "-": 7,
    "*": 8, "/": 8, "mod": 8,
}


def _show(node: Node, parts: list) -> str:
    return node._text(parts)


def _sub_text(parent_prec: int, node: Expr, text: str, tighten=False) -> str:
    if isinstance(node, Binary):
        prec = _PREC[node.op]
    elif isinstance(node, Cond):
        prec = _PREC["?"]
    else:
        return text
    if prec < parent_prec or (tighten and prec == parent_prec):
        return f"({text})"
    return text


class Binary(Expr):
    """Binary operator application."""

    __slots__ = _fields = ("op", "lhs", "rhs", "kids")

    def __new__(cls, op: str, lhs: Expr, rhs: Expr):
        key = op, lhs, rhs
        if (node := cls._table.get(key, _dead)()) is None:
            node = _new(cls, key)
            node.op, node.lhs, node.rhs, node.kids = op, lhs, rhs, (lhs, rhs)
        return node

    def _text(self, parts):
        prec = _PREC[self.op]
        right = self.op == "->"  # associates right, the others left
        return f"{_sub_text(prec, self.lhs, parts[0], right)} {self.op} " \
               f"{_sub_text(prec, self.rhs, parts[1], not right)}"


class Cond(Expr):
    """Conditional choice: cond ? then : other."""

    __slots__ = _fields = ("cond", "then", "other", "kids")

    def __new__(cls, cond: Expr, then: Expr, other: Expr):
        kids = cond, then, other
        if (node := cls._table.get(kids, _dead)()) is None:
            node = _new(cls, kids)
            node.cond, node.then, node.other = node.kids = kids
        return node

    def _text(self, parts):
        cond, then, other = parts
        prec = _PREC["?"]
        # nested conditionals chain in the else arm without parens
        return (f"{_sub_text(prec, self.cond, cond, True)} ? "
                f"{_sub_text(prec, self.then, then, True)} : "
                f"{_sub_text(prec, self.other, other)}")


def ref_text(name: str) -> str:
    """Surface syntax for a flattened variable name: door.2 prints as door[2]."""
    base, dot, idx = name.rpartition(".")
    if dot and idx.isdigit():
        return f"{base}[{idx}]"
    return name


def eval_expr(expr: Expr, env: Mapping[str, object]):
    """Evaluate an expression over a total environment.

    Boolean connectives short-circuit.  Integer division and mod are floored
    (Python semantics); division by zero raises EvalError.  The expression
    is lowered over the environment's names in order, as the compiled model
    lowers it over a row.
    """
    from .compiled import _HELPERS, lower_expr
    names = list(env)
    source = lower_expr(expr, {name: i for i, name in enumerate(names)})
    return eval(source.format(*[f"r[{i}]" for i in range(len(names))]),
                _HELPERS, {"r": [env[name] for name in names]})


def referenced_names(expr: Expr) -> set:
    """All variable names an expression mentions."""
    out = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Ref):
            out.add(node.name)
        stack.extend(node.kids)
    return out


# --------------------------------------------------------------------------
# Blocks and the model itself


class Assignment(namedtuple("Assignment", "target expr")):
    __slots__ = ()


class UpdateBlock(namedtuple("UpdateBlock", "assignments", defaults=((),))):
    """An ordered sequence of assignments executed with read-latest semantics."""

    __slots__ = ()


class ClosedLoopModel(namedtuple("ClosedLoopModel",
                                 "name variables plant controller")):
    """A plant/controller pair over declared variables, in declaration order.

    No __slots__: the lookup tables and the compiled model live in the
    instance __dict__, outside equality, hash and repr.
    """

    def __init__(self, *fields, **named):
        self._by_name = {v.name: v for v in self.variables}
        self._nondet = tuple(
            v for v in self.variables if v.kind is VarKind.NONDET)
        self._state = tuple(
            v for v in self.variables if v.kind is not VarKind.NONDET)
        self._compiled = None

    def compiled(self):
        """The model lowered to compiled.CompiledModel on first use."""
        if self._compiled is None:
            from .compiled import CompiledModel
            self._compiled = CompiledModel(self)
        return self._compiled

    def var(self, name: str) -> Variable:
        return self._by_name[name]

    def has_var(self, name: str) -> bool:
        return name in self._by_name

    def nondet_variables(self):
        return self._nondet

    def state_variables(self):
        """All non-nondeterministic variables, in declaration order."""
        return self._state

    def nondet_defaults(self) -> dict:
        """Domain-first values, used when no step has applied any yet."""
        return {v.name: v.domain.first() for v in self.nondet_variables()}


# --------------------------------------------------------------------------
# Validation


class Diagnostic(namedtuple("Diagnostic", "message where")):
    __slots__ = ()

    def __str__(self):
        return f"{self.where}: {self.message}"


def enum_label_map(model: ClosedLoopModel) -> dict:
    """Map each enum label to its domain.  Labels must be globally unambiguous."""
    out = {}
    for v in model.variables:
        if isinstance(v.domain, EnumDomain):
            for label in v.domain.labels:
                out.setdefault(label, v.domain)
    return out


def _type_of(expr: Expr, by_name: dict, labels: dict, diags: list,
             where: str, memo: dict | None = None):
    """Infer an expression's type: 'bool', 'int', an EnumDomain, or None on
    error, adding to diags a Diagnostic at where for each error found, in
    source order.  memo, if given, keeps the typing of every operator node
    typed over the same by_name and labels."""
    t, messages = _fold(expr, lambda node, parts: _typed(
        node, parts, by_name, labels), memo)
    diags.extend(Diagnostic(message, where) for message in messages)
    return t


def _typed(node: Expr, parts: list, by_name: dict, labels: dict) -> tuple:
    """(type or None, messages of the errors in it) of node, given those of
    its children."""
    if isinstance(node, Lit):
        if isinstance(node.value, bool):
            return "bool", ()
        if isinstance(node.value, int):
            return "int", ()
        dom = labels.get(node.value)
        if dom is None:
            return None, (f"unknown enum label '{node.value}'",)
        return dom, ()
    if isinstance(node, Ref):
        var = by_name.get(node.name)
        if var is None:
            return None, (f"undeclared variable '{node.name}'",)
        return _domain_type(var.domain), ()
    if isinstance(node, Unary):
        (t, found), = parts
        want = "bool" if node.op == "!" else "int"
        if t is not None and t != want:
            return None, found + (
                f"operator '{node.op}' needs {want}, got {_type_name(t)}",)
        return want if t is not None else None, found
    if isinstance(node, Binary):
        (lt, found), (rt, more) = parts
        found += more
        if lt is None or rt is None:
            return None, found
        op = node.op
        if op in ("+", "-", "*", "/", "mod"):
            if lt == rt == "int":
                return "int", found
            error = (f"type mismatch: '{op}' needs int operands, "
                     f"got {_type_name(lt)} and {_type_name(rt)}")
        elif op in ("<", "<=", ">", ">="):
            if lt == rt == "int":
                return "bool", found
            error = (f"type mismatch: '{op}' compares ints, "
                     f"got {_type_name(lt)} and {_type_name(rt)}")
        elif op in ("&&", "||", "->"):
            if lt == rt == "bool":
                return "bool", found
            error = (f"type mismatch: '{op}' needs bool operands, "
                     f"got {_type_name(lt)} and {_type_name(rt)}")
        elif op in ("==", "!="):
            if lt == rt:
                return "bool", found
            error = (f"type mismatch: '{op}' compares {_type_name(lt)} "
                     f"with {_type_name(rt)}")
        else:
            error = f"unknown operator '{op}'"
        return None, found + (error,)
    if isinstance(node, Cond):
        (ct, found), (tt, then), (ot, other) = parts
        if ct is not None and ct != "bool":
            found += (
                f"conditional guard must be bool, got {_type_name(ct)}",)
        found += then + other
        if tt is None or ot is None:
            return None, found
        if tt != ot:
            return None, found + (f"conditional arms disagree: "
                                  f"{_type_name(tt)} vs {_type_name(ot)}",)
        return tt, found
    return None, (f"unknown expression node {type(node).__name__}",)


def _type_name(t) -> str:
    if isinstance(t, EnumDomain):
        return "enum{" + ",".join(t.labels) + "}"
    return str(t)


def _domain_type(dom: BoolDomain | IntRange | EnumDomain):
    if isinstance(dom, BoolDomain):
        return "bool"
    if isinstance(dom, IntRange):
        return "int"
    return dom


def validate_model(model: ClosedLoopModel) -> list:
    """Check declarations, kinds, and expression types.  Returns diagnostics."""
    diags = []
    seen = set()
    labels = {}
    by_name = model._by_name
    memo = {}  # the typing of each operator node, shared by assignments
    for v in model.variables:
        where = f"variable '{v.name}'"
        if v.name in seen:
            diags.append(Diagnostic("duplicate variable name", where))
        seen.add(v.name)
        if isinstance(v.domain, IntRange) and v.domain.lo > v.domain.hi:
            diags.append(Diagnostic(
                f"empty range {v.domain.lo}..{v.domain.hi}", where))
        if isinstance(v.domain, EnumDomain):
            if len(set(v.domain.labels)) != len(v.domain.labels) or not v.domain.labels:
                diags.append(Diagnostic("enum labels must be distinct and nonempty", where))
            for label in v.domain.labels:
                prior = labels.setdefault(label, v.domain)
                if prior != v.domain:
                    diags.append(Diagnostic(
                        f"enum label '{label}' already belongs to a different enum", where))
        if v.kind is VarKind.NONDET:
            if v.init is not None:
                diags.append(Diagnostic("nondet variables take no init value", where))
        else:
            if v.init is None:
                diags.append(Diagnostic("missing init value", where))
            elif not v.domain.contains(v.init):
                diags.append(Diagnostic(f"init value {v.init!r} outside domain", where))

    for block_name, block, allowed in (
        ("plant", model.plant, PLANT_TARGETS),
        ("controller", model.controller, CTRL_TARGETS),
    ):
        for i, asn in enumerate(block.assignments):
            where = f"{block_name} assignment {i + 1} to '{asn.target}'"
            target = by_name.get(asn.target)
            if target is None:
                diags.append(Diagnostic("assignment to undeclared variable", where))
                continue
            if target.kind not in allowed:
                diags.append(Diagnostic(
                    f"{block_name} block may not assign a {target.kind.value} variable",
                    where))
            t = _type_of(asn.expr, by_name, labels, diags, where, memo)
            want = _domain_type(target.domain)
            if t is not None and t != want:
                diags.append(Diagnostic(
                    f"type mismatch: assigning {_type_name(t)} to {_type_name(want)} "
                    "variable", where))
    return diags


# --------------------------------------------------------------------------
# Execution


def init_state(model: ClosedLoopModel) -> tuple:
    """The state holding every declared init value: one value per state
    variable, in the order of model.state_variables()."""
    return tuple(v.init for v in model.state_variables())


def step(model: ClosedLoopModel, state: tuple,
         nondet: Mapping[str, object] | tuple) -> tuple:
    """Run one full step: plant assignments, then controller assignments.

    The nondeterministic values for this step must all be supplied, by name
    in a mapping or as a column, a tuple in the order of
    model.nondet_variables(); they are readable by both blocks but never
    assigned.  Every assignment's value is proven at lowering or tested at
    run time to lie in the target's domain; the proof assumes the given
    state's values lie in their domains (or are their init values), as
    init_state and step produce them.
    """
    return model.compiled().step(state, nondet)


# --------------------------------------------------------------------------
# Lowerings fold an expression bottom-up


def _fold(expr, combine, memo: dict | None = None, children=None):
    """combine(node, the results of children(node), by default node.kids)
    applied bottom-up from an explicit stack, so deeply nested expressions
    do not run into the interpreter's recursion limit.  memo, if given,
    holds the results, None too, of finished operator nodes and gains those
    of this expression's."""
    done = []  # results of finished subexpressions
    todo = [expr]  # nodes to expand, and [node, child count] to combine
    while todo:
        node = todo.pop()
        if node.__class__ is list:
            node, count = node
            result = combine(node, done[-count:])
            del done[-count:]
            if memo is not None:
                memo[node] = result
        else:
            kids = node.kids if children is None else children(node)
            if not kids:
                result = combine(node, ())
            elif memo is None or (result := memo.get(node, done)) is done:
                todo.append([node, len(kids)])
                todo += kids[::-1]
                continue
        done.append(result)
    return done[0]


#: Marks a nondet value a search has not chosen yet.
UNSET = object()
