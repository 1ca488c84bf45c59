"""Executing test cases against a model: lasso simulation and trace handling.

A test case fixes the nondeterministic values for steps 1..L.  Running it
longer than L wraps around, so every test case induces an infinite, ultimately
periodic execution; simulate_lasso finds the finite lasso that describes it.
"""

from __future__ import annotations

from collections import namedtuple
from types import MappingProxyType

from .ltl import position_rows
from .model import (
    BoolDomain,
    ClosedLoopModel,
    Diagnostic,
    EnumDomain,
    ModelError,
    init_state,
    step,
)


class StepCapExceeded(ModelError):
    """Lasso search walked more steps than the configured cap."""


class TestCase(namedtuple("TestCase", "tid variables rows")):
    """A named matrix of nondeterministic values, one row per step.

    variables holds the nondet variable names in declaration order; rows
    holds L tuples of values aligned to variables.
    """

    __slots__ = ()
    __test__ = False  # keep pytest from collecting this

    @property
    def length(self) -> int:
        return len(self.rows)

    def column(self, k: int) -> dict:
        """Nondet values applied at step index k (wrapping beyond the end)."""
        row = self.rows[k % len(self.rows)]
        return dict(zip(self.variables, row))


class TestSuite(namedtuple("TestSuite", "variables cases")):
    """Test cases sharing one nondet variable ordering."""

    __slots__ = ()
    __test__ = False  # keep pytest from collecting this

    @property
    def element_count(self) -> int:
        return sum(c.length for c in self.cases)

    def case(self, tid: str) -> TestCase:
        for c in self.cases:
            if c.tid == tid:
                return c
        raise KeyError(tid)


def validate_test(model: ClosedLoopModel, case: TestCase) -> list:
    """Shape and domain checks for one test case against a model."""
    diags = []
    names = tuple(v.name for v in model.nondet_variables())
    where = f"test '{case.tid}'"
    if case.variables != names:
        diags.append(Diagnostic(
            f"variables {list(case.variables)} do not match the model's "
            f"nondet variables {list(names)}", where))
        return diags
    if case.length < 1:
        diags.append(Diagnostic("test cases need at least one row", where))
    for j, row in enumerate(case.rows):
        if len(row) != len(names):
            diags.append(Diagnostic(f"row {j + 1} has {len(row)} values, "
                                    f"expected {len(names)}", where))
            continue
        for name, value in zip(names, row):
            if not model.var(name).domain.contains(value):
                diags.append(Diagnostic(
                    f"row {j + 1}: value {value!r} outside domain of '{name}'",
                    where))
    return diags


class LassoTrace(namedtuple(
        "LassoTrace",
        "model case states nondet prefix_len loop_len wrap_nondet",
        defaults=(MappingProxyType({}),))):
    """The ultimately periodic execution a test case induces.

    states[k] is the state after k steps, a tuple over the model's state
    variables as init_state and step give it; nondet[k] holds the values
    applied by the step that produced states[k] (None at position 0).
    Positions prefix_len .. prefix_len+loop_len-1 repeat forever;
    wrap_nondet is what the step leaving the last position applies on its
    way back to the loop start (by default a read-only empty mapping).
    The states and nondet lists leave a trace unhashable.
    """

    __slots__ = ()

    @property
    def positions(self) -> int:
        return len(self.states)


def simulate_lasso(model: ClosedLoopModel, case: TestCase,
                   step_cap: int = 10 ** 7) -> LassoTrace:
    """Run a test case until the (step index mod L, state) pair repeats.

    The pair key, not the state alone, decides the loop: the same state met
    at a different point of the test matrix continues differently.
    """
    length = case.length
    columns = [case.column(j) for j in range(length)]
    seen = {}
    states = []
    nds = [None]
    s = init_state(model)
    k = 0
    nd = None
    while True:
        key = (k % length, s)
        hit = seen.get(key)
        if hit is not None:
            return LassoTrace(
                model=model, case=case, states=states, nondet=nds[:len(states)],
                prefix_len=hit, loop_len=k - hit, wrap_nondet=nd or {})
        seen[key] = k
        states.append(s)
        if k >= step_cap:
            raise StepCapExceeded(
                f"no lasso within {step_cap} steps for test '{case.tid}'")
        nd = columns[k % length]
        s = step(model, s, nd)
        nds.append(nd)
        k += 1


# --------------------------------------------------------------------------
# Text forms


def value_text(value) -> str:
    """File syntax for a domain value: bools as 0/1, enums by label."""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def parse_value(domain, text: str):
    """Inverse of value_text for a known domain; None when ill-formed."""
    if isinstance(domain, BoolDomain):
        if text == "0":
            return False
        if text == "1":
            return True
        return None
    if isinstance(domain, EnumDomain):
        return text if text in domain.labels else None
    # int() would also read '+3', '1_0' and non-ASCII digits such as '٣'
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    value = int(text)
    return value if domain.contains(value) else None


def dump_trace(trace: LassoTrace) -> str:
    """Render a lasso trace, one position per line, loop start marked.

    Values appear for every declared variable in declaration order, as
    ltl.position_rows gives them: the nondeterministic columns show what
    the producing step applied (domain defaults at position 0).
    """
    rows, _ = position_rows(trace)
    names = [v.name for v in trace.model.variables]
    lines = []
    for k, values in enumerate(rows[:trace.positions]):
        marker = " loop-start" if k == trace.prefix_len else ""
        pairs = " ".join(f"{name}={value_text(value)}"
                         for name, value in zip(names, values))
        lines.append(f"#{k}{marker} {pairs}")
    return "\n".join(lines)
