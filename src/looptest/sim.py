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


#: The default budgets: states a search reaches, and explicit search branch
#: steps or steps of one lasso unwinding.
DEFAULT_STATE_CAP = 10_000_000
DEFAULT_STEP_CAP = 10_000_000


class StepCapExceeded(ModelError):
    """Lasso search walked more steps than the configured cap."""


class EmptyTestCase(ModelError):
    """A test case without rows, which induces no execution."""


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


class TestSuite(namedtuple("TestSuite", "variables cases")):
    """Test cases sharing one nondet variable ordering.  No __slots__: a
    suite generate_suite returns keeps its tests' ltl.lasso_rows, by tid,
    as _lassos in its __dict__, outside equality, hash and repr, which
    execute_suite on the same model object evaluates on; a parsed,
    replayed, pickled or copied suite carries none."""

    __test__ = False  # keep pytest from collecting this

    def __getstate__(self):  # the lassos hold compiled functions
        return None

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
                   step_cap: int = DEFAULT_STEP_CAP) -> LassoTrace:
    """Run a test case until the (step index mod L, state) pair repeats.

    The pair key, not the state alone, decides the loop: the same state met
    at a different point of the test matrix continues differently.  The
    first pass over the rows tests their values (step()); later passes run
    the compiled run(), which a replay compiles alone.  Every loop is a
    multiple of L long, so only pass starts are looked up: the state at
    p*L met at j*L closes a loop (p-j)*L long, which starts fewer than L
    steps before j*L.  No step runs at an index >= step_cap: near it, the
    last steps run one by one and every pair is tested.
    """
    length = case.length
    if not length:
        raise EmptyTestCase(f"test '{case.tid}' needs at least one row")
    compiled = model.compiled()
    run = compiled.run
    nds = [dict(zip(case.variables, row)) for row in case.rows]  # shared
    s = init_state(model)
    states = [s]
    columns = []
    for nd in nds[:max(step_cap, 0)]:  # the first, tested pass
        columns.append(column := compiled.column(nd))
        states.append(s := step(model, s, column))
    starts = {states[0]: 0}  # the state at a pass start -> its position
    end = len(states) - 1
    while end + length <= step_cap:
        if (start := starts.setdefault(s, end)) != end:
            break
        for column in columns:
            s = run(s, column)
            states.append(s)
        end += length
    else:  # run up to the cap, then test every pair
        for k in range(end, step_cap):
            states.append(s := run(s, columns[k % length]))
        seen = {}
        for end, s in enumerate(states):
            if (start := seen.setdefault((end % length, s), end)) != end:
                break
        else:
            raise StepCapExceeded(
                f"no lasso within {step_cap} steps for test '{case.tid}'")
    loop = end - start
    while start and states[start - 1] == states[start - 1 + loop]:
        start -= 1
    k = start + loop
    del states[k:]
    return LassoTrace(model=model, case=case, states=states, nondet=(
        [None] + nds * (k // length + 1))[:k], prefix_len=start,
        loop_len=loop, wrap_nondet=nds[(k - 1) % length])


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
    texts = [_Table(lambda value, name=v.name: f"{name}={value_text(value)}")
             for v in trace.model.variables]
    lines = []
    for k, values in enumerate(rows[:trace.positions]):
        marker = " loop-start" if k == trace.prefix_len else ""
        pairs = " ".join(map(_Table.__getitem__, texts, values))
        lines.append(f"#{k}{marker} {pairs}")
    return "\n".join(lines)


class _Table(dict):
    """A dict that fills in a missing key's value from fill(key)."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value
