"""Closed-loop test generation and checking for plant/controller models.

Importing the package loads the model language only: model, ltl, sim and
dsl, all that loading a model and its requirements runs.  The engines,
testgen and runner, and the case studies, casegen, load on first use of
one of their names; compiled, the lowerings, on a model's first step,
search or evaluation.
"""

from .model import (
    Assignment,
    Binary,
    BoolDomain,
    ClosedLoopModel,
    Cond,
    Diagnostic,
    DomainViolation,
    EnumDomain,
    EvalError,
    Expr,
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
    step,
    validate_model,
)
from .ltl import (
    And,
    Atom,
    Finally,
    Formula,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    Requirement,
    Until,
    boolean_subformulas,
    eval_on_lasso,
    position_envs,
    to_expr,
)
from .sim import (
    LassoTrace,
    StepCapExceeded,
    TestCase,
    TestSuite,
    dump_trace,
    simulate_lasso,
    validate_test,
)
from .dsl import (
    ParseError,
    load_model,
    load_reqs,
    load_suite,
    parse_model,
    parse_reqs,
    parse_suite,
    serialize_model,
    serialize_reqs,
    serialize_suite,
)
# name -> the module defining it, imported on first use (PEP 562)
_LAZY = {
    "casegen": "casegen",
    "testgen": "testgen",
    "runner": "runner",
    **dict.fromkeys(("BoundedExplorer", "CoverageGoal", "GenerationReport",
                     "GeneratorConfig", "StateCapExceeded",
                     "enumerate_goals", "generate_suite"), "testgen"),
    **dict.fromkeys(("ExecutionReport", "ReqVerdict", "execute_suite"),
                    "runner"),
}


def __getattr__(name: str):
    # "from . import casegen" here would call this hook again
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = importlib.import_module("." + module, __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + list(_LAZY))
