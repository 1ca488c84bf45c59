"""Closed-loop test generation and checking for plant/controller models.

The case studies, looptest.casegen, are loaded on first use: nothing on the
load, generate or execute paths needs them.
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
from .testgen import (
    BoundedExplorer,
    CoverageGoal,
    GenerationReport,
    GeneratorConfig,
    StateCapExceeded,
    enumerate_goals,
    generate_suite,
)
from .runner import ExecutionReport, ReqVerdict, execute_suite


def __getattr__(name: str):
    # PEP 562; "from . import casegen" here would call this hook again
    if name == "casegen":
        import importlib
        return importlib.import_module(".casegen", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["casegen"])
