"""Closed-loop test generation and checking for plant/controller models."""

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
from . import casegen

__all__ = [name for name in dir() if not name.startswith("_")]
