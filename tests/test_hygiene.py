"""Source hygiene: no module-level import that the module never uses,
annotations that resolve without the package importing typing, and an
import that loads only what loading a model needs."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
import typing
from pathlib import Path
from types import SimpleNamespace

from looptest import casegen, ltl, model

ROOT = Path(__file__).resolve().parent.parent
SOURCES = (sorted(ROOT.glob("src/looptest/*.py"))
           + sorted(ROOT.glob("tests/*.py")))


def unused_imports(text: str) -> list:
    """(line, name) of each module-level import whose name is never read.

    Names listed in a literal __all__ count as read.
    """
    tree = ast.parse(text)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used |= {elt.value for elt in node.value.elts
                     if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_module_imports():
    # the package __init__ imports only to re-export
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in SOURCES if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert not found, "\n".join(found)


def test_unused_import_scan_flags_only_unread_names():
    text = """\
from __future__ import annotations
import os
import os.path as osp
import json, re
from typing import Optional, Union
__all__ = ["re"]
def f(x: Optional[int]) -> str:
    return json.dumps(osp.join("a", str(x)))
"""
    assert unused_imports(text) == [(2, "os"), (5, "Union")]


def test_no_module_rebinds_a_global():
    # a call leaves nothing for the next in module state: what it shares
    # goes through its arguments and results
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted(ROOT.glob("src/looptest/*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert not found, "\n".join(found)


def _defined_functions(module) -> dict:
    """qualname -> function of every function and method defined at module
    or class level in module (properties and static/class methods too)."""
    found = {}
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found[obj.__qualname__] = obj
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                parts = ((attr.fget, attr.fset, attr.fdel)
                         if isinstance(attr, property) else (attr,))
                for f in parts:
                    if (inspect.isfunction(f)
                            and f.__code__.co_filename == module.__file__):
                        found[f.__qualname__] = f
    return found


def _nested_annotations(tree: ast.Module) -> dict:
    """(name, line) -> {argument or "return": annotation source} of each
    annotated function defined inside another function."""
    out = {}
    for outer in ast.walk(tree):
        if not isinstance(outer, ast.FunctionDef):
            continue
        for node in ast.walk(outer):
            if node is outer or not isinstance(node, ast.FunctionDef):
                continue
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            notes = {a.arg: ast.unparse(a.annotation)
                     for a in args if a.annotation is not None}
            if node.returns is not None:
                notes["return"] = ast.unparse(node.returns)
            if notes:
                out[(node.name, node.lineno)] = notes
    return out


def test_every_annotation_resolves():
    # the package imports no typing, so a name an annotation reads must be
    # a builtin or a name the module binds (collections.abc included)
    for path in sorted(ROOT.glob("src/looptest/*.py")):
        if path.name == "__main__.py":
            continue
        name = path.stem if path.stem != "__init__" else ""
        module = importlib.import_module(
            "looptest" + ("." + name if name else ""))
        tree = ast.parse(path.read_text())
        functions = _defined_functions(module)
        top = {f"{c.name}.{f.name}" if c else f.name
               for c in [None] + [n for n in tree.body
                                  if isinstance(n, ast.ClassDef)]
               for f in (c.body if c else tree.body)
               if isinstance(f, ast.FunctionDef)}
        assert top <= set(functions), (path.name, top - set(functions))
        for function in functions.values():
            typing.get_type_hints(function)
        for notes in _nested_annotations(tree).values():
            typing.get_type_hints(SimpleNamespace(__annotations__=notes),
                                  vars(module))


_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import looptest
model = looptest.load_model(sys.argv[2])
looptest.load_reqs(sys.argv[3], model)
print(json.dumps(sorted(sys.modules)))
"""

# none of these is needed to import the package and load a model
UNNEEDED = ("dataclasses", "typing", "inspect", "ast", "looptest.casegen",
            "looptest.compiled", "looptest.symbolic", "looptest.cli",
            "looptest.testgen", "looptest.runner")


def test_import_and_load_keep_a_small_footprint(tmp_path):
    study = casegen.pnp(3)
    (tmp_path / "pnp3.clm").write_text(study.model_text)
    (tmp_path / "pnp3.ltl").write_text(study.reqs_text)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, str(ROOT / "src"),
         str(tmp_path / "pnp3.clm"), str(tmp_path / "pnp3.ltl")],
        capture_output=True, text=True, check=True)
    loaded = set(json.loads(proc.stdout))
    assert not loaded & set(UNNEEDED), sorted(loaded & set(UNNEEDED))
    assert {name for name in loaded if name.startswith("looptest")} == {
        "looptest", "looptest.dsl", "looptest.ltl", "looptest.model",
        "looptest.sim"}


def _loaded_by(code: str) -> list:
    """The looptest modules a fresh interpreter has loaded after code."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); " + code
         + "; print(*sorted(m for m in sys.modules if 'looptest' in m))",
         str(ROOT / "src")],
        capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_cli_leaves_casegen_to_its_subcommand():
    assert "looptest.casegen" not in _loaded_by("import looptest.cli")


def test_cli_leaves_the_engines_to_their_subcommands():
    loaded = _loaded_by("import looptest.cli")
    engines = {"looptest.testgen", "looptest.runner", "looptest.compiled",
               "looptest.symbolic", "looptest.casegen"}
    assert "looptest.cli" in loaded
    assert not engines & set(loaded), sorted(engines & set(loaded))


_EXPORTS = [
    "And", "Assignment", "Atom", "Binary", "BoolDomain", "BoundedExplorer",
    "ClosedLoopModel", "Cond", "CoverageGoal", "Diagnostic",
    "DomainViolation", "EnumDomain", "EvalError", "ExecutionReport", "Expr",
    "Finally", "Formula", "GenerationReport", "GeneratorConfig", "Globally",
    "Implies", "IntRange", "LassoTrace", "Lit", "ModelError", "Next", "Not",
    "Or", "ParseError", "Ref", "ReqVerdict", "Requirement",
    "StateCapExceeded", "StepCapExceeded", "TestCase", "TestSuite", "Unary",
    "Until", "UpdateBlock", "VarKind", "Variable", "boolean_subformulas",
    "casegen", "dsl", "dump_trace", "enumerate_goals", "eval_expr",
    "eval_on_lasso", "execute_suite", "generate_suite", "init_state",
    "load_model", "load_reqs", "load_suite", "ltl", "model", "parse_model",
    "parse_reqs", "parse_suite", "position_envs", "runner",
    "serialize_model", "serialize_reqs", "serialize_suite", "sim",
    "simulate_lasso", "step", "testgen", "to_expr", "validate_model",
    "validate_test",
]

_EXPORT_PROBE = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
import looptest
listed = dir(looptest)
star = {}
exec("from looptest import *", star)
def home(name):
    # the object the module defining a name holds under it
    value = getattr(looptest, name)
    if value.__class__ is sys.__class__:
        return importlib.import_module(value.__name__)
    module = getattr(value, "__module__", None) or "looptest"
    return getattr(importlib.import_module(module), name)
print(json.dumps({
    "all": looptest.__all__,
    "listed": [name for name in looptest.__all__ if name in listed],
    "star": [name for name in looptest.__all__
             if star.get(name) is getattr(looptest, name)],
    "home": [name for name in looptest.__all__
             if home(name) is getattr(looptest, name)],
}))
"""


def test_package_exports_resolve_to_their_defining_modules():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _EXPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, check=True)
    found = json.loads(proc.stdout)
    assert found["all"] == _EXPORTS
    assert found["listed"] == found["star"] == found["home"] == _EXPORTS


def test_nodes_compare_by_identity():
    # nodes are interned at construction, so no class of model or ltl
    # defines its own equality or hash
    for module in (model, ltl):
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                assert not {"__eq__", "__hash__"} & set(vars(obj)), obj
