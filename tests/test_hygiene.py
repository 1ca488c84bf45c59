"""Source hygiene: no module-level import that the module never uses."""

import ast
from pathlib import Path

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
