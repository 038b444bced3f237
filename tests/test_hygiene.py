"""Source hygiene: no module of the package imports a name it never uses
or defines a private name it never reads.

No linter ships with the project, so these are written with `ast`: the
unused-import check (F401) and a check for private functions, classes,
methods and module constants that nothing in their module reads. For
imports, `__init__.py` is skipped because it re-exports, `__future__`
imports are directives, and an import marked `# noqa: F401` is kept on
purpose (the benchmark's tracer wraps such module attributes).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "mcfl"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by a quoted annotation such as "_FnCtx | None"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                if isinstance(n, ast.Name)}
    return set()


def _names_read(tree: ast.AST) -> set[str]:
    """Names the module reads, quoted annotations included."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


def unused_imports(source: str) -> list[str]:
    """`line N: name` for every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            text = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in text):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = _names_read(tree)
    return [f"line {line}: {name}" for line, name in imported
            if name not in used]


def unread_private_names(source: str) -> list[str]:
    """`line N: name` for every private function, class, method or module
    constant (a name with one leading underscore) that the module defines
    and never reads, as a name or as an attribute."""
    tree = ast.parse(source)
    defined = [(node.lineno, node.name) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))]
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        defined += [(node.lineno, t.id) for t in targets
                    if isinstance(t, ast.Name)]
    used = _names_read(tree) | {node.attr for node in ast.walk(tree)
                                if isinstance(node, ast.Attribute)}
    return [f"line {line}: {name}" for line, name in defined
            if name.startswith("_") and not name.startswith("__")
            and name not in used]


@pytest.mark.parametrize("module", sorted(
    path.name for path in SRC.glob("*.py") if path.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", sorted(
    path.name for path in SRC.glob("*.py")))
def test_no_unread_private_names(module):
    assert unread_private_names((SRC / module).read_text()) == []


def test_check_finds_a_planted_private_function():
    source = (SRC / "verifier.py").read_text()
    assert unread_private_names("def _unused(): pass\n" + source) == \
        ["line 1: _unused"]


def test_check_finds_a_planted_import():
    source = (SRC / "verifier.py").read_text()
    assert unused_imports("import os\n" + source) == ["line 1: os"]


def test_check_spares_used_future_and_marked_imports():
    source = """from __future__ import annotations
import json
from os import path as p  # noqa: F401
from typing import (
    Any,
    Iterable,
)
from dataclasses import dataclass


def f(x: "Iterable[int]") -> "Any":
    return json.dumps(list(x))
"""
    assert unused_imports(source) == ["line 8: dataclass"]
