"""Source hygiene: no module of the package imports a name it never uses.

No linter ships with the project, so this is the unused-import check
(F401) written with `ast`. `__init__.py` is skipped because it re-exports,
`__future__` imports are directives, and an import marked `# noqa: F401`
is kept on purpose (the benchmark's tracer wraps such module attributes).
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


def unused_imports(source: str) -> list[str]:
    """`line N: name` for every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
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
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return [f"line {line}: {name}" for line, name in imported
            if name not in used]


@pytest.mark.parametrize("module", sorted(
    path.name for path in SRC.glob("*.py") if path.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


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
