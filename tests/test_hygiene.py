"""Source hygiene: no module of the package imports a name it never uses
or a module that comes later in the pipeline, defines a private name it
never reads, gives a private class an attribute it never reads or a
`__slots__` entry it never uses, and the package exports exactly what its
`__init__.py` imports.

No linter ships with the project, so these are written with `ast`: the
unused-import check (F401), a check for private functions, classes,
methods and module constants that nothing in their module reads, a check
for attributes that a private class assigns on self and nothing in its
module reads, and a check for `__slots__` entries of a private class that
its module never reads or assigns as an attribute. For imports,
`__init__.py` is skipped because it re-exports, `__future__` imports are
directives, and an import marked `# noqa: F401` is kept on purpose: the
benchmark's tracer wraps such module attributes, so each one must name an
attribute that `perfbench/tracer.py` lists for its module in `TARGETS`.
The layering check reads every `from .x import` of a module: x must come
before the module in `LAYERS`, the order in which the pipeline runs.

The project supports Python 3.10, so every source file of the package,
the tests and the benchmark harness must also parse as 3.10 syntax,
whichever interpreter runs the suite.
"""

import ast
from pathlib import Path

import pytest

import mcfl

SRC = Path(__file__).parent.parent / "src" / "mcfl"
TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"
PY310 = (3, 10)
# the package's modules in pipeline order; each imports only earlier ones
LAYERS = ("syntax", "parser", "verifier", "sequentializer", "instrumenter",
          "localizer", "bench", "cli", "__init__")
# read as text only: the benchmark harness is not imported
CHECKED_SOURCES = sorted(
    path for root in (SRC, Path(__file__).parent, TRACER.parent)
    for path in root.rglob("*.py"))


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


def _imports(source: str, marked: bool) -> list[tuple[int, str]]:
    """(line, name) for every name the module imports outside
    `__future__`, only those of imports marked `# noqa: F401` if marked,
    else only the others."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            text = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in text) != marked:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    return imported


def unused_imports(source: str) -> list[str]:
    """`line N: name` for every imported name the module never reads."""
    used = _names_read(ast.parse(source))
    return [f"line {line}: {name}"
            for line, name in _imports(source, marked=False)
            if name not in used]


def layering_violations(source: str, module: str) -> list[str]:
    """`line N: from .x` for every import of a package module x that
    does not come before module in LAYERS."""
    earlier = LAYERS[:LAYERS.index(module)]
    return [f"line {node.lineno}: from .{node.module}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module not in earlier]


def tracer_targets(source: str) -> dict[str, tuple[str, ...]]:
    """The TARGETS mapping of the tracer's source: module -> the names of
    its attributes the tracer wraps."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS assignment")


def untraced_marked_imports(source: str, module: str,
                            targets: dict[str, tuple[str, ...]]
                            ) -> list[str]:
    """`line N: name` for every import marked `# noqa: F401` that names no
    attribute the tracer wraps on module."""
    traced = targets.get(module, ())
    return [f"line {line}: {name}"
            for line, name in _imports(source, marked=True)
            if name not in traced]


def py310_syntax_error(source: str) -> str | None:
    """Why Python 3.10's grammar rejects source, or None if it parses."""
    try:
        ast.parse(source, feature_version=PY310)
    except SyntaxError as exc:
        return f"line {exc.lineno}: {exc.msg}"
    return None


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


def unread_private_attributes(source: str) -> list[str]:
    """`line N: Class.name` for every attribute that a private class
    assigns on self and its module never reads."""
    tree = ast.parse(source)
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and not isinstance(node.ctx, ast.Store)}
    return [f"line {node.lineno}: {cls.name}.{node.attr}"
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
            and node.attr not in read]


def unused_private_slots(source: str) -> list[str]:
    """`line N: Class.name` for every `__slots__` entry of a private class
    that its module never reads or assigns as an attribute."""
    tree = ast.parse(source)
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return [f"line {entry.lineno}: {cls.name}.{entry.value}"
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in node.targets)
            for entry in ast.walk(node.value)
            if isinstance(entry, ast.Constant)
            and isinstance(entry.value, str) and entry.value not in used]


@pytest.mark.parametrize("module", sorted(
    path.name for path in SRC.glob("*.py") if path.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_layers_name_every_module():
    assert sorted(LAYERS) == sorted(path.stem for path in SRC.glob("*.py"))


@pytest.mark.parametrize("module", LAYERS)
def test_imports_follow_the_layers(module):
    assert layering_violations(
        (SRC / f"{module}.py").read_text(), module) == []


@pytest.mark.parametrize("module", sorted(
    path.name for path in SRC.glob("*.py")))
def test_marked_imports_are_traced(module):
    assert untraced_marked_imports(
        (SRC / module).read_text(), f"mcfl.{module[:-3]}",
        tracer_targets(TRACER.read_text())) == []


@pytest.mark.parametrize("module", sorted(
    path.name for path in SRC.glob("*.py")))
def test_no_unread_private_names(module):
    assert unread_private_names((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", sorted(
    path.name for path in SRC.glob("*.py")))
def test_no_unread_private_attributes(module):
    assert unread_private_attributes((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", sorted(
    path.name for path in SRC.glob("*.py")))
def test_no_unused_private_slots(module):
    assert unused_private_slots((SRC / module).read_text()) == []


@pytest.mark.parametrize("path", CHECKED_SOURCES, ids=lambda path: str(
    path.relative_to(SRC.parent.parent)))
def test_parses_as_python_310(path):
    assert py310_syntax_error(path.read_text()) is None


def test_check_finds_planted_311_syntax():
    source = (SRC / "cli.py").read_text()
    planted = source + """
try:
    pass
except* ValueError:
    pass
"""
    assert py310_syntax_error(planted) is not None
    assert py310_syntax_error(source) is None


def test_check_finds_a_planted_private_function():
    source = (SRC / "verifier.py").read_text()
    assert unread_private_names("def _unused(): pass\n" + source) == \
        ["line 1: _unused"]


def test_check_finds_a_planted_attribute():
    source = (SRC / "sequentializer.py").read_text()
    planted = source.replace(
        "        self.loop_count = 0\n",
        "        self.loop_count = 0\n"
        "        self.unread = None\n")
    line = planted.splitlines().index("        self.unread = None") + 1
    assert unread_private_attributes(planted) == \
        [f"line {line}: _Builder.unread"]


def test_check_finds_a_planted_slot():
    source = (SRC / "verifier.py").read_text()
    planted = source.replace('"cum_iters", "decision")',
                             '"cum_iters", "decision", "narrowed")')
    assert planted != source
    line = next(i for i, text in enumerate(planted.splitlines(), start=1)
                if '"narrowed")' in text)
    assert unused_private_slots(planted) == [f"line {line}: _Ctx.narrowed"]
    # an entry read only as an attribute of another object counts as used
    assert unused_private_slots(
        "class _P:\n    __slots__ = ('x', 'y')\n\n"
        "def f(p):\n    return p.x\n") == ["line 2: _P.y"]


def test_check_finds_a_planted_import():
    source = (SRC / "verifier.py").read_text()
    assert unused_imports("import os\n" + source) == ["line 1: os"]


def test_check_finds_a_planted_layer_import():
    source = (SRC / "verifier.py").read_text()
    assert layering_violations(
        "from .sequentializer import Schedule\n" + source, "verifier") == \
        ["line 1: from .sequentializer"]
    # a module may not import itself, and imports outside the package pass
    assert layering_violations(
        "import json\nfrom .syntax import Program\nfrom .parser import parse"
        "\n", "parser") == ["line 3: from .parser"]


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


def test_check_finds_an_untraced_marked_import():
    source = (SRC / "instrumenter.py").read_text()
    targets = tracer_targets(TRACER.read_text())
    assert untraced_marked_imports(
        "import os  # noqa: F401\n" + source, "mcfl.instrumenter",
        targets) == ["line 1: os"]
    # without the tracer's list, the module's own marked imports show
    assert [entry.split(": ")[1] for entry in untraced_marked_imports(
        source, "mcfl.instrumenter", {})] == ["parse", "pretty_print"]


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(mcfl.__all__) == sorted(imported)
    assert len(set(mcfl.__all__)) == len(mcfl.__all__)
    for name in mcfl.__all__:
        assert getattr(mcfl, name) is not None, name
