"""Each library module exports only what the program runs: every name in the
``__all__`` of the seven library modules exists and is used as code (an AST
``Name`` or ``Attribute``, not a string) in ``src/vortexpatch`` or in the
benchmark's ``perfbench/passes.py``.  And no module of ``src/vortexpatch``
imports a name that it never uses."""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROGRAM = [*sorted((ROOT / "src" / "vortexpatch").glob("*.py")), ROOT / "perfbench" / "passes.py"]


def _used_names() -> set:
    names = set()
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("module", ["spectral", "geometry", "dynamics", "linearized",
                                    "spectrum", "cantor", "kam"])
def test_exports_exist_and_are_used(module):
    mod = importlib.import_module(f"vortexpatch.{module}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert sorted(set(mod.__all__) - _used_names()) == []


def _unused_imports(tree) -> list:
    """Names bound by an import of ``tree`` that no ``Name`` node reads and
    ``__all__`` does not list; ``from __future__`` imports are exempt."""
    imported, used, exported = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return [n for n in imported if n not in used | exported]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "vortexpatch").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_caught():
    tree = ast.parse("from dataclasses import dataclass, field\nimport numpy as np\n"
                     "@dataclass\nclass A:\n    x: int\n")
    assert _unused_imports(tree) == ["field", "np"]
