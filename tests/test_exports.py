"""Each library module exports only what the program runs: every name in the
``__all__`` of the seven library modules exists and is used as code (an AST
``Name`` or ``Attribute``, not a string) in ``src/vortexpatch`` or in the
benchmark's ``perfbench/passes.py``."""

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
