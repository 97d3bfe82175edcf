"""Each library module exports only what the program runs: every name in the
``__all__`` of the seven library modules exists and is used as code (an AST
``Name`` or ``Attribute``, not a string) in ``src/vortexpatch`` or in the
benchmark's ``perfbench/passes.py``.  No module of ``src/vortexpatch`` imports
a name that it never uses.  Every key of a ``cli.py`` parameter table is read
by its subcommand, so no flag sits idle.  The operator algebra of
``LinearOperatorMatrix`` is exactly what the benchmark's tracer wraps.  And a
library default exists only where a program caller omits it or an open item
of ROADMAP.md names its second caller: every other default lives in the
``cli.py`` parameter tables."""

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


def _table_reads() -> list:
    """(subcommand, table keys, keys read as ``p["<key>"]``) per ``_command``
    of ``cli.py``; a module function called with ``p`` reads for its caller."""
    tree = ast.parse((ROOT / "src" / "vortexpatch" / "cli.py").read_text())
    tables, functions = {}, {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List):
            tables[node.targets[0].id] = {row.elts[1].value for row in node.value.elts}
        elif isinstance(node, ast.FunctionDef):
            functions[node.name] = node

    def reads(fn, seen):
        keys = set()
        for node in ast.walk(fn):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == "p" and isinstance(node.slice, ast.Constant)):
                keys.add(node.slice.value)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in functions and node.func.id not in seen
                    and any(isinstance(a, ast.Name) and a.id == "p" for a in node.args)):
                keys |= reads(functions[node.func.id], seen | {node.func.id})
        return keys

    out = []
    for fn in functions.values():
        for dec in fn.decorator_list:
            if isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "_command":
                name, table = dec.args[0].value, dec.args[1].id
                out.append((name, tables[table], reads(fn, {fn.name})))
    return out


def test_every_table_key_is_read():
    commands = _table_reads()
    assert sorted(name for name, _, _ in commands) == [
        "cantor", "kam-remainder", "kam-transport", "linearize", "simulate", "spectrum"]
    assert [(name, sorted(keys - read)) for name, keys, read in commands
            if keys - read] == []


def test_operator_algebra_is_what_the_tracer_wraps():
    from vortexpatch.spectral import LinearOperatorMatrix

    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    wrapped = next(ast.literal_eval(node.value) for node in tracer.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "CLASS_METHODS")
    dunders = {name for name, value in vars(LinearOperatorMatrix).items()
               if name.startswith("__") and name.endswith("__") and callable(value)
               and name != "__init__"}
    assert dunders == {meth for module, cls, meth in wrapped
                       if (module, cls) == ("spectral", "LinearOperatorMatrix")}


#: (module, function or class, parameter or field) of every default in
#: ``src/vortexpatch``, each with the program caller that omits it
DEFAULTS = {
    ("cantor", "DiophantineSpec", "upsilon"),  # perfbench/record_reference.py
    ("cantor", "DiophantineSpec", "tau1"),  # perfbench/record_reference.py
    ("cantor", "DiophantineSpec", "Jmax"),  # cli cantor; a spec matched to the reduction sets it
    ("cantor", "_divisor", "q"),  # excluded_measure's screen, filter and bisection
    ("cli", "main", "argv"),  # the vpatch console script
    ("kam", "synthetic_reversible_remainder", "d"),  # cli kam-remainder; a d = 2 run sets it
    ("spectral", "spectral_derivative", "axis"),  # PatchState.dr, kam.ChangeOfVariables
    ("spectrum", "transversality_scan", "delta"),  # cli spectrum --scan
    ("spectrum", "transversality_scan", "delta_prime"),  # cli spectrum --scan
}


def _defaults(module: str, tree) -> set:
    """(module, owner, name) of each defaulted parameter of a function or
    lambda and each class-body field with a value, by AST."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a, owner = node.args, getattr(node, "name", "<lambda>")
            positional = a.posonlyargs + a.args
            named = positional[len(positional) - len(a.defaults):]
            named += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            out |= {(module, owner, arg.arg) for arg in named}
        elif isinstance(node, ast.ClassDef):
            out |= {(module, node.name, st.target.id) for st in node.body
                    if isinstance(st, ast.AnnAssign) and st.value is not None}
    return out


def test_every_default_is_justified():
    found = set()
    for path in (ROOT / "src" / "vortexpatch").glob("*.py"):
        found |= _defaults(path.stem, ast.parse(path.read_text()))
    assert sorted(found - DEFAULTS) == [] and sorted(DEFAULTS - found) == []


def test_default_is_caught():
    tree = ast.parse("@dataclass\nclass A:\n    x: int\n    y: int = 1\n"
                     "def f(a, b=2, *, c=3, d):\n    return lambda e=4: e\n")
    assert _defaults("m", tree) == {("m", "A", "y"), ("m", "f", "b"), ("m", "f", "c"),
                                    ("m", "<lambda>", "e")}
