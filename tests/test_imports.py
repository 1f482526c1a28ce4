"""Tooling: every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bermanpir"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

#: (module, name) imported on purpose without a use: benchmarks/tracer.py
#: patches the name where the module binds it.
ALLOWED = {("codes", "invert_columns"), ("pir", "invert_columns")}


def imported_names(tree):
    """Each name an import statement binds, ``__future__`` imports aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported_names(tree) - used)


def test_detector_flags_an_unused_import():
    assert unused_imports("from __future__ import annotations\nimport os.path\nfrom math import comb, gcd\ngcd(1, 2)\n") == [
        "comb",
        "os",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (SRC / f"{module}.py").read_text()
    unused = set(unused_imports(source))
    allowed = {name for mod, name in ALLOWED if mod == module}
    assert allowed <= imported_names(ast.parse(source)), "stale allow-list entry"
    assert unused - allowed == set()


def tracer_patches():
    """Each (module, name) that benchmarks/tracer.py's ``LAYERS`` patches a
    function in: its defining module and every module that imports it."""
    tree = ast.parse((ROOT / "benchmarks" / "tracer.py").read_text())
    (layers,) = (
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS"
    )
    patched = set()
    for _, module, attr, importers, kind in ast.literal_eval(layers):
        if kind == "func":
            patched.update((mod, attr) for mod in (module, *importers))
    return patched


def test_allowed_imports_are_ones_the_tracer_patches():
    assert ALLOWED <= tracer_patches()
