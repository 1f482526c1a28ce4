"""Tooling: every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bermanpir"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

#: (module, name) imported on purpose without a use: benchmarks/tracer.py
#: patches the name where the module binds it.
ALLOWED = {("codes", "invert_columns")}


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
