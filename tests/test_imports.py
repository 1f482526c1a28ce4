"""Tooling: every name a library module imports is used in that module, and
no library module imports through the package root.  The import contract:
``import bermanpir`` loads no submodule, each command and the verification
sweep load only what they use, and the root's lazy exports are the objects
their home modules define."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import child_env

import bermanpir

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


def root_imports(source):
    """Each import in ``source`` that resolves a name through the package
    root's ``__getattr__`` and so loads what it need not: ``import
    bermanpir``, ``from bermanpir import ...``, and ``from . import X`` where
    X is not a submodule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {alias.name}" for alias in node.names if alias.name == "bermanpir"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "bermanpir":
            found += [f"from bermanpir import {alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            found += [f"from . import {alias.name}" for alias in node.names if alias.name not in MODULES]
    return found


def test_detector_flags_an_import_through_the_package_root():
    source = (
        "import bermanpir\nimport bermanpir.gf2\nfrom bermanpir import berman\n"
        "from . import star, build\nfrom .gf2 import rank\nfrom .. import other\n"
        "def f():\n    from . import *\n"
    )
    assert root_imports(source) == [
        "import bermanpir",
        "from bermanpir import berman",
        "from . import build",
        "from . import *",
    ]


@pytest.mark.parametrize("module", ["__init__", *MODULES])
def test_no_import_through_the_package_root(module):
    assert root_imports((SRC / f"{module}.py").read_text()) == []


def modules_after(code):
    """The modules loaded once ``code`` has run in a fresh interpreter."""
    script = f"{code}\nimport sys\nsys.stderr.write('\\n'.join(sys.modules))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, env=child_env(), timeout=120, check=True,
    )
    return set(proc.stderr.splitlines())


def submodules(loaded):
    return {name.partition(".")[2] for name in loaded if name.startswith("bermanpir.")}


def test_bare_import_loads_no_submodule_and_no_numpy():
    loaded = modules_after("import bermanpir")
    assert "bermanpir" in loaded
    assert submodules(loaded) == set()
    assert "numpy" not in loaded


def test_verification_sweep_loads_neither_the_protocol_nor_the_cli():
    loaded = modules_after("from bermanpir import checks\nassert next(checks.iter_verification_cases(2, 2)).ok")
    assert submodules(loaded) == {"berman", "checks", "codes", "gf2", "star"}


def test_simulate_loads_neither_the_sweep_nor_csv():
    argv = ["simulate", "--storage", "DBer(3,0,3)", "--retrieval", "DBer(3,1,3)"]
    loaded = modules_after(f"from bermanpir import cli\nassert cli.main({argv!r}) == 0")
    assert "bermanpir.pir" in loaded
    assert "bermanpir.checks" not in loaded
    assert "csv" not in loaded


@pytest.mark.parametrize("name", bermanpir.__all__)
def test_export_is_the_object_its_home_module_defines(name):
    home = f"bermanpir.{bermanpir._HOME[name]}"
    value = getattr(bermanpir, name)
    assert value is getattr(importlib.import_module(home), name)
    assert value.__module__ == home
    assert vars(bermanpir)[name] is value, "not cached in the package namespace"


def test_export_table_lists_each_name_once_and_every_submodule():
    assert sorted(name for names in bermanpir._EXPORTS.values() for name in names) == bermanpir.__all__
    assert bermanpir._SUBMODULES == tuple(MODULES)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from bermanpir import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bermanpir.__all__)


def test_dir_lists_every_export_and_submodule():
    assert set(bermanpir.__all__) | set(MODULES) <= set(dir(bermanpir))


def test_submodule_resolves_after_a_bare_import():
    loaded = modules_after("import bermanpir\nassert bermanpir.pir.derive_scheme is bermanpir.derive_scheme")
    assert "bermanpir.pir" in loaded


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        bermanpir.no_such_name  # noqa: B018
    assert not hasattr(bermanpir, "no_such_name")
