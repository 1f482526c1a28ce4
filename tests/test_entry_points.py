"""Tooling: every module-level function and public method of the library is
named somewhere in the program (``src/``, ``demos/``, ``benchmarks/``), or
is kept on purpose because a test compares against it; and every exception
class the library defines is raised somewhere in ``src/``."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bermanpir"
TESTS = ROOT / "tests"

#: The program's files.  The package ``__init__`` only re-exports names, so
#: an export alone does not count as a use.
PROGRAM = sorted(
    p for part in ("src", "demos", "benchmarks") for p in (ROOT / part).rglob("*.py") if p.name != "__init__.py"
)

#: Definitions that nothing in the program names, each with the test that
#: compares against it (directly or through a function of ``oracles.py``).
ALLOWED = {
    "berman.tuple_to_index": "test_berman.py::TestIndexing::test_round_trip_exhaustive",
    "codes.LinearCode.project_columns": "test_codes.py::TestProjectColumns::test_every_triple_projection_is_onto",
    "gf2.BitVector.weight": "test_pir.py::TestQueries::test_embedding_structure",
    "gf2.BitVector.dot": "test_pir.py::TestRespond::test_respond_all_matches_per_server_loop",
    "gf2.BitVector.is_zero": "test_gf2.py::TestNullspace::test_rank_nullity_and_orthogonality",
    "gf2.BitMatrix.entry": "test_pir.py::TestDecode::test_recovers_ground_truth",
    "gf2.rank": "test_berman.py::TestBuild::test_basis_sets_are_independent",
    "star.disjoint_support_product": "test_star.py::TestConstructiveIdentities::test_disjoint_exhaustive",
    "star.berman_basis_identity": "test_star.py::TestConstructiveIdentities::test_basis_identity_exhaustive",
}


def definitions(tree):
    """Dotted names of the module-level functions and of the public methods
    of module-level classes.  Module-level dunder hooks (PEP 562
    ``__getattr__`` and ``__dir__``) are skipped: the interpreter calls them,
    never the program by name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name
        elif isinstance(node, ast.ClassDef):
            yield from (
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )


def named(tree):
    """Every identifier the tree names: variables, attributes, and the dotted
    parts of string constants (``benchmarks/tracer.py`` patches by name)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def unnamed(definitions_by_module, names):
    return {
        f"{module}.{name}"
        for module, defined in definitions_by_module.items()
        for name in defined
        if name.rpartition(".")[2] not in names
    }


def test_detector_flags_an_unnamed_function_and_method():
    tree = ast.parse(
        "def used(): pass\ndef unused(): pass\ndef __getattr__(name): pass\n"
        "class A:\n    def kept(self): pass\n    def dropped(self): pass\n    def _private(self): pass\n"
        "used()\npatch('m.A.kept')\n"
    )
    assert unnamed({"m": list(definitions(tree))}, named(tree)) == {"m.unused", "m.A.dropped"}


def test_every_definition_is_named_or_allowed():
    names = set().union(*(named(ast.parse(p.read_text())) for p in PROGRAM))
    defined = {p.stem: list(definitions(ast.parse(p.read_text()))) for p in SRC.glob("*.py")}
    found = unnamed(defined, names)
    assert found - set(ALLOWED) == set(), "named nowhere in the program"
    assert set(ALLOWED) - found == set(), "stale allow-list entry"


def find_test(path, qualname):
    """The class or function node of ``qualname`` (a list of names) in ``path``."""
    node = ast.parse(path.read_text())
    for part in qualname:
        node = next(n for n in node.body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part)
    return node


@pytest.mark.parametrize("entry", sorted(ALLOWED))
def test_allowed_entry_is_compared_in_its_test(entry):
    file, *qualname = ALLOWED[entry].split("::")
    names = named(find_test(TESTS / file, qualname))
    oracles = {n.name: n for n in ast.parse((TESTS / "oracles.py").read_text()).body if isinstance(n, ast.FunctionDef)}
    names.update(*(named(oracles[name]) for name in names & oracles.keys()))
    assert entry.rpartition(".")[2] in names


def raised(tree):
    """The names a ``raise`` statement of the tree raises: ``raise X``,
    ``raise X(...)`` and ``raise m.X(...)`` give X."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def exception_classes(module):
    """The exception classes ``module`` defines, by qualified name."""
    return {
        f"{module.__name__.rpartition('.')[2]}.{name}"
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__
    }


def test_detector_flags_an_exception_class_nothing_raises():
    tree = ast.parse(
        "raise A('x')\nraise m.B\ntry:\n    pass\nexcept C:\n    raise\nerror = D()\n"
    )
    assert raised(tree) == {"A", "B"}


def test_every_exception_class_is_raised():
    names = set().union(*(raised(ast.parse(p.read_text())) for p in SRC.glob("*.py")))
    modules = [importlib.import_module(f"bermanpir.{p.stem}") for p in SRC.glob("*.py") if p.stem != "__init__"]
    classes = set().union(*map(exception_classes, modules))
    assert len(classes) > 10
    assert {c for c in classes if c.rpartition(".")[2] not in names} == set(), "defined but never raised"
