"""Tooling: every module-level function and public method of the library is
named somewhere in the program (``src/``, ``demos/``, ``benchmarks/``), with
no exceptions: a reference that only tests compare against belongs in
``tests/oracles.py``, whose every function a test names in turn; and every
exception class the library defines is raised somewhere in ``src/``."""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bermanpir"
TESTS = ROOT / "tests"

#: The program's files.  The package ``__init__`` only re-exports names, so
#: an export alone does not count as a use.
PROGRAM = sorted(
    p for part in ("src", "demos", "benchmarks") for p in (ROOT / part).rglob("*.py") if p.name != "__init__.py"
)

#: The one program file whose string constants name definitions: it patches
#: them by dotted name.
TRACER = ROOT / "benchmarks" / "tracer.py"

#: Module names whose attributes are never definitions of ours.
NUMPY = {"np", "numpy"}

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


def named(tree, module=None, strings=False):
    """The references the tree makes, as ``(owner, reference)`` pairs.

    A reference is ``K.m`` for ``self.m`` or ``cls.m`` inside class K, and
    ``x.m`` for an attribute m of a base whose last name is x (``K.m``,
    ``gf2.row_reduce``, ``self.generator.to_text``); ``.m`` for an attribute
    of any other base (a call, a subscript); a bare ``m`` for a variable.
    With ``strings``, a string constant ``"a.b.c"`` references what
    ``a.b.c`` would (``benchmarks/tracer.py`` patches by dotted name).

    The owner is ``module.d`` for a reference inside the body of a definition
    d of :func:`definitions` of the library module ``module``, and None for
    every other reference: those outside any definition, in a private or
    dunder method, or in a file outside the library (``module`` None).
    """
    found = set()
    owned = set(definitions(tree)) if module else set()

    def visit(node, cls, name):
        owner = f"{module}.{name}" if name in owned else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add((owner, sub.id))
            elif isinstance(sub, ast.Attribute):
                base = sub.value
                if isinstance(base, ast.Name):
                    x = cls if cls and base.id in ("self", "cls") else base.id
                else:
                    x = base.attr if isinstance(base, ast.Attribute) else ""
                found.add((owner, f"{x}.{sub.attr}"))
            elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                parts = sub.value.split(".")
                found.add((owner, parts[0]))
                found.update((owner, f"{x}.{m}") for x, m in zip(parts, parts[1:]))

    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for part in (*node.bases, *node.keywords, *node.decorator_list):
                visit(part, None, None)
            for item in node.body:
                visit(item, node.name, f"{node.name}.{getattr(item, 'name', '')}")
        else:
            visit(node, None, getattr(node, "name", None))
    return found


def overrides(namespace):
    """``(None, "K.m")`` for every public method m of a class K that the
    module ``namespace`` defines, where m overrides a method of a base class
    from outside K's package: that base class names it (argparse calls
    ``error`` on its parser)."""
    found = set()
    for value in namespace.values():
        if isinstance(value, type) and value.__module__ == namespace["__name__"]:
            package = value.__module__.partition(".")[0]
            outside = [vars(b) for b in value.__mro__[1:] if b.__module__.partition(".")[0] != package]
            found.update(
                (None, f"{value.__name__}.{m}")
                for m in vars(value)
                if not m.startswith("_") and any(m in attrs for attrs in outside)
            )
    return found


def unnamed(definitions_by_module, names):
    """The definitions that no reference of ``names`` (pairs of
    :func:`named`) names.  ``K.m``, for a class K that has definitions,
    names only ``K.m``; ``np.m`` names nothing; ``x.m`` on any other base
    names every function and method m; a bare ``m`` names the module-level
    functions m.  A reference owned by a definition counts only once that
    definition is named, and never for the definition itself: the named set
    is a fixed point, reached from the references no definition owns."""
    by_last = defaultdict(set)
    for module, defined in definitions_by_module.items():
        for name in defined:
            by_last[name.rpartition(".")[2]].add(f"{module}.{name}")
    classes = {name.partition(".")[0] for defined in definitions_by_module.values() for name in defined if "." in name}
    by_owner = defaultdict(set)
    for owner, reference in names:
        by_owner[owner].add(reference)

    def resolve(reference):
        x, dot, m = reference.rpartition(".")
        if not dot:
            return {d for d in by_last[m] if d.count(".") == 1}
        if x in classes:
            return {d for d in by_last[m] if d.endswith(f".{x}.{m}")}
        return set() if x in NUMPY else by_last[m]

    reached = set()
    todo = [None]
    while todo:
        owner = todo.pop()
        for reference in by_owner[owner]:
            new = resolve(reference) - reached - {owner}
            reached |= new
            todo.extend(new)
    return {d for found in by_last.values() for d in found} - reached


def flagged(source, strings=False):
    """What the detector flags in a library of one module, ``m``, with this
    source, which is run to find its overrides."""
    tree = ast.parse(source)
    namespace = {"__name__": "m"}
    exec(compile(tree, "m", "exec"), namespace)
    return unnamed({"m": list(definitions(tree))}, named(tree, "m", strings) | overrides(namespace))


def test_detector_flags_an_unnamed_function_and_method():
    source = (
        "def used(): pass\ndef unused(): pass\ndef __getattr__(name): pass\n"
        "class A:\n    def kept(self): pass\n    def dropped(self): pass\n    def _private(self): pass\n"
        "used()\nLAYERS = ('m.A.kept',)\n"
    )
    assert flagged(source, strings=True) == {"m.unused", "m.A.dropped"}


def test_detector_ignores_numpy_attributes():
    source = "import numpy as np\nclass V:\n    def zeros(self): pass\nnp.zeros(3)\n"
    assert flagged(source) == {"m.V.zeros"}


def test_detector_resolves_self_to_the_enclosing_class():
    source = (
        "class A:\n    def size(self): pass\n"
        "class B:\n    def size(self): pass\n    def run(self): return self.size()\n"
        "B().run()\n"
    )
    assert flagged(source) == {"m.A.size"}


def test_detector_counts_strings_only_where_asked():
    source = "class V:\n    def unit(self): pass\nMETRIC = {'name': 'ops', 'unit': 'V.unit'}\n"
    assert flagged(source) == {"m.V.unit"}
    assert flagged(source, strings=True) == set()


def test_detector_does_not_take_a_variable_for_a_method():
    source = "class V:\n    def bit(self): pass\nbits = [bit for bit in range(3)]\n"
    assert flagged(source) == {"m.V.bit"}


def test_detector_counts_uses_inside_a_definition_once_it_is_used():
    source = (
        "class C:\n    def to_text(self): pass\n    def lines(self): pass\n"
        "    def __str__(self): return self.lines()\n"
        "def unused(c): return c.to_text() or unused(c)\n"
    )
    assert flagged(source) == {"m.unused", "m.C.to_text"}
    assert flagged(source + "main = unused\n") == set()


def test_detector_counts_an_override_of_an_outside_base_as_used():
    source = (
        "import argparse\n"
        "class P(argparse.ArgumentParser):\n    def error(self, message): pass\n    def extra(self): pass\n"
        "class Q(P):\n    def extra(self): pass\n"
    )
    assert flagged(source) == {"m.P.extra", "m.Q.extra"}


def test_every_definition_is_named():
    modules = [importlib.import_module(f"bermanpir.{p.stem}") for p in SRC.glob("*.py") if p.stem != "__init__"]
    names = set().union(
        *(named(ast.parse(p.read_text()), p.stem if p.parent == SRC else None, p == TRACER) for p in PROGRAM),
        *(overrides(vars(module)) for module in modules),
    )
    defined = {p.stem: list(definitions(ast.parse(p.read_text()))) for p in SRC.glob("*.py")}
    assert unnamed(defined, names) == set(), "named nowhere in the program"


def test_every_oracle_is_named_by_a_test():
    tree = ast.parse((TESTS / "oracles.py").read_text())
    names = named(tree, "oracles").union(*(named(ast.parse(p.read_text())) for p in TESTS.glob("test_*.py")))
    defined = list(definitions(tree))
    assert len(defined) > 20
    assert unnamed({"oracles": defined}, names) == set(), "named by no test"


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
