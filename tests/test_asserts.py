"""Tooling: no library module checks an invariant with ``assert``, which
``python -O`` strips."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bermanpir"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def assert_lines(source):
    """Line numbers of the ``assert`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_detector_flags_an_assert():
    assert assert_lines("def f(x):\n    assert x, 'no'\n    return x\n") == [2]


@pytest.mark.parametrize("module", MODULES)
def test_no_asserts(module):
    assert assert_lines((SRC / f"{module}.py").read_text()) == []
