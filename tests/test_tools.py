"""Tooling scripts under ``tools/``: the ``src/`` code-line count."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from oracles import child_env

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "src_code_lines.py"

SAMPLE = '''"""Module docstring,
two lines."""

import os  # a comment on a code line


# a comment-only line
class A:
    """Class docstring."""

    x = """a string that is no docstring,
    on two lines"""

    def f(self):
        """Function docstring."""
        return (1,
                2)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("src_code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    # import, class, the two lines of x, def, and the two lines of return.
    assert load_tool().code_lines(SAMPLE) == 7


def test_prints_every_module_and_the_total():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    *modules, total = [line.split() for line in proc.stdout.splitlines()]
    assert sorted(name for _, name in modules) == sorted(p.name for p in (ROOT / "src" / "bermanpir").glob("*.py"))
    assert total[1] == "total" and int(total[0]) == sum(int(count) for count, _ in modules)
