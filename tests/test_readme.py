"""The README's examples: the library quickstart runs and prints what its
comment says, and the CLI block is shell syntax whose ``params`` line prints
the two comment lines under it."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from bermanpir import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def block(language, after):
    """The first ``language`` code block after the heading ``after``."""
    start = README.index(after)
    return re.search(rf"^```{language}\n(.*?)^```$", README[start:], re.S | re.M).group(1)


def commands(text):
    """The ``bermanpir`` lines of a shell block, ``\\`` continuations joined."""
    lines = text.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("bermanpir ")]


def test_quickstart_prints_its_commented_rate():
    code = block("python", "## Library quickstart")
    comment = re.search(r"^print\(transcript\.achieved_rate\) +# (.*)$", code, re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[0] == comment == "4/9"


def test_cli_lines_split_as_the_shell_splits_them():
    # punctuation_chars makes unquoted parentheses tokens of their own, as
    # they are to the shell, so an unquoted code name gives another argv.
    lines = commands(block("bash", "## CLI"))
    assert len(lines) == 4
    for line in lines:
        shell = list(shlex.shlex(line, posix=True, punctuation_chars=True))
        assert shlex.split(line, comments=True) == shell, line


def test_cli_params_line_prints_its_comment(capsys):
    text = block("bash", "## CLI")
    line = next(line for line in commands(text) if line.startswith("bermanpir params "))
    after = text.splitlines()[text.splitlines().index(line) + 1 :][:2]
    assert cli.main(shlex.split(line)[1:]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines() == [comment.removeprefix("# ") for comment in after]
