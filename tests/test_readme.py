"""The README's examples run as written: each CLI line and the Python block."""

import re
import shlex
from pathlib import Path

import pytest

from coxlinks.cli import EXIT_CHECK_FAILED, EXIT_OK, main

README = (Path(__file__).parents[1] / "README.md").read_text()


def _block(heading, language):
    """The first ``language`` code block after ``heading``."""
    section = README[README.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [
    shlex.split(line, comments=True)[1:]
    for line in _block("## CLI usage", "sh").splitlines()
    if line.startswith("coxlinks ")
]


@pytest.mark.parametrize("argv", CLI_LINES, ids=" ".join)
def test_readme_cli_line_exits_as_documented(argv, capsys):
    # The full suite exits 3 while criterion 3's recorded negative stands.
    expected = EXIT_CHECK_FAILED if argv == ["check", "--level", "full"] else EXIT_OK
    assert main(argv) == expected
    assert capsys.readouterr().err == ""


def test_readme_python_block_runs():
    exec(compile(_block("## Library entry points", "python"), "README.md", "exec"), {})
