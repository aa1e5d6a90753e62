"""The README's `$ zifsim ...` examples, run and compared with the text shown.

An example is a ```text block whose first line is `$ zifsim ARGS`; the
lines after it are what the command prints. Status lines go to stderr
and data to stdout, so the shown text must be the two streams merged,
each in its own order. Examples that elide rows with `...` are skipped.
"""

import functools
import shlex
from pathlib import Path

import pytest

from zifsim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def examples():
    """(argv, shown lines) of each complete `$ zifsim` example."""
    found = []
    for block in README.read_text().split("```text\n")[1:]:
        command, *shown = block.split("```")[0].splitlines()
        if command.startswith("$ zifsim ") and not any("..." in line for line in shown):
            found.append((shlex.split(command)[2:], shown))
    return found


def interleaves(lines, out, err):
    """Whether `lines` is `out` and `err` merged, each kept in its order."""

    @functools.cache
    def merged(i, j):
        k = i + j
        if k == len(lines):
            return i == len(out) and j == len(err)
        return ((i < len(out) and lines[k] == out[i] and merged(i + 1, j))
                or (j < len(err) and lines[k] == err[j] and merged(i, j + 1)))

    return merged(0, 0)


def test_the_readme_has_complete_examples():
    assert len(examples()) >= 3


@pytest.mark.parametrize("argv, shown", [pytest.param(argv, shown, id=" ".join(argv))
                                          for argv, shown in examples()])
def test_readme_example_prints_what_it_shows(capsys, argv, shown):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert interleaves(shown, captured.out.splitlines(), captured.err.splitlines())
