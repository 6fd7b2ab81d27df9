"""The scripts under tools/."""
import runpy
from pathlib import Path

import pytest

SRC_LINES = runpy.run_path(str(Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"))

# line by line: doc, code, blank, comment, code, doc, doc, blank, code, doc,
# code, code (blank, but inside a string), code, code, blank, comment
SOURCE = '''"""Module docstring."""
import os

# a line holding only a comment
class Box:
    """Class docstring,
    on two lines."""

    def text(self):
        """Function docstring."""
        value = """not a docstring

        though it spans lines"""
        return value + os.sep  # a trailing comment keeps the line code

    # a comment at the end
'''


def test_count_sorts_each_line_into_one_column():
    # all, code, docstring and comment, blank
    assert SRC_LINES["count"](SOURCE) == (16, 7, 6, 3)


def test_main_prints_a_row_per_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert SRC_LINES["main"]([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "all", "code", "doc+comment", "blank"],
        ["a.py", "16", "7", "6", "3"],
        ["b.py", "3", "1", "1", "1"],
        ["total", "19", "8", "7", "4"],
    ]


@pytest.mark.parametrize("source", ["", "\n\n"])
def test_count_of_a_module_without_code(source):
    lines = source.count("\n")
    assert SRC_LINES["count"](source) == (lines, 0, 0, lines)
