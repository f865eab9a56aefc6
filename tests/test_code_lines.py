import pytest

from code_lines import code_lines, count, deltas, main

FIXTURE = '''"""Module docstring,
on two lines."""
import os  # a trailing comment keeps its line

# a comment line
LIMIT = 3
"""A string under a constant is no docstring."""


class Box:
    """Class docstring."""

    size = (
        1,
        2,
    )

    def area(self):
        """Method docstring."""
        text = """a string
that spans two lines"""
        return text


async def fetch():
    \'\'\'Async docstring.\'\'\'
'''


def test_counts_code_lines_without_blanks_comments_or_docstrings(tmp_path):
    # import, LIMIT, the string under it, class, size's 4 lines, def area,
    # text's 2 lines, return and async def
    assert code_lines(FIXTURE) == 13
    (tmp_path / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    assert count(tmp_path) == [("fixture.py", len(FIXTURE.splitlines()), 13)]


def test_prints_each_modules_code_line_delta_against_a_second_checkout_and_the_net(tmp_path, capsys):
    other, this = tmp_path / "other", tmp_path / "this"
    other.mkdir()
    this.mkdir()
    (other / "kept.py").write_text("a = 1\nb = 2\n\n# gone\nc = 3\n", encoding="utf-8")
    (this / "kept.py").write_text('"""Docstring."""\na = 1\n', encoding="utf-8")
    (other / "removed.py").write_text("x = 1\n", encoding="utf-8")
    (this / "added.py").write_text("y = 1\nz = 2\n", encoding="utf-8")
    assert deltas(other, this) == [("added.py", 0, 2), ("kept.py", 3, 1), ("removed.py", 1, 0)]
    main([str(other)], src=this)
    assert capsys.readouterr().out.splitlines() == [
        "module      other  this  delta",
        "added.py        0     2     +2",
        "kept.py         3     1     -2",
        "removed.py      1     0     -1",
        "total           4     3     -1",
    ]
    with pytest.raises(SystemExit, match="no modules in"):
        main([str(tmp_path / "missing")], src=this)
