from code_lines import code_lines, count

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
