"""Physical lines and code lines of each module in ``src/commtopo``.

Code lines leave out blank lines, comment-only lines and docstrings.
``tokenize`` finds the lines that hold a token other than a comment,
and ``ast`` finds the docstrings: a string literal that opens a module,
class or function body.  A string literal placed under a module
constant is code here, as it has no ``__doc__``.

Run from the repository root::

    python tests/code_lines.py
    python tests/code_lines.py OTHER_SRC_DIR

The second form prints each module's code-line delta against a second
checkout's ``src/commtopo``, say a ``git archive`` of the parent commit,
and the net delta: a PR's net line count in one command.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "commtopo"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code: a token other than
    a comment, outside every docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def count(src: Path = SRC) -> list[tuple[str, int, int]]:
    """(module file name, physical lines, code lines) of each module, by name."""
    rows = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        rows.append((path.name, len(text.splitlines()), code_lines(text)))
    return rows


def deltas(other: Path, src: Path = SRC) -> list[tuple[str, int, int]]:
    """(module file name, code lines in `other`, code lines in `src`) of
    each module in either directory, by name; a module missing from one
    counts 0 there."""
    before = {name: code for name, _, code in count(other)}
    after = {name: code for name, _, code in count(src)}
    return [(name, before.get(name, 0), after.get(name, 0)) for name in sorted(before.keys() | after.keys())]


def main(argv: list[str], src: Path = SRC) -> None:
    if not argv:
        rows = count(src)
        width = max(len(name) for name, _, _ in rows + [("total", 0, 0)])
        print(f"{'module':<{width}}  physical  code")
        for name, physical, code in rows + [("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]:
            print(f"{name:<{width}}  {physical:>8}  {code:>4}")
        return
    other = Path(argv[0])
    if not any(other.glob("*.py")):
        raise SystemExit(f"no modules in {other}")
    rows = deltas(other, src)
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  other  this  delta")
    for name, before, after in rows:
        print(f"{name:<{width}}  {before:>5}  {after:>4}  {after - before:>+5}")


if __name__ == "__main__":
    main(sys.argv[1:])
