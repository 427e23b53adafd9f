"""Count the total and code lines of each module under ``src/``.

Usage: ``python3 tools/src_lines.py [ROOT]``, where ROOT defaults to the
``src`` directory beside this script's parent. It prints one row per
``.py`` file, sorted by path, then a total row.

Method. A file's *total* is its number of physical lines. A line is a
*code* line when some token on it, as ``tokenize`` reads the file, is
not a comment, a newline, an indent or a dedent, and is not part of a
docstring. A docstring is the string literal that opens a module, class
or function body, as ``ast.get_docstring`` finds it; every line it spans
is left out. So blank lines, comment-only lines and docstring lines are
not code; a line holding code and a trailing comment is; every line of a
string that is not a docstring is.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                starts.add((body[0].value.lineno, body[0].value.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """``(total, code)`` lines of one module's source."""
    docstrings = docstring_starts(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type in NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    rows = [(path.relative_to(root), *count(path.read_text())) for path in sorted(root.rglob("*.py"))]
    width = max(len(str(name)) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'total':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{str(name):<{width}}  {total:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
