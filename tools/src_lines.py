"""Count the total lines, code lines and raise statements of each module under ``src/``.

Usage: ``python3 tools/src_lines.py [ROOT]``, where ROOT defaults to the
``src`` directory beside this script's parent. It prints one row per
``.py`` file, sorted by path, then a total row.

``python3 tools/src_lines.py OLD_ROOT NEW_ROOT`` compares two trees, say
a checkout of the parent commit and the working tree: each row holds a
module's counts under both roots and the changes, new minus old. A module
found under one root only counts 0 under the other.

Method. A file's *total* is its number of physical lines. A line is a
*code* line when some token on it, as ``tokenize`` reads the file, is
not a comment, a newline, an indent or a dedent, and is not part of a
docstring. A docstring is the string literal that opens a module, class
or function body, as ``ast.get_docstring`` finds it; every line it spans
is left out. So blank lines, comment-only lines and docstring lines are
not code; a line holding code and a trailing comment is; every line of a
string that is not a docstring is. A module's *raises* are its ``raise``
statements, bare ones included, as ``ast.Raise`` nodes.
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


def count(source: str) -> tuple[int, int, int]:
    """``(total, code, raises)`` of one module's source."""
    tree = ast.parse(source)
    docstrings = docstring_starts(tree)
    code: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type in NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    raises = sum(isinstance(node, ast.Raise) for node in ast.walk(tree))
    return len(source.splitlines()), len(code), raises


def module_counts(root: Path) -> dict[str, tuple[int, int, int]]:
    """:func:`count` of each ``.py`` file under ``root``, keyed by relative path."""
    return {str(path.relative_to(root)): count(path.read_text()) for path in root.rglob("*.py")}


def main(argv: list[str]) -> int:
    if len(argv) > 3:
        print("usage: src_lines.py [ROOT | OLD_ROOT NEW_ROOT]", file=sys.stderr)
        return 2
    roots = [Path(a) for a in argv[1:]] or [Path(__file__).resolve().parent.parent / "src"]
    tables = [module_counts(root) for root in roots]
    names = sorted(set().union(*tables))
    rows = [[n for table in tables for n in table.get(name, (0, 0, 0))] for name in names]
    header = ["total", "code", "raises"]
    if len(roots) == 2:
        header = [f"{side} {h}" for side in ("old", "new") for h in header] + [
            "change", "code change", "raises change"
        ]
        rows = [row + [new - old for old, new in zip(row[:3], row[3:])] for row in rows]
    names.append("total")
    rows.append([sum(column) for column in zip(*rows)])
    width = max(len(name) for name in names)
    widths = [max(len(h), 6) for h in header]
    signs = ["+" if h.endswith("change") else "" for h in header]
    print("  ".join([f"{'module':<{width}}"] + [f"{h:>{w}}" for h, w in zip(header, widths)]))
    for name, row in zip(names, rows):
        cells = [f"{n:>{s}{w}}" for n, s, w in zip(row, signs, widths)]
        print("  ".join([f"{name:<{width}}"] + cells))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
