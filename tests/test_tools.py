import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment-only line
import math  # code with a trailing comment


def f(x):
    """A one-line docstring."""

    text = """a string that is
no docstring"""
    return math.floor(x), text


class C:
    """A class docstring,

    with a blank line inside."""
    y = 1
'''


def test_src_lines_counts_code_lines_only():
    # code lines: the import, def, the two string lines, return, class, y
    assert src_lines.count(SOURCE) == (20, 7)
