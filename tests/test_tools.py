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
    assert src_lines.count(SOURCE) == (20, 7, 0)


def test_src_lines_counts_raise_statements():
    # a raise in a nested function and a bare re-raise count; the word in a
    # comment or a string does not
    source = (
        "def f(x):\n"
        "    def g():\n"
        "        raise ValueError('raise')  # raise\n"
        "    try:\n"
        "        g()\n"
        "    except ValueError:\n"
        "        raise\n"
    )
    assert src_lines.count(source) == (7, 7, 2)


def test_src_lines_compares_two_roots_per_module(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, files in (
        (old, {"pkg/a.py": SOURCE, "pkg/gone.py": "x = 1\n"}),
        (new, {"pkg/a.py": SOURCE + "z = 2\n\n", "pkg/added.py": "import os\nraise OSError\n"}),
    ):
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
    assert src_lines.main(["src_lines.py", str(old), str(new)]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "old", "total", "old", "code", "old", "raises", "new", "total",
                      "new", "code", "new", "raises", "change", "code", "change", "raises",
                      "change"]
    # a module under one root only counts 0 under the other
    assert rows == [
        ["pkg/a.py", "20", "7", "0", "22", "8", "0", "+2", "+1", "+0"],
        ["pkg/added.py", "0", "0", "0", "2", "2", "1", "+2", "+2", "+1"],
        ["pkg/gone.py", "1", "1", "0", "0", "0", "0", "-1", "-1", "+0"],
        ["total", "21", "8", "0", "24", "10", "1", "+3", "+2", "+1"],
    ]
    # one root prints its own counts only
    assert src_lines.main(["src_lines.py", str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "total", "code", "raises"]
    assert lines[-1].split() == ["total", "24", "10", "1"]
    assert src_lines.main(["src_lines.py", str(old), str(new), str(new)]) == 2
