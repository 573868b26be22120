"""The code-line counter that every code-line figure of the package comes from."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Six code lines: the import, the class and def lines, the attribute, and the
# return statement's two lines.  Docstrings, the bare string, comments and
# blank lines count for nothing.
SOURCE = b'''"""A module docstring,
over two lines."""

import os  # a comment on a code line

# a comment alone


class Box:
    """A class docstring."""

    size = 3
    """An attribute docstring, under its attribute."""

    def area(self):
        """A function
        docstring."""
        "a bare string statement"
        return (self.size
                * self.size)
'''


def test_code_lines_count_statements_and_nothing_else():
    assert code_lines.code_lines(SOURCE) == 6
    assert code_lines.code_lines(b"") == 0


def test_the_total_is_the_sum_of_the_modules_but_main(tmp_path, capsys):
    (tmp_path / "box.py").write_bytes(SOURCE)
    (tmp_path / "one.py").write_bytes(b"x = 1\n")
    (tmp_path / "__main__.py").write_bytes(b"import sys\nsys.exit(0)\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = [line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines()]
    assert lines == [
        ["2", str(tmp_path / "__main__.py")],
        ["6", str(tmp_path / "box.py")],
        ["1", str(tmp_path / "one.py")],
        ["7", "total without __main__.py"],
    ]
