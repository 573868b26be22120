"""Count the code lines of Python modules.

A code line holds at least one token that is not a comment, and is not part
of a statement that is a string literal alone: module, class and function
docstrings, the docstrings placed under module attributes and any other bare
string all count as documentation, not code.  Blank lines count for nothing.

    python tools/code_lines.py [PATH ...]

Each PATH is a file or a directory searched for ``*.py``; with no PATH it
reads ``src/twistdance``, so run it from the repository root.  Prints one
line per module, then the total of every module but ``__main__.py``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that make no line code on their own
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: bytes) -> int:
    """The code lines of one module's source."""
    strings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            strings.update(range(node.lineno, node.end_lineno + 1))
    lines: set[int] = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - strings)


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv or ["src/twistdance"]]
    modules = sorted(p for path in paths for p in ([path] if path.is_file() else path.rglob("*.py")))
    total = 0
    for module in modules:
        count = code_lines(module.read_bytes())
        if module.name != "__main__.py":
            total += count
        print(f"{count:6d}  {module}")
    print(f"{total:6d}  total without __main__.py")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
