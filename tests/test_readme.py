"""The README's examples run and print what it says they print."""

import re
import shlex
from pathlib import Path

from twistdance.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str) -> str:
    """The first fenced code block after ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_what_its_comment_says(capsys):
    code = _block("## Library")
    assert "# 2 1 (0, 2)" in code
    exec(code, {})
    assert capsys.readouterr().out == "2 1 (0, 2)\n"


def test_command_line_examples_print_what_the_readme_says(tmp_path, monkeypatch, capsys):
    lines = _block("## Command line").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines]
    assert [argv[:2] for argv in commands] == [
        ["twistdance", "validate"], ["twistdance", "dance"], ["twistdance", "solve"],
    ]
    monkeypatch.chdir(tmp_path)  # ``dance`` writes its --json and --svg files here
    expected = ["O1+ U2+ O3+ U1+ O2+ U3+\n", "FEASIBLE\n", "n=2 k=4 points=0,2\n"]
    for argv, out in zip(commands, expected):
        assert main(argv[1:]) == 0
        assert capsys.readouterr().out == out
    assert (tmp_path / "trace.json").is_file() and (tmp_path / "dance.svg").is_file()
