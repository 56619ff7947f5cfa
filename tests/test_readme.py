"""README's library quick start runs as printed and gives the values its
comments state, and every command of its CLI block parses, so renaming or
rebinding a documented name or option fails here."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from copulabounds import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# each commented expression of the quick start, in order: the comment's
# opening text and the value it states
STATED = [
    ("0.0", 0.0),
    ("0.40824829...", 0.40824829),
    ("4", 4),
    ("(-0.414213..., 1.0)", (-0.414213, 1.0)),
    ("True", True),
    ("False", False),
    ("False", False),
]


def test_library_quick_start():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    namespace, seen = {}, []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        line = lines[node.end_lineno - 1]
        if "#" in line:
            seen.append((line.split("#", 1)[1].strip(), value))
    assert len(seen) == len(STATED)
    for (comment, value), (stated, expected) in zip(seen, STATED):
        assert comment.startswith(stated)
        if isinstance(expected, (bool, int)):
            assert type(value) is type(expected) and value == expected, comment
        else:
            assert value == pytest.approx(expected, abs=1e-6), comment


def test_cli_block_parses():
    # parsed only, not run, so the block's full-size commands cost nothing
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 8
    for argv in commands:
        assert argv[0] == "copulabounds"
        cli.build_parser().parse_args(argv[1:])
