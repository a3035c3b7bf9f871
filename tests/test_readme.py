"""README's library quick start runs as written and gives the values its comments show."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
VALUE = re.compile(r"#\s*(\S+)\s*$")


def quick_start_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_quick_start_gives_each_commented_value():
    # each bare expression ends in a "# value" comment; every other statement
    # runs in order, as a reader pasting the block would run it
    source = quick_start_block()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            shown = VALUE.search(lines[node.end_lineno - 1])
            assert shown, f"README quick start line {node.end_lineno} shows no value"
            value = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
            assert value == pytest.approx(float(shown.group(1)), rel=1e-12, abs=1e-12), \
                lines[node.end_lineno - 1]
            checked += 1
        else:
            exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), namespace)
    assert checked > 0
