"""Rules the package source keeps, checked on its syntax tree."""

from __future__ import annotations

import ast
from pathlib import Path

import paulitope

SOURCE = Path(paulitope.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check must raise explicitly
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SOURCE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in the package: {', '.join(found)}"
