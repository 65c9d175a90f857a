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


# Public functions that nothing in the package reaches, and why each stays.
UNREACHED_ALLOWED = {
    "generators.cgamma_kind1_positive": "the acceptance tests import it",
    "generators.cgamma_kind1_recurrence": "the acceptance tests import it",
    "generators.cgamma_kind2_positive": "the acceptance tests import it",
    "permutations.cycle_permutation": "ROADMAP item 4's Schubert-side search takes w from it",
    "generators.hole_dual_spectrum": "ROADMAP item 7 maps the vertex tables through it",
    "generators.hole_dual_inequality": "ROADMAP item 7 maps the inequality tables through it",
    "fixtures.spin_orbital_inequalities": "golden data that the benchmark and the tests load",
}


def _referenced_names(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _unreached_public_functions() -> set[str]:
    """Public module-level functions no package code names outside their own body."""
    statements = [
        (path.stem, stmt, _referenced_names(stmt))
        for path in sorted(SOURCE.glob("*.py"))
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]
    return {
        f"{module}.{node.name}"
        for module, node, _ in statements
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in paulitope.__all__
        and not any(node.name in names for _, stmt, names in statements if stmt is not node)
    }


def test_every_public_function_has_a_caller():
    # a helper only tests call belongs in tests/oracles.py, or gets a caller
    unreached = _unreached_public_functions()
    extra = sorted(unreached - UNREACHED_ALLOWED.keys())
    assert extra == [], f"public functions nothing in the package reaches: {', '.join(extra)}"
    stale = sorted(UNREACHED_ALLOWED.keys() - unreached)
    assert stale == [], f"allowlisted functions that are reached or gone: {', '.join(stale)}"
