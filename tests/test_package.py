"""Package-wide source properties."""

import ast
from pathlib import Path

import rho_lattice

PACKAGE = Path(rho_lattice.__file__).parent


def _raises_bare_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    # ``assert`` vanishes under ``python -O``; library checks must raise a
    # typed error, and a bare AssertionError is one the CLI does not map.
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Raise) and _raises_bare_assertion_error(node))
    ]
    assert offenders == []


def test_elements_are_built_only_inside_ring():
    # Element's canonical form is kept by ring's one normalizing helper.
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "ring.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "Element")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "Element")
        )
    ]
    assert offenders == []
