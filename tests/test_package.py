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


def test_no_module_imports_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, about 11 ms of
    # every cold CLI query; the value classes are written out instead.
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if "dataclasses" in _imported_modules(node)
    ]
    assert offenders == []


def _imported_modules(node) -> set:
    """The top-level modules an import statement names."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return {node.module.split(".")[0]}
    return set()


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


def test_only_abelian_takes_smith_forms():
    # every subgroup question goes through abelian.Span; a module that
    # builds its own Smith form re-encodes the span matrix by hand
    names = {"smith_normal_form", "solve_with_snf"}
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "abelian.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.ImportFrom) and names & {a.name for a in node.names})
    ]
    assert offenders == []


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(module: str, tree: ast.Module):
    """(label, name, node) for every top-level function and class and every
    non-dunder method."""
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFINITIONS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _name_uses(tree: ast.Module, uses: dict) -> None:
    """Record, for every ast.Name and ast.Attribute, the ids of the
    definitions that enclose it."""

    def visit(node, enclosing):
        if isinstance(node, _DEFINITIONS):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name):
            uses.setdefault(node.id, []).append(enclosing)
        elif isinstance(node, ast.Attribute):
            uses.setdefault(node.attr, []).append(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())


def test_every_definition_is_used_in_the_package():
    # Code that only tests reach serves no command and no verify statement.
    # A use inside the definition itself (recursion) or in a docstring
    # does not count.
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    uses: dict = {}
    for tree in trees.values():
        _name_uses(tree, uses)
    unused = [
        label
        for module, tree in trees.items()
        for label, name, node in _definitions(module, tree)
        if not any(id(node) not in enclosing for enclosing in uses.get(name, ()))
    ]
    assert unused == []
