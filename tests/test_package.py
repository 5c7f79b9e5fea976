"""Package-wide source properties."""

import ast
from math import prod
from pathlib import Path

import rho_lattice
from rho_lattice import abelian, surgery

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


def _called_name(call: ast.Call):
    """The name a call is made through: ``f`` in ``f(...)`` and ``m.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _allocates_element(call: ast.Call) -> bool:
    """Whether a call builds an Element: ``Element(...)``, or a ``__new__``
    (or ring's alias ``_new``) applied to Element."""
    func = call.func
    name = _called_name(call)
    if name == "Element":
        return True
    if name not in ("__new__", "_new"):
        return False
    owner = [func.value] if isinstance(func, ast.Attribute) else []
    return any(isinstance(n, ast.Name) and n.id == "Element" for n in owner + call.args[:1])


def _calls_by_function(node, function=None):
    """(name of the innermost enclosing function or None, call) for every
    call under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Call):
        yield function, node
    for child in ast.iter_child_nodes(node):
        yield from _calls_by_function(child, function)


def _call_sites(name) -> list[str]:
    """``module.function`` of every call in the package made through
    ``name``, or, for a callable ``name``, of every call it accepts."""
    matches = name if callable(name) else lambda call: _called_name(call) == name
    return [
        f"{path.stem}.{function}"
        for path in sorted(PACKAGE.glob("*.py"))
        for function, call in _calls_by_function(ast.parse(path.read_text()))
        if matches(call)
    ]


def test_only_ring_make_allocates_elements():
    # ring._make is the one place that puts an Element in canonical form;
    # a fast path that allocated elements itself could skip it
    assert _call_sites(_allocates_element) == ["ring._make"]


def test_only_ring_modulus_builds_moduli():
    # ring.modulus hands out one Modulus per ring, and moduli compare by
    # identity; a Modulus built anywhere else would equal none of them
    assert _call_sites("Modulus") == ["ring.modulus"]


def test_only_abelian_and_realizations_take_hermite_bases():
    # every subgroup question goes through abelian.Span or annihilator; a
    # module that builds its own Hermite basis re-encodes a span by hand.
    # The realizations of a rho are the one lattice read off row by row
    assert _call_sites("hermite_basis") == [
        "abelian.annihilator",
        "abelian.__init__",
        "abelian.group",
        "surgery.realizations",
    ]


def test_only_realizations_solves_congruences():
    # the kernel and every realizability question are one lattice, the
    # realizations of a rho; an annihilator taken anywhere else derives
    # the coordinate-class congruence a second time
    assert _call_sites("annihilator") == ["surgery.realizations"]


def test_only_solve_rational_eliminates():
    # ranks come from traces and subgroups from Hermite bases; the dense
    # rational solve behind ring.inverse's units and verify's witness
    # re-derivation is the one use of elimination
    assert _call_sites("fraction_free_rref") == ["abelian.solve_rational"]


def test_only_units_reach_the_dense_solve():
    # ring.inverse refuses a zero divisor from its cyclotomic factors and
    # solves only for units; the inverse round trip re-derives each
    # refusal's witness as the dense solve's null vector
    assert _call_sites("solve_rational") == ["ring.inverse", "verify._check_inverse_roundtrip"]


def test_only_the_crt_round_trip_combines():
    # f, f_k and g are closed cotangent sums; an element assembled from
    # its CRT components is a second construction of a closed form
    assert _call_sites("crt_combine") == ["verify._check_crt"]


def test_only_check_run_draws_random_streams():
    # Check.run builds a seeded check's stream from the check's own seed,
    # statement and params; a check that built its own would re-type the
    # registry's identity of that check
    assert _call_sites("_rng") == ["verify.run"]


def test_itertools_product_only_at_known_enumerations():
    # the kernel and the coordinates that realize a rho are lattices and
    # are never enumerated; what is left are the brute-force kernel oracle
    # and verify's torsion oracle
    assert _call_sites("product") == [
        "surgery._residue_sums",
        "verify._torsion_elements",
    ]


def test_only_known_value_classes_write_a_constructor():
    # Frozen assigns every field by position or name; a value class writes
    # its own __init__ only to validate or derive (Modulus, FinAb, Span,
    # LensParams, TorsionBasis), to skip the generic loop on a hot path
    # (NormalCoords, StructureElement) or to refuse direct construction
    # (Element, built in canonical form by ring._make)
    owners = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id == "Frozen" for base in node.bases)
        and any(isinstance(item, ast.FunctionDef) and item.name == "__init__" for item in node.body)
    ]
    assert owners == [
        "abelian.FinAb",
        "abelian.Span",
        "ring.Modulus",
        "ring.Element",
        "surgery.LensParams",
        "surgery.NormalCoords",
        "surgery.StructureElement",
        "suspension.TorsionBasis",
    ]


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


def test_only_hermite_basis_merges_vectors():
    # hermite_basis merges its first 32 vectors one by one and afterwards
    # only the first non-member of each membership pass; a second caller
    # of the merge step would merge members that cannot change the basis
    assert _call_sites("_merge_vector") == ["abelian.hermite_basis"] * 2


def test_the_kernel_merges_only_growth_steps_past_32_vectors(monkeypatch):
    # the rho = 0 annihilator at (1024, 8) reads one vector per formula
    # column, and its lattice stops growing within a few dozen of them; a
    # merge of every column would merge about 1,000 members
    merges, lengths = [], []
    real_merge, real_basis = abelian._merge_vector, abelian.hermite_basis

    def merge(h, vec, mods):
        before = prod(row[i] for i, row in enumerate(h))
        real_merge(h, vec, mods)
        merges.append(prod(row[i] for i, row in enumerate(h)) < before)

    def basis(mods, vecs):
        vecs = list(vecs)
        lengths.append(len(vecs))
        return real_basis(mods, vecs)

    monkeypatch.setattr(abelian, "_merge_vector", merge)
    monkeypatch.setattr(abelian, "hermite_basis", basis)
    monkeypatch.setattr(surgery, "hermite_basis", basis)
    surgery.kernel_rho_bar.cache_clear()
    surgery.kernel_rho_bar(surgery.LensParams(1024, 8))
    assert max(lengths) > 1000
    assert len(merges) <= sum(min(n, 32) for n in lengths) + merges.count(True)
