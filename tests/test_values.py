"""The immutable value classes: repr, equality, hash, pickling, immutability."""

import pickle

import pytest

from rho_lattice import ring, surgery, suspension, verify
from rho_lattice.abelian import FinAb, Span
from rho_lattice.elements import Catalog, f_element, f_k_element, f_prime_k_element, g_element
from rho_lattice.surgery import LensParams, NormalCoords

P = LensParams(2, 3)
Z = (
    "StructureElement(params=LensParams(N=2, d=3, k=1), rho=<0 in Q[x]/<1 + x + ... + x^1>>, "
    "coords=NormalCoords(t4=(0,), t4m2=(0,)))"
)
Z4 = Z.replace("d=3", "d=4")


def _unit(t4, t4m2):
    return Z.replace("t4=(0,), t4m2=(0,)", f"t4=({t4},), t4m2=({t4m2},)")


# (build, old dataclass repr, a field, hashable); build makes a fresh object
VALUES = {
    "Modulus": (
        lambda: ring.truncated(8),
        "Modulus(N=8, kind='truncated', param=0)",
        "N",
        True,
    ),
    "Element": (
        lambda: ring.reduce_poly({0: 1, 1: 2}, ring.truncated(4)),
        "<1 + 2*x^1 in Q[x]/<1 + x + ... + x^3>>",
        "num",
        True,
    ),
    "FinAb": (lambda: FinAb((2, 4)), "FinAb(factors=(2, 4))", "factors", True),
    "Span": (lambda: Span([4, 2], [[5, 1]]), "Span(mods=(4, 2), gens=((1, 1),))", "gens", True),
    "Catalog": (
        lambda: Catalog(
            3, 1, f_element(3), f_k_element(3, 1), f_prime_k_element(3, 1), g_element(3)
        ),
        "Catalog(N=3, k=1, f=<1/3 + 2/3*x^1 in Q[x]/<1 + x + ... + x^2>>, "
        "f_k=<1/3 + 2/3*x^1 in Q[x]/<1 + x + ... + x^2>>, "
        "f_prime_k=<1 in Q[x]/<1 + x + ... + x^2>>, g=<-1 + -2*x^1 in Q[x]/<1 + x + ... + x^2>>)",
        "g",
        True,
    ),
    "LensParams": (lambda: LensParams(8, 6, 9), "LensParams(N=8, d=6, k=1)", "k", True),
    "NormalCoords": (
        lambda: NormalCoords((1,), (0,)),
        "NormalCoords(t4=(1,), t4m2=(0,))",
        "t4",
        True,
    ),
    "KernelResult": (
        lambda: surgery.kernel_rho_bar(P),
        "KernelResult(torsion=FinAb(factors=(2, 2)), span=Span(mods=(2,), gens=((1,),)))",
        "span",
        True,
    ),
    "StructureSetDescriptor": (
        lambda: surgery.structure_set(P),
        "StructureSetDescriptor(params=LensParams(N=2, d=3, k=1), free_rank=0, "
        "kernel=KernelResult(torsion=FinAb(factors=(2, 2)), span=Span(mods=(2,), gens=((1,),))))",
        "free_rank",
        True,
    ),
    "StructureElement": (lambda: surgery.zero_element(P), Z, "rho", True),
    "SuspensionResult": (
        lambda: suspension.suspend(surgery.zero_element(P)),
        f"SuspensionResult(source={Z}, candidates=({Z4},), determined={Z4})",
        "determined",
        True,
    ),
    "ChoiceRecord": (
        lambda: suspension.ChoiceRecord({"N": 8, "d": 4, "k": 1}, (2, 6), 2),
        "ChoiceRecord(source_params={'N': 8, 'd': 4, 'k': 1}, candidate_t4e=(2, 6), "
        "chosen_t4e=2)",
        "chosen_t4e",
        False,
    ),
    "TorsionBasis": (
        lambda: suspension.torsion_basis(P),
        f"TorsionBasis(params=LensParams(N=2, d=3, k=1), mu4=({_unit(1, 0)},), "
        f"mu4m2=({_unit(0, 1)},), orders=(2,), choice_log=())",
        "span",
        True,
    ),
    "Check": (
        lambda: verify.Check("s", {"N": 2}, len, ((),), "ring", 0, False),
        "Check(statement='s', params={'N': 2}, fn=<built-in function len>, args=((),), "
        "suite='ring', seed=0, seeded=False)",
        "seed",
        False,
    ),
    "Statement": (
        lambda: verify.Statement("s", "ring", len, (({"N": 2}, (2,)),), False),
        "Statement(name='s', suite='ring', fn=<built-in function len>, "
        "rows=(({'N': 2}, (2,)),), seeded=False)",
        "seeded",
        False,
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_class(name):
    build, expected, field, hashable = VALUES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert repr(a) == expected
    assert a == b and not a != b and a != object()
    if hashable:
        assert hash(a) == hash(b)
    else:  # a dict field, as with the dataclass
        with pytest.raises(TypeError):
            hash(a)
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and repr(copy) == expected
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    # slots only: no instance dict to write around the frozen fields
    assert not hasattr(a, "__dict__")


def test_torsion_basis_span_is_outside_eq_hash_and_repr():
    # the span (with its Hermite basis) is derived, like a Span's own h and order
    basis = suspension.torsion_basis(LensParams(4, 4))
    other = suspension.TorsionBasis(
        basis.params, basis.mu4, basis.mu4m2, basis.orders, basis.choice_log
    )
    assert other == basis and hash(other) == hash(basis) and repr(other) == repr(basis)
    copy = pickle.loads(pickle.dumps(basis))
    assert copy.span == basis.span and copy.span.h == basis.span.h
    assert copy.span.order == basis.span.order == 8


@pytest.mark.parametrize(
    "args, kwargs, message",
    (
        ((), {"candidate_t4e": (2,), "chosen_t4e": 2}, r"missing fields \('source_params',\)"),
        (({}, (2,), 2, 3), {}, r"takes 3 fields .*, got 4"),
        (({}, (2,), 2), {"chosen": 2}, "has no field 'chosen'"),
        (({}, (2,)), {"candidate_t4e": (2,), "chosen_t4e": 2}, "field 'candidate_t4e' twice"),
    ),
)
def test_generic_constructor_takes_each_field_once(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        suspension.ChoiceRecord(*args, **kwargs)
    by_name = suspension.ChoiceRecord(chosen_t4e=2, source_params={}, candidate_t4e=(2,))
    assert by_name == suspension.ChoiceRecord({}, (2,), 2)


def test_element_is_not_built_directly():
    # only ring._make puts an element in canonical form
    m = ring.truncated(4)
    for args in ((m, (2, 0, 0), 2), (m, (1, 0, 0), 1), ()):
        with pytest.raises(TypeError):
            ring.Element(*args)


def test_generic_to_json_writes_fields_in_order():
    basis = suspension.torsion_basis(LensParams(8, 6))
    obj = basis.to_json()
    assert list(obj) == list(basis._fields)  # --format tsv prints in this order
    assert obj["mu4"] == [x.to_json() for x in basis.mu4]
    assert obj["choice_log"] == [c.to_json() for c in basis.choice_log] != []
    assert obj["orders"] == list(basis.orders)
    assert obj["params"] == {"N": 8, "d": 6, "k": 1}


def test_modulus_dim_per_kind():
    assert [m.dim for m in (ring.group_ring(24), ring.truncated(24))] == [24, 23]
    assert [m.dim for m in ring.crt_factors(24)] == [1, 2, 4, 16]


@pytest.mark.parametrize(
    "args, message",
    (
        ((1, "truncated", 0), "N must be >= 2"),
        ((8, "cyclic", 0), "unknown ring kind 'cyclic'"),
        ((8, "binomial_plus", 3), r"binomial_plus\(3\) requires 2\^4 \| N"),
        ((8, "odd_truncated", 0), "odd_truncated requires"),
        ((9, "odd_truncated", 0), "odd_truncated requires"),
        ((8, "binomial_plus", -1), r"binomial_plus\(-1\) requires .*l >= 0"),
        ((8, "binomial_plus", 10**18), r"binomial_plus\(1000000000000000000\) requires"),
        ((8, "truncated", 3), "truncated takes no parameter l, got 3"),
        ((8, "group", 1), "group takes no parameter l, got 1"),
        ((12, "odd_truncated", -1), "odd_truncated takes no parameter l, got -1"),
    ),
)
def test_modulus_validation(args, message):
    with pytest.raises(ValueError, match=message):
        ring.modulus(*args)
