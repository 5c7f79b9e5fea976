"""Quotient-ring arithmetic: canonical forms, units, involution, CRT."""

import copy
import math
import operator
import pickle
import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from rho_lattice import ring
from rho_lattice.abelian import solve_rational
from rho_lattice.exceptions import (
    ModulusMismatch,
    NotInvertible,
    OddOrderEvaluation,
    UnsupportedModulus,
    VerificationFailure,
    WorkCapExceeded,
)
from rho_lattice.ring import (
    const,
    crt_combine,
    crt_factors,
    crt_split,
    eigen_project,
    eigen_test,
    element_from_json,
    eval_minus_one,
    from_coeffs,
    from_numerators,
    geometric_sum,
    group_ring,
    in_lattice_4r,
    inverse,
    involution,
    one,
    reduce_poly,
    restrict,
    truncated,
    x_power,
    zero,
)

MODULI = st.sampled_from(
    [truncated(n) for n in (2, 3, 4, 5, 6, 8, 9, 12)]
    + [group_ring(n) for n in (2, 4, 6, 9)]
    + [ring.binomial_plus(8, l) for l in (0, 1, 2)]
    + [ring.odd_truncated(6), ring.odd_truncated(12)]
)


def elements(modulus):
    scalar = st.fractions(
        min_value=-9, max_value=9, max_denominator=6
    )
    return st.lists(scalar, min_size=modulus.dim, max_size=modulus.dim).map(
        lambda cs: from_coeffs(modulus, cs)
    )


@st.composite
def triples(draw):
    m = draw(MODULI)
    return (draw(elements(m)), draw(elements(m)), draw(elements(m)))


class TestReduce:
    def test_x4_is_one_in_truncated_4(self):
        m = truncated(4)
        assert reduce_poly({4: 1}, m) == one(m)

    def test_ideal_generator_reduces_to_zero(self):
        m = truncated(4)
        assert reduce_poly({0: 1, 1: 1, 2: 1, 3: 1}, m).is_zero()

    def test_negative_exponent(self):
        m = truncated(4)
        assert reduce_poly({-1: 1}, m) == reduce_poly({0: -1, 1: -1, 2: -1}, m)
        # x * x^-1 == 1 by direct expansion
        assert x_power(m, 1) * reduce_poly({-1: 1}, m) == one(m)

    def test_idempotent(self):
        m = truncated(6)
        a = reduce_poly({7: Fraction(3, 2), 2: -1}, m)
        assert reduce_poly({e: c for e, c in enumerate(a.coeffs)}, m) == a

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_reduce_is_ring_homomorphism(self, data):
        m = data.draw(MODULI)
        exps = st.integers(min_value=-2 * m.N, max_value=3 * m.N)
        poly = st.dictionaries(exps, st.integers(-9, 9), max_size=6)
        p = data.draw(poly)
        q = data.draw(poly)
        s = {e: p.get(e, 0) + q.get(e, 0) for e in set(p) | set(q)}
        prod: dict[int, int] = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                prod[e1 + e2] = prod.get(e1 + e2, 0) + c1 * c2
        assert reduce_poly(s, m) == reduce_poly(p, m) + reduce_poly(q, m)
        assert reduce_poly(prod, m) == reduce_poly(p, m) * reduce_poly(q, m)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_int_coefficients_match_their_fractions(self, data):
        # plain ints skip the common-denominator pass
        m = data.draw(MODULI)
        exps = st.integers(min_value=-2 * m.N, max_value=3 * m.N)
        p = data.draw(st.dictionaries(exps, st.integers(-9, 9), max_size=6))
        a = reduce_poly(p, m)
        assert a == reduce_poly({e: Fraction(c) for e, c in p.items()}, m)
        assert a.den == 1 and all(type(c) is int for c in a.num)

    def test_inexact_and_bool_coefficients_take_the_checked_path(self):
        m = truncated(4)
        with pytest.raises(TypeError, match="float"):
            reduce_poly({0: 1, 1: 0.5}, m)
        with pytest.raises(TypeError, match="float"):
            from_coeffs(m, [1, 2, 3.0])
        a = reduce_poly({0: True, 1: 2}, m)
        assert a == reduce_poly({0: 1, 1: 2}, m) and all(type(c) is int for c in a.num)

    def test_shared_one_and_zero_equal_fresh_builds(self):
        for N in range(2, 49):
            moduli = [group_ring(N), truncated(N)] + list(crt_factors(N) if N % 2 == 0 else ())
            for m in moduli:
                for build in (one, zero):
                    assert build(m) is build(m)
                    assert build(m) == build.__wrapped__(m)


def _odd_long_division(out, N):
    """Reduce N coefficients modulo 1 + y + ... + y^(M-1), y = x^(2^K), by
    long division from the top coefficient down."""
    K, M = ring.split_two_power(N)
    step = 2**K
    d = step * (M - 1)
    out = list(out)
    for e in range(N - 1, d - 1, -1):
        c = out[e]
        out[e] = 0
        for j in range(M - 1):
            out[e - d + step * j] -= c
    return out[:d]


class TestOddReduction:
    @pytest.mark.parametrize(
        "N", [n for n in range(6, 97, 2) if ring.split_two_power(n)[1] > 1]
    )
    def test_block_subtraction_matches_long_division(self, N):
        rng = random.Random(N)
        m = ring.odd_truncated(N)
        for _ in range(5):
            out = [rng.randint(-(2**70), 2**70) for _ in range(N)]
            assert ring._from_cyclic(list(out), m) == _odd_long_division(out, N)


class TestRingAxioms:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(triples())
    def test_associative_distributive_commutative(self, abc):
        a, b, c = abc
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            one(truncated(4)) + one(truncated(6))

    def test_zero_annihilates(self):
        m = truncated(5)
        a = reduce_poly({1: Fraction(2, 3)}, m)
        assert (zero(m) * a).is_zero()


class TestInverse:
    def test_one_minus_x_closed_form(self):
        m = truncated(4)
        inv = inverse(reduce_poly({0: 1, 1: -1}, m))
        assert inv.coeffs == (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))

    def test_geometric_closed_form(self):
        m = truncated(4)
        a = geometric_sum(m, 3)
        assert a * inverse(a) == one(m)
        # r = 3 since 3*3 = 1 mod 4
        assert inverse(a) == reduce_poly({0: 1, 3: 1, 6: 1}, m)

    def test_one_plus_x_odd_order(self):
        for n in (3, 5, 7, 9):
            m = truncated(n)
            inv = inverse(reduce_poly({0: 1, 1: 1}, m))
            assert inv == geometric_sum(m, (n + 1) // 2, step=2)

    def test_zero_divisor_witness(self):
        m = truncated(4)
        a = reduce_poly({0: 1, 1: 1}, m)
        with pytest.raises(NotInvertible) as err:
            inverse(a)
        w = err.value.witness
        assert w is not None and not w.is_zero()
        assert (a * w).is_zero()

    def test_group_ring_witness_pinned(self):
        a = reduce_poly({0: 1, 3: -1}, group_ring(8))
        with pytest.raises(NotInvertible) as err:
            inverse(a)
        assert str(err.value) == (
            "<1 + -1*x^3 in Q[x]/<x^8 - 1>> is a zero divisor: witness "
            "<1 + 1*x^1 + 1*x^2 + 1*x^3 + 1*x^4 + 1*x^5 + 1*x^6 + 1*x^7 in Q[x]/<x^8 - 1>>"
        )
        assert err.value.witness.num == (1,) * 8 and err.value.witness.den == 1

    def test_failed_closed_form_raises(self, monkeypatch):
        m = truncated(8)
        a = reduce_poly({0: 1, 1: -1}, m)
        monkeypatch.setattr(ring, "_closed_form_inverse", lambda _a: x_power(m, 3))
        with pytest.raises(VerificationFailure):
            inverse(a)

    def test_group_ring_skips_closed_forms(self, monkeypatch):
        seen = []
        helper = ring._closed_form_inverse
        monkeypatch.setattr(ring, "_closed_form_inverse", lambda a: seen.append(helper(a)))
        m = group_ring(9)
        a = reduce_poly({0: 2, 1: 1}, m)
        assert a * inverse(a) == one(m)
        with pytest.raises(NotInvertible):
            inverse(reduce_poly({0: 1, 1: -1}, m))
        with pytest.raises(NotInvertible):
            inverse(geometric_sum(m, 3))
        assert seen == [None, None, None]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_unit_roundtrip(self, data):
        m = data.draw(MODULI)
        a = data.draw(elements(m))
        try:
            inv = inverse(a)
        except NotInvertible:
            return
        assert a * inv == one(m)


def _bareiss(a):
    """(inverse, None) for a unit and (None, witness) for a zero divisor,
    both read off the dense solve of the multiplication matrix."""
    m = a.modulus
    sol, null, den = solve_rational(ring._mul_matrix(a), [a.den] + [0] * (m.dim - 1))
    if sol is None:
        return None, from_numerators(m, null, den)
    return from_numerators(m, sol, den), None


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


class TestCyclotomicRefusal:
    """inverse decides units and zero divisors from the Phi_d making up P."""

    def test_cyclotomic_polynomials_multiply_to_x_n_minus_1(self):
        for n in range(1, 65):
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = _poly_mul(prod, ring._cyclotomic(d))
            assert prod == [-1] + [0] * (n - 1) + [1], n

    def test_orders_multiply_to_the_ideal_generator(self):
        for N in range(2, 49):
            for m in [group_ring(N), truncated(N)] + list(crt_factors(N) if N % 2 == 0 else ()):
                prod = [1]
                for d in ring._cyclotomic_orders(m):
                    prod = _poly_mul(prod, ring._cyclotomic(d))
                assert len(prod) == m.dim + 1 and prod[-1] == 1
                assert reduce_poly(dict(enumerate(prod)), m).is_zero(), m

    def test_a_wrong_divisor_fails_the_construction(self, monkeypatch):
        real = ring._cyclotomic
        monkeypatch.setattr(ring, "_cyclotomic", lambda d: (2, 1) if d == 2 else real(d))
        with pytest.raises(VerificationFailure, match="Phi_2 does not divide x"):
            real.__wrapped__(6)

    def test_matches_the_dense_solve(self):
        # a random element of every ring with N <= 48, its product with a
        # random Phi_d of P, and, where P has two or more factors, its
        # product with two of them, so that gcd(a, P) has two or more
        # factors, against the dense solve's verdict and null vector
        rng, pairs = random.Random(23), random.Random(29)
        units = refusals = multiple = 0
        kinds = set()
        for N in range(2, 49):
            moduli = [group_ring(N), truncated(N)] + list(crt_factors(N) if N % 2 == 0 else ())
            for m in moduli:
                num = [rng.randint(-3, 3) for _ in range(m.dim)]
                a = from_numerators(m, num, rng.randint(1, 3))
                orders = ring._cyclotomic_orders(m)
                phi = ring._cyclotomic(rng.choice(orders))
                inputs = [a, a * reduce_poly(dict(enumerate(phi)), m)]
                if len(orders) > 1:
                    for d in pairs.sample(orders, 2):
                        a = a * reduce_poly(dict(enumerate(ring._cyclotomic(d))), m)
                    inputs.append(a)
                for b in inputs:
                    inv, witness = _bareiss(b)
                    if inv is not None:
                        assert inverse(b) == inv
                        units += 1
                        continue
                    with pytest.raises(NotInvertible) as err:
                        inverse(b)
                    assert err.value.witness == witness, (m, b)
                    refusals += 1
                    if sum(ring._cyclotomic_divides(d, b.num) for d in orders) > 1:
                        multiple += 1
                        kinds.add(m.kind)
        assert units > 100 and refusals > 200 and multiple > 100
        # a binomial_plus generator is one Phi_d, so its only zero divisor is 0
        assert kinds == {ring.GROUP, ring.TRUNCATED, ring.ODD_TRUNCATED}

    def test_a_refusal_takes_one_product_and_no_fractions(self, monkeypatch):
        # the witness is P divided exactly by the Phi_d that divide a, and
        # the message formats integers: the a * witness check is the one
        # ring product, no coefficient is read as a Fraction, and ring
        # builds no Fraction at all
        products, reads, fractions = [], [], []
        mul, coeffs = ring.Element.__mul__, ring.Element.coeffs

        def counted_mul(self, other):
            products.append(other)
            return mul(self, other)

        class CountedFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                fractions.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(ring.Element, "__mul__", counted_mul)
        monkeypatch.setattr(
            ring.Element, "coeffs", property(lambda self: reads.append(self) or coeffs.fget(self))
        )
        cases = [
            (truncated(48), {0: 1, 1: 1, 2: 1}, (3,)),
            (truncated(48), {0: 2, 1: -1, 5: 3}, (2, 12)),
            (truncated(24), {0: 2, 1: -1, 5: 3}, (4,)),
            (group_ring(24), {0: 1, 1: 1}, (1,)),
            (group_ring(48), {0: 3, 7: 1}, (6, 16)),
            (ring.odd_truncated(12), {0: 1, 2: 1}, (3,)),
            (truncated(24), {0: Fraction(-5, 6), 3: Fraction(1, 4)}, (2, 3)),
        ]
        for m, raw, orders in cases:
            a = reduce_poly(raw, m)
            for d in orders:
                a = mul(a, reduce_poly(dict(enumerate(ring._cyclotomic(d))), m))
            with monkeypatch.context() as patch, pytest.raises(NotInvertible) as err:
                patch.setattr(ring, "Fraction", CountedFraction)
                inverse(a)
            assert products == [err.value.witness], m
            assert reads == [] and fractions == [], m
            del products[:]

    def test_wrong_witness_raises(self, monkeypatch):
        m = truncated(24)
        a = reduce_poly({0: 2, 1: 3, 2: 1}, m)
        monkeypatch.setattr(ring, "_zero_divisor_witness", lambda a: x_power(m, 2))
        with pytest.raises(VerificationFailure, match="fails its check"):
            inverse(a)

    def test_unit_verdict_on_a_zero_divisor_raises(self, monkeypatch):
        m = group_ring(12)
        a = reduce_poly({0: 1, 4: -1}, m)
        monkeypatch.setattr(ring, "_zero_divisor_witness", lambda a: None)
        with pytest.raises(VerificationFailure, match="singular"):
            inverse(a)


def _dense_inverse(a, monkeypatch):
    """inverse(a) by the dense solve alone, or the NotInvertible it raises."""
    with monkeypatch.context() as patch:
        patch.setattr(ring, "_closed_form_inverse", lambda _a: None)
        try:
            return inverse(a)
        except NotInvertible as exc:
            return exc


class TestClosedFormShapes:
    """1 - x^k and 1 + ... + x^(k-1) are recognised by their numerators."""

    def test_every_shape_up_to_64(self, monkeypatch):
        # the dense comparison costs about 9 s up to N = 64, so it stops at
        # N = 32; above, a * inv == 1 pins the (unique) inverse
        for N in range(2, 65):
            m = truncated(N)
            for k in range(1, N):
                for a in (reduce_poly({0: 1, k: -1}, m), geometric_sum(m, k)):
                    inv = ring._closed_form_inverse(a)
                    assert (inv is not None) == (gcd(k, N) == 1), (N, k, a)
                    if inv is None:
                        continue
                    assert a * inv == one(m)
                    if N <= 32:
                        assert inv == _dense_inverse(a, monkeypatch)

    @pytest.mark.parametrize(
        "N, terms",
        [
            (8, {0: 1, 3: 1}),  # 1 + x^k
            (9, {0: 1, 2: 1}),
            (8, {0: 1, 3: -2}),  # 1 - 2x^k
            (8, {0: 2, 3: -1}),
            (8, {0: -1, 3: 1}),  # -(1 - x^k)
            (8, {0: 1, 1: 1, 3: 1}),  # a run of ones with a gap
            (9, {1: 1, 2: 1}),  # a run that does not start at 1
            (8, {0: 2, **{j: 1 for j in range(1, 6)}}),  # (2, 1, ..., 1, 0)
            (8, {0: Fraction(1, 3), 3: Fraction(-1, 3)}),  # (1 - x^k) / 3
            (8, {0: 1, 1: -1, 2: 1}),
            (2, {0: 3}),
            (2, {0: -1}),
            (3, {0: 1, 1: 2}),
            (3, {0: 2, 1: -1}),
            (3, {1: 1}),
        ],
    )
    def test_near_misses_take_the_dense_path(self, N, terms, monkeypatch):
        m = truncated(N)
        a = reduce_poly(terms, m)
        assert ring._closed_form_inverse(a) is None
        dense = _dense_inverse(a, monkeypatch)
        if isinstance(dense, NotInvertible):
            with pytest.raises(NotInvertible) as err:
                inverse(a)
            assert err.value.witness == dense.witness
        else:
            assert inverse(a) == dense and a * dense == one(m)

    def test_small_rings(self):
        # N = 2: 1 - x = 2 and the geometric sum of length 1 is 1
        m = truncated(2)
        assert ring._closed_form_inverse(const(m, 2)) == const(m, Fraction(1, 2))
        assert ring._closed_form_inverse(one(m)) == one(m)
        assert ring._closed_form_inverse(zero(m)) is None
        # N = 3: 1 - x^2 = 2 + x and 1 + x
        m = truncated(3)
        for k in (1, 2):
            a = reduce_poly({0: 1, k: -1}, m)
            assert a * ring._closed_form_inverse(a) == one(m)
        assert ring._closed_form_inverse(geometric_sum(m, 2)) == -x_power(m, 1)

    def test_no_per_ring_table(self, monkeypatch):
        # a large ring pays for one reduction per closed-form inverse, not for
        # a table of every shape
        m = truncated(1024)
        inputs = [reduce_poly({0: 1, 3: -1}, m), geometric_sum(m, 3)]
        one(m)
        calls = []
        for name in ("reduce_poly", "geometric_sum"):
            real = getattr(ring, name)

            def spy(*args, real=real, **kwargs):
                calls.append(real)
                return real(*args, **kwargs)

            monkeypatch.setattr(ring, name, spy)
        for a in inputs:
            assert a * inverse(a) == one(m)
        assert len(calls) <= 2


class TestPowerCap:
    @pytest.mark.parametrize("value", ["abc", "-5", "0", "2.5"])
    def test_cap_that_is_not_a_positive_integer_is_refused(self, monkeypatch, value):
        monkeypatch.setenv("RHO_LATTICE_CAP", value)
        message = f"RHO_LATTICE_CAP must be a positive integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            const(truncated(4), 2) ** 3

    def test_growing_power_refused_past_the_cap(self, monkeypatch):
        m = truncated(4)
        monkeypatch.setenv("RHO_LATTICE_CAP", "64")
        assert const(m, 2) ** 20 == const(m, 2**20)
        with pytest.raises(WorkCapExceeded, match="RHO_LATTICE_CAP"):
            const(m, 2) ** 1000
        with pytest.raises(WorkCapExceeded):
            reduce_poly({0: 1, 1: 1}, m) ** 1000
        with pytest.raises(WorkCapExceeded):
            const(m, Fraction(1, 3)) ** 1000  # denominators count too
        # monomials never grow, whatever the exponent
        assert x_power(m) ** (10**12) == x_power(m, 10**12)
        assert x_power(m) ** -(10**12) == x_power(m, -(10**12))

    def test_default_cap_answers_large_powers(self, monkeypatch):
        monkeypatch.delenv("RHO_LATTICE_CAP", raising=False)
        m = truncated(4)
        assert const(m, 2) ** 20000 == const(m, 2**20000)
        # coefficients of about 200,000 bits, well under the default 2^22
        a = reduce_poly({0: 1, 1: 1}, m)
        assert (a**200000) * a == a**200001


class TestForeignOperands:
    """A non-Element operand other than an int or Fraction scalar is a TypeError."""

    @pytest.mark.parametrize("other", [2.5, "x", None, 1, Fraction(1, 2)])
    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    def test_sum_and_difference(self, op, other):
        a = x_power(truncated(4))
        with pytest.raises(TypeError):
            op(a, other)
        with pytest.raises(TypeError):
            op(other, a)

    @pytest.mark.parametrize("other", [2.5, "x", None])
    def test_product(self, other):
        a = x_power(truncated(4))
        with pytest.raises(TypeError):
            a * other
        with pytest.raises(TypeError):
            other * a

    def test_int_and_fraction_still_scale(self):
        a = x_power(truncated(4))
        assert a * 2 == 2 * a == a + a
        assert a * Fraction(1, 2) + Fraction(1, 2) * a == a


class TestInvolution:
    def test_chi_maps_to_top_power(self):
        m = truncated(6)
        assert involution(x_power(m)) == reduce_poly({5: 1}, m)

    def test_fixed_and_antisymmetric(self):
        m = truncated(6)
        assert involution(one(m)) == one(m)
        v = x_power(m, 1) - x_power(m, 5)
        assert involution(v) == -v

    def test_projection_example(self):
        m = truncated(4)
        assert eigen_project(x_power(m), 1).coeffs == (
            Fraction(-1, 2),
            Fraction(0),
            Fraction(-1, 2),
        )

    def test_constants_are_plus_eigen(self):
        m = truncated(8)
        assert eigen_project(reduce_poly({0: Fraction(5, 7)}, m), -1).is_zero()

    def test_unsupported_modulus(self):
        with pytest.raises(UnsupportedModulus):
            involution(one(ring.binomial_plus(8, 1)))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_automorphism_of_order_two(self, data):
        n = data.draw(st.sampled_from([2, 3, 4, 6, 8, 9, 12]))
        m = truncated(n)
        a = data.draw(elements(m))
        b = data.draw(elements(m))
        assert involution(involution(a)) == a
        assert involution(a * b) == involution(a) * involution(b)
        assert eigen_project(a, 1) + eigen_project(a, -1) == a
        assert eigen_test(eigen_project(a, 1), 1)
        assert eigen_test(eigen_project(a, -1), -1) or eigen_project(a, -1).is_zero()

    @pytest.mark.parametrize("N", range(2, 51))
    def test_matches_reflected_fold(self, N):
        rng = random.Random(N)
        for m in (group_ring(N), truncated(N)):
            for den_top in (1, 6):
                a = from_coeffs(
                    m, [Fraction(rng.randint(-9, 9), rng.randint(1, den_top)) for _ in range(m.dim)]
                )
                folded = ring._fold_int(((N - e, c) for e, c in enumerate(a.num)), m)
                assert involution(a) == ring.from_numerators(m, folded, a.den)


class TestEvalMinusOne:
    def test_plus_one_factor_dies(self):
        for n in (2, 4, 6, 8):
            m = truncated(n)
            f_like = reduce_poly({0: 1, 1: 1}, m) * reduce_poly({2: 3}, m)
            assert eval_minus_one(f_like) == 0

    def test_constant(self):
        assert eval_minus_one(reduce_poly({0: 8}, truncated(6))) == 8

    def test_even_sum_example(self):
        m = truncated(6)
        assert eval_minus_one(geometric_sum(m, 3, step=2) * 16) == 48

    def test_odd_order_rejected(self):
        with pytest.raises(OddOrderEvaluation):
            eval_minus_one(one(truncated(5)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_representative_independent(self, data):
        n = data.draw(st.sampled_from([2, 4, 6, 8, 12]))
        p = data.draw(
            st.dictionaries(st.integers(0, 3 * n), st.integers(-9, 9), max_size=6)
        )
        direct = sum(c * (-1) ** e for e, c in p.items())
        assert eval_minus_one(reduce_poly(p, truncated(n))) == direct


class TestRestrict:
    def test_f_restricts_to_zero_at_two(self):
        m = truncated(4)
        f = reduce_poly({0: 1, 1: 1}, m) * inverse(reduce_poly({0: 1, 1: -1}, m))
        assert restrict(f, 2).is_zero()

    def test_identity(self):
        assert restrict(one(truncated(12)), 4) == one(truncated(4))

    def test_even_sum_dies_at_odd_part(self):
        for n, m_odd in ((6, 3), (12, 3), (24, 3)):
            s = geometric_sum(truncated(n), n // 2, step=2) * 16
            assert restrict(s, m_odd).is_zero()

    def test_transitive_and_homomorphic(self):
        m = truncated(24)
        a = reduce_poly({5: Fraction(1, 3), 2: 1}, m)
        b = reduce_poly({1: 2, 7: -1}, m)
        assert restrict(restrict(a, 12), 6) == restrict(a, 6)
        assert restrict(a * b, 6) == restrict(a, 6) * restrict(b, 6)
        assert restrict(involution(a), 6) == involution(restrict(a, 6))

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError):
            restrict(one(truncated(6)), 4)


class TestCrt:
    def test_dimensions_add_up(self):
        for n in (4, 6, 8, 12, 16, 24):
            assert sum(f.dim for f in crt_factors(n)) == n - 1

    def test_odd_order_unsupported(self):
        a = reduce_poly({2: Fraction(1, 3)}, truncated(9))
        with pytest.raises(UnsupportedModulus):
            crt_factors(9)
        with pytest.raises(UnsupportedModulus):
            crt_split(a)
        with pytest.raises(UnsupportedModulus):
            crt_combine([a], 9)

    def test_minus_eigen_kills_level_zero(self):
        for n in (4, 6, 8, 12):
            m = truncated(n)
            for r in range(1, (n + 1) // 2):
                v = x_power(m, r) - x_power(m, n - r)
                assert crt_split(v)[0].is_zero()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_roundtrip_isomorphism(self, data):
        n = data.draw(st.sampled_from([4, 6, 8, 12, 16, 24]))
        m = truncated(n)
        a = data.draw(elements(m))
        b = data.draw(elements(m))
        sa, sb = crt_split(a), crt_split(b)
        assert crt_combine(sa, n) == a
        for pa, pb, pab in zip(sa, sb, crt_split(a * b)):
            assert pa * pb == pab

    @pytest.mark.parametrize("N", range(2, 97, 2))
    def test_split_matches_per_factor_fold(self, N):
        # the tower reduction against folding the numerators into each
        # factor on its own; K = 1 (N = 2, 6, 10, ...), M = 1 (powers of
        # two) and M > 1 with K >= 2 all occur
        rng = random.Random(N)
        m = truncated(N)
        for den_top in (1, 6):
            a = from_coeffs(
                m, [Fraction(rng.randint(-99, 99), rng.randint(1, den_top)) for _ in range(m.dim)]
            )
            assert crt_split(a) == [
                ring._make(f, ring._fold_int(enumerate(a.num), f), a.den)
                for f in crt_factors(N)
            ]

    # every even N up to 64 whose odd part M exceeds 1, so the recombination
    # takes its wrapped odd step
    @pytest.mark.parametrize("N", [n for n in range(6, 65, 2) if ring.split_two_power(n)[1] > 1])
    def test_roundtrip_with_odd_part(self, N):
        rng = random.Random(N)
        m = truncated(N)
        for den_top in (1, 6):
            a = from_coeffs(
                m, [Fraction(rng.randint(-99, 99), rng.randint(1, den_top)) for _ in range(m.dim)]
            )
            assert crt_combine(crt_split(a), N) == a


@st.composite
def lattice_candidates(draw):
    """Elements around the 4-lattice, in group and truncated rings: an
    integer vector, made (+1)- or (-1)-symmetric or left alone, then scaled
    so that it may be zero, 4-integral, 2 mod 4 or not integral at all."""
    m = draw(
        st.sampled_from(
            [truncated(n) for n in (2, 3, 4, 6, 8, 9)] + [group_ring(n) for n in (2, 4, 5, 6)]
        )
    )
    v = from_coeffs(m, draw(st.lists(st.integers(-3, 3), min_size=m.dim, max_size=m.dim)))
    symmetry = draw(st.sampled_from([0, 1, -1]))
    if symmetry:
        v = v + involution(v).scale(symmetry)
    return v.scale(draw(st.sampled_from([0, 1, 2, 4, 8, Fraction(1, 2), Fraction(4, 3)])))


class TestLattice:
    def test_examples(self):
        m = truncated(6)
        assert in_lattice_4r(reduce_poly({0: 8}, m), 1)
        v = (x_power(m, 1) - x_power(m, 5)) * 2
        assert not in_lattice_4r(v, -1)
        m2 = truncated(2)
        for t in range(-6, 7):
            assert in_lattice_4r(reduce_poly({0: -8 * t}, m2), 1)

    def test_eigen_requirement(self):
        m = truncated(6)
        v = (x_power(m, 1) - x_power(m, 5)) * 4
        assert in_lattice_4r(v, -1)
        assert not in_lattice_4r(v, 1)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(lattice_candidates(), st.sampled_from([1, -1]))
    def test_numerator_tests_match_the_definitions(self, a, sign):
        conj = involution(a)
        assert conj.den == a.den
        eigen = conj == a.scale(sign)
        four_integral = all((c / 4).denominator == 1 for c in a.coeffs)
        assert eigen_test(a, sign) == eigen
        assert in_lattice_4r(a, sign) == (eigen and four_integral)

    def test_zero_and_refusals(self):
        for m in (truncated(6), group_ring(5)):
            assert eigen_test(zero(m), 1) and eigen_test(zero(m), -1)
            assert in_lattice_4r(zero(m), 1) and in_lattice_4r(zero(m), -1)
        m = truncated(6)
        with pytest.raises(ValueError, match="sign"):
            in_lattice_4r(const(m, Fraction(1, 3)), 0)
        with pytest.raises(UnsupportedModulus):  # refused before any coefficient test
            in_lattice_4r(const(ring.binomial_plus(8, 1), Fraction(1, 3)), 1)


class TestSerialization:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.data())
    def test_json_roundtrip(self, data):
        m = data.draw(MODULI)
        a = data.draw(elements(m))
        assert element_from_json(a.to_json()) == a

    @pytest.mark.parametrize(
        "m",
        [truncated(8), group_ring(6), ring.binomial_plus(8, 2), ring.odd_truncated(12)],
        ids=lambda m: m.kind,
    )
    def test_every_route_returns_the_shared_modulus(self, m):
        assert ring.modulus(m.N, m.kind, m.param) is m
        assert pickle.loads(pickle.dumps(m)) is m
        assert copy.copy(m) is m and copy.deepcopy(m) is m
        a = reduce_poly({0: Fraction(1, 3), 1: -2}, m)
        for b in (
            pickle.loads(pickle.dumps(a)),
            copy.copy(a),
            copy.deepcopy(a),
            element_from_json(a.to_json()),
        ):
            assert b.modulus is m and b == a

    def test_schema_shape(self):
        a = reduce_poly({1: Fraction(-3, 7)}, truncated(5))
        obj = a.to_json()
        assert obj["N"] == 5 and obj["kind"] == "truncated"
        assert obj["coeffs"][1] == ["-3", "7"]

    def test_repr_matches_the_fraction_formatting(self):
        # repr formats num / den with one gcd per coefficient; the oracle
        # is the formatting it replaced, one Fraction per coefficient
        def fraction_repr(a):
            terms = [f"{c}*x^{e}" if e else str(c) for e, c in enumerate(a.coeffs) if c]
            return f"<{' + '.join(terms) if terms else '0'} in {a.modulus.describe()}>"

        rng = random.Random(28)
        moduli = [group_ring(12), truncated(12), ring.binomial_plus(12, 1), ring.odd_truncated(12)]
        for m in moduli + [truncated(2), group_ring(2)]:
            for trial in range(50):
                den = rng.choice([1, 1, 2, 6, 12, 35, 2**70 + 1])
                num = [
                    rng.choice([0, rng.randint(-9, 9), den * rng.randint(-3, 3)])
                    for _ in range(m.dim)
                ]
                a = from_numerators(m, num, den)
                assert repr(a) == fraction_repr(a), (m, num, den)
            for a in (zero(m), one(m), -one(m), const(m, Fraction(-5, 3))):
                assert repr(a) == fraction_repr(a)


def _canonical(a) -> bool:
    return (
        len(a.num) == a.modulus.dim
        and all(type(c) is int for c in a.num)
        and type(a.den) is int
        and a.den > 0
        and gcd(a.den, *a.num) == 1
        and (any(a.num) or a.den == 1)
    )


class TestRepresentation:
    """Elements are integer numerators over one denominator in lowest terms."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_canonical_after_every_operation(self, data):
        m = data.draw(MODULI)
        a, b = data.draw(elements(m)), data.draw(elements(m))
        q = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
        results = [a, b, a + b, a - b, -a, a * b, a * a, a.scale(q), a * 3, a - a]
        if m.kind in (ring.GROUP, ring.TRUNCATED):
            results += [involution(a), eigen_project(a, 1), eigen_project(a, -1)]
            results += [restrict(a, d) for d in range(2, m.N + 1) if m.N % d == 0]
            if m.kind == ring.TRUNCATED and m.N % 2 == 0:
                results += crt_split(a) + [crt_combine(crt_split(a), m.N)]
        for r in results:
            assert _canonical(r), r
            assert r.coeffs == tuple(Fraction(c, r.den) for c in r.num)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_equality_and_hash_follow_coefficients(self, data):
        m = data.draw(MODULI)
        a = data.draw(elements(m))
        b = data.draw(st.one_of(st.just(a), elements(m)))
        c = from_coeffs(m, a.coeffs)
        assert c == a and hash(c) == hash(a)
        assert (a == b) == (a.coeffs == b.coeffs)
        if a == b:
            assert hash(a) == hash(b)
        assert len({a, b, c}) == (1 if a == b else 2)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_fraction_edges_roundtrip(self, data):
        m = data.draw(MODULI)
        a = data.draw(elements(m))
        assert from_coeffs(m, a.coeffs) == a
        back = element_from_json(a.to_json())
        assert back == a and _canonical(back)
        assert a.is_integral() == all(c.denominator == 1 for c in a.coeffs)
        assert a.is_zero() == (a == zero(m))

    @pytest.mark.parametrize(
        "num, den, canonical",
        [
            ([3, -1, 0, 2], 1, ((3, -1, 0, 2), 1)),  # den == 1: no gcd taken
            ([6, -2, 0, 4], 4, ((3, -1, 0, 2), 2)),  # common factor 2 cancels
            ([0, 0, 0, 0], 7, ((0, 0, 0, 0), 1)),  # zero has den == 1
        ],
    )
    def test_construction_survives_pickle_and_copy(self, num, den, canonical):
        a = from_numerators(truncated(5), num, den)
        assert type(a) is ring.Element and (a.num, a.den) == canonical
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert type(b) is ring.Element and b == a and hash(b) == hash(a)
            assert (b.modulus, b.num, b.den) == (a.modulus, a.num, a.den)
        with pytest.raises(AttributeError):
            a.num = (0, 0, 0, 0)
        with pytest.raises(AttributeError):
            del a.den
        assert (a.num, a.den) == canonical
        with pytest.raises(TypeError):
            ring.Element(a.modulus, a.num, a.den)  # only _make builds elements

    # K = 1 (2, 6, 10), M = 1 (8), and K >= 2 with M > 1 (24, 36, 40, 48, 96)
    @pytest.mark.parametrize("n", [2, 6, 8, 10, 24, 36, 40, 48, 96])
    def test_crt_combine_matches_rational_solve(self, n):
        m = truncated(n)
        # the CRT basis matrix, built from crt_split: column j holds the
        # stacked factor images of x^j
        cols = [[c for p in crt_split(x_power(m, j)) for c in p.num] for j in range(m.dim)]
        basis = [[col[i] for col in cols] for i in range(m.dim)]
        rng = random.Random(n)
        for _ in range(5):
            a = from_coeffs(
                m, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(m.dim)]
            )
            parts = crt_split(a)
            back = crt_combine(parts, n)
            assert back == a
            den = lcm(*(p.den for p in parts))
            stacked = [c * (den // p.den) for p in parts for c in p.num]
            sol, null, p = solve_rational(basis, stacked)
            assert null is None
            assert back == from_numerators(m, sol, p * den)


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _wrapped(a, b, n, sign):
    """The schoolbook product folded modulo x^n - sign by a plain loop."""
    out = [0] * n
    for k, c in enumerate(_schoolbook(a, b)):
        out[k % n] += c * sign ** (k // n)
    return out


class TestConvolution:
    # _convolve multiplies classically up to n = _CLASSICAL_MAX and by
    # Kronecker substitution above; the first two tests run both sides.
    # The tests after them pin the packed kernel's word widths and its
    # wrap, so they call _kronecker by name at every n.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_schoolbook(self, data):
        n = data.draw(st.integers(1, 50))
        top = data.draw(st.sampled_from([3, 2**6, 2**14, 2**30, 2**62, 2**70]))
        coeff = st.integers(-top, top) | st.integers(-3, 3)
        a = data.draw(st.lists(coeff, min_size=1, max_size=n))
        b = data.draw(st.lists(coeff, min_size=1, max_size=n))
        sign = data.draw(st.sampled_from([1, -1]))
        assert ring._convolve(a, b, n, sign) == _wrapped(a, b, n, sign)

    @pytest.mark.parametrize("n", range(1, ring._CLASSICAL_MAX + 4))
    def test_both_sides_of_the_crossover(self, n, monkeypatch):
        # the classical loop runs up to _CLASSICAL_MAX and the packed kernel
        # above it, and both wrap like the schoolbook product
        calls = []
        packed = ring._kronecker
        monkeypatch.setattr(
            ring, "_kronecker", lambda *args: calls.append(args) or packed(*args)
        )
        rng = random.Random(n)
        lengths = sorted({1, max(n - 1, 1), n})
        for top in (9, 2**40, 2**100):
            for la in lengths:
                for lb in lengths:
                    a = [rng.randint(-top, top) for _ in range(la)]
                    b = [rng.randint(-top, top) for _ in range(lb)]
                    for sign in (1, -1):
                        assert ring._convolve(a, b, n, sign) == _wrapped(a, b, n, sign)
        assert bool(calls) == (n > ring._CLASSICAL_MAX)

    def test_zero_and_extreme_signs(self):
        for a, b, n in [
            ([0], [5], 1),
            ([0, 0, 0], [1, -1], 3),
            ([-1] * 9, [-1] * 9, 9),
            ([-1] * 9, [-1] * 9, 17),
            ([1, -1] * 6, [-1, 1] * 6, 12),
            ([1, -1] * 6, [-1, 1] * 6, 23),
        ]:
            for sign in (1, -1):
                assert ring._kronecker(a, b, n, sign) == _wrapped(a, b, n, sign)

    @pytest.mark.parametrize("bits", [7, 15, 31, 63])
    @pytest.mark.parametrize("offset", [-1, 0])
    def test_word_width_boundaries(self, bits, offset):
        # bound = max|a| * max|b| * min(len) is limit - 1 (the widest product
        # that fits the word) or limit (one more: the next width, or the
        # shift-and-peel path past 2^63), and the extreme coefficients occur,
        # unwrapped and wrapped (the last six cases: coefficient 0 sums
        # x^0 and x^n terms).
        bound = 2**bits + offset
        half = bound // 2
        unwrapped = [
            ([bound], [-1]),
            ([-bound], [-1]),
            ([bound, -bound, 0, -1, bound], [1]),
            ([-1], [bound, 1, -bound]),
            ([-1, -1], [-half, -half]),
            ([1, -1], [half, -half]),
        ]
        cases = [(a, b, len(a) + len(b) - 1, sign) for a, b in unwrapped for sign in (1, -1)]
        cases += [
            ([half, half], [1, 1], 2, 1),  # [2 * half, 2 * half]
            ([-half, -half], [1, 1], 2, 1),
            ([half, -half], [1, 1], 2, -1),  # [2 * half, 0]
            ([-half, half], [1, 1], 2, -1),
            ([half, 0, half], [1, 1], 3, 1),  # [2 * half, half, half]
            ([-half, 0, half], [1, 1], 3, -1),  # [-2 * half, -half, half]
        ]
        for a, b, n, sign in cases:
            assert max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)) <= bound
            out = ring._kronecker(a, b, n, sign)
            assert out == _wrapped(a, b, n, sign)
            assert max(map(abs, out)) >= 2 * half

    @pytest.mark.parametrize("bits", [7, 15, 31, 63])
    def test_all_negative_extremes(self, bits):
        # every coefficient of the product is positive and the middle one
        # is as large as the word allows; n = 2 * length - 1 does not wrap,
        # and n = length wraps every coefficient to that size
        length = 5
        m = math.isqrt((2**bits - 1) // length)
        a = b = [-m] * length
        out = ring._kronecker(a, b, 2 * length - 1, 1)
        assert out == _schoolbook(a, b)
        assert out[length - 1] == m * m * length < 2**bits
        assert ring._kronecker(a, b, length, 1) == [m * m * length] * length
        out = ring._kronecker(a, b, length, -1)
        assert out == _wrapped(a, b, length, -1) and out[length - 1] == m * m * length

    def test_zero_and_length_one_operands(self):
        for a, b in [
            ([0], [2**70]),
            ([0, 0, 0], [2**70, -(2**70), 3]),
            ([-(2**70), 5], [0, 0]),
            ([0] * 7, [0] * 4),
            ([3], [-4]),
            ([-(2**62)], [2]),
            ([-(2**62)], [-2]),
            ([2**63 - 1], [1, -1, 1]),
        ]:
            for n in (max(len(a), len(b)), len(a) + len(b) - 1):
                for sign in (1, -1):
                    assert ring._kronecker(a, b, n, sign) == _wrapped(a, b, n, sign)

    # the three word widths and the shift-and-peel path
    @pytest.mark.parametrize("c", [2**7 - 1, 2**15 - 1, 2**31 - 1, 2**63 - 1, 2**70 - 1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_symmetric_residue_threshold(self, c, sign, monkeypatch):
        # S = lo + sign * hi, the wrapped packed product before its one
        # correction, lands within the top word below 2^(W-1) when the
        # coefficients are at the positive extreme (S is kept), within the
        # top word above it at the negative extreme (S less 2^W - sign),
        # and at 2^W - sign exactly for a zero result
        sums = []
        wrap = ring._wrap

        def spy(p, width, sign):
            sums.append(((p & ((1 << width) - 1)) + sign * (p >> width), width))
            return wrap(p, width, sign)

        monkeypatch.setattr(ring, "_wrap", spy)
        n, h = 6, c // 2
        for a, below in [([h] * n, True), ([-h] * n, False)]:
            out = ring._kronecker(a, [1, 1], n, sign)
            assert out == _wrapped(a, [1, 1], n, sign)
            assert max(map(abs, out)) == 2 * h
            (s, width), = sums
            sums.clear()
            assert (s < 2 ** (width - 1)) == below
            assert abs(s - 2 ** (width - 1)) < 2 ** (width - width // n + 1)
        # (x - 1)(x + 1) = x^2 - 1 and -(x + 1)(x^2 - x + 1) = -(x^3 + 1)
        a, b, n = ([-1, 1], [1, 1], 2) if sign == 1 else ([-1, -1], [1, -1, 1], 3)
        assert ring._kronecker([c * x for x in a], b, n, sign) == [0] * n
        (s, width), = sums
        assert s == 2**width - sign
