"""The distinguished units f, f_k, f'_k, g and division by f."""

import random
from fractions import Fraction
from math import gcd

import pytest

from rho_lattice import elements, ring
from smith_oracle import smith_normal_form, solve_with_snf
from rho_lattice.elements import (
    Catalog,
    divide_by_f,
    f_element,
    f_k_element,
    f_prime_k_element,
    g_element,
    times_f,
)
from rho_lattice.exceptions import PreconditionFailed, UnsupportedModulus, VerificationFailure
from rho_lattice.ring import (
    Element,
    eigen_test,
    eval_minus_one,
    in_lattice_4r,
    one,
    reduce_poly,
    restrict,
    truncated,
    x_power,
    zero,
)


def alternating_sum(m, length: int) -> Element:
    """1 - x + x^2 - ... with ``length`` terms."""
    return reduce_poly({j: (-1) ** j for j in range(length)}, m)


# The quasi-inverse g of even order assembled by Chinese remaindering from
# the inverses of 1 + x in its factors: an oracle for the cotangent sum.


def h_l_element(N: int, l: int) -> Element:
    """(1+x)^(-1) = A_l / 2 in the CRT factor Q[x]/<1 + x^(2^l)>, l >= 1,
    with A_l = 1 - x + x^2 - ... - x^(2^l - 1): (1 + x) * A_l = 1 - x^(2^l)."""
    if l < 1:
        raise ValueError("h_l is defined for l >= 1 (1+x vanishes in the l = 0 factor)")
    m = ring.binomial_plus(N, l)
    return alternating_sum(m, 2**l).scale(Fraction(1, 2))


def h_element(N: int) -> Element:
    """(1+x)^(-1) in the odd CRT factor Q[x]/<1 + y + ... + y^(M-1)>, y = x^(2^K).

    Closed form -(A_K / M) * (1 + 2y + 3y^2 + ... + M y^(M-1)), the product
    of A_K = (1 - y)/(1 + x) with the standard geometric-derivative inverse
    of 1 - y.
    """
    K, M = ring.split_two_power(N)
    m = ring.odd_truncated(N)
    a_k = alternating_sum(m, 2**K)
    step = 2**K
    series = ring.reduce_poly({j * step: j + 1 for j in range(M)}, m)
    return (a_k * series).scale(Fraction(-1, M))


def crt_g_element(N: int) -> Element:
    """g for even N: component 0 in the l = 0 factor (where 1 + x
    vanishes, so every (-1)-eigen element projects to 0 there), and the
    inverse of the f-component everywhere else, which is (1-x) times the
    (1+x)-inverse h_l resp. h of that factor."""
    K, M = ring.split_two_power(N)
    parts = [ring.zero(ring.binomial_plus(N, 0))]
    for l in range(1, K):
        m_l = ring.binomial_plus(N, l)
        parts.append(ring.reduce_poly({0: 1, 1: -1}, m_l) * h_l_element(N, l))
    if M > 1:
        m_odd = ring.odd_truncated(N)
        parts.append(ring.reduce_poly({0: 1, 1: -1}, m_odd) * h_element(N))
    return ring.crt_combine(parts, N)


class TestFk:
    def test_canonical_forms(self):
        assert f_k_element(2, 1).is_zero()
        assert f_element(4).coeffs == (Fraction(1, 2), Fraction(1), Fraction(1, 2))
        assert f_k_element(4, 3) == -f_k_element(4, 1)

    def test_f_prime_examples(self):
        assert f_prime_k_element(4, 1) == one(truncated(4))
        assert f_prime_k_element(4, 3) == reduce_poly({0: 1, 2: 2}, truncated(4))
        fp52 = f_prime_k_element(5, 2)
        assert fp52.is_integral()
        assert f_k_element(5, 2) == f_element(5) * fp52

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            f_k_element(6, 3)
        with pytest.raises(ValueError):
            f_prime_k_element(6, 2)

    @pytest.mark.parametrize("N", list(range(2, 25)))
    def test_triple_identity(self, N):
        f = f_element(N)
        for k in range(1, N):
            if gcd(k, N) != 1 or (k % 2 == 0 and N % 2 == 0):
                continue
            fk = f_k_element(N, k)
            fpk = f_prime_k_element(N, k)
            assert eigen_test(fk, -1)
            assert fpk.is_integral()
            assert fk == f * fpk

    @pytest.mark.parametrize("N", [*range(2, 65), 96, 128])
    def test_cotangent_sums_match_the_constructions_they_replaced(self, N):
        # even g against its CRT assembly, and f_k against the product
        # with the inverse of 1 - x^k
        m = truncated(N)
        if N % 2 == 0:
            assert g_element(N) == crt_g_element(N)
        if N > 64:
            return
        for k in range(1, N):
            if gcd(k, N) == 1:
                den = reduce_poly({0: 1, k: -1}, m)
                assert f_k_element(N, k) == reduce_poly({0: 1, k: 1}, m) * ring.inverse(den)

    @pytest.mark.parametrize("N", [*range(2, 65), 96, 128])
    def test_f_prime_matches_the_quotient_it_replaced(self, N):
        # the prefix-sum solve against the closed quotient A / (1 + ... +
        # x^(k-1)), its alternating numerator over the inverse of its
        # geometric denominator
        m = truncated(N)
        for k in range(1, N):
            if gcd(k, N) != 1:
                continue
            if k % 2:
                num = alternating_sum(m, k)
            else:
                num = reduce_poly({j: (-1) ** (j - k) for j in range(k, N)}, m)
            assert f_prime_k_element(N, k) == num * ring.inverse(ring.geometric_sum(m, k))

    def test_k_is_taken_mod_n(self):
        for N, k in ((8, 3), (9, 2), (9, 4), (7, 6)):
            for shifted in (k + N, k - N, k + 3 * N):
                assert f_k_element(N, shifted) == f_k_element(N, k)
                assert f_prime_k_element(N, shifted) == f_prime_k_element(N, k)

    def test_closed_form_that_fails_raises(self, monkeypatch):
        real = elements._cotangent_sum
        monkeypatch.setattr(elements, "_cotangent_sum", lambda *a: real(*a).scale(2))
        with pytest.raises(VerificationFailure, match="f_k"):
            f_k_element.__wrapped__(8, 3)  # a fresh build, past the cache

    def test_restriction_to_two_kills_fk(self):
        for N in (4, 6, 8, 12):
            for k in (1, 3, 5, 7):
                if gcd(k, N) == 1:
                    assert restrict(f_k_element(N, k), 2).is_zero()


class TestG:
    @pytest.mark.parametrize("N", list(range(2, 25)))
    def test_quasi_inverse_on_antisymmetric_basis(self, N):
        m = truncated(N)
        gf = g_element(N) * f_element(N)
        for r in range(1, (N + 1) // 2):
            v = x_power(m, r) - x_power(m, N - r)
            assert gf * v == v

    def test_exact_inverse_for_odd_order(self):
        for N in (3, 5, 9, 15):
            assert g_element(N) * f_element(N) == one(truncated(N))

    @pytest.mark.parametrize("N", range(3, 50, 2))
    def test_odd_closed_form_is_the_inverse(self, N):
        # the closed form against the dense rational solve it replaced
        assert g_element(N) == ring.inverse(f_element(N))

    def test_odd_closed_form_that_fails_raises(self, monkeypatch):
        # the defect sits in the closed form (1 - x) * A_N / 2, in its
        # alternating sum A_N
        real = elements._alternating
        monkeypatch.setattr(elements, "_alternating", lambda *a: [2 * c for c in real(*a)])
        with pytest.raises(VerificationFailure, match=r"g \* f = 1"):
            g_element.__wrapped__(9)  # a fresh build, past the cache

    def test_even_closed_form_that_fails_raises(self, monkeypatch):
        real = elements._cotangent_sum
        monkeypatch.setattr(elements, "_cotangent_sum", lambda *a: real(*a).scale(2))
        with pytest.raises(VerificationFailure, match="1 - x - 2e"):
            g_element.__wrapped__(12)

    def test_minus_eigen(self):
        for N in (4, 6, 8, 12):
            g = g_element(N)
            assert g.is_zero() or eigen_test(g, -1)

    def test_crt_component_inverses(self):
        # the h components invert 1 + x in their factors
        for N in (8, 12, 24):
            K, _ = ring.split_two_power(N)
            for l in range(1, K):
                m = ring.binomial_plus(N, l)
                assert reduce_poly({0: 1, 1: 1}, m) * h_l_element(N, l) == ring.one(m)
        for N in (6, 12, 24):
            m = ring.odd_truncated(N)
            assert reduce_poly({0: 1, 1: 1}, m) * h_element(N) == ring.one(m)

    def test_alternating_unit_identity(self):
        for N, l in ((8, 1), (8, 2), (16, 3)):
            m = truncated(N)
            lhs = reduce_poly({0: 1, 1: 1}, m) * alternating_sum(m, 2**l)
            assert lhs == reduce_poly({0: 1, 2**l: -1}, m)

    def test_shared_units_equal_fresh_builds(self):
        # each unit is built once per (N, k) or N and shared; a fresh build
        # past the cache gives the same element
        for N in range(2, 49):
            assert f_element(N) is f_element(N) == f_element.__wrapped__(N)
            assert g_element(N) is g_element(N) == g_element.__wrapped__(N)
            for k in range(1, N):
                if gcd(k, N) != 1:
                    continue
                assert f_k_element(N, k) is f_k_element(N, k) == f_k_element.__wrapped__(N, k)
                if k % 2 == 0 and N % 2 == 0:
                    continue
                fpk = f_prime_k_element(N, k)
                assert fpk is f_prime_k_element(N, k) == f_prime_k_element.__wrapped__(N, k)
            cat = Catalog.get(N, 1)
            assert cat.f is f_element(N) and cat.g is g_element(N)

    def test_catalog_caches(self):
        assert Catalog.get(8, 3) is Catalog.get(8, 3)
        cat = Catalog.get(8, 3)
        assert cat.f_k == cat.f * cat.f_prime_k

    def test_catalog_reduces_k(self):
        assert Catalog.get(8, 11) is Catalog.get(8, 3)
        assert Catalog.get(8, -1) is Catalog.get(8, 7)
        assert Catalog.get(8, 9).k == 1
        with pytest.raises(ValueError, match="coprime"):
            Catalog.get(8, -2)


class TestTimesF:
    # the oracle is the product with f; times_f never checks itself
    @staticmethod
    def _random(m, rng):
        num = [rng.randint(-10**6, 10**6) for _ in range(m.dim)]
        return ring.from_numerators(m, num, rng.randint(1, 720))

    @pytest.mark.parametrize("N", list(range(2, 65)) + [1024])
    def test_matches_product_with_f(self, N):
        rng = random.Random(N)
        m = truncated(N)
        f = f_element(N)
        for y in [zero(m), one(m), x_power(m, N - 1)] + [self._random(m, rng) for _ in range(4)]:
            assert times_f(y) == f * y

    @pytest.mark.parametrize("m", [ring.group_ring(8), ring.binomial_plus(8, 2),
                                   ring.odd_truncated(12)], ids=lambda m: m.kind)
    def test_other_rings_refused(self, m):
        with pytest.raises(UnsupportedModulus):
            times_f(one(m))


def random_valid_u(rng, N):
    """A random element of the 4-integral (+)-lattice vanishing at x = -1."""
    raw = {}
    for k in range(1, N // 2):
        c = 4 * rng.randint(-5, 5)
        raw[k] = c
        raw[N - k] = c
    raw[N // 2] = 8 * rng.randint(-3, 3)
    ev = sum(raw.get(j, 0) * (-1) ** j for j in range(N))
    raw[0] = -ev
    return reduce_poly(raw, truncated(N))


def pair_vector(m, k):
    """B_k = 4*(x^k + x^(-k)) + 8*(-1)^(k+1); spans the +eigen, eval-0 lattice."""
    return reduce_poly({k: 4, -k: 4, 0: 8 * (-1) ** (k + 1)}, m)


def pair_quotient(m, k):
    """a_k with f * a_k = B_k:  a_k = (1-x) * v_k for the alternating v_k."""
    raw = {}
    for i in range(k):
        for e in (k - 1 - i, -k + i):
            raw[e] = raw.get(e, 0) + 4 * (-1) ** i
    return reduce_poly({0: 1, 1: -1}, m) * reduce_poly(raw, m)


class TestDivideByF:
    def test_zero(self):
        assert divide_by_f(zero(truncated(4))).is_zero()

    def test_spec_pairs(self):
        u4 = reduce_poly({1: 4, 3: 4, 0: 8}, truncated(4))
        a4 = divide_by_f(u4)
        assert f_element(4) * a4 == u4 and in_lattice_4r(a4, -1)
        u6 = reduce_poly({2: 4, 4: 4, 0: -8}, truncated(6))
        a6 = divide_by_f(u6)
        assert f_element(6) * a6 == u6 and in_lattice_4r(a6, -1)

    def test_preconditions(self):
        m = truncated(4)
        with pytest.raises(PreconditionFailed):
            divide_by_f(reduce_poly({0: 2}, m))  # not 4-integral
        with pytest.raises(PreconditionFailed):
            divide_by_f(reduce_poly({0: 4}, m))  # eval is 4, not 0
        with pytest.raises(PreconditionFailed):
            divide_by_f(zero(truncated(5)))  # odd order

    @pytest.mark.parametrize("N", list(range(2, 25, 2)))
    def test_random_roundtrip(self, N):
        rng = random.Random(1000 + N)
        f = f_element(N)
        for _ in range(30):
            u = random_valid_u(rng, N)
            assert eval_minus_one(u) == 0 and in_lattice_4r(u, 1)
            a = divide_by_f(u)
            assert f * a == u
            assert in_lattice_4r(a, -1)

    @pytest.mark.parametrize("N", list(range(2, 65, 2)))
    def test_matches_g_times_u(self, N):
        # the prefix-sum quotient against the product it replaced
        rng = random.Random(3000 + N)
        g = g_element(N)
        for _ in range(30):
            u = random_valid_u(rng, N)
            assert divide_by_f(u) == g * u

    @pytest.mark.parametrize("N", list(range(2, 49, 2)))
    def test_matches_element_sum_assembly(self, N):
        # the oracle: write u as an integer combination sum c_k * B_k of
        # the pair vectors and sum c_k * a_k of their explicit quotients
        m = truncated(N)
        ks = range(1, N // 2 + 1)
        basis = [pair_vector(m, k) for k in ks]
        quotients = [pair_quotient(m, k) for k in ks]
        f = f_element(N)
        assert all(f * a == b for a, b in zip(quotients, basis))
        snf = smith_normal_form([[b.num[i] for b in basis] for i in range(m.dim)])
        rng = random.Random(2000 + N)
        for _ in range(10):
            u = random_valid_u(rng, N)
            expected = zero(m)
            for c, q in zip(solve_with_snf(snf, u.num), quotients):
                expected = expected + q.scale(c)
            assert divide_by_f(u) == expected


def _bump(real):
    """``real`` with one more x in what it returns, an element or a vector
    modulo x^N - 1: a defect planted in a construction.  (In divide_by_f
    one more x^0 would be no defect: the pin at x = -1 absorbs it.)"""

    def planted(*args):
        out = real(*args)
        if isinstance(out, Element):
            return out + ring.x_power(out.modulus, 1)
        return [out[0], out[1] + 1, *out[2:]]

    return planted


class TestPlantedDefects:
    # each O(N) construction is checked by its own identity; a one-term
    # defect planted in it must raise, not pass through
    CASES = {
        "f_k rotation": ("_cotangent_sum", lambda: f_k_element.__wrapped__(8, 3), "f_k"),
        "f'_k odd k": ("_alternating", lambda: f_prime_k_element.__wrapped__(8, 3), "f'_k"),
        "f'_k even k": ("_alternating", lambda: f_prime_k_element.__wrapped__(9, 4), "f'_k"),
        "odd g": ("_alternating", lambda: g_element.__wrapped__(9), r"g \* f = 1"),
        "even g": ("_cotangent_sum", lambda: g_element.__wrapped__(12), "1 - x - 2e"),
        "divide_by_f": (
            "_shift_add",
            lambda: divide_by_f(pair_vector(truncated(8), 3)),
            "division by f failed",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_raises(self, case, monkeypatch):
        name, build, match = self.CASES[case]
        build()  # the real construction passes its check
        monkeypatch.setattr(elements, name, _bump(getattr(elements, name)))
        with pytest.raises(VerificationFailure, match=match):
            build()

    @pytest.mark.parametrize("k", (3, 5, 7))
    def test_f_prime_k_off_at_minus_one_raises(self, k, monkeypatch):
        # f vanishes at x = -1 for even N, so f * f'_k = f_k misses a
        # multiple of sum (-x)^j added to f'_k; its value at -1 does not
        build = lambda: f_prime_k_element.__wrapped__(8, k)
        build()
        real = elements._truncate
        def off(c, den):
            return real([v + den * (-1) ** j for j, v in enumerate(c)], den)

        monkeypatch.setattr(elements, "_truncate", off)
        with pytest.raises(VerificationFailure, match=r"f'_k\(-1\) = k"):
            build()

    def test_an_unpinned_quotient_leaves_the_lattice(self, monkeypatch):
        # f * a = u holds for a + c * sum (-x)^j too; only the pin at
        # x = -1 makes a (-1)-eigen, and the lattice test sees it missing
        real = elements._truncate
        def unpinned(c, den):
            return real([v + den * (-1) ** j for j, v in enumerate(c)], den)

        monkeypatch.setattr(elements, "_truncate", unpinned)
        with pytest.raises(VerificationFailure, match="left the 4-integral"):
            elements.divide_by_f(pair_vector(truncated(8), 3))


def test_the_f_family_takes_no_product_and_no_inverse(monkeypatch):
    # fresh builds of f_k, f'_k and g and a division by f run in O(N):
    # no Element.__mul__ and no ring.inverse
    calls = {"mul": 0, "inverse": 0}
    real_mul, real_inverse = Element.__mul__, ring.inverse

    def counted_mul(a, b):
        calls["mul"] += 1
        return real_mul(a, b)

    def counted_inverse(a):
        calls["inverse"] += 1
        return real_inverse(a)

    monkeypatch.setattr(Element, "__mul__", counted_mul)
    monkeypatch.setattr(Element, "__rmul__", counted_mul)
    monkeypatch.setattr(ring, "inverse", counted_inverse)
    for N in (8, 9, 24, 25):
        g_element.__wrapped__(N)
        for k in range(1, N):
            if gcd(k, N) == 1:
                f_k_element.__wrapped__(N, k)
                f_prime_k_element.__wrapped__(N, k)
    divide_by_f(random_valid_u(random.Random(0), 24))
    assert calls == {"mul": 0, "inverse": 0}
    # the counters see the calls they guard
    f_element(8) * f_element(8)
    ring.inverse(one(truncated(8)))
    assert calls["mul"] >= 1 and calls["inverse"] == 1
