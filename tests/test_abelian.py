"""Fraction-free elimination, invariant factors, subgroup spans, and the
Smith normal form the tests use as an oracle."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from rho_lattice.abelian import (
    FinAb,
    TRIVIAL,
    Span,
    annihilator,
    fraction_free_rref,
    solve_rational,
)
from smith_oracle import smith_normal_form, solve_with_snf


def matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def det(A):
    """|det A| of a square integer matrix: the last Bareiss pivot, positive
    at full rank, and 0 below it."""
    if not A:
        return 1
    r, pivots = fraction_free_rref(A)
    return r[-1][-1] if len(pivots) == len(A) else 0

small_matrix = st.integers(1, 6).flatmap(
    lambda n: st.integers(1, 6).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-20, 20), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


def int_matrix(n, m, bound=20):
    row = st.lists(st.integers(-bound, bound), min_size=m, max_size=m)
    return st.lists(row, min_size=n, max_size=n)


def with_low_rank(n, m):
    """n x m integer matrices; half are products through a thinner inner
    dimension, so singular and rank-deficient inputs are common."""
    thin = st.integers(1, max(1, min(n, m) - 1)).flatmap(
        lambda r: st.tuples(int_matrix(n, r, 4), int_matrix(r, m, 4))
    )
    return st.one_of(int_matrix(n, m), thin.map(lambda ab: matmul(*ab)))


any_matrix = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda nm: with_low_rank(*nm)
)
square_matrix = st.integers(1, 5).flatmap(lambda n: with_low_rank(n, n))
square_pair = st.integers(1, 4).flatmap(
    lambda n: st.tuples(with_low_rank(n, n), with_low_rank(n, n))
)


def rank(a):
    return len(fraction_free_rref(a)[1])


def rref(A):
    """Reduced row echelon form over Q by Gauss-Jordan on Fractions, and
    its pivot columns."""
    a = [[Fraction(x) for x in row] for row in A]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][col]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                a[i] = [x - a[i][col] * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def laplace_det(A):
    """Determinant by cofactor expansion along the first row."""
    if not A:
        return 1
    return sum(
        (-1) ** j * x * laplace_det([row[:j] + row[j + 1 :] for row in A[1:]])
        for j, x in enumerate(A[0])
        if x
    )


sign_matrix = st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
    lambda nm: int_matrix(*nm, bound=1)
)


class TestFractionFreeElimination:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(any_matrix)
    def test_rank_of_transpose(self, a):
        assert rank(a) == rank([list(col) for col in zip(*a)])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(square_matrix, st.data())
    def test_solution_and_null_vector(self, a, data):
        m = len(a)
        b = data.draw(
            st.one_of(
                st.lists(st.integers(-20, 20), min_size=m, max_size=m),
                st.lists(st.integers(-5, 5), min_size=m, max_size=m).map(
                    lambda x: [sum(r * v for r, v in zip(row, x)) for row in a]
                ),
            )
        )
        sol, null, den = solve_rational(a, b)
        assert den > 0
        if null is None:
            assert rank(a) == m
            assert all(sum(r * x for r, x in zip(row, sol)) == c * den for row, c in zip(a, b))
        else:
            assert sol is None and any(null) and rank(a) < m
            assert all(sum(r * v for r, v in zip(row, null)) == 0 for row in a)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(square_matrix)
    def test_det_vanishes_exactly_below_full_rank(self, a):
        assert (det(a) == 0) == (rank(a) < len(a))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(square_pair)
    def test_det_multiplicative(self, ab):
        a, b = ab
        assert det(matmul(a, b)) == det(a) * det(b)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(sign_matrix, any_matrix))
    def test_rref_matches_fraction_reference(self, a):
        # {-1, 0, 1} entries give repeated pivots, where rows with nothing
        # to clear are skipped
        r, pivots = fraction_free_rref(a)
        p = r[len(pivots) - 1][pivots[-1]] if pivots else 1
        assert p > 0
        assert ([[Fraction(x, p) for x in row] for row in r], pivots) == rref(a)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(square_matrix, st.integers(1, 6).flatmap(lambda n: int_matrix(n, n, 1))))
    def test_det_matches_laplace_expansion(self, a):
        assert det(a) == abs(laplace_det(a))

    def test_examples(self):
        assert det([[2, 1], [7, 4]]) == 1
        assert det([[0, 1], [1, 0]]) == 1  # a row swap; the pivots stay positive
        assert det([[1, 2], [2, 4]]) == 0
        sol, null, den = solve_rational([[2, 0], [0, 3]], [1, 1])
        assert (sol, null, den) == ([3, 2], None, 6)
        assert [Fraction(x, den) for x in sol] == [Fraction(1, 2), Fraction(1, 3)]
        sol, null, den = solve_rational([[1, 2], [2, 4]], [1, 0])
        assert (sol, null, den) == (None, [-4, 2], 2)
        assert [Fraction(x, den) for x in null] == [Fraction(-2), Fraction(1)]
        assert solve_rational([[0, 0], [0, 0]], [0, 0]) == (None, [1, 0], 1)  # rank 0
        with pytest.raises(ValueError, match="square"):
            solve_rational([[1], [1]], [0, 1])


class TestSmithNormalForm:
    # the oracle of smith_oracle.py, which the kernel presentation and the
    # divide-by-f tests check the package against
    def test_coprime_merge(self):
        d, _, _ = smith_normal_form([[2, 0], [0, 3]])
        assert [d[0][0], d[1][1]] == [1, 6]

    def test_zero_matrix(self):
        d, u, v = smith_normal_form([[0, 0], [0, 0]])
        assert d == [[0, 0], [0, 0]]
        assert u == [[1, 0], [0, 1]] and v == [[1, 0], [0, 1]]

    def test_divisibility_reorder(self):
        d, _, _ = smith_normal_form([[4, 0], [0, 2]])
        assert [d[0][0], d[1][1]] == [2, 4]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_matrix)
    def test_exact_decomposition(self, a):
        d, u, v = smith_normal_form(a)
        assert matmul(matmul(u, a), v) == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
        for i in range(len(diag) - 1):
            assert diag[i] >= 0
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0
        for i, row in enumerate(d):
            for j, entry in enumerate(row):
                if i != j:
                    assert entry == 0

    def test_solve_integer(self):
        sol = solve_with_snf(smith_normal_form([[2, 4], [1, 3]]), [2, 2])
        assert sol is not None
        assert 2 * sol[0] + 4 * sol[1] == 2 and sol[0] + 3 * sol[1] == 2
        assert solve_with_snf(smith_normal_form([[2]]), [3]) is None


class TestFinAb:
    def test_canonicalization(self):
        assert FinAb.from_orders([2, 3]).factors == (6,)
        assert FinAb.from_orders([4, 6]).factors == (2, 12)
        assert FinAb.from_orders([1, 1]) == TRIVIAL

    def test_iso_eq(self):
        assert FinAb.from_orders([2, 4]) == FinAb.from_orders([4, 2])
        assert FinAb.from_orders([8]) != FinAb.from_orders([2, 4])
        assert FinAb.from_orders([2, 3]) == FinAb.from_orders([6])

    def test_order(self):
        assert FinAb.from_orders([4, 6]).order() == 24
        assert TRIVIAL.order() == 1

    def test_infinite_or_negative_order_rejected(self):
        for orders in ([0], [-2], [4, 0]):
            with pytest.raises(ValueError):
                FinAb.from_orders(orders)

    def test_direct_sum(self):
        a = FinAb.from_orders([4])
        b = FinAb.from_orders([2, 8])
        assert a.direct_sum(b).factors == (2, 4, 8)

    def test_non_canonical_rejected(self):
        with pytest.raises(ValueError):
            FinAb((4, 2))


def brute_closure(mods, gens):
    seen = {tuple([0] * len(mods))}
    frontier = [tuple(v[i] % mods[i] for i in range(len(mods))) for v in gens]
    while frontier:
        fresh = []
        for g in frontier:
            for h in list(seen):
                s = tuple((a + b) % m for a, b, m in zip(g, h, mods))
                if s not in seen:
                    seen.add(s)
                    fresh.append(s)
        frontier = fresh
    return seen


def order_profile(mods, members):
    """How many of ``members`` have each order in Z/mods[0] + Z/mods[1] + ..."""
    return Counter(lcm(*(m // gcd(x, m) for x, m in zip(v, mods))) for v in members)


class TestSubgroup:
    def test_examples(self):
        assert Span([8], [[2]]).order == 4
        assert Span([4, 2], [[2, 0], [0, 1]]).order == 4
        assert Span([8], []).order == 1

    def test_against_closure_oracle(self):
        rng = random.Random(42)
        probe = random.Random(43)
        for _ in range(80):
            k = rng.randint(1, 3)
            mods = [rng.choice([2, 3, 4, 6, 8, 9, 12]) for _ in range(k)]
            gens = [
                [rng.randrange(64) for _ in range(k)]
                for _ in range(rng.randint(0, 3))
            ]
            closure = brute_closure(mods, gens)
            span = Span(mods, gens)
            total = 1
            for m in mods:
                total *= m
            assert total % span.order == 0  # Lagrange
            assert span.order == len(closure)
            # the order profile determines a finite abelian group
            factors = span.group().factors
            assert order_profile(mods, closure) == order_profile(
                factors, itertools.product(*map(range, factors))
            )
            for _ in range(12):
                vec = [probe.randrange(-40, 40) for _ in range(k)]
                z = span.solve(vec)
                inside = tuple(v % m for v, m in zip(vec, mods)) in closure
                assert (z is not None) == inside
                assert span.contains(vec) == (z is not None)
                if inside:
                    assert len(z) == len(gens)
                    for i, m in enumerate(mods):
                        assert (sum(c * g[i] for c, g in zip(z, gens)) - vec[i]) % m == 0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]), min_size=1, max_size=3).flatmap(
            lambda mods: st.tuples(
                st.just(mods),
                st.lists(
                    st.lists(st.integers(-40, 40), min_size=len(mods), max_size=len(mods)),
                    max_size=3,
                ),
            )
        )
    )
    def test_elements_in_lexicographic_order(self, mods_gens):
        mods, gens = mods_gens
        span = Span(mods, gens)
        members = list(span.elements())
        assert members == sorted(set(members))
        assert len(members) == span.order
        assert all(span.contains(v) for v in members)
        assert all(0 <= x < m for v in members for x, m in zip(v, mods))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(1, 3).flatmap(
            lambda c: st.tuples(
                st.lists(
                    st.lists(st.integers(-30, 30), min_size=4, max_size=4),
                    min_size=c,
                    max_size=c,
                ),
                st.sampled_from([1, 2, 6, 8, 12]),
            )
        )
    )
    def test_annihilator_against_every_residue(self, rows_m):
        # {t : sum_i t_i * rows[i] = 0 mod m} is invariant under m*Z^c, so
        # its residues mod m are exactly the span of the generators
        rows, m = rows_m
        c = len(rows)
        solutions = [
            t
            for t in itertools.product(range(m), repeat=c)
            if all(sum(ti * row[j] for ti, row in zip(t, rows)) % m == 0 for j in range(4))
        ]
        assert list(Span([m] * c, annihilator(rows, m)).elements()) == solutions

    def test_infinite_ambient_rejected(self):
        with pytest.raises(ValueError):
            Span([0, 2], [[1, 1]])
        with pytest.raises(ValueError):
            Span([4, 2], [[1]])
