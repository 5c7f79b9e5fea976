"""Normal coordinates, the coordinate-class formulas and kernels."""

import random
from itertools import product
from math import gcd

import pytest

from rho_lattice import abelian, ring, surgery
from rho_lattice.abelian import TRIVIAL, FinAb
from rho_lattice.elements import Catalog, f_element, f_prime_k_element
from rho_lattice.exceptions import PreconditionFailed, VerificationFailure, WorkCapExceeded
from rho_lattice.surgery import (
    LensParams,
    _formula_numerators,
    NormalCoords,
    StructureElement,
    element_add,
    element_from_json,
    element_scale,
    element_validate,
    kernel_closed_form,
    kernel_members_brute,
    kernel_rho_bar,
    l_group_reduced_rank,
    lift_tbar,
    reduced_normal_group,
    rho_bar_formula,
    structure_set,
    transfer,
    zero_element,
)
from rho_lattice.ring import in_lattice_4r, reduce_poly, restrict, truncated
from rho_lattice.suspension import torsion_basis
from smith_oracle import smith_normal_form


class TestParams:
    def test_derived_quantities(self):
        p = LensParams(24, 7, 5)
        assert (p.K, p.M, p.e, p.c) == (3, 3, 3, 3)
        assert p.sign == -1
        assert LensParams(4, 4).sign == 1

    def test_cached_derivations_leave_identity_alone(self):
        warm, cold = LensParams(24, 7, 5), LensParams(24, 7, 5)
        assert (warm.K, warm.M) == (3, 3)
        assert warm == cold and hash(warm) == hash(cold)
        assert warm.to_json() == cold.to_json() == {"N": 24, "d": 7, "k": 5}
        assert repr(warm) == repr(cold)

    def test_normalization_and_validation(self):
        assert LensParams(4, 5, 7).k == 3
        with pytest.raises(ValueError):
            LensParams(4, 5, 2)
        with pytest.raises(ValueError):
            LensParams(4, 2)
        with pytest.raises(ValueError):
            LensParams(1, 4)


class TestRank:
    def test_examples(self):
        assert l_group_reduced_rank(6, -1) == 2
        assert l_group_reduced_rank(5, -1) == 2
        assert l_group_reduced_rank(2, -1) == 0

    @pytest.mark.parametrize("N", list(range(2, 25)) + [64, 96])
    def test_lattice_vs_clause(self, N):
        # l_group_reduced_rank asserts internally that the lattice rank
        # matches the closed clause; exercise both signs
        plus = l_group_reduced_rank(N, 1)
        minus = l_group_reduced_rank(N, -1)
        assert plus + minus == N - 1

    @pytest.mark.parametrize("N", range(2, 65))
    def test_trace_matches_elimination(self, N):
        # the eigenspace dimension as n minus the rank of (s - parity), by
        # elimination on the involution's columns
        m = truncated(N)
        for parity in (1, -1):
            cols = []
            for j in range(m.dim):
                col = list(ring.involution(ring.x_power(m, j)).num)
                col[j] -= parity
                cols.append(col)
            _, pivots = abelian.fraction_free_rref(list(zip(*cols)))
            assert l_group_reduced_rank(N, parity) == m.dim - len(pivots)

    @pytest.mark.parametrize("N", (3, 8, 9, 24))
    def test_identity_involution_fails(self, monkeypatch, N):
        # s = id squares to 1 but has trace n: both ranks miss the clause
        # (at N = 2 the ring is Q and the involution is the identity)
        monkeypatch.setattr(ring, "involution", lambda a: a)
        for parity in (1, -1):
            with pytest.raises(VerificationFailure):
                l_group_reduced_rank(N, parity)

    @pytest.mark.parametrize("N, j", ((2, 1), (5, 1), (5, 4), (8, 1), (8, 7), (9, 8)))
    def test_one_flipped_image_fails(self, monkeypatch, N, j):
        # s(x^j) = -x^(N-j) for j = 1 or N - 1: a wrong s(x), or s(s(x)) = -x;
        # the rank reads s only there, and s is a ring map
        real = ring.involution
        flipped = ring.x_power(truncated(N), j)
        monkeypatch.setattr(ring, "involution", lambda a: -real(a) if a == flipped else real(a))
        for parity in (1, -1):
            with pytest.raises(VerificationFailure, match="square"):
                l_group_reduced_rank(N, parity)

    @pytest.mark.parametrize("N, k", ((8, 3), (8, 5), (24, 5), (24, 7)))
    def test_other_involutive_automorphism_fails(self, monkeypatch, N, k):
        # x -> x^k with k^2 = 1 mod N is a ring map of order 2, but not the
        # conjugation: its trace is not the closed diagonal's
        m = truncated(N)

        def power_map(a):
            return ring.reduce_poly({j * k: c for j, c in enumerate(a.coeffs)}, m)

        monkeypatch.setattr(ring, "involution", power_map)
        for parity in (1, -1):
            with pytest.raises(VerificationFailure, match="square"):
                l_group_reduced_rank(N, parity)


class TestNormalGroup:
    def test_examples(self):
        g, odd = reduced_normal_group(LensParams(4, 5))
        assert g.factors == (2, 2, 4, 4) and odd == 1
        g, odd = reduced_normal_group(LensParams(2, 3))
        assert g.factors == (2, 2) and odd == 1
        g, odd = reduced_normal_group(LensParams(6, 4))
        assert g.factors == (2, 2) and odd == 3

    def test_odd_order_group(self):
        g, odd = reduced_normal_group(LensParams(9, 6))
        assert g == TRIVIAL and odd == 81


class TestLift:
    def test_examples(self):
        assert lift_tbar((1,), LensParams(4, 4)) == (1,)
        assert lift_tbar((1,), LensParams(6, 4)) == (3,)
        assert lift_tbar((0,), LensParams(6, 4)) == (0,)

    def test_congruences(self):
        p = LensParams(24, 7)
        odd = p.M**p.c
        for t in range(p.t4_modulus):
            (tbar,) = lift_tbar((t,) + (0,) * (p.c - 1), p)[:1]
            assert tbar % p.t4_modulus == t
            assert tbar % odd == 0
            assert 0 <= tbar < p.t4_modulus * odd


class TestFormula:
    def test_zero(self):
        assert rho_bar_formula(LensParams(8, 5), (0, 0)).is_zero()

    def test_n4_d4(self):
        v = rho_bar_formula(LensParams(4, 4), (1,))
        assert v == reduce_poly({2: 4, 0: -12}, truncated(4))

    def test_n2_only_constant_survives(self):
        assert rho_bar_formula(LensParams(2, 4), (1,)) == reduce_poly(
            {0: -8}, truncated(2)
        )

    def test_k_zero_rejected(self):
        with pytest.raises(PreconditionFailed):
            rho_bar_formula(LensParams(3, 4), ())

    def test_ignores_t4m2(self):
        p = LensParams(8, 5)
        a = rho_bar_formula(p, NormalCoords((3, 1), (0, 0)))
        b = rho_bar_formula(p, NormalCoords((3, 1), (1, 1)))
        assert a == b

    @pytest.mark.parametrize(
        "N,d,k", [(4, 4, 3), (8, 5, 3), (6, 4, 5), (12, 6, 5), (16, 5, 3)]
    )
    def test_additive_and_twisted(self, N, d, k):
        p = LensParams(N, d, k)
        p1 = LensParams(N, d, 1)
        fpk = f_prime_k_element(N, p.k)
        rng = random.Random(f"{N}:{d}:{k}")
        for _ in range(10):
            t = tuple(rng.randrange(p.t4_modulus) for _ in range(p.c))
            s = tuple(rng.randrange(p.t4_modulus) for _ in range(p.c))
            ts = tuple((a + b) % p.t4_modulus for a, b in zip(t, s))
            gap = rho_bar_formula(p, ts) - rho_bar_formula(p, t) - rho_bar_formula(p, s)
            assert in_lattice_4r(gap, p.sign)
            assert rho_bar_formula(p, t) == fpk * rho_bar_formula(p1, t)

    @pytest.mark.parametrize("N, d, k", [(2, 5, 1), (8, 7, 3), (12, 9, 5), (24, 8, 7), (64, 6, 3)])
    def test_matches_sum_of_terms(self, N, d, k):
        # one element built from the numerators equals the ring sum of the
        # terms lift(t_i) * F_i
        p = LensParams(N, d, k)
        rows, D = _formula_numerators(N, d, k)
        basis = [ring.from_numerators(p.modulus(), row, D) for row in rows]
        rng = random.Random(f"sum:{N}:{d}:{k}")
        for _ in range(10):
            t = tuple(rng.randrange(p.t4_modulus) for _ in range(p.c))
            expected = ring.zero(p.modulus())
            for tbar, base in zip(lift_tbar(t, p), basis):
                expected = expected + base * tbar
            assert rho_bar_formula(p, t) == expected, t


    @pytest.mark.parametrize("N", (2, 3, 4, 6, 8, 12, 16, 24, 48, 64))
    def test_ladder_matches_per_term_powers(self, N):
        # the oracle: every term built with its own power of f
        m = truncated(N)
        for k in [k for k in range(1, N) if gcd(k, N) == 1][:3]:
            cat = Catalog.get(N, k)
            f, fpk = cat.f, cat.f_prime_k
            f2m1 = f * f - ring.one(m)
            for d in range(3, 13):
                terms = [fpk * f ** (d - 2 * i - 2) * f2m1 * 8 for i in range(1, d // 2)]
                if d % 2 == 1:
                    terms.append(fpk * f * 8)
                rows, D = _formula_numerators(N, d, k)
                assert [ring.from_numerators(m, row, D) for row in rows] == terms, (N, d, k)

    def test_ladder_takes_one_product_per_rung(self, monkeypatch):
        # d = 3..12 need the rungs P_0..P_10 of one (N, k), and P_0 is
        # 8 * f'_k: ten multiplications by f, each one times_f, and no
        # Element.__mul__, where a power of f per term took 120 products
        Catalog.get(64, 1)
        surgery._formula_numerators.cache_clear()
        surgery._f_ladder.cache_clear()
        steps, products = [], []
        real_times_f, real_mul = surgery.times_f, ring.Element.__mul__

        def times_f_spy(y):
            steps.append(y)
            return real_times_f(y)

        def mul_spy(a, b):
            products.append(b)
            return real_mul(a, b)

        monkeypatch.setattr(surgery, "times_f", times_f_spy)
        monkeypatch.setattr(ring.Element, "__mul__", mul_spy)
        for d in range(3, 13):
            _formula_numerators(64, d, 1)
        assert len(steps) == 10 and products == []


class TestClassZero:
    # a rho class is zero when rho lies in the 4-integral (-1)^d-eigenlattice
    def test_examples(self):
        p = LensParams(4, 4)
        assert in_lattice_4r(reduce_poly({2: 4, 0: -12}, truncated(4)), p.sign)
        assert in_lattice_4r(ring.zero(truncated(4)), p.sign)
        p5 = LensParams(4, 5)
        assert in_lattice_4r(f_element(4) * 8, p5.sign)
        assert not in_lattice_4r(f_element(4) * 2, p5.sign)

    def test_eigenspace_violation(self):
        # 8f is 4-integral but lies in the (-1)-eigenspace, not the d = 4 one
        assert not in_lattice_4r(f_element(4) * 8, LensParams(4, 4).sign)


class TestKernel:
    def test_examples(self):
        assert kernel_rho_bar(LensParams(2, 4)).torsion.factors == (2, 2)
        kr = kernel_rho_bar(LensParams(8, 4))
        assert kr.torsion.factors == (2, 4)
        assert kr.members == ((0,), (2,), (4,), (6,))
        assert kernel_rho_bar(LensParams(4, 5)).torsion.factors == (2, 2, 4, 4)

    def test_closed_form_examples(self):
        assert kernel_closed_form(LensParams(4, 5)).factors == (2, 2, 4, 4)
        assert kernel_closed_form(LensParams(3, 5)) == TRIVIAL
        assert kernel_closed_form(LensParams(16, 7)).factors == (2, 2, 2, 4, 16, 16)

    def test_cap(self, monkeypatch):
        # the cap counts the members listed, 1,024 at (16, 8); the kernel
        # itself is found without listing any
        kr = kernel_rho_bar(LensParams(16, 8))
        monkeypatch.setenv("RHO_LATTICE_CAP", "10")
        with pytest.raises(WorkCapExceeded, match="1024 kernel members .*RHO_LATTICE_CAP"):
            kr.members
        # the oracle's cap still counts its 2^12 candidates
        with pytest.raises(WorkCapExceeded, match="4096 candidates .*RHO_LATTICE_CAP"):
            kernel_members_brute(LensParams(16, 8))

    def test_cap_env_override(self, monkeypatch):
        kr = kernel_rho_bar(LensParams(16, 8))
        monkeypatch.setenv("RHO_LATTICE_CAP", "1023")
        with pytest.raises(WorkCapExceeded):
            kr.members
        monkeypatch.setenv("RHO_LATTICE_CAP", "1024")
        assert len(kr.members) == 1024

    def test_hermite_bases_per_kernel(self, monkeypatch):
        # two for the realizations of rho = 0 (their annihilator and their
        # basis), one for the span S and one each for 2S, 4S and 8S, whose
        # orders give its torsion at K = 3; listing members walks the
        # span's own basis and takes none
        calls = []
        real = abelian.hermite_basis

        def spy(mods, vecs):
            calls.append(mods)
            return real(mods, vecs)

        monkeypatch.setattr(abelian, "hermite_basis", spy)
        monkeypatch.setattr(surgery, "hermite_basis", spy)
        kernel_rho_bar.cache_clear()
        kr = kernel_rho_bar(LensParams(8, 7))
        assert len(calls) == 6
        assert kr.torsion == kernel_closed_form(LensParams(8, 7))
        assert len(kr.members) == 256 and len(calls) == 6
        # the kernel is cached per params: a repeat call takes no basis and
        # hands out the same object
        assert kernel_rho_bar(LensParams(8, 7)) is kr and len(calls) == 6
        calls.clear()
        kernel_rho_bar.cache_clear()
        # the kernel's six, two per realizability query (its annihilator
        # and the basis of the realizations: nu at d = 4 and 6, the
        # suspensions 4 -> 5 and 6 -> 7 of the first and 6 -> 7 of the
        # second), and the spans of the first block's choice and of the
        # basis
        torsion_basis(LensParams(8, 7))
        assert len(calls) == 18

    def test_cached_kernel_cannot_be_changed(self):
        # every caller in a process shares the cached kernel, so its span's
        # basis is a tuple of row tuples
        kr = kernel_rho_bar(LensParams(16, 8))
        with pytest.raises(TypeError):
            kr.span.h[0][0] = 5
        with pytest.raises(TypeError):
            kr.span.h[0] = (1,) * len(kr.span.h[0])
        assert kernel_rho_bar(LensParams(16, 8)) is kr

    @pytest.mark.parametrize("N", (2, 3, 4, 5, 6, 8, 9, 12))
    @pytest.mark.parametrize("d", (3, 4, 5, 6))
    def test_brute_matches_closed_form(self, N, d):
        ks = [1]
        for k in range(2, N):
            if gcd(k, N) == 1:
                ks.append(k)
                break
        for k in ks:
            p = LensParams(N, d, k)
            assert kernel_rho_bar(p).torsion == kernel_closed_form(p)


def product_kernel(params):
    """(torsion, members) of the coordinate-class map: the members by the
    plain product loop over every t4-tuple, the torsion read off them.

    The members form a subgroup H = (+)_i Z_{2^(a_i)} of (Z/2^K)^c, and
    H[2^j] = {t in H : 2^j * t = 0} has order 2^(sum_i min(a_i, j)), so
    r_j = log2(|H[2^j]| / |H[2^(j-1)]|) factors have a_i >= j."""
    K, c = params.K, params.c
    if K == 0:
        return TRIVIAL, ((0,) * c,)
    rows, D = _formula_numerators(params.N, params.d, params.k)
    mod = 4 * D
    lifts = [lift_tbar((t,), params)[0] for t in range(2**K)]
    multiples = [[[t * x % mod for x in row] for t in lifts] for row in rows]
    members = []
    for t4 in product(range(2**K), repeat=c):
        value = map(sum, zip(*[table[t] for t, table in zip(t4, multiples)]))
        if not any(map(mod.__rmod__, value)):
            members.append(t4)
    logs = [
        sum(1 for t in members if all(x % 2 ** (K - j) == 0 for x in t)).bit_length() - 1
        for j in range(K + 1)
    ]
    r = [hi - lo for lo, hi in zip(logs, logs[1:])]
    torsion = FinAb.from_orders([2 ** sum(1 for rj in r if rj > i) for i in range(r[0])])
    return torsion.direct_sum(FinAb.from_orders([2] * c)), tuple(members)


class TestKernelOracle:
    # every (N, d, k) of the grid with at most 2^16 candidates, k among the
    # first three units mod N: the lattice and the meeting in the middle
    # find exactly the product loop's members, in the same order, and the
    # lattice the same torsion
    @pytest.mark.parametrize("N", (2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 20, 24, 32))
    def test_matches_product_loop(self, N):
        for d in range(3, 10):
            for k in [k for k in range(1, N) if gcd(k, N) == 1][:3]:
                p = LensParams(N, d, k)
                if (2**p.K) ** p.c > 2**16:
                    continue
                kr = kernel_rho_bar(p)
                torsion, members = product_kernel(p)
                assert (kr.torsion, kr.members) == (torsion, members), p
                assert kernel_members_brute(p) == members, p

    @pytest.mark.parametrize(
        "N, d",
        (
            pytest.param(32, 9, id="32"),
            pytest.param(96, 9, id="96"),
            pytest.param(256, 8, id="256"),
            pytest.param(1024, 8, id="1024"),
        ),
    )
    def test_members_past_the_product_loop(self, N, d):
        # K = 5, c = 4: 2^20 candidates, past the product loop's grid; the
        # first sizes where matching a head with the tail of equal residue,
        # not of opposite residue, gives a different member set.  At d = 8
        # and K = 8 or 10, 2^24 and 2^30 candidates pass the cap: only the
        # lattice lists the members
        p = LensParams(N, d)
        kr = kernel_rho_bar(p)
        assert kr.torsion == kernel_closed_form(p)
        assert len(kr.members) * 2**p.c == kr.torsion.order()
        assert list(kr.members) == sorted(set(kr.members))
        if (2**p.K) ** p.c <= 2**22:
            assert kr.members == kernel_members_brute(p)
        for t4 in kr.members[::127]:
            assert in_lattice_4r(rho_bar_formula(p, t4), p.sign), t4


def span_presentation(span):
    """The invariant factors of ``span``, from the Smith form of the
    relations among its generators: the first m entries of the integer
    kernel of [gens | diag(mods)], the columns of V past the rank."""
    n, m = len(span.mods), len(span.gens)
    _, _, v = smith_normal_form(
        [[g[i] for g in span.gens] + [span.mods[i] * (j == i) for j in range(n)] for i in range(n)]
    )
    relations = [[v[i][j] for i in range(m)] for j in range(n, n + m)]
    d, _, _ = smith_normal_form(relations)
    return FinAb.from_orders([d[i][i] for i in range(m)])


def annihilator_kernel_span(params):
    """The kernel's t4-part as its own lattice, apart from the realizations:
    read each lift as t_i times the odd-lift unit u = lift(1); then the
    t4-part is {t : sum_i t_i * u * rows[i] = 0 mod 4D}, one annihilator,
    read modulo 2^K, which needs 2^K * u * rows[i] = 0 mod 4D."""
    K, c = params.K, params.c
    rows, D = _formula_numerators(params.N, params.d, params.k)
    mod = 4 * D
    unit = lift_tbar((1,), params)[0]
    rows = [[unit * x % mod for x in row] for row in rows]
    assert not any(x * 2**K % mod for row in rows for x in row), params
    return abelian.Span([2**K] * c, abelian.annihilator(rows, mod))


class TestKernelPresentation:
    # the torsion from the span's group is the Smith-form presentation of
    # the kernel's span, direct sum the free t_{4i-2} part
    @pytest.mark.parametrize("N", (2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 1024))
    def test_matches_span_presentation(self, N):
        for d in range(3, 11):
            for k in [k for k in range(1, N) if gcd(k, N) == 1][:3]:
                p = LensParams(N, d, k)
                kr = kernel_rho_bar(p)
                free = FinAb.from_orders([2] * p.c)
                assert kr.torsion == span_presentation(kr.span).direct_sum(free), p
                assert kr.torsion == kernel_closed_form(p), p

    @pytest.mark.parametrize("N", (2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 1024))
    def test_matches_annihilator_oracle(self, N):
        # the realizations of rho = 0 span the same t4-lattice as one
        # annihilator of the formula rows modulo 4D; the lattice's x = -1
        # column adds nothing there, because every F_i(-1) lies in 8Z
        for d in range(3, 11):
            for k in [k for k in range(1, N) if gcd(k, N) == 1][:3]:
                p = LensParams(N, d, k)
                rows, D = _formula_numerators(N, d, k)
                assert all((sum(row[::2]) - sum(row[1::2])) % (8 * D) == 0 for row in rows), p
                span, oracle = kernel_rho_bar(p).span, annihilator_kernel_span(p)
                assert span.order == oracle.order, p
                assert all(oracle.contains(g) for g in span.gens), p
                assert all(span.contains(g) for g in oracle.gens), p


class TestStructureSet:
    def test_examples(self):
        ss = structure_set(LensParams(3, 3))
        assert ss.free_rank == 1 and ss.torsion == TRIVIAL
        ss = structure_set(LensParams(6, 3))
        assert ss.free_rank == 2 and ss.torsion.factors == (2, 2)
        ss = structure_set(LensParams(2, 3))
        assert ss.free_rank == 0 and ss.torsion.factors == (2, 2)

    @pytest.mark.parametrize("N, d", ((64, 9), (1024, 12)))
    def test_past_the_brute_force_cap(self, N, d):
        # 2^24 and 2^50 candidates; (1024, 12) has 2^30 members, so only
        # the torsion is asked for
        p = LensParams(N, d)
        assert structure_set(p).torsion == kernel_closed_form(p)

    def test_descriptor_json(self):
        ss = structure_set(LensParams(6, 3))
        obj = ss.to_json(include_members=True)
        assert obj["free_rank"] == 2
        assert obj["torsion"] == {"factors": [2, 2]}
        assert obj["members"] == [[0], [1]]
        assert "members" not in ss.to_json()


class TestCpFormula:
    def test_examples(self):
        # the single-term complex-projective formula 8 * (f^2 - 1) is the
        # lens-space formula at N = 4, d = 4, k = 1
        f = f_element(4)
        one4 = ring.one(truncated(4))
        assert rho_bar_formula(LensParams(4, 4), (1,)) == (f * f - one4) * 8


class TestElements:
    def test_validate_examples(self):
        p = LensParams(6, 4)
        good = StructureElement(p, ring.const(truncated(6), 8), NormalCoords.zero(p))
        assert element_validate(good)
        p4 = LensParams(4, 4)
        bad = StructureElement(p4, f_element(4) * 2, NormalCoords.zero(p4))
        assert not element_validate(bad)

    def test_sum_of_valid_is_valid(self):
        p = LensParams(8, 5)
        kr = kernel_rho_bar(p)
        xs = [
            StructureElement(p, ring.zero(truncated(8)), NormalCoords(t4, (0, 0)))
            for t4 in kr.members[:4]
        ]
        for x in xs:
            assert element_validate(x)
            for y in xs:
                assert element_validate(element_add(x, y))

    def test_add_neg_cancels(self):
        p = LensParams(6, 4)
        x = StructureElement(p, ring.const(truncated(6), 8), NormalCoords((1,), (1,)))
        z = element_add(x, element_scale(x, -1))
        assert z.rho.is_zero() and z.coords.is_zero()

    def test_scale(self):
        p = LensParams(8, 5)
        x = StructureElement(p, ring.zero(truncated(8)), NormalCoords((3, 1), (1, 0)))
        y = element_scale(x, 3)
        assert y.coords.t4 == (1, 3) and y.coords.t4m2 == (1, 0)

    def test_json_roundtrip(self):
        p = LensParams(8, 5, 3)
        x = StructureElement(p, f_element(8) * 0, NormalCoords((2, 1), (1, 0)))
        assert element_from_json(x.to_json()) == x


class TestTransfer:
    def test_coordinate_reduction(self):
        p = LensParams(8, 4)
        el = StructureElement(p, ring.zero(truncated(8)), NormalCoords((3,), (1,)))
        assert transfer(el, 4).coords.t4 == (3,)
        assert transfer(el, 2).coords.t4 == (1,)
        assert transfer(el, 2).coords.t4m2 == (1,)

    def test_odd_target_drops_two_local(self):
        p = LensParams(12, 4)
        el = StructureElement(p, ring.zero(truncated(12)), NormalCoords((3,), (1,)))
        down = transfer(el, 3)
        assert down.coords.t4 == (0,) and down.coords.t4m2 == (0,)

    def test_formula_naturality(self):
        for (N, n_prime, d) in ((8, 4, 4), (8, 4, 5), (16, 8, 4), (24, 12, 5)):
            p, q = LensParams(N, d), LensParams(n_prime, d)
            for t in range(p.t4_modulus):
                t4 = (t,) + (0,) * (p.c - 1)
                down = restrict(rho_bar_formula(p, t4), n_prime)
                tq = tuple(x % q.t4_modulus for x in t4)
                assert in_lattice_4r(down - rho_bar_formula(q, tq), q.sign)

    def test_divisibility_checked(self):
        p = LensParams(8, 4)
        with pytest.raises(ValueError):
            transfer(zero_element(p), 3)
