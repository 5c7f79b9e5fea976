"""Suspension, distinguished elements, torsion basis and invariants."""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from rho_lattice import ring, suspension
from rho_lattice.abelian import Span
from rho_lattice.exceptions import ModulusMismatch, PreconditionFailed, VerificationFailure
from rho_lattice.elements import f_element
from rho_lattice.ring import eval_minus_one, in_lattice_4r, truncated
from rho_lattice.surgery import (
    LensParams,
    NormalCoords,
    StructureElement,
    element_add,
    element_scale,
    element_validate,
    kernel_rho_bar,
    rho_bar_formula,
    transfer,
    zero_element,
)
from rho_lattice.suspension import (
    browder_livesay_composite,
    elem_mu4m2,
    elem_nu,
    elem_omega,
    elem_sigma,
    elem_tau,
    even_exponent_sum,
    image_test_even_target,
    image_test_odd_target,
    minimal_exponent,
    resolve,
    suspend,
    torsion_basis,
    torsion_coordinates,
)


def torsion_elements(p):
    kr = kernel_rho_bar(p)
    for t4 in kr.members:
        for t4m2 in product(range(p.t4m2_modulus), repeat=p.c):
            yield StructureElement(
                p, ring.zero(p.modulus()), NormalCoords(t4, tuple(t4m2))
            )


class TestNamedElements:
    def test_sigma(self):
        s = elem_sigma(LensParams(4, 4))
        assert element_validate(s)
        assert eval_minus_one(s.rho) == 8

    def test_omega_suspends_to_zero(self):
        w = elem_omega(LensParams(6, 4))
        assert element_validate(w)
        res = suspend(w)
        assert res.determined is not None
        assert res.determined.rho.is_zero() and res.determined.coords.is_zero()

    def test_omega_is_omega_multiple_of_tau(self):
        for N in (2, 4, 8, 16, 6, 12):
            p = LensParams(N, 4)
            assert elem_omega(p).rho == elem_tau(p).rho * 2 ** min(p.K, 2)

    def test_mu4m2(self):
        y = elem_mu4m2(LensParams(8, 5))
        assert element_validate(y)
        assert y.coords.t4m2 == (0, 1) and y.rho.is_zero()

    def test_nu_example(self):
        nu = elem_nu(LensParams(8, 4))
        assert nu.rho == even_exponent_sum(8) * 2
        assert element_validate(nu)

    def test_parity_preconditions(self):
        with pytest.raises(PreconditionFailed):
            elem_sigma(LensParams(4, 5))
        with pytest.raises(PreconditionFailed):
            elem_tau(LensParams(4, 5))
        with pytest.raises(PreconditionFailed):
            elem_mu4m2(LensParams(4, 4))
        with pytest.raises(PreconditionFailed):
            elem_nu(LensParams(4, 5))
        with pytest.raises(PreconditionFailed):
            elem_sigma(LensParams(3, 4))


class TestSuspend:
    def test_zero_element_odd_source(self):
        res = suspend(zero_element(LensParams(8, 5)))
        assert res.determined is not None
        assert res.determined.rho.is_zero() and res.determined.coords.is_zero()

    def test_zero_element_even_source(self):
        res = suspend(zero_element(LensParams(8, 4)))
        assert res.determined is not None
        assert res.determined.coords.is_zero()

    def test_tau_candidate_sets(self):
        assert suspend(elem_tau(LensParams(8, 4))).candidate_t4e() == (2, 6)
        assert suspend(elem_tau(LensParams(2, 4))).candidate_t4e() == (1,)
        assert suspend(elem_tau(LensParams(16, 4))).candidate_t4e() == (4, 12)
        assert suspend(elem_tau(LensParams(6, 4))).candidate_t4e() == (1,)

    def test_tau_suspension_properties(self):
        for N in (2, 4, 6, 8, 24):
            res = suspend(elem_tau(LensParams(N, 4)))
            for y in res.candidates:
                assert y.rho.is_zero()
                assert not any(y.coords.t4[:-1]) and not any(y.coords.t4m2)
                assert element_validate(y)

    def test_transfer_to_odd_part_kills_tau_suspension(self):
        for N in (6, 12, 24):
            p = LensParams(N, 4)
            y, _ = resolve(suspend(elem_tau(p)))
            down = transfer(y, p.M)
            assert down.rho.is_zero() and down.coords.is_zero()

    def test_rho_multiplied_by_f(self):
        p = LensParams(8, 5)
        x = StructureElement(
            p, (ring.x_power(p.modulus(), 1) - ring.x_power(p.modulus(), 7)) * 4,
            NormalCoords.zero(p),
        )
        assert element_validate(x)
        res = suspend(x)
        from rho_lattice.elements import f_element

        assert res.determined is not None
        assert res.determined.rho == f_element(8) * x.rho

    @pytest.mark.parametrize("m", (ring.truncated(4), ring.group_ring(8)), ids=lambda m: m.kind)
    def test_rho_over_another_ring_refused(self, m):
        p = LensParams(8, 5)
        x = StructureElement(p, ring.zero(m), NormalCoords.zero(p))
        with pytest.raises(ModulusMismatch):
            suspend(x)

    def test_coords_carried(self):
        p = LensParams(8, 5)
        for x in torsion_elements(p):
            res = suspend(x)
            assert res.determined is not None
            assert res.determined.coords == x.coords

    @pytest.mark.parametrize("d", (4, 5))
    def test_coordinates_out_of_range_raise(self, d):
        # rho = 1 has no completion, so only the source's own check sees t4
        p = LensParams(8, d)
        coords = NormalCoords((9,) + (0,) * (p.c - 1), (0,) * p.c)
        with pytest.raises(ValueError, match="t4 entries"):
            suspend(StructureElement(p, ring.one(p.modulus()), coords))

    def test_choice_log_records_ambiguity(self):
        res = suspend(elem_tau(LensParams(8, 4)))
        chosen, record = resolve(res)
        assert record is not None
        assert record.candidate_t4e == (2, 6) and record.chosen_t4e == 2
        det = suspend(zero_element(LensParams(8, 5)))
        _, no_record = resolve(det)
        assert no_record is None


class TestImageTests:
    def test_odd_target(self):
        assert not image_test_odd_target(elem_sigma(LensParams(4, 4)))
        assert image_test_odd_target(zero_element(LensParams(4, 4)))
        src = LensParams(4, 3)
        for x in torsion_elements(src):
            res = suspend(x)
            assert res.determined is not None
            assert image_test_odd_target(res.determined)

    def test_even_target(self):
        assert not image_test_even_target(elem_mu4m2(LensParams(8, 5)))
        assert image_test_even_target(zero_element(LensParams(8, 5)))
        for x in torsion_elements(LensParams(8, 4)):
            for y in suspend(x).candidates:
                assert image_test_even_target(y)

    def test_preconditions(self):
        with pytest.raises(PreconditionFailed):
            image_test_odd_target(zero_element(LensParams(5, 4)))
        with pytest.raises(PreconditionFailed):
            image_test_even_target(zero_element(LensParams(8, 3)))


class TestMinimalExponent:
    @pytest.mark.parametrize(
        "N,e", [(2, 2), (2, 3), (4, 2), (4, 3), (8, 2), (8, 3), (16, 2), (16, 3)]
    )
    def test_matches_closed_form(self, N, e):
        p = LensParams(N, 2 * e)
        assert minimal_exponent(p) == 4 - min(p.K, 2 * e)

    def test_preconditions(self):
        with pytest.raises(PreconditionFailed):
            minimal_exponent(LensParams(8, 5))
        with pytest.raises(PreconditionFailed):
            minimal_exponent(LensParams(3, 4))

    def test_reaches_below_minus_eight(self):
        # 4 - min(12, 12) = -8 was the old search's fixed floor
        assert minimal_exponent(LensParams(4096, 12)) == -8

    def test_realizable_below_the_denominator_bound_is_reported(self, monkeypatch):
        # every exponent "realizable": the search must stop at the bound
        monkeypatch.setattr(suspension, "realizations", lambda params, rho: [[1]])
        with pytest.raises(VerificationFailure, match="below the bound"):
            minimal_exponent(LensParams(8, 4))


def gap_realizable(p, gap):
    """The coordinate-free sector: the 4-integral eigenlattice and, at even
    d, a value at x = -1 divisible by 8."""
    return in_lattice_4r(gap, p.sign) and (p.sign == -1 or eval_minus_one(gap) % 8 == 0)


def coords_matching_rho_brute(p, rho):
    """The lexicographically first t4-tuple whose class leaves a realizable
    gap, by trying every tuple in order."""
    for t4 in product(range(p.t4_modulus), repeat=p.c):
        if gap_realizable(p, rho - rho_bar_formula(p, t4)):
            return t4
    return None


def suspend_candidates_brute(x):
    """Every new top coordinate whose completion passes element_validate."""
    p = x.params
    target = LensParams(p.N, p.d + 1, p.k)
    rho = f_element(p.N) * x.rho
    return tuple(
        v
        for v in range(target.t4_modulus)
        if element_validate(
            StructureElement(
                target, rho, NormalCoords(x.coords.t4 + (v,), x.coords.t4m2 + (0,))
            )
        )
    )


def first_units(N, count):
    return [k for k in range(1, N) if gcd(k, N) == 1][:count]


def suspension_inputs(p, rng):
    """Elements at even d: named ones, torsion, sums, and tuples that fail
    the consistency congruence or leave the eigenspace."""
    m = p.modulus()
    sym = ring.x_power(m, 1) + ring.x_power(m, p.N - 1)
    rhos = [ring.zero(m), ring.one(m), sym, sym * 4, sym.scale(Fraction(1, 2))]
    rhos.append(ring.x_power(m, 1) * 8)  # outside the eigenspace
    out = [zero_element(p)]
    if p.K >= 1:
        nu = elem_nu(p) if p.e >= 2 else elem_sigma(p)
        out += [elem_sigma(p), elem_omega(p), elem_tau(p), nu, element_scale(nu, 3)]
        members = list(torsion_elements(p))
        out += [element_add(nu, rng.choice(members)) for _ in range(3)]
        rhos.append(even_exponent_sum(p.N).scale(Fraction(2) ** rng.randrange(-3, 5)))
    for rho in rhos:
        for _ in range(2):
            t4 = tuple(rng.randrange(p.t4_modulus) for _ in range(p.c))
            t4m2 = tuple(rng.randrange(p.t4m2_modulus) for _ in range(p.c))
            out.append(StructureElement(p, rho, NormalCoords(t4, t4m2)))
    return out


class TestRealizationOracles:
    """The lattice of :func:`surgery.realizations` against the coordinate
    enumerations it replaced."""

    @pytest.mark.parametrize("N", (2, 4, 6, 8, 12, 16, 24, 32))
    def test_coords_match_the_product_loop(self, N):
        m = truncated(N)
        sym = ring.x_power(m, 1) + ring.x_power(m, N - 1)
        seen = set()
        for e in (2, 3, 4):
            for k in first_units(N, 3):
                p = LensParams(N, 2 * e, k)
                if p.K * p.c > 12:
                    continue
                rhos = [even_exponent_sum(N).scale(Fraction(2) ** l) for l in range(-4, 6)]
                rhos += [sym * 4, sym * 2, ring.x_power(m, 1) * 16]
                for rho in rhos:
                    got = suspension._coords_matching_rho(p, rho)
                    want = coords_matching_rho_brute(p, rho)
                    assert (None if got is None else got.t4) == want, (p, rho)
                    seen.add(want is None)
        assert seen == {True, False}

    @pytest.mark.parametrize("N", (2, 3, 4, 5, 6, 8, 9, 12, 16, 24))
    def test_suspend_candidates_match_the_validation_filter(self, N):
        rng = random.Random(N)
        sizes = set()
        for d in (4, 6):
            for k in first_units(N, 2):
                p = LensParams(N, d, k)
                if p.K * p.c > 8:
                    continue
                for x in suspension_inputs(p, rng):
                    got = suspend(x).candidate_t4e()
                    want = suspend_candidates_brute(x)
                    if suspension._tau_multiplicity(x) is None:
                        assert got == want, (p, x)
                    else:
                        assert set(got) <= set(want), (p, x)
                    sizes.add(len(got) > 0)
        # at N = 2, f = 0 and every suspension is the zero class
        assert sizes == ({True} if N == 2 else {True, False})

    @pytest.mark.parametrize("N", (2, 4, 6, 8, 12, 16, 24, 32))
    def test_candidates_are_a_coset(self, N):
        # the module docstring: away from multiples of tau the candidate
        # set is a coset of 2^max(K-2,0) * Z_{2^K}
        rng = random.Random(N)
        for d in (4, 6):
            p = LensParams(N, d)
            step = 2 ** max(p.K - 2, 0)
            for x in suspension_inputs(p, rng):
                got = suspend(x).candidate_t4e()
                if got and suspension._tau_multiplicity(x) is None:
                    assert got == tuple(range(got[0] % step, p.t4_modulus, step)), (p, x)


def expansion_table(tb):
    """Every coefficient vector of the basis, keyed by the coordinates it
    expands to: the enumeration of the whole torsion group that once
    verified the basis, kept here as the reference for the integer solve."""
    p = tb.params
    table = {}
    ranges = [range(o) for o in tb.orders] + [range(2)] * p.c
    for coeffs in product(*ranges):
        acc = NormalCoords.zero(p)
        for r, b in zip(coeffs, tb.mu4 + tb.mu4m2):
            acc = acc.add(b.coords.scale(r, p), p)
        key = (acc.t4, acc.t4m2)
        assert key not in table, f"{key} hit twice"
        table[key] = coeffs
    return table


ORACLE_PARAMS = [
    (N, d, k)
    for N in (2, 4, 6, 8, 16)
    for d in range(3, 8)
    for k in (1, 3)
    if gcd(k, N) == 1
]


# N in {2, 4, 6, 8, 12, 16, 24, 32}, d in 3..9, the first three k, and at
# most 2^20 coordinate tuples: 140 parameter sets
GRID = [
    p
    for N in (2, 4, 6, 8, 12, 16, 24, 32)
    for d in range(3, 10)
    for k in [k for k in range(1, N) if gcd(k, N) == 1][:3]
    for p in [LensParams(N, d, k)]
    if 2 ** (p.K * p.c) <= 2**20
]


def independent_by_presentations(params, t4, higher):
    """The two-presentation criterion, read off the orders of the two spans:
    adjoining the member multiplies the span of the higher blocks by the
    member's full order 2^min(K,2)."""
    mods = [params.t4_modulus] * params.c + [params.t4m2_modulus] * params.c
    base = [x.coords.t4 + x.coords.t4m2 for x in higher]
    grown = Span(mods, base + [t4 + (0,) * params.c]).order
    return grown == Span(mods, base).order * 2 ** min(params.K, 2)


def mu4_candidates(params):
    """The kernel members of the lowest block's order 2^min(K,2)."""
    for t4 in kernel_rho_bar(params).members:
        coords = NormalCoords(t4, (0,) * params.c)
        x = StructureElement(params, ring.zero(params.modulus()), coords)
        if suspension._element_order(x) == 2 ** min(params.K, 2):
            yield t4, x


class TestMu4Choice:
    def test_choice_matches_two_presentations(self):
        for params in GRID:
            higher = list(torsion_basis(params).mu4[1:])
            expected = next(
                x for t4, x in mu4_candidates(params)
                if independent_by_presentations(params, t4, higher)
            )
            members = kernel_rho_bar(params).members
            assert suspension._mu4_choice(params, members, higher) == expected, params

    def test_criterion_matches_two_presentations_per_member(self):
        # a one-member list isolates the criterion: the choice returns the
        # member when it is independent and raises otherwise
        for params in [p for p in GRID if 2 ** (p.K * p.c) <= 2**6]:
            higher = list(torsion_basis(params).mu4[1:])
            for t4, x in mu4_candidates(params):
                try:
                    chosen = suspension._mu4_choice(params, (t4,), higher) == x
                except VerificationFailure:
                    chosen = False
                assert chosen == independent_by_presentations(params, t4, higher), (params, t4)


class TestTorsionBasis:
    def test_order_profiles(self):
        assert torsion_basis(LensParams(8, 7)).orders == (4, 8, 8)
        assert torsion_basis(LensParams(4, 5)).orders == (4, 4)
        assert torsion_basis(LensParams(2, 5)).orders == (2, 2)
        assert torsion_basis(LensParams(8, 6)).orders == (4, 8)

    def test_unit_vector_expansion(self):
        p = LensParams(8, 5)
        tb = torsion_basis(p)
        for i, b in enumerate(tb.mu4):
            coeffs = torsion_coordinates(b, tb)
            expect = tuple(1 if j == i else 0 for j in range(p.c)) + (0,) * p.c
            assert coeffs == expect
        for i, b in enumerate(tb.mu4m2):
            coeffs = torsion_coordinates(b, tb)
            expect = (0,) * p.c + tuple(1 if j == i else 0 for j in range(p.c))
            assert coeffs == expect

    def test_expansion_example(self):
        tb = torsion_basis(LensParams(8, 7))
        x = element_add(element_scale(tb.mu4[1], 2), tb.mu4m2[0])
        assert torsion_coordinates(x, tb) == (0, 2, 0, 1, 0, 0)

    @pytest.mark.parametrize("N", (2, 4, 6, 8))
    @pytest.mark.parametrize("d", (3, 4, 5, 6, 7))
    def test_roundtrip_everywhere(self, N, d):
        p = LensParams(N, d)
        tb = torsion_basis(p)
        for x in torsion_elements(p):
            coeffs = torsion_coordinates(x, tb)
            acc = zero_element(p)
            for r, b in zip(coeffs[: p.c], tb.mu4):
                acc = element_add(acc, element_scale(b, r))
            for r, b in zip(coeffs[p.c :], tb.mu4m2):
                acc = element_add(acc, element_scale(b, r))
            assert acc.coords == x.coords

    @pytest.mark.parametrize("N, d, k", ORACLE_PARAMS)
    def test_coordinates_match_expansion_table(self, N, d, k):
        p = LensParams(N, d, k)
        tb = torsion_basis(p)
        table = expansion_table(tb)
        orders = tb.orders + (2,) * p.c
        seen = 0
        for x in torsion_elements(p):
            coeffs = torsion_coordinates(x, tb)
            assert coeffs == table[(x.coords.t4, x.coords.t4m2)]
            assert all(0 <= r < o for r, o in zip(coeffs, orders))
            seen += 1
        assert seen == len(table)

    def test_dependent_generator_rejected(self, monkeypatch):
        # twice mu_8 has the order 4 of the lowest block but lies in the
        # span of the higher blocks, so the span falls short
        def dependent(params, members, higher):
            return element_scale(higher[0], 2)

        monkeypatch.setattr(suspension, "_mu4_choice", dependent)
        with pytest.raises(VerificationFailure):
            torsion_basis(LensParams(8, 7))

    def test_large_group(self):
        p = LensParams(16, 9)
        tb = torsion_basis(p)
        assert tb.orders == (4, 16, 16, 16)
        rng = random.Random(0)
        for _ in range(8):
            coeffs = tuple(rng.randrange(o) for o in tb.orders + (2,) * p.c)
            x = zero_element(p)
            for r, b in zip(coeffs, tb.mu4 + tb.mu4m2):
                x = element_add(x, element_scale(b, r))
            assert torsion_coordinates(x, tb) == coeffs

    def test_torsion_required(self):
        p = LensParams(4, 4)
        tb = torsion_basis(p)
        with pytest.raises(PreconditionFailed):
            torsion_coordinates(elem_sigma(p), tb)


class TestBrowderLivesay:
    def test_sigma_reads_one(self):
        s = elem_sigma(LensParams(4, 4))
        assert browder_livesay_composite(s, 2) == 1
        s8 = elem_sigma(LensParams(8, 4))
        assert browder_livesay_composite(s8, 2) == 1  # K=3 <= 2i=4

    def test_zero_reads_zero(self):
        assert browder_livesay_composite(zero_element(LensParams(4, 4)), 1) == 0

    def test_nu_normalization(self):
        nu = elem_nu(LensParams(8, 4))
        # eval(2 * (1 + x^2 + x^4 + x^6)) = 8; divisor 2^(3 + max(0, 3-4)) = 8
        assert browder_livesay_composite(nu, 2) == 1

    def test_odd_n_rejected(self):
        with pytest.raises(PreconditionFailed):
            browder_livesay_composite(zero_element(LensParams(5, 4)), 1)


class TestSuspendValidation:
    """suspend validates the realizations' coset by its first member and
    its step, and every candidate of a tau multiple."""

    @staticmethod
    def _coset_input():
        p = LensParams(8, 4)
        for x in suspension_inputs(p, random.Random(8)):
            if suspension._tau_multiplicity(x) is None and len(suspend(x).candidates) > 1:
                return x
        raise AssertionError("no suspension with several candidates")

    def test_one_validation_per_coset(self, monkeypatch):
        x = self._coset_input()
        calls = []
        real = suspension.element_validate
        monkeypatch.setattr(suspension, "element_validate", lambda y: calls.append(y) or real(y))
        result = suspend(x)
        assert calls == [result.candidates[0]] and len(result.candidates) == 4

    def test_wrong_step_raises(self, monkeypatch):
        x = self._coset_input()
        real = suspension.realizations

        def halved(*args):
            h = [list(row) for row in real(*args)]
            h[1][1] //= 2
            return h

        monkeypatch.setattr(suspension, "realizations", halved)
        with pytest.raises(VerificationFailure, match="no kernel element"):
            suspend(x)
