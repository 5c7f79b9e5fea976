"""The re-derivation harness behind ``rho-lattice verify``.

Every named statement the library relies on is re-proved here over a
parameter sweep, at desk scale, with exact arithmetic.  A check either
passes or fails with a witness; failures are report content, never
crashes.  Reports are deterministic for a fixed seed and sweep: the
checks are sorted by statement id and parameters before any of them
runs, each line is emitted as its check finishes, and a seeded check
draws from a stream keyed by the seed, its statement id and its
parameters.
"""

from __future__ import annotations

import json
import random
import time
from functools import cache
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Iterable, Iterator

from . import SUITES, ring
from .abelian import FinAb, solve_rational
from .elements import divide_by_f, f_element, f_k_element, f_prime_k_element, g_element
from .exceptions import NotInvertible, VerificationFailure
from .frozen import Frozen
from .ring import (
    Element,
    eval_minus_one,
    eigen_project,
    eigen_test,
    in_lattice_4r,
    involution,
    reduce_poly,
    truncated,
)
from .surgery import (
    LensParams,
    NormalCoords,
    StructureElement,
    element_add,
    element_scale,
    element_validate,
    kernel_closed_form,
    kernel_members_brute,
    kernel_rho_bar,
    l_group_reduced_rank,
    reduced_normal_group,
    rho_bar_formula,
    structure_set,
    transfer,
    zero_element,
    _formula_numerators,
)
from .suspension import (
    elem_mu4m2,
    elem_nu,
    elem_omega,
    elem_sigma,
    elem_tau,
    image_test_even_target,
    image_test_odd_target,
    minimal_exponent,
    resolve,
    suspend,
    torsion_basis,
    torsion_coordinates,
    browder_livesay_composite,
)

DEFAULT_SWEEP_N = (2, 3, 4, 5, 6, 8, 9, 12, 16, 24)
DEFAULT_SWEEP_D = (3, 4, 5, 6, 7, 8)


class Check(Frozen):
    """One instance of a statement: ``fn(*args)`` over the named ``params``.

    A ``seeded`` check also gets, as its last argument, the random stream
    of its seed, statement and params.  Checks hold module-level functions
    and plain arguments, so they pickle and can be sent to worker
    processes as they are.
    """

    _fields = ("statement", "params", "fn", "args", "suite", "seed", "seeded")
    __slots__ = _fields

    def run(self) -> str | None:
        """The witness string of a failure, or None when the check passes."""
        if self.seeded:
            return self.fn(*self.args, _rng(self.seed, self.statement, self.params))
        return self.fn(*self.args)


def _rng(seed: int, statement: str, params: dict) -> random.Random:
    key = f"{seed}:{statement}:{json.dumps(params, sort_keys=True)}"
    return random.Random(key)


def _coprime_ks(N: int, limit: int = 2) -> list[int]:
    ks = [1]
    for k in range(2, N):
        if len(ks) >= limit:
            break
        if gcd(k, N) == 1:
            ks.append(k)
    return ks


def _random_element(rng: random.Random, m: ring.Modulus, integral: bool = False) -> Element:
    """Coefficients p/q with p in [-9, 9] and, unless integral, q in [1, 6].

    Each value is drawn by rejection on 5- and 3-bit words, the same words
    ``rng.randint(-9, 9)`` and ``rng.randint(1, 6)`` consume, so the stream
    and the elements are those of randint.
    """
    bits = rng.getrandbits
    nums = []
    dens = []
    for _ in range(m.dim):
        p = bits(5)
        while p >= 19:
            p = bits(5)
        nums.append(p - 9)
        if not integral:
            q = bits(3)
            while q >= 6:
                q = bits(3)
            dens.append(q + 1)
    if integral:
        return ring.from_numerators(m, nums)
    den = lcm(*dens)
    return ring.from_numerators(m, [p * (den // q) for p, q in zip(nums, dens)], den)


def _mul_raw(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    """Product of two integer polynomials given as exponent -> coefficient."""
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def _random_t4(rng: random.Random, p: LensParams) -> tuple[int, ...]:
    """A uniform t4-coordinate tuple for ``p``."""
    return tuple(rng.randrange(p.t4_modulus) for _ in range(p.c))


# ---------------------------------------------------------------------------
# ring suite


def _check_ring_axioms(m: ring.Modulus, rng: random.Random) -> str | None:
    one = ring.one(m)
    for trial in range(200):
        a = _random_element(rng, m)
        b = _random_element(rng, m)
        c = _random_element(rng, m)
        ab = a * b
        if ab * c != a * (b * c):
            return f"associativity fails at trial {trial}"
        if a * (b + c) != ab + a * c:
            return f"distributivity fails at trial {trial}"
        if ab != b * a:
            return f"commutativity fails at trial {trial}"
        if a * one != a:
            return f"unit law fails at trial {trial}"
    return None


def _check_reduce_hom(N: int, m: ring.Modulus, rng: random.Random) -> str | None:
    for trial in range(100):
        deg = rng.randint(0, 3 * N)
        p = {e: rng.randint(-6, 6) for e in rng.sample(range(-N, 3 * N), k=min(deg + 1, 8))}
        q = {e: rng.randint(-6, 6) for e in rng.sample(range(-N, 3 * N), k=4)}
        rp, rq = reduce_poly(p, m), reduce_poly(q, m)
        s = {e: p.get(e, 0) + q.get(e, 0) for e in set(p) | set(q)}
        if reduce_poly(s, m) != rp + rq:
            return f"additivity fails at trial {trial}"
        if reduce_poly(_mul_raw(p, q), m) != rp * rq:
            return f"multiplicativity fails at trial {trial}"
        if reduce_poly({e: c for e, c in enumerate(rp.coeffs)}, m) != rp:
            return f"idempotence fails at trial {trial}"
    return None


def _check_inverse_roundtrip(m: ring.Modulus, rng: random.Random) -> str | None:
    one = ring.one(m)
    orders = ring._cyclotomic_orders(m)
    done = 0
    for trial in range(60):
        if done >= 20:
            break
        a = _random_element(rng, m)
        if trial % 4 == 3:  # a zero divisor a * Phi_d, d cycling over P's factors
            phi = ring._cyclotomic(orders[trial // 4 % len(orders)])
            a = a * reduce_poly(dict(enumerate(phi)), m)
        try:
            inv = ring.inverse(a)
        except NotInvertible as exc:
            # the witness comes from the cyclotomic factors; the dense
            # solve's null vector derives it a second time
            _, null, den = solve_rational(ring._mul_matrix(a), [a.den] + [0] * (m.dim - 1))
            if null is None or exc.witness != ring.from_numerators(m, null, den):
                return f"zero-divisor witness is not the null vector at trial {trial}"
            continue
        if a * inv != one:
            return f"inverse round trip fails at trial {trial}"
        done += 1
    return None


def _check_involution(N: int, rng: random.Random) -> str | None:
    m = truncated(N)
    for trial in range(50):
        a = _random_element(rng, m)
        b = _random_element(rng, m)
        if involution(involution(a)) != a:
            return f"involution order > 2 at trial {trial}"
        if involution(a * b) != involution(a) * involution(b):
            return f"involution not multiplicative at trial {trial}"
        if eigen_project(a, 1) + eigen_project(a, -1) != a:
            return f"eigenprojections do not sum to identity at trial {trial}"
        if not eigen_test(eigen_project(a, 1), 1):
            return f"plus-projection not an eigenvector at trial {trial}"
    return None


def _check_crt(N: int, rng: random.Random) -> str | None:
    m = truncated(N)
    for trial in range(200):
        a = _random_element(rng, m)
        b = _random_element(rng, m)
        sa, sb = ring.crt_split(a), ring.crt_split(b)
        if ring.crt_combine(sa, N) != a:
            return f"split/combine round trip fails at trial {trial}"
        sab = ring.crt_split(a * b)
        if any(pa * pb != pab for pa, pb, pab in zip(sa, sb, sab)):
            return f"split not multiplicative at trial {trial}"
        ssum = ring.crt_split(a + b)
        if any(pa + pb != ps for pa, pb, ps in zip(sa, sb, ssum)):
            return f"split not additive at trial {trial}"
    return None


def _check_eval_minus_one(N: int, rng: random.Random) -> str | None:
    m = truncated(N)
    for trial in range(100):
        p = {e: rng.randint(-9, 9) for e in rng.sample(range(0, 3 * N), k=6)}
        val = sum(c * (-1) ** e for e, c in p.items())
        if eval_minus_one(reduce_poly(p, m)) != val:
            return f"evaluation not representative-independent at trial {trial}"
    return None


def _check_restrict(N: int, rng: random.Random) -> str | None:
    m = truncated(N)
    divisors = [np for np in range(2, N) if N % np == 0]
    for trial in range(40):
        a = _random_element(rng, m)
        b = _random_element(rng, m)
        for np in divisors:
            ra = ring.restrict(a, np)
            if ring.restrict(a * b, np) != ra * ring.restrict(b, np):
                return f"restriction not multiplicative N'->{np} at trial {trial}"
            if ring.restrict(involution(a), np) != involution(ra):
                return f"restriction does not commute with involution at {np}"
            for npp in (x for x in range(2, np) if np % x == 0):
                if ring.restrict(ra, npp) != ring.restrict(a, npp):
                    return f"restriction not transitive {N}->{np}->{npp}"
    return None


def _check_lattice_soundness(N: int, rng: random.Random) -> str | None:
    m = truncated(N)
    for trial in range(60):
        sign = rng.choice([1, -1])
        x = eigen_project(_random_element(rng, m, integral=True), sign)
        two_x = x + x  # eigen-projection may introduce halves; 2x is integral
        if not two_x.is_integral():
            return f"eigen lattice bookkeeping broke at trial {trial}"
        if not in_lattice_4r(two_x * 4, sign):
            return f"4*integral eigen element rejected at trial {trial}"
    # negative cases: a coefficient equal to 2 mod 4 must be rejected
    if in_lattice_4r(ring.const(m, 2), 1):
        return "2 accepted in the 4-lattice"
    if N >= 3:
        plus = reduce_poly({1: 2, N - 1: 2}, m)
        if in_lattice_4r(plus, 1):
            return "2*(x + x^-1) accepted in the (+)-4-lattice"
        minus = reduce_poly({1: 2, N - 1: -2}, m)
        if in_lattice_4r(minus, -1):
            return "2*(x - x^-1) accepted in the (-)-4-lattice"
        # wrong eigenspace is rejected no matter the divisibility
        if in_lattice_4r(reduce_poly({1: 4, N - 1: -4}, m), 1):
            return "(-)-eigen element accepted in the (+)-lattice"
    return None


# ---------------------------------------------------------------------------
# lemma suite


def _check_fk_triple(N: int) -> str | None:
    f = f_element(N)
    for k in range(1, N):
        if gcd(k, N) != 1 or (k % 2 == 0 and N % 2 == 0):
            continue
        fk = f_k_element(N, k)
        fpk = f_prime_k_element(N, k)
        if not eigen_test(fk, -1):
            return f"f_{k} not in the (-1)-eigenspace"
        if not fpk.is_integral():
            return f"f'_{k} not integral"
        if fk != f * fpk:
            return f"f_{k} != f * f'_{k}"
    return None


def _check_g_quasi_inverse(N: int) -> str | None:
    m = truncated(N)
    g = g_element(N)
    gf = g * f_element(N)
    if not (g.is_zero() or eigen_test(g, -1)):
        return "g not in the (-1)-eigenspace"
    for r in range(1, (N + 1) // 2):
        v = ring.x_power(m, r) - ring.x_power(m, N - r)
        if gf * v != v:
            return f"g*f does not fix x^{r} - x^-{r}"
    if N % 2 == 1 and gf != ring.one(m):
        return "g is not the exact inverse of f for odd N"
    return None


def _multiple_is_4_integral(a: Element, q: int) -> bool:
    """Whether q * a has all its canonical coefficients in 4Z."""
    return all(q * c % (4 * a.den) == 0 for c in a.num)


def _check_lem_2_3(N: int) -> str | None:
    for k in _coprime_ks(N, limit=N):
        fk = f_k_element(N, k)
        for t in range(1, 4 * N + 1):
            member = _multiple_is_4_integral(fk, 8 * t)
            if member and (4 * t) % N != 0:
                return f"8*{t}*f_{k} lands in the 4-lattice but {N} does not divide {4 * t}"
    return None


def _check_lem_2_3_converse(N: int) -> str | None:
    # The lemma states only that membership forces N | 4t.  This converse
    # gates the exit code like every other check: it holds for every N <= 24,
    # so a failure would be a real finding, not an expected gap.
    for k in _coprime_ks(N, limit=N):
        fk = f_k_element(N, k)
        for t in range(1, 4 * N + 1):
            if (4 * t) % N == 0:
                if not _multiple_is_4_integral(fk, 8 * t):
                    return f"converse fails: {N} | {4 * t} but 8*{t}*f_{k} not in lattice"
    return None


def _check_decomposition_lem(N: int, rng: random.Random) -> str | None:
    K, M = ring.split_two_power(N)
    m = truncated(N)
    g_two = {e: 1 for e in range(2**K)}  # 1 + x + ... + x^(2^K - 1)
    g_odd = {e * 2**K: 1 for e in range(M)}  # 1 + x^(2^K) + ... + x^(2^K(M-1))

    def rand_poly(scale: int) -> dict[int, int]:
        return {e: scale * rng.randint(-5, 5) for e in range(rng.randint(1, N))}

    def add_raw(*ps) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in ps:
            for e, c in p.items():
                out[e] = out.get(e, 0) + c
        return out

    def neg_raw(p):
        return {e: -c for e, c in p.items()}

    for trial in range(100):
        b = rand_poly(4)
        s = rand_poly(4)
        r = rand_poly(4)
        a = add_raw(b, _mul_raw(s, g_two))
        cpoly = add_raw(a, neg_raw(_mul_raw(r, g_odd)))
        if any(v % 4 for v in cpoly.values()):
            return f"instance generator broke at trial {trial}"
        witness = add_raw(
            {e: M * c for e, c in cpoly.items()},
            _mul_raw(add_raw(b, neg_raw(cpoly)), g_odd),
        )
        if any(v % 4 for v in witness.values()):
            return f"witness not 4-integral at trial {trial}"
        lhs = reduce_poly({e: M * c for e, c in a.items()}, m)
        rhs = reduce_poly(witness, m)
        if lhs != rhs:
            return f"M*a != witness mod the full ideal at trial {trial}"
    return None


def _check_m_factor_lem(N: int, k: int, rng: random.Random) -> str | None:
    m_odd = ring.odd_truncated(N)
    K, M = ring.split_two_power(N)
    raw_f = f_element(N)
    raw_fpk = f_prime_k_element(N, k)
    f = reduce_poly({e: c for e, c in enumerate(raw_f.coeffs)}, m_odd)
    fpk = reduce_poly({e: c for e, c in enumerate(raw_fpk.coeffs)}, m_odd)
    f2 = f * f
    # the trials draw q of degree at most 3; these factors do not depend on q
    f2_powers = [f2**j for j in range(4)]
    even_factor = fpk * (f2 - ring.one(m_odd))
    odd_factor = fpk * f

    for trial in range(100):
        deg = rng.randint(0, 3)
        q = [rng.randint(-6, 6) for _ in range(deg + 1)]
        while len(q) > 1 and q[-1] == 0:
            q.pop()
        deg = len(q) - 1
        qf2 = ring.zero(m_odd)
        for j, coef in enumerate(q):
            if coef:
                qf2 = qf2 + f2_powers[j] * coef
        first = even_factor * qf2 * (8 * M ** (2 + 2 * deg))
        second = odd_factor * qf2 * (8 * M ** (1 + 2 * deg))
        if not ring.is_4_integral(first):
            return f"even display not 4-integral for q={q}"
        if not ring.is_4_integral(second):
            return f"odd display not 4-integral for q={q}"
    return None


def _check_divide_by_f(N: int, rng: random.Random) -> str | None:
    m = truncated(N)
    f = f_element(N)
    for trial in range(100):
        raw: dict[int, int] = {}
        for k in range(1, N // 2):
            c = 4 * rng.randint(-5, 5)
            raw[k] = c
            raw[N - k] = c
        raw[N // 2] = 8 * rng.randint(-3, 3)
        ev = sum(raw.get(j, 0) * (-1) ** j for j in range(N))
        raw[0] = -ev
        u = reduce_poly(raw, m)
        if eval_minus_one(u) != 0 or not in_lattice_4r(u, 1):
            return f"generator produced an invalid u at trial {trial}"
        a = divide_by_f(u)
        if f * a != u:
            return f"f * a != u at trial {trial}"
        if not in_lattice_4r(a, -1):
            return f"quotient not in the 4-integral (-1)-lattice at trial {trial}"
    return None


def _check_fk_restriction(N: int) -> str | None:
    for k in _coprime_ks(N):
        if not ring.restrict(f_k_element(N, k), 2).is_zero():
            return f"f_{k} does not restrict to 0 at N'=2"
    return None


# ---------------------------------------------------------------------------
# kernel suite


def _check_kernel_vs_closed(N: int, d: int, k: int) -> str | None:
    p = LensParams(N, d, k)
    kr = kernel_rho_bar(p)
    cf = kernel_closed_form(p)
    if kr.torsion != cf:
        return f"lattice {kr.torsion.factors} vs closed {cf.factors}"
    members, brute = kr.members, kernel_members_brute(p)
    if members != brute:
        only = sorted(set(members).symmetric_difference(brute))[:1]
        return f"lattice lists {len(members)} members, brute force {len(brute)}; {only}"
    return None


def _check_rank_clause(N: int, d: int) -> str | None:
    # the paper's clause, written out here rather than read from surgery
    p = LensParams(N, d)
    if N % 2 == 1:
        clause = (N - 1) // 2
    else:
        clause = N // 2 if p.sign == 1 else N // 2 - 1
    rank = structure_set(p).free_rank
    if rank != clause:
        return f"descriptor rank {rank} != clause {clause}"
    return None


def _check_rank_lattice(N: int) -> str | None:
    # raises internally when the eigenlattice rank disagrees with the clause
    l_group_reduced_rank(N, 1)
    l_group_reduced_rank(N, -1)
    return None


def _check_formula_additivity(N: int, d: int, k: int, rng: random.Random) -> str | None:
    p = LensParams(N, d, k)
    if p.K < 1:
        return None
    for trial in range(20):
        t, s = _random_t4(rng, p), _random_t4(rng, p)
        ts = tuple((a + b) % p.t4_modulus for a, b in zip(t, s))
        gap = rho_bar_formula(p, ts) - rho_bar_formula(p, t) - rho_bar_formula(p, s)
        if not in_lattice_4r(gap, p.sign):
            return f"additivity fails at t={t}, s={s}"
    return None


def _check_formula_twist(N: int, d: int, k: int, rng: random.Random) -> str | None:
    p = LensParams(N, d, k)
    if p.K < 1:
        return None
    p1 = LensParams(N, d, 1)
    fpk = f_prime_k_element(N, p.k)
    for trial in range(20):
        t = _random_t4(rng, p)
        if rho_bar_formula(p, t) != fpk * rho_bar_formula(p1, t):
            return f"twist fails at t={t}"
    return None


def _check_lift_independence(N: int, d: int, k: int) -> str | None:
    p = LensParams(N, d, k)
    if p.K < 1:
        return None
    shift = p.t4_modulus * p.M**p.c
    rows, D = _formula_numerators(N, d, k)
    for i, row in enumerate(rows):
        if not in_lattice_4r(ring.from_numerators(p.modulus(), row, D) * shift, p.sign):
            return f"changing the lift by {shift} moves the class in slot {i}"
    return None


def _check_formula_naturality(N: int, n_prime: int, d: int) -> str | None:
    p = LensParams(N, d)
    q = LensParams(n_prime, d)
    if p.K < 1 or q.K < 1:
        return None
    for t in range(p.t4_modulus):
        t4 = (t,) + (0,) * (p.c - 1)
        down = ring.restrict(rho_bar_formula(p, t4), n_prime)
        tq = tuple(x % q.t4_modulus for x in t4)
        gap = down - rho_bar_formula(q, tq)
        if not in_lattice_4r(gap, q.sign):
            return f"naturality fails at t4={t}"
    return None


def _check_normal_group(N: int, d: int) -> str | None:
    p = LensParams(N, d)
    two_local, odd_order = reduced_normal_group(p)
    expect = FinAb.from_orders([p.t4_modulus] * p.c + [p.t4m2_modulus] * p.c)
    if two_local != expect:
        return f"two-local part {two_local.factors} != {expect.factors}"
    if odd_order != p.M**p.c:
        return f"odd order {odd_order} != M^c"
    return None


# ---------------------------------------------------------------------------
# suspension suite


def _torsion_elements(p: LensParams) -> list[StructureElement]:
    kr = kernel_rho_bar(p)
    out = []
    for t4 in kr.members:
        for t4m2 in product(range(p.t4m2_modulus), repeat=p.c):
            out.append(
                StructureElement(p, ring.zero(p.modulus()), NormalCoords(t4, tuple(t4m2)))
            )
    return out


def _lattice_basis_elements(p: LensParams) -> list[StructureElement]:
    """Coordinate-free elements spanning the 4-integral eigenlattice."""
    m = p.modulus()
    out = []
    if p.sign == -1:
        for r in range(1, (p.N + 1) // 2):
            rho = (ring.x_power(m, r) - ring.x_power(m, p.N - r)) * 4
            out.append(StructureElement(p, rho, NormalCoords.zero(p)))
    else:
        for r in range(1, p.N // 2 + 1):
            rho = reduce_poly({r: 4, -r: 4, 0: 8 * (-1) ** (r + 1)}, m)
            out.append(StructureElement(p, rho, NormalCoords.zero(p)))
    return out


def _check_thm1(N: int, e: int) -> str | None:
    src = LensParams(N, 2 * e + 1)
    sample = _torsion_elements(src) + _lattice_basis_elements(src)
    images = []
    for x in sample:
        res = suspend(x)
        if res.determined is None:
            return f"odd-source suspension not determined at {x.coords}"
        images.append(res.determined)
    # (a) injectivity on the sample
    seen = {}
    for x, y in zip(sample, images):
        key = (y.rho.coeffs, y.coords.t4, y.coords.t4m2)
        if key in seen and seen[key] != (x.rho.coeffs, x.coords.t4, x.coords.t4m2):
            return f"two distinct elements suspend to the same tuple {key}"
        seen[key] = (x.rho.coeffs, x.coords.t4, x.coords.t4m2)
    # (b) image characterization: suspensions evaluate to 0, sigma to 8
    for y in images:
        if not image_test_odd_target(y):
            return "a suspension does not evaluate to 0 at x = -1"
    sigma = elem_sigma(LensParams(N, 2 * e + 2))
    if image_test_odd_target(sigma):
        return "sigma wrongly passes the image test"
    if eval_minus_one(sigma.rho) != 8:
        return "sigma does not evaluate to 8"
    # (c) surjectivity onto eval-0 tuples: torsion sector and lattice generators
    tgt = LensParams(N, 2 * e + 2)
    for y in _torsion_elements(tgt):
        x = StructureElement(src, ring.zero(src.modulus()), y.coords)
        if not element_validate(x):
            return f"torsion tuple {y.coords} has no valid source"
        res = suspend(x)
        if res.determined is None or res.determined.coords != y.coords:
            return f"suspension misses the torsion tuple {y.coords}"
        if not res.determined.rho.is_zero():
            return "suspension of a torsion source is not torsion"
    for y in _lattice_basis_elements(tgt):
        if eval_minus_one(y.rho) != 0:
            continue
        a = divide_by_f(y.rho)
        x = StructureElement(src, a, NormalCoords.zero(src))
        if not element_validate(x):
            return "divide-by-f source fails validation"
        res = suspend(x)
        if res.determined is None or res.determined.rho != y.rho:
            return "suspension misses an eval-0 lattice generator"
    return None


def _check_thm2_omega(N: int, e: int) -> str | None:
    p = LensParams(N, 2 * e)
    omega = elem_omega(p)
    res = suspend(omega)
    if res.determined is None:
        return f"suspension of omega is ambiguous: {res.candidate_t4e()}"
    out = res.determined
    if not (out.rho.is_zero() and out.coords.is_zero()):
        return "suspension of omega is not the zero tuple"
    # the tau-line meets the kernel exactly in the omega-multiples
    tau = elem_tau(p)
    step = 2 ** min(p.K, 2)
    for mult in range(0, 4 * step):
        res = suspend(element_scale(tau, mult))
        kills = all(c.rho.is_zero() and c.coords.is_zero() for c in res.candidates)
        if kills != (mult % step == 0):
            return f"{mult}*tau kernel membership disagrees with the omega line"
    return None


def _check_tau_properties(N: int, e: int) -> str | None:
    p = LensParams(N, 2 * e)
    tau = elem_tau(p)
    if not element_validate(tau):
        return "tau fails validation"
    res = suspend(tau)
    cands = res.candidate_t4e()
    K = p.K
    if K == 1:
        if cands != (1,):
            return f"candidate set {cands} != (1,) for K = 1"
    else:
        expected = tuple(sorted({2 ** (K - 2), 3 * 2 ** (K - 2)}))
        if not set(cands) <= set(expected):
            return f"candidate set {cands} not within {expected}"
    for y in res.candidates:
        if not y.rho.is_zero():
            return "suspension of tau has nonzero rho"
        if any(y.coords.t4[:-1]) or any(y.coords.t4m2):
            return "suspension of tau has extra nonzero coordinates"
        if p.M > 1:
            killed = transfer(y, p.M)
            if not (killed.rho.is_zero() and killed.coords.is_zero()):
                return "transfer to the odd part does not kill the tuple"
    return None


def _check_thm2_image(N: int, e: int) -> str | None:
    src = LensParams(N, 2 * e)
    tgt = LensParams(N, 2 * e + 1)
    mu = elem_mu4m2(tgt)
    if image_test_even_target(mu):
        return "mu_{4e-2} wrongly passes the image test"
    # every suspension output passes
    nu = elem_nu(src)
    sources: list[StructureElement] = []
    for t in _torsion_elements(src):
        sources.append(t)
        for a in range(1, 2 ** min(src.K, 2 * e)):
            sources.append(element_add(element_scale(nu, a), t))
    tau = elem_tau(src)
    for mult in range(1, 2 ** min(src.K, 2) + 1):
        sources.append(element_scale(tau, mult))
    reachable = set()
    for x in sources:
        res = suspend(x)
        for y in res.candidates:
            if not image_test_even_target(y):
                return "a suspension violates the image characterization"
            if y.rho.is_zero():
                reachable.add((y.coords.t4, y.coords.t4m2))
    for y in _torsion_elements(tgt):
        key = (y.coords.t4, y.coords.t4m2)
        if y.coords.t4m2[-1] == 0 and key not in reachable:
            return f"torsion tuple {key} passes the test but is not reached"
        if y.coords.t4m2[-1] == 1 and key in reachable:
            return f"torsion tuple {key} fails the test but is reached"
    return None


def _check_carrier_match(N: int, e: int) -> str | None:
    a, _ = reduced_normal_group(LensParams(N, 2 * e + 1))
    b, _ = reduced_normal_group(LensParams(N, 2 * e + 2))
    if a != b:
        return f"coordinate carriers differ: {a.factors} vs {b.factors}"
    return None


# ---------------------------------------------------------------------------
# torsion suite


def _check_minimal_exponent(N: int, e: int) -> str | None:
    p = LensParams(N, 2 * e)
    got = minimal_exponent(p)
    expected = 4 - min(p.K, 2 * e)
    if got != expected:
        return f"minimal exponent {got} != {expected}"
    return None


def _check_basis_roundtrip(N: int, d: int) -> str | None:
    p = LensParams(N, d)
    basis = torsion_basis(p)  # construction verifies orders and generation
    for x in _torsion_elements(p):
        coeffs = torsion_coordinates(x, basis)
        acc = zero_element(p)
        for r, b in zip(coeffs[: p.c], basis.mu4):
            acc = element_add(acc, element_scale(b, r))
        for r, b in zip(coeffs[p.c :], basis.mu4m2):
            acc = element_add(acc, element_scale(b, r))
        if acc.coords != x.coords or not acc.rho.is_zero():
            return f"round trip fails at {x.coords}"
    return None


def _check_torsion_split(N: int, e: int) -> str | None:
    src = LensParams(N, 2 * e)
    tgt = LensParams(N, 2 * e + 1)
    src_size = kernel_rho_bar(src).torsion.order()
    tgt_size = kernel_rho_bar(tgt).torsion.order()
    expected = src_size * 2 ** min(src.K, 2 * e) * 2
    if tgt_size != expected:
        return f"|target torsion| {tgt_size} != {expected}"
    nu = elem_nu(src)
    y, _ = resolve(suspend(nu))
    if not y.rho.is_zero():
        return "suspension of nu is not torsion"
    order = 1
    acc = y
    while not (acc.coords.is_zero() and acc.rho.is_zero()):
        acc = element_add(acc, y)
        order += 1
        if order > 4 * tgt_size:
            return "order search ran away"
    if order != 2 ** min(src.K, 2 * e):
        return f"|suspension of nu| = {order} != 2^min(K,2e)"
    return None


def _check_browder_livesay(N: int) -> str | None:
    p_even = LensParams(N, 4)
    sigma = elem_sigma(p_even)
    K = p_even.K
    for i in range(1, 4):
        expected = Fraction(8, p_even.M * 2 ** (3 + max(0, K - 2 * i)))
        if browder_livesay_composite(sigma, i) != expected:
            return f"sigma obstruction at block {i} is wrong"
        if K <= 2 * i and p_even.M == 1 and expected != 1:
            return "normalization is off: sigma should read 1"
    if browder_livesay_composite(zero_element(p_even), 1) != 0:
        return "zero element has nonzero obstruction"
    return None


# ---------------------------------------------------------------------------
# harness


class Statement(Frozen):
    """A statement's suite, check and default ``(params, args)`` rows.

    A row's check runs ``fn(*args)``, with its random stream appended when
    ``seeded``.
    """

    _fields = ("name", "suite", "fn", "rows", "seeded")
    __slots__ = _fields


def _rows(params: Iterable[dict]) -> tuple[tuple[dict, tuple], ...]:
    """Rows whose check arguments are the parameter values, in order."""
    return tuple((p, tuple(p.values())) for p in params)


@cache
def _registry() -> tuple[Statement, ...]:
    """Every statement with its default rows; built on first use, not on import."""
    sweep = DEFAULT_SWEEP_N
    ring_kinds = []
    for N in sweep:
        factors = ring.crt_factors(N) if N % 2 == 0 else ()
        for m in (truncated(N), ring.group_ring(N)) + factors:
            label = m.kind if m.kind != ring.BINOMIAL_PLUS else f"{m.kind}({m.param})"
            ring_kinds.append(({"N": N, "kind": label}, (m,)))
    truncated_n = tuple(({"N": N, "kind": "truncated"}, (N, truncated(N))) for N in sweep)
    truncated_m = tuple(({"N": N, "kind": "truncated"}, (truncated(N),)) for N in sweep)
    per_n = _rows({"N": N} for N in sweep)
    per_even_n = _rows({"N": N} for N in sweep if N % 2 == 0)
    to_48 = _rows({"N": N} for N in range(2, 49))
    to_24 = _rows({"N": N} for N in range(2, 25))
    decomp = _rows({"N": N} for N in (6, 12, 24))
    m_factor = _rows({"N": N, "k": k} for N in (6, 12, 24) for k in _coprime_ks(N))
    even_to_24 = _rows({"N": N} for N in range(2, 25, 2))
    fk_restriction = _rows({"N": N} for N in (4, 6, 8, 12))
    nd = [{"N": N, "d": d} for N in sweep for d in DEFAULT_SWEEP_D]
    ndk = _rows({**p, "k": k} for p in nd for k in _coprime_ks(p["N"]))
    formula = _rows({**p, "k": k} for p in nd if p["d"] in (4, 5) for k in _coprime_ks(p["N"]))
    pairs = ((8, 4), (8, 2), (16, 8), (24, 12), (12, 6), (4, 2))
    naturality = _rows({"N": N, "N'": n, "d": d} for N, n in pairs for d in (4, 5, 6))
    susp = [{"N": N, "e": e} for N in (2, 4, 6, 8) for e in (1, 2)]
    susp_even = [p for p in susp if p["e"] == 2]
    tau = _rows(susp_even + [{"N": 24, "e": 2}])
    min_exponent = _rows({"N": N, "e": e} for N in (2, 4, 8, 16) for e in (2, 3))
    basis = _rows({"N": N, "d": d} for N in (2, 4, 6, 8) for d in range(3, 8))
    torsion_split = _rows({"N": N, "e": e} for N in (2, 4, 6, 8) for e in (2, 3))
    two_powers = _rows({"N": N} for N in (2, 4, 8, 16))
    return (
        Statement("ring-axioms", "ring", _check_ring_axioms, tuple(ring_kinds), True),
        Statement("reduce-hom", "ring", _check_reduce_hom, truncated_n, True),
        Statement("inverse-roundtrip", "ring", _check_inverse_roundtrip, truncated_m, True),
        Statement("involution", "ring", _check_involution, per_n, True),
        Statement("crt-roundtrip", "ring", _check_crt, per_even_n, True),
        Statement("eval-minus-one", "ring", _check_eval_minus_one, per_even_n, True),
        Statement("restrict", "ring", _check_restrict, per_n, True),
        Statement("lattice-soundness", "ring", _check_lattice_soundness, per_n, True),
        Statement("lemma-f_k", "lemmas", _check_fk_triple, to_48, False),
        Statement("lemma-f-inverse", "lemmas", _check_g_quasi_inverse, to_48, False),
        Statement("lemma-8tfk", "lemmas", _check_lem_2_3, to_24, False),
        Statement("lemma-8tfk-converse", "lemmas", _check_lem_2_3_converse, to_24, False),
        Statement("lemma-decomposition", "lemmas", _check_decomposition_lem, decomp, True),
        Statement("lemma-m-factor", "lemmas", _check_m_factor_lem, m_factor, True),
        Statement("divide-by-f", "lemmas", _check_divide_by_f, even_to_24, True),
        Statement("f_k-restriction", "lemmas", _check_fk_restriction, fk_restriction, False),
        Statement("thm-main-kernel", "kernel", _check_kernel_vs_closed, ndk, False),
        Statement("thm-main-rank", "kernel", _check_rank_clause, _rows(nd), False),
        Statement("eq-normal-group", "kernel", _check_normal_group, _rows(nd), False),
        Statement("formula-additive", "kernel", _check_formula_additivity, formula, True),
        Statement("formula-twist", "kernel", _check_formula_twist, formula, True),
        Statement("formula-lift-free", "kernel", _check_lift_independence, formula, False),
        Statement("formula-naturality", "kernel", _check_formula_naturality, naturality, False),
        # the eigenlattice rank agrees with the clause for every N up to 48
        Statement("rank-lattice-clause", "kernel", _check_rank_lattice, to_48, False),
        Statement("thm-susp-odd", "suspension", _check_thm1, _rows(susp), False),
        Statement("carrier-match", "suspension", _check_carrier_match, _rows(susp), False),
        Statement("lemma-tau", "suspension", _check_tau_properties, tau, False),
        Statement("thm-susp-even-kernel", "suspension", _check_thm2_omega, _rows(susp_even), False),
        Statement("thm-susp-even-image", "suspension", _check_thm2_image, _rows(susp_even), False),
        Statement("prop-minimal-exponent", "torsion", _check_minimal_exponent, min_exponent, False),
        Statement("cor-basis-roundtrip", "torsion", _check_basis_roundtrip, basis, False),
        Statement("prop-torsion-split", "torsion", _check_torsion_split, torsion_split, False),
        Statement("rem-browder-livesay", "torsion", _check_browder_livesay, two_powers, False),
    )


def build_checks(
    suites: Iterable[str],
    max_n: int | None = None,
    max_d: int | None = None,
    seed: int = 0,
) -> list[Check]:
    """The checks of ``suites`` whose own N and d are at most ``max_n``/``max_d``."""
    suites = tuple(suites)
    if unknown := set(suites) - set(SUITES):
        raise ValueError(f"unknown suite {sorted(unknown)[0]!r}")
    return [
        Check(s.name, dict(params), s.fn, args, suite, seed, s.seeded)
        for suite in suites
        for s in _registry()
        if s.suite == suite
        for params, args in s.rows
        if (max_n is None or params.get("N", 0) <= max_n)
        and (max_d is None or params.get("d", 0) <= max_d)
    ]


def _run_one(check: Check) -> tuple[dict, float]:
    """The report line of ``check`` and the wall seconds its check took."""
    started = time.perf_counter()
    try:
        witness = check.run()
    except Exception as exc:  # failures are report content, not crashes
        witness = f"exception: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    entry = {
        "statement": check.statement,
        "params": check.params,
        "status": "pass" if witness is None else "fail",
    }
    if witness is not None:
        entry["witness"] = witness
        cmd = f"rho-lattice verify --suite {check.suite} --seed {check.seed}"
        for key in ("N", "d"):
            if key in check.params:
                cmd += f" --max-{key} {check.params[key]}"
        entry["reproduce"] = cmd
    return entry, seconds


def run_suites(
    suites: Iterable[str],
    max_n: int | None = None,
    max_d: int | None = None,
    seed: int = 0,
    workers: int = 1,
) -> Iterator[tuple[dict, float]]:
    """The report line of every check of ``suites``, in canonical order, each
    as its check finishes, paired with the wall seconds the check took.

    An empty selection raises ValueError before any check runs.
    """
    suites = tuple(suites)
    checks = build_checks(suites, max_n, max_d, seed)
    if not checks:
        bounds = "".join(
            f" --max-{key} {v}" for key, v in (("N", max_n), ("d", max_d)) if v is not None
        )
        raise ValueError(f"no check matches --suite {'+'.join(suites)}{bounds}")
    checks.sort(key=lambda c: (c.statement, json.dumps(c.params, sort_keys=True)))
    if workers > 1 and len(checks) > 1:
        return _run_parallel(checks, workers)
    return map(_run_one, checks)


def _run_parallel(checks: list[Check], workers: int) -> Iterator[tuple[dict, float]]:
    """Run the checks in a process pool, one task per check, yielding each
    result in the order of ``checks`` as soon as it and every check before
    it are done.  Closing the iterator early cancels the checks no worker
    has started.

    A pool that fails raises VerificationFailure; it never falls back to serial.
    """
    import concurrent.futures as cf

    try:
        with cf.ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                yield from pool.map(_run_one, checks)
            except GeneratorExit:
                pool.shutdown(cancel_futures=True)
                raise
    except (OSError, cf.BrokenExecutor) as exc:
        raise VerificationFailure(
            f"worker pool failed ({type(exc).__name__}: {exc}); rerun with --workers 1"
        ) from exc
