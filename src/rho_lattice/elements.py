"""The distinguished units of the rational truncated ring.

Everything here lives in Q[x]/<1 + x + ... + x^(N-1)> for the cyclic group
of order N.  The basic element is

    f = (1 + x) / (1 - x),

an element of the (-1)-eigenspace of the conjugation involution, and its
twisted companions for every exponent k coprime to N:

    f_k = (1 + x^k) / (1 - x^k) = f * f'_k,

where the cofactor f'_k is always integral.  f is a zero divisor whenever
N is even, but it acts invertibly on the (-1)-eigenspace: the quasi-inverse
g constructed here satisfies g * f * v = v for every v with
involution(v) = -v.

``divide_by_f`` solves u = f * a for a in the 4-integral
(-1)-eigenlattice whenever u is 4-integral, (+1)-eigen and vanishes at
x = -1, which is exactly the obstruction for such a quotient to exist.
The quotient is g * u, the unique (-1)-eigen solution, and it is checked.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import ring
from .exceptions import PreconditionFailed, VerificationFailure
from .frozen import Frozen
from .ring import Element, split_two_power


# f, f_k, f'_k and g are each derived once per (N, k) or per N, by their own
# closed form and check, and shared: elements are immutable.


@lru_cache(maxsize=None)
def f_element(N: int) -> Element:
    """f = (1+x)/(1-x) in the rational truncated ring of order N."""
    return f_k_element(N, 1)


@lru_cache(maxsize=None)
def f_k_element(N: int, k: int) -> Element:
    """f_k = (1+x^k)/(1-x^k); requires gcd(k, N) = 1.

    Lies in the (-1)-eigenspace of the involution.
    """
    if gcd(k, N) != 1:
        raise ValueError(f"k = {k} must be coprime to N = {N}")
    m = ring.truncated(N)
    num = ring.reduce_poly({0: 1, k: 1}, m)
    den = ring.reduce_poly({0: 1, k: -1}, m)
    return num * ring.inverse(den)


@lru_cache(maxsize=None)
def f_prime_k_element(N: int, k: int) -> Element:
    """The integral cofactor f'_k with f_k = f * f'_k.

    Built from the closed quotient form, which depends on the parity of k:
    for odd k the numerator is the alternating sum 1 - x + ... + x^(k-1),
    for even k (possible only when N is odd) it is the alternating tail
    x^k - x^(k+1) + ... + x^(N-1); in both cases the denominator is
    1 + x + ... + x^(k-1).
    """
    if gcd(k, N) != 1:
        raise ValueError(f"k = {k} must be coprime to N = {N}")
    if k % 2 == 0 and N % 2 == 0:
        raise ValueError("even k requires odd N")
    m = ring.truncated(N)
    if k == 1:
        return ring.one(m)
    if k % 2 == 1:
        num = ring.alternating_sum(m, k)
    else:
        num = ring.reduce_poly({j: (-1) ** (j - k) for j in range(k, N)}, m)
    den = ring.geometric_sum(m, k)
    return num * ring.inverse(den)


def h_l_element(N: int, l: int) -> Element:
    """(1+x)^(-1) = A_l / 2 in the CRT factor Q[x]/<1 + x^(2^l)>, l >= 1,
    with A_l = 1 - x + x^2 - ... - x^(2^l - 1): (1 + x) * A_l = 1 - x^(2^l)."""
    if l < 1:
        raise ValueError("h_l is defined for l >= 1 (1+x vanishes in the l = 0 factor)")
    m = ring.binomial_plus(N, l)
    return ring.alternating_sum(m, 2**l).scale(Fraction(1, 2))


def h_element(N: int) -> Element:
    """(1+x)^(-1) in the odd CRT factor Q[x]/<1 + y + ... + y^(M-1)>, y = x^(2^K).

    Closed form -(A_K / M) * (1 + 2y + 3y^2 + ... + M y^(M-1)), the product
    of A_K = (1 - y)/(1 + x) with the standard geometric-derivative inverse
    of 1 - y.
    """
    K, M = split_two_power(N)
    m = ring.odd_truncated(N)
    a_k = ring.alternating_sum(m, 2**K)
    step = 2**K
    series = ring.reduce_poly({j * step: j + 1 for j in range(M)}, m)
    return (a_k * series).scale(Fraction(-1, M))


@lru_cache(maxsize=None)
def g_element(N: int) -> Element:
    """The quasi-inverse of f: g*f*v = v for all v in the (-1)-eigenspace.

    For odd N (K = 0) f is invertible and g is its literal inverse, the
    unique choice, in closed form: (1 + x) * (1 - x + x^2 - ... + x^(N-1))
    = 1 + x^N = 2, so g = (1 - x) * (1 - x + ... + x^(N-1)) / 2; a g that
    fails g * f = 1 raises :class:`VerificationFailure`.  For even N, g is
    assembled by Chinese remaindering: component 0 in the l = 0 factor
    (where 1 + x vanishes, so every (-1)-eigen element projects to 0
    there), and the inverse of the f-component everywhere else, which is
    (1-x) times the (1+x)-inverse h_l resp. h of that factor.  g itself
    lies in the (-1)-eigenspace, but is not unique with that property when
    K >= 1.
    """
    K, M = split_two_power(N)
    if K == 0:
        m = ring.truncated(N)
        g = (ring.reduce_poly({0: 1, 1: -1}, m) * ring.alternating_sum(m, N)).scale(
            Fraction(1, 2)
        )
        if g * f_element(N) != ring.one(m):
            raise VerificationFailure(f"closed-form g fails g * f = 1 at N = {N}")
        return g
    parts = [ring.zero(ring.binomial_plus(N, 0))]
    for l in range(1, K):
        m_l = ring.binomial_plus(N, l)
        parts.append(ring.reduce_poly({0: 1, 1: -1}, m_l) * h_l_element(N, l))
    if M > 1:
        m_odd = ring.odd_truncated(N)
        parts.append(ring.reduce_poly({0: 1, 1: -1}, m_odd) * h_element(N))
    return ring.crt_combine(parts, N)


class Catalog(Frozen):
    """The named elements f, f_k, f'_k and g for a fixed (N, k), built
    once per (N, k) and cached; ``special`` prints exactly these."""

    _fields = ("N", "k", "f", "f_k", "f_prime_k", "g")
    __slots__ = _fields

    def __init__(
        self, N: int, k: int, f: Element, f_k: Element, f_prime_k: Element, g: Element
    ):
        self._assign(N=N, k=k, f=f, f_k=f_k, f_prime_k=f_prime_k, g=g)

    @staticmethod
    def get(N: int, k: int) -> Catalog:
        """The catalog for k coprime to N, with k reduced to its least
        positive residue: f_k depends only on k mod N (x^N = 1), and f'_k
        is the closed form at that residue."""
        if gcd(k, N) != 1:
            raise ValueError(f"k = {k} must be coprime to N = {N}")
        return _catalog(N, k % N)


@lru_cache(maxsize=None)
def _catalog(N: int, k: int) -> Catalog:
    return Catalog(
        N=N,
        k=k,
        f=f_element(N),
        f_k=f_k_element(N, k),
        f_prime_k=f_prime_k_element(N, k),
        g=g_element(N),
    )


# ---------------------------------------------------------------------------
# division by f on the 4-integral lattice


def divide_by_f(u: Element) -> Element:
    """Solve u = f * a with a in the 4-integral (-1)-eigenlattice.

    Preconditions: the ring order N is even, u is 4-integral and
    (+1)-eigen, and u vanishes at x = -1.  The quotient is a = g * u for
    the quasi-inverse g, and it is the only one: g * f fixes the
    (-1)-eigenspace, so any (-1)-eigen a with f * a = u equals g * f * a
    = g * u.  It is checked to satisfy f * a = u and to lie in the
    lattice.
    """
    m = u.modulus
    N = m.N
    if m.kind != ring.TRUNCATED or N % 2:
        raise PreconditionFailed("divide_by_f needs a truncated ring of even order")
    if not ring.in_lattice_4r(u, 1):
        raise PreconditionFailed("u must be 4-integral and (+1)-eigen")
    if ring.eval_minus_one(u) != 0:
        raise PreconditionFailed("u must vanish at x = -1")
    catalog = Catalog.get(N, 1)
    a = catalog.g * u
    if catalog.f * a != u:
        raise VerificationFailure("constructive division by f failed to verify")
    if not ring.in_lattice_4r(a, -1):
        raise VerificationFailure("quotient left the 4-integral (-1)-lattice")
    return a
