"""Answers the benchmark checks the package against, derived independently.

Nothing here imports ``rho_lattice``.  Ring elements are plain coefficient
lists (lowest degree first) of the canonical remainder modulo the monic
generator of the quotient ring, so every check here is long division by a
polynomial written down from its definition, not a call into the package's
folding code.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod


def split_two_power(n: int) -> tuple[int, int]:
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k, n


def generator(kind: str, N: int, l: int = 0) -> list[int]:
    """The monic generator of the ideal, lowest coefficient first."""
    if kind == "group":  # x^N - 1
        return [-1] + [0] * (N - 1) + [1]
    if kind == "truncated":  # 1 + x + ... + x^(N-1)
        return [1] * N
    if kind == "binomial_plus":  # 1 + x^(2^l)
        return [1] + [0] * (2**l - 1) + [1]
    if kind == "odd_truncated":  # 1 + y + ... + y^(M-1), y = x^(2^K)
        K, M = split_two_power(N)
        out = [0] * (2**K * (M - 1) + 1)
        for j in range(M):
            out[j * 2**K] = 1
        return out
    raise ValueError(f"unknown ring kind {kind!r}")


def crt_factor_kinds(N: int) -> list[tuple[str, int]]:
    """(kind, l) of the CRT factors of the truncated ring, in split order."""
    K, M = split_two_power(N)
    if K == 0:
        return [("truncated", 0)]
    out = [("binomial_plus", l) for l in range(K)]
    if M > 1:
        out.append(("odd_truncated", 0))
    return out


def _common_den(values) -> int:
    den = 1
    for v in values:
        d = Fraction(v).denominator
        den = den * d // gcd(den, d)
    return den


def reduce(poly, gen: list[int]) -> list[Fraction]:
    """Remainder of ``poly`` (any length, rational) by the monic ``gen``."""
    deg = len(gen) - 1
    den = _common_den(poly)
    work = [int(Fraction(c) * den) for c in poly]
    work += [0] * max(0, deg - len(work))
    taps = [(j, g) for j, g in enumerate(gen[:-1]) if g]
    for e in range(len(work) - 1, deg - 1, -1):
        c = work[e]
        if c:
            work[e] = 0
            base = e - deg
            for j, g in taps:
                work[base + j] -= c * g
    return [Fraction(c, den) for c in work[:deg]]


def mul(a, b, gen: list[int]) -> list[Fraction]:
    da, db = _common_den(a), _common_den(b)
    ia = [int(Fraction(c) * da) for c in a]
    ib = [int(Fraction(c) * db) for c in b]
    conv = [0] * (len(ia) + len(ib) - 1)
    for i, x in enumerate(ia):
        if x:
            for j, y in enumerate(ib):
                if y:
                    conv[i + j] += x * y
    return [c / (da * db) for c in reduce(conv, gen)]


def poly(terms: dict[int, int], N: int) -> list[Fraction]:
    """A polynomial from exponent -> coefficient, exponents read modulo N."""
    out = [Fraction(0)] * N
    for e, c in terms.items():
        out[e % N] += c
    return out


def truncated(terms: dict[int, int], N: int) -> list[Fraction]:
    return reduce(poly(terms, N), generator("truncated", N))


def involution(a, N: int) -> list[Fraction]:
    """x -> x^(N-1) applied to a truncated-ring remainder, reduced again."""
    raw = [Fraction(0)] * N
    for e, c in enumerate(a):
        raw[(N - e) % N] += c
    return reduce(raw, generator("truncated", N))


def restrict(a, n_prime: int) -> list[Fraction]:
    """Fold exponents modulo N' and reduce into the truncated ring of order N'."""
    raw = [Fraction(0)] * n_prime
    for e, c in enumerate(a):
        raw[e % n_prime] += c
    return reduce(raw, generator("truncated", n_prime))


def is_zero(a) -> bool:
    return not any(a)


def one(N: int) -> list[Fraction]:
    return truncated({0: 1}, N)


# -- closed forms of the structure set --------------------------------------


def rank_clause(N: int, d: int) -> int:
    """Free rank: N/2 (sign +) or N/2 - 1 (sign -) for even N, (N-1)/2 for odd N."""
    if N % 2:
        return (N - 1) // 2
    return N // 2 if d % 2 == 0 else N // 2 - 1


def kernel_orders(N: int, d: int) -> list[int]:
    """Cyclic orders (+)_i Z_{2^min(K,1)} (+) (+)_i Z_{2^min(K,2i)}, i = 1..c."""
    K, c = split_two_power(N)[0], (d - 1) // 2
    return [2 ** min(K, 1)] * c + [2 ** min(K, 2 * i) for i in range(1, c + 1)]


def block_orders(N: int, d: int) -> list[int]:
    """Orders 2^min(K,2i) of the torsion blocks mu_{4i}, i = 1..c."""
    K, c = split_two_power(N)[0], (d - 1) // 2
    return [2 ** min(K, 2 * i) for i in range(1, c + 1)]


def primary_parts(orders) -> list[int]:
    """Sorted prime-power cyclic summands of a finite group given by any orders."""
    out = []
    for n in orders:
        p = 2
        while n > 1:
            if n % p == 0:
                q = 1
                while n % p == 0:
                    n //= p
                    q *= p
                out.append(q)
            p += 1
    return sorted(out)


def kernel_member_count(N: int, d: int) -> int:
    """Size of the t4 part of the kernel: prod_i 2^min(K,2i)."""
    return prod(block_orders(N, d))
