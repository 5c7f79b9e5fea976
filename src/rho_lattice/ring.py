"""Exact arithmetic in cyclic group rings and their truncated quotients.

All rings here are quotients of Z[x] (or Q[x]) by one of four ideals,
where N >= 2 is the order of the underlying cyclic group:

    group ring      Q[x] / <x^N - 1>
    truncated       Q[x] / <1 + x + ... + x^(N-1)>
    binomial_plus   Q[x] / <1 + x^(2^l)>          (CRT factor, 2^(l+1) | N)
    odd_truncated   Q[x] / <1 + y + ... + y^(M-1)>, y = x^(2^K), N = 2^K*M

An element is a coefficient vector of exact rationals in the canonical
monomial basis x^0, ..., x^(dim-1), where dim is N, N-1, 2^l and
2^K*(M-1) respectively.  Each ideal generator is monic, so the canonical
monomials form a Z-basis of the image of Z[x]: an element lies in the
integral lattice exactly when all its canonical coefficients are integers.
That convention is what makes the 4*R lattice tests below pure
coefficient checks.

Negative exponents are interpreted through x^N = 1 (which holds in every
kind: x^N - 1 is a multiple of each ideal generator), so x^(-k) means
x^(N-k).

Everything is immutable and every operation is a pure function; values
can be shared freely between threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Mapping, Sequence, Union

from .abelian import solve_rational
from .exceptions import (
    ModulusMismatch,
    NotInvertible,
    OddOrderEvaluation,
    UnsupportedModulus,
    VerificationFailure,
)

Rational = Union[int, Fraction]

GROUP = "group"
TRUNCATED = "truncated"
BINOMIAL_PLUS = "binomial_plus"
ODD_TRUNCATED = "odd_truncated"

_KINDS = (GROUP, TRUNCATED, BINOMIAL_PLUS, ODD_TRUNCATED)


def split_two_power(n: int) -> tuple[int, int]:
    """Return (K, M) with n = 2^K * M and M odd."""
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k, n


@dataclass(frozen=True)
class Modulus:
    """Identifies one of the four quotient rings over a fixed N.

    ``param`` is the exponent l for binomial_plus and unused otherwise.
    """

    N: int
    kind: str
    param: int = 0

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == BINOMIAL_PLUS:
            if self.N % (2 ** (self.param + 1)) != 0:
                raise ValueError(
                    f"binomial_plus({self.param}) requires 2^{self.param + 1} | N"
                )
        if self.kind == ODD_TRUNCATED:
            k, m = split_two_power(self.N)
            if k == 0 or m == 1:
                raise ValueError("odd_truncated requires N = 2^K * M with K >= 1, M > 1")

    @property
    def dim(self) -> int:
        """Length of the canonical coefficient vector."""
        if self.kind == GROUP:
            return self.N
        if self.kind == TRUNCATED:
            return self.N - 1
        if self.kind == BINOMIAL_PLUS:
            return 2**self.param
        k, m = split_two_power(self.N)
        return 2**k * (m - 1)

    def describe(self) -> str:
        n = self.N
        if self.kind == GROUP:
            return f"Q[x]/<x^{n} - 1>"
        if self.kind == TRUNCATED:
            return f"Q[x]/<1 + x + ... + x^{n - 1}>"
        if self.kind == BINOMIAL_PLUS:
            return f"Q[x]/<1 + x^{2 ** self.param}>"
        k, m = split_two_power(n)
        return f"Q[x]/<1 + x^{2 ** k} + ... + x^{2 ** k * (m - 1)}>"


def group_ring(N: int) -> Modulus:
    return Modulus(N, GROUP)


def truncated(N: int) -> Modulus:
    return Modulus(N, TRUNCATED)


def binomial_plus(N: int, l: int) -> Modulus:
    return Modulus(N, BINOMIAL_PLUS, l)


def odd_truncated(N: int) -> Modulus:
    return Modulus(N, ODD_TRUNCATED)


def _to_fraction(q: Rational) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    raise TypeError(f"exact rational expected, got {type(q).__name__}")


# ---------------------------------------------------------------------------
# reduction to canonical form
#
# Internally reduction works on integer vectors plus a common denominator,
# so the hot paths (convolution, folding) stay in machine/big-int land and
# Fractions are only built once at the end.


def _fold_int(raw: Mapping[int, int], m: Modulus) -> list[int]:
    """Reduce an integer exponent->coefficient map into canonical form."""
    n = m.N
    if m.kind == GROUP:
        out = [0] * n
        for e, c in raw.items():
            out[e % n] += c
        return out

    if m.kind == TRUNCATED:
        # x^N = 1, then x^(N-1) = -(1 + x + ... + x^(N-2))
        out = [0] * n
        for e, c in raw.items():
            out[e % n] += c
        top = out.pop()
        if top:
            out = [c - top for c in out]
        return out

    if m.kind == BINOMIAL_PLUS:
        # x^(2^l) = -1, period 2^(l+1) with sign flip
        w = 2**m.param
        out = [0] * w
        for e, c in raw.items():
            e %= 2 * w
            if e >= w:
                out[e - w] -= c
            else:
                out[e] += c
        return out

    # odd_truncated: x^N = 1, then long division by the monic generator
    # g = 1 + x^(2^K) + ... + x^(2^K*(M-1)) of degree D = 2^K*(M-1).
    k, mm = split_two_power(n)
    step = 2**k
    d = step * (mm - 1)
    out = [0] * n
    for e, c in raw.items():
        out[e % n] += c
    for e in range(n - 1, d - 1, -1):
        c = out[e]
        if c:
            out[e] = 0
            for j in range(mm - 1):
                out[e - d + step * j] -= c
    return out[:d]


def _common_den(coeffs: Iterable[Fraction]) -> int:
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return den


@dataclass(frozen=True)
class Element:
    """A ring element in canonical reduced form.

    Do not construct directly; use :func:`reduce_poly`, :func:`from_coeffs`
    or the helpers below so the canonical-form invariant holds.
    """

    modulus: Modulus
    coeffs: tuple[Fraction, ...]

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_integral(self) -> bool:
        """True when every canonical coefficient is an integer."""
        return all(c.denominator == 1 for c in self.coeffs)

    def constant_value(self) -> Fraction:
        """The rational q with self == q * 1, if self is constant."""
        if any(self.coeffs[1:]):
            raise ValueError("element is not constant")
        return self.coeffs[0]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: Element) -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"cannot combine elements over {self.modulus} and {other.modulus}"
            )

    def __add__(self, other: Element) -> Element:
        self._check(other)
        return Element(
            self.modulus, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: Element) -> Element:
        self._check(other)
        return Element(
            self.modulus, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> Element:
        return Element(self.modulus, tuple(-a for a in self.coeffs))

    def scale(self, q: Rational) -> Element:
        q = _to_fraction(q)
        return Element(self.modulus, tuple(q * a for a in self.coeffs))

    def __mul__(self, other) -> Element:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        da = _common_den(self.coeffs)
        db = _common_den(other.coeffs)
        va = [int(c * da) for c in self.coeffs]
        vb = [int(c * db) for c in other.coeffs]
        prod = [0] * (len(va) + len(vb) - 1)
        for i, a in enumerate(va):
            if a:
                for j, b in enumerate(vb):
                    if b:
                        prod[i + j] += a * b
        conv = {e: c for e, c in enumerate(prod) if c}
        folded = _fold_int(conv, self.modulus)
        den = da * db
        return Element(self.modulus, tuple(Fraction(c, den) for c in folded))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Element:
        if n < 0:
            return inverse(self) ** (-n)
        result = one(self.modulus)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __repr__(self) -> str:
        terms = []
        for e, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{e}" if e else str(c))
        body = " + ".join(terms) if terms else "0"
        return f"<{body} in {self.modulus.describe()}>"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        obj = {
            "N": self.modulus.N,
            "kind": self.modulus.kind,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }
        if self.modulus.kind == BINOMIAL_PLUS:
            obj["l"] = self.modulus.param
        return obj


def element_from_json(obj: Mapping) -> Element:
    m = Modulus(int(obj["N"]), str(obj["kind"]), int(obj.get("l", 0)))
    coeffs = tuple(Fraction(int(num), int(den)) for num, den in obj["coeffs"])
    if len(coeffs) != m.dim:
        raise ValueError(f"expected {m.dim} coefficients, got {len(coeffs)}")
    return Element(m, coeffs)


RawPoly = Union[Mapping[int, Rational], Sequence[Rational], Rational]


def reduce_poly(raw: RawPoly, m: Modulus) -> Element:
    """Reduce a raw polynomial in x into canonical form over ``m``.

    ``raw`` is an exponent->coefficient mapping (negative exponents allowed,
    read through x^(-k) = x^(N-k)), a coefficient sequence, or a bare
    rational constant.  Reduction is idempotent and a ring homomorphism.
    """
    if isinstance(raw, (int, Fraction)):
        raw = {0: raw}
    elif not isinstance(raw, Mapping):
        raw = {e: c for e, c in enumerate(raw)}
    fracs = {e: _to_fraction(c) for e, c in raw.items() if c}
    den = _common_den(fracs.values())
    ints = {e: int(c * den) for e, c in fracs.items()}
    folded = _fold_int(ints, m)
    return Element(m, tuple(Fraction(c, den) for c in folded))


def from_coeffs(m: Modulus, coeffs: Sequence[Rational]) -> Element:
    """Build an element from a full canonical coefficient vector."""
    if len(coeffs) != m.dim:
        raise ValueError(f"expected {m.dim} coefficients, got {len(coeffs)}")
    return Element(m, tuple(_to_fraction(c) for c in coeffs))


def zero(m: Modulus) -> Element:
    return Element(m, (Fraction(0),) * m.dim)


def one(m: Modulus) -> Element:
    return reduce_poly({0: 1}, m)


def const(m: Modulus, q: Rational) -> Element:
    return reduce_poly({0: q}, m)


def x_power(m: Modulus, e: int = 1) -> Element:
    """The monomial x^e reduced into ``m``."""
    return reduce_poly({e: 1}, m)


def geometric_sum(m: Modulus, length: int, step: int = 1) -> Element:
    """1 + x^step + x^(2*step) + ... with ``length`` terms."""
    acc: dict[int, Rational] = {}
    for j in range(length):
        e = j * step
        acc[e] = acc.get(e, 0) + 1
    return reduce_poly(acc, m)


def alternating_sum(m: Modulus, length: int) -> Element:
    """1 - x + x^2 - ... with ``length`` terms."""
    return reduce_poly({j: (-1) ** j for j in range(length)}, m)


# ---------------------------------------------------------------------------
# involution and eigenspaces


def involution(a: Element) -> Element:
    """The conjugation automorphism x -> x^(N-1).

    Only defined for the group and truncated rings (the CRT factors are not
    stable under it).  It is a ring automorphism of order at most 2.
    """
    m = a.modulus
    if m.kind not in (GROUP, TRUNCATED):
        raise UnsupportedModulus(f"involution not defined on {m.describe()}")
    n = m.N
    raw = {(n - e) % n: c for e, c in enumerate(a.coeffs) if c}
    return reduce_poly(raw, m)


def eigen_project(a: Element, sign: int) -> Element:
    """Projection of ``a`` onto the (+1)- or (-1)-eigenspace of the involution.

    eigen_project(a, +1) + eigen_project(a, -1) == a.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    conj = involution(a)
    half = Fraction(1, 2)
    if sign == 1:
        return (a + conj).scale(half)
    return (a - conj).scale(half)


def eigen_test(a: Element, sign: int) -> bool:
    """True when involution(a) == sign * a."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return involution(a) == (a if sign == 1 else -a)


def eval_minus_one(a: Element) -> Fraction:
    """Evaluate at x = -1; a ring homomorphism to Q, defined for N even.

    For odd N the ideal generator of the truncated ring does not vanish at
    -1, so the value would depend on the representative; that case raises
    :class:`OddOrderEvaluation`.
    """
    m = a.modulus
    if m.kind not in (GROUP, TRUNCATED):
        raise UnsupportedModulus(f"evaluation at -1 not defined on {m.describe()}")
    if m.N % 2 != 0:
        raise OddOrderEvaluation(f"x -> -1 is not well defined for odd N = {m.N}")
    return sum(
        (c if e % 2 == 0 else -c for e, c in enumerate(a.coeffs)), Fraction(0)
    )


def restrict(a: Element, n_prime: int) -> Element:
    """Restriction to the subgroup of order N' | N (the quotient x -> x).

    Lifts the canonical representative to Z[x], folds exponents mod N' and
    reduces into the same-kind ring over N'.  A ring homomorphism, transitive
    in N', and commuting with the involution.
    """
    m = a.modulus
    if m.kind not in (GROUP, TRUNCATED):
        raise UnsupportedModulus(f"restriction not defined on {m.describe()}")
    if n_prime < 2 or m.N % n_prime != 0:
        raise ValueError(f"{n_prime} does not divide N = {m.N}")
    target = Modulus(n_prime, m.kind)
    raw: dict[int, Fraction] = {}
    for e, c in enumerate(a.coeffs):
        if c:
            key = e % n_prime
            raw[key] = raw.get(key, Fraction(0)) + c
    return reduce_poly(raw, target)


def in_lattice_4r(a: Element, sign: int) -> bool:
    """Membership of ``a`` in the lattice 4 * (integral sign-eigenspace).

    True iff involution(a) == sign*a and a/4 has all-integer canonical
    coefficients.  Because the canonical monomials are a Z-basis of the
    integral lattice, this is an exact coefficient test.
    """
    if not eigen_test(a, sign):
        return False
    return all((c / 4).denominator == 1 for c in a.coeffs)


def _mul_matrix(a: Element) -> tuple[list[list[int]], int]:
    """(A, den): A / den is the matrix of multiplication by ``a`` in the
    canonical basis (columns a*x^j), with A an integer matrix."""
    m = a.modulus
    den = _common_den(a.coeffs)
    v = [int(c * den) for c in a.coeffs]
    cols = [_fold_int({i + j: c for i, c in enumerate(v) if c}, m) for j in range(m.dim)]
    return [[cols[j][i] for j in range(m.dim)] for i in range(m.dim)], den


def _match_one_minus_xk(a: Element) -> int | None:
    """Return k when a == 1 - x^k in its ring, else None."""
    m = a.modulus
    for k in range(1, m.N):
        if a == reduce_poly({0: 1, k: -1}, m):
            return k
    return None


def _match_geometric(a: Element) -> int | None:
    """Return k when a == 1 + x + ... + x^(k-1), else None."""
    m = a.modulus
    acc: dict[int, int] = {0: 1}
    for k in range(1, m.N):
        if a == reduce_poly(acc, m):
            return k
        acc[k] = 1
    return None


def inverse(a: Element) -> Element:
    """Multiplicative inverse of ``a``: mul(a, inverse(a)) == 1.

    Two closed forms are used when the input matches them in a group or
    truncated ring of order N:

      (1 - x^k)^(-1)              = -(1/N) * (1 + 2x^k + 3x^(2k) + ... + N x^((N-1)k))
      (1 + x + ... + x^(k-1))^(-1) = 1 + x^k + x^(2k) + ... + x^((r-1)k),
                                     r the least positive integer with r*k = 1 mod N

    (both requiring gcd(k, N) = 1); everything else falls back to solving
    the dim-by-dim linear system over Q by fraction-free elimination.
    Raises :class:`NotInvertible` with a zero-divisor witness when the
    element is not a unit.
    """
    m = a.modulus
    if a.is_zero():
        raise NotInvertible("zero is not invertible", witness=one(m))
    if m.kind in (GROUP, TRUNCATED):
        n = m.N
        k = _match_one_minus_xk(a)
        if k is not None and gcd(k, n) == 1:
            inv = reduce_poly({(j * k) % n: -Fraction(j + 1, n) for j in range(n)}, m)
            if a * inv == one(m):
                return inv
        k = _match_geometric(a)
        if k is not None and gcd(k, n) == 1:
            r = pow(k, -1, n)
            inv = geometric_sum(m, r, step=k)
            if a * inv == one(m):
                return inv
    rows, den = _mul_matrix(a)
    sol, null = solve_rational(rows, [den] + [0] * (m.dim - 1))
    if sol is None:
        witness = Element(m, tuple(null))
        raise NotInvertible(
            f"{a!r} is a zero divisor: witness {witness!r}", witness=witness
        )
    return Element(m, tuple(sol))


# ---------------------------------------------------------------------------
# CRT splitting of the rational truncated ring, N = 2^K * M
#
#   Q[x]/<1 + x + ... + x^(N-1)>
#     =  (+)  Q[x]/<1 + x^(2^l)>   for l = 0 .. K-1
#        (+)  Q[x]/<1 + x^(2^K) + ... + x^(2^K*(M-1))>   when M > 1
#
# coming from the factorization of the ideal generator into the binomials
# 1 + x^(2^l) times the odd part.  Dimensions add up: sum 2^l + 2^K(M-1) = N-1.


def crt_factors(N: int) -> list[Modulus]:
    """The factor moduli for the truncated ring of order N.

    For odd N (K = 0) no splitting is defined and the list degenerates to
    the ring itself, making split/combine the identity.
    """
    k, m = split_two_power(N)
    if k == 0:
        return [truncated(N)]
    factors = [binomial_plus(N, l) for l in range(k)]
    if m > 1:
        factors.append(odd_truncated(N))
    return factors


def crt_split(a: Element) -> list[Element]:
    """Project a truncated-ring element into every CRT factor."""
    if a.modulus.kind != TRUNCATED:
        raise UnsupportedModulus("crt_split expects a truncated-ring element")
    if a.modulus.N % 2 == 1:
        return [a]
    raw = {e: c for e, c in enumerate(a.coeffs)}
    return [reduce_poly(raw, f) for f in crt_factors(a.modulus.N)]


@lru_cache(maxsize=None)
def _crt_basis_matrix(N: int) -> list[list[int]]:
    """Rows: stacked factor images of each canonical monomial x^j (as columns)."""
    factors = crt_factors(N)
    dim = N - 1
    cols = []
    for j in range(dim):
        col: list[int] = []
        for f in factors:
            col.extend(_fold_int({j: 1}, f))
        cols.append(col)
    if any(len(c) != dim for c in cols):
        raise VerificationFailure("CRT factor dimensions do not add up to N-1")
    return [[cols[j][i] for j in range(dim)] for i in range(dim)]


def crt_combine(parts: Sequence[Element], N: int) -> Element:
    """Inverse of :func:`crt_split`: reassemble a truncated-ring element."""
    if N % 2 == 1:
        if len(parts) != 1 or parts[0].modulus != truncated(N):
            raise ValueError("odd N has the single identity factor")
        return parts[0]
    factors = crt_factors(N)
    if len(parts) != len(factors) or any(
        p.modulus != f for p, f in zip(parts, factors)
    ):
        raise ValueError("parts do not match the CRT factors of N")
    stacked = [c for p in parts for c in p.coeffs]
    den = _common_den(stacked)
    sol, _ = solve_rational(_crt_basis_matrix(N), [int(c * den) for c in stacked])
    if sol is None:
        raise VerificationFailure(f"the CRT basis matrix of N = {N} is singular")
    return Element(truncated(N), tuple(x / den for x in sol))
