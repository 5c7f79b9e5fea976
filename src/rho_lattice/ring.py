"""Exact arithmetic in cyclic group rings and their truncated quotients.

All rings here are quotients of Z[x] (or Q[x]) by one of four ideals,
where N >= 2 is the order of the underlying cyclic group:

    group ring      Q[x] / <x^N - 1>
    truncated       Q[x] / <1 + x + ... + x^(N-1)>
    binomial_plus   Q[x] / <1 + x^(2^l)>          (CRT factor, 2^(l+1) | N)
    odd_truncated   Q[x] / <1 + y + ... + y^(M-1)>, y = x^(2^K), N = 2^K*M

An element is a coefficient vector of exact rationals in the canonical
monomial basis x^0, ..., x^(dim-1), where dim is N, N-1, 2^l and
2^K*(M-1) respectively.  It is stored as integer numerators over one
positive denominator in lowest terms, and all arithmetic runs on those
integers; ``Element.coeffs`` is a Fraction view built only on request (for
display, JSON and callers that want rationals).  Each ideal generator is
monic, so the canonical monomials form a Z-basis of the image of Z[x]: an
element lies in the integral lattice exactly when its denominator is 1.
That convention is what makes the 4*R lattice tests below pure integer
checks.

Negative exponents are interpreted through x^N = 1 (which holds in every
kind: x^N - 1 is a multiple of each ideal generator), so x^(-k) means
x^(N-k).

A product reduces inside one big integer.  Both factors are packed at
2^bits per coefficient (Kronecker substitution) and multiplied once, and
the product is reduced modulo 2^(bits*n) - 1 or 2^(bits*n) + 1, which is
reduction modulo x^n - 1 or x^n + 1 (the Schoenhage-Strassen wrap; n is N,
or 2^l for binomial_plus).  :func:`_convolve` says why the result is exact.
The truncated rings then fold their top coefficients; the conjugation
x -> x^(N-1) is a reversal of the coefficient vector.

Everything is immutable and every operation is a pure function; values
can be shared freely between threads or processes.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from .abelian import solve_rational
from .exceptions import (
    CAP_ENV_VAR,
    ModulusMismatch,
    NotInvertible,
    OddOrderEvaluation,
    UnsupportedModulus,
    VerificationFailure,
    WorkCapExceeded,
    work_cap,
)
from .frozen import Frozen

Rational = Union[int, Fraction]

GROUP = "group"
TRUNCATED = "truncated"
BINOMIAL_PLUS = "binomial_plus"
ODD_TRUNCATED = "odd_truncated"

# Modulus and Element store their fields through this directly rather than
# Frozen._assign: one or both are built on every ring operation.  surgery's
# NormalCoords and StructureElement do the same: verify builds one or two
# per kernel candidate it checks.
_set = object.__setattr__
_new = object.__new__


def split_two_power(n: int) -> tuple[int, int]:
    """Return (K, M) with n = 2^K * M and M odd."""
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k, n


class Modulus(Frozen):
    """Identifies one of the four quotient rings over a fixed N.

    ``param`` is the exponent l for binomial_plus and 0 otherwise.  ``dim``,
    the length of the canonical coefficient vector, is computed once here.
    Only :func:`modulus` builds one, once per ring (unpickling and copying
    go through it too), so moduli compare and hash by identity.
    """

    _fields = ("N", "kind", "param")
    __slots__ = _fields + ("dim",)

    def __init__(self, N: int, kind: str, param: int):
        if N < 2:
            raise ValueError(f"N must be >= 2, got {N}")
        if kind == GROUP:
            dim = N
        elif kind == TRUNCATED:
            dim = N - 1
        elif kind == BINOMIAL_PLUS:
            if not 0 <= param < split_two_power(N)[0]:  # 2^(l+1) | N, no power taken
                raise ValueError(f"binomial_plus({param}) requires 2^{param + 1} | N, l >= 0")
            dim = 2**param
        elif kind == ODD_TRUNCATED:
            k, m = split_two_power(N)
            if k == 0 or m == 1:
                raise ValueError("odd_truncated requires N = 2^K * M with K >= 1, M > 1")
            dim = 2**k * (m - 1)
        else:
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind != BINOMIAL_PLUS and param != 0:
            raise ValueError(f"{kind} takes no parameter l, got {param}")
        _set(self, "N", N)
        _set(self, "kind", kind)
        _set(self, "param", param)
        _set(self, "dim", dim)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self):
        return modulus, (self.N, self.kind, self.param)

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


@lru_cache(maxsize=None)
def modulus(N: int, kind: str, param: int) -> Modulus:
    """The one Modulus of a ring.  The cache keys on the arguments as
    passed, so every caller passes all three."""
    return Modulus(N, kind, param)


def group_ring(N: int) -> Modulus:
    return modulus(N, GROUP, 0)


def truncated(N: int) -> Modulus:
    return modulus(N, TRUNCATED, 0)


def binomial_plus(N: int, l: int) -> Modulus:
    return modulus(N, BINOMIAL_PLUS, l)


def odd_truncated(N: int) -> Modulus:
    return modulus(N, ODD_TRUNCATED, 0)


_INT_ONLY = frozenset({int})


def _check_exact(q: Rational) -> Rational:
    if isinstance(q, (int, Fraction)):
        return q
    raise TypeError(f"exact rational expected, got {type(q).__name__}")


def _over_common_den(values: Sequence[Rational]) -> tuple[list[int], int]:
    """(nums, den) with values == [n / den for n in nums], den the least
    common denominator.  Values whose class is exactly ``int`` are already
    over 1; a bool, float or Fraction among them takes the checked path."""
    if set(map(type, values)) <= _INT_ONLY:
        return list(values), 1
    for q in values:
        _check_exact(q)
    den = lcm(*(q.denominator for q in values))
    return [q.numerator * (den // q.denominator) for q in values], den


# ---------------------------------------------------------------------------
# reduction to canonical form
#
# Reduction and every ring operation work on integer numerator vectors; the
# denominator rides along and is cancelled once, when the result is built.


def _fold_int(terms: Iterable[tuple[int, int]], m: Modulus) -> list[int]:
    """Reduce sparse integer (exponent, coefficient) terms into canonical form."""
    n = m.N
    if m.kind == BINOMIAL_PLUS:
        # x^(2^l) = -1, period 2^(l+1) with sign flip
        w = 2**m.param
        out = [0] * w
        for e, c in terms:
            e %= 2 * w
            if e >= w:
                out[e - w] -= c
            else:
                out[e] += c
        return out
    out = [0] * n
    for e, c in terms:
        out[e % n] += c
    return _from_cyclic(out, m)


def _from_cyclic(out: list[int], m: Modulus) -> list[int]:
    """Reduce a vector of N coefficients, already reduced modulo x^N - 1,
    into the group, truncated or odd_truncated ring ``m``.

    The group ring returns ``out`` itself.  The truncated ring pops the top
    coefficient from ``out`` and subtracts it from the rest; the
    odd_truncated ring subtracts its top 2^K coefficients from every block
    of 2^K below them.
    """
    if m.kind == GROUP:
        return out
    if m.kind == TRUNCATED:
        # x^(N-1) = -(1 + x + ... + x^(N-2))
        top = out.pop()
        return [c - top for c in out] if top else out

    # odd_truncated: the generator 1 + y + ... + y^(M-1), y = x^(2^K), has
    # degree d = 2^K * (M - 1), and x^(d + r) = -x^r * (1 + y + ... + y^(M-2))
    # for r < 2^K.  Each top coefficient therefore lands only below d, so
    # result[i] = out[i] - out[d + i mod 2^K]: one block subtraction.
    d = m.dim
    return [c - t for c, t in zip(out, out[d:] * (d // (m.N - d)))]


# Signed machine-word typecodes, narrowest first, as (limit, code, bytes): a
# product coefficient fits ``code`` when its absolute value is below limit.
_WORDS = sorted(
    (1 << (8 * array(code).itemsize - 1), code, array(code).itemsize) for code in "bhiq"
)


@lru_cache(maxsize=None)
def _top_bits(length: int, code: str) -> int:
    """The integer whose ``length`` words of type ``code`` (in native byte
    order) each hold only their top bit."""
    limit = 1 << (8 * array(code).itemsize - 1)
    return int.from_bytes(array(code, [-limit] * length).tobytes(), sys.byteorder)


def _wrap(p: int, width: int, sign: int) -> int:
    """The residue of p modulo 2^width - sign (sign = 1 or -1) that
    :func:`_kronecker` unpacks: with p = lo + hi * 2^width and
    0 <= lo < 2^width, lo + sign * hi, less 2^width - sign when it is at
    least 2^(width - 1)."""
    full = 1 << width
    hi = p >> width
    s = (p & (full - 1)) + (hi if sign == 1 else -hi)
    if 2 * s >= full:
        s -= full - sign
    return s


# The longest product modulus that :func:`_convolve` multiplies classically.
# Best of 27 runs of 3,000 products of two random vectors of n - 1 entries
# in -9..9 (the shape of a truncated-ring product), on a 2-core Intel Xeon
# VM under CPython 3.11:
#
#   n          1    2    3    4    5    6    7    8    9    10   11   12
#   Kronecker  2.32 2.41 2.52 2.82 3.16 3.07 3.31 3.41 3.53 3.87 3.81 3.96 us
#   classical  0.34 0.37 0.41 0.93 1.50 2.02 2.78 3.27 4.06 3.86 6.29 7.50 us
#
# The packing's fixed cost dominates below n = 8; from there on the double
# loop's n^2 products catch up, and they grow faster than one big-integer
# multiplication.
_CLASSICAL_MAX = 7


def _convolve(a: Sequence[int], b: Sequence[int], n: int, sign: int) -> list[int]:
    """The n coefficients of a * b modulo x^n - sign (sign = 1 or -1), for
    integer polynomials a and b with len(a), len(b) <= n.

    Up to n = ``_CLASSICAL_MAX`` a plain double loop computes the product
    and wraps it as it goes: since len(b) <= n, the term a_i * b_j lands at
    i + j or, once past x^n, at i + j - n times sign.  Longer products are
    one Kronecker multiplication (:func:`_kronecker`), whose fixed cost the
    double loop does not pay (von zur Gathen and Gerhard, Modern Computer
    Algebra, section 8).
    """
    if n > _CLASSICAL_MAX:
        return _kronecker(a, b, n, sign)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            j = i
            for y in b:
                if j == n:
                    j, x = 0, sign * x
                out[j] += x * y
                j += 1
    return out


def _kronecker(a: Sequence[int], b: Sequence[int], n: int, sign: int) -> list[int]:
    """:func:`_convolve` by one big-integer multiplication.

    Kronecker substitution: both are evaluated at 2^bits, with bits wide
    enough to hold any result coefficient in two's complement, so one
    big-integer multiplication does the whole convolution.  Reducing
    modulo x^n - sign is then reducing the product P modulo 2^W - sign,
    W = bits * n (the Schoenhage-Strassen wrap): P = lo + hi * 2^W with
    0 <= lo < 2^W is congruent to S = lo + sign * hi, and S less 2^W - sign
    when S >= 2^(W-1) is the packed result D = sum d_k * 2^(bits*k).

    This is exact.  Coefficient d_k sums the products a_i * b_j with
    i + j = k mod n, at most min(len(a), len(b)) of them, so the bound
    max|a| * max|b| * min(len(a), len(b)) that sizes the words holds for
    the wrapped coefficients as it did for the unwrapped ones: each d_k
    fits its word, and |D| < 2^(W-1).  P has at most 2n - 1 digits of that
    size, so |hi| <= 2^(W-bits-1), and after the subtraction
    -2^(W-1) + sign <= S < 2^(W-1).  D and S are congruent and differ by
    less than 2^W - sign, so they are equal.

    When every result coefficient fits a signed machine word, bits is the
    width of the narrowest ``array`` typecode that holds it, and packing
    and unpacking run in C: the operands' two's-complement words are read
    as one unsigned integer, and flipping then subtracting the top bit of
    every word (T) makes it the signed evaluation.  D plus T with the top
    bits flipped back is the two's-complement words of the result.
    Otherwise the operands are packed with shifts and the signed digits
    peeled off the low end one at a time.
    """
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    if not bound:
        return [0] * n
    for limit, code, size in _WORDS:
        if bound < limit:
            order = sys.byteorder
            top_a = _top_bits(len(a), code)
            top_b = _top_bits(len(b), code)
            top = _top_bits(n, code)
            pa = (int.from_bytes(array(code, a), order) ^ top_a) - top_a
            pb = (int.from_bytes(array(code, b), order) ^ top_b) - top_b
            prod = _wrap(pa * pb, 8 * size * n, sign)
            words = ((prod + top) ^ top).to_bytes(n * size, order)
            return memoryview(words).cast(code).tolist()
    bits = bound.bit_length() + 1
    pa = pb = 0
    for c in reversed(a):
        pa = (pa << bits) + c
    for c in reversed(b):
        pb = (pb << bits) + c
    prod = _wrap(pa * pb, bits * n, sign)
    mask, half, full = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
    out = []
    for _ in range(n):
        low = prod & mask
        prod >>= bits
        if low >= half:
            low -= full
            prod += 1
        out.append(low)
    return out


def _bits(a: Element) -> int:
    """The bits of a's largest numerator plus those of its denominator."""
    return max(map(abs, a.num)).bit_length() + a.den.bit_length()


def _make(m: Modulus, num: Sequence[int], den: int = 1) -> Element:
    """The element num / den in canonical form: den > 0, gcd(den, *num) == 1
    (so zero has den == 1).  Every element is built here, unpickled ones
    too (``Element.__reduce__``); an integral num / 1 is already canonical
    and skips the gcd."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    el = _new(Element)
    _set(el, "modulus", m)
    _set(el, "num", tuple(num))
    _set(el, "den", den)
    return el


class Element(Frozen):
    """A ring element: canonical integer numerators over one denominator.

    The canonical coefficients are ``num[i] / den`` with ``den > 0`` and
    ``gcd(den, *num) == 1``, so comparing and hashing (modulus, num, den)
    is exact.  Do not construct directly; use :func:`reduce_poly`,
    :func:`from_coeffs` or the helpers below so the canonical-form
    invariant holds.
    """

    _fields = ("modulus", "num", "den")
    __slots__ = _fields

    def __init__(self, *args, **kwargs):
        raise TypeError("Element is built by ring._make, in canonical form, not directly")

    def __reduce__(self):
        return _make, (self.modulus, self.num, self.den)

    def __eq__(self, other):
        if other.__class__ is not Element:
            return NotImplemented
        return self.den == other.den and self.num == other.num and self.modulus is other.modulus

    def __hash__(self) -> int:
        return hash((self.modulus, self.num, self.den))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The canonical coefficients as Fractions (built on each use)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_integral(self) -> bool:
        """True when every canonical coefficient is an integer."""
        return self.den == 1

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: Element) -> None:
        if self.modulus is not other.modulus:
            raise ModulusMismatch(
                f"cannot combine elements over {self.modulus} and {other.modulus}"
            )

    def _aligned(self, other: Element) -> tuple[Sequence[int], Sequence[int], int]:
        """Both numerator vectors over the common denominator."""
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            return self.num, other.num, da
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return [fa * c for c in self.num], [fb * c for c in other.num], den

    # A foreign operand returns NotImplemented, so Python raises TypeError.

    def __add__(self, other: Element) -> Element:
        if other.__class__ is not Element:
            return NotImplemented
        va, vb, den = self._aligned(other)
        return _make(self.modulus, [a + b for a, b in zip(va, vb)], den)

    def __sub__(self, other: Element) -> Element:
        if other.__class__ is not Element:
            return NotImplemented
        va, vb, den = self._aligned(other)
        return _make(self.modulus, [a - b for a, b in zip(va, vb)], den)

    def __neg__(self) -> Element:
        return _make(self.modulus, [-c for c in self.num], self.den)

    def scale(self, q: Rational) -> Element:
        q = _check_exact(q)
        p = q.numerator
        return _make(self.modulus, [p * c for c in self.num], self.den * q.denominator)

    def __mul__(self, other) -> Element:
        if other.__class__ is not Element:
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        m = self.modulus
        if other.modulus is not m:
            self._check(other)
        if m.kind == BINOMIAL_PLUS:
            num = _convolve(self.num, other.num, m.dim, -1)
        else:
            num = _from_cyclic(_convolve(self.num, other.num, m.N, 1), m)
        return _make(m, num, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Element:
        """Square and multiply.  Before each product the bits of its
        coefficients are bounded by those of its operands (numerator plus
        denominator bits, added, plus the dimension's bits); past the work
        cap (``RHO_LATTICE_CAP``, default 2^22 bits) it raises
        :class:`WorkCapExceeded` instead of computing a number that large.
        A power of a monomial stays small and is never refused."""
        if n < 0:
            return inverse(self) ** (-n)
        cap = work_cap()
        dim_bits = self.modulus.dim.bit_length()

        def checked(a: Element, b: Element) -> Element:
            bits = _bits(a) + _bits(b) + dim_bits
            if bits > cap:
                raise WorkCapExceeded(
                    f"a power needs products of about {bits}-bit coefficients, "
                    f"past the cap {cap}; raise {CAP_ENV_VAR}"
                )
            return a * b

        result = one(self.modulus)
        base = self
        while n:
            if n & 1:
                result = checked(result, base)
            if n > 1:
                base = checked(base, base)
            n >>= 1
        return result

    def __repr__(self) -> str:
        # each coefficient in lowest terms, as str(Fraction(c, den)) writes it
        terms = []
        den = self.den
        for e, c in enumerate(self.num):
            if c:
                g = gcd(c, den)
                text = f"{c // g}/{den // g}" if g != den else str(c // g)
                terms.append(f"{text}*x^{e}" if e else text)
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


def strict_int(value, name: str) -> int:
    """``value`` when it is an int; anything else, a bool, a float or a
    string included, raises ValueError naming ``name``."""
    if type(value) is int:
        return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _coefficient_from_json(value) -> int:
    """A numerator or denominator: an integer, or the decimal-integer
    string :meth:`Element.to_json` writes."""
    if isinstance(value, str):
        digits = value.removeprefix("-")
        if digits.isascii() and digits.isdigit():
            return int(value)
        raise ValueError(f"a coefficient must be a decimal integer, got {value!r}")
    return strict_int(value, "a coefficient")


def element_from_json(obj: Mapping) -> Element:
    """Read :meth:`Element.to_json` output back.  Malformed input raises
    ValueError, KeyError or TypeError."""
    m = modulus(strict_int(obj["N"], "N"), str(obj["kind"]), strict_int(obj.get("l", 0), "l"))
    return from_coeffs(
        m,
        [
            Fraction(_coefficient_from_json(num), _coefficient_from_json(den))
            for num, den in obj["coeffs"]
        ],
    )


def reduce_poly(raw: Mapping[int, Rational], m: Modulus) -> Element:
    """Reduce a raw polynomial in x into canonical form over ``m``.

    ``raw`` maps exponents to coefficients (negative exponents allowed,
    read through x^(-k) = x^(N-k)).  Reduction is idempotent and a ring
    homomorphism.
    """
    exps = [e for e, c in raw.items() if c]
    nums, den = _over_common_den([raw[e] for e in exps])
    return _make(m, _fold_int(zip(exps, nums), m), den)


def from_coeffs(m: Modulus, coeffs: Sequence[Rational]) -> Element:
    """Build an element from a full canonical coefficient vector."""
    return from_numerators(m, *_over_common_den(coeffs))


def from_numerators(m: Modulus, num: Sequence[int], den: int = 1) -> Element:
    """Build the element with canonical coefficients num[i] / den (den > 0)."""
    if len(num) != m.dim:
        raise ValueError(f"expected {m.dim} coefficients, got {len(num)}")
    return _make(m, num, den)


# Elements are immutable, so each ring shares one zero and one one.
@lru_cache(maxsize=None)
def zero(m: Modulus) -> Element:
    return _make(m, [0] * m.dim)


@lru_cache(maxsize=None)
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


# ---------------------------------------------------------------------------
# involution and eigenspaces


def _require_conjugable(m: Modulus, what: str) -> None:
    """Raise UnsupportedModulus unless ``m`` is a group or truncated ring,
    the rings stable under x -> x^(N-1)."""
    if m.kind not in (GROUP, TRUNCATED):
        raise UnsupportedModulus(f"{what} not defined on {m.describe()}")


def _conjugate(a: Element) -> list[int]:
    """The numerators of involution(a), over a.den."""
    m = a.modulus
    _require_conjugable(m, "involution")
    # x^e -> x^(N-e): reverse all but the constant term; in the truncated
    # ring x^1 lands on x^(N-1), which reduces
    num = a.num
    if m.kind == GROUP:
        return [num[0], *num[:0:-1]]
    return _from_cyclic([num[0], 0, *num[:0:-1]], m)


def involution(a: Element) -> Element:
    """The conjugation automorphism x -> x^(N-1).

    Only defined for the group and truncated rings (the CRT factors are not
    stable under it).  It is a ring automorphism of order at most 2.
    """
    return _make(a.modulus, _conjugate(a), a.den)


def eigen_project(a: Element, sign: int) -> Element:
    """Projection of ``a`` onto the (+1)- or (-1)-eigenspace of the involution:
    (a + sign * involution(a)) / 2, built as one element.

    eigen_project(a, +1) + eigen_project(a, -1) == a.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    conj = _conjugate(a)
    if sign == 1:
        num = [c + d for c, d in zip(a.num, conj)]
    else:
        num = [c - d for c, d in zip(a.num, conj)]
    return _make(a.modulus, num, 2 * a.den)


def eigen_test(a: Element, sign: int) -> bool:
    """True when involution(a) == sign * a.

    Compared on numerators alone: the involution's integer matrix squares
    to the identity, so it keeps the content of a.num and involution(a)
    has the canonical denominator a.den.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _conjugate(a) == (list(a.num) if sign == 1 else [-c for c in a.num])


def eval_minus_one(a: Element) -> Fraction:
    """Evaluate at x = -1; a ring homomorphism to Q, defined for N even.

    For odd N the ideal generator of the truncated ring does not vanish at
    -1, so the value would depend on the representative; that case raises
    :class:`OddOrderEvaluation`.
    """
    m = a.modulus
    _require_conjugable(m, "evaluation at -1")
    if m.N % 2 != 0:
        raise OddOrderEvaluation(f"x -> -1 is not well defined for odd N = {m.N}")
    return Fraction(sum(a.num[::2]) - sum(a.num[1::2]), a.den)


def restrict(a: Element, n_prime: int) -> Element:
    """Restriction to the subgroup of order N' | N (the quotient x -> x).

    Lifts the canonical representative to Z[x], folds exponents mod N' and
    reduces into the same-kind ring over N'.  A ring homomorphism, transitive
    in N', and commuting with the involution.
    """
    m = a.modulus
    _require_conjugable(m, "restriction")
    if n_prime < 2 or m.N % n_prime != 0:
        raise ValueError(f"{n_prime} does not divide N = {m.N}")
    target = (group_ring if m.kind == GROUP else truncated)(n_prime)
    return _make(target, _fold_int(enumerate(a.num), target), a.den)


def is_4_integral(a: Element) -> bool:
    """True when a/4 has all-integer canonical coefficients."""
    return a.den == 1 and all(c % 4 == 0 for c in a.num)


def in_lattice_4r(a: Element, sign: int) -> bool:
    """Membership of ``a`` in the lattice 4 * (integral sign-eigenspace).

    True iff involution(a) == sign*a and a/4 has all-integer canonical
    coefficients.  Because the canonical monomials are a Z-basis of the
    integral lattice, this is an exact coefficient test; the cheaper
    4-integrality runs first.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _require_conjugable(a.modulus, "involution")
    return is_4_integral(a) and eigen_test(a, sign)


def _mul_matrix(a: Element) -> list[list[int]]:
    """The integer matrix A with A / a.den the matrix of multiplication by
    ``a`` in the canonical basis (columns a*x^j)."""
    m = a.modulus
    cols = [_fold_int(enumerate(a.num, j), m) for j in range(m.dim)]
    return [[cols[j][i] for j in range(m.dim)] for i in range(m.dim)]


def _divmod_monic(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """(q, r) with a = q * b + r and len(r) = deg b, for integer
    polynomials (lowest coefficient first) and monic b."""
    r, k = list(a), len(b) - 1
    q = [0] * max(len(r) - k, 0)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i in reversed(range(len(q))):
        c = q[i] = r[i + k]
        if c:
            for j, y in terms:
                r[i + j] -= c * y
    return q, r[:k]


def _divide_exactly(p: Sequence[int], orders: Iterable[int], what: str) -> list[int]:
    """The integer polynomial ``p`` divided by Phi_d for each d in
    ``orders``; a remainder raises :class:`VerificationFailure`."""
    q = list(p)
    for d in orders:
        q, r = _divmod_monic(q, _cyclotomic(d))
        if any(r):
            raise VerificationFailure(f"Phi_{d} does not divide {what}")
    return q


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """The integer coefficients of Phi_n, lowest first: x^n - 1 divided
    exactly by Phi_d for every proper divisor d of n."""
    divisors = [d for d in range(1, n) if n % d == 0]
    return tuple(_divide_exactly([-1] + [0] * (n - 1) + [1], divisors, f"x^{n} - 1"))


@lru_cache(maxsize=None)
def _cyclotomic_orders(m: Modulus) -> tuple[int, ...]:
    """The d with Phi_d | P, P the ideal generator of ``m``: P is their
    product, and each Phi_d is irreducible over Q."""
    if m.kind == BINOMIAL_PLUS:
        return (2 ** (m.param + 1),)
    divisors = [d for d in range(1, m.N + 1) if m.N % d == 0]
    if m.kind == GROUP:
        return tuple(divisors)
    if m.kind == TRUNCATED:
        return tuple(divisors[1:])
    top = 2 ** split_two_power(m.N)[0]
    return tuple(d for d in divisors if top % d)


def _cyclotomic_divides(d: int, num: Sequence[int]) -> bool:
    """Phi_d | num: num folded modulo x^d - 1, then reduced by Phi_d."""
    folded = [sum(num[i::d]) for i in range(d)]
    return not any(_divmod_monic(folded, _cyclotomic(d))[1])


@lru_cache(maxsize=None)
def _ideal_generator(m: Modulus) -> tuple[int, ...]:
    """The integer coefficients of P, lowest first: x^N - 1 divided
    exactly by the Phi_d that P leaves out."""
    kept = _cyclotomic_orders(m)
    left_out = [d for d in range(1, m.N + 1) if m.N % d == 0 and d not in kept]
    return tuple(_divide_exactly([-1] + [0] * (m.N - 1) + [1], left_out, f"x^{m.N} - 1"))


def _zero_divisor_witness(a: Element) -> Element | None:
    """P / gcd(a, P) when some Phi_d in P divides ``a``: P divided exactly
    by those Phi_d, which leaves the product of the others, of degree
    below deg P = dim.  None when ``a`` is a unit."""
    m = a.modulus
    divides = [d for d in _cyclotomic_orders(m) if _cyclotomic_divides(d, a.num)]
    if not divides:
        return None
    q = _divide_exactly(_ideal_generator(m), divides, "P")
    return _make(m, q + [0] * (m.dim - len(q)))


def _closed_form_inverse(a: Element) -> Element | None:
    """:func:`inverse`'s closed form when ``a`` has one of its two shapes
    with gcd(k, N) = 1, read off the canonical numerators in O(N), else
    None.  1 - x^k is 1 at x^0 and -1 at x^k for k <= N - 2, and
    2 + x + ... + x^(N-2) for k = N - 1; 1 + ... + x^(k-1) is k ones."""
    m = a.modulus
    if m.kind != TRUNCATED or a.den != 1:
        return None
    n, num = m.N, a.num
    k = num.count(1)
    if num[0] == 2 and k == n - 2:
        k, geometric = n - 1, False
    elif num[0] == 1 and num.count(0) == n - 3 and -1 in num:
        k, geometric = num.index(-1), False
    elif not any(num[k:]):
        geometric = True
    else:
        return None
    if gcd(k, n) != 1:
        return None
    # the exponents j * k mod n are distinct for j < n, as gcd(k, n) = 1
    c = [0] * n
    if geometric:
        for j in range(pow(k, -1, n)):
            c[j * k % n] = 1
        return _make(m, _from_cyclic(c, m))
    for j in range(n):
        c[j * k % n] = -(j + 1)
    return _make(m, _from_cyclic(c, m), n)


def inverse(a: Element) -> Element:
    """Multiplicative inverse of ``a``: mul(a, inverse(a)) == 1.

    Two closed forms are used when the input has their shape in the
    truncated ring of order N (:func:`_closed_form_inverse`):

      (1 - x^k)^(-1)              = -(1/N) * (1 + 2x^k + 3x^(2k) + ... + N x^((N-1)k))
      (1 + x + ... + x^(k-1))^(-1) = 1 + x^k + x^(2k) + ... + x^((r-1)k),
                                     r the least positive integer with r*k = 1 mod N

    (both requiring gcd(k, N) = 1); a closed form that fails its check
    raises :class:`VerificationFailure`.

    Otherwise units and zero divisors are told apart before any
    elimination.  The ideal generator P is a squarefree product of
    cyclotomic polynomials Phi_d (:func:`_cyclotomic_orders`), each
    irreducible over Q, so ``a`` is a zero divisor exactly when some Phi_d
    in P divides it.  Then :class:`NotInvertible` is raised with the
    witness P / gcd(a, P): P divided exactly by the Phi_d that divide
    ``a``, which is the product of the other Phi_d, checked by
    a * witness = 0.  Zero is refused the same way: every Phi_d divides
    it, and its witness is 1.  A unit, including every group-ring unit, is
    solved as a dim-by-dim linear system over Q by fraction-free
    elimination; a system that turns out singular raises
    :class:`VerificationFailure`, since the two derivations disagree.
    """
    m = a.modulus
    inv = _closed_form_inverse(a)
    if inv is not None:
        if a * inv != one(m):
            raise VerificationFailure(f"closed-form inverse of {a!r} fails its check")
        return inv
    witness = _zero_divisor_witness(a)
    if witness is not None:
        if not (a * witness).is_zero():
            raise VerificationFailure(f"witness {witness!r} of {a!r} fails its check")
        raise NotInvertible(
            f"{a!r} is a zero divisor: witness {witness!r}", witness=witness
        )
    sol, _, den = solve_rational(_mul_matrix(a), [a.den] + [0] * (m.dim - 1))
    if sol is None:
        raise VerificationFailure(f"{a!r} has no factor Phi_d but a singular system")
    return _make(m, sol, den)


# ---------------------------------------------------------------------------
# CRT splitting of the rational truncated ring, N = 2^K * M
#
#   Q[x]/<1 + x + ... + x^(N-1)>
#     =  (+)  Q[x]/<1 + x^(2^l)>   for l = 0 .. K-1
#        (+)  Q[x]/<1 + x^(2^K) + ... + x^(2^K*(M-1))>   when M > 1
#
# coming from the factorization of the ideal generator into the binomials
# 1 + x^(2^l) times the odd part.  Dimensions add up: sum 2^l + 2^K(M-1) = N-1.


@lru_cache(maxsize=None)
def crt_factors(N: int) -> tuple[Modulus, ...]:
    """The factor moduli for the truncated ring of even order N, built once
    per N.  Odd N has no splitting and raises :class:`UnsupportedModulus`."""
    k, m = split_two_power(N)
    if k == 0:
        raise UnsupportedModulus(f"no CRT splitting for odd N = {N}")
    factors = tuple(binomial_plus(N, l) for l in range(k))
    if m > 1:
        factors += (odd_truncated(N),)
    return factors


def crt_split(a: Element) -> list[Element]:
    """Project a truncated-ring element into every CRT factor.

    Reduction down the tower x^(2n) - 1 = (x^n - 1)(x^n + 1), the mirror of
    :func:`crt_combine`'s climb.  The numerators, padded with one 0 to the
    N coefficients of a polynomial modulo x^N - 1, reduce modulo
    x^(2^K) - 1 by summing their M blocks of length 2^K.  A residue v
    modulo x^(2h) - 1 splits into lo = v[:h] and hi = v[h:]: lo - hi is its
    residue modulo 1 + x^h and lo + hi its residue modulo x^h - 1, which
    the next step halves again, for h = 2^(K-1), ..., 1.  The odd factor
    reduces the padded vector directly (:func:`_from_cyclic`).
    """
    m = a.modulus
    if m.kind != TRUNCATED:
        raise UnsupportedModulus("crt_split expects a truncated-ring element")
    N = m.N
    factors = crt_factors(N)
    num = [*a.num, 0]
    h = step = N & -N  # 2^K
    v = [sum(block) for block in zip(*(num[j : j + h] for j in range(0, N, h)))]
    parts = []
    while h > 1:
        h //= 2
        lo, hi = v[:h], v[h:]
        parts.append([x - y for x, y in zip(lo, hi)])
        v = [x + y for x, y in zip(lo, hi)]
    parts.reverse()
    if step != N:  # M > 1
        parts.append(_from_cyclic(num, factors[-1]))
    return [_make(f, p, a.den) for f, p in zip(factors, parts)]


def crt_combine(parts: Sequence[Element], N: int) -> Element:
    """Inverse of :func:`crt_split`: reassemble a truncated-ring element of
    even order N.

    Garner recombination up the tower x^(2n) - 1 = (x^n - 1)(x^n + 1), with
    G_n = 1 + x + ... + x^(n-1): residues u modulo G_n and v modulo the next
    factor F lift to u + G_n * ((v - u) * G_n^(-1) mod F) modulo G_n * F.
    The inverses have closed forms: G_n^(-1) = (1 - x)/2 modulo 1 + x^n,
    and, for n = 2^K, y = x^n and S = 1 + 2y + ... + M y^(M-1),
    G_n^(-1) = (x - 1) * S / M modulo 1 + y + ... + y^(M-1).  Times G_n
    they give the idempotents e = (1 - x^n)/2 and e = 1 - (1 + y + ... +
    y^(M-1))/M, so each step is u + (v - u) * e reduced modulo G_n * F (von
    zur Gathen and Gerhard, Modern Computer Algebra, section 5.6).  The
    numerators stay integers over one denominator.  G_n * F is G_(n*s),
    with s = 2 at a binomial step and s = M at the odd one, and the step's
    product has n*s coefficients (the odd step's after wrapping modulo
    x^N - 1), so reducing it is one subtraction of the top coefficient.
    """
    factors = crt_factors(N)
    if tuple(p.modulus for p in parts) != factors:
        raise ValueError("parts do not match the CRT factors of N")
    den = lcm(*(p.den for p in parts))
    u: list[int] = []
    for p in parts:
        n = len(u) + 1  # u / den is the residue modulo G_n of the parts so far
        d = [c * (den // p.den) - a for c, a in zip(p.num, u + [0] * len(p.num))]
        if p.modulus.kind == BINOMIAL_PLUS:  # e = (1 - x^n) / 2
            scale, prod = 2, d + [-c for c in d]
        else:  # e = 1 - (1 + y + ... + y^(M-1)) / M
            scale = N // n
            prod = _convolve(d, [scale - 1] + ([0] * (n - 1) + [-1]) * (scale - 1), N, 1)
        for i, a in enumerate(u):
            prod[i] += scale * a
        u = _from_cyclic(prod, truncated(n * scale))
        den *= scale
    return _make(truncated(N), u, den)
