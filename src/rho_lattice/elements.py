"""The distinguished units of the rational truncated ring.

Everything here lives in Q[x]/<1 + x + ... + x^(N-1)> for the cyclic group
of order N.  The basic element is

    f = (1 + x) / (1 - x),

an element of the (-1)-eigenspace of the conjugation involution, and its
twisted companions for every exponent k coprime to N:

    f_k = (1 + x^k) / (1 - x^k) = f * f'_k,

where the cofactor f'_k is always integral.  f_k is the cotangent sum
(1 + z)/(1 - z) = sum_{j=1}^{N-1} (1 - 2j/N) z^j at z = x^k (Rademacher
and Grosswald, Dedekind Sums, 1972).  f is a zero divisor whenever N is
even, but it acts invertibly on the (-1)-eigenspace: the quasi-inverse g
satisfies g * f * v = v for every v with involution(v) = -v.  For even N,
g is the same sum at z = -x.

``divide_by_f`` solves u = f * a for a in the 4-integral
(-1)-eigenlattice whenever u is 4-integral, (+1)-eigen and vanishes at
x = -1, which is exactly the obstruction for such a quotient to exist.
The quotient is g * u, the unique (-1)-eigen solution, and it is checked.

Every unit here is built and checked in O(N), with no ring product and no
``ring.inverse``: each satisfies a two-term identity, (1 - x^k) * f_k =
1 + x^k, (1 - x^k) * f'_k = (1 - x) * A and (1 + x) * g = 1 - x - 2e, which
a rotation of the lift modulo x^N - 1, a prefix sum along the orbit of x^k
or :func:`times_f` builds or verifies (von zur Gathen and Gerhard, Modern
Computer Algebra, section 8).  ``Element.__mul__`` by :func:`f_element`
and g * u stay the oracles that ``verify`` and the tests compare with.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import gcd
from operator import add

from . import ring
from .exceptions import PreconditionFailed, UnsupportedModulus, VerificationFailure
from .frozen import Frozen
from .ring import Element, _lift, _shift_add


# f, f_k, f'_k and g are each derived once per (N, k) or per N, by their own
# closed form and check, and shared: elements are immutable.


@lru_cache(maxsize=None)
def f_element(N: int) -> Element:
    """f = (1+x)/(1-x) in the rational truncated ring of order N."""
    return f_k_element(N, 1)


def times_f(y: Element) -> Element:
    """f * y for y in a truncated ring, in O(N) and with no product.

    (1 - x) * f * y = (1 + x) * y = w, a shift and an add of y's N - 1
    coefficients with no wrap.  Modulo x^N - 1, v = N * w - w(1) * (1 + x +
    ... + x^(N-1)) sums to 0, so v is (1 - x) times its prefix sums z; the
    all-ones term vanishes in the truncated ring, so f * y = z / N.  z's
    top entry is the sum of v, which is 0, so dropping it is the
    truncated ring's reduction.  ``Element.__mul__`` by :func:`f_element`
    is the oracle that verify and the tests compare this with.
    """
    m = y.modulus
    if m.kind != ring.TRUNCATED:
        raise UnsupportedModulus(f"times_f needs a truncated ring, not {m.describe()}")
    num = y.num
    w = [num[0], *map(add, num, num[1:]), num[-1]]
    total = sum(w)
    N = m.N
    z = list(accumulate([N * c - total for c in w]))
    z.pop()
    return ring.from_numerators(m, z, N * y.den)


def _alternating(N: int, start: int, stop: int) -> list[int]:
    """x^start - x^(start+1) + ... + (-1)^(stop-start-1) x^(stop-1) as a
    vector modulo x^N - 1, for stop <= N."""
    c = [0] * N
    c[start:stop] = [(-1) ** j for j in range(stop - start)]
    return c


def _truncate(c: list[int], den: int) -> Element:
    """The truncated-ring element c / den for a vector c modulo x^N - 1,
    N = len(c): the top coefficient folds into the rest (consumes c)."""
    m = ring.truncated(len(c))
    return ring.from_numerators(m, ring._from_cyclic(c, m), den)


def _cotangent_sum(N: int, k: int, sign: int) -> Element:
    """The cotangent sum (1 + z)/(1 - z) at z = sign * x^k, on integer
    numerators over N: sum_{j=1}^{N-1} sign^j * (N - 2j)/N * x^(jk), for
    0 < k < N coprime to N, so that each j has its own exponent jk mod N."""
    c = [0] * N
    for j in range(1, N):
        c[j * k % N] = sign**j * (N - 2 * j)
    return _truncate(c, N)


@lru_cache(maxsize=None)
def f_k_element(N: int, k: int) -> Element:
    """f_k = (1+x^k)/(1-x^k) = sum_{j=1}^{N-1} (N - 2j)/N * x^(jk) for k
    coprime to N: x^k generates the group, so (1 - x^k) times the sum is
    1 + x^k less (2/N)(1 + x + ... + x^(N-1)) = 0.  That identity is
    checked on the sum's lift modulo x^N - 1, less its rotation by k mod
    N; a sum that fails it raises :class:`VerificationFailure`.  Lies in
    the (-1)-eigenspace of the involution.
    """
    if gcd(k, N) != 1:
        raise ValueError(f"k = {k} must be coprime to N = {N}")
    k %= N
    fk = _cotangent_sum(N, k, 1)
    m = fk.modulus
    target = [0] * N
    target[0] = target[k] = fk.den
    if ring._from_cyclic(_shift_add(_lift(fk), k, -1), m) != ring._from_cyclic(target, m):
        raise VerificationFailure(f"closed-form f_k fails (1 - x^k) * f_k = 1 + x^k at N = {N}")
    return fk


@lru_cache(maxsize=None)
def f_prime_k_element(N: int, k: int) -> Element:
    """The integral cofactor f'_k with f_k = f * f'_k, for k coprime to N
    (taken mod N).

    f'_k = A / (1 + x + ... + x^(k-1)) for an alternating numerator A that
    depends on the parity of k: for odd k it is 1 - x + ... + x^(k-1), for
    even k (possible only when N is odd) the tail x^k - x^(k+1) + ... +
    x^(N-1).  As 1 - x^k = (1 - x)(1 + ... + x^(k-1)), f'_k solves
    (1 - x^k) * y = w for w = (1 - x) * A, a shift and a subtraction.
    Modulo x^N - 1, w(1) = 0, so the prefix sums of w along the orbit 0, k,
    2k, ... of x^k, which visits every exponent, solve it; the solution is
    unique up to the all-ones vector, which is 0 in the truncated ring.
    It is checked by f * f'_k = f_k (by :func:`times_f`) and, for even N,
    where f vanishes at x = -1 and so says nothing there, by f'_k(-1) = k:
    A(-1) = k and the denominator is 1 at x = -1 for odd k.  A cofactor
    that fails either raises :class:`VerificationFailure`.
    """
    if gcd(k, N) != 1:
        raise ValueError(f"k = {k} must be coprime to N = {N}")
    k %= N
    if k == 1:
        return ring.one(ring.truncated(N))
    w = _shift_add(_alternating(N, 0, k) if k % 2 else _alternating(N, k, N), 1, -1)
    orbit = [j * k % N for j in range(N)]
    y = [0] * N
    for e, s in zip(orbit, accumulate([w[e] for e in orbit])):
        y[e] = s
    fpk = _truncate(y, 1)
    if times_f(fpk) != f_k_element(N, k):
        raise VerificationFailure(f"closed-form f'_k fails f * f'_k = f_k at N = {N}, k = {k}")
    if N % 2 == 0 and ring.eval_minus_one(fpk) != k:
        raise VerificationFailure(f"closed-form f'_k fails f'_k(-1) = k at N = {N}, k = {k}")
    return fpk


@lru_cache(maxsize=None)
def g_element(N: int) -> Element:
    """The quasi-inverse of f: g*f*v = v for all v in the (-1)-eigenspace.

    For odd N, f is invertible and g is its inverse
    (1 - x) * (1 - x + ... + x^(N-1)) / 2, as (1 + x) times the alternating
    sum is 1 + x^N = 2; it is built by a shift and checked by
    ``times_f(g) == 1``.  For even N, g = sum_{j=1}^{N-1} (-1)^j (N - 2j)/N
    * x^j, the sum of f at z = -x, and (1 + x) * g = 1 - x - 2e for the
    idempotent e = (1/N) * sum_{j<N} (-x)^j of the factor x = -1, checked
    by a shift and an add.  There f and every (-1)-eigen v vanish, as the
    involution fixes x = -1, and g is 0 too (g(-1) = sum_j (N - 2j)/N = 0);
    elsewhere g = (1 - x)/(1 + x) = 1/f.  A g that fails its identity
    raises :class:`VerificationFailure`.  g lies in the (-1)-eigenspace,
    but is not unique with that property when N is even.
    """
    if N % 2:
        g = _truncate(_shift_add(_alternating(N, 0, N), 1, -1), 2)
        if times_f(g) != ring.one(g.modulus):
            raise VerificationFailure(f"closed-form g fails g * f = 1 at N = {N}")
        return g
    g = _cotangent_sum(N, 1, -1)
    # N * g.den times both sides, on integers
    lhs = [N * c for c in _shift_add(_lift(g), 1, 1)]
    rhs = [-2 * g.den * c for c in _alternating(N, 0, N)]
    rhs[0] += N * g.den
    rhs[1] -= N * g.den
    if ring._from_cyclic(lhs, g.modulus) != ring._from_cyclic(rhs, g.modulus):
        raise VerificationFailure(f"closed-form g fails (1 + x) * g = 1 - x - 2e at N = {N}")
    return g


class Catalog(Frozen):
    """The named elements f, f_k, f'_k and g for a fixed (N, k), built
    once per (N, k) and cached; ``special`` prints exactly these."""

    _fields = ("N", "k", "f", "f_k", "f_prime_k", "g")
    __slots__ = _fields

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
    (+1)-eigen, and u vanishes at x = -1.  The quotient is g * u for the
    quasi-inverse g, and it is the only one: g * f fixes the
    (-1)-eigenspace, so any (-1)-eigen a with f * a = u equals g * f * a
    = g * u.  It comes from prefix sums, with no product: modulo x^N - 1,
    (1 + x) * a = (1 - x) * u = w, and as w(-1) = 0 the alternating prefix
    sums y_i = w_i - y_(i-1) solve (1 + x) * y = w.  The solutions differ
    by multiples of sum_{j<N} (-x)^j, and a is the one pinned at
    a(-1) = 0, which every (-1)-eigen element satisfies: y less
    (y(-1)/N) * sum_{j<N} (-x)^j.  It is checked to satisfy f * a = u (by
    :func:`times_f`) and to lie in the lattice.
    """
    m = u.modulus
    N = m.N
    if m.kind != ring.TRUNCATED or N % 2:
        raise PreconditionFailed("divide_by_f needs a truncated ring of even order")
    if not ring.in_lattice_4r(u, 1):
        raise PreconditionFailed("u must be 4-integral and (+1)-eigen")
    if ring.eval_minus_one(u) != 0:
        raise PreconditionFailed("u must vanish at x = -1")
    y = list(accumulate(_shift_add(_lift(u), 1, -1), lambda s, c: c - s))
    pin = sum(y[::2]) - sum(y[1::2])
    a = _truncate([N * c - pin if j % 2 == 0 else N * c + pin for j, c in enumerate(y)], N * u.den)
    if times_f(a) != u:
        raise VerificationFailure("constructive division by f failed to verify")
    if not ring.in_lattice_4r(a, -1):
        raise VerificationFailure("quotient left the 4-integral (-1)-lattice")
    return a
