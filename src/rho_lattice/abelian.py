"""Finite abelian groups via integer matrices.

Groups are presented by their invariant-factor list in divisibility order
(d_1 | d_2 | ...), each factor > 1.  Two presentations are isomorphic
exactly when their canonical factor lists coincide, so ``==`` on
:class:`FinAb` is the isomorphism test.

The workhorse is a modular Hermite basis over Z (Domich, Kannan and
Trotter, Math. Oper. Res. 12, 1987), the package's one integer normal
form.  Every subgroup question of the package (its order, its structure,
membership, the coefficients of a member, its members in order) goes
through one value, :class:`Span`, which holds one such basis, and the
solutions of a linear congruence come from :func:`annihilator`.  Linear
algebra over Q (the solution or a kernel vector of a square system) goes
through one fraction-free Gauss-Jordan eliminator on integer matrices.
"""

from __future__ import annotations

from math import lcm, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

from .frozen import Frozen

IntMatrix = list[list[int]]


def fraction_free_rref(A: Sequence[Sequence[int]]) -> tuple[IntMatrix, list[int]]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of an integer matrix.

    Returns (R, pivots).  R is row equivalent to A; every pivot entry of R
    equals the last pivot p and the pivot columns are zero elsewhere, so
    R / p is the reduced row echelon form of A over Q.  ``pivots`` lists
    the pivot columns in order.  A pivot row whose pivot is negative is
    negated first, so every pivot is positive and a row with nothing to
    clear is left alone when the pivot repeats (the +-1 pivots of a sparse
    sign matrix); p is then |det A| for a square A of full rank.  Each
    division by the previous pivot is exact (Bareiss, "Sylvester's
    identity and multistep integer-preserving Gaussian elimination", Math.
    Comp. 22, 1968), so the entries stay integers bounded by minors of A.
    """
    a = [list(row) for row in A]
    n = len(a)
    m = len(a[0]) if n else 0
    pivots: list[int] = []
    prev = 1
    for col in range(m):
        r = len(pivots)
        if r == n:
            break
        p = next((i for i in range(r, n) if a[i][col]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
        top = a[r]
        piv = top[col]
        if piv < 0:
            top = a[r] = [-x for x in top]
            piv = -piv
        for i in range(n):
            f = a[i][col]
            if i == r or (f == 0 and piv == prev):
                continue
            a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = piv
        pivots.append(col)
    return a, pivots


def solve_rational(
    A: Sequence[Sequence[int]], b: Sequence[int]
) -> tuple[list[int] | None, list[int] | None, int]:
    """Solve A x = b over Q for a square integer matrix A and integer
    vector b, in integers over one denominator.

    Returns (x, None, p) when A has full rank, with x / p the unique
    solution, and (None, v, p) when A has a nonzero kernel, with v / p the
    kernel vector that is 1 at the first free column and 0 at the other
    free columns.  p > 0 is the last pivot of the elimination of (A | b),
    which every pivot entry equals, or 1 when (A | b) is zero.
    Raises ``ValueError`` when A is not square.
    """
    m = len(A[0])
    if len(A) != m:
        raise ValueError(f"solve_rational needs a square matrix, got {len(A)} by {m}")
    r, pivots = fraction_free_rref([list(row) + [c] for row, c in zip(A, b)])
    den = r[len(pivots) - 1][pivots[-1]] if pivots else 1
    rows = [(i, col) for i, col in enumerate(pivots) if col < m]
    free = next((c for c in range(m) if c not in pivots), None)
    if free is not None:
        null = [0] * m
        null[free] = den
        for i, col in rows:
            null[col] = -r[i][free]
        return None, null, den
    return [r[i][m] for i, _ in rows], None, den


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b), for a, b > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _merge_vector(h: IntMatrix, vec: Sequence[int], mods: Sequence[int]) -> None:
    """Merge one vector into the upper-triangular basis h, in place: one
    unimodular 2x2 step (extended gcd) per column where it is not yet a
    multiple of the row."""
    v = [x % d for x, d in zip(vec, mods)]
    for i, row in enumerate(h):
        a, b = row[i], v[i]
        if b % a:
            g, x, y = _xgcd(a, b)
            # [[x, y], [-b/g, a/g]] has determinant 1; g < a <= mods[i]
            h[i] = [(x * r + y * s) % d for r, s, d in zip(row, v, mods)]
            v = [(a // g * s - b // g * r) % d for r, s, d in zip(row, v, mods)]
        elif b:
            q = b // a
            v = [(x - q * y) % d for x, y, d in zip(v, row, mods)]


def hermite_basis(mods: Sequence[int], vecs: Iterable[Sequence[int]]) -> IntMatrix:
    """An upper-triangular basis of the lattice of Z^n spanned by ``vecs``
    and the mods[i] * e_i: row i is zero before column i and h_ii > 0.

    The first 32 vectors are merged into the rows from the left, one by
    one (:func:`_merge_vector`).  The lattice contains every mods[j] * e_j,
    and a lattice vector that is zero before column j is a combination of
    rows j, j+1, ...; so entries past the current column may be reduced
    modulo mods (Domich, Kannan and Trotter, Math. Oper. Res. 12, 1987),
    and they stay below them.  The rows need not be reduced above the
    diagonal.

    The rest are tested for membership together, row by row, one pass per
    growth step: only the first vector outside the lattice is merged, and
    the test resumes after it.  Merging a member leaves h as it is, so the
    basis is the one that merging every vector in turn gives, entry for
    entry, and a lattice that stops growing early costs one pass.
    """
    h = [[d if i == j else 0 for j in range(len(mods))] for i, d in enumerate(mods)]
    vecs = list(vecs)
    for vec in vecs[:32]:
        _merge_vector(h, vec, mods)
    rest = vecs[32:]
    while rest:
        # cols[j]: entry j of each vector still a candidate member, reduced
        cols = [[x % d for x in col] for col, d in zip(zip(*rest), mods)]
        first = len(rest)
        for i, row in enumerate(h):
            a = row[i]
            col = cols[i][:first]
            first = next((t for t, x in enumerate(col) if x % a), first)
            q = [x // a for x in col[:first]]
            for j in range(i + 1, len(row)):
                if row[j]:
                    cols[j] = [(x - s * row[j]) % mods[j] for x, s in zip(cols[j], q)]
        if first == len(rest):
            break
        _merge_vector(h, rest[first], mods)
        rest = rest[first + 1 :]
    return h


def annihilator(rows: Sequence[Sequence[int]], m: int) -> IntMatrix:
    """Generators of {t in Z^c : sum_i t_i * rows[i] = 0 mod m}.

    The condition asks t . w = 0 mod m for every column w of ``rows``, so
    for every w in the lattice L they span with m*Z^c, that is H t = 0 mod
    m for its c x c Hermite basis H.  The solutions are the lattice
    X Z^c with X = m * H^-1, which is integral because m*e_i lies in L,
    and upper triangular like H.  Its columns are the generators, from one
    back substitution of H X = m I with exact divisions (Cohen, A Course
    in Computational Algebraic Number Theory, section 2.4).
    """
    c = len(rows)
    h = hermite_basis([m] * c, zip(*rows))
    cols = []
    for j in range(c):
        x = [0] * c
        x[j] = m // h[j][j]
        for i in range(j - 1, -1, -1):
            x[i] = -sum(map(mul, h[i][i + 1 : j + 1], x[i + 1 : j + 1])) // h[i][i]
        cols.append(x)
    return cols


# ---------------------------------------------------------------------------
# presentations


def _primary_parts(d: int) -> dict[int, int]:
    """Prime -> exponent factorization of d > 1."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= d:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1 if p == 2 else 2
    if d > 1:
        out[d] = out.get(d, 0) + 1
    return out


def _canonical_factors(orders: Sequence[int]) -> tuple[int, ...]:
    """Invariant factors (divisibility order, 1s dropped)."""
    by_prime: dict[int, list[int]] = {}
    for d in orders:
        if d < 1:
            raise ValueError(f"cyclic orders must be at least 1, got {d}")
        if d > 1:
            for p, e in _primary_parts(d).items():
                by_prime.setdefault(p, []).append(e)
    depth = max((len(v) for v in by_prime.values()), default=0)
    chain = [1] * depth
    for p, exps in by_prime.items():
        exps.sort(reverse=True)
        for idx, e in enumerate(exps):
            chain[idx] *= p**e
    chain.reverse()  # ascending divisibility
    return tuple(chain)


class FinAb(Frozen):
    """A finite abelian group in canonical invariant-factor form.

    ``FinAb(factors)`` checks that the factors are canonical;
    :meth:`from_orders` canonicalizes any cyclic orders, once.
    """

    _fields = ("factors",)
    __slots__ = _fields

    def __init__(self, factors: tuple[int, ...]):
        if factors != _canonical_factors(factors):
            raise ValueError(f"{factors} is not in canonical form")
        self._assign(factors=factors)

    @staticmethod
    def from_orders(orders: Sequence[int]) -> FinAb:
        group = object.__new__(FinAb)
        group._assign(factors=_canonical_factors(orders))
        return group

    def order(self) -> int:
        n = 1
        for d in self.factors:
            n *= d
        return n

    def direct_sum(self, other: FinAb) -> FinAb:
        return FinAb.from_orders(list(self.factors) + list(other.factors))


TRIVIAL = FinAb(())


class Span(Frozen):
    """The subgroup of Z/mods[0] + Z/mods[1] + ... spanned by ``gens``.

    ``mods`` are positive cyclic orders fixing the coordinate system and
    each generator is a coordinate vector, stored reduced modulo them.  The
    span is held as one Hermite basis ``h`` (:func:`hermite_basis`, kept
    as a tuple of row tuples, so a cached span cannot be changed) of the
    lattice of pairs (v, z) with v = sum_j z_j * gens[j] modulo mods: the
    rows (gens[j], e_j), the relations mods[i] * e_i and E * e_j in the
    coefficient columns, E = lcm(mods), which the pairs already contain.
    The rows past n = len(mods) are zero in the first n columns, so the
    first n rows, cut to those columns, are a triangular basis of the
    span's lattice in Z^n, and the span has ``order`` prod(mods) /
    prod(h_ii, i < n).  Both are derived from ``mods`` and ``gens``, so
    equality, hash and repr ignore them.
    """

    _fields = ("mods", "gens")
    __slots__ = _fields + ("h", "order")

    def __init__(self, mods: Sequence[int], gens: Sequence[Sequence[int]]):
        if any(d <= 0 for d in mods):
            raise ValueError("ambient group must be finite")
        n, k = len(mods), len(gens)
        if any(len(vec) != n for vec in gens):
            raise ValueError(f"coordinate vector of length {n} expected")
        gens = tuple(tuple(x % d for x, d in zip(vec, mods)) for vec in gens)
        h = tuple(map(tuple, hermite_basis(
            list(mods) + [lcm(*mods)] * k,
            [g + tuple(int(i == j) for i in range(k)) for j, g in enumerate(gens)],
        )))
        order = prod(mods) // prod(h[i][i] for i in range(n))
        self._assign(mods=tuple(mods), gens=gens, h=h, order=order)

    def solve(self, vec: Sequence[int]) -> list[int] | None:
        """Integer coefficients z with sum z_j * gens[j] = vec modulo mods,
        or None when ``vec`` lies outside the span.  The first n rows of h
        reduce (vec, 0) column by column to (0, -z), or find a column that
        no row clears."""
        n = len(self.mods)
        w = list(vec) + [0] * len(self.gens)
        for i, row in enumerate(self.h[:n]):
            q, r = divmod(w[i], row[i])
            if r:
                return None
            w = [a - q * b for a, b in zip(w, row)]
        return [-a for a in w[n:]]

    def contains(self, vec: Sequence[int]) -> bool:
        """Whether ``vec`` lies in the span."""
        return self.solve(vec) is not None

    def group(self) -> FinAb:
        """The span as a finite abelian group.

        For a prime p, |p^j S| / |p^(j+1) S| is p to the number r_j of
        cyclic p-factors of S of order above p^j, and each |p^j S| is one
        Hermite determinant: the lattice of p^(j+1) S is spanned by p times
        the basis of p^j S's lattice and the mods[i] * e_i.  The i-th largest
        p-factor then has order p to the number of j with r_j >= i.
        """
        mods, n = self.mods, len(self.mods)
        orders = []
        for p in _primary_parts(self.order):
            ranks, size, h = [], self.order, self.h[:n]
            while size % p == 0:
                h = hermite_basis(mods, [[p * x for x in row[:n]] for row in h])
                smaller = prod(mods) // prod(row[i] for i, row in enumerate(h))
                ranks.append(_primary_parts(size // smaller)[p])
                size = smaller
            orders += [p ** sum(r >= i for r in ranks) for i in range(1, ranks[0] + 1)]
        return FinAb.from_orders(orders)

    def elements(self) -> Iterator[tuple[int, ...]]:
        """The members of the span, lazily, in lexicographic order.

        They are the vectors of the lattice spanned by the gens and the
        mods[i] * e_i that lie in the box [0, mods).  Row i < n of h, cut
        to the first n columns, is zero before column i, so once the
        first i coordinates are fixed, coordinate i runs through one
        residue class modulo h_ii, and each value extends to members.  The
        last two coordinates are listed together, one block per prefix.
        """
        mods, n, h = self.mods, len(self.mods), self.h
        if n < 2:
            yield from [(x,) for x in range(0, mods[0], h[0][0])] if n else [()]
            return
        a, b = n - 2, n - 1
        step_a, step_b, cross = h[a][a], h[b][b], h[a][b]

        def walk(i: int, prefix: tuple[int, ...], v: list[int]):
            # v: a lattice vector that agrees with prefix, reduced modulo mods
            if i == a:
                va, vb = v[a], v[b]
                yield from [
                    prefix + (x, y)
                    for x in range(va % step_a, mods[a], step_a)
                    for y in range((vb + (x - va) // step_a * cross) % step_b, mods[b], step_b)
                ]
                return
            row, step = h[i], h[i][i]
            for x in range(v[i] % step, mods[i], step):
                q = (x - v[i]) // step
                yield from walk(
                    i + 1, prefix + (x,), [(s + q * t) % d for s, t, d in zip(v, row, mods)]
                )

        yield from walk(0, (), [0] * n)
