"""A modular Hermite basis that merges every vector in turn: the oracle
the tests check the package's ``hermite_basis`` against, entry for entry.

This is the plain column-by-column merge (Domich, Kannan and Trotter,
Math. Oper. Res. 12, 1987) with no membership pass, so it reaches every
vector, member or not, with the same 2x2 steps in the same order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

IntMatrix = list[list[int]]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b), for a, b > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def hermite_basis(mods: Sequence[int], vecs: Iterable[Sequence[int]]) -> IntMatrix:
    """The upper-triangular basis of the lattice spanned by ``vecs`` and
    the mods[i] * e_i, each vector merged into the rows from the left."""
    h = [[d if i == j else 0 for j in range(len(mods))] for i, d in enumerate(mods)]
    for vec in vecs:
        v = [x % d for x, d in zip(vec, mods)]
        for i, row in enumerate(h):
            a, b = row[i], v[i]
            if b % a:
                g, x, y = _xgcd(a, b)
                h[i] = [(x * r + y * s) % d for r, s, d in zip(row, v, mods)]
                v = [(a // g * s - b // g * r) % d for r, s, d in zip(row, v, mods)]
            elif b:
                q = b // a
                v = [(x - q * y) % d for x, y, d in zip(v, row, mods)]
    return h
