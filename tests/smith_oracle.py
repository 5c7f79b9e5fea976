"""A Smith normal form over Z with unimodular transforms: the oracle the
tests check the package's Hermite-basis answers against.

The pivot rule picks the smallest nonzero magnitude, so the transforms
are reproducible across platforms.
"""

from __future__ import annotations

from typing import Sequence

IntMatrix = list[list[int]]


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(A: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with U*A*V = D, D diagonal with d_1 | d_2 | ... >= 0.

    U and V are unimodular (determinant +-1).  The pivot rule picks the
    smallest nonzero magnitude (ties broken by position), which fixes the
    output deterministically.
    """
    n = len(A)
    m = len(A[0]) if n else 0
    a = [list(row) for row in A]
    u = _identity(n)
    v = _identity(m)

    def row_sub(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i: int, j: int, q: int) -> None:
        # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(n, m):
        pivot = None
        for i in range(t, n):
            for j in range(t, m):
                val = abs(a[i][j])
                if val and (pivot is None or val < pivot[0]):
                    pivot = (val, i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)

        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_sub(i, t, q)
                    if a[i][t]:
                        row_swap(i, t)
                        dirty = True
            if dirty:
                continue
            # clear the pivot row
            for j in range(t + 1, m):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_sub(j, t, q)
                    if a[t][j]:
                        col_swap(j, t)
                        dirty = True
                        break
            if dirty:
                continue
            # force the pivot to divide the remaining submatrix
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_i = a[offender]
            a[t] = [x + y for x, y in zip(a[t], row_i)]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


def solve_with_snf(
    snf: tuple[IntMatrix, IntMatrix, IntMatrix], b: Sequence[int]
) -> list[int] | None:
    """One integer solution x of A x = b, or None when none exists, given
    the Smith normal form (D, U, V) = smith_normal_form(A)."""
    d, u, v = snf
    n = len(d)
    m = len(v)
    c = [sum(u[i][j] * b[j] for j in range(n)) for i in range(n)]
    y = [0] * m
    for i in range(n):
        di = d[i][i] if i < min(n, m) else 0
        if di:
            if c[i] % di:
                return None
            y[i] = c[i] // di
        elif c[i]:
            return None
    return [sum(v[i][j] * y[j] for j in range(m)) for i in range(m)]
