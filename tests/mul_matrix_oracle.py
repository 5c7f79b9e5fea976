"""The multiplication matrix built one column at a time: the oracle the
tests check the package's ``ring._mul_matrix`` against, entry for entry.

Column j is a * x^j: every term of a's numerators moved up by j and
reduced into the ring on its own by ``ring._fold_int``, with no rotation
of a lift.
"""

from __future__ import annotations

from rho_lattice import ring


def mul_matrix(a: ring.Element) -> list[list[int]]:
    """The integer matrix A with A / a.den the matrix of multiplication by
    ``a`` in the canonical basis (columns a*x^j)."""
    m = a.modulus
    cols = [ring._fold_int(enumerate(a.num, j), m) for j in range(m.dim)]
    return [[cols[j][i] for j in range(m.dim)] for i in range(m.dim)]
