"""Structure-set computations for lens spaces of order N = 2^K * M.

A lens space L^(2d-1) with fundamental group of order N carries, for each
unit k mod N, a distinguished free action; the classification data for the
resulting manifold is assembled here from two invariants:

- a signature-defect class ``rho`` in the rational truncated ring, lying
  in the (+1)- or (-1)-eigenspace according to the parity of d, and
- the reduced 2-local normal coordinates ``t_{4i}`` mod 2^K and
  ``t_{4i-2}`` mod 2, with 1 <= i <= c = floor((d-1)/2).

The coordinates map to eigenspace classes modulo the 4-integral lattice
through an explicit polynomial in f (``rho_bar_formula``); the kernel of
that map is the torsion of the structure set.  The map is Z-linear, so
the coordinates that realize a rho are a lattice (``realizations``), and
the kernel is that lattice at rho = 0 (``kernel_rho_bar``).  ``verify``
compares it with the closed form (+) Z_{2^min(K,1)} (+) Z_{2^min(K,2i)}
and, member by member, with an enumeration of every coordinate tuple.

The odd-order sector contributes no torsion and only the order M^c of its
normal-invariant group is exposed; its internal coordinates are not part
of this model.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd, lcm

from . import ring
from .abelian import TRIVIAL, FinAb, Span, annihilator, hermite_basis
from .elements import Catalog, times_f
from .exceptions import (
    CAP_ENV_VAR,
    ModulusMismatch,
    PreconditionFailed,
    VerificationFailure,
    WorkCapExceeded,
    work_cap,
)
from .frozen import Frozen
from .ring import Element, eigen_test, in_lattice_4r, restrict, split_two_power, strict_int

# NormalCoords and StructureElement store their fields directly, as ring's
# Element does (see ring._set), not through Frozen's generic constructor.
_set = object.__setattr__


class LensParams(Frozen):
    """Parameters (N, d, k) of a lens space L^(2d-1) with k coprime to N.

    Derived quantities: N = 2^K * M with M odd, e = floor(d/2),
    c = floor((d-1)/2).  k is normalized to its least positive residue;
    an even k can only occur for odd N.  K and M are computed once here;
    equality, hash, repr and to_json ignore them.
    """

    _fields = ("N", "d", "k")
    __slots__ = _fields + ("K", "M")

    def __init__(self, N: int, d: int, k: int = 1):
        for name, value in (("N", N), ("d", d), ("k", k)):
            strict_int(value, name)
        if N < 2:
            raise ValueError("N must be >= 2")
        if d < 3:
            raise ValueError("d must be >= 3")
        if gcd(k, N) != 1:
            raise ValueError(f"k = {k} must be coprime to N = {N}")
        K, M = split_two_power(N)
        self._assign(N=N, d=d, k=k % N, K=K, M=M)

    @property
    def e(self) -> int:
        return self.d // 2

    @property
    def c(self) -> int:
        return (self.d - 1) // 2

    @property
    def sign(self) -> int:
        """Eigenspace sign (-1)^d of the rho invariant."""
        return 1 if self.d % 2 == 0 else -1

    @property
    def t4_modulus(self) -> int:
        return 2**self.K

    @property
    def t4m2_modulus(self) -> int:
        return 2 ** min(self.K, 1)

    @property
    def coord_mods(self) -> tuple[int, ...]:
        """The flattened coordinates' moduli: c times 2^K, then 2^min(K,1)."""
        return (self.t4_modulus,) * self.c + (self.t4m2_modulus,) * self.c

    def modulus(self) -> ring.Modulus:
        return ring.truncated(self.N)


class NormalCoords(Frozen):
    """Reduced 2-local normal coordinates: c entries mod 2^K and c mod 2."""

    _fields = ("t4", "t4m2")
    __slots__ = _fields

    def __init__(self, t4: tuple[int, ...], t4m2: tuple[int, ...]):
        _set(self, "t4", t4)
        _set(self, "t4m2", t4m2)

    @staticmethod
    def zero(params: LensParams) -> NormalCoords:
        return NormalCoords((0,) * params.c, (0,) * params.c)

    def check(self, params: LensParams) -> None:
        if len(self.t4) != params.c or len(self.t4m2) != params.c:
            raise ValueError(f"expected {params.c} coordinates of each kind")
        if any(not 0 <= t < params.t4_modulus for t in self.t4):
            raise ValueError(f"t4 entries must lie in [0, {params.t4_modulus})")
        if any(not 0 <= t < params.t4m2_modulus for t in self.t4m2):
            raise ValueError("t4m2 entries out of range")

    def add(self, other: NormalCoords, params: LensParams) -> NormalCoords:
        q4, q2 = params.t4_modulus, params.t4m2_modulus
        return NormalCoords(
            tuple([(a + b) % q4 for a, b in zip(self.t4, other.t4)]),
            tuple([(a + b) % q2 for a, b in zip(self.t4m2, other.t4m2)]),
        )

    def scale(self, n: int, params: LensParams) -> NormalCoords:
        q4, q2 = params.t4_modulus, params.t4m2_modulus
        return NormalCoords(
            tuple([n * a % q4 for a in self.t4]), tuple([n * a % q2 for a in self.t4m2])
        )

    def is_zero(self) -> bool:
        return not any(self.t4) and not any(self.t4m2)


# ---------------------------------------------------------------------------
# group-level bookkeeping


def l_group_reduced_rank(N: int, parity: int) -> int:
    """Rank of the sign-eigenspace lattice of the truncated ring.

    The lattice's rank is the dimension over Q of the parity-eigenspace of
    the involution s on the rational ring, of dimension n = N - 1.  When
    s^2 = 1, s is diagonalizable with eigenvalues +-1, so the two
    eigenspaces have dimensions (n + tr s) / 2 and (n - tr s) / 2.  s is a
    ring map, so its value on x fixes it: s(x) = x^(N-1) and s(s(x)) = x
    are checked once, through ``ring.involution``, and s(x^j) = x^(N-j)
    and s^2 = 1 follow.  That s is multiplicative is sampled by verify's
    ``involution`` statement on random pairs, not proved.  The diagonal of
    s on the monomials x^0 .. x^(n-1) is then closed: 1 at j = 0, -1 at
    j = 1 (x^(N-1) = -(1 + x + ... + x^(N-2))), 1 at 2j = N and 0
    elsewhere.  The result is cross-checked against the closed clauses
    (N even: N/2 for +, N/2 - 1 for -; N odd: (N-1)/2 for both).
    """
    if parity not in (1, -1):
        raise ValueError("parity must be +1 or -1")
    m = ring.truncated(N)
    n = m.dim
    x = ring.x_power(m)
    image = ring.involution(x)
    if image != ring.x_power(m, N - 1) or ring.involution(image) != x:
        raise VerificationFailure("the involution is not s(x) = x^(N-1) or does not square to 1")
    trace = sum(1 if j == 0 or 2 * j == N else -1 if j == 1 else 0 for j in range(n))
    twice = n + parity * trace
    if N % 2 == 1:
        expected = (N - 1) // 2
    else:
        expected = N // 2 if parity == 1 else N // 2 - 1
    if twice != 2 * expected:
        raise VerificationFailure(f"eigenlattice rank {twice}/2 != clause {expected}")
    return expected


def reduced_normal_group(params: LensParams) -> tuple[FinAb, int]:
    """The reduced normal-invariant group: (2-local part, odd-sector order).

    The 2-local part is (+)_c Z_{2^K} (+) (+)_c Z_{2^min(K,1)} in canonical
    form; only the order M^c of the odd summand is known to this model, so
    the second component is that order, not a presentation.
    """
    return FinAb.from_orders(params.coord_mods), params.M**params.c


def lift_tbar(t4: tuple[int, ...], params: LensParams) -> tuple[int, ...]:
    """Integer lifts: smallest non-negative t with t = t4 mod 2^K, t = 0 mod M^c."""
    two = params.t4_modulus
    odd = params.M**params.c
    if odd == 1:
        return tuple(t % two for t in t4)
    inv = pow(odd, -1, two)
    return tuple(((t % two) * inv % two) * odd for t in t4)


@lru_cache(maxsize=None)
def _f_ladder(N: int, k: int, j: int) -> Element:
    """P_j = 8 * f'_k * f^j, built as times_f(P_(j-1)): one O(N) step per
    rung when the rungs are asked for in order, shared by every d."""
    if j == 0:
        return Catalog.get(N, k).f_prime_k.scale(8)
    return times_f(_f_ladder(N, k, j - 1))


@lru_cache(maxsize=None)
def _formula_numerators(N: int, d: int, k: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows, D): the per-coordinate formula values F_i = rows[i] / D over
    one common denominator D, so that the class of a coordinate tuple t is
    sum_i lift(t_i) * F_i.

    d = 2e:    F_i = 8 * f'_k * f^(d-2i-2) * (f^2 - 1)   for i = 1..e-1
    d = 2e+1:  the same for i = 1..e-1, and F_e = 8 * f'_k * f

    Each term is read off the ladder P_j = 8 * f'_k * f^j of (N, k):
    F_i = P_(j+2) - P_j with j = d - 2i - 2, and F_e = P_1.  Rungs
    P_0 .. P_(d-2) are taken in order, so a d pays only for the rungs no
    smaller d has built.
    """
    params = LensParams(N, d, k)
    P = [_f_ladder(N, k, j) for j in range(d - 1)]
    basis = [P[d - 2 * i] - P[d - 2 * i - 2] for i in range(1, params.e)]
    if d % 2 == 1:
        basis.append(P[1])
    if len(basis) != params.c:
        raise VerificationFailure(f"{len(basis)} formula terms for c = {params.c}")
    if not all(eigen_test(el, params.sign) for el in basis):
        raise VerificationFailure("formula term in wrong eigenspace")
    D = lcm(*(b.den for b in basis))
    return tuple(tuple(x * (D // b.den) for x in b.num) for b in basis), D


def rho_bar_formula(params: LensParams, coords: NormalCoords | tuple[int, ...]) -> Element:
    """A representative of the coordinate class in the rational ring.

    Only the t_{4i} coordinates enter; t_{4i-2} are invisible to the map.
    Defined for K >= 1 (for K = 0 the kernel is trivial and the map unused).
    The class modulo the 4-integral lattice does not depend on the choice
    of integer lifts.  The sum of lift(t_i) * F_i is formed on the
    numerators over their common denominator and built as one element.
    """
    if params.K < 1:
        raise PreconditionFailed("the 2-local formula requires K >= 1")
    t4 = coords.t4 if isinstance(coords, NormalCoords) else tuple(coords)
    if len(t4) != params.c:
        raise ValueError(f"expected {params.c} t4-coordinates")
    rows, D = _formula_numerators(params.N, params.d, params.k)
    m = params.modulus()
    num = [0] * m.dim
    for tbar, row in zip(lift_tbar(t4, params), rows):
        if tbar:
            num = [a + tbar * x for a, x in zip(num, row)]
    return ring.from_numerators(m, num, D)


# ---------------------------------------------------------------------------
# kernel of the coordinate-class map


class KernelResult(Frozen):
    """The kernel's torsion, and ``span``, its t4-part as a subgroup of
    (Z/2^K)^c."""

    _fields = ("torsion", "span")
    __slots__ = _fields

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """The member t4-vectors in lexicographic order; more than the cap
        (default 2^22, env ``RHO_LATTICE_CAP``) raise WorkCapExceeded."""
        cap = work_cap()
        if self.span.order > cap:
            raise WorkCapExceeded(
                f"{self.span.order} kernel members exceed the cap {cap}; raise {CAP_ENV_VAR}"
            )
        return tuple(self.span.elements())


def kernel_closed_form(params: LensParams) -> FinAb:
    """(+)_i Z_{2^min(K,1)} (+) (+)_i Z_{2^min(K,2i)} for i = 1..c."""
    K, c = params.K, params.c
    orders = [2 ** min(K, 1)] * c + [2 ** min(K, 2 * i) for i in range(1, c + 1)]
    return FinAb.from_orders(orders)


@lru_cache(maxsize=None)
def kernel_rho_bar(params: LensParams) -> KernelResult:
    """Kernel of the coordinate-class map, as a lattice, once per params:
    the result is immutable and shared by every caller.

    Its t4-part is the lattice h of :func:`realizations` at rho = 0, where
    s = 1, t = 0 realizes rho, so the t-parts of h[1:] span it.  There
    2v = 0 mod 8D is v = 0 mod 4D, and v(-1) = 0 mod 8D always holds: each
    F_i is 8 * f'_k times a multiple of f, and f(-1) = 0.  Its torsion is
    the span's :meth:`~rho_lattice.abelian.Span.group`, whose order is
    checked against the span's.  Every t_{4i-2} coordinate is adjoined freely
    since the formula ignores it; the odd sector contributes nothing.
    Nothing is enumerated.
    """
    K, c = params.K, params.c
    if K == 0:
        return KernelResult(TRIVIAL, Span([1] * c, []))
    h = realizations(params, ring.zero(params.modulus()))
    span = Span([2**K] * c, [row[1:] for row in h[1:]])
    t4_part = span.group()
    if t4_part.order() != span.order:
        raise VerificationFailure(f"kernel torsion {t4_part.factors} has the wrong order")
    return KernelResult(t4_part.direct_sum(FinAb.from_orders([2] * c)), span)


def realizations(params: LensParams, rho: Element, fixed: tuple[int, ...] = ()):
    """The Hermite basis h of the (s, t) that realize ``rho``, or None.

    t are the t4-coordinates after ``fixed``.  Over L = lcm(D, rho.den),
    s * (rho less the class of ``fixed``) = sum_i t_i * lift(1) * F_i holds when
    the numerator v of the difference has 2v = 0 mod m = 8L and, at even
    d, L times its value at x = -1 (the coordinate-free sector maps into
    8Z there) is 0 mod m: one :func:`annihilator`, modulo (m, 2^K, ...),
    which needs (and checks) 2^K times each coordinate's row = 0 mod m.
    rho is realized iff it lies in the sign-eigenspace, as every F_i
    does, and h[0][0] = 1; then h[0] is one realization and h[1:] spans
    the rest.
    """
    K, n = params.K, len(fixed)
    rows, D = _formula_numerators(params.N, params.d, params.k)
    L = lcm(D, rho.den)
    m = 8 * L
    lifts = lift_tbar(fixed + (1,) * (params.c - n), params)
    vecs = [[t * (L // D) * x for x in row] for t, row in zip(lifts, rows)]
    minus_gap = [sum(col[:n]) - x * (L // rho.den) for x, col in zip(rho.num, zip(*vecs))]
    A = [[2 * x for x in v] + [sum(v[::2]) - sum(v[1::2])] * (params.sign == 1)
         for v in [minus_gap] + vecs[n:]]
    if any(x * 2**K % m for row in A[1:] for x in row):
        raise VerificationFailure(f"the class map is not 2^K-periodic at {params}")
    h = hermite_basis([m] + [2**K] * (len(A) - 1), annihilator(A, m))
    return h if h[0][0] == 1 and eigen_test(rho, params.sign) else None


def _residue_sums(tables: list[list[list[int]]], mod: int, dim: int):
    """(t, v) for each t in product(*(range(len(table)) for table in
    tables)), in that order, with v the tuple of sum_i tables[i][t_i] mod
    ``mod``.  The sum over all but the last coordinate is formed once and
    reused across the last one, so the tuples stream in little memory."""
    if not tables:
        yield (), (0,) * dim
        return
    *init, last = tables
    for head in product(*(range(len(table)) for table in init)):
        base = [0] * dim
        for t, table in zip(head, init):
            base = [a + b for a, b in zip(base, table[t])]
        for t, row in enumerate(last):
            yield head + (t,), tuple([(a + b) % mod for a, b in zip(base, row)])


def kernel_members_brute(params: LensParams) -> tuple[tuple[int, ...], ...]:
    """The kernel's member t4-vectors in lexicographic order, each
    candidate decided with its own lifts: the oracle for
    :func:`kernel_rho_bar`, free of its linearity.

    A t4-tuple is in the kernel when the residues of its first ceil(c/2)
    and its last floor(c/2) coordinates cancel.  The tails' residues go in
    a table; the heads stream in lexicographic order and each looks up the
    negation of its residue, so the 2^(K*c) tuples take about
    2^(K*ceil(c/2)) steps (Horowitz and Sahni, J. ACM 21, 1974).  Raises
    :class:`WorkCapExceeded` when the candidates pass the cap.
    """
    cap = work_cap()
    K, c = params.K, params.c
    if K == 0:
        return ((0,) * c,)
    total = (2**K) ** c
    if total > cap:
        raise WorkCapExceeded(f"{total} candidates exceed the cap {cap}; raise {CAP_ENV_VAR}")
    rows, D = _formula_numerators(params.N, params.d, params.k)
    mod = 4 * D
    dim = params.modulus().dim
    lifts = [lift_tbar((t,), params)[0] for t in range(2**K)]
    multiples = [[[t * x % mod for x in row] for t in lifts] for row in rows]
    split = (c + 1) // 2
    tails: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for tail, value in _residue_sums(multiples[split:], mod, dim):
        tails.setdefault(tuple([-v % mod for v in value]), []).append(tail)
    return tuple(
        head + tail
        for head, value in _residue_sums(multiples[:split], mod, dim)
        for tail in tails.get(value, ())
    )


class StructureSetDescriptor(Frozen):
    """Free rank plus the kernel, whose torsion is the structure set's."""

    _fields = ("params", "free_rank", "kernel")
    __slots__ = _fields

    @property
    def torsion(self) -> FinAb:
        return self.kernel.torsion

    def to_json(self, include_members: bool = False) -> dict:
        obj = {
            "params": self.params.to_json(),
            "free_rank": self.free_rank,
            "torsion": self.torsion.to_json(),
        }
        if include_members:
            obj["members"] = [list(m) for m in self.kernel.members]
        return obj


def structure_set(params: LensParams) -> StructureSetDescriptor:
    """Assemble the structure-set descriptor for the given parameters.

    The free rank comes from the eigenlattice computation (cross-checked
    against the closed rank clauses inside :func:`l_group_reduced_rank`),
    the torsion from the kernel lattice (:func:`kernel_rho_bar`).
    """
    rank = l_group_reduced_rank(params.N, params.sign)
    return StructureSetDescriptor(params, rank, kernel_rho_bar(params))


# ---------------------------------------------------------------------------
# structure-set elements as invariant tuples


class StructureElement(Frozen):
    """An element modeled by its invariant tuple (rho, normal coordinates).

    Valid tuples satisfy the consistency congruence: the class of ``rho``
    modulo the 4-integral lattice equals the formula class of the
    coordinates.  Torsion elements are exactly those with rho = 0.
    """

    _fields = ("params", "rho", "coords")
    __slots__ = _fields

    def __init__(self, params: LensParams, rho: Element, coords: NormalCoords):
        _set(self, "params", params)
        _set(self, "rho", rho)
        _set(self, "coords", coords)

    def is_torsion(self) -> bool:
        return self.rho.is_zero()


def zero_element(params: LensParams) -> StructureElement:
    return StructureElement(
        params, ring.zero(params.modulus()), NormalCoords.zero(params)
    )


def element_validate(x: StructureElement) -> bool:
    """Eigenspace check plus the consistency congruence.

    This is a necessary condition for realizability; for M > 1 the image
    of the odd sector is not decidable in this model, so no claim is made
    beyond the congruence.
    """
    p = x.params
    if x.rho.modulus is not p.modulus():
        raise ModulusMismatch("rho lives over the wrong modulus")
    x.coords.check(p)
    if not eigen_test(x.rho, p.sign):
        return False
    gap = x.rho - rho_bar_formula(p, x.coords) if p.K else x.rho
    return in_lattice_4r(gap, p.sign)


def element_add(x: StructureElement, y: StructureElement) -> StructureElement:
    """Componentwise sum; the sum of valid elements is valid."""
    if x.params != y.params:
        raise ValueError("elements live over different parameters")
    return StructureElement(
        x.params, x.rho + y.rho, x.coords.add(y.coords, x.params)
    )


def element_scale(x: StructureElement, n: int) -> StructureElement:
    return StructureElement(
        x.params, x.rho * n, x.coords.scale(n, x.params)
    )


def element_from_json(obj) -> StructureElement:
    """Read :meth:`StructureElement.to_json` output back.

    Malformed input raises ValueError naming the offending field.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"an element must be a JSON object, not {type(obj).__name__}")
    parsers = {
        "params": lambda v: LensParams(**v),
        "rho": ring.element_from_json,
        "coords": lambda v: NormalCoords(
            *[tuple([strict_int(t, key) for t in v[key]]) for key in ("t4", "t4m2")]
        ),
    }
    fields = {}
    for name, parse in parsers.items():
        if name not in obj:
            raise ValueError(f"element field {name!r} is missing")
        try:
            fields[name] = parse(obj[name])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"element field {name!r} is malformed: {exc!r}") from None
    return StructureElement(**fields)


# ---------------------------------------------------------------------------
# transfer to subgroups


def transfer(x: StructureElement, n_prime: int) -> StructureElement:
    """Restriction to the subgroup of order N' | N.

    rho restricts through the quotient of rings; t_{4i} reduces mod 2^K'
    and t_{4i-2} mod 2^min(K',1).  Commutes with the formula up to class.
    """
    p = x.params
    if n_prime < 2 or p.N % n_prime != 0:
        raise ValueError(f"{n_prime} does not divide N = {p.N}")
    target = LensParams(n_prime, p.d, p.k % n_prime)
    coords = NormalCoords(
        tuple(t % target.t4_modulus for t in x.coords.t4),
        tuple(t % target.t4m2_modulus for t in x.coords.t4m2),
    )
    return StructureElement(target, restrict(x.rho, n_prime), coords)
