"""The suspension map on invariant tuples and the torsion basis it induces.

Suspension raises the dimension index d by one, multiplies the rho
invariant by f, and carries the normal coordinates over.  Going from even
d = 2e to odd d+1 = 2e+1 two new coordinates appear: the new t_{4e-2} is
always 0, while the new t_{4e} is generally under-determined.  ``suspend``
therefore returns a result object carrying every consistent completion:

- for inputs whose rho is an exact integer multiple m of the distinguished
  generator rho(tau_N) = 2^max(4-K,2) * (1 + x^2 + ... + x^(N-2)) and whose
  coordinates vanish, the candidate set is pinned to m * {2^(K-2),
  3*2^(K-2)} (m * {1} when K = 1), the two-element indeterminacy that is
  intrinsic to the suspension of tau_N;
- for everything else the candidates are all values satisfying the
  consistency congruence, a coset of the subgroup
  2^max(K-2,0) * Z_{2^K}: one residue class of the lattice
  :func:`~rho_lattice.surgery.realizations`, which also gives nu's
  coordinates and the minimal exponent.  Nothing is enumerated.

Downstream constructions resolve the ambiguity by always taking the
smallest candidate and logging the choice, which keeps every derived
object reproducible and the dependence auditable.

The distinguished elements sigma, omega, tau, nu and mu defined here
generate the cokernel/kernel of the suspension and the torsion subgroup;
``torsion_basis`` assembles the inductive basis mu_{4i} = (iterated
suspension of nu_i) and mu_{4i-2} = (coordinate unit vectors) and verifies
its order profile and that it generates the full torsion group.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable

from . import ring
from .abelian import Span
from .elements import times_f
from .exceptions import ModulusMismatch, PreconditionFailed, VerificationFailure
from .frozen import Frozen
from .surgery import (
    LensParams,
    NormalCoords,
    StructureElement,
    _formula_numerators,
    element_validate,
    kernel_rho_bar,
    realizations,
    rho_bar_formula,
)
from .ring import Element, eval_minus_one, in_lattice_4r


def even_exponent_sum(N: int) -> Element:
    """1 + x^2 + ... + x^(N-2) for even N: the annihilator direction of f."""
    if N % 2:
        raise ValueError("defined for even N")
    return ring.geometric_sum(ring.truncated(N), N // 2, step=2)


def tau_rho(N: int) -> Element:
    """rho of the generator tau: 2^max(4-K,2) * (1 + x^2 + ... + x^(N-2))."""
    K = ring.split_two_power(N)[0]
    return even_exponent_sum(N) * 2 ** max(4 - K, 2)


def _tau_multiplicity(x: StructureElement) -> int | None:
    """m when x = (m * tau_rho, 0) exactly with m an integer, else None."""
    if not x.coords.is_zero():
        return None
    p = x.params
    if p.K < 1:
        return None
    t = tau_rho(p.N)
    ratio = x.rho.coeffs[0] / t.coeffs[0]
    if ratio.denominator != 1 or x.rho != t.scale(ratio):
        return None
    return int(ratio)


class SuspensionResult(Frozen):
    """All completions of a suspension consistent with the model.

    ``determined`` is set when there is exactly one; ``candidates`` is the
    full list (all sharing rho and every coordinate except the new t_{4e},
    each passing validation).
    """

    _fields = ("source", "candidates", "determined")
    __slots__ = _fields

    def candidate_t4e(self) -> tuple[int, ...]:
        """The possible values of the new top t4-coordinate (even d only)."""
        return tuple(c.coords.t4[-1] for c in self.candidates)

    def to_json(self) -> dict:
        return {
            "determined": None if self.determined is None else self.determined.to_json(),
            "candidates": [c.to_json() for c in self.candidates],
        }


def suspend(x: StructureElement) -> SuspensionResult:
    """Suspension: d -> d+1, rho -> f * rho, coordinates carried over.

    From odd d the result is determined (no new free coordinate).  From
    even d = 2e the new t_{4e-2} is 0 and the new t_{4e} ranges over the
    candidate set described in the module docstring.  Every candidate of a
    tau multiple is validated; the coset that :func:`realizations` gives
    is validated through its first member and its step.
    """
    p = x.params
    x.coords.check(p)
    if x.rho.modulus is not p.modulus():
        raise ModulusMismatch("rho lives over the wrong modulus")
    target = LensParams(p.N, p.d + 1, p.k)
    rho = times_f(x.rho)
    mod = target.t4_modulus
    step = None  # the new coordinate's spacing, when the lattice gives it
    if p.d % 2 == 1:
        completions = [x.coords]
    else:
        tau_mult = _tau_multiplicity(x)
        if tau_mult is None:
            h = realizations(target, rho, x.coords.t4)
            values = []
            if h is not None:
                step = h[1][1]
                values = range(h[0][1] % step, mod, step)
        elif p.K == 1:
            values = [tau_mult % 2]
        else:
            base = 2 ** (p.K - 2)
            values = sorted({(tau_mult * base) % mod, (tau_mult * 3 * base) % mod})
        completions = [NormalCoords(x.coords.t4 + (v,), x.coords.t4m2 + (0,)) for v in values]
    candidates = [StructureElement(target, rho, coords) for coords in completions]
    checked = candidates
    if step is not None and len(candidates) > 1:
        # the class map is additive, so the first candidate stands for all
        # once the class of (0, ..., 0, step) lies in the 4-lattice
        if not in_lattice_4r(rho_bar_formula(target, (0,) * p.c + (step,)), target.sign):
            raise VerificationFailure(f"the step {step} of t_4e is no kernel element at {p}")
        checked = candidates[:1]
    for out in checked:
        if not element_validate(out):
            raise VerificationFailure(
                f"suspension candidate {out.coords.to_json()} fails validation at {p}"
            )
    determined = candidates[0] if len(candidates) == 1 else None
    return SuspensionResult(x, tuple(candidates), determined)


class ChoiceRecord(Frozen):
    """One resolved suspension ambiguity (for the reproducibility log)."""

    _fields = ("source_params", "candidate_t4e", "chosen_t4e")
    __slots__ = _fields

    def to_json(self) -> dict:
        return {
            "source_params": self.source_params,
            "candidates": list(self.candidate_t4e),
            "chosen": self.chosen_t4e,
        }


def resolve(result: SuspensionResult) -> tuple[StructureElement, ChoiceRecord | None]:
    """Pick the canonical (smallest new-coordinate) candidate.

    Returns the chosen element plus a log record when a genuine choice was
    made (more than one candidate).
    """
    if not result.candidates:
        raise VerificationFailure("suspension produced no consistent completion")
    if result.determined is not None:
        return result.determined, None
    chosen = result.candidates[0]
    record = ChoiceRecord(
        source_params=result.source.params.to_json(),
        candidate_t4e=result.candidate_t4e(),
        chosen_t4e=chosen.coords.t4[-1],
    )
    return chosen, record


# ---------------------------------------------------------------------------
# distinguished elements


def elem_sigma(params: LensParams) -> StructureElement:
    """rho = 8, coordinates 0; generates the cokernel of suspension into
    odd-to-even target dimension d = 2e+2."""
    if params.K < 1:
        raise PreconditionFailed("sigma requires K >= 1")
    if params.d % 2:
        raise PreconditionFailed("sigma lives at even d = 2e+2")
    return StructureElement(
        params, ring.const(params.modulus(), 8), NormalCoords.zero(params)
    )


def elem_omega(params: LensParams) -> StructureElement:
    """rho = 16 * (1 + x^2 + ... + x^(N-2)), coordinates 0; generates ker(suspend)."""
    if params.K < 1:
        raise PreconditionFailed("omega requires K >= 1")
    if params.d % 2:
        raise PreconditionFailed("omega lives at even d = 2e")
    return StructureElement(
        params, even_exponent_sum(params.N) * 16, NormalCoords.zero(params)
    )


def elem_tau(params: LensParams) -> StructureElement:
    """rho = 2^max(4-K,2) * (1 + x^2 + ... + x^(N-2)), coordinates 0."""
    if params.K < 1:
        raise PreconditionFailed("tau requires K >= 1")
    if params.d % 2:
        raise PreconditionFailed("tau lives at even d = 2e")
    return StructureElement(params, tau_rho(params.N), NormalCoords.zero(params))


def elem_mu4m2(params: LensParams) -> StructureElement:
    """rho = 0 and a single coordinate t_{4e-2} = 1 (the last t4m2 slot)."""
    if params.K < 1:
        raise PreconditionFailed("mu_{4e-2} requires K >= 1")
    if params.d % 2 == 0:
        raise PreconditionFailed("mu_{4e-2} lives at odd d = 2e+1")
    coords = NormalCoords(
        (0,) * params.c, (0,) * (params.c - 1) + (1,)
    )
    return StructureElement(params, ring.zero(params.modulus()), coords)


def _coords_matching_rho(params: LensParams, rho: Element) -> NormalCoords | None:
    """Lexicographically smallest t4-vector realizing ``rho`` as an element:
    h[0] of :func:`realizations`, each t_i in turn reduced below h_ii by h[i]."""
    h = realizations(params, rho)
    if h is None:
        return None
    v = h[0]
    for i in range(1, len(v)):
        v = [a - v[i] // h[i][i] * b for a, b in zip(v, h[i])]
    return NormalCoords(tuple(v[1:]), (0,) * params.c)


def elem_nu(params: LensParams) -> StructureElement:
    """rho = 2^(4 - min(K,2e)) * (1 + x^2 + ... + x^(N-2)) with the smallest
    coordinates satisfying the consistency congruence.

    Defined at even d = 2e with e >= 2 and K >= 1.  Existence of consistent
    coordinates is part of the theory; failure to find them is reported,
    never patched.
    """
    if params.K < 1:
        raise PreconditionFailed("nu requires K >= 1")
    if params.d % 2 or params.e < 2:
        raise PreconditionFailed("nu lives at even d = 2e with e >= 2")
    exponent = 4 - min(params.K, 2 * params.e)
    scale = Fraction(2) ** exponent
    rho = even_exponent_sum(params.N).scale(scale)
    coords = _coords_matching_rho(params, rho)
    if coords is None:
        raise VerificationFailure(
            f"no consistent coordinates for nu at {params}; "
            "the claimed minimal generator is not realizable in the model"
        )
    return StructureElement(params, rho, coords)


def minimal_exponent(params: LensParams) -> int:
    """Smallest l such that 2^l * (1 + x^2 + ... + x^(N-2)) admits consistent
    coordinates in the invariant-tuple model at these parameters.

    Searched downward from l = 4 (consistency of l implies consistency of
    l+1, so the set of consistent l is upward closed).  A realized rho is
    an integral element off a class over the formula's D, so l >= -v2(D);
    a consistent l below that is reported.  The expected value is
    4 - min(K, 2e); comparison against that closed form is left to the
    caller so this stays an independent oracle.
    """
    if params.K < 1 or params.d % 2 or params.e < 2:
        raise PreconditionFailed("defined at even d = 2e, e >= 2, K >= 1")
    base = even_exponent_sum(params.N)

    def consistent(l: int) -> bool:
        return realizations(params, base.scale(Fraction(2) ** l)) is not None

    floor = -ring.split_two_power(_formula_numerators(params.N, params.d, params.k)[1])[0]
    l = 4
    if not consistent(l):
        raise VerificationFailure(
            f"2^4 * (1 + x^2 + ...) is not realizable at {params}"
        )
    while consistent(l - 1):
        l -= 1
        if l < floor:
            raise VerificationFailure(f"exponent {l} is below the bound {floor} at {params}")
    return l


# ---------------------------------------------------------------------------
# image characterizations of the suspension


def image_test_odd_target(y: StructureElement) -> bool:
    """Membership test for the image of suspension into even d = 2e+2:
    the rho invariant evaluated at x = -1 must vanish."""
    p = y.params
    if p.N % 2:
        raise PreconditionFailed("defined for even N")
    if p.d % 2:
        raise PreconditionFailed("target must have even d = 2e+2")
    return eval_minus_one(y.rho) == 0


def image_test_even_target(y: StructureElement) -> bool:
    """Membership test for the image of suspension into odd d = 2e+1:
    the top t_{4e-2} coordinate must vanish.  Requires e >= 2."""
    p = y.params
    if p.d % 2 == 0:
        raise PreconditionFailed("target must have odd d = 2e+1")
    if p.e < 2:
        raise PreconditionFailed("the coordinate test requires e >= 2")
    return y.coords.t4m2[-1] == 0


# ---------------------------------------------------------------------------
# the inductive torsion basis


class TorsionBasis(Frozen):
    """Basis mu_{4i}, mu_{4i-2} (i = 1..c) of the torsion subgroup.

    ``orders`` are the cyclic orders 2^min(K,2i) of the mu_{4i}; every
    mu_{4i-2} has order 2.  ``span`` is the :class:`~rho_lattice.abelian.Span`
    of the generators over the flattened coordinates (t4 mod 2^K, then
    t4m2 mod 2): its order verifies the basis, and
    :func:`torsion_coordinates` reads each expansion from it by one
    integer solve.  It is derived here from the other fields, so equality,
    hash, repr and to_json ignore it.
    """

    _fields = ("params", "mu4", "mu4m2", "orders", "choice_log")
    __slots__ = _fields + ("span",)

    def __init__(
        self,
        params: LensParams,
        mu4: tuple[StructureElement, ...],
        mu4m2: tuple[StructureElement, ...],
        orders: tuple[int, ...],
        choice_log: tuple[ChoiceRecord, ...],
    ):
        span = Span(params.coord_mods, [x.coords.t4 + x.coords.t4m2 for x in mu4 + mu4m2])
        self._assign(
            params=params, mu4=mu4, mu4m2=mu4m2, orders=orders, choice_log=choice_log, span=span
        )


def _element_order(x: StructureElement) -> int:
    """Order of a torsion tuple: lcm of its coordinate orders."""
    coords = x.coords.t4 + x.coords.t4m2
    return lcm(*(q // gcd(t, q) for t, q in zip(coords, x.params.coord_mods)))


def _mu4_choice(
    params: LensParams,
    members: Iterable[tuple[int, ...]],
    higher: list[StructureElement],
) -> StructureElement:
    """The ad-hoc generator of the lowest torsion block.

    The lexicographically smallest kernel member of order exactly
    2^min(K,2) that is independent of the already-built higher blocks
    (adjoining it multiplies the span by its full order).  A cyclic group
    of order 2^a meets the span trivially exactly when its one element of
    order 2, 2^(a-1) times the member, lies outside it.  Any two such
    choices differ by an automorphism of the block.
    """
    target_order = 2 ** min(params.K, 2)
    span = Span(params.coord_mods, [x.coords.t4 + x.coords.t4m2 for x in higher])
    half = target_order // 2
    for t4 in members:
        coords = NormalCoords(t4, (0,) * params.c)
        x = StructureElement(params, ring.zero(params.modulus()), coords)
        if _element_order(x) != target_order:
            continue
        if not span.contains([half * t for t in t4] + [0] * params.c):
            return x
    raise VerificationFailure(
        f"no independent generator of order {target_order} for the lowest "
        f"torsion block at {params}"
    )


def torsion_basis(params: LensParams) -> TorsionBasis:
    """Build and verify the inductive torsion basis at these parameters.

    mu_{4i-2} are the coordinate unit vectors.  mu_{4i} for i >= 2 arise by
    suspending nu_i from dimension index 2i up to d, resolving every
    ambiguous new coordinate canonically (smallest candidate, logged);
    mu_4 is the ad-hoc first-block generator.  Verifies the order profile
    2^min(K,2i) / 2 and that the basis spans a group of the product of
    those orders, equal to the order of the whole torsion group, so every
    torsion element has exactly one expansion; any mismatch raises
    :class:`VerificationFailure`.
    """
    if params.K < 1:
        raise PreconditionFailed("the torsion basis requires K >= 1")
    c, K = params.c, params.K
    log: list[ChoiceRecord] = []
    kernel = kernel_rho_bar(params)

    mu4: list[StructureElement] = []
    for i in range(2, c + 1):
        x = elem_nu(LensParams(params.N, 2 * i, params.k))
        while x.params.d < params.d:
            x, record = resolve(suspend(x))
            if record is not None:
                log.append(record)
        if not x.is_torsion():
            raise VerificationFailure(f"tower for mu_{4 * i} failed to become torsion")
        mu4.append(x)
    mu4.insert(0, _mu4_choice(params, kernel.span.elements(), mu4))

    mu4m2: list[StructureElement] = []
    for i in range(1, c + 1):
        coords = NormalCoords(
            (0,) * c, tuple(1 if j == i - 1 else 0 for j in range(c))
        )
        mu4m2.append(StructureElement(params, ring.zero(params.modulus()), coords))

    expected_orders = tuple(2 ** min(K, 2 * i) for i in range(1, c + 1))
    orders = tuple(_element_order(x) for x in mu4)
    if orders != expected_orders:
        raise VerificationFailure(
            f"mu4 order profile {orders} differs from expected {expected_orders}"
        )
    if any(_element_order(x) != 2 for x in mu4m2):
        raise VerificationFailure("every mu_{4i-2} must have order 2")

    # one span order stands in for enumerating the group: the map from
    # (+) Z_orders (+) Z_2^c onto the span is a bijection exactly when the
    # span has the product order, and that must be the whole torsion
    basis = TorsionBasis(params, tuple(mu4), tuple(mu4m2), expected_orders, tuple(log))
    basis_size = prod(expected_orders) * 2**c
    torsion_size = kernel.torsion.order()
    if basis.span.order != basis_size or basis_size != torsion_size:
        raise VerificationFailure(
            f"basis spans {basis.span.order} elements, expected {basis_size} "
            f"of {torsion_size} torsion elements at {params}"
        )
    return basis


def torsion_coordinates(x: StructureElement, basis: TorsionBasis) -> tuple[int, ...]:
    """Expansion coefficients of a torsion element over the basis.

    Returns (r_{4,1}, ..., r_{4,c}, r_{2,1}, ..., r_{2,c}) with
    0 <= r_{4,i} < 2^min(K,2i) and 0 <= r_{2,i} < 2, unique because the
    verified basis maps its coefficient group bijectively onto the torsion.
    An element without a solution means the verified basis does not span,
    which is reported as an internal inconsistency.
    """
    if x.params != basis.params:
        raise ValueError("element and basis parameters differ")
    if not x.is_torsion():
        raise PreconditionFailed("torsion coordinates are defined for rho = 0")
    if not element_validate(x):
        raise PreconditionFailed("element fails validation")
    z = basis.span.solve(x.coords.t4 + x.coords.t4m2)
    if z is None:
        raise VerificationFailure(
            "torsion element outside the span of a verified basis"
        )
    orders = basis.orders + (2,) * x.params.c
    return tuple(r % o for r, o in zip(z, orders))


# ---------------------------------------------------------------------------
# desuspension obstruction numbers


def browder_livesay_composite(y: StructureElement, i: int) -> Fraction:
    """The block-i desuspension obstruction number:

        eval(rho at x = -1) / (M * 2^(3 + max(0, K - 2i))).

    Pure arithmetic on the invariant tuple; N must be even.
    """
    p = y.params
    if p.N % 2:
        raise PreconditionFailed("defined for even N")
    if i < 1:
        raise ValueError("block index must be >= 1")
    divisor = p.M * 2 ** (3 + max(0, p.K - 2 * i))
    return eval_minus_one(y.rho) / divisor

