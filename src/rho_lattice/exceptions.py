"""Exception types shared across the package."""

from __future__ import annotations

import os


class ModulusMismatch(ValueError):
    """Two ring elements with different moduli were combined."""


class UnsupportedModulus(ValueError):
    """Operation not defined for this modulus kind."""


class NotInvertible(ArithmeticError):
    """Element is not a unit.

    When the element is a zero divisor, ``witness`` holds a nonzero element
    annihilating it.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class OddOrderEvaluation(ValueError):
    """Evaluation at x = -1 requested for a ring of odd order N.

    The map is not well defined there: the ideal generator does not vanish.
    """


class PreconditionFailed(ValueError):
    """Input violates a documented precondition of the operation."""


class WorkCapExceeded(RuntimeError):
    """Work would exceed the configured cap: the members a kernel lists,
    the candidates of the brute-force kernel, or the bits of a power's
    coefficients."""


DEFAULT_WORK_CAP = 2**22
CAP_ENV_VAR = "RHO_LATTICE_CAP"


def work_cap() -> int:
    """The one work cap, read from ``RHO_LATTICE_CAP`` on each call: the
    kernel members listed, the brute-force kernel's candidate count and a
    power's coefficient bits.
    A set value that is not a positive integer raises ValueError."""
    value = os.environ.get(CAP_ENV_VAR)
    if not value:
        return DEFAULT_WORK_CAP
    message = f"{CAP_ENV_VAR} must be a positive integer, got {value!r}"
    try:
        cap = int(value)
    except ValueError:
        raise ValueError(message) from None
    if cap < 1:
        raise ValueError(message)
    return cap


class VerificationFailure(AssertionError):
    """A property the library promises to re-derive failed to verify.

    Raised instead of silently patching the result.
    """
