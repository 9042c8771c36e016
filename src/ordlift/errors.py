"""Exceptions shared across the library."""

__all__ = ["FactorizationBudgetError", "InvalidPairError", "NotCoprimeError"]


class NotCoprimeError(ValueError):
    """An operation required gcd(a, n) = 1 and the inputs violate it."""


class InvalidPairError(ValueError):
    """A modulus pair fails the preconditions of the lifting formulas.

    ``reason`` is one of the REASON_* constants so callers can tell which
    precondition failed.
    """

    REASON_NOT_DIVISOR = "n2-does-not-divide-n1"
    REASON_RADICAL = "radical-does-not-divide-n2"
    REASON_TWO_ADIC = "two-adic-factor-missing"

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class FactorizationBudgetError(ArithmeticError):
    """Pollard rho used up its step budget without splitting a cofactor."""
