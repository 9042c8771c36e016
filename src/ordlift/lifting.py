"""The paper's reduction of order computations to the square-free core of
the modulus, as an explicit API.

When n2 divides n1, carries every prime of n1, and additionally carries a
second factor of 2 whenever 4 | n1, the order of a mod n1 equals the order
mod n2 times the explicit cofactor n1 / gcd(n1, a**order - 1); the same
divisor transfers alpha and beta from n2 up to n1.  Dropping the extra
factor of 2 breaks the formula: (n1, n2) = (24, 6) with a = 7 yields 4 from
the raw formula while the true order is 2, which is why pair validation is
an error and not a silent fallback.

A ``BasePair`` is the two moduli (n1, n2); its ``two_adic_case`` depends on
n1 alone and is derived from it.  It checks these preconditions itself on
every route to one (the constructor, ``_make`` and ``_replace``, pickling
and ``copy``), the way ``ZnSequence`` checks its own, so no pair that
breaks them reaches the formulas; ``make_base_pair`` is the type itself.
The checks factor nothing: rad(n1) | n2 exactly when n1 | n2**bits(n1).
The lifts take a ``BasePair`` and nothing else, and raise TypeError for any
other object, even one with fields n1 and n2, so they check no modulus
again: each reduces a mod n1, refusing a that is not a unit, and takes the
order at n2 and the divisor from the one step ``orders._lift_divisor``.
This module applies the transfer formulas and the prime-power shortcuts;
the law sweep that checks them is ``ordlift.laws``.  The order engine in
``orders`` applies the same lifting prime by prime, so the *_fast names are
the engine's functions themselves; no BasePair is built on that path.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from ordlift.arith import _factor_pairs, is_prime, radical
from ordlift.errors import InvalidPairError
from ordlift.orders import (
    _lift_divisor,
    _order_value,
    _reduced_coprime,
    alpha,
    beta,
    proj_order,
)

__all__ = [
    "BasePair",
    "TwoAdicCase",
    "admissible_bases",
    "alpha_fast",
    "alpha_prime_power",
    "beta_fast",
    "beta_prime_power",
    "canonical_base",
    "lift_alpha",
    "lift_beta",
    "lift_order",
    "make_base_pair",
    "order_fast",
    "proj_order_fast",
]


class TwoAdicCase(Enum):
    """Which hypothesis branch a pair satisfies: v2(n1) <= 1 or v2(n1) >= 2."""

    SMALL = "v2<=1"
    LARGE = "v2>=2"


class BasePair(namedtuple("BasePair", "n1 n2")):
    """A modulus pair (n1, n2) valid for the lifting formulas.

    Checked on construction, by every route to a pair: n2 | n1, rad(n1) | n2,
    and 2*rad(n1) | n2 whenever 4 | n1.  A failed precondition raises
    InvalidPairError with a reason code naming it; the 2-adic condition is
    not a formality, see the module docstring for the (24, 6) failure.  No
    check factors n1: rad(n1) | n2 is n1 | n2**bits(n1), exact as no exponent
    of n1 reaches bits(n1), and then 2*rad(n1) | n2 for 4 | n1 is 4 | n2.
    """

    __slots__ = ()

    def __new__(cls, n1: int, n2: int):
        if n1 < 1 or n2 < 1:
            raise ValueError(f"moduli must be >= 1, got ({n1}, {n2})")
        if n1 % n2:
            raise InvalidPairError(
                f"invalid pair ({n1}, {n2}): {n2} does not divide {n1}",
                InvalidPairError.REASON_NOT_DIVISOR,
            )
        if pow(n2, int.bit_length(n1), n1):  # TypeError for a float, as elsewhere
            raise InvalidPairError(
                f"invalid pair ({n1}, {n2}): a prime of {n1} does not divide {n2}",
                InvalidPairError.REASON_RADICAL,
            )
        if n1 % 4 == 0 and n2 % 4:
            raise InvalidPairError(
                f"invalid pair ({n1}, {n2}): 4 divides {n1} but not {n2}",
                InvalidPairError.REASON_TWO_ADIC,
            )
        return tuple.__new__(cls, (n1, n2))

    @classmethod
    def _make(cls, iterable) -> "BasePair":
        # The inherited _make skips __new__; _replace goes through this too.
        return cls(*iterable)

    @property
    def two_adic_case(self) -> TwoAdicCase:
        return TwoAdicCase.SMALL if self.n1 % 4 else TwoAdicCase.LARGE


# Validate (n1, n2) for lifting and return the pair: the type is the check.
make_base_pair = BasePair


def canonical_base(n: int) -> int:
    """rad(n), doubled when 4 | n; (n, canonical_base(n)) is always valid."""
    rad = radical(n)
    return rad if n % 4 else 2 * rad


def admissible_bases(n1: int) -> list[int]:
    """Every n2 for which (n1, n2) is a valid lifting pair, ascending: each
    prime p**k of n1 takes p**1..p**k, or 2**2..2**k when p = 2 and k >= 2."""
    bases = [1]
    for p, k in _factor_pairs(n1):
        bases = [b * p**e for b in bases for e in range(1 + (p == 2 and k > 1), k + 1)]
    return sorted(bases)


def _lift(name: str, pair: BasePair, a: int) -> tuple[int, int]:
    """(order of a mod n2, gcd(n1, a**that order - 1)): the one lift step.
    The pair has checked its moduli itself; a not coprime to n1 raises
    NotCoprimeError naming the lift."""
    if not isinstance(pair, BasePair):
        raise TypeError(f"{name} requires a BasePair, got {type(pair).__name__}")
    return _lift_divisor(_reduced_coprime(a, pair.n1, name), pair.n2, pair.n1)


def lift_order(pair: BasePair, a: int) -> int:
    """Order of a mod n1 from the order mod n2:
    order(a, n1) = order(a, n2) * n1 / gcd(n1, a**order(a, n2) - 1)."""
    d, rg = _lift("lift_order", pair, a)
    return d * (pair.n1 // rg)


def _lift_value(name: str, value, pair: BasePair, a: int) -> int:
    """The alpha/beta transfer: value at n2 divided by gcd(value, rg / n2)."""
    rg = _lift(name, pair, a)[1]
    at_base = value(a, pair.n2)
    return at_base // math.gcd(at_base, rg // pair.n2)


def lift_alpha(pair: BasePair, a: int) -> int:
    """alpha at n1 from alpha at n2, for a coprime to n1."""
    return _lift_value("lift_alpha", alpha, pair, a)


def lift_beta(pair: BasePair, a: int) -> int:
    """beta at n1 from beta at n2, for a coprime to n1."""
    return _lift_value("lift_beta", beta, pair, a)


# The engine behind alpha, beta and proj_order already reduces every prime
# power to its base modulus, so the fast route is the direct function.
alpha_fast = alpha
beta_fast = beta
proj_order_fast = proj_order


def order_fast(a: int, n: int) -> int:
    """Multiplicative order of a mod n as an int (NotCoprimeError if not
    coprime); the order of ``mult_order`` without its record."""
    return _order_value(_reduced_coprime(a, n, "multiplicative order"), n)[0]


def _check_prime_power(name: str, p: int, k: int) -> None:
    """The argument checks the prime-power shortcuts share."""
    if not is_prime(p):
        raise ValueError(f"{name} requires a prime p, got {p}")
    if k < 1:
        raise ValueError(f"{name} requires k >= 1, got {k}")


def alpha_prime_power(a: int, p: int, k: int) -> int:
    """alpha at p**k, which does not depend on k: alpha at p, the order of
    a mod p."""
    _check_prime_power("alpha_prime_power", p, k)
    return alpha(a, p)


def beta_prime_power(a: int, p: int, k: int) -> int:
    """beta at p**k, which does not depend on k: beta at p."""
    _check_prime_power("beta_prime_power", p, k)
    return beta(a, p)
