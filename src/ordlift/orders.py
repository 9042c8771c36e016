"""Multiplicative and projective orders modulo n, and the derived functions
alpha (order of a**n mod n) and beta (projective order of a**n mod n).

Every order comes from one engine, ``_order_value``, the CRT order algorithm
over a single factorization of n.  For each prime power p**k of n it finds
the order d mod p by stripping the factors of p - 1, lifts it to p**k with
the paper's growth law d * p**max(0, k - k0), where p**k0 = gcd(r**d - 1,
p**k), and takes the lcm over the prime powers.  For p = 2 and k >= 2 it
starts from the order mod 4, the base modulus the lifting needs when 4 | n.
alpha is d / gcd(d, n), and beta is alpha halved when (a**n)**(alpha/2) is
-1 mod n, which beta tests as a**(d/2) = -1, the test proj_order makes.

Two independent routes stay for checking.  ``_order_phi`` strips the prime
factors of phi(n) from phi(n); it is the reference ``verify_claims`` and the
tests hold the engine to.  The *_oracle functions recompute alpha and beta
by literal exponent iteration in ``order_scan`` and ``proj_order_scan``.
Both are one capped walk, ``_walk``, of base, base**2, ... mod n up to the
first +-1: ``proj_order_scan`` is its step count e, and ``order_scan`` is e,
or 2e when the walk stopped at -1.  The walk is also the reference for the
compiled twins in ``_kernels.pyx``, which walk to 1.  The engine and
``_order_phi`` test their congruence before stripping (r**(p - 1) = 1 mod p
for each prime, r**phi(n) = 1 mod n), so a composite factor that passed the
primality test raises ArithmeticError instead of giving a wrong order.

a**order(a) - 1 is a multiple of n that the lifting formulas consume, but it
is never materialized: ``remainder_gcd`` extracts the needed gcd from a
single power reduced mod the larger modulus, which is exact because
gcd(n1, x) = gcd(n1, x mod n1).

Only ``mult_order`` returns a record, the named tuple OrderRecord; every
other function here returns the order as a plain int without building one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from ordlift.arith import _CACHE_SIZE, _factor_pairs
from ordlift.errors import InvalidPairError, NotCoprimeError

__all__ = [
    "OrderRecord",
    "alpha",
    "alpha_oracle",
    "beta",
    "beta_oracle",
    "mult_order",
    "proj_order",
    "remainder_gcd",
]


class OrderRecord(namedtuple("OrderRecord", "modulus base order")):
    """A computed multiplicative order: base**order = 1 mod modulus, minimally."""

    __slots__ = ()


def _composite(p: int, n: int) -> ArithmeticError:
    return ArithmeticError(
        f"factor {p} of {n} is not prime: it fails Fermat's test"
    )


@lru_cache(maxsize=_CACHE_SIZE)
def _order_value(r: int, n: int) -> int:
    """Order of the reduced residue r mod n; caller guarantees gcd(r, n) = 1."""
    order = 1
    for p, k in _factor_pairs(n):
        if p == 2:
            if k == 1:
                continue
            base, d = 4, 1 if r % 4 == 1 else 2
        else:
            base, d = p, p - 1
            rp = r % p
            if pow(rp, d, p) != 1:
                raise _composite(p, n)
            for q, _ in _factor_pairs(d):
                while d % q == 0 and pow(rp, d // q, p) == 1:
                    d //= q
        pk = p**k
        if pk != base:
            # gcd(r**d - 1, p**k) = p**min(k0, k), so this is p**max(0, k - k0).
            d *= pk // math.gcd(pow(r, d, pk) - 1, pk)
        order = math.lcm(order, d)
    return order


@lru_cache(maxsize=_CACHE_SIZE)
def _order_phi(r: int, n: int) -> int:
    """Order of r mod n by stripping prime factors from phi(n); the reference
    route, independent of the engine's lifting.  Caller guarantees
    gcd(r, n) = 1.

    phi(n) and its factorization are assembled from the factors of n and of
    each p - 1, so phi(n) itself is never factored.
    """
    if n == 1:
        return 1
    fn = _factor_pairs(n)
    e = 1
    exps: dict[int, int] = {}
    for p, k in fn:
        e *= (p - 1) * p ** (k - 1)
        if k > 1:
            exps[p] = exps.get(p, 0) + k - 1
        for q, j in _factor_pairs(p - 1):
            exps[q] = exps.get(q, 0) + j
    if pow(r, e, n) != 1:
        raise _composite(next(p for p, k in fn if pow(r, e, p**k) != 1), n)
    for q in exps:
        while e % q == 0 and pow(r, e // q, n) == 1:
            e //= q
    return e


def _reduced_or_none(a: int, n: int, what: str):
    """a mod n when it is coprime to n, else None; ``what`` names the caller
    in the error for n < 1."""
    if n < 1:
        raise ValueError(f"{what} requires n >= 1, got {n}")
    r = a % n
    return r if math.gcd(r, n) == 1 else None


def _reduced_coprime(a: int, n: int, what: str) -> int:
    # Not built on _reduced_or_none: every order and lifting call comes
    # through here, and a second call frame costs them a measurable share.
    if n < 1:
        raise ValueError(f"{what} requires n >= 1, got {n}")
    r = a % n
    if math.gcd(r, n) != 1:
        raise NotCoprimeError(f"{what} undefined: gcd({a}, {n}) != 1")
    return r


def mult_order(a: int, n: int) -> OrderRecord:
    """Multiplicative order of a mod n, for a coprime to n.

    Raises ArithmeticError when a factor of n that passed the primality test
    turns out composite.
    """
    r = _reduced_coprime(a, n, "multiplicative order")
    return OrderRecord(n, r, _order_value(r, n))


def remainder_gcd(a: int, n2: int, n1: int) -> int:
    """gcd(n1, a**order(a mod n2) - 1), computed without the big power.

    Requires n2 | n1 and gcd(a, n1) = 1.  The result is a divisor of n1 and
    a multiple of n2; it is the divisor the lifting formulas consume.  Raises
    ArithmeticError when it is not a multiple of n2, which happens only when
    the order mod n2 is wrong.
    """
    if n2 < 1:
        raise ValueError(f"remainder_gcd requires n2 >= 1, got {n2}")
    if n1 < 1:
        raise ValueError(f"remainder_gcd requires n1 >= 1, got {n1}")
    if n1 % n2:
        raise InvalidPairError(
            f"remainder_gcd requires n2 | n1, got ({n2}, {n1})",
            InvalidPairError.REASON_NOT_DIVISOR,
        )
    r = _reduced_coprime(a, n1, "remainder_gcd")
    o2 = _order_value(a % n2, n2)
    rg = math.gcd(pow(r, o2, n1) - 1, n1)
    if rg % n2:
        raise ArithmeticError(
            f"remainder gcd {rg} is not a multiple of the base modulus {n2}"
        )
    return rg


def _minus_one_at_half(r: int, d: int, n: int) -> bool:
    """True iff d, the order of r mod n, is even and r**(d/2) = -1 mod n,
    with n > 2, where +1 and -1 differ."""
    return n > 2 and d % 2 == 0 and pow(r, d // 2, n) == n - 1


def proj_order(a: int, n: int) -> int:
    """Smallest e >= 1 with a**e = +-1 mod n, for a coprime to n.

    Equals the plain order d unless d is even and a**(d/2) = -1, in which
    case it is d/2.  For n <= 2, where +1 and -1 coincide, it equals d.
    """
    r = _reduced_coprime(a, n, "multiplicative order")
    d = _order_value(r, n)
    return d // 2 if _minus_one_at_half(r, d, n) else d


def alpha(a: int, n: int) -> int:
    """Order of a**n mod n when gcd(a, n) = 1, else 0.

    Computed as order(a) / gcd(order(a), n): a**n generates the subgroup of
    index gcd(order(a), n) inside the cyclic group generated by a.
    """
    r = _reduced_or_none(a, n, "alpha")
    if r is None:
        return 0
    d = _order_value(r, n)
    return d // math.gcd(d, n)


def beta(a: int, n: int) -> int:
    """Projective order of a**n mod n when gcd(a, n) = 1, else 0.

    a**n has order h = alpha(a, n), so its projective order is h / 2 when h
    is even and (a**n)**(h/2) = -1 mod n with n > 2, else h.  That power is
    tested at exponent d/2, d the order of a: h = d/gcd(d, n) even gives
    v2(n) < v2(d), so n/gcd(d, n) is odd and (a**n)**(h/2) =
    (a**(d/2))**(n/gcd(d, n)) = a**(d/2), as a**(d/2) squares to 1.
    """
    r = _reduced_or_none(a, n, "beta")
    if r is None:
        return 0
    d = _order_value(r, n)
    h = d // math.gcd(d, n)
    return h // 2 if h % 2 == 0 and _minus_one_at_half(r, d, n) else h


def alpha_oracle(a: int, n: int) -> int:
    """alpha recomputed the slow way: scan e = 1, 2, ... until (a**n)**e = 1.

    Shares no order-finding logic with ``alpha``; meant for tests and sweeps.
    """
    r = _reduced_or_none(a, n, "alpha_oracle")
    return 0 if r is None else order_scan(pow(r, n, n), n)


def beta_oracle(a: int, n: int) -> int:
    """beta recomputed the slow way: scan e = 1, 2, ... until (a**n)**e = +-1."""
    r = _reduced_or_none(a, n, "beta_oracle")
    return 0 if r is None else proj_order_scan(pow(r, n, n), n)


def order_scan(base: int, n: int) -> int:
    """Smallest e >= 1 with base**e = 1 mod n, found by literal iteration."""
    e, x = _walk(base, n)
    # The walk stops at the first +-1, and base**e = -1 there means order
    # 2e; +1 and -1 differ only for n > 2.
    return e if x == 1 or n <= 2 else 2 * e


def proj_order_scan(base: int, n: int) -> int:
    """Smallest e >= 1 with base**e = +-1 mod n, found by literal iteration."""
    return _walk(base, n)[0]


def _walk(base: int, n: int) -> tuple[int, int]:
    """(e, base**e mod n) for the smallest e >= 1 with base**e = +-1 mod n,
    by walking base, base**2, ... mod n.

    The caller guarantees gcd(base, n) = 1; the cap at n steps turns a
    violated precondition into an error instead of a hang.
    """
    if n == 1:
        return 1, 0
    b = base % n
    x, e, minus_one = b, 1, n - 1
    while x != 1 and x != minus_one:
        x = x * b % n
        e += 1
        if e > n:
            raise ValueError("iteration cap hit: base not coprime to modulus")
    return e, x
