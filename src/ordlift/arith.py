"""Exact integer arithmetic primitives.

Factorization, p-adic valuation, radical, gcd with the gcd(0, n) = n
convention, modular exponentiation and Euler's totient.  Everything is pure
and deterministic, operates on plain Python ints (so operands past 64 bits
are fine), and factorization results are cached for the sweep-heavy callers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from ordlift.errors import FactorizationBudgetError

__all__ = [
    "Factorization",
    "divisors",
    "euler_phi",
    "factorize",
    "gcd_conv",
    "is_prime",
    "mod_pow",
    "radical",
    "valuation",
]

# Trial division handles everything below this squared; Pollard rho takes over.
# Chosen by a sweep over 2^8..2^16 (2-core x86-64 VM, Python 3.11, minimum of
# nine interleaved runs): the cold wide-moduli benchmark pass took 65-80 ms
# for every limit up to 2^13, then 78, 107 and 108 ms at 2^14..2^16; order_fast
# on 200 random odd 64-bit n took 0.35-0.36 s at 2^8..2^10, 0.43-0.44 s at
# 2^11..2^13, then 0.64, 0.75 and 1.1 s.  2^10 sits inside both flat ranges.
_TRIAL_LIMIT = 1 << 10

# Pollard rho steps (evaluations of y -> y*y + c, all restarts together)
# allowed per split before FactorizationBudgetError.  The costliest split in
# the benchmark's wide moduli, 474349721 * 6652754837 inside psi12 - 1, takes
# 103,166 steps, 20x under this; a 60-bit prime factor would need about 2^31.
_RHO_BUDGET = 1 << 21

# Miller-Rabin witnesses, the first twelve primes: deterministic for every
# n < psi_12 = 318665857834031151167461 ~ 3.19e23 (Sorenson-Webster 2015).
# psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to all twelve
# and passes.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (psi_k, k): every odd composite n < psi_k fails the strong test to one of
# the first k witnesses, and psi_k itself, a composite, passes all k (OEIS
# A014233; Jaeschke 1993, Jiang-Deng 2014).  psi_8 = psi_7 and psi_10 =
# psi_11 = psi_9, so those counts never pay; from psi_9 on all twelve run.
_MR_BOUNDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
)


class Factorization(namedtuple("Factorization", "value factors")):
    """Prime factorization of a positive integer ``value``.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly increasing
    primes; the empty tuple represents 1.
    """

    __slots__ = ()

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below psi_12 ~ 3.19e23.

    The bases are the first k primes, k graded by the size of n: the fewest
    that are proven enough below the bounds psi_k of OEIS A014233
    (``_MR_BOUNDS``), and all twelve from psi_9 ~ 3.8e18 on.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    witnesses = _MR_WITNESSES
    for bound, k in _MR_BOUNDS:
        if n < bound:
            witnesses = _MR_WITNESSES[:k]
            break
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n, via Brent's cycle finding.

    Deterministic restart sequence keeps factorizations reproducible.  Raises
    FactorizationBudgetError rather than let the steps of all restarts
    together pass _RHO_BUDGET.
    """
    c = 1
    steps = 0
    while True:
        y, r, q = 2, 1, 1
        g, x, ys = 1, 0, 0
        while g == 1:
            if steps + 2 * r > _RHO_BUDGET:  # a round takes up to 2r steps
                raise FactorizationBudgetError(
                    f"no factor of {n} within {_RHO_BUDGET} Pollard rho steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            steps += r + min(k, r)
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _split(n: int, exps: dict[int, int], mult: int = 1) -> None:
    """Recursively split a cofactor that survived trial division."""
    if is_prime(n):
        exps[n] = exps.get(n, 0) + mult
        return
    # Rho needs about sqrt(p) steps to split p**k, so roots are taken first.
    # Every prime of n exceeds _TRIAL_LIMIT = 2**t, so n = m**k has k <=
    # (bits(n) - 1) / t.
    t = _TRIAL_LIMIT.bit_length() - 1
    for k in range(2, (n.bit_length() - 1) // t + 1):
        root = _iroot(n, k)
        if root**k == n:
            _split(root, exps, mult * k)
            return
    d = _pollard_rho(n)
    e = 0
    while n % d == 0:
        n //= d
        e += 1
    _split(d, exps, mult * e)
    if n > 1:
        _split(n, exps, mult)


@lru_cache(maxsize=1 << 16)
def _factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The cached (prime, exponent) pairs of n >= 1, without a record."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    exps: dict[int, int] = {}
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            exps[p] = e
    p = 5
    step = 2
    while p <= _TRIAL_LIMIT and p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            exps[p] = e
        p += step
        step = 6 - step
    if n > 1:
        if p * p > n:
            exps[n] = 1
        else:
            _split(n, exps)
    return tuple(sorted(exps.items()))


def factorize(n: int) -> Factorization:
    """Unique prime factorization of n >= 1."""
    return Factorization(n, _factor_pairs(n))


def valuation(n: int, p: int) -> int:
    """p-adic valuation: the largest e >= 0 with p**e dividing n."""
    if n < 1:
        raise ValueError(f"valuation requires n >= 1, got {n}")
    if not is_prime(p):
        raise ValueError(f"valuation requires a prime p, got {p}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def radical(n: int) -> int:
    """Largest square-free divisor: the product of the distinct primes of n."""
    result = 1
    for p, _ in _factor_pairs(n):
        result *= p
    return result


def gcd_conv(a: int, n: int) -> int:
    """gcd(|a|, n) for positive n, with gcd(0, n) = n."""
    if n < 1:
        raise ValueError(f"gcd_conv requires n >= 1, got {n}")
    return math.gcd(a, n)


def mod_pow(a: int, e: int, n: int) -> int:
    """a**e mod n, with the base reduced into [0, n) first."""
    if n < 1:
        raise ValueError(f"mod_pow requires n >= 1, got {n}")
    if e < 0:
        raise ValueError(f"mod_pow requires e >= 0, got {e}")
    return pow(a % n, e, n)


def euler_phi(n: int) -> int:
    """Euler's totient, computed from the factorization."""
    result = 1
    for p, e in _factor_pairs(n):
        result *= (p - 1) * p ** (e - 1)
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in _factor_pairs(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)
