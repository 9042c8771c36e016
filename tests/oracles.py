"""Literal references for the triangle, search and factoring tests.

Every row is built from the one above, entry by entry, and the search scans
all n**2 progressions in order.  Primes are tested by the strong probable-
prime test alone.  None of this shares code with ordlift, so the tests that
compare against it check ordlift independently.
"""

import math
import random
from functools import cache

# No odd composite below PSI_13 = 3317044064679887385961981 ~ 3.3e24 is a
# strong probable prime to all of the first thirteen primes (Sorenson-Webster
# 2015, OEIS A014233).
_FIRST_13_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def literal_triangle_counts(elements, n):
    """Residue multiplicities of the triangle, every row built from the one
    above, entry by entry."""
    row = [x % n for x in elements]
    counts = [0] * n
    for x in row:
        counts[x] += 1
    while len(row) > 1:
        row = [(row[i] + row[i + 1]) % n for i in range(len(row) - 1)]
        for x in row:
            counts[x] += 1
    return counts


def literal_balanced(elements, n):
    """True iff every residue mod n appears equally often in the triangle."""
    counts = literal_triangle_counts(elements, n)
    return min(counts) == max(counts)


@cache  # two tests scan the odd n <= 15, m < 40 grid
def literal_search(n, m):
    """First (c, d) in [0, n)^2, in lexicographic order, whose length-m
    progression c, c+d, ... is balanced mod n; None if there is none."""
    return next(
        (
            (c, d)
            for c in range(n)
            for d in range(n)
            if literal_balanced([c + k * d for k in range(m)], n)
        ),
        None,
    )


def strong_probable_prime(n, a):
    """True iff odd n > 2 passes the strong (Miller-Rabin) test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n):
    """Primality by the strong test to the first thirteen primes, proven for
    n < PSI_13.  From PSI_13 on, also to 32 random bases seeded by n, each of
    which a composite passes with probability at most 1/4."""
    if n < 2:
        return False
    for p in _FIRST_13_PRIMES:
        if n % p == 0:
            return n == p
    bases = list(_FIRST_13_PRIMES)
    if n >= PSI_13:
        rng = random.Random(n)
        bases += [rng.randrange(2, n - 1) for _ in range(32)]
    return all(strong_probable_prime(n, a) for a in bases)


def random_prime(rng, bits):
    """A prime of exactly ``bits`` >= 2 bits drawn from ``rng``."""
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(p):
            return p


def wide_products(seed, count):
    """``count`` factorizations {prime: exponent} of products of at most 128
    bits whose second-largest prime has at most 44 bits, drawn from ``seed``.

    The first has just two primes, the smaller of 36 to 44 bits: past the
    short Pollard rho run, so only ECM splits it.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        first = not out
        second = rng.randint(36 if first else 12, 44)
        factors = {random_prime(rng, second): 1}
        for _ in range(0 if first else rng.randint(0, 2)):
            factors[random_prime(rng, rng.randint(2, second))] = rng.randint(1, 2)
        room = 128 - math.prod(p**k for p, k in factors.items()).bit_length()
        if room < second:
            continue
        top = random_prime(rng, rng.randint(second, room))
        if top not in factors:
            factors[top] = 1
            out.append(factors)
    return out
