"""Exact integer arithmetic primitives.

Factorization, p-adic valuation, radical, gcd with the gcd(0, n) = n
convention, modular exponentiation and Euler's totient.  Everything is pure
and deterministic, operates on plain Python ints (so operands past 64 bits
are fine), and factorization results are cached for the sweep-heavy callers.

Factorization is trial division up to _TRIAL_LIMIT, then, for each cofactor
that is neither prime nor a perfect power, Hart's one-line factoring at a few
multipliers, a short run of Brent's Pollard rho and then Lenstra's
elliptic-curve method (ECM) on Montgomery curves.  These share one budget per
split, a fixed count of steps and curves, so the time it takes grows with the
cofactor; past it FactorizationBudgetError is raised.  The curves come in a
fixed order, so a factorization always takes the same route.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import compress

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

# Trial division by the primes below this handles everything below its
# square; Pollard rho and then ECM take over.  Chosen by a sweep over
# 2^8..2^13 (2-core x86-64 VM, Python 3.11, minimum of five interleaved
# runs), made when trial division still stepped a 6k +- 1 wheel: the cold
# wide-moduli benchmark pass (mean over seeds 1-6) took 34-36 ms for every
# limit up to 2^12 and 37 ms at 2^13; order_fast on 200 random odd 64-bit n
# took 0.18-0.20 s at 2^8..2^11, then 0.21 and 0.25 s.  2^10 sits inside
# both flat ranges.
_TRIAL_LIMIT = 1 << 10

# Multipliers i = 1.._HART_MULTIPLIERS of Hart's one-line factoring.  It
# splits p*q at once when i*p*q is close to a square, as for psi_12 and
# psi_13, both of the shape p*(2p - 1), at i = 8.  On a semiprime it does not
# split it costs 11 us at 80 bits (x86-64, Python 3.11), against 10-22 ms for
# ECM to split psi_12.
_HART_MULTIPLIERS = 16

# Brent's rho steps (evaluations of y -> y*y + 1) per split before ECM takes
# over.  Rho needs about sqrt(p) steps for a prime factor p, so it keeps the
# factors up to about 20 bits, where it is cheaper than one ECM curve.
_RHO_STEPS = 1 << 12

# ECM levels (B1, curves): stage 1 multiplies by lcm(1..B1), stage 2 covers
# one more prime up to _ECM_B2_RATIO * B1 by baby-step giant-step with
# giant step _ECM_D.  These curves and the rho steps are the whole budget of
# one split: past them FactorizationBudgetError is raised.
_ECM_SCHEDULE = ((200, 8), (400, 12), (800, 16), (1600, 24), (3200, 16))
_ECM_B2_RATIO = 50
_ECM_D = 210

# Entries kept by each lru cache on n or (r, n): _factor_pairs here and the
# two order routes in ``orders``.  A cold desk-grid benchmark pass (seed 5)
# fills 6,104 order entries and ``verify 2000 30`` 37,905, with the same
# hits as any larger bound.  A ``table`` of every n <= 20000 and 1 <= a <= 60
# misses 730,916 times for 1,101 hits: in one process (x86-64, Python 3.11)
# this bound holds its peak RSS to 65 MB, against 203 MB under 2^20 entries.
_CACHE_SIZE = 1 << 16

# Miller-Rabin witnesses, the first thirteen primes: deterministic for every
# n < psi_13 = 3317044064679887385961981 ~ 3.32e24 (Sorenson-Webster 2015).
# psi_13 = 1287836182261 * 2575672364521 is a strong pseudoprime to all
# thirteen and passes.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (psi_k, k): every odd composite n < psi_k fails the strong test to one of
# the first k witnesses, and psi_k itself, a composite, passes all k (OEIS
# A014233; Jaeschke 1993, Jiang-Deng 2014).  psi_8 = psi_7 and psi_10 =
# psi_11 = psi_9, so those counts never pay; twelve run from psi_9 and all
# thirteen from psi_12 on.
_MR_BOUNDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
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
    """Miller-Rabin primality test, deterministic below psi_13 ~ 3.32e24.

    The bases are the first k primes, k graded by the size of n: the fewest
    that are proven enough below the bounds psi_k of OEIS A014233
    (``_MR_BOUNDS``), twelve from psi_9 ~ 3.8e18 and all thirteen from
    psi_12 ~ 3.19e23 on.
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


def _hart(n: int) -> int:
    """A nontrivial factor of an odd composite n that is no perfect power by
    Hart's one-line factoring (J. Aust. Math. Soc. 92 (2012)), or 1 if none
    shows at multipliers 1.._HART_MULTIPLIERS: s = ceil(sqrt(i*n)), and when
    s*s mod n is a square t*t, n shares a factor with s - t."""
    for i in range(1, _HART_MULTIPLIERS + 1):
        s = math.isqrt(i * n - 1) + 1
        m = s * s % n
        t = math.isqrt(m)
        if t * t == m:
            g = math.gcd(s - t, n)
            if 1 < g < n:
                return g
    return 1


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n by Brent's rho with
    y -> y*y + 1, or 1 if none shows within _RHO_STEPS steps."""
    y, r, q = 2, 1, 1
    g, x, ys = 1, 0, 0
    steps = 0
    while g == 1:
        if steps + 2 * r > _RHO_STEPS:  # a round takes up to 2r steps
            return 1
        x = y
        for _ in range(r):
            y = (y * y + 1) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + 1) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += 128
        steps += r + min(k, r)
        r <<= 1
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + 1) % n
            g = math.gcd(x - ys, n)
    return 1 if g == n else g


def _sieve(limit: int) -> bytearray:
    """Flags of 0..limit, for limit >= 1, by the sieve of Eratosthenes:
    sieve[q] is 1 exactly when q is prime."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return sieve


# The primes below _TRIAL_LIMIT, in order: the trial divisors of _factor_pairs.
_TRIAL_PRIMES = tuple(compress(range(_TRIAL_LIMIT), _sieve(_TRIAL_LIMIT - 1)))


@lru_cache(maxsize=None)
def _stage1_multiplier(b1: int) -> int:
    """lcm(1..b1): every prime p <= b1 to the largest power <= b1."""
    return math.lcm(*range(1, b1 + 1))


@lru_cache(maxsize=None)
def _stage2_plan(b1: int) -> tuple[tuple[int, ...], int, tuple[tuple[int, ...], ...]]:
    """(babies, m0, rows) for the stage 2 of one B1 level.

    Every prime q in (b1, b2] is m*D - b or m*D + b with b one of ``babies``,
    the b < D/2 coprime to D.  rows[i] lists the indexes of the babies that
    some such q pairs with m = m0 + i.  Needs b1 >= D/2, so that m >= 1.
    """
    b2 = _ECM_B2_RATIO * b1
    babies = tuple(b for b in range(1, _ECM_D // 2, 2) if math.gcd(b, _ECM_D) == 1)
    index = {b: j for j, b in enumerate(babies)}
    m0 = (b1 + 1 + _ECM_D // 2) // _ECM_D
    rows: list[set[int]] = [set() for _ in range(m0, (b2 + _ECM_D // 2) // _ECM_D + 1)]
    for q in compress(range(b1 + 1, b2 + 1), _sieve(b2)[b1 + 1 :]):
        m = (q + _ECM_D // 2) // _ECM_D
        rows[m - m0].add(index[abs(q - m * _ECM_D)])
    return babies, m0, tuple(tuple(sorted(r)) for r in rows)


def _ladder(k: int, x: int, z: int, a24: int, n: int) -> tuple[int, int, int, int]:
    """[k]P and [k + 1]P, as (X, Z, X', Z'), for k >= 1 and P = (x : z) on the
    Montgomery curve with (A + 2) / 4 = a24, by the x-only ladder."""
    x1, z1 = x, z
    s = (x + z) * (x + z) % n
    d = (x - z) * (x - z) % n
    t = s - d
    x2, z2 = s * d % n, t * (d + a24 * t) % n
    for bit in bin(k)[3:]:
        u = (x1 - z1) * (x2 + z2)
        v = (x1 + z1) * (x2 - z2)
        xa, za = z * (u + v) ** 2 % n, x * (u - v) ** 2 % n
        if bit == "1":
            s = (x2 + z2) * (x2 + z2) % n
            d = (x2 - z2) * (x2 - z2) % n
            t = s - d
            x1, z1, x2, z2 = xa, za, s * d % n, t * (d + a24 * t) % n
        else:
            s = (x1 + z1) * (x1 + z1) % n
            d = (x1 - z1) * (x1 - z1) % n
            t = s - d
            x1, z1, x2, z2 = s * d % n, t * (d + a24 * t) % n, xa, za
    return x1, z1, x2, z2


def _ecm_curve(n: int, sigma: int, b1: int) -> int:
    """gcd(n, ...) after both stages of ECM on Suyama's curve sigma: a
    factor of n that may be 1 or n itself."""
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    den = 16 * pow(u, 3, n) * v % n
    g = math.gcd(den, n)
    if g != 1:
        return g
    # (A + 2) / 4 = (v - u)**3 (3u + v) / (16 u**3 v), base point (u**3 : v**3).
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
    x = pow(u * pow(v, -1, n), 3, n)
    x, z, _, _ = _ladder(_stage1_multiplier(b1), x, 1, a24, n)
    g = math.gcd(z, n)
    if g != 1:
        return g
    # Stage 2: if the order of Q = (x : z) mod a prime p of n is a prime
    # q = m*D -+ b in (b1, b2], then [m*D]Q = +-[b]Q mod p, so their x
    # coordinates agree and p divides X([m*D]Q) Z([b]Q) - X([b]Q) Z([m*D]Q).
    babies, m0, rows = _stage2_plan(b1)
    _, _, q2x, q2z = _ladder(1, x, z, a24, n)  # [2]Q
    xs, zs = [], []  # [b]Q for each baby b
    bx, bz, px, pz = x, z, x, z  # [b]Q and [b - 2]Q = -[1]Q for b = 1
    for b in range(1, babies[-1] + 1, 2):
        if math.gcd(b, _ECM_D) == 1:
            xs.append(bx)
            zs.append(bz)
        u = (bx - bz) * (q2x + q2z)
        w = (bx + bz) * (q2x - q2z)
        px, pz, bx, bz = bx, bz, pz * (u + w) ** 2 % n, px * (u - w) ** 2 % n
    dx, dz, _, _ = _ladder(_ECM_D, x, z, a24, n)
    cx, cz, nx, nz = _ladder(m0, dx, dz, a24, n)  # [m*D]Q and [(m + 1)*D]Q
    acc = 1
    for row in rows:
        for j in row:
            acc = acc * (cx * zs[j] - xs[j] * cz) % n
        u = (nx - nz) * (dx + dz)
        w = (nx + nz) * (dx - dz)
        cx, cz, nx, nz = nx, nz, cz * (u + w) ** 2 % n, cx * (u - w) ** 2 % n
    return math.gcd(acc, n)


def _ecm(n: int) -> int:
    """A nontrivial factor of an odd composite n by Lenstra's elliptic-curve
    method along _ECM_SCHEDULE, or 1 once the schedule is spent.  The curves
    are sigma = 6, 7, ... in order, so every run finds the same factor."""
    sigma = 6
    for b1, curves in _ECM_SCHEDULE:
        for _ in range(curves):
            g = _ecm_curve(n, sigma, b1)
            sigma += 1
            if 1 < g < n:
                return g
    return 1


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _split(n: int, exps: dict[int, int], mult: int = 1) -> None:
    """Recursively split a cofactor that survived trial division: primes are
    recorded, perfect powers are rooted, and anything else is split by Hart's
    one-line factoring, then by _RHO_STEPS of Pollard rho, then by ECM along
    _ECM_SCHEDULE.  Raises FactorizationBudgetError when all three come back
    empty."""
    if is_prime(n):
        exps[n] = exps.get(n, 0) + mult
        return
    # Rho and ECM work as hard on p**k as on p times another prime of p's
    # size, so roots are taken first.  Every prime of n exceeds _TRIAL_LIMIT =
    # 2**t, so n = m**k has k <= (bits(n) - 1) / t.
    t = _TRIAL_LIMIT.bit_length() - 1
    for k in range(2, (n.bit_length() - 1) // t + 1):
        root = _iroot(n, k)
        if root**k == n:
            _split(root, exps, mult * k)
            return
    d = _hart(n)
    if d == 1:
        d = _pollard_rho(n)
    if d == 1:
        d = _ecm(n)
    if d == 1:
        raise FactorizationBudgetError(
            f"no factor of {n} by Hart's one-line method at multipliers up to "
            f"{_HART_MULTIPLIERS}, within {_RHO_STEPS} Pollard rho steps and "
            f"{sum(c for _, c in _ECM_SCHEDULE)} ECM curves up to B1 = "
            f"{_ECM_SCHEDULE[-1][0]}"
        )
    e = 0
    while n % d == 0:
        n //= d
        e += 1
    _split(d, exps, mult * e)
    if n > 1:
        _split(n, exps, mult)


@lru_cache(maxsize=_CACHE_SIZE)
def _factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The cached (prime, exponent) pairs of n >= 1, without a record."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    exps: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            exps[p] = e
    if n > 1:
        # No prime below p divides n, so n < p**2 is prime.
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
