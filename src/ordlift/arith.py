"""Exact integer arithmetic primitives.

Factorization, p-adic valuation, radical, gcd with the gcd(0, n) = n
convention, modular exponentiation and Euler's totient.  Everything is pure
and deterministic, operates on plain Python ints (so operands past 64 bits
are fine), and factorization results are cached for the sweep-heavy callers.

Factorization is trial division up to _TRIAL_LIMIT, then one loop over a
stack of cofactors (_split).  Each that is neither prime nor a perfect power
goes to Hart's one-line factoring at a few multipliers, then to a walk of
Brent's Pollard rho, which the cofactor left by each split resumes, and then
to Lenstra's elliptic-curve method (ECM) on Montgomery curves for what the
walk gives up on; ECM's pieces get no walk.  These share one budget per
cofactor, a fixed count of steps and curves, so the time it takes grows
with the cofactor; past it FactorizationBudgetError is raised.  The curves
come in a fixed order, so a factorization always takes the same route.

Primality is Miller-Rabin to graded bases below psi_6 ~ 3.5e12 and
Baillie-PSW (BPSW) from there on: a strong test to base 2 and a strong
Lucas test.  Every verdict below psi_13 ~ 3.32e24 is proven; from psi_13
on, BPSW is the whole test, and psi_13 itself, a strong pseudoprime to the
first thirteen primes, is rejected.  ``is_prime`` says which part proves
what.
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

# Brent's rho steps (evaluations of y -> y*y + c) per walk before ECM takes
# the cofactor left.  Rho needs about sqrt(p) steps for a prime factor p.
# Chosen by a sweep over 2^12..2^16 with the walk continued past each split
# (2-core x86-64 VM, Python 3.11): the cold wide-moduli benchmark pass (mean
# over seeds 1-10, median of eight interleaved rounds) took 26.2 ms at 2^12,
# 23.0 ms at 2^13 and 21.7-22.1 ms from 2^14 on; p*q with p of 28 to 34 bits
# and q of 60 bits (24 of each size), which ECM mostly splits, took a mean of
# 4.9-24.1 ms at 2^12, 6.9-28.2 ms at 2^14 and 12.2-46.4 ms at 2^16.  2^14
# is the first cap on the flat range.
_RHO_STEPS = 1 << 14

# The walk state (c, x, y, r, k, steps) that _pollard_rho starts a walk
# from: constant c = 1, y = 2, in round r = 1, before its first step.
_RHO_START = (1, 2, 2, 1, 0, 0)

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
# thirteen; the strong Lucas test of is_prime rejects it.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (psi_k, k): every odd composite n < psi_k fails the strong test to one of
# the first k witnesses, and psi_k itself, a composite, passes all k (OEIS
# A014233; Jaeschke 1993).  The graded bases alone decide only below psi_6,
# where they are at most six; from psi_6 on is_prime runs BPSW, and from
# 2^64 to psi_13 the bases 3..41 follow it.
_MR_BOUNDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
)

# From psi_6 on, one strong Lucas test costs less than the seven or more
# bases the graded test would need: per prime, 29 against 48 us at 44 bits
# and 51 against 145 us at 64 bits (best of 10 over 200 random primes;
# 2-core x86-64 VM, Python 3.11).  Base 2 plus strong Lucas (BPSW) has no
# counterexample below 2^64 (Feitsma's list of base-2 strong pseudoprimes,
# checked by Gilchrist), so it is proven there, and from psi_13 on it is the
# whole test.  From 2^64 to psi_13 the bases 3..41 run after it and prove
# the verdict, so there the Lucas test decides nothing: it only rejects a
# strong pseudoprime to base 2, such as psi_12, before bases 3..41 run, and
# every prime there pays for it (259 against 206 us at 80 bits).
_BPSW_FROM = _MR_BOUNDS[-1][0]
_BPSW_PROVEN_BELOW = 1 << 64
_PSI_13 = 3317044064679887385961981


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
    """Primality: proven below psi_13 ~ 3.32e24, Baillie-PSW from there on.

    Below psi_6 ~ 3.5e12 it is Miller-Rabin to the first k primes, k graded
    by the size of n: the fewest that are proven enough below the bounds
    psi_k of OEIS A014233 (``_MR_BOUNDS``).  From psi_6 on it is BPSW
    (Baillie-Wagstaff 1980), a strong test to base 2 and then a strong Lucas
    test (``_strong_lucas``), proven below 2^64.  From 2^64 to psi_13 the
    bases 3..41 follow it, so the verdict is proven there too.  From psi_13
    on BPSW is the whole test: no composite is known to pass it, and
    psi_13, which passes all thirteen bases, fails it.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < _BPSW_FROM:
        for bound, k in _MR_BOUNDS:
            if n < bound:
                return _strong_probable_prime(n, _MR_WITNESSES[:k])
    if not (_strong_probable_prime(n, (2,)) and _strong_lucas(n)):
        return False
    return (
        n < _BPSW_PROVEN_BELOW
        or n >= _PSI_13
        or _strong_probable_prime(n, _MR_WITNESSES[1:])
    )


def _strong_probable_prime(n: int, witnesses: tuple[int, ...]) -> bool:
    """True iff odd n > 2 passes the strong (Miller-Rabin) test to every
    base in ``witnesses``."""
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


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    t = 1
    if a < 0:  # (-1/n) = -1 exactly when n = 3 mod 4
        a = -a
        if n & 3 == 3:
            t = -t
    a %= n
    while a:
        while not a & 1:  # (2/n) = -1 exactly when n = 3 or 5 mod 8
            a >>= 1
            if n & 7 in (3, 5):
                t = -t
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """True iff odd n > 1 is a strong Lucas probable prime for Selfridge's
    parameters (method A): D the first of 5, -7, 9, -11, ... with Jacobi
    symbol (D/n) = -1, P = 1 and Q = (1 - D)/4.

    With n + 1 = d * 2^s, d odd, n passes when U_d = 0 or V_(d 2^r) = 0 mod
    n for some 0 <= r < s; every prime does.  A perfect square has no such
    D and is rejected first; a D that shares a factor with n proves it
    composite unless n is |D|.  V_d and V_(d+1) come from the top bit of d
    down, by V_2k = V_k^2 - 2Q^k and V_(2k+1) = V_k V_(k+1) - Q^k, and U_d
    is not needed: D U_k = 2V_(k+1) - V_k, and D is a unit mod n.
    """
    r = math.isqrt(n)
    if r * r == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return n == abs(D)
        D = -D - 2 if D > 0 else 2 - D
    q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    v, w, qk = 1, (1 - 2 * q) % n, q % n  # V_1, V_2 and Q^1
    for bit in bin(d)[3:]:
        if bit == "1":
            v, w = (v * w - qk) % n, (w * w - 2 * qk * q) % n
            qk = qk * qk * q % n
        else:
            v, w = (v * v - 2 * qk) % n, (v * w - qk) % n
            qk = qk * qk % n
    if v == 0 or (2 * w - v) % n == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


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


def _pollard_rho(n: int, at: tuple[int, ...]) -> tuple[int, tuple[int, ...] | None]:
    """Brent's rho with y -> y*y + c on an odd composite n, from walk state
    ``at``: (g, state) with g a proper factor of n and the state at which it
    showed, or (1, None) once the next round would pass _RHO_STEPS steps.

    A state is (c, x, y, r, k, steps): the constant c, round r's fixed point
    x, the current y, the k steps of round r already taken (0 before the
    round starts) and the steps of the rounds before; _RHO_START starts a
    walk.  When every prime of n meets x at one step, the walk starts again
    from y = 2 with the next c, and its steps count on toward the cap.  The
    state holds for any divisor of n, so _split resumes the walk from it on
    the cofactor left by a split: the sequence mod each prime left is
    unchanged, and the cap counts the steps of the whole walk.  The walk
    records nothing and calls nothing back; what each piece gets next is
    up to _split.
    """
    c, x, y, r, k, steps = at
    x, y, q = x % n, y % n, 1
    while True:
        if k == 0:
            if steps + 2 * r > _RHO_STEPS:  # a round takes up to 2r steps
                return 1, None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
        while k < r:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            k += 128
            g = math.gcd(q, n)
            if g == 1:
                continue
            if g == n:
                # Every prime left met x in this block: replay it one step at
                # a time to the first meeting.
                g = 1
                while g == 1:
                    ys = (ys * ys + c) % n
                    g = math.gcd(x - ys, n)
            if g < n:
                return g, (c, x, y, r, k, steps)
            # Every prime met x at the same step: a new walk with c + 1.
            steps += r + min(k, r)
            c, y, r, k, q = c + 1, 2, 1, 0, 1
            break
        else:
            steps += r + min(k, r)
            r, k = r << 1, 0


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
    """[k]P and [k + 1]P, as (X, Z, X', Z'), for k >= 0 and P = (x : z) on the
    Montgomery curve with (A + 2) / 4 = a24, by the x-only ladder from (O, P),
    with one xADD and one xDBL a bit: a 1 bit swaps the pair before and after."""
    x1, z1, x2, z2 = 1, 0, x, z
    for bit in bin(k)[2:]:
        if bit == "1":
            x1, z1, x2, z2 = x2, z2, x1, z1
        u = (x1 - z1) * (x2 + z2)
        v = (x1 + z1) * (x2 - z2)
        s = (x1 + z1) * (x1 + z1) % n
        d = (x1 - z1) * (x1 - z1) % n
        t = s - d
        x1, z1 = s * d % n, t * (d + a24 * t) % n
        x2, z2 = z * (u + v) ** 2 % n, x * (u - v) ** 2 % n
        if bit == "1":
            x1, z1, x2, z2 = x2, z2, x1, z1
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


def _split(n: int, exps: dict[int, int]) -> None:
    """Record in ``exps`` the primes of a cofactor n that survived trial
    division, by one loop over a stack of (cofactor, multiplicity, walk
    state) that starts at (n, 1, _RHO_START).

    A 1 is dropped, a prime recorded and a perfect power replaced by its
    root, which keeps its walk state.  Anything else goes to Hart's one-line
    factoring, then to its rho walk, then to ECM along _ECM_SCHEDULE; the
    factor found is divided out and both pieces go on the stack.  What a
    piece gets next is set here, and only here:
    - Hart runs on every composite piece, as it costs microseconds and
      splits shapes such as p*(2p - 1) that neither rho nor ECM reaches,
      and its two pieces keep the walk state of what they came from;
    - a walk's factor starts a walk of its own, since the primes in it met
      in one block, and the walk's cofactor resumes the walk where it split;
    - ECM runs only once a walk gave up, so its two pieces get no walk
      (state None): a walk would retake steps that failed for every prime
      in them.
    Raises FactorizationBudgetError when all three come back empty.
    """
    # Rho and ECM work as hard on p**k as on p times another prime of p's
    # size, so roots are taken first.  Every prime of n exceeds _TRIAL_LIMIT =
    # 2**t, so n = m**k has k <= (bits(n) - 1) / t.
    t = _TRIAL_LIMIT.bit_length() - 1
    stack = [(n, 1, _RHO_START)]
    while stack:
        n, mult, at = stack.pop()
        if n == 1:
            continue
        if is_prime(n):
            exps[n] = exps.get(n, 0) + mult
            continue
        for k in range(2, (n.bit_length() - 1) // t + 1):
            root = _iroot(n, k)
            if root**k == n:
                stack.append((root, mult * k, at))
                break
        else:
            d, walk = _hart(n), at
            if d == 1 and at is not None:
                d, at = _pollard_rho(n, at)  # (1, None) when it gives up
                walk = _RHO_START
            if d == 1:
                d, walk = _ecm(n), None
            if d == 1:
                raise FactorizationBudgetError(
                    f"no factor of {n} by Hart's one-line method at multipliers "
                    f"up to {_HART_MULTIPLIERS}, within {_RHO_STEPS} Pollard rho "
                    f"steps and {sum(c for _, c in _ECM_SCHEDULE)} ECM curves up "
                    f"to B1 = {_ECM_SCHEDULE[-1][0]}"
                )
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            stack += ((n, mult, at), (d, mult * e, walk))


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
