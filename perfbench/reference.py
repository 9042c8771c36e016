"""Reference arithmetic the benchmark checks ordlift against.

Nothing here imports ordlift.  Each routine takes a different route from the
program's:

- desk-scale orders come from a literal exponent scan;
- wide moduli are built from primes whose p - 1 is factored by construction,
  every prime is proven by a Lucas certificate, and orders come from the
  order mod p lifted to p**k by direct powering, then the lcm;
- Steinhaus triangles use the closed form 2**i*c + 2**(i-1)*(2j+i)*d (mod n)
  of row i, column j of the progression (c, d), and the exhaustive search
  scores all n**2 progressions at once with numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# ψ12: the least strong pseudoprime to the twelve bases 2..37
# (Sorenson-Webster 2015); its factors and their p - 1 are fixed here.
PSI12 = 318665857834031151167461
PSI12_FACTORS = {
    399165290221: {2: 2, 3: 1, 5: 1, 6652754837: 1},
    798330580441: {2: 3, 3: 1, 5: 1, 6652754837: 1},
}


def sieve(limit: int) -> list[int]:
    """Primes up to limit, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i, f in enumerate(flags) if f]


SMALL_PRIMES = sieve(1 << 16)


@lru_cache(maxsize=None)
def small_factor(n: int) -> tuple[tuple[int, int], ...]:
    """Factorization of a desk-scale n >= 1 by trial division over the sieve."""
    out = []
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def radical(n: int) -> int:
    return math.prod(p for p, _ in small_factor(n))


def admissible_bases(n1: int) -> list[int]:
    """Every n2 | n1 with rad(n1) | n2, and 2*rad(n1) | n2 when 4 | n1."""
    need = radical(n1) * (2 if n1 % 4 == 0 else 1)
    return [d for d in range(need, n1 + 1, need) if n1 % d == 0]


# --- desk scale: literal scans ----------------------------------------------


@lru_cache(maxsize=None)
def scan_orders(r: int, n: int) -> tuple[int, int]:
    """(order, projective order) of r mod n, with gcd(r, n) = 1, by iterating
    x -> x*r until x = 1, noting the first step where x = +-1."""
    if n == 1:
        return 1, 1
    x, e, proj = r % n, 1, 0
    while x != 1:
        if not proj and x == n - 1:
            proj = e
        x = x * r % n
        e += 1
    return e, proj or e


def desk_values(a: int, n: int) -> dict[str, int]:
    """Every desk-grid quantity of (a, n) from literal scans.

    alpha and beta are 0 off the coprime domain; the orders are absent there.
    """
    r = a % n
    if math.gcd(r, n) != 1:
        return {"alpha": 0, "beta": 0}
    order, proj = scan_orders(r, n)
    alpha, beta = scan_orders(pow(r, n, n), n)
    return {"alpha": alpha, "beta": beta, "order": order, "proj_order": proj}


# --- wide moduli: primes with factored p - 1 --------------------------------


def lucas_certified(p: int, qs) -> bool | None:
    """Lucas test with the full factorization of p - 1: True proves p prime,
    False proves it composite, None means no witness among 2..63."""
    m = p - 1
    for g in range(2, 64):
        if pow(g, m, p) != 1:
            return False
        if all(pow(g, m // q, p) != 1 for q in qs):
            return True
    return None


def _random_small_prime(rng, lo: int, hi: int) -> int:
    while True:
        q = rng.randrange(lo | 1, hi, 2)
        if small_factor(q) == ((q, 1),):
            return q


def wide_prime(rng, bits: int, medium: bool) -> tuple[int, dict[int, int]]:
    """A prime p of the given bit length with p - 1 factored by construction.

    p - 1 is 2**e times random primes below 2**17, plus one prime of 21 to 26
    bits when ``medium`` is set, which trial division below 2**20 cannot find.
    """
    while True:
        fac = {2: rng.randint(1, 3)}
        m = 1 << fac[2]
        if medium:
            q = _random_small_prime(rng, 1 << 20, 1 << 26)
            fac[q] = 1
            m *= q
        while m.bit_length() < bits - 17:
            q = rng.choice(SMALL_PRIMES[1:])
            fac[q] = fac.get(q, 0) + 1
            m *= q
        lo, hi = max(3, ((1 << (bits - 1)) + m - 1) // m), (1 << bits) // m
        if lo >= hi:
            continue
        q = _random_small_prime(rng, lo, hi) if hi < (1 << 32) else None
        if q is None or q in fac:
            continue
        fac[q] = 1
        p = m * q + 1
        if p.bit_length() == bits and lucas_certified(p, fac) is True:
            return p, fac


def order_mod_prime(a: int, p: int, pm1: dict[int, int]) -> int:
    """Order of a mod the prime p, stripping the known factors of p - 1."""
    e = p - 1
    for q, k in pm1.items():
        for _ in range(k):
            if pow(a, e // q, p) != 1:
                break
            e //= q
    return e


def wide_order(a: int, factors: dict[int, int], pm1: dict[int, dict[int, int]]) -> int:
    """Order of a mod prod p**k: the order mod p, lifted to p**k by powering
    up one factor of p at a time, then the lcm over the prime powers."""
    out = 1
    for p, k in factors.items():
        pk = p**k
        d = order_mod_prime(a % p, p, pm1[p])
        while pow(a, d, pk) != 1:
            d *= p
        out = math.lcm(out, d)
    return out


def wide_values(a: int, n: int, factors, pm1) -> dict[str, int]:
    """order, alpha and beta of a coprime a mod a wide n from its factors."""
    d = wide_order(a, factors, pm1)
    alpha = d // math.gcd(d, n)
    b = pow(a, n, n)
    beta = alpha
    if n > 2 and alpha % 2 == 0 and pow(b, alpha // 2, n) == n - 1:
        beta = alpha // 2
    return {"order": d, "alpha": alpha, "beta": beta}


# --- Steinhaus: closed form -------------------------------------------------


def _triangle_uv(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (u, v) with entry = u*c + v*d (mod n) for every entry of
    the triangle of a length-m progression (c, d)."""
    us, vs = [], []
    for i in range(m):
        j = np.arange(m - i, dtype=np.int64)
        if i == 0:
            u, v = 1, j % n
        else:
            u = pow(2, i, n)
            v = (pow(2, i - 1, n) * ((2 * j + i) % n)) % n
        us.append(np.full(m - i, u, dtype=np.int64))
        vs.append(np.asarray(v, dtype=np.int64))
    return np.concatenate(us), np.concatenate(vs)


def triangle_counts(seq, n: int) -> list[int]:
    """Residue multiplicities of the triangle of any sequence, row by row
    with numpy (row i+1 = row i + row i shifted by one)."""
    row = np.asarray(seq, dtype=np.int64) % n
    counts = np.zeros(n, dtype=np.int64)
    while row.size:
        counts += np.bincount(row, minlength=n)
        row = (row[:-1] + row[1:]) % n
    return counts.tolist()


def ap_counts(c: int, d: int, m: int, n: int) -> list[int]:
    """Triangle counts of the progression (c, d) of length m, closed form."""
    u, v = _triangle_uv(m, n)
    return np.bincount((u * c + v * d) % n, minlength=n).tolist()


@lru_cache(maxsize=None)
def balanced_aps(n: int, m: int) -> tuple[tuple[int, int], ...]:
    """Every balanced progression (c, d) in [0, n)**2 of length m, in
    lexicographic order; empty when there is none."""
    total = m * (m + 1) // 2
    if total % n:
        return ()
    u, v = _triangle_uv(m, n)
    pairs, weight = np.unique(u * n + v, return_counts=True)
    c = np.arange(n, dtype=np.int64)[:, None]
    d = np.arange(n, dtype=np.int64)[None, :]
    counts = np.zeros((n, n, n), dtype=np.int64)
    ci, di = np.broadcast_arrays(c, d)
    for uv, w in zip(pairs.tolist(), weight.tolist()):
        counts[ci, di, (uv // n * c + uv % n * d) % n] += w
    ok = (counts == total // n).all(axis=2)
    return tuple((int(x), int(y)) for x, y in np.argwhere(ok))

