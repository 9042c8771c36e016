"""Pure-Python kernels for the hot loops.

The compiled twin in ``_kernels.pyx`` implements exactly the same contracts;
``_backend`` picks whichever is available.  The scans and ``triangle_counts``
are literal loops and double as the reference the compiled kernels are tested
against.  ``search_balanced_ap`` is not a literal scan: it tests one
progression per symmetry orbit and counts its triangle in closed form, so the
compiled full scan and the literal ``is_balanced(ap_sequence(...))`` scan in
the tests are the references it is checked against.
"""

from __future__ import annotations

from math import gcd

__all__ = ["order_scan", "proj_order_scan", "search_balanced_ap", "triangle_counts"]


def order_scan(base: int, n: int) -> int:
    """Smallest e >= 1 with base**e = 1 mod n, found by literal iteration.

    The caller guarantees gcd(base, n) = 1; the cap at n iterations turns a
    violated precondition into an error instead of a hang.
    """
    if n == 1:
        return 1
    b = base % n
    x = b
    e = 1
    while x != 1:
        x = x * b % n
        e += 1
        if e > n:
            raise ValueError("iteration cap hit: base not coprime to modulus")
    return e


def proj_order_scan(base: int, n: int) -> int:
    """Smallest e >= 1 with base**e = +-1 mod n, found by literal iteration."""
    if n <= 2:
        return order_scan(base, n)
    b = base % n
    x = b
    e = 1
    while x != 1 and x != n - 1:
        x = x * b % n
        e += 1
        if e > n:
            raise ValueError("iteration cap hit: base not coprime to modulus")
    return e


def triangle_counts(elements, n: int) -> list[int]:
    """Residue multiplicities of the iterated pairwise-sum triangle.

    Row r+1 entry j is (row r entry j + row r entry j+1) mod n; counts cover
    all m(m+1)/2 entries of an m-element input.
    """
    row = [x % n for x in elements]
    counts = [0] * n
    for x in row:
        counts[x] += 1
    while len(row) > 1:
        row = [(row[i] + row[i + 1]) % n for i in range(len(row) - 1)]
        for x in row:
            counts[x] += 1
    return counts


def _ap_counts(c: int, d: int, m: int, n: int) -> list[int]:
    """``triangle_counts`` of the progression c, c+d, ..., c+(m-1)d mod n, in
    closed form.

    Row i of the triangle is again a progression, with start s and step t,
    and row i+1 has start 2s+t and step 2t.  A row of length L repeats with
    period P = n/gcd(t, n): each of its L // P full periods adds one to every
    residue of the coset s + gcd(t, n)Z, and only the L % P entries left over
    are counted one by one.  The coset additions are kept per gcd and spread
    over the residues once at the end.
    """
    counts = [0] * n
    per_coset: dict[int, list[int]] = {}  # gcd g -> additions per residue mod g
    s, t = c % n, d % n
    for length in range(m, 0, -1):
        g = gcd(t, n)  # recomputed per row: for even n, 2t can share more with n
        q, r = divmod(length, n // g)
        if q:
            if g not in per_coset:
                per_coset[g] = [0] * g
            per_coset[g][s % g] += q
        if r:
            for x in range(s, s + r * t, t):
                counts[x % n] += 1
        s, t = (2 * s + t) % n, 2 * t % n
    for g, added in per_coset.items():
        for x in range(n):
            counts[x] += added[x % g]
    return counts


def _unit_orbit_min(x: int, k: int, n: int) -> int:
    """Smallest residue u*x mod n over the units u = 1 (mod k), k | n.

    With h = gcd(x, n) and x = h*x1, the orbit is h times the units y1 mod
    n/h with y1 = x1 (mod gcd(k, n/h)); the first such y1 is a short step
    search from x1 mod gcd(k, n/h).
    """
    h = gcd(x, n)
    n1 = n // h
    step = gcd(k, n1)
    y = (x // h) % step
    while gcd(y, n1) != 1:
        y += step
    return h * y


def _orbit_least(c: int, d: int, m: int, n: int) -> bool:
    """True iff the progression (c, d) of length m is the lexicographically
    smallest pair of its orbit under unit scaling, (c, d) -> (uc, ud), and
    reversal, (c, d) -> (c + (m-1)d, -d).  Both maps preserve balance.
    """
    h = gcd(c, n)
    if h % n != c:  # the unit orbit of c starts at gcd(c, n), or at 0
        return False
    k = n // h  # the units fixing c are those = 1 (mod k)
    if _unit_orbit_min(d, k, n) != d:
        return False
    c2 = (c + (m - 1) * d) % n
    h2 = gcd(c2, n) % n
    if h2 != c:
        return h2 > c
    # The reversed pairs that start with c are u*(c2, -d) for the units u
    # with u*c2 = c: one such unit times the units fixing c.
    u = pow(c2 // h, -1, k)
    while gcd(u, n) != 1:
        u += k
    return _unit_orbit_min(u * -d % n, k, n) >= d


def search_balanced_ap(n: int, m: int):
    """First (start, step) in [0,n)^2, scanned lexicographically, whose
    length-m arithmetic progression has a balanced triangle; None if none.

    Balance is the same for every pair of a symmetry orbit, so only the
    smallest pair of each orbit is counted: the first balanced one is the
    first balanced pair of the whole scan.
    """
    total = m * (m + 1) // 2
    if total % n:
        return None
    target = total // n
    for c in range(n):
        if gcd(c, n) % n != c:  # no pair of this row is least in its orbit
            continue
        for d in range(n):
            if _orbit_least(c, d, m, n) and all(
                v == target for v in _ap_counts(c, d, m, n)
            ):
                return (c, d)
    return None
