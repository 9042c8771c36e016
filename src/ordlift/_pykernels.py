"""Pure-Python kernels for the hot loops.

The compiled twin in ``_kernels.pyx`` implements the same contracts.
``_backend`` picks the compiled scans and triangle counts when they are
built, and always this module's search.  The scans are literal loops and
double as the reference the compiled scans are tested against.  The others
are not literal: ``triangle_counts`` steps whole rows packed into one int
and counts them in byte chunks, and ``search_balanced_ap`` tests one
progression per symmetry orbit and counts its triangle in closed form.  The
literal row-by-row loop and the literal ``is_balanced(ap_sequence(...))``
scan in the tests, and the compiled kernels, are the references they are
checked against.
"""

from __future__ import annotations

import sys
from math import gcd
from struct import pack

__all__ = ["order_scan", "proj_order_scan", "search_balanced_ap", "triangle_counts"]

# Field widths of the packed triangle rows, with their native struct formats.
_FIELDS = ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))
# Rows are counted in chunks of about this many bytes.
_CHUNK_BYTES = 1 << 16
# Up to this n, and on chunks of at least 8n byte fields, one bytes.count per
# residue beats a Python loop over the chunk: about 0.5n + 17 ns per entry
# plus 0.1-0.2 us per call, against 30-55 ns per entry.
_COUNT_BY_RESIDUE_MAX_N = 40


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

    Each row is one int of w-bit fields, w the smallest of 8, 16, 32, 64 with
    2^(w-1) >= n.  The next row is (row & low fields) + (row >> w): sums below
    2n <= 2^w, so no field carries into the next.  Adding 2^(w-1) - n to every
    field sets a field's top bit exactly where its sum is >= n, and those
    fields get n subtracted.  Rows are exported as bytes and counted in
    chunks of about _CHUNK_BYTES, so memory stays O(m + chunk).
    """
    counts = [0] * n  # first, so a modulus too large to count fails at once
    # A list of n counts fits in memory only for n far below 2^63.
    w, fmt = next(field for field in _FIELDS if 1 << (field[0] - 1) >= n)
    size = w // 8
    order = sys.byteorder
    residues = [x % n for x in elements]
    m = len(residues)
    row = int.from_bytes(pack(f"{m}{fmt}", *residues), order)
    ones = int.from_bytes(pack(fmt, 1) * m, order)
    bias = ((1 << (w - 1)) - n) * ones
    low = ((1 << w) - 1) * ones
    by_residue = size == 1 and n <= _COUNT_BY_RESIDUE_MAX_N
    parts, filled = [], 0
    for length in range(m, 0, -1):
        parts.append(row.to_bytes(length * size, order))
        filled += length * size
        if filled >= _CHUNK_BYTES or length == 1:
            chunk = b"".join(parts)
            parts, filled = [], 0
            if by_residue and len(chunk) >= 8 * n:
                for x in range(n):
                    counts[x] += chunk.count(x)
            else:
                for x in chunk if size == 1 else memoryview(chunk).cast(fmt):
                    counts[x] += 1
        low >>= w
        s = (row & low) + (row >> w)
        row = s - ((s + bias) >> (w - 1) & ones) * n
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
