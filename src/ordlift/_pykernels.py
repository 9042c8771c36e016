"""Pure-Python kernels for the hot loops.

These are the only kernels ordlift runs.  The scans are literal loops and
double as the reference the compiled twins in ``_kernels.pyx`` are tested
against.  The others are not literal.

- Row classes.  Entry j of row i of the triangle of the progression (c, d)
  mod odd n is 2^i (c + (i/2 + j) d).  So the rows whose i agree mod
  k = min(ord_n(2), m) share the factor 2^i, and their entries, counted
  over y = i/2 + j mod N = n/gcd(d, n), form one table per class that does
  not depend on c or d.  Building them takes O(k N) steps at any m, and
  they give a progression's counts in O(m + k N) steps instead of
  m(m+1)/2.
- ``triangle_counts`` takes the row classes when its input is a progression
  mod odd n and that bound is below the entry count.  Otherwise it steps
  whole rows packed into one int and counts them in byte chunks.
- ``search_balanced_ap`` takes odd n only.  It tests one progression per
  symmetry orbit, with a unit step, and counts it with row-class tables
  built once per call.

The tests check ``triangle_counts`` and ``search_balanced_ap``, and their
compiled twins, against the literal row-by-row loop and the literal scan of
all n**2 progressions built on it, in ``tests/oracles.py``, which shares no
code with ordlift.
"""

from __future__ import annotations

import sys
from itertools import accumulate
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

    A progression mod odd n is counted by row classes, one class at a time
    in O(n + N) memory, whenever m + k N <= m(m+1)/2 (see the module
    docstring).  Otherwise each row is one int of w-bit fields, w the
    smallest of 8, 16, 32, 64 with 2^(w-1) >= n.  The next row is
    (row & low fields) + (row >> w): sums below 2n <= 2^w, so no field
    carries into the next.  Adding 2^(w-1) - n to every field sets a field's
    top bit exactly where its sum is >= n, and those fields get n
    subtracted.  Rows are exported as bytes and counted in chunks of about
    _CHUNK_BYTES, so memory stays O(m + chunk).
    """
    counts = [0] * n  # first, so a modulus too large to count fails at once
    residues = [x % n for x in elements]
    m = len(residues)
    ap = _progression(residues, n) if n % 2 and m else None
    if ap is not None:
        c, d = ap
        k = _doubling_period(n, m)
        if m + k * (n // gcd(d, n)) <= m * (m + 1) // 2:
            _add_progression(counts, c, d, m, n, k)
            return counts
    # A list of n counts fits in memory only for n far below 2^63.
    w, fmt = next(field for field in _FIELDS if 1 << (field[0] - 1) >= n)
    size = w // 8
    order = sys.byteorder
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


def _progression(residues: list[int], n: int):
    """(start, step) of the residues if they form a progression mod n, else
    None."""
    c = residues[0]
    d = (residues[1] - c) % n if len(residues) > 1 else 0
    if any(r != (c + j * d) % n for j, r in enumerate(residues)):
        return None
    return c, d


def _doubling_period(n: int, m: int) -> int:
    """min(ord_n(2), m) for odd n, found with at most m doublings."""
    one = 1 % n
    x = 2 % n
    for k in range(1, m):
        if x == one:
            return k
        x = 2 * x % n
    return m


def _row_class(a: int, k: int, m: int, big_n: int) -> list[int]:
    """Entry counts over y in Z/N of the rows i = a (mod k) of a length-m
    progression triangle, N odd; see ``_add_row_class`` for what y is.

    Row i, of length m - i, covers y = i/2, i/2 + 1, ... mod N: its full
    periods add to every y alike, and its partial run is one interval,
    marked in a difference array.  The table is the prefix sums.

    Row i + kN of the length-m triangle is row i of the length-(m - kN)
    one: same length, same start.  So T(m) = T(m - kN) + B(m), where B(m)
    counts the N rows i < kN, and B(m + kN) = B(m) + kN once m >= kN, as
    each of those rows gains k full periods.  With j, m0 = divmod(m, kN),
    that sums to T(m) = T(m0) + j (T(m0 + kN) - T(m0)) + kN j(j - 1)/2, so
    any m costs O(N) rows.
    """
    span = k * big_n
    if m >= 2 * span:
        j, m0 = divmod(m, span)
        low = _row_class(a, k, m0, big_n)
        high = _row_class(a, k, m0 + span, big_n)
        c = span * j * (j - 1) // 2
        return [x + j * (y - x) + c for x, y in zip(low, high)]
    half = (big_n + 1) // 2  # the inverse of 2 mod N
    full = 0
    diff = [0] * (big_n + 1)
    for i in range(a, m, k):
        q, r = divmod(m - i, big_n)
        full += q
        if r:
            s = i * half % big_n
            diff[s] += 1
            e = s + r
            if e > big_n:  # the run wraps past N - 1 to 0
                diff[0] += 1
                e -= big_n
            diff[e] -= 1
    diff.pop()
    return [full + x for x in accumulate(diff)]


def _add_row_class(
    counts: list[int], table: list[int], u: int, c: int, d: int, n: int
) -> None:
    """Add one row class of the progression (c, d) mod odd n to counts.

    Entry j of row i is 2^i (c + y d) mod n with y = i/2 + j, which depends
    on y only mod N = n/gcd(d, n).  The rows of a class share u = 2^i mod n,
    and ``table`` holds their entry counts over y in Z/N.
    """
    x, step = u * c % n, u * d % n
    for t in table:
        counts[x] += t
        x += step
        if x >= n:
            x -= n


def _add_progression(counts: list[int], c: int, d: int, m: int, n: int, k: int) -> None:
    """Add the triangle of the length-m progression (c, d) mod odd n to
    counts, one row class at a time; k is min(ord_n(2), m)."""
    big_n = n // gcd(d, n)
    u = 1 % n
    for a in range(k):
        _add_row_class(counts, _row_class(a, k, m, big_n), u, c, d, n)
        u = 2 * u % n


def _least_unit(x: int, k: int, n: int) -> int:
    """Smallest unit mod n that is = x (mod k), k | n: a short step search
    from x mod k."""
    y = x % k
    while gcd(y, n) != 1:
        y += k
    return y


def _orbit_least(c: int, d: int, m: int, n: int) -> bool:
    """True iff the progression (c, d) of length m is the lexicographically
    smallest pair of its orbit under unit scaling, (c, d) -> (uc, ud), and
    reversal, (c, d) -> (c + (m-1)d, -d).  Both maps preserve balance.

    The search asks only about c = 0 or a proper divisor of n, where the
    unit orbit of c starts, and d a unit mod n; other pairs are outside
    this contract.
    """
    h = gcd(c, n)
    k = n // h  # the units fixing c are those = 1 (mod k)
    if _least_unit(d, k, n) != d:
        return False
    c2 = (c + (m - 1) * d) % n
    h2 = gcd(c2, n) % n
    if h2 != c:
        return h2 > c
    # The reversed pairs that start with c are u*(c2, -d) for the units u
    # with u*c2 = c: one such u times the units fixing c.  Only u mod k
    # matters, so u need not be lifted to a unit mod n.
    u = pow(c2 // h, -1, k)
    return _least_unit(u * -d, k, n) >= d


def search_balanced_ap(n: int, m: int):
    """First (start, step) in [0,n)^2, scanned lexicographically, whose
    length-m arithmetic progression has a balanced triangle mod n; None if
    none.  n must be odd: ``steinhaus.search_balanced_ap`` rejects even n.

    Balance is the same for every pair of a symmetry orbit, so only the
    smallest pair of each orbit is counted: the first balanced one is the
    first balanced pair of the whole scan.

    A step d that shares a factor g > 1 with n is skipped: mod g every
    entry (i, j) is 2^i c, so the entries miss the residues = 0 mod g when
    c is not = 0 mod g, and all others when it is.  So N = n for every
    candidate, and the k row-class tables over Z/n are built once per call
    and shared by all of them.
    """
    total = m * (m + 1) // 2
    if total % n:
        return None
    target = total // n
    counts = [0] * n  # first, so a modulus too large to count fails at once
    k = _doubling_period(n, m)
    classes = [(pow(2, a, n), _row_class(a, k, m, n)) for a in range(k)]
    for c in range(n):
        if gcd(c, n) % n != c:  # no pair of this row is least in its orbit
            continue
        for d in range(n):
            if gcd(d, n) != 1 or not _orbit_least(c, d, m, n):
                continue
            for u, table in classes:
                _add_row_class(counts, table, u, c, d, n)
            if all(v == target for v in counts):
                return (c, d)
            counts = [0] * n
    return None
