"""Steinhaus triangles over Z/nZ.

The triangle of a finite sequence is the multiset of all iterated pairwise
sums: each row is the mod-n sums of adjacent entries of the row above, and a
length-m sequence contributes m(m+1)/2 entries in total.  A sequence is
balanced when every residue class appears equally often.  Balance forces
n | m(m+1)/2.

The triangle of a progression mod odd n has a closed form by row classes.
Entry j of row i of the triangle of the progression (c, d) is
2^i (c + y d) mod n with y = i/2 + j, which depends on y only mod
N = n/gcd(d, n).  So the rows whose i agree mod k = min(ord_n(2), m) share
the factor 2^i, and their entries, counted over y in Z/N, form one table per
class that does not depend on c or d.  ord_n(2) comes from the order engine
``orders._order_value``, as every other order in ordlift does.  Building the
tables takes O(k N) steps at any m, and they give a progression's counts in
O(m + k N) steps instead of m(m+1)/2.  ``triangle_counts`` counts a
progression this way when that costs fewer steps than the triangle has
entries, and otherwise steps whole rows packed into one int.
``search_balanced_ap`` builds the tables once per call, refuses a call
whose k tables of n counts would not fit in memory, and stops a call whose
candidates would add more than a fixed count of table entries in all; its
docstring says which pairs it counts.

The tests check these two, and their compiled twins in ``_kernels.pyx``,
against the literal row-by-row loop and the literal scan of all n**2
progressions in ``tests/oracles.py``, which shares no code with ordlift.
Sequences and triangle summaries are named tuples.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from itertools import accumulate
from math import gcd
from struct import pack

from ordlift.orders import _order_value

__all__ = [
    "TriangleSummary",
    "ZnSequence",
    "ap_sequence",
    "is_balanced",
    "length_admissible",
    "search_balanced_ap",
    "triangle",
]

# Field widths of the packed triangle rows, with their native struct formats.
_FIELDS = ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))
# Rows are counted in chunks of about this many bytes.
_CHUNK_BYTES = 1 << 16
# Up to this n, and on chunks of at least 8n byte fields, one bytes.count per
# residue beats a Python loop over the chunk: about 0.5n + 17 ns per entry
# plus 0.1-0.2 us per call, against 30-55 ns per entry.
_COUNT_BY_RESIDUE_MAX_N = 40
# Most row-class table entries, k * n, one search keeps.  Each entry is a
# list slot of 8 bytes, plus a 28-byte int once its count passes 256, so
# this bound holds the tables to 134-600 MB; building 2^24 entries took
# 0.8 s (x86-64, Python 3.11).  The benchmark's searches keep at most 500
# entries and a census of every odd n <= 201 at most 40,200.
_MAX_TABLE_ENTRIES = 1 << 24
# Most table entries, candidates times k * n, one search adds in all.  At
# 65-77 ns an entry (x86-64, Python 3.11), 2^25 of them take 2.2-2.6 s, so
# ``steinhaus search 4093 4092``, at 16.7M entries a candidate, exits 1 at
# its third candidate after 3.1-4.1 s, against 5.7-6.5 s at 2^26.  A search
# has at most n candidates, one per new r, and k <= n, so it adds at most
# n^3 entries: every odd n <= 321 stays under the bound at any length.  The
# searches of the tests and the benchmark add at most 6,500.
_MAX_SEARCH_STEPS = 1 << 25


class ZnSequence(namedtuple("ZnSequence", "modulus elements")):
    """A nonempty sequence of residues mod a positive modulus.

    A named tuple of (modulus, elements), checked on construction; ``len``
    is the number of elements.
    """

    __slots__ = ()

    def __new__(cls, modulus: int, elements: tuple[int, ...]):
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        if len(elements) < 1:
            raise ValueError("sequence must have length >= 1")
        for x in elements:
            if not 0 <= x < modulus:
                raise ValueError(f"element {x} not a residue mod {modulus}")
        return super().__new__(cls, modulus, elements)

    @classmethod
    def _make(cls, iterable) -> "ZnSequence":
        # The inherited _make skips __new__ and reads the field count through
        # len(), which here counts elements; _replace goes through this too.
        return cls(*iterable)

    @classmethod
    def from_integers(cls, modulus: int, values) -> "ZnSequence":
        """Build a sequence by reducing arbitrary integers mod the modulus."""
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        return cls(modulus, tuple(v % modulus for v in values))

    def __len__(self) -> int:
        return len(self.elements)


class TriangleSummary(
    namedtuple("TriangleSummary", "modulus length counts balanced")
):
    """Residue multiplicities of a triangle, plus the balance verdict.

    ``counts[r]`` is the multiplicity of residue r; the multiplicities always
    sum to length*(length+1)/2.
    """

    __slots__ = ()

    @property
    def total(self) -> int:
        return self.length * (self.length + 1) // 2


def triangle(seq: ZnSequence) -> TriangleSummary:
    """Triangle of a sequence: the residue counts of all its rows of
    pairwise sums, and whether they are balanced.  Raises ValueError, before
    counting, when the modulus is too large for one list of its counts."""
    counts = triangle_counts(seq.elements, seq.modulus)
    return TriangleSummary(
        modulus=seq.modulus,
        length=len(seq),
        counts=tuple(counts),
        balanced=min(counts) == max(counts),
    )


def is_balanced(seq: ZnSequence) -> bool:
    """True iff every residue class appears equally often in the triangle."""
    return triangle(seq).balanced


def length_admissible(m: int, n: int) -> bool:
    """True iff n divides m(m+1)/2, the entry count of a length-m triangle.

    This is necessary for a balanced sequence of length m to exist mod n.
    """
    if m < 1 or n < 1:
        raise ValueError(f"arguments must be >= 1, got ({m}, {n})")
    return (m * (m + 1) // 2) % n == 0


def ap_sequence(c: int, d: int, m: int, n: int) -> ZnSequence:
    """The arithmetic progression c, c+d, ..., c+(m-1)d reduced mod n."""
    if m < 1 or n < 1:
        raise ValueError(f"length and modulus must be >= 1, got ({m}, {n})")
    return ZnSequence(n, tuple((c + k * d) % n for k in range(m)))


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
    counts = _zero_counts(n)  # first, so a modulus too large fails at once
    residues = [x % n for x in elements]
    m = len(residues)
    ap = _progression(residues, n) if n % 2 and m else None
    if ap is not None:
        c, d = ap
        k = min(_order_value(2 % n, n)[0], m)
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


def _zero_counts(n: int) -> list[int]:
    """[0] * n, with a modulus too large for one list of n counts turned into
    a ValueError."""
    try:
        return [0] * n
    except (MemoryError, OverflowError):
        raise ValueError(
            f"modulus {n} is too large: the triangle keeps one count per residue"
        ) from None


def _progression(residues: list[int], n: int):
    """(start, step) of the residues if they form a progression mod n, else
    None."""
    c = residues[0]
    d = (residues[1] - c) % n if len(residues) > 1 else 0
    if any(r != (c + j * d) % n for j, r in enumerate(residues)):
        return None
    return c, d


def _row_class(a: int, k: int, m: int, big_n: int) -> list[int]:
    """Entry counts over y in Z/N of the rows i = a (mod k) of a length-m
    progression triangle, N odd; the module docstring says what y is.

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
    """Add one row class of the progression (c, d) mod odd n to counts:
    ``table`` holds its entry counts over y in Z/N, and u = 2^i mod n is the
    factor its rows share."""
    x, step = u * c % n, u * d % n
    for t in table:
        counts[x] += t
        x += step
        if x >= n:
            x -= n


def _row_classes(k: int, m: int, n: int, big_n: int):
    """(2^a mod n, the table of the rows i = a (mod k)) for a = 0, ..., k-1,
    each table built when it is reached."""
    u = 1 % n
    for a in range(k):
        yield u, _row_class(a, k, m, big_n)
        u = 2 * u % n


def _add_progression(counts: list[int], c: int, d: int, m: int, n: int, k: int) -> None:
    """Add the triangle of the length-m progression (c, d) mod odd n to
    counts, one row class at a time; k is min(ord_n(2), m)."""
    for u, table in _row_classes(k, m, n, n // gcd(d, n)):
        _add_row_class(counts, table, u, c, d, n)


def search_balanced_ap(n: int, m: int):
    """First (start, step) pair in [0,n)^2, in lexicographic order, whose
    length-m arithmetic progression is balanced mod n; None if there is none.

    Odd n only: that is where balanced progressions are known to exist for
    lengths in the right congruence classes, and the scan is not meaningful
    outside it.  Admissible lengths outside those classes may legitimately
    return None.  At an admissible length, where n divides m(m+1)/2, it
    raises ValueError before any table is built when n is too large for one
    list of n counts, or when the k tables of n counts would hold more than
    _MAX_TABLE_ENTRIES; at any other length it returns None first.  It also
    raises ValueError, with no pair, at the candidate that would take the
    entries added over all candidates past _MAX_SEARCH_STEPS.

    A step d that shares a factor g > 1 with n is skipped: mod g every
    entry (i, j) is 2^i c, so the entries miss the residues = 0 mod g when
    c is not = 0 mod g, and all others when it is.  So N = n for every
    candidate, and the k row-class tables over Z/n are built once per call.

    Scaling by a unit, (c, d) -> (uc, ud), and reversal, (c, d) ->
    (c + (m-1)d, -d), preserve balance, and only the least pair of each
    orbit they generate is counted.  Scaling by 1/d takes (c, d) to (r, 1),
    r = c/d, and reversal takes r to 1 - m - r, so a pair is counted only
    when its r is new.  That pair is its orbit's least: the least c of a
    unit orbit is 0 or a proper divisor of n, the only starts scanned.  So
    the first balanced pair counted is the first of the whole scan.
    """
    if n < 1 or m < 1:
        raise ValueError(f"arguments must be >= 1, got ({n}, {m})")
    if n % 2 == 0:
        raise ValueError(f"search_balanced_ap requires odd n, got {n}")
    total = m * (m + 1) // 2
    if total % n:
        return None
    target = total // n
    counts = _zero_counts(n)  # first, so a modulus too large fails at once
    k = min(_order_value(2 % n, n)[0], m)
    if k * n > _MAX_TABLE_ENTRIES:
        raise ValueError(
            f"modulus {n} is too large: a length-{m} search keeps {k} row-class "
            f"tables of {n} counts"
        )
    classes = list(_row_classes(k, m, n, n))
    seen = set()
    steps = 0
    for c in range(n):
        if gcd(c, n) % n != c:  # no pair of this row is least in its orbit
            continue
        for d in range(n):
            if gcd(d, n) != 1:
                continue
            rep = c * pow(d, -1, n) % n
            if rep in seen:
                continue
            seen.add(rep)
            seen.add((1 - m - rep) % n)
            steps += k * n
            if steps > _MAX_SEARCH_STEPS:
                raise ValueError(
                    f"search is too long: a length-{m} search mod {n} adds "
                    f"{k * n} table entries per candidate, past "
                    f"{_MAX_SEARCH_STEPS} in all"
                )
            for u, table in classes:
                _add_row_class(counts, table, u, c, d, n)
            if all(v == target for v in counts):
                return (c, d)
            counts = [0] * n
    return None
