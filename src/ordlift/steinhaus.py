"""Steinhaus triangles over Z/nZ.

The triangle of a finite sequence is the multiset of all iterated pairwise
sums: each row is the mod-n sums of adjacent entries of the row above, and a
length-m sequence contributes m(m+1)/2 entries in total.  A sequence is
balanced when every residue class appears equally often.  Balance forces
n | m(m+1)/2.

The triangle of a progression mod odd n has a closed form by row classes:
row i is 2^i times a shifted progression, so rows whose i agree mod
ord_n(2) share one table of counts that does not depend on the
progression.  The pure-Python progression search builds those tables once
per call and tests one progression per orbit of the two maps that preserve
balance, scaling by a unit and reversal.  ``triangle`` counts a progression
the same way when that costs fewer steps than the triangle has entries.
Sequences and triangle summaries are named tuples.
"""

from __future__ import annotations

from collections import namedtuple

from ordlift import _pykernels

__all__ = [
    "TriangleSummary",
    "ZnSequence",
    "ap_sequence",
    "is_balanced",
    "length_admissible",
    "search_balanced_ap",
    "triangle",
]


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


def _count(n: int, kernel, *args):
    """kernel(*args), with a modulus n too large for one list of n counts
    turned into a ValueError."""
    try:
        return kernel(*args)
    except (MemoryError, OverflowError):  # no list of n counts fits
        raise ValueError(
            f"modulus {n} is too large: the triangle keeps one count per residue"
        ) from None


def triangle(seq: ZnSequence) -> TriangleSummary:
    """Triangle of a sequence: the residue counts of all its rows of
    pairwise sums, and whether they are balanced.  Raises ValueError, before
    counting, when the modulus is too large for one list of its counts."""
    counts = _count(seq.modulus, _pykernels.triangle_counts, seq.elements, seq.modulus)
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


def search_balanced_ap(n: int, m: int):
    """First (start, step) pair in [0,n)^2, in lexicographic order, whose
    length-m arithmetic progression is balanced mod n; None if there is none.

    The search visits the pairs in that order but counts only the smallest
    pair of each orbit under (c, d) -> (uc, ud) for units u and
    (c, d) -> (c + (m-1)d, -d), both of which preserve balance, and skips
    steps that share a factor with n, which are never balanced; the result
    is still the lexicographically first witness of the full scan.  Each
    candidate's triangle is counted in closed form by row classes, from k
    tables of n counts, k = min(ord_n(2), m), built once per call.

    Odd n only: that is where balanced progressions are known to exist for
    lengths in the right congruence classes, and the scan is not meaningful
    outside it.  Admissible lengths outside those classes may legitimately
    return None.  Raises ValueError, before any table is built, when n is
    too large for one list of n counts.
    """
    if n < 1 or m < 1:
        raise ValueError(f"arguments must be >= 1, got ({n}, {m})")
    if n % 2 == 0:
        raise ValueError(f"search_balanced_ap requires odd n, got {n}")
    return _count(n, _pykernels.search_balanced_ap, n, m)
