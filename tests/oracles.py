"""Literal references for the triangle and search tests.

Every row is built from the one above, entry by entry, and the search scans
all n**2 progressions in order.  None of this shares code with ordlift's
kernels, so the tests that compare against it check them independently.
"""

from functools import cache


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
