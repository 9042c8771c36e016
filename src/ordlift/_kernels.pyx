# cython: language_level=3
# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernels for the hot loops.

Same contracts as ``_pykernels``, for operands that fit the 64-bit fast
path.  ordlift never imports this module: only the benchmark's traced run
builds it, to time it against the pure-Python kernels.
"""

from libc.stdlib cimport calloc, free, malloc
from libc.string cimport memset

ctypedef unsigned long long u64

cdef extern from *:
    ctypedef unsigned long long u128 "unsigned __int128"


cdef inline u64 _mulmod(u64 a, u64 b, u64 n) noexcept nogil:
    return <u64>((<u128>a * b) % n)


def order_scan(base, n):
    """Smallest e >= 1 with base**e = 1 mod n, by literal iteration."""
    cdef u64 cn = n
    if cn == 1:
        return 1
    cdef u64 b = base % n
    cdef u64 x = b
    cdef u64 e = 1
    with nogil:
        while x != 1:
            x = _mulmod(x, b, cn)
            e += 1
            if e > cn:
                break
    if e > cn:
        raise ValueError("iteration cap hit: base not coprime to modulus")
    return e


def proj_order_scan(base, n):
    """Smallest e >= 1 with base**e = +-1 mod n, by literal iteration."""
    cdef u64 cn = n
    if cn <= 2:
        return order_scan(base, n)
    cdef u64 b = base % n
    cdef u64 x = b
    cdef u64 e = 1
    with nogil:
        while x != 1 and x != cn - 1:
            x = _mulmod(x, b, cn)
            e += 1
            if e > cn:
                break
    if e > cn:
        raise ValueError("iteration cap hit: base not coprime to modulus")
    return e


def triangle_counts(elements, n):
    """Residue multiplicities of the iterated pairwise-sum triangle."""
    cdef u64 cn = n
    cdef Py_ssize_t m = len(elements)
    cdef u64 *row = <u64 *>malloc(m * sizeof(u64))
    cdef long long *counts = <long long *>calloc(cn, sizeof(long long))
    if row == NULL or counts == NULL:
        free(row)
        free(counts)
        raise MemoryError()
    cdef Py_ssize_t i, length
    cdef u64 s
    try:
        for i in range(m):
            row[i] = elements[i] % n
        with nogil:
            for i in range(m):
                counts[row[i]] += 1
            length = m
            while length > 1:
                for i in range(length - 1):
                    s = row[i] + row[i + 1]
                    if s >= cn:
                        s -= cn
                    row[i] = s
                    counts[s] += 1
                length -= 1
        return [counts[i] for i in range(<Py_ssize_t>cn)]
    finally:
        free(row)
        free(counts)


cdef bint _ap_balanced(u64 c, u64 d, Py_ssize_t m, u64 n, u64 *row,
                       long long *counts, long long target) noexcept nogil:
    cdef Py_ssize_t i, length
    cdef u64 val = c
    cdef u64 s
    memset(counts, 0, n * sizeof(long long))
    for i in range(m):
        row[i] = val
        counts[val] += 1
        val += d
        if val >= n:
            val -= n
    length = m
    while length > 1:
        for i in range(length - 1):
            s = row[i] + row[i + 1]
            if s >= n:
                s -= n
            row[i] = s
            counts[s] += 1
        length -= 1
    for i in range(<Py_ssize_t>n):
        if counts[i] != target:
            return False
    return True


def search_balanced_ap(n, m):
    """First (start, step) in [0,n)^2 whose AP triangle is balanced, or None."""
    cdef u64 cn = n
    cdef Py_ssize_t cm = m
    total = m * (m + 1) // 2
    if total % n:
        return None
    cdef long long target = total // n
    cdef u64 *row = <u64 *>malloc(cm * sizeof(u64))
    cdef long long *counts = <long long *>calloc(cn, sizeof(long long))
    if row == NULL or counts == NULL:
        free(row)
        free(counts)
        raise MemoryError()
    cdef u64 c = 0, d = 0
    cdef bint found = False
    try:
        with nogil:
            for c in range(cn):
                for d in range(cn):
                    if _ap_balanced(c, d, cm, cn, row, counts, target):
                        found = True
                        break
                if found:
                    break
        if found:
            return (c, d)
        return None
    finally:
        free(row)
        free(counts)
