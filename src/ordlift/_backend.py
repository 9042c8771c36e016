"""Kernel dispatch: compiled extension when built, pure Python otherwise.

The compiled kernels do 64-bit arithmetic with 128-bit intermediates, so
dispatch also routes oversized operands to the pure-Python versions.  The
progression search always runs in pure Python.  The compiled full scan of
all n**2 progressions was faster on the traced benchmark run's six searches
at m = 2n, n = 13..25: 96 us against 122 us per search (``BENCH_8.json``).
At the paper's lengths for n = 29 and odd n from 37 to 61 the pure orbit
search took 19 ms for all 44 searches against 639 ms.
"""

from __future__ import annotations

from ordlift import _pykernels

try:
    from ordlift import _kernels
except ImportError:  # extension not built
    _kernels = None

BACKEND = "compiled" if _kernels is not None else "pure-python"

_SCAN_LIMIT = 1 << 62  # modulus bound for the 64-bit scan loops
_COUNTS_LIMIT = 10**7  # modulus bound for C-side count arrays
_LENGTH_LIMIT = 1 << 24  # sequence-length bound for C-side row buffers


def order_scan(base: int, n: int) -> int:
    if _kernels is not None and n < _SCAN_LIMIT:
        return _kernels.order_scan(base, n)
    return _pykernels.order_scan(base, n)


def proj_order_scan(base: int, n: int) -> int:
    if _kernels is not None and n < _SCAN_LIMIT:
        return _kernels.proj_order_scan(base, n)
    return _pykernels.proj_order_scan(base, n)


def triangle_counts(elements, n: int) -> list[int]:
    if _kernels is not None and n <= _COUNTS_LIMIT and len(elements) <= _LENGTH_LIMIT:
        return _kernels.triangle_counts(elements, n)
    return _pykernels.triangle_counts(elements, n)


def search_balanced_ap(n: int, m: int):
    return _pykernels.search_balanced_ap(n, m)
