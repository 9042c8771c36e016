"""The four kernel names the benchmark's tracer wraps, under one module.

The scans live in ``orders`` and the triangle kernels in ``steinhaus``.
Each name here is the very object those modules call, so the tracer, which
swaps its recorder in for every reference to such an object, sees every
call.  ordlift itself never imports this module; it goes with ``_backend``
once the benchmark no longer needs them (ROADMAP items 1a and 2).
"""

from ordlift.orders import order_scan, proj_order_scan
from ordlift.steinhaus import search_balanced_ap, triangle_counts

__all__ = ["order_scan", "proj_order_scan", "search_balanced_ap", "triangle_counts"]
