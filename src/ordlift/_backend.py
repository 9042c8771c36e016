"""The four kernel names under ``ordlift._backend``, for the benchmark's tracer.

ordlift itself never imports this module: ``orders`` and ``steinhaus`` hold
the kernels, and both this module and ``_pykernels`` only re-export them for
the tracer.  It exists only because ``perfbench/tracing.py`` imports it and
wraps ``_backend.<kernel>``; it goes once the benchmark no longer needs it
(ROADMAP items 1a and 2).
"""

from ordlift._pykernels import order_scan, proj_order_scan, search_balanced_ap, triangle_counts
