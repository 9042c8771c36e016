"""Drift scaling against a pure-Python reference loop.

The host is shared, so its speed drifts by tens of percent within minutes.
Every timed sample is taken next to timings of ``reference_loop`` (dict
updates, ``pow`` and calls, no ordlift) and rescaled as if the loop had
taken its fixed nominal time:

    scaled = raw * NOMINAL_S / (median of the loop timings around the sample)

The scaled figures measure ordlift relative to the interpreter's speed at
that moment; the raw ones are reported beside them.

This module imports nothing but ``time``, so that a fresh interpreter can
load it before ``import ordlift`` without pre-loading anything ordlift needs.
"""

import time

NOMINAL_S = 0.001
_LOOP_ITERS = 1200


def reference_loop() -> int:
    table = {}
    x = 7
    for i in range(_LOOP_ITERS):
        x = pow(x, 5, 1_000_003) + i
        key = x & 4095
        table[key] = table.get(key, 0) + (x >> 12)
    return len(table)


def loop_sample() -> float:
    """Seconds taken by one run of the reference loop."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def median(xs):
    s = sorted(xs)
    k = len(s) // 2
    return s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2


def scale_factors(loops, chunks: int, halfwidth: int = 2) -> list:
    """Factor for each of ``chunks`` timed stretches, where loop sample k was
    taken before stretch k and the last one after the last stretch: NOMINAL_S
    over the median of the samples within ``halfwidth`` of that stretch."""
    return [NOMINAL_S / median(loops[max(0, k + 1 - halfwidth) : k + 1 + halfwidth])
            for k in range(chunks)]


def tail(samples) -> tuple:
    """(percentile, value, sample count) for the highest of the 90th, 99th
    and 99.9th percentiles that has at least ten samples beyond it; the
    median when there are fewer than 100 samples."""
    xs = sorted(samples)
    pct = 0.5
    for p in (0.9, 0.99, 0.999):
        if len(xs) * (1 - p) >= 10:
            pct = p
    return pct, xs[min(len(xs) - 1, int(pct * len(xs)))], len(xs)
