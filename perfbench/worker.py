"""Library passes in a fresh interpreter.

Run by run.py as ``python3 perfbench/worker.py JOB_FILE MODE WARM_PASSES``
with ordlift's ``src`` on PYTHONPATH.  It makes one cold pass over the job's
calls with the lru caches empty, then WARM_PASSES warm passes, checks every
result against the job's expected value, and prints one JSON summary line.
In ``trace`` mode it repeats the passes with span recording on, between two
untraced repetitions, and adds the per-layer probes.

The job file is JSON lines: the job without its calls, then one call per
line, read one line at a time so that loading leaves no transient peak.
``rss_mb`` is the peak RSS of this process (``VmHWM``, which, unlike
``ru_maxrss``, does not inherit the parent's peak) minus the RSS the loaded
job takes, so it counts the interpreter, ordlift and the passes.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from array import array

import timing

import ordlift
from ordlift import arith, orders

LOOP_EVERY_NS = 20_000_000
CACHES = (arith._factor_pairs, orders._order_value)

# Calls that build their argument first; every other call name is the
# ordlift function of that name.
_BUILT = {
    "lift_order": lambda n1, n2, a: ordlift.lift_order(ordlift.make_base_pair(n1, n2), a),
    "lift_alpha": lambda n1, n2, a: ordlift.lift_alpha(ordlift.make_base_pair(n1, n2), a),
    "lift_beta": lambda n1, n2, a: ordlift.lift_beta(ordlift.make_base_pair(n1, n2), a),
    "triangle": lambda n, seq: ordlift.triangle(ordlift.ZnSequence(n, tuple(seq))),
}


def call(name: str):
    """The function for a job's call, looked up in the package namespace at
    call time, so that the span recorders, once installed, see it."""
    return _BUILT.get(name) or getattr(ordlift, name)


def plain(result):
    """A call's result in the job's JSON form."""
    if isinstance(result, Exception):
        return f"error: {type(result).__name__}: {result}"
    if isinstance(result, ordlift.OrderRecord):
        return result.order
    if isinstance(result, ordlift.Factorization):
        return [list(f) for f in result.factors]
    if isinstance(result, ordlift.TriangleSummary):
        return [result.balanced, list(result.counts)]
    if isinstance(result, tuple):
        return list(result)
    return result


def clear_caches() -> None:
    for cache in CACHES:
        cache.cache_clear()


def cache_info() -> list:
    return [c.cache_info() for c in CACHES]


def timed_pass(ops, keep_samples=False) -> dict:
    """One pass: per-call times, loop samples every LOOP_EVERY_NS, checks.
    Each result is checked as soon as its call is timed."""
    clock = time.perf_counter_ns
    raw, loops, marks = array("q"), [], []
    failed, wrong = 0, []
    due = 0
    for i, (name, args, expect, fault) in enumerate(ops):
        if clock() >= due:
            loops.append(timing.loop_sample())
            marks.append(i)
            due = clock() + LOOP_EVERY_NS
        fn = call(name)
        t0 = clock()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed call is counted, not fatal
            out = exc
        raw.append(clock() - t0)
        got = plain(out)
        if got != expect:
            failed += 1
            if not fault and len(wrong) < 5:
                wrong.append(f"{name}{tuple(args)}: got {got!r}, expected {expect!r}"[:300])
    loops.append(timing.loop_sample())
    marks.append(len(ops))
    factors = timing.scale_factors(loops, len(marks) - 1)
    scaled = array("d")
    for k, f in enumerate(factors):
        scaled.extend(t * f / 1e3 for t in raw[marks[k] : marks[k + 1]])
    out = {"raw_s": sum(raw) / 1e9, "scaled_s": sum(scaled) / 1e6,
           "p50_raw_us": statistics.median(raw) / 1e3,
           "p50_scaled_us": statistics.median(scaled),
           "failed": failed, "wrong": wrong}
    if keep_samples:
        out["scaled_us"] = scaled
    return out


def passes(ops, warm: int, keep_samples=False) -> tuple[list[dict], list]:
    """The cold pass and ``warm`` warm passes, and the caches' statistics
    taken right after the cold pass (clearing a cache resets them)."""
    clear_caches()
    out = [timed_pass(ops, keep_samples)]
    info = cache_info()
    out += [timed_pass(ops, keep_samples) for _ in range(warm)]
    return out, info


def memory_mb(field: str) -> float:
    """A ``Vm*`` field of /proc/self/status, in MB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise LookupError(field)


def load_job(path: str) -> tuple[dict, float]:
    """The job, and the RSS in MB that loading it added."""
    before = memory_mb("VmRSS")
    with open(path) as f:
        job = json.loads(f.readline())
        job["ops"] = [tuple(json.loads(line)) for line in f]
    return job, memory_mb("VmRSS") - before


def main(argv) -> int:
    job, job_mb = load_job(argv[1])
    mode, warm = argv[2], int(argv[3])
    for _ in range(5):
        timing.loop_sample()
    if mode == "lib":
        out = {"passes": passes(job["ops"], warm)[0]}
    else:
        import traced

        out = traced.run(job, warm, random.Random(f"probe:{job['seed']}"))
    out["job_mb"] = job_mb
    out["rss_mb"] = memory_mb("VmHWM") - job_mb
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
