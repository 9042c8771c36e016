"""The traced run's library side: span-recorded passes and per-layer probes.

The workload's passes run three times in one interpreter: untraced, traced,
untraced.  ``trace.overhead`` is the traced call time over the mean of the
two untraced ones.  Self time per layer and the call counts come from the
traced repetition; ``lib.op_tail_us`` from the untraced warm passes.

The two cache hit ratios are read right after the first untraced cold pass,
so they count that pass alone.

The probes time single public functions from outside on seeded inputs of
their own, the same for every workload, so each traced run reports every
per-layer metric.  Their results are checked like the workload's.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import kernels
import reference as ref
import timing
import tracing
import workloads
import worker

import ordlift
from ordlift import _pykernels


def run(job, warm, rng) -> dict:
    ops = job["ops"]
    untraced, info = worker.passes(ops, warm, keep_samples=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = worker.passes(ops, warm)
    finally:
        tracer.uninstall()
    untraced2, _ = worker.passes(ops, warm, keep_samples=True)
    wrong = [w for p in untraced + traced + untraced2 for w in p["wrong"]]

    u = (sum(p["scaled_s"] for p in untraced) + sum(p["scaled_s"] for p in untraced2)) / 2
    t = sum(p["scaled_s"] for p in traced)
    samples = [x for p in untraced[1:] + untraced2[1:] for x in p["scaled_us"]]
    pct, tail_us, tail_n = timing.tail(samples)
    m = {"trace.overhead": t / u, "lib.op_tail_us": tail_us, "lib.op_tail_n": tail_n}
    for layer, s in tracer.self_seconds().items():
        m[f"{layer}.self_s"] = s
    n_ops = len(ops) * (1 + warm)
    m["arith.factorize.calls_per_op"] = tracer.count("arith.factorize") / n_ops
    searches = tracer.count("_pykernels.search_balanced_ap")
    m["steinhaus.candidates_per_search"] = (
        _candidates(tracer) / searches if searches else 0.0)
    for key, ci in zip(("arith.factor_cache", "orders.order_cache"), info):
        m[f"{key}.hit_ratio"] = ci.hits / max(1, ci.hits + ci.misses)
    tracer.write(Path(job["trace_file"]))

    probe_metrics, probe_wrong = probes(rng)
    m.update(probe_metrics)
    compiled, reason = kernels.build(Path(job["root"]), Path(job["out_dir"]))
    kmetrics, agree = kernels.compare(_pykernels, compiled, rng)
    m.update(kmetrics)
    if not agree:
        probe_wrong.append("compiled and pure-Python kernels disagree")
    return {"metrics": m, "wrong": wrong + probe_wrong, "kernels_note": reason,
            "tail_pct": pct * 100,
            "failed": sum(p["failed"] for p in untraced + traced + untraced2),
            "attempted": len(ops) * 3 * (1 + warm)}


def _candidates(tracer) -> int:
    """triangle_counts spans whose parent is a search_balanced_ap span."""
    name, _, parent = tracer.arrays()
    tc = tracer.name_id.get("_pykernels.triangle_counts", -1)
    sb = tracer.name_id.get("_pykernels.search_balanced_ap", -1)
    has_parent = parent >= 0
    return int(((name == tc) & has_parent & (name[parent.clip(0)] == sb)).sum())


def _median_us(fn, argses, expect=None, before=None):
    """Median microseconds of fn(*args) over argses; results checked against
    expect(args) when given; before() runs untimed ahead of each call."""
    times, wrong = [], []
    for args in argses:
        if before:
            before()
        t0 = time.perf_counter_ns()
        out = fn(*args)
        times.append(time.perf_counter_ns() - t0)
        if expect is not None:
            want = expect(*args)
            got = worker.plain(out)
            if got != want:
                wrong.append(f"{getattr(fn, '__name__', fn)}{args}: got {got!r}, expected {want!r}")
    return statistics.median(times) / 1e3, wrong


def _triangle_expect(seq):
    counts = ref.triangle_counts(seq.elements, seq.modulus)
    return [min(counts) == max(counts), counts]


def probes(rng) -> tuple[dict, list]:
    o = ordlift
    desk = []
    while len(desk) < 1500:
        n, a = rng.randrange(2, 2001), rng.randrange(-50, 51)
        if math.gcd(a, n) == 1:
            desk.append((a, n))
    bases = {n: ref.radical(n) * (2 if n % 4 == 0 else 1) for _, n in desk}
    dv = lambda key: (lambda a, n: ref.desk_values(a, n)[key])  # noqa: E731
    lifted = [(o.make_base_pair(n, bases[n]), a) for a, n in desk]
    lv = lambda key: (lambda pair, a: ref.desk_values(a, pair.n1)[key])  # noqa: E731
    for a, n in desk:  # fill the caches: every desk probe below is warm
        o.alpha_fast(a, n), o.beta_fast(a, n), o.factorize(n)
    plan = [
        ("arith.factorize.warm_us", o.factorize, [(n,) for _, n in desk],
         lambda n: [list(f) for f in ref.small_factor(n)]),
        ("orders.mult_order.warm_us", o.mult_order, desk, dv("order")),
        ("orders.alpha.warm_us", o.alpha, desk, dv("alpha")),
        ("orders.beta.warm_us", o.beta, desk, dv("beta")),
        ("orders.remainder_gcd.us", o.remainder_gcd,
         [(a, bases[n], n) for a, n in desk], None),
        ("orders.alpha_oracle.us", o.alpha_oracle, desk[:300], dv("alpha")),
        ("orders.beta_oracle.us", o.beta_oracle, desk[:300], dv("beta")),
        ("lifting.make_base_pair.us", o.make_base_pair, [(n, bases[n]) for _, n in desk], None),
        ("lifting.canonical_base.us", o.canonical_base, [(n,) for _, n in desk],
         lambda n: bases[n]),
        ("lifting.lift_order.us", o.lift_order, lifted, lv("order")),
        ("lifting.lift_alpha.us", o.lift_alpha, lifted, lv("alpha")),
        ("lifting.lift_beta.us", o.lift_beta, lifted, lv("beta")),
        ("lifting.alpha_fast.warm_us", o.alpha_fast, desk, dv("alpha")),
        ("lifting.beta_fast.warm_us", o.beta_fast, desk, dv("beta")),
    ]
    wide = workloads.wide_moduli(rng)[:4]
    wide_args = [(rng.randrange(2, 10**6), n) for n, _, _ in wide]
    wide_ref = {n: (f, pm1) for n, f, pm1 in wide}
    wv = lambda a, n: ref.wide_order(a, *wide_ref[n])  # noqa: E731
    plan += [
        ("arith.factorize.cold_us", o.factorize, [(n,) for n, _, _ in wide],
         lambda n: sorted([p, k] for p, k in wide_ref[n][0].items()), worker.clear_caches),
        ("arith.is_prime.us", o.is_prime,
         [(p,) for _, f, _ in wide for p in f] + [(n,) for n, _, _ in wide],
         lambda x: x not in wide_ref),
        ("orders.mult_order.cold_us", o.mult_order, wide_args, wv, worker.clear_caches),
        ("lifting.order_fast.cold_us", o.order_fast, wide_args, wv, worker.clear_caches),
    ]
    tri = []
    for _ in range(60):
        n = rng.randrange(3, 46, 2)
        tri.append((o.ZnSequence(n, tuple(rng.randrange(n) for _ in range(rng.randrange(50, 200)))),))
    plan.append(("steinhaus.triangle.us", o.triangle, tri, _triangle_expect))
    searches = [(n, m) for n in (9, 11, 13, 15, 17, 21) for m in workloads.paper_lengths(n).values()]
    plan.append(("steinhaus.search_balanced_ap.us", o.search_balanced_ap, searches,
                 lambda n, m: list(ref.balanced_aps(n, m)[0])))

    metrics, wrong = {}, []
    for key, fn, argses, expect, *before in plan:
        metrics[key], bad = _median_us(fn, argses, expect, *before)
        wrong += bad
    metrics["steinhaus.search_balanced_ap.ms"] = metrics.pop("steinhaus.search_balanced_ap.us") / 1e3
    t0 = time.perf_counter()
    report = o.verify_claims(200, 8)
    metrics["lifting.verify_claims.checks_per_s"] = report.total_checked / (time.perf_counter() - t0)
    if not report.ok:
        wrong.append("verify_claims(200, 8) reported failures")
    return metrics, wrong[:10]
