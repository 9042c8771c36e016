"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every check is exact integer equality; the stated
runtime budgets are asserted too.
"""

import io
import math
import random
import time
from collections import Counter
from contextlib import redirect_stdout

import pytest

from ordlift.cli import main as cli_main
from ordlift.errors import InvalidPairError
from ordlift.laws import _alpha_phi, _beta_phi
from ordlift.lifting import (
    admissible_bases,
    alpha_fast,
    beta_fast,
    make_base_pair,
)
from ordlift.orders import (
    _order_phi,
    _order_value,
    alpha,
    alpha_oracle,
    beta,
    beta_oracle,
    mult_order,
    remainder_gcd,
)
from ordlift.steinhaus import (
    ZnSequence,
    search_balanced_ap,
    triangle,
)
from oracles import literal_balanced
from reference_grid import ALPHA_GRID


def report(number, ok, description, elapsed=None):
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}{stamp}")
    assert ok, f"criterion {number} failed: {description}"


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(list(argv))
    return code, out.getvalue()


def test_criterion_01_table_reproduction():
    t0 = time.perf_counter()
    code, out = run_cli(
        "table", "--function", "alpha", "--format", "csv",
        "--n-min", "1", "--n-max", "20", "--a-min", "1", "--a-max", "20",
    )
    elapsed = time.perf_counter() - t0
    lines = out.strip().splitlines()
    parsed = {
        int(line.split(",")[0]): [int(x) for x in line.split(",")[1:]]
        for line in lines[1:]
    }
    ok = code == 0 and parsed == ALPHA_GRID and elapsed < 1.0
    report(1, ok, "CLI table reproduces all 400 reference grid cells", elapsed)


def test_criterion_02_spot_values():
    expected = {
        (2, 5): 4, (2, 7): 3, (2, 11): 10, (2, 13): 12, (2, 17): 8,
        (2, 19): 18, (2, 9): 2, (2, 15): 4,
    }
    ok = all(alpha(a, n) == v and alpha_fast(a, n) == v
             for (a, n), v in expected.items())
    ok = ok and all(alpha(a, 16) == 1 and alpha_fast(a, 16) == 1
                    for a in range(1, 21, 2))
    report(2, ok, "spot values of alpha, including alpha(odd a, 16) = 1")


def test_criterion_03_beta_powers_of_three():
    t0 = time.perf_counter()
    ok = all(
        beta(2, 3**k) == 1 and beta_fast(2, 3**k) == 1 for k in range(1, 11)
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(3, ok, "beta(2, 3**k) = 1 for k = 1..10 via both routes", elapsed)


def test_criterion_04_counterexample_fidelity():
    rejected = False
    try:
        make_base_pair(24, 6)
    except InvalidPairError:
        rejected = True
    direct = mult_order(7, 24).order
    raw = mult_order(7, 6).order * (24 // remainder_gcd(7, 6, 24))
    ok = rejected and direct == 2 and raw == 4
    report(4, ok, "(24, 6) rejected; direct order 2; raw formula gives 4")


def test_criterion_05_oracle_equivalence_sweep():
    # n <= 2000 holds every 2-adic shape 2**k * m with k <= 10.  Three
    # independent routes: the order engine, phi-stripping and the scan.
    t0 = time.perf_counter()
    mismatches = 0
    for n in range(1, 2001):
        for a in range(-50, 51):
            da = alpha(a, n)
            if (alpha_fast(a, n) != da or alpha_oracle(a, n) != da
                    or _alpha_phi(a, n) != da):
                mismatches += 1
            db = beta(a, n)
            if (beta_fast(a, n) != db or beta_oracle(a, n) != db
                    or _beta_phi(a, n) != db):
                mismatches += 1
            r = a % n
            if math.gcd(r, n) == 1 and _order_value(r, n)[0] != _order_phi(r, n):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    report(
        5, ok,
        f"alpha/beta fast = direct = phi reference = oracle and order engine = "
        f"phi reference for n <= 2000, |a| <= 50 ({mismatches} mismatches)",
        elapsed,
    )


def test_criterion_06_order_lift_sweep():
    t0 = time.perf_counter()
    mismatches = 0
    for n1 in range(1, 2001):
        for n2 in admissible_bases(n1):
            pair = make_base_pair(n1, n2)
            for a in range(1, 31):
                if math.gcd(a, n1) != 1:
                    continue
                lifted = (
                    mult_order(a, n2).order * (n1 // remainder_gcd(a, n2, n1))
                )
                if lifted != mult_order(a, n1).order:
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    report(
        6, ok,
        f"lifted order = direct order over every admissible pair, n1 <= 2000, "
        f"a <= 30 ({mismatches} mismatches)",
        elapsed,
    )


# The whole stdout of `ordlift verify 2000 30`: each law's check count and the
# summary line, so a sweep that dropped a pair, a unit or a modulus shows.
VERIFY_2000_30 = """\
PASS order-lift-exact (51898 checks)
PASS alpha-lift-exact (51898 checks)
PASS beta-lift-exact (51898 checks)
PASS alpha-routes-agree (60000 checks)
PASS beta-routes-agree (60000 checks)
PASS alpha-reduction-divides (113040 checks)
PASS alpha-coprime-lcm (162180 checks)
PASS alpha-prime-power-stable (2700 checks)
PASS beta-prime-power-stable (2700 checks)
PASS alpha-beta-ratio-transfer (47946 checks)
PASS alpha-equals-beta-above-4 (6108 checks)
PASS alpha-beta-alternative (36766 checks)
PASS alpha-divides-phi-quotient (36766 checks)
PASS prime-power-order-growth (1938 checks)
PASS rejected-pair-guard (501 checks)
PASS: 15 laws, 686339 checks, 0 failures
"""


def test_criterion_07_proposition_suite():
    t0 = time.perf_counter()
    code, out = run_cli("verify", "2000", "30")
    elapsed = time.perf_counter() - t0
    ok = code == 0 and out == VERIFY_2000_30
    report(7, ok, "ordlift verify 2000 30 exits 0 with every law passing "
           "at its known check count", elapsed)


def test_criterion_08_prime_power_order_growth():
    t0 = time.perf_counter()
    failures = 0
    primes = [p for p in range(3, 51) if all(p % q for q in range(2, p))]
    for p in primes:
        for a in range(1, 21):
            r = a % p
            if r == 0 or r == 1 or r == p - 1:
                continue
            d = mult_order(a, p).order
            k0 = 0
            rg = remainder_gcd(a, p, p**7)
            while rg % p == 0:
                rg //= p
                k0 += 1
            for k in range(1, 7):
                if mult_order(a, p**k).order != d * p ** max(0, k - k0):
                    failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0
    report(
        8, ok,
        f"order mod p**k is d * p**max(0, k - k0) for odd p <= 50, a <= 20, "
        f"k <= 6 ({failures} failures)",
        elapsed,
    )


def test_criterion_09_steinhaus():
    t0 = time.perf_counter()
    summary = triangle(ZnSequence(5, (2, 2, 3, 3)))
    ok = summary.balanced and summary.counts == (2, 2, 2, 2, 2)

    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randint(1, 12)
        m = rng.randint(1, 12)
        seq = ZnSequence(n, tuple(rng.randrange(n) for _ in range(m)))
        formula = Counter(
            sum(math.comb(i, k) * seq.elements[j + k] for k in range(i + 1)) % n
            for i in range(m)
            for j in range(m - i)
        )
        counts = triangle(seq).counts
        if counts != tuple(formula.get(r, 0) for r in range(n)):
            ok = False

    witnesses_found = 0
    expected_hits = 0
    for n in range(3, 32, 2):  # n = 1 would ask for length 0
        a2 = alpha(2, n)
        b2 = beta(2, n)
        for m in {a2 * n, a2 * n - 1, b2 * n, b2 * n - 1}:
            expected_hits += 1
            hit = search_balanced_ap(n, m)
            if hit is not None and literal_balanced(
                [hit[0] + k * hit[1] for k in range(m)], n
            ):
                witnesses_found += 1
    elapsed = time.perf_counter() - t0
    ok = ok and witnesses_found == expected_hits and elapsed < 30.0
    report(
        9, ok,
        f"balanced example, 100 iterative-vs-formula triangles, and "
        f"{witnesses_found}/{expected_hits} progression witnesses",
        elapsed,
    )
