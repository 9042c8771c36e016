"""The paper's reduction of order computations to the square-free core of
the modulus, as an explicit API, and the law sweep that checks it.

When n2 divides n1, carries every prime of n1, and additionally carries a
second factor of 2 whenever 4 | n1, the order of a mod n1 equals the order
mod n2 times the explicit cofactor n1 / gcd(n1, a**order - 1); the same
divisor transfers alpha and beta from n2 up to n1.  Dropping the extra
factor of 2 breaks the formula: (n1, n2) = (24, 6) with a = 7 yields 4 from
the raw formula while the true order is 2, which is why pair validation is
an error and not a silent fallback.

A ``BasePair`` is the two moduli (n1, n2); its ``two_adic_case`` depends on
n1 alone and is derived from it.  It checks these preconditions itself on
every route to one (the constructor, ``_make`` and ``_replace``, pickling
and ``copy``), the way ``ZnSequence`` checks its own, so no pair that
breaks them reaches the formulas; ``make_base_pair`` is the type itself.
This module applies the transfer formulas and the prime-power shortcuts,
and sweeps all of these laws in ``verify_claims`` against the phi-stripping
reference and the scan oracles.  The laws are registered in one place, the
ordered mapping ``_LAWS`` from law name to a generator ``law(m)`` that
yields one outcome per check at one modulus, so a new law is one more entry
there.  ``m`` holds what the laws at that modulus share, built once: its
units, base pairs, and the engine's alpha and beta.  A law never reads from
``m`` the value it cross-checks; it calls that function itself.  The order
engine in ``orders`` applies the same lifting prime by prime, so the *_fast
names are the engine's functions themselves; no BasePair is built on that
path.  Pairs, per-law results and sweep reports are named tuples.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from enum import Enum
from types import SimpleNamespace

from ordlift.arith import (
    divisors,
    euler_phi,
    is_prime,
    radical,
    valuation,
)
from ordlift.errors import InvalidPairError, NotCoprimeError
from ordlift.orders import (
    _order_phi,
    _order_value,
    _reduced_coprime,
    alpha,
    alpha_oracle,
    beta,
    beta_oracle,
    proj_order,
    remainder_gcd,
)

__all__ = [
    "BasePair",
    "LawResult",
    "TwoAdicCase",
    "VerificationReport",
    "admissible_bases",
    "alpha_fast",
    "alpha_prime_power",
    "beta_fast",
    "beta_prime_power",
    "canonical_base",
    "lift_alpha",
    "lift_beta",
    "lift_order",
    "make_base_pair",
    "order_fast",
    "proj_order_fast",
    "verify_claims",
]


class TwoAdicCase(Enum):
    """Which hypothesis branch a pair satisfies: v2(n1) <= 1 or v2(n1) >= 2."""

    SMALL = "v2<=1"
    LARGE = "v2>=2"


class BasePair(namedtuple("BasePair", "n1 n2")):
    """A modulus pair (n1, n2) valid for the lifting formulas.

    Checked on construction, by every route to a pair: n2 | n1, rad(n1) | n2,
    and 2*rad(n1) | n2 whenever 4 | n1.  A failed precondition raises
    InvalidPairError with a reason code naming it; the 2-adic condition is
    not a formality, see the module docstring for the (24, 6) failure.  The
    TwoAdicCase the pair satisfies depends on n1 alone and is derived from it.
    """

    __slots__ = ()

    def __new__(cls, n1: int, n2: int):
        if n1 < 1 or n2 < 1:
            raise ValueError(f"moduli must be >= 1, got ({n1}, {n2})")
        if n1 % n2:
            raise InvalidPairError(
                f"invalid pair ({n1}, {n2}): {n2} does not divide {n1}",
                InvalidPairError.REASON_NOT_DIVISOR,
            )
        rad = radical(n1)
        if n2 % rad:
            raise InvalidPairError(
                f"invalid pair ({n1}, {n2}): radical {rad} does not divide {n2}",
                InvalidPairError.REASON_RADICAL,
            )
        if n1 % 4 == 0 and n2 % (2 * rad):
            raise InvalidPairError(
                f"invalid pair ({n1}, {n2}): 4 divides {n1} so n2 needs the factor "
                f"2*rad = {2 * rad}",
                InvalidPairError.REASON_TWO_ADIC,
            )
        return tuple.__new__(cls, (n1, n2))

    @classmethod
    def _make(cls, iterable) -> "BasePair":
        # The inherited _make skips __new__; _replace goes through this too.
        return cls(*iterable)

    @property
    def two_adic_case(self) -> TwoAdicCase:
        return TwoAdicCase.SMALL if self.n1 % 4 else TwoAdicCase.LARGE


# Validate (n1, n2) for lifting and return the pair: the type is the check.
make_base_pair = BasePair


def canonical_base(n: int) -> int:
    """rad(n), doubled when 4 | n; (n, canonical_base(n)) is always valid."""
    rad = radical(n)
    return rad if n % 4 else 2 * rad


def admissible_bases(n1: int) -> list[int]:
    """Every n2 for which (n1, n2) is a valid lifting pair, ascending."""
    base = canonical_base(n1)
    return [base * t for t in divisors(n1 // base)]


def lift_order(pair: BasePair, a: int) -> int:
    """Order of a mod n1 from the order mod n2.

    order(a, n1) = order(a, n2) * n1 / gcd(n1, a**order(a, n2) - 1).
    """
    rg = remainder_gcd(a, pair.n2, pair.n1)
    # remainder_gcd has checked n2 | n1 and gcd(a, n1) = 1, so a is a unit mod n2.
    return _order_value(a % pair.n2, pair.n2)[0] * (pair.n1 // rg)


def _lift_value(name: str, value, pair: BasePair, a: int) -> int:
    """The alpha/beta transfer: value at n2 divided by gcd(value, rg / n2)."""
    at_base = value(a, pair.n2)
    if at_base == 0:
        raise NotCoprimeError(f"{name} undefined: gcd({a}, {pair.n1}) != 1")
    rg = remainder_gcd(a, pair.n2, pair.n1)
    return at_base // math.gcd(at_base, rg // pair.n2)


def lift_alpha(pair: BasePair, a: int) -> int:
    """alpha at n1 from alpha at n2, for a coprime to n1."""
    return _lift_value("lift_alpha", alpha, pair, a)


def lift_beta(pair: BasePair, a: int) -> int:
    """beta at n1 from beta at n2, for a coprime to n1."""
    return _lift_value("lift_beta", beta, pair, a)


# The engine behind alpha, beta and proj_order already reduces every prime
# power to its base modulus, so the fast route is the direct function.
alpha_fast = alpha
beta_fast = beta
proj_order_fast = proj_order


def order_fast(a: int, n: int) -> int:
    """Multiplicative order of a mod n as an int (NotCoprimeError if not
    coprime); the order of ``mult_order`` without its record."""
    return _order_value(_reduced_coprime(a, n, "multiplicative order"), n)[0]


def _check_prime_power(name: str, p: int, k: int) -> None:
    """The argument checks the prime-power shortcuts share."""
    if not is_prime(p):
        raise ValueError(f"{name} requires a prime p, got {p}")
    if k < 1:
        raise ValueError(f"{name} requires k >= 1, got {k}")


def alpha_prime_power(a: int, p: int, k: int) -> int:
    """alpha at p**k, which does not depend on k: alpha at p, the order of
    a mod p."""
    _check_prime_power("alpha_prime_power", p, k)
    return alpha(a, p)


def beta_prime_power(a: int, p: int, k: int) -> int:
    """beta at p**k, which does not depend on k: beta at p."""
    _check_prime_power("beta_prime_power", p, k)
    return beta(a, p)


# --- verification sweep -----------------------------------------------------

_PRIME_POWER_MAX_P = 50
_PRIME_POWER_MAX_K = 6


class LawResult(namedtuple("LawResult", "law checked failed first_counterexample")):
    """One law's tally from a sweep: checks run, checks failed, and the first
    counterexample as text (None when nothing failed)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.failed == 0


class VerificationReport(namedtuple("VerificationReport", "n_max a_max laws")):
    """Per-law pass/fail statistics from a verification sweep: ``laws`` is a
    tuple of LawResult, one per law in sweep order."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(law.ok for law in self.laws)

    @property
    def total_checked(self) -> int:
        return sum(law.checked for law in self.laws)

    @property
    def total_failed(self) -> int:
        return sum(law.failed for law in self.laws)


def _divides(d: int, x: int) -> bool:
    if d == 0:
        return x == 0
    return x % d == 0


def _alpha_phi(a: int, n: int) -> int:
    """alpha from the phi-stripping reference; 0 when gcd(a, n) != 1."""
    if math.gcd(a, n) != 1:
        return 0
    d = _order_phi(a % n, n)
    return d // math.gcd(d, n)


def _beta_phi(a: int, n: int) -> int:
    """beta as the projective order of a**n, from the phi-stripping reference."""
    if math.gcd(a, n) != 1:
        return 0
    b = pow(a, n, n)
    d = _order_phi(b, n)
    if n > 2 and d % 2 == 0 and pow(b, d // 2, n) == n - 1:
        return d // 2
    return d


# Exact transfer from every admissible base modulus.
def _lift_exact(m, lift, direct):
    for pair in m.pairs:
        n1, n2 = m.n, pair.n2
        for a in m.units:
            want = direct(a % n1, n1)
            got = lift(pair, a)
            yield got == want or f"n1={n1} n2={n2} a={a}: lifted {got} != direct {want}"


# Three independent routes to alpha and beta must agree, for all a:
# phi-stripping, the order engine and the exponent scan.
def _routes_agree(m, direct, fast, oracle):
    for a in range(1, m.a_max + 1):
        d, f, o = direct(a, m.n), fast(a, m.n), oracle(a, m.n)
        yield d == f == o or f"n={m.n} a={a}: direct {d}, fast {f}, oracle {o}"


def _alpha_reduction_divides(m):
    # alpha at n1 divides alpha at any n2 with rad(n1) | n2 | n1
    # (no 2-adic restriction here: only divisibility is claimed).
    rad = radical(m.n)
    for n2 in (rad * d for d in divisors(m.n // rad)):
        for a, (top, base) in enumerate(zip(m.alpha, m.row(n2)[0]), 1):
            yield _divides(top, base) or (
                f"n1={m.n} n2={n2} a={a}: alpha(n1)={top} "
                f"does not divide alpha(n2)={base}"
            )


def _alpha_coprime_lcm(m):
    # Coprime splits n1 = m1 * m2: alpha(n1) divides lcm of the parts.
    for m1 in divisors(m.n):
        m2 = m.n // m1
        if m1 > m2 or math.gcd(m1, m2) != 1:
            continue
        parts = zip(m.alpha, m.row(m1)[0], m.row(m2)[0])
        for a, (whole, part1, part2) in enumerate(parts, 1):
            yield _divides(whole, math.lcm(part1, part2)) or (
                f"m1={m1} m2={m2} a={a}: alpha({m.n})={whole} does "
                f"not divide lcm({part1}, {part2})"
            )


# Prime-power stability: alpha at p**k is the order mod p, beta at p**k is
# beta at p, independent of k.
def _prime_power_stable(m, shortcut, value, name):
    p = m.n
    if p > _PRIME_POWER_MAX_P or not is_prime(p):
        return
    for k in range(1, _PRIME_POWER_MAX_K + 1):
        for a in range(1, m.a_max + 1):
            short, full = shortcut(a, p, k), value(a, p**k)
            yield short == full or (
                f"p={p} k={k} a={a}: shortcut {short} != {name} {full}"
            )


def _alpha_beta_ratio_transfer(m):
    # alpha/beta ratio transfers between same-radical moduli when both have
    # v2 <= 1.  (The transfer genuinely needs v2(n2) <= 1 too:
    # alpha_10(3)/beta_10(3) = 2 while alpha_20(3)/beta_20(3) = 1.)
    if m.n % 4 == 0:
        return
    rad = radical(m.n)
    for n2 in range(rad, m.n_max + 1, rad):
        if radical(n2) != rad or n2 % 4 == 0:
            continue
        alpha2, beta2 = m.row(n2)
        for a in m.units:
            a1, b1 = m.alpha[a - 1], m.beta[a - 1]
            a2, b2 = alpha2[a - 1], beta2[a - 1]
            yield a1 * b2 == a2 * b1 or (
                f"n1={m.n} n2={n2} a={a}: {a1}/{b1} != {a2}/{b2}"
            )


def _alpha_equals_beta_above_4(m):
    # With v2 >= 2 the ratio collapses to 1.
    if m.n % 4:
        return
    for a in m.units:
        da, db = m.alpha[a - 1], m.beta[a - 1]
        yield da == db or f"n={m.n} a={a}: alpha {da} != beta {db}"


def _alpha_beta_alternative(m):
    for a in m.units:
        da, db = m.alpha[a - 1], m.beta[a - 1]
        yield da in (db, 2 * db) or f"n={m.n} a={a}: alpha {da}, beta {db}"


def _alpha_divides_phi_quotient(m):
    phi = euler_phi(m.n)
    phi_quot = phi // math.gcd(phi, m.n)
    for a in m.units:
        da = m.alpha[a - 1]
        yield phi_quot % da == 0 or (
            f"n={m.n} a={a}: alpha {da} does not divide {phi_quot}"
        )


def _prime_power_order_growth(m):
    # Order growth up prime powers: constant d until the valuation of
    # a**d - 1 runs out, then one factor of p per step.
    p = m.n
    if p > _PRIME_POWER_MAX_P or p == 2 or not is_prime(p):
        return
    for a in range(1, m.a_max + 1):
        r = a % p
        if r == 0 or r == 1 or r == p - 1:
            continue
        d = _order_phi(r, p)
        k0 = valuation(remainder_gcd(a, p, p ** (_PRIME_POWER_MAX_K + 1)), p)
        for k in range(1, _PRIME_POWER_MAX_K + 1):
            expect = d * p ** max(0, k - k0)
            got = _order_phi(a % p**k, p**k)
            yield got == expect or f"p={p} k={k} a={a}: order {got} != {expect}"


def _rejected_pair_guard(m):
    # Pairs that miss the factor 2*rad must be rejected, never computed.
    if m.n % 4 == 0:
        rad = radical(m.n)
        try:
            make_base_pair(m.n, rad)
        except InvalidPairError as exc:
            outcome = exc.reason == InvalidPairError.REASON_TWO_ADIC or (
                f"(n1, rad) = ({m.n}, {rad}) rejected for wrong reason {exc.reason}"
            )
        else:
            outcome = f"(n1, rad) = ({m.n}, {rad}) was not rejected"
        yield outcome
    if m.n == 24:
        # The raw transfer formula applied to the rejected pair (24, 6)
        # with a = 7 must give 4 while the true order is 2.
        raw = _order_phi(7 % 6, 6) * (24 // remainder_gcd(7, 6, 24))
        direct = _order_phi(7, 24)
        yield (raw, direct) == (4, 2) or (
            f"raw formula gives {raw}, direct order {direct}; expected 4 and 2"
        )


# The law registry, in sweep order: law name -> generator law(m) that yields
# one item per check at the modulus record m of _sweep, True for a pass or
# the counterexample as text.  A law calls the function it cross-checks
# itself, looked up in this module's globals when it runs, so a patched
# function is the one checked.
_LAWS = {
    "order-lift-exact": lambda m: _lift_exact(m, lift_order, _order_phi),
    "alpha-lift-exact": lambda m: _lift_exact(m, lift_alpha, _alpha_phi),
    "beta-lift-exact": lambda m: _lift_exact(m, lift_beta, _beta_phi),
    "alpha-routes-agree": lambda m: _routes_agree(
        m, _alpha_phi, alpha_fast, alpha_oracle
    ),
    "beta-routes-agree": lambda m: _routes_agree(
        m, _beta_phi, beta_fast, beta_oracle
    ),
    "alpha-reduction-divides": _alpha_reduction_divides,
    "alpha-coprime-lcm": _alpha_coprime_lcm,
    "alpha-prime-power-stable": lambda m: _prime_power_stable(
        m, alpha_prime_power, alpha, "alpha"
    ),
    "beta-prime-power-stable": lambda m: _prime_power_stable(
        m, beta_prime_power, beta, "beta"
    ),
    "alpha-beta-ratio-transfer": _alpha_beta_ratio_transfer,
    "alpha-equals-beta-above-4": _alpha_equals_beta_above_4,
    "alpha-beta-alternative": _alpha_beta_alternative,
    "alpha-divides-phi-quotient": _alpha_divides_phi_quotient,
    "prime-power-order-growth": _prime_power_order_growth,
    "rejected-pair-guard": _rejected_pair_guard,
}


def _sweep(bounds: tuple[int, int, int, int]) -> list[LawResult]:
    """Run every law for n1 in [lo, hi]; one LawResult per law, in sweep order.

    Each n1 gets one record m of what its laws share, handed to every law
    as law(m): m.n = n1, the bounds m.n_max and m.a_max, m.units (the a in
    1..a_max coprime to n1), m.pairs (the BasePair of each admissible
    base), and m.alpha[a - 1] and m.beta[a - 1], the engine's values at
    every a; m.row(n2) gives those two lists at any n2, built once a sweep.
    The record is built from this module's alpha, beta, admissible_bases
    and make_base_pair as they are when the sweep runs, so a patched
    function lands in it too.
    """
    lo, hi, n_max, a_max = bounds
    bases = range(1, a_max + 1)
    rows = {}

    def row(n):
        if n not in rows:
            rows[n] = [alpha(a, n) for a in bases], [beta(a, n) for a in bases]
        return rows[n]

    tallies = [[0, 0, None] for _ in _LAWS]
    for n1 in range(lo, hi + 1):
        units = tuple(a for a in bases if math.gcd(a, n1) == 1)
        pairs = tuple(make_base_pair(n1, n2) for n2 in admissible_bases(n1))
        alphas, betas = row(n1)
        m = SimpleNamespace(
            n=n1, n_max=n_max, a_max=a_max, units=units, pairs=pairs,
            alpha=alphas, beta=betas, row=row,
        )
        for tally, law in zip(tallies, _LAWS.values()):
            for outcome in law(m):
                tally[0] += 1
                if outcome is not True:
                    tally[1] += 1
                    if tally[2] is None:
                        tally[2] = outcome
    return [LawResult(name, *tally) for name, tally in zip(_LAWS, tallies)]


def verify_claims(n_max: int, a_max: int, workers: int = 1) -> VerificationReport:
    """Sweep every registered law over n <= n_max, a <= a_max and report
    per-law pass/fail counts with the first counterexample of each failing
    law, in the order of the module's law registry.

    A correct implementation reports zero failures; any failure indicates a
    bug, not a broken law.  Prime-power laws additionally cap p at 50 and k at 6 to keep
    p**k at desk scale.  With workers > 1 the n-range is split into chunks
    across min(workers, n_max, os.cpu_count()) processes; the report
    (including which counterexample is "first") is identical regardless of
    worker count.
    """
    if n_max < 1 or a_max < 1:
        raise ValueError(f"bounds must be >= 1, got ({n_max}, {a_max})")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    processes = min(workers, n_max, os.cpu_count() or 1)
    if processes == 1:
        parts = [_sweep((1, n_max, n_max, a_max))]
    else:
        import multiprocessing

        size = -(-n_max // (processes * 8))  # eight chunks per process
        chunks = [
            (lo, min(lo + size - 1, n_max), n_max, a_max)
            for lo in range(1, n_max + 1, size)
        ]
        with multiprocessing.Pool(processes) as pool:
            parts = pool.map(_sweep, chunks)

    # pool.map keeps the chunks in n order, so the first failing chunk holds
    # the first counterexample of the whole sweep.
    laws = tuple(
        LawResult(
            results[0].law,
            sum(r.checked for r in results),
            sum(r.failed for r in results),
            next((r.first_counterexample for r in results if not r.ok), None),
        )
        for results in zip(*parts)
    )
    return VerificationReport(n_max, a_max, laws)
