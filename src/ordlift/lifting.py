"""The paper's reduction of order computations to the square-free core of
the modulus, as an explicit API, and the law sweep that checks it.

When n2 divides n1, carries every prime of n1, and additionally carries a
second factor of 2 whenever 4 | n1, the order of a mod n1 equals the order
mod n2 times the explicit cofactor n1 / gcd(n1, a**order - 1); the same
divisor transfers alpha and beta from n2 up to n1.  Dropping the extra
factor of 2 breaks the formula: (n1, n2) = (24, 6) with a = 7 yields 4 from
the raw formula while the true order is 2, which is why pair validation is
an error and not a silent fallback.

This module validates such pairs, applies the transfer formulas and the
prime-power shortcuts, and sweeps all of these laws in ``verify_claims``
against the phi-stripping reference and the scan oracles.  The order engine
in ``orders`` applies the same lifting prime by prime, so the *_fast names
are the engine's functions themselves; no BasePair is built on that path.
Pairs, per-law results and sweep reports are named tuples.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

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


class BasePair(namedtuple("BasePair", "n1 n2 two_adic_case")):
    """A validated modulus pair (n1, n2) for the lifting formulas, with the
    TwoAdicCase it satisfies."""

    __slots__ = ()


def make_base_pair(n1: int, n2: int) -> BasePair:
    """Validate (n1, n2) for lifting: n2 | n1, rad(n1) | n2, and 2*rad(n1) | n2
    whenever 4 | n1.

    Raises InvalidPairError with a reason code identifying the failed
    precondition.  The 2-adic condition is not a formality; see the module
    docstring for the (24, 6) failure.
    """
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
    if n1 % 4:
        return BasePair(n1, n2, TwoAdicCase.SMALL)
    if n2 % (2 * rad):
        raise InvalidPairError(
            f"invalid pair ({n1}, {n2}): 4 divides {n1} so n2 needs the factor "
            f"2*rad = {2 * rad}",
            InvalidPairError.REASON_TWO_ADIC,
        )
    return BasePair(n1, n2, TwoAdicCase.LARGE)


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
    if pair.n1 % rg:
        raise ArithmeticError(f"remainder gcd {rg} does not divide {pair.n1}")
    # remainder_gcd has checked n2 | n1 and gcd(a, n1) = 1, so a is a unit mod n2.
    return _order_value(a % pair.n2, pair.n2) * (pair.n1 // rg)


def _lift_quotient(pair: BasePair, a: int, value_at_base: int) -> int:
    """Shared tail of the alpha/beta transfers: divide by gcd(value, rg/n2)."""
    rg = remainder_gcd(a, pair.n2, pair.n1)
    if rg % pair.n2:
        raise ArithmeticError(
            f"remainder gcd {rg} is not a multiple of the base modulus {pair.n2}"
        )
    return value_at_base // math.gcd(value_at_base, rg // pair.n2)


def lift_alpha(pair: BasePair, a: int) -> int:
    """alpha at n1 from alpha at n2, for a coprime to n1."""
    a2 = alpha(a, pair.n2)
    if a2 == 0:
        raise NotCoprimeError(f"lift_alpha undefined: gcd({a}, {pair.n1}) != 1")
    return _lift_quotient(pair, a, a2)


def lift_beta(pair: BasePair, a: int) -> int:
    """beta at n1 from beta at n2, for a coprime to n1."""
    b2 = beta(a, pair.n2)
    if b2 == 0:
        raise NotCoprimeError(f"lift_beta undefined: gcd({a}, {pair.n1}) != 1")
    return _lift_quotient(pair, a, b2)


# The engine behind alpha, beta and proj_order already reduces every prime
# power to its base modulus, so the fast route is the direct function.
alpha_fast = alpha
beta_fast = beta
proj_order_fast = proj_order


def order_fast(a: int, n: int) -> int:
    """Multiplicative order of a mod n as an int (NotCoprimeError if not
    coprime); the order of ``mult_order`` without its record."""
    return _order_value(_reduced_coprime(a, n, "multiplicative order"), n)


def alpha_prime_power(a: int, p: int, k: int) -> int:
    """alpha at p**k, which does not depend on k: the order of a mod p."""
    if not is_prime(p):
        raise ValueError(f"alpha_prime_power requires a prime p, got {p}")
    if k < 1:
        raise ValueError(f"alpha_prime_power requires k >= 1, got {k}")
    if a % p == 0:
        return 0
    return _order_value(_reduced_coprime(a, p, "multiplicative order"), p)


def beta_prime_power(a: int, p: int, k: int) -> int:
    """beta at p**k, which does not depend on k: beta at p."""
    if not is_prime(p):
        raise ValueError(f"beta_prime_power requires a prime p, got {p}")
    if k < 1:
        raise ValueError(f"beta_prime_power requires k >= 1, got {k}")
    if a % p == 0:
        return 0
    return beta(a, p)


# --- verification sweep -----------------------------------------------------

_LAW_NAMES = (
    "order-lift-exact",
    "alpha-lift-exact",
    "beta-lift-exact",
    "alpha-routes-agree",
    "beta-routes-agree",
    "alpha-reduction-divides",
    "alpha-coprime-lcm",
    "alpha-prime-power-stable",
    "beta-prime-power-stable",
    "alpha-beta-ratio-transfer",
    "alpha-equals-beta-above-4",
    "alpha-beta-alternative",
    "alpha-divides-phi-quotient",
    "prime-power-order-growth",
    "rejected-pair-guard",
)

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


class _Tally:
    __slots__ = ("checked", "failed", "first")

    def __init__(self):
        self.checked = 0
        self.failed = 0
        self.first = None

    def fail(self, detail: str) -> None:
        self.failed += 1
        if self.first is None:
            self.first = detail


def _divides(d: int, x: int) -> bool:
    if d == 0:
        return x == 0
    return x % d == 0


def _alpha_phi(a: int, n: int) -> int:
    """alpha from the phi-stripping reference; 0 when gcd(a, n) != 1."""
    r = a % n
    if math.gcd(r, n) != 1:
        return 0
    d = _order_phi(r, n)
    return d // math.gcd(d, n)


def _beta_phi(a: int, n: int) -> int:
    """beta as the projective order of a**n, from the phi-stripping reference."""
    r = a % n
    if math.gcd(r, n) != 1:
        return 0
    b = pow(r, n, n)
    d = _order_phi(b, n)
    if n > 2 and d % 2 == 0 and pow(b, d // 2, n) == n - 1:
        return d // 2
    return d


def _check_range(args: tuple[int, int, int, int]) -> list[tuple]:
    """Run every law for n1 in [lo, hi]; returns per-law tallies in order."""
    lo, hi, n_max, a_max = args
    t = {law: _Tally() for law in _LAW_NAMES}

    for n1 in range(lo, hi + 1):
        rad = radical(n1)
        v2 = valuation(n1, 2)
        coprime_as = [a for a in range(1, a_max + 1) if math.gcd(a, n1) == 1]

        # Exact transfer from every admissible base modulus.
        for n2 in admissible_bases(n1):
            pair = make_base_pair(n1, n2)
            for a in coprime_as:
                direct = _order_phi(a % n1, n1)
                got = lift_order(pair, a)
                t["order-lift-exact"].checked += 1
                if got != direct:
                    t["order-lift-exact"].fail(
                        f"n1={n1} n2={n2} a={a}: lifted {got} != direct {direct}"
                    )
                da = _alpha_phi(a, n1)
                ga = lift_alpha(pair, a)
                t["alpha-lift-exact"].checked += 1
                if ga != da:
                    t["alpha-lift-exact"].fail(
                        f"n1={n1} n2={n2} a={a}: lifted {ga} != direct {da}"
                    )
                db = _beta_phi(a, n1)
                gb = lift_beta(pair, a)
                t["beta-lift-exact"].checked += 1
                if gb != db:
                    t["beta-lift-exact"].fail(
                        f"n1={n1} n2={n2} a={a}: lifted {gb} != direct {db}"
                    )

        # Three independent routes to alpha and beta must agree, for all a:
        # phi-stripping, the order engine and the exponent scan.
        for a in range(1, a_max + 1):
            da = _alpha_phi(a, n1)
            fa = alpha_fast(a, n1)
            oa = alpha_oracle(a, n1)
            t["alpha-routes-agree"].checked += 1
            if not (da == fa == oa):
                t["alpha-routes-agree"].fail(
                    f"n={n1} a={a}: direct {da}, fast {fa}, oracle {oa}"
                )
            db = _beta_phi(a, n1)
            fb = beta_fast(a, n1)
            ob = beta_oracle(a, n1)
            t["beta-routes-agree"].checked += 1
            if not (db == fb == ob):
                t["beta-routes-agree"].fail(
                    f"n={n1} a={a}: direct {db}, fast {fb}, oracle {ob}"
                )

        # alpha at n1 divides alpha at any n2 with rad(n1) | n2 | n1
        # (no 2-adic restriction here: only divisibility is claimed).
        for n2 in (rad * d for d in divisors(n1 // rad)):
            for a in range(1, a_max + 1):
                t["alpha-reduction-divides"].checked += 1
                if not _divides(alpha(a, n1), alpha(a, n2)):
                    t["alpha-reduction-divides"].fail(
                        f"n1={n1} n2={n2} a={a}: alpha(n1)={alpha(a, n1)} "
                        f"does not divide alpha(n2)={alpha(a, n2)}"
                    )

        # Coprime splits n1 = m1 * m2: alpha(n1) divides lcm of the parts.
        for m1 in divisors(n1):
            m2 = n1 // m1
            if m1 > m2 or math.gcd(m1, m2) != 1:
                continue
            for a in range(1, a_max + 1):
                t["alpha-coprime-lcm"].checked += 1
                if not _divides(alpha(a, n1), math.lcm(alpha(a, m1), alpha(a, m2))):
                    t["alpha-coprime-lcm"].fail(
                        f"m1={m1} m2={m2} a={a}: alpha({n1})={alpha(a, n1)} does "
                        f"not divide lcm({alpha(a, m1)}, {alpha(a, m2)})"
                    )

        # Prime-power stability: alpha at p**k is the order mod p, beta at
        # p**k is beta at p, independent of k.
        if n1 <= _PRIME_POWER_MAX_P and is_prime(n1):
            p = n1
            for k in range(1, _PRIME_POWER_MAX_K + 1):
                pk = p**k
                for a in range(1, a_max + 1):
                    t["alpha-prime-power-stable"].checked += 1
                    if alpha_prime_power(a, p, k) != alpha(a, pk):
                        t["alpha-prime-power-stable"].fail(
                            f"p={p} k={k} a={a}: shortcut "
                            f"{alpha_prime_power(a, p, k)} != alpha {alpha(a, pk)}"
                        )
                    t["beta-prime-power-stable"].checked += 1
                    if beta_prime_power(a, p, k) != beta(a, pk):
                        t["beta-prime-power-stable"].fail(
                            f"p={p} k={k} a={a}: shortcut "
                            f"{beta_prime_power(a, p, k)} != beta {beta(a, pk)}"
                        )

        # alpha/beta ratio transfers between same-radical moduli when both
        # have v2 <= 1; with v2 >= 2 the ratio collapses to 1.  (The transfer
        # genuinely needs v2(n2) <= 1 too: alpha_10(3)/beta_10(3) = 2 while
        # alpha_20(3)/beta_20(3) = 1.)
        if v2 <= 1:
            for n2 in range(rad, n_max + 1, rad):
                if radical(n2) != rad or valuation(n2, 2) > 1:
                    continue
                for a in coprime_as:
                    t["alpha-beta-ratio-transfer"].checked += 1
                    if alpha(a, n1) * beta(a, n2) != alpha(a, n2) * beta(a, n1):
                        t["alpha-beta-ratio-transfer"].fail(
                            f"n1={n1} n2={n2} a={a}: {alpha(a, n1)}/{beta(a, n1)}"
                            f" != {alpha(a, n2)}/{beta(a, n2)}"
                        )
        else:
            for a in coprime_as:
                t["alpha-equals-beta-above-4"].checked += 1
                if alpha(a, n1) != beta(a, n1):
                    t["alpha-equals-beta-above-4"].fail(
                        f"n={n1} a={a}: alpha {alpha(a, n1)} != beta {beta(a, n1)}"
                    )

        # alpha is beta or twice beta; alpha divides phi(n)/gcd(phi(n), n).
        phi = euler_phi(n1)
        phi_quot = phi // math.gcd(phi, n1)
        for a in coprime_as:
            da = alpha(a, n1)
            db = beta(a, n1)
            t["alpha-beta-alternative"].checked += 1
            if da != db and da != 2 * db:
                t["alpha-beta-alternative"].fail(
                    f"n={n1} a={a}: alpha {da}, beta {db}"
                )
            t["alpha-divides-phi-quotient"].checked += 1
            if phi_quot % da:
                t["alpha-divides-phi-quotient"].fail(
                    f"n={n1} a={a}: alpha {da} does not divide {phi_quot}"
                )

        # Order growth up prime powers: constant d until the valuation of
        # a**d - 1 runs out, then one factor of p per step.
        if n1 <= _PRIME_POWER_MAX_P and n1 != 2 and is_prime(n1):
            p = n1
            for a in range(1, a_max + 1):
                r = a % p
                if r == 0 or r == 1 or r == p - 1:
                    continue
                d = _order_phi(r, p)
                k_cap = _PRIME_POWER_MAX_K + 1
                k0 = valuation(remainder_gcd(a, p, p**k_cap), p)
                for k in range(1, _PRIME_POWER_MAX_K + 1):
                    expect = d * p ** max(0, k - k0)
                    got = _order_phi(a % p**k, p**k)
                    t["prime-power-order-growth"].checked += 1
                    if got != expect:
                        t["prime-power-order-growth"].fail(
                            f"p={p} k={k} a={a}: order {got} != {expect}"
                        )

        # Pairs that miss the factor 2*rad must be rejected, never computed.
        if v2 >= 2:
            t["rejected-pair-guard"].checked += 1
            try:
                make_base_pair(n1, rad)
            except InvalidPairError as exc:
                if exc.reason != InvalidPairError.REASON_TWO_ADIC:
                    t["rejected-pair-guard"].fail(
                        f"(n1, rad) = ({n1}, {rad}) rejected for wrong reason "
                        f"{exc.reason}"
                    )
            else:
                t["rejected-pair-guard"].fail(
                    f"(n1, rad) = ({n1}, {rad}) was not rejected"
                )
        if n1 == 24:
            # The raw transfer formula applied to the rejected pair (24, 6)
            # with a = 7 must give 4 while the true order is 2.
            raw = _order_phi(7 % 6, 6) * (24 // remainder_gcd(7, 6, 24))
            direct = _order_phi(7, 24)
            t["rejected-pair-guard"].checked += 1
            if not (raw == 4 and direct == 2):
                t["rejected-pair-guard"].fail(
                    f"raw formula gives {raw}, direct order {direct}; "
                    "expected 4 and 2"
                )

    return [(law, t[law].checked, t[law].failed, t[law].first) for law in _LAW_NAMES]


def _chunk_bounds(n_max: int, pieces: int) -> list[tuple[int, int]]:
    pieces = max(1, min(pieces, n_max))
    base, extra = divmod(n_max, pieces)
    bounds = []
    lo = 1
    for i in range(pieces):
        hi = lo + base - 1 + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi + 1
    return bounds


def verify_claims(n_max: int, a_max: int, workers: int = 1) -> VerificationReport:
    """Sweep every lifting law over n <= n_max, a <= a_max and report per-law
    pass/fail counts with the first counterexample of each failing law.

    A correct implementation reports zero failures; any failure indicates a
    bug, not a broken law.  Prime-power laws additionally cap p at 50 and k
    at 6 to keep p**k at desk scale.  With workers > 1 the n-range is split
    across min(workers, n_max) processes; the report (including which
    counterexample is "first") is identical regardless of worker count.
    """
    if n_max < 1 or a_max < 1:
        raise ValueError(f"bounds must be >= 1, got ({n_max}, {a_max})")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    chunks = [(lo, hi, n_max, a_max) for lo, hi in _chunk_bounds(n_max, workers * 8)]
    processes = min(workers, len(chunks))
    if processes == 1:
        parts = [_check_range((1, n_max, n_max, a_max))]
    else:
        import multiprocessing

        with multiprocessing.Pool(processes) as pool:
            parts = pool.map(_check_range, chunks)

    merged = {law: [0, 0, None] for law in _LAW_NAMES}
    for part in parts:
        for law, checked, failed, first in part:
            entry = merged[law]
            entry[0] += checked
            entry[1] += failed
            if entry[2] is None and first is not None:
                entry[2] = first
    laws = tuple(
        LawResult(law, merged[law][0], merged[law][1], merged[law][2])
        for law in _LAW_NAMES
    )
    return VerificationReport(n_max, a_max, laws)
