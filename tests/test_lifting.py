"""Tests for pair validation, the lifting formulas, and the law sweep."""

import ast
import inspect
import math
import multiprocessing
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlift import arith, laws, lifting, orders
from ordlift.arith import radical, valuation
from ordlift.errors import InvalidPairError, NotCoprimeError
from ordlift.laws import verify_claims
from ordlift.lifting import (
    BasePair,
    TwoAdicCase,
    admissible_bases,
    alpha_fast,
    alpha_prime_power,
    beta_fast,
    beta_prime_power,
    canonical_base,
    lift_alpha,
    lift_beta,
    lift_order,
    make_base_pair,
    order_fast,
    proj_order_fast,
)
from ordlift.orders import (
    alpha,
    alpha_oracle,
    beta,
    beta_oracle,
    mult_order,
    proj_order,
    remainder_gcd,
)
from oracles import is_prime as oracle_is_prime
from oracles import random_prime


def test_make_base_pair_accepts():
    assert make_base_pair(9, 3).two_adic_case is TwoAdicCase.SMALL
    assert make_base_pair(24, 12).two_adic_case is TwoAdicCase.LARGE
    assert make_base_pair(24, 24).two_adic_case is TwoAdicCase.LARGE
    assert make_base_pair(30, 30).two_adic_case is TwoAdicCase.SMALL
    assert make_base_pair(1, 1).two_adic_case is TwoAdicCase.SMALL


def test_make_base_pair_rejections():
    with pytest.raises(InvalidPairError) as e:
        make_base_pair(9, 4)
    assert e.value.reason == InvalidPairError.REASON_NOT_DIVISOR
    with pytest.raises(InvalidPairError) as e:
        make_base_pair(10, 5)
    assert e.value.reason == InvalidPairError.REASON_RADICAL
    with pytest.raises(InvalidPairError) as e:
        make_base_pair(24, 6)
    assert e.value.reason == InvalidPairError.REASON_TWO_ADIC
    with pytest.raises(ValueError):
        make_base_pair(0, 1)


# Pairs the formulas get wrong: lift_order on (24, 6) gives 4 for a = 7 and on
# (63, 7) gives 27 for a = 2, where the true orders are 2 and 6.
_BAD_PAIRS = {
    (24, 6): InvalidPairError.REASON_TWO_ADIC,
    (63, 7): InvalidPairError.REASON_RADICAL,
}


@pytest.mark.parametrize("n1, n2", sorted(_BAD_PAIRS))
def test_base_pair_checks_itself(n1, n2):
    reason = _BAD_PAIRS[n1, n2]
    for build in (lambda: BasePair(n1, n2), lambda: BasePair(n1=n1, n2=n2)):
        with pytest.raises(InvalidPairError) as e:
            build()
        assert e.value.reason == reason


def test_base_pair_is_its_two_moduli():
    assert make_base_pair is BasePair
    with pytest.raises(TypeError):
        BasePair(24, 12, TwoAdicCase.LARGE)
    # The 2-adic case follows n1, so _replace never carries a stale one.
    moved = make_base_pair(24, 12)._replace(n1=30, n2=30)
    assert moved == make_base_pair(30, 30) and moved.two_adic_case is TwoAdicCase.SMALL
    with pytest.raises(InvalidPairError) as e:
        make_base_pair(30, 30)._replace(n1=60)
    assert e.value.reason == InvalidPairError.REASON_TWO_ADIC


def test_valid_pairs_share_radical():
    for n1 in range(1, 400):
        for n2 in admissible_bases(n1):
            pair = make_base_pair(n1, n2)
            assert radical(pair.n1) == radical(pair.n2)
            expected = TwoAdicCase.SMALL if valuation(n1, 2) <= 1 else TwoAdicCase.LARGE
            assert pair.two_adic_case is expected


def _oracle_reason(n1, n2, rad):
    """The reason BasePair(n1, n2) must give, or None, given rad(n1)."""
    if n1 % n2:
        return InvalidPairError.REASON_NOT_DIVISOR
    if n2 % rad:
        return InvalidPairError.REASON_RADICAL
    if n1 % 4 == 0 and n2 % (2 * rad):
        return InvalidPairError.REASON_TWO_ADIC
    return None


def _pair_reason(n1, n2):
    try:
        BasePair(n1, n2)
    except InvalidPairError as exc:
        return exc.reason
    return None


def test_base_pair_reasons_match_the_oracle_radical():
    primes = [p for p in range(2, 601) if oracle_is_prime(p)]
    for n1 in range(1, 601):
        rad = math.prod(p for p in primes if n1 % p == 0)
        for n2 in range(1, n1 + 1):
            assert _pair_reason(n1, n2) == _oracle_reason(n1, n2, rad), (n1, n2)


# The budget-fault input: a semiprime that the factoring schedule gives up on.
_BUDGET_FAULT = 1631903435575911832850657892379182733


def _forbid_split(monkeypatch):
    """Make any factoring past trial division raise, so that a call that
    returns has split nothing that is not already in the cache."""

    def boom(n, exps):
        raise AssertionError(f"_split({n}) reached")

    monkeypatch.setattr(arith, "_split", boom)


def test_base_pair_checks_without_factoring(monkeypatch):
    arith._factor_pairs.cache_clear()
    _forbid_split(monkeypatch)
    bf = _BUDGET_FAULT
    assert BasePair(bf, bf).two_adic_case is TwoAdicCase.SMALL
    assert BasePair(4 * bf, 4 * bf).two_adic_case is TwoAdicCase.LARGE
    for n1, n2, reason in (
        (2 * bf, bf, InvalidPairError.REASON_RADICAL),
        (4 * bf, 2 * bf, InvalidPairError.REASON_TWO_ADIC),
    ):
        with pytest.raises(InvalidPairError) as e:
            BasePair(n1, n2)
        assert e.value.reason == reason


def test_base_pair_rejects_a_float_with_a_type_error():
    for n1, n2 in ((24.0, 12.0), (9.0, 3.0)):
        with pytest.raises(TypeError):
            BasePair(n1, n2)


def test_canonical_base_known_values():
    assert canonical_base(9) == 3
    assert canonical_base(24) == 12
    assert canonical_base(30) == 30
    assert canonical_base(1) == 1
    assert canonical_base(16) == 4
    assert canonical_base(4) == 4


@given(st.integers(1, 5000))
@settings(max_examples=300)
def test_canonical_base_always_valid(n):
    make_base_pair(n, canonical_base(n))  # must not raise


def test_lift_order_known_values():
    assert lift_order(make_base_pair(9, 3), 2) == 6
    assert lift_order(make_base_pair(125, 5), 7) == 20
    for n in (7, 24, 45):
        for a in (1, 7, 11):
            if math.gcd(a, n) == 1:
                pair = make_base_pair(n, n)
                assert lift_order(pair, a) == mult_order(a, n).order


def test_lift_order_brute_force_spot():
    # order of 7 mod 125 by direct scan
    x, e = 7, 1
    while x != 1:
        x = x * 7 % 125
        e += 1
    assert e == 20
    assert lift_order(make_base_pair(125, 5), 7) == 20


def test_lift_raises_on_a_wrong_order_at_the_base(monkeypatch):
    # A planted fault: the engine gives 2 for the order of 2 mod 5, where the
    # true order is 4.  Then gcd(125, 2**2 - 1) = 1 is not a multiple of 5,
    # and every lift must raise instead of returning 2 * 125 = 250.
    real = orders._order_value

    def wrong(r, n):
        return (2, 2) if (r, n) == (2, 5) else real(r, n)

    monkeypatch.setattr(orders, "_order_value", wrong)
    monkeypatch.setattr(lifting, "_order_value", wrong)
    message = "remainder gcd 1 is not a multiple of the base modulus 5"
    with pytest.raises(ArithmeticError, match=message):
        remainder_gcd(2, 5, 125)
    pair = make_base_pair(125, 5)
    for lift in (lift_order, lift_alpha, lift_beta):
        with pytest.raises(ArithmeticError, match=message):
            lift(pair, 2)


def test_lift_alpha_known_values():
    assert lift_alpha(make_base_pair(9, 3), 2) == 2
    assert lift_alpha(make_base_pair(25, 5), 2) == 4
    assert alpha_oracle(2, 25) == 4
    pair = make_base_pair(45, 15)
    assert lift_alpha(pair, 2) == alpha(2, 45)


def test_lift_beta_known_values():
    assert lift_beta(make_base_pair(9, 3), 2) == 1
    assert lift_beta(make_base_pair(25, 5), 2) == 2
    assert beta_oracle(2, 25) == 2
    pair = make_base_pair(45, 45)
    assert lift_beta(pair, 2) == beta(2, 45)


def test_lift_rejects_noncoprime():
    pair = make_base_pair(9, 3)
    with pytest.raises(NotCoprimeError, match=r"lift_order undefined: gcd\(6, 9\)"):
        lift_order(pair, 6)
    with pytest.raises(NotCoprimeError, match=r"lift_alpha undefined: gcd\(3, 9\)"):
        lift_alpha(pair, 3)
    with pytest.raises(NotCoprimeError, match=r"lift_beta undefined: gcd\(12, 9\)"):
        lift_beta(pair, 12)


def test_lift_matches_direct_over_all_pairs():
    for n1 in range(1, 300):
        for n2 in admissible_bases(n1):
            pair = make_base_pair(n1, n2)
            for a in range(1, 15):
                if math.gcd(a, n1) != 1:
                    continue
                assert lift_order(pair, a) == mult_order(a, n1).order
                assert lift_alpha(pair, a) == alpha(a, n1)
                assert lift_beta(pair, a) == beta(a, n1)


def test_counterexample_pair_guard():
    # (24, 6) must be rejected: the raw formula evaluates to 4 there while
    # the true order of 7 mod 24 is 2
    with pytest.raises(InvalidPairError):
        make_base_pair(24, 6)
    assert mult_order(7, 24).order == 2
    raw = mult_order(7, 6).order * (24 // remainder_gcd(7, 6, 24))
    assert raw == 4


def test_alpha_fast_known_values():
    assert alpha_fast(2, 15) == 4
    assert alpha_fast(3, 20) == 1
    assert alpha_fast(5, 16) == 1
    assert alpha_fast(6, 10) == 0
    assert alpha_fast(2, 1) == 1


def test_beta_fast_known_values():
    assert beta_fast(2, 27) == 1
    assert beta_fast(2, 5) == 2
    assert beta_fast(6, 12) == 0


@given(st.integers(-100, 100), st.integers(1, 1500))
@settings(max_examples=500)
def test_fast_paths_match_direct(a, n):
    assert alpha_fast(a, n) == alpha(a, n)
    assert beta_fast(a, n) == beta(a, n)


def test_order_fast_matches_and_rejects():
    for n in range(1, 200):
        for a in range(1, 20):
            if math.gcd(a, n) == 1:
                assert order_fast(a, n) == mult_order(a, n).order
                assert proj_order_fast(a, n) == proj_order(a, n)
    with pytest.raises(NotCoprimeError):
        order_fast(4, 10)
    with pytest.raises(NotCoprimeError):
        proj_order_fast(4, 10)


def test_order_fast_random_64_bit_cold():
    # 200 random odd 64-bit moduli with every cache empty: the factorization
    # of n and of each p - 1 dominates.
    rng = random.Random(64)
    cases = []
    while len(cases) < 200:
        n = rng.getrandbits(64) | (1 << 63) | 1
        a = rng.randrange(2, 1000)
        if math.gcd(a, n) == 1:
            cases.append((a, n))
    arith._factor_pairs.cache_clear()
    orders._order_value.cache_clear()
    t0 = time.perf_counter()
    for a, n in cases:
        d = order_fast(a, n)
        assert pow(a, d, n) == 1
    assert time.perf_counter() - t0 < 2.0


def test_alpha_prime_power_known_values():
    assert alpha_prime_power(2, 3, 5) == 2
    assert alpha_oracle(2, 243) == 2
    for k in range(1, 7):
        for a in (1, 3, 5, 7, 9):
            assert alpha_prime_power(a, 2, k) == 1
    assert alpha_prime_power(3, 3, 2) == 0
    assert alpha_prime_power(10, 5, 2) == 0


def test_beta_prime_power_known_values():
    assert beta_prime_power(2, 3, 4) == 1
    # at p = 2 the function is 1 on odd a and 0 on even a, for every k
    for a in (1, 3, 5, 9):
        assert beta_prime_power(a, 2, 5) == 1
    assert beta_prime_power(2, 2, 5) == 0
    assert beta_prime_power(10, 5, 2) == 0


def test_prime_power_shortcuts_stable_in_k():
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(1, 15):
            a_vals = {alpha_prime_power(a, p, k) for k in range(1, 7)}
            b_vals = {beta_prime_power(a, p, k) for k in range(1, 7)}
            assert len(a_vals) == 1 and len(b_vals) == 1
            for k in range(1, 7):
                assert alpha_prime_power(a, p, k) == alpha(a, p**k)
                assert beta_prime_power(a, p, k) == beta(a, p**k)


def test_prime_power_rejects_bad_arguments():
    for shortcut in (alpha_prime_power, beta_prime_power):
        name = shortcut.__name__
        with pytest.raises(ValueError, match=f"{name} requires a prime p, got 4"):
            shortcut(2, 4, 1)
        with pytest.raises(ValueError, match=f"{name} requires k >= 1, got 0"):
            shortcut(2, 3, 0)


def test_admissible_bases():
    assert admissible_bases(9) == [3, 9]
    assert admissible_bases(24) == [12, 24]
    assert admissible_bases(30) == [30]
    assert admissible_bases(1) == [1]
    assert admissible_bases(72) == [12, 24, 36, 72]


def test_admissible_bases_are_the_accepted_divisors():
    for n in range(1, 2001):
        accepted = [d for d in range(1, n + 1) if n % d == 0 and _pair_reason(n, d) is None]
        assert admissible_bases(n) == accepted, n


def test_admissible_bases_reads_one_factorization(monkeypatch):
    # n1 = 2**5 p**3 q**2 r**2, 291 bits: 4 * 3 * 2 * 2 = 48 bases, read off
    # the one factorization of n1 with no further splitting.
    rng = random.Random(14)
    p, q, r = (random_prime(rng, bits) for bits in (40, 48, 36))
    n1 = 2**5 * p**3 * q**2 * r**2
    assert arith.factorize(n1).factors == tuple(sorted({2: 5, p: 3, q: 2, r: 2}.items()))
    _forbid_split(monkeypatch)
    expected = sorted(
        2**a * p**b * q**c * r**d
        for a in range(2, 6)
        for b in range(1, 4)
        for c in range(1, 3)
        for d in range(1, 3)
    )
    assert admissible_bases(n1) == expected and len(expected) == 48


def test_verify_claims_small_sweep_passes():
    report = verify_claims(50, 10)
    assert report.ok
    assert report.total_failed == 0
    assert {law.law for law in report.laws} >= {
        "order-lift-exact",
        "alpha-lift-exact",
        "beta-lift-exact",
        "alpha-reduction-divides",
        "alpha-coprime-lcm",
        "alpha-beta-ratio-transfer",
        "prime-power-order-growth",
        "rejected-pair-guard",
    }
    by_name = {law.law: law for law in report.laws}
    assert by_name["rejected-pair-guard"].checked > 0
    assert by_name["order-lift-exact"].checked > 0


def test_verify_claims_vacuous():
    report = verify_claims(1, 1)
    assert report.ok


def test_verify_claims_rejects_bad_bounds():
    with pytest.raises(ValueError):
        verify_claims(0, 5)
    with pytest.raises(ValueError):
        verify_claims(5, 0)
    with pytest.raises(ValueError):
        verify_claims(5, 5, workers=0)


def test_verify_claims_parallel_matches_serial():
    serial = verify_claims(60, 6)
    parallel = verify_claims(60, 6, workers=2)
    assert serial == parallel


@pytest.fixture
def pool_sizes(monkeypatch):
    """The process counts verify_claims asks multiprocessing.Pool for.

    A recorder takes the place of the pool: it maps in-process and starts no
    process, so the pool sizes asked for can be checked cheaply.
    """
    sizes = []

    class Recorder:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(multiprocessing, "Pool", Recorder)
    return sizes


def test_verify_claims_pool_never_exceeds_chunks(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert verify_claims(2, 1, workers=64) == verify_claims(2, 1)
    assert verify_claims(1, 3, workers=64) == verify_claims(1, 3)
    assert verify_claims(40, 3, workers=3) == verify_claims(40, 3)
    assert pool_sizes == [2, 3]


def test_verify_claims_pool_never_exceeds_cpu_count(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert verify_claims(2000, 1, workers=5000) == verify_claims(2000, 1)
    assert verify_claims(40, 3, workers=8) == verify_claims(40, 3)
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # count unknown
    assert verify_claims(40, 3, workers=8) == verify_claims(40, 3)
    assert pool_sizes == [3, 3]


def test_lifting_holds_the_formulas_and_laws_the_sweep():
    # laws imports from lifting, and lifting imports nothing from laws.
    for name in ("verify_claims", "LawResult", "VerificationReport", "_LAWS", "_sweep"):
        assert not hasattr(lifting, name), name
        assert hasattr(laws, name), name
    tree = ast.parse(inspect.getsource(lifting))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
    assert imported == {"__future__", "collections", "enum", "math",
                        "ordlift.arith", "ordlift.errors", "ordlift.orders"}


def test_verify_claims_sweep_shape():
    report = verify_claims(300, 10)
    assert [(law.law, law.checked) for law in report.laws] == [
        ("order-lift-exact", 2564),
        ("alpha-lift-exact", 2564),
        ("beta-lift-exact", 2564),
        ("alpha-routes-agree", 3000),
        ("beta-routes-agree", 3000),
        ("alpha-reduction-divides", 5420),
        ("alpha-coprime-lcm", 6400),
        ("alpha-prime-power-stable", 900),
        ("beta-prime-power-stable", 900),
        ("alpha-beta-ratio-transfer", 2316),
        ("alpha-equals-beta-above-4", 300),
        ("alpha-beta-alternative", 1868),
        ("alpha-divides-phi-quotient", 1868),
        ("prime-power-order-growth", 648),
        ("rejected-pair-guard", 76),
    ]
    assert report.total_checked == 34388 and report.ok


def test_verify_claims_builds_each_modulus_once(monkeypatch):
    # One admissible_bases call per n1, and one make_base_pair call per
    # admissible base plus the rejected-pair guard's probe at each n with 4 | n.
    n_max = 300
    expected_pairs = sum(len(admissible_bases(n)) for n in range(1, n_max + 1))
    expected_pairs += n_max // 4
    calls = {"admissible_bases": 0, "make_base_pair": 0}
    for name in calls:
        real = getattr(laws, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(laws, name, counted)
    assert verify_claims(n_max, 10).ok
    assert calls == {"admissible_bases": n_max, "make_base_pair": expected_pairs}


# Planted faults for the failure path of the sweep: each wraps one function
# the sweep calls through the laws module and changes its value on a few
# inputs.  Together they make every law fail somewhere in verify_claims(60, 6).
# alpha and beta are planted in lifting too, where lift_alpha and lift_beta
# look them up.
def _off_at(name, hit, change, modules=(laws,)):
    real = getattr(laws, name)

    def fake(*args):
        got = real(*args)
        return change(got) if hit(*args) else got

    return modules, name, fake


def _plant(monkeypatch, fault):
    modules, name, fake = fault
    for module in modules:
        monkeypatch.setattr(module, name, fake)


def _accept_every_pair(n1, n2):
    # tuple.__new__ skips BasePair's own checks.
    return tuple.__new__(BasePair, (n1, n2))


def _reject_for_wrong_reason(n1, n2):
    try:
        return make_base_pair(n1, n2)
    except InvalidPairError as exc:
        raise InvalidPairError(str(exc), InvalidPairError.REASON_RADICAL) from None


_FAULTS = {
    "lift_order": (
        _off_at("lift_order", lambda pair, a: pair.n1 % 7 == 0 and a == 3,
                lambda v: v + 1),
        {"order-lift-exact": (8, "n1=7 n2=7 a=3: lifted 7 != direct 6")},
    ),
    "alpha": (
        _off_at("alpha", lambda a, n: n % 9 == 0 and a == 2, lambda v: 2 * v,
                (laws, lifting)),
        {
            "alpha-lift-exact": (4, "n1=9 n2=9 a=2: lifted 4 != direct 2"),
            "alpha-reduction-divides": (
                3, "n1=9 n2=3 a=2: alpha(n1)=4 does not divide alpha(n2)=2"),
            "alpha-coprime-lcm": (
                1, "m1=5 m2=9 a=2: alpha(45)=8 does not divide lcm(4, 4)"),
            "alpha-prime-power-stable": (5, "p=3 k=2 a=2: shortcut 2 != alpha 4"),
            "alpha-beta-ratio-transfer": (6, "n1=3 n2=9 a=2: 2/1 != 4/1"),
            "alpha-beta-alternative": (2, "n=9 a=2: alpha 4, beta 1"),
            "alpha-divides-phi-quotient": (
                2, "n=9 a=2: alpha 4 does not divide 2"),
        },
    ),
    "beta": (
        _off_at("beta", lambda a, n: n % 8 == 0 and a == 3, lambda v: 2 * v,
                (laws, lifting)),
        {
            "beta-lift-exact": (8, "n1=8 n2=8 a=3: lifted 2 != direct 1"),
            "beta-prime-power-stable": (4, "p=2 k=3 a=3: shortcut 1 != beta 2"),
            "alpha-equals-beta-above-4": (5, "n=8 a=3: alpha 1 != beta 2"),
            "alpha-beta-alternative": (5, "n=8 a=3: alpha 1, beta 2"),
        },
    ),
    "alpha_fast": (
        _off_at("alpha_fast", lambda a, n: n == 10 and a == 3, lambda v: v + 1),
        {"alpha-routes-agree": (1, "n=10 a=3: direct 2, fast 3, oracle 2")},
    ),
    "beta_fast": (
        _off_at("beta_fast", lambda a, n: n % 11 == 0, lambda v: v + 1),
        {"beta-routes-agree": (30, "n=11 a=1: direct 1, fast 2, oracle 1")},
    ),
    "_order_phi": (
        _off_at("_order_phi", lambda r, n: n == 125, lambda v: v + 1),
        {"prime-power-order-growth": (2, "p=5 k=3 a=2: order 101 != 100")},
    ),
    "accept-every-pair": (
        ((laws,), "make_base_pair", _accept_every_pair),
        {"rejected-pair-guard": (15, "(n1, rad) = (4, 2) was not rejected")},
    ),
    "wrong-reason": (
        ((laws,), "make_base_pair", _reject_for_wrong_reason),
        {
            "rejected-pair-guard": (
                15,
                "(n1, rad) = (4, 2) rejected for wrong reason "
                "radical-does-not-divide-n2",
            )
        },
    ),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_verify_claims_reports_planted_fault(monkeypatch, fault):
    planted, expected = _FAULTS[fault]
    _plant(monkeypatch, planted)
    report = verify_claims(60, 6)
    assert report.total_checked == 5001
    failing = {
        law.law: (law.failed, law.first_counterexample)
        for law in report.laws
        if not law.ok
    }
    assert failing == expected
    assert report.total_failed == sum(failed for failed, _ in expected.values())
    assert not report.ok


def test_planted_faults_fail_every_law():
    failing = {law for _, expected in _FAULTS.values() for law in expected}
    assert failing == {law.law for law in verify_claims(1, 1).laws}


def test_verify_claims_failures_identical_across_workers(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    for planted, _ in _FAULTS.values():
        with monkeypatch.context() as m:
            _plant(m, planted)
            serial = verify_claims(60, 6)
            assert verify_claims(60, 6, workers=2) == serial
            assert verify_claims(60, 6, workers=7) == serial
            assert not serial.ok
    assert pool_sizes == [2, 7] * len(_FAULTS)
