"""Tests for the integer arithmetic primitives."""

import math
import random
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlift import arith
from ordlift.arith import (
    Factorization,
    divisors,
    euler_phi,
    factorize,
    gcd_conv,
    is_prime,
    mod_pow,
    radical,
    valuation,
)
from ordlift.errors import FactorizationBudgetError
from oracles import is_prime as oracle_is_prime
from oracles import strong_probable_prime
from oracles import wide_products


def naive_factor_list(n):
    """Trial-division oracle: the multiset of prime factors of n."""
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def test_factorize_known_values():
    assert factorize(1).factors == ()
    assert factorize(24).factors == ((2, 3), (3, 1))
    assert factorize(19).factors == ((19, 1),)
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))


@pytest.mark.parametrize("bad", [0, -1, -24])
def test_factorize_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        factorize(bad)


def test_factorize_reconstructs_exhaustive():
    for n in range(1, 20001):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n


@given(st.integers(1, 10**6))
@settings(max_examples=300)
def test_factorize_invariants(n):
    f = factorize(n)
    assert f.value == n
    assert math.prod(p**e for p, e in f.factors) == n
    ps = [p for p, _ in f.factors]
    assert ps == sorted(ps) and len(set(ps)) == len(ps)
    assert all(is_prime(p) for p in ps)
    assert all(e >= 1 for _, e in f.factors)
    assert (n == 1) == (f.factors == ())


def test_factorize_beyond_trial_division():
    # primes and semiprimes past the trial-division bound exercise the
    # Miller-Rabin + Pollard rho path
    p, q = 2147483647, 2305843009213693951  # both prime
    assert factorize(p).factors == ((p, 1),)
    assert factorize(q).factors == ((q, 1),)
    assert factorize(p * p).factors == ((p, 2),)
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert factorize(2**62).factors == ((2, 62),)
    # Powers of a large prime are split by integer roots; Pollard rho would
    # need about 2**25 steps for them.
    big = 1125899906842679  # nextprime(2**50)
    assert factorize(big**2).factors == ((big, 2),)
    assert factorize(big**3 * 1031**2).factors == ((1031, 2), (big, 3))


def _product(factors):
    return math.prod(p**k for p, k in factors.items())


def test_factorize_wide_products():
    # Products of up to 128 bits whose second-largest prime has at most 44
    # bits.  The first is two primes of 36 bits or more, which the short rho
    # run leaves to ECM.
    cases = wide_products(2009, 12)
    assert min(cases[0]).bit_length() >= 36 and len(cases[0]) == 2
    assert arith._pollard_rho(_product(cases[0])) == 1
    for factors in cases:
        n = _product(factors)
        f = factorize(n)
        assert f.factors == tuple(sorted(factors.items()))
        assert all(oracle_is_prime(p) for p, _ in f.factors)


def test_ecm_stage_2_finds_what_stage_1_misses():
    # 474349721 * 6652754837 is the split inside psi_12 - 1.  On sigma = 6 at
    # B1 = 200, stage 1 alone finds nothing, and stage 2 finds 474349721.
    n, sigma, b1 = 474349721 * 6652754837, 6, 200
    u, v = sigma * sigma - 5, 4 * sigma
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(16 * u**3 * v, -1, n) % n
    x = u**3 * pow(v**3, -1, n) % n
    _, z, _, _ = arith._ladder(arith._stage1_multiplier(b1), x, 1, a24, n)
    assert math.gcd(z, n) == 1
    assert arith._ecm_curve(n, sigma, b1) == 474349721


def test_stage2_plan_pairs_exactly_the_primes_past_b1():
    # Each listed (m, b) has m*D - b or m*D + b prime in (B1, B2], and every
    # such prime is covered.
    b1 = 200
    b2, d = arith._ECM_B2_RATIO * b1, arith._ECM_D
    babies, m0, rows = arith._stage2_plan(b1)
    covered = set()
    for i, row in enumerate(rows):
        for j in row:
            pair = {(m0 + i) * d - babies[j], (m0 + i) * d + babies[j]}
            hits = {q for q in pair if b1 < q <= b2 and oracle_is_prime(q)}
            assert hits
            covered |= hits
    assert covered == {q for q in range(b1 + 1, b2 + 1) if oracle_is_prime(q)}


def test_sieve_flags_exactly_the_primes():
    assert list(arith._sieve(1)) == [0, 0]
    sieve = arith._sieve(20000)
    assert [q for q in range(20001) if sieve[q]] == [
        q for q in range(20001) if oracle_is_prime(q)
    ]


def test_trial_primes_are_the_primes_below_the_limit():
    assert arith._TRIAL_LIMIT == 1 << 10
    assert arith._TRIAL_PRIMES == tuple(
        q for q in range(1 << 10) if oracle_is_prime(q)
    )
    assert len(arith._TRIAL_PRIMES) == 172


def test_factorize_at_the_end_of_the_prime_table():
    # 1021 is the last trial prime and 1031 the next prime.  The last four
    # cases leave a cofactor of at least 1021**2 once the table is spent.
    past_the_table = next(q for q in range(1021**2, 1025**2) if oracle_is_prime(q))
    for n in (1021, 1031, 1021**2, 1021 * 1031, 1031**2, past_the_table):
        arith._factor_pairs.cache_clear()
        listed = [p for p, e in factorize(n).factors for _ in range(e)]
        assert listed == naive_factor_list(n), n


def test_budget_error_names_both_methods():
    # The primes of 60 and 61 bits that random_prime draws from Random(1):
    # past the budget of Hart's pass, rho and ECM together.
    t0 = time.perf_counter()
    with pytest.raises(FactorizationBudgetError, match="Hart's .* Pollard rho .* ECM"):
        factorize(1631903435575911832850657892379182733)
    assert time.perf_counter() - t0 < 5.0


def test_hart_splits_psi12_and_psi13():
    # Both are p * (2p - 1), so 8n + 1 is a square and multiplier 8 splits
    # them.  psi_13 passes all thirteen bases, so _split never reaches the
    # pass for it; called directly, the pass still splits it.
    assert arith._hart(PSI[12]) in (399165290221, 798330580441)
    assert arith._hart(PSI[13]) in (1287836182261, 2575672364521)
    assert factorize(PSI[12]).factors == ((399165290221, 1), (798330580441, 1))


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


# OEIS A014233: psi_k, the smallest odd composite that is a strong probable
# prime to each of the first k prime bases.
PSI = {
    1: 2047,
    2: 1373653,
    3: 25326001,
    4: 3215031751,
    5: 2152302898747,
    6: 3474749660383,
    7: 341550071728321,
    8: 341550071728321,
    9: 3825123056546413051,
    10: 3825123056546413051,
    11: 3825123056546413051,
    12: 318665857834031151167461,
    13: 3317044064679887385961981,
}
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime_13_bases(n):
    """Miller-Rabin with all thirteen of the first primes as bases, always."""
    if n < 2:
        return False
    for p in FIRST_PRIMES:
        if n % p == 0:
            return n == p
    return all(strong_probable_prime(n, a) for a in FIRST_PRIMES)


def test_witness_bounds_are_a014233():
    # Every count skipped (8, 10, 11) has the same bound as the one below it.
    assert arith._MR_BOUNDS == tuple((PSI[k], k) for k in (1, 2, 3, 4, 5, 6, 7, 9, 12))
    assert arith._MR_WITNESSES == FIRST_PRIMES
    assert PSI[8] == PSI[7] and PSI[10] == PSI[11] == PSI[9]


def test_witness_bounds_are_tight():
    # psi_k is composite (some base below 200 exposes it) yet passes the
    # first k bases, so each bound is strict: psi_k needs a (k+1)th base.
    for k, psi in PSI.items():
        assert not all(strong_probable_prime(psi, a) for a in range(2, 200)), k
        assert all(strong_probable_prime(psi, a) for a in FIRST_PRIMES[:k]), k


def test_is_prime_rejects_each_graded_bound():
    for k, psi in PSI.items():
        # psi_13 passes all thirteen bases: the known fault past the fixed
        # bases.
        assert is_prime(psi) == (k == 13), k


def test_is_prime_rejects_psi12():
    # A strong pseudoprime to the twelve bases 2..37 that base 41 exposes.
    assert is_prime(PSI[12]) is False


def test_is_prime_graded_matches_thirteen_bases():
    windows = [n for psi in PSI.values() for n in range(psi - 50, psi + 51)]
    rng = random.Random(1993)
    odd = [rng.getrandbits(bits) | 1 | 1 << (bits - 1)
           for bits in range(2, 91) for _ in range(60)]
    verdicts = {n: is_prime_13_bases(n) for n in windows + odd}
    assert 0 < sum(verdicts.values()) < len(verdicts)
    for n, want in verdicts.items():
        assert is_prime(n) == want, n


def test_valuation_known_values():
    assert valuation(24, 2) == 3
    assert valuation(24, 5) == 0
    for p in (2, 3, 5, 31):
        assert valuation(1, p) == 0


@pytest.mark.parametrize("bad_p", [1, 4, 6, 9, 0, -3])
def test_valuation_rejects_nonprime(bad_p):
    with pytest.raises(ValueError):
        valuation(24, bad_p)


@given(st.integers(1, 10**4), st.sampled_from([2, 3, 5, 7]))
def test_valuation_matches_repeated_division(n, p):
    e = 0
    m = n
    while m % p == 0:
        m //= p
        e += 1
    assert valuation(n, p) == e
    assert n % p**e == 0 and n % p ** (e + 1) != 0


def test_radical_known_values():
    assert radical(24) == 6
    assert radical(1) == 1
    assert radical(30) == 30
    assert radical(2**10) == 2


@given(st.integers(1, 10**5))
@settings(max_examples=300)
def test_radical_properties(n):
    r = radical(n)
    assert radical(r) == r
    assert n % r == 0
    assert set(factorize(r).primes()) == set(factorize(n).primes())


def test_radical_idempotent_exhaustive():
    for n in range(1, 10001):
        assert radical(radical(n)) == radical(n)


def test_gcd_conv_known_values():
    assert gcd_conv(0, 7) == 7
    assert gcd_conv(-4, 6) == 2
    assert gcd_conv(35, 14) == 7
    assert gcd_conv(0, 1) == 1
    with pytest.raises(ValueError):
        gcd_conv(3, 0)


def test_mod_pow_known_values():
    assert mod_pow(2, 10, 1000) == 24
    assert mod_pow(7, 2, 24) == 1
    assert mod_pow(5, 0, 9) == 1
    assert mod_pow(5, 0, 1) == 0  # 1 mod 1
    assert mod_pow(-1, 1, 5) == 4
    with pytest.raises(ValueError):
        mod_pow(2, -1, 5)
    with pytest.raises(ValueError):
        mod_pow(2, 3, 0)


def test_mod_pow_matches_naive():
    for n in range(1, 101):
        for a in range(51):
            acc = 1 % n
            for e in range(51):
                assert mod_pow(a, e, n) == acc
                acc = acc * a % n


@given(st.integers(-10**6, 10**6), st.integers(0, 50), st.integers(1, 100))
def test_mod_pow_matches_builtin(a, e, n):
    assert mod_pow(a, e, n) == pow(a % n, e, n)


def test_euler_phi_known_values():
    assert euler_phi(1) == 1
    assert euler_phi(20) == 8
    for p in (2, 3, 5, 19, 97):
        assert euler_phi(p) == p - 1


def test_euler_phi_matches_direct_count():
    for n in range(1, 2001):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_euler_phi_matches_sieve():
    limit = 10**4
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for mult in range(p, limit + 1, p):
                phi[mult] -= phi[mult] // p
    for n in range(1, limit + 1):
        assert euler_phi(n) == phi[n]


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    for n in range(1, 500):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_factorization_accessors():
    f = factorize(360)
    assert f.primes() == (2, 3, 5)
    assert f.exponent(2) == 3
    assert f.exponent(7) == 0
    assert isinstance(f, Factorization)


def test_factorize_concurrent_use():
    # the internal cache must tolerate concurrent callers
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(factorize, list(range(1, 2000)) * 4))
    for f in results:
        assert math.prod(p**e for p, e in f.factors) == f.value
