"""Tests for the integer arithmetic primitives."""

import math
import random
import time
from collections import Counter
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
from oracles import is_prime_13_bases
from oracles import random_prime
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
    # bits.  The first is two primes of 36 bits or more, which the rho walk
    # leaves whole to ECM.
    cases = wide_products(2009, 12)
    assert min(cases[0]).bit_length() >= 36 and len(cases[0]) == 2
    assert arith._pollard_rho(_product(cases[0]), arith._RHO_START) == (1, None)
    for factors in cases:
        n = _product(factors)
        f = factorize(n)
        assert f.factors == tuple(sorted(factors.items()))
        assert all(oracle_is_prime(p) for p, _ in f.factors)


def _count_walks(monkeypatch):
    """The cofactors on which a rho walk starts, recorded as they start; a
    walk resumed on a cofactor it left is not counted again."""
    walks = []
    walk = arith._pollard_rho

    def counted(n, at):
        if at == arith._RHO_START:
            walks.append(n)
        return walk(n, at)

    monkeypatch.setattr(arith, "_pollard_rho", counted)
    return walks


def test_one_walk_splits_every_prime_of_21_to_24_bits(monkeypatch):
    # The 21-, 22-, 23- and 24-bit primes that random_prime draws from
    # Random(24).  One walk, continued past each split, finds all four
    # without ECM.
    primes = (1761187, 2862997, 5463503, 10327949)
    rng = random.Random(24)
    assert tuple(random_prime(rng, bits) for bits in (21, 22, 23, 24)) == primes
    arith._factor_pairs.cache_clear()
    walks = _count_walks(monkeypatch)

    def no_ecm(n):
        raise AssertionError(f"ECM reached on {n}")

    monkeypatch.setattr(arith, "_ecm", no_ecm)
    n = 284519236510442903801266333
    assert factorize(n).factors == tuple((p, 1) for p in primes)
    assert walks == [n]


def test_walk_roots_a_square_it_leaves(monkeypatch):
    # The walk splits off the 21-bit prime and leaves (2**61 - 1)**2, which is
    # rooted, not walked to the cap or handed to ECM: 2**61 - 1 is beyond
    # the reach of both.
    p, q = 1761187, 2**61 - 1
    arith._factor_pairs.cache_clear()
    walks = _count_walks(monkeypatch)

    def no_ecm(n):
        raise AssertionError(f"ECM reached on {n}")

    monkeypatch.setattr(arith, "_ecm", no_ecm)
    n = p * q**2
    assert factorize(n).factors == ((p, 1), (q, 2))
    assert walks == [n]


@pytest.mark.parametrize(
    "primes, walks",
    [
        # 2069 and 3121 meet x in one gcd block: the composite 2069 * 3121
        # is split off and gets a walk of its own.
        ((1283, 2069, 3121), [8284778767, 2069 * 3121]),
        # All three meet x in one block: the replay splits off one prime and
        # the same walk goes on to the other two.
        ((5839, 9973, 47087), [2741986523189]),
    ],
)
def test_primes_meeting_in_one_block(monkeypatch, primes, walks):
    n = math.prod(primes)
    assert arith._hart(n) == 1
    arith._factor_pairs.cache_clear()
    started = _count_walks(monkeypatch)
    assert factorize(n).factors == tuple((p, 1) for p in primes)
    assert started == walks



@pytest.mark.parametrize("p, q", [(2129, 3061), (2939, 2069), (3631, 2341), (3499, 2593)])
def test_primes_meeting_at_one_step(monkeypatch, p, q):
    # Both primes meet x at the same step of the walk with c = 1, and every
    # ECM curve at B1 = 200 finds both at once.  The walk starts again with
    # c = 2, which splits n with no ECM.
    n = p * q
    assert arith._hart(n) == 1
    assert all(arith._ecm_curve(n, sigma, 200) == n for sigma in range(6, 14))
    d, at = arith._pollard_rho(n, arith._RHO_START)
    assert d in (p, q) and at[0] == 2
    arith._factor_pairs.cache_clear()

    def no_ecm(n):
        raise AssertionError(f"ECM reached on {n}")

    monkeypatch.setattr(arith, "_ecm", no_ecm)
    assert factorize(n).factors == ((min(p, q), 1), (max(p, q), 1))
    assert factorize(4 * n * 8770973).factors == (
        (2, 2), (min(p, q), 1), (max(p, q), 1), (8770973, 1))


def test_factorize_products_of_two_primes_above_the_table():
    # Products of two primes of 11 or 12 bits, the smallest that pass trial
    # division: each one splits, whatever step its primes meet at.
    rng = random.Random(1)
    primes = [q for q in range(2**10 + 1, 2**12) if oracle_is_prime(q)]
    for _ in range(1000):
        factors = Counter((rng.choice(primes), rng.choice(primes)))
        assert factorize(_product(factors)).factors == tuple(sorted(factors.items()))

def test_ecm_pieces_get_no_walk(monkeypatch):
    # The three 40-bit primes that random_prime draws from Random(3).  The
    # walk gives up on n and ECM splits off 606704305733; the 80-bit rest
    # goes straight to ECM, not to a second walk that would retake the
    # steps that already failed for both of its primes.
    primes = (606704305733, 682353338593, 1010610212239)
    rng = random.Random(3)
    assert sorted(random_prime(rng, 40) for _ in range(3)) == list(primes)
    arith._factor_pairs.cache_clear()
    walks = _count_walks(monkeypatch)
    ecm_runs = []
    ecm = arith._ecm

    def counted_ecm(n):
        ecm_runs.append(n)
        return ecm(n)

    monkeypatch.setattr(arith, "_ecm", counted_ecm)
    n = 418379195397561337650518236340654891
    assert factorize(n).factors == tuple((p, 1) for p in primes)
    assert walks == [n]
    assert ecm_runs == [n, 689593252337461959639727]


@pytest.mark.parametrize(
    "n, small",
    [
        # ECM splits off the 40-bit prime.
        (1612896696687108961760031631645655669721737562149, 606704305733),
        # The walk splits off the 21-bit prime.
        (4682038132424897528900532427504411894076611, 1761187),
    ],
)
def test_hart_runs_on_every_piece(n, small):
    # What is left is p * (2p - 1) with p of 60 bits, beyond the reach of
    # rho and ECM, which only Hart's pass (multiplier 8) splits.
    p = 1152921504606847009
    assert n == small * p * (2 * p - 1)
    arith._factor_pairs.cache_clear()
    assert factorize(n).factors == ((small, 1), (p, 1), (2 * p - 1, 1))


def test_factorize_random_products_of_small_primes():
    # Products of 2 to 4 primes of 11 to 26 bits, some of them squared: the
    # sizes that one rho walk splits, with ECM behind it past the cap.
    rng = random.Random(2024)
    for _ in range(1200):
        factors = {}
        for _ in range(rng.randint(2, 4)):
            p = random_prime(rng, rng.randint(11, 26))
            factors[p] = factors.get(p, 0) + rng.choice((1, 1, 1, 2))
        n = _product(factors)
        assert factorize(n).factors == tuple(sorted(factors.items())), n


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


def test_ladder_matches_a_naive_xadd_chain():
    # [k + 1]P = xADD([k]P, P, [k - 1]P) from O = (1 : 0), P and [2]P, mod the
    # prime 2**61 - 1; the ladder's two points must equal [k]P and [k + 1]P
    # projectively, and neither may be the degenerate (0 : 0).
    n = 2**61 - 1
    rng = random.Random(61)
    for _ in range(5):
        x, a24 = rng.randrange(2, n), rng.randrange(2, n)
        s, d = (x + 1) ** 2 % n, (x - 1) ** 2 % n
        chain = [(1, 0), (x, 1), (s * d % n, (s - d) * (d + a24 * (s - d)) % n)]
        while len(chain) < 102:
            (xq, zq), (xd, zd) = chain[-1], chain[-2]
            u, v = (xq - zq) * (x + 1), (xq + zq) * (x - 1)
            chain.append((zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n))
        for k in range(101):
            x1, z1, x2, z2 = arith._ladder(k, x, 1, a24, n)
            for (xa, za), (xb, zb) in (((x1, z1), chain[k]), ((x2, z2), chain[k + 1])):
                assert (xa % n, za % n) != (0, 0)
                assert (xa * zb - xb * za) % n == 0, (k, x, a24)


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
    # them.
    assert arith._hart(PSI[12]) in (399165290221, 798330580441)
    assert arith._hart(PSI[13]) in (1287836182261, 2575672364521)
    assert factorize(PSI[12]).factors == ((399165290221, 1), (798330580441, 1))
    assert factorize(PSI[13]).factors == ((1287836182261, 1), (2575672364521, 1))


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


def test_witness_bounds_are_a014233():
    # The graded bases decide only below psi_6; BPSW takes over there.
    assert arith._MR_BOUNDS == tuple((PSI[k], k) for k in range(1, 7))
    assert arith._BPSW_FROM == PSI[6]
    assert arith._MR_WITNESSES == FIRST_PRIMES
    assert PSI[8] == PSI[7] and PSI[10] == PSI[11] == PSI[9]


def test_witness_bounds_are_tight():
    # psi_k is composite (some base below 200 exposes it) yet passes the
    # first k bases, so each bound is strict: psi_k needs a (k+1)th base.
    for k, psi in PSI.items():
        assert not all(strong_probable_prime(psi, a) for a in range(2, 200)), k
        assert all(strong_probable_prime(psi, a) for a in FIRST_PRIMES[:k]), k


def test_is_prime_rejects_each_graded_bound():
    # psi_13 passes all thirteen bases; the strong Lucas test rejects it.
    for k, psi in PSI.items():
        assert is_prime(psi) is False, k


def test_is_prime_rejects_psi12():
    # A strong pseudoprime to the twelve bases 2..37 that base 41 exposes.
    assert is_prime(PSI[12]) is False


def test_is_prime_graded_matches_thirteen_bases():
    # The thirteen bases are proven below psi_13; from there on the
    # reference adds 32 random bases.
    windows = [n for psi in PSI.values() for n in range(psi - 50, psi + 51)]
    rng = random.Random(1993)
    odd = [rng.getrandbits(bits) | 1 | 1 << (bits - 1)
           for bits in range(2, 161) for _ in range(60)]
    verdicts = {
        n: is_prime_13_bases(n) if n < PSI[13] else oracle_is_prime(n)
        for n in windows + odd
    }
    assert 0 < sum(verdicts.values()) < len(verdicts)
    for n, want in verdicts.items():
        assert is_prime(n) == want, n


def test_is_prime_at_the_bpsw_seams():
    # BPSW starts at psi_6, is proven below 2^64, has the graded bases after
    # it up to psi_13 (all thirteen from psi_12) and is the whole test from
    # psi_13 on.
    for seam in (PSI[6], 1 << 64, PSI[12], PSI[13]):
        for n in range(seam - 50, seam + 51):
            assert is_prime(n) == oracle_is_prime(n), n


def test_is_prime_from_2_64_to_psi13_matches_thirteen_bases():
    # The bases 3..41 follow BPSW across the whole range, on either side of
    # psi_12.  The products of two such primes lie past psi_13, and each
    # fails both tests.
    rng = random.Random(2064)
    primes = [random_prime(rng, rng.randint(65, 81)) for _ in range(300)]
    assert all(1 << 64 <= p < PSI[13] for p in primes)
    assert 0 < sum(p >= PSI[12] for p in primes) < len(primes)
    products = [p * q for p, q in zip(primes, primes[1:])]
    for n in primes + products:
        assert is_prime(n) == is_prime_13_bases(n), n


# OEIS A217255: the strong Lucas pseudoprimes for Selfridge's parameters.
STRONG_LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
)


def test_strong_lucas_below_60000_passes_primes_and_its_pseudoprimes():
    # Every odd prime passes, and the only composites that do are A217255's,
    # which is_prime rejects.
    sieve = arith._sieve(60000)
    passed = [n for n in range(3, 60001, 2) if arith._strong_lucas(n)]
    assert [n for n in passed if not sieve[n]] == list(STRONG_LUCAS_PSEUDOPRIMES)
    assert [n for n in passed if sieve[n]] == [n for n in range(3, 60001, 2) if sieve[n]]
    for n in STRONG_LUCAS_PSEUDOPRIMES:
        assert not is_prime(n), n


def test_strong_lucas_rejects_base_2_pseudoprimes_psi_and_squares():
    # Every odd composite below 10^6 that passes the strong test to base 2:
    # 46 of them (OEIS A001262), none of which passes strong Lucas.
    limit = 10**6
    sieve = arith._sieve(limit)
    base2 = [
        n for n in range(3, limit, 2)
        if not sieve[n] and pow(2, n - 1, n) == 1 and strong_probable_prime(n, 2)
    ]
    assert len(base2) == 46 and base2[:3] == [2047, 3277, 4033]
    for n in base2 + list(PSI.values()):
        assert not arith._strong_lucas(n), n
    rng = random.Random(1980)
    for p in [3, 5, 7, 11, 13, 1021] + [random_prime(rng, b) for b in (20, 42, 64, 90)]:
        assert not arith._strong_lucas(p * p), p
        assert is_prime(p) and not is_prime(p * p), p


def test_jacobi_matches_euler_criterion():
    # For an odd prime p, (a/p) = a^((p-1)/2) mod p; the Jacobi symbol of a
    # composite is the product over its primes.
    for p in (3, 5, 7, 11, 13, 97, 1009):
        for a in range(-60, 61):
            want = pow(a, (p - 1) // 2, p)
            assert arith._jacobi(a, p) == (-1 if want == p - 1 else want), (a, p)
    for a in range(-60, 61):
        assert arith._jacobi(a, 97 * 1009) == arith._jacobi(a, 97) * arith._jacobi(a, 1009)


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
