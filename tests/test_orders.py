"""Tests for multiplicative/projective orders and the alpha/beta functions."""

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlift import arith
from ordlift.arith import euler_phi, factorize
from ordlift.errors import InvalidPairError, NotCoprimeError
from ordlift.laws import _beta_phi
from ordlift.lifting import (
    beta_fast,
    canonical_base,
    lift_beta,
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
    order_scan,
    proj_order,
    proj_order_scan,
    remainder_gcd,
)
from oracles import is_prime_13_bases, order_mod_prime, random_prime, wide_products

# A strong pseudoprime to every base 2..41 (Sorenson-Webster 2015) that the
# strong Lucas test of is_prime rejects: 1287836182261 * 2575672364521.
PSI13 = 3317044064679887385961981
PSI13_PRIMES = (1287836182261, 2575672364521)


coprime_pairs = st.tuples(st.integers(-200, 200), st.integers(1, 400)).filter(
    lambda t: math.gcd(t[0], t[1]) == 1
)


def test_mult_order_known_values():
    assert mult_order(2, 9).order == 6
    assert mult_order(7, 24).order == 2
    assert mult_order(0, 1).order == 1
    assert mult_order(5, 1).order == 1
    assert mult_order(1, 100).order == 1
    # 6516869 = 2129 * 3061, whose primes meet at one step of the first rho
    # walk: the walk with the next constant splits it.
    assert mult_order(2, 6516869).order == 27132
    assert math.lcm(order_mod_prime(2, 2129), order_mod_prime(2, 3061)) == 27132


def _clear_factor_and_order_caches():
    arith._factor_pairs.cache_clear()
    _order_value.cache_clear()
    _order_phi.cache_clear()


def test_pseudoprime_modulus_raises_instead_of_a_non_order(monkeypatch):
    # With the thirteen bases 2..41 alone as the primality test, PSI13 is
    # taken for a prime.  43 is not a Fermat liar for it, so the engine and
    # the phi reference both see that the "prime" is composite.
    monkeypatch.setattr(arith, "is_prime", is_prime_13_bases)
    _clear_factor_and_order_caches()
    try:
        assert factorize(PSI13).factors == ((PSI13, 1),)
        for order_of in (_order_value, _order_phi):
            with pytest.raises(ArithmeticError, match=str(PSI13)):
                order_of(43, PSI13)
        with pytest.raises(ArithmeticError):
            mult_order(43, PSI13)
        # 2 and 3 are liars: every order divides PSI13 - 1, so stripping its
        # factors still finds the true order.
        assert mult_order(2, PSI13).order == 1287836182260
        assert mult_order(3, PSI13).order == 321959045565
    finally:
        monkeypatch.undo()
        _clear_factor_and_order_caches()
    # Split into its two primes, PSI13 gives every order as the lcm of the
    # orders mod those primes.
    assert factorize(PSI13).factors == tuple((p, 1) for p in PSI13_PRIMES)
    for a in (2, 3, 43):
        want = math.lcm(*(order_mod_prime(a, p) for p in PSI13_PRIMES))
        assert mult_order(a, PSI13).order == _order_phi(a, PSI13) == want, a


def test_order_with_psi13_in_p_minus_1():
    # p = 48 * PSI13 + 1 is prime; taken for a prime, PSI13 made the
    # engine print 13268176258719549543847924, a multiple of the order.
    a, p = 88869262800137563507378951, 159218115104634594526175089
    assert p - 1 == 2**4 * 3 * PSI13_PRIMES[0] * PSI13_PRIMES[1]
    order = mult_order(a, p).order
    assert order == 10302689458084 and (p - 1) % order == 0
    assert pow(a, order, p) == 1
    for q in (2, 3) + PSI13_PRIMES:
        if order % q == 0:
            assert pow(a, order // q, p) != 1, q


def test_random_products_factor_and_match_phi_reference():
    # Products of up to 64 bits of locally generated primes with exponents
    # up to 3: factorize must return exactly the generating primes, and the
    # engine must equal the phi-stripping reference.
    rng = random.Random(20091)
    for _ in range(150):
        factors = {}
        n = 1
        for _ in range(rng.randint(1, 4)):
            p = random_prime(rng, rng.randint(2, 34))
            k = rng.randint(1, 3)
            if p in factors or (n * p**k).bit_length() > 64:
                continue
            factors[p] = k
            n *= p**k
        assert factorize(n).factors == tuple(sorted(factors.items()))
        for _ in range(3):
            r = rng.randrange(1, n + 1) % n
            if math.gcd(r, n) == 1:
                assert _order_value(r, n)[0] == _order_phi(r, n)


def test_wide_products_match_phi_reference():
    # The factoring test's products of up to 128 bits, whose primes past the
    # reach of the rho walk only ECM splits: engine and phi reference agree.
    rng = random.Random(2009)
    for factors in wide_products(2009, 12):
        n = math.prod(p**k for p, k in factors.items())
        for _ in range(2):
            a = rng.randrange(2, n)
            if math.gcd(a, n) == 1:
                assert mult_order(a, n).order == _order_phi(a, n)


def test_mult_order_past_the_rho_wall():
    # nextprime(2**42) * nextprime(2**43): ECM splits it, well inside the
    # budget.  p - 1 = 2*3*13*71*227*3498493 and q - 1 = 4*3*13*71*227*3498493,
    # so the order of 2 is q - 1.
    t0 = time.perf_counter()
    assert mult_order(2, 38685626227927618334753203).order == 8796093022236
    assert time.perf_counter() - t0 < 5.0


def test_mult_order_rejects_noncoprime():
    with pytest.raises(NotCoprimeError):
        mult_order(6, 10)
    with pytest.raises(NotCoprimeError):
        mult_order(0, 7)
    with pytest.raises(ValueError):
        mult_order(3, 0)


@given(coprime_pairs)
@settings(max_examples=400)
def test_order_record_invariants(pair):
    a, n = pair
    rec = mult_order(a, n)
    assert rec.modulus == n
    assert rec.base == a % n
    assert pow(rec.base, rec.order, n) == 1 % n
    assert euler_phi(n) % rec.order == 0
    for q, _ in factorize(rec.order).factors:
        assert pow(rec.base, rec.order // q, n) != 1 % n  # minimality


def test_mult_order_matches_scan_grid():
    for n in range(1, 120):
        for a in range(1, 40):
            if math.gcd(a, n) != 1:
                continue
            x, e = a % n, 1
            while x != 1 % n:
                x = x * a % n
                e += 1
            assert mult_order(a, n).order == e


def test_remainder_gcd_known_values():
    assert remainder_gcd(2, 3, 9) == 3
    assert remainder_gcd(7, 6, 24) == 6
    assert remainder_gcd(7, 5, 125) == 25
    for n in (1, 2, 9, 24):
        assert remainder_gcd(1, n, n) == n  # a**order - 1 is a multiple of n


def test_remainder_gcd_errors():
    with pytest.raises(InvalidPairError) as exc_info:
        remainder_gcd(5, 4, 9)
    assert exc_info.value.reason == InvalidPairError.REASON_NOT_DIVISOR
    with pytest.raises(NotCoprimeError):
        remainder_gcd(3, 3, 9)
    with pytest.raises(ValueError):
        remainder_gcd(5, 0, 9)


def test_remainder_gcd_divisibility_properties():
    for n1 in range(1, 200):
        for n2 in (d for d in range(1, n1 + 1) if n1 % d == 0):
            for a in range(1, 20):
                if math.gcd(a, n1) != 1:
                    continue
                rg = remainder_gcd(a, n2, n1)
                assert rg % n2 == 0
                assert n1 % rg == 0


def test_proj_order_known_values():
    assert proj_order(2, 5) == 2  # 2**2 = -1 mod 5
    assert proj_order(2, 7) == 3
    assert proj_order(1, 17) == 1
    assert proj_order(0, 1) == 1
    assert proj_order(1, 2) == 1


def test_proj_order_is_order_or_half():
    for n in range(1, 300):
        for a in range(1, 30):
            if math.gcd(a, n) != 1:
                continue
            d = mult_order(a, n).order
            po = proj_order(a, n)
            assert po in (d, d // 2)
            if d % 2 == 1:
                assert po == d


def test_proj_order_matches_scan():
    for n in range(3, 150):
        for a in range(2, 30):
            if math.gcd(a, n) != 1:
                continue
            x, e = a % n, 1
            while x != 1 and x != n - 1:
                x = x * a % n
                e += 1
            assert proj_order(a, n) == e


def test_engine_gives_both_orders_of_every_unit():
    # The engine's one pass against the two literal scans, at every unit.
    for n in range(1, 1001):
        for r in range(n):
            if math.gcd(r, n) == 1:
                assert _order_value(r, n) == (order_scan(r, n), proj_order_scan(r, n))


def test_proj_order_two_adic_cases():
    # Mod 8, 3 has order 2 but 3**1 != -1; only 7 = -1 halves.  Mod 24 the
    # same holds with 5 (order 2, 5 = -3 mod 8) against 23 = -1.
    assert proj_order(3, 8) == 2
    assert proj_order(7, 8) == 1
    assert proj_order(5, 24) == 2
    assert proj_order(23, 24) == 1
    # Where +1 and -1 coincide the projective order is the order.
    for n in (1, 2):
        assert proj_order(1, n) == mult_order(1, n).order == 1


def test_beta_and_proj_order_wide_moduli():
    # Past the scans' reach: beta equals the phi-stripping route, and
    # proj_order halves exactly when a**(d/2) = -1 mod n, tested here by the
    # power the engine no longer takes.  -1 always halves.
    rng = random.Random(2009)
    halved = 0
    for factors in wide_products(2009, 12):
        n = math.prod(p**k for p, k in factors.items())
        for a in [n - 1] + [rng.randrange(2, n) for _ in range(20)]:
            if math.gcd(a, n) != 1:
                continue
            assert beta(a, n) == _beta_phi(a, n), (a, n)
            d = mult_order(a, n).order
            halves = d % 2 == 0 and pow(a, d // 2, n) == n - 1
            assert proj_order(a, n) == (d // 2 if halves else d), (a, n)
            halved += halves
    assert halved > 12


def test_alpha_known_values():
    assert alpha(2, 5) == 4
    assert alpha(6, 10) == 0
    assert alpha(2, 19) == 18
    assert alpha(0, 1) == 1
    assert alpha(0, 5) == 0


def test_beta_known_values():
    assert beta(2, 9) == 1
    assert beta(2, 5) == 2
    assert beta(4, 10) == 0
    assert beta(2, 27) == 1
    assert beta(0, 1) == 1


def test_oracles_known_values():
    assert alpha_oracle(2, 11) == 10
    assert alpha_oracle(2, 17) == 8
    assert alpha_oracle(3, 13) == 3
    assert beta_oracle(2, 9) == 1
    assert beta_oracle(2, 5) == 2
    assert beta_oracle(6, 10) == 0


def test_alpha_beta_match_oracles_grid():
    for n in range(1, 250):
        for a in range(-20, 21):
            assert alpha(a, n) == alpha_oracle(a, n)
            assert beta(a, n) == beta_oracle(a, n)


def test_beta_equals_projective_quotient():
    # beta is defined through a**n directly, but it also equals
    # proj_order(a) / gcd(proj_order(a), n) on coprime inputs
    for n in range(1, 200):
        for a in range(1, 25):
            if math.gcd(a, n) != 1:
                continue
            po = proj_order(a, n)
            assert beta(a, n) == po // math.gcd(po, n)


def _beta_by_definition(a, n):
    """beta as defined: alpha halved iff (a**n)**(alpha/2) = -1 mod n."""
    h = alpha(a, n)
    if h and h % 2 == 0 and n > 2 and pow(a, n * (h // 2), n) == n - 1:
        return h // 2
    return h


def _check_beta_routes(cases):
    """beta, beta_fast and lift_beta from the canonical base all equal the
    definition on every (a, n); returns how many of them halve alpha."""
    halved = 0
    for a, n in cases:
        want = _beta_by_definition(a, n)
        assert beta(a, n) == want, (a, n)
        assert beta_fast(a, n) == want, (a, n)
        if math.gcd(a, n) == 1:
            assert lift_beta(make_base_pair(n, canonical_base(n)), a) == want, (a, n)
        halved += want != alpha(a, n)
    return halved


def test_beta_matches_definition_desk_grid():
    # beta tests a**(d/2) = -1, d the order of a, instead of the power of
    # a**n; the two agree whenever alpha is even.
    cases = [(a, n) for n in range(1, 2001) for a in range(-30, 31)]
    assert _check_beta_routes(cases) > 0


def _wide_modulus(rng):
    """A 64- to 100-bit modulus: a power of 2 times powers of locally
    generated primes of 12 to 24 bits."""
    while True:
        n = 2 ** rng.randint(0, 6)
        while n.bit_length() < 64:
            n *= random_prime(rng, rng.randint(12, 24)) ** rng.randint(1, 3)
        if n.bit_length() <= 100:
            return n


def test_beta_matches_definition_wide_moduli():
    rng = random.Random(1509)
    cases = []
    for _ in range(30):
        n = _wide_modulus(rng)
        cases += [(a, n) for a in (-1, 2, 3)]
        cases += [(rng.randrange(-n, n), n) for _ in range(5)]
    assert 0 < _check_beta_routes(cases) < len(cases)


@given(st.integers(-500, 500), st.integers(1, 500))
@settings(max_examples=300)
def test_alpha_beta_periodicity(a, n):
    assert alpha(a, n) == alpha(a + n, n)
    assert alpha(a, n) == alpha(a % n, n)
    assert beta(a, n) == beta(a + n, n)
    assert beta(a, n) == beta(a % n, n)


@given(coprime_pairs)
@settings(max_examples=300)
def test_alpha_divides_phi_quotient(pair):
    a, n = pair
    phi = euler_phi(n)
    assert (phi // math.gcd(phi, n)) % alpha(a, n) == 0


@given(coprime_pairs)
@settings(max_examples=300)
def test_alpha_is_beta_or_twice_beta(pair):
    a, n = pair
    assert alpha(a, n) in (beta(a, n), 2 * beta(a, n))


def test_alpha_beta_zero_exactly_off_coprime():
    for n in range(1, 120):
        for a in range(-10, 40):
            coprime = math.gcd(a, n) == 1
            assert (alpha(a, n) > 0) == coprime
            assert (beta(a, n) > 0) == coprime
