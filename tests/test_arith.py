import math
import random

import numpy as np
import pytest

from grimm.arith import (
    DETERMINISTIC_PRIMALITY_BOUND,
    PrimeSieve,
    Window,
    all_prime,
    default_sieve,
    factorize,
    is_prime,
    max_vp_in_window,
    prime_count,
    prime_divisors,
    probable_prime,
    representation_threshold,
    vp,
    vp_binomial,
    vp_factorial,
)
from oracles import iterated_lcm, naive_factorize, naive_is_prime, naive_vp


def test_window_validation():
    w = Window(116, 10)
    assert list(w.values()) == list(range(117, 127))
    assert w.last == 126
    with pytest.raises(ValueError):
        Window(-1, 5)
    with pytest.raises(ValueError):
        Window(3, 0)


def test_is_prime_fixtures():
    assert is_prime(2)
    assert is_prime(2756205449)
    assert not is_prime(341)  # 11 * 31
    assert not is_prime(0) and not is_prime(1)
    assert [x for x in range(2, 40) if is_prime(x)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
    ]


def test_is_prime_known_pseudoprime_traps():
    # strong pseudoprimes to single small bases
    for x in (3215031751, 3825123056546413051):
        assert not is_prime(x)
    assert is_prime(2**61 - 1)
    assert is_prime(18446744073709551557)  # largest prime below 2^64


def test_is_prime_matches_sieve_exhaustively():
    sieve = default_sieve(10**6)
    for x in range(2, 10**6 + 1):
        if is_prime(x) != sieve.is_prime(x):
            pytest.fail(f"disagreement at {x}")


def test_is_prime_width_guard():
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)  # beyond the deterministic witness bound
    assert DETERMINISTIC_PRIMALITY_BOUND > 2**64


def test_probable_prime_agrees_on_64bit():
    rng = random.Random(9001)
    for _ in range(1000):
        x = rng.randrange(2, 2**63)
        assert probable_prime(x) == is_prime(x)


def test_probable_prime_big_inputs():
    assert probable_prime(2**89 - 1)
    assert not probable_prime(2**89 - 3)
    assert not probable_prime((2**89 - 1) ** 2)


def test_factorize_fixtures():
    assert factorize(120) == {2: 3, 3: 1, 5: 1}
    assert factorize(121) == {11: 2}
    assert factorize(1) == {}
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(1 << 64)


def test_factorize_orders_ascending():
    assert list(factorize(2 * 3 * 5 * 97 * 97)) == [2, 3, 5, 97]


def test_factorize_random_roundtrip():
    rng = random.Random(42)
    for _ in range(300):
        x = rng.randrange(2, 10**12)
        f = factorize(x)
        assert math.prod(p**e for p, e in f.items()) == x
        assert all(is_prime(p) for p in f)


def test_factorize_rho_path():
    p, q = 2147483647, 2147483659  # both prime, product needs the rho split
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(2**61 - 1) == {2**61 - 1: 1}
    assert factorize((10**9 + 7) * (10**9 + 9)) == {10**9 + 7: 1, 10**9 + 9: 1}


def test_vp_fixtures():
    assert vp(2, 120) == 3
    assert vp(7, 119) == 1
    assert vp(3, 8) == 0
    with pytest.raises(ValueError):
        vp(4, 100)
    with pytest.raises(ValueError):
        vp(2, 0)


def test_vp_factorial_fixtures():
    assert vp_factorial(2, 8) == 7
    assert vp_factorial(7, 7) == 1
    assert vp_factorial(5, 10) == 2
    assert vp_factorial(2, 0) == 0


def test_vp_factorial_brute_sum_oracle():
    sieve = default_sieve()
    for p in [q for q in sieve.primes if q <= 50]:
        running = 0
        for x in range(2, 10**4 + 1):
            running += naive_vp(p, x)
            assert vp_factorial(p, x) == running


def test_vp_binomial_fixtures():
    assert vp_binomial(3, Window(118, 8)) == 2
    assert vp_binomial(2, Window(118, 8)) == 0
    assert vp_binomial(131, Window(118, 8)) == 0  # prime beyond every factor
    assert vp_binomial(127, Window(118, 8)) == 0


def test_vp_binomial_vs_direct_division():
    rng = random.Random(7)
    sieve = default_sieve()
    for _ in range(200):
        m = rng.randrange(1, 400)
        n = rng.randrange(1, 12)
        coeff = math.comb(m + n, n)
        for p in (2, 3, 5, 7, 11, 13):
            assert vp_binomial(p, Window(m, n)) == naive_vp(p, coeff)


def test_max_vp_fixtures():
    assert max_vp_in_window(2, Window(116, 8)) == (3, 4)    # 120 = 2^3 * 15
    assert max_vp_in_window(11, Window(116, 10)) == (2, 5)  # 121 = 11^2
    assert max_vp_in_window(13, Window(118, 8)) == (0, 1)


def test_max_vp_smallest_index_tiebreak():
    # v_5 = 1 at both 10 and 15; the first wins
    assert max_vp_in_window(5, Window(9, 10)) == (1, 1)


def test_binomial_valuation_bounded_by_window_max():
    rng = random.Random(20260810)
    sieve = default_sieve(10**6 + 40)
    primes = sieve.primes
    for _ in range(10**4):
        m = rng.randrange(1, 10**6)
        n = rng.randrange(1, 31)
        p = primes[rng.randrange(0, sieve.prime_count(m + n))]
        w = Window(m, n)
        t, _ = max_vp_in_window(p, w)
        assert vp_binomial(p, w) <= t


def test_representation_threshold_fixtures():
    assert representation_threshold(7) == 420
    assert representation_threshold(2) == 2
    assert representation_threshold(10) == 2520
    with pytest.raises(ValueError):
        representation_threshold(1)


def test_representation_threshold_is_lcm():
    for n in range(2, 41):
        assert representation_threshold(n) == iterated_lcm(n)


def test_prime_count_fixtures():
    assert prime_count(10) == 4
    assert prime_count(100) == 25
    assert prime_count(1) == 0
    assert prime_count(0) == 0
    with pytest.raises(ValueError):
        default_sieve().prime_count(default_sieve().limit + 1)
    with pytest.raises(ValueError):
        prime_count(-1)


def test_pi_ln_lower_bound_exhaustive():
    # pi(n) * ln(n) >= n for every 17 <= n <= 10^6
    sieve = default_sieve(10**6)
    ns = np.arange(17, 10**6 + 1, dtype=np.int64)
    pis = sieve.prime_counts(ns).astype(np.float64)
    assert bool(np.all(pis * np.log(ns) >= ns))


def test_chebyshev_window_exhaustive_where_valid():
    # The 0.92129 / 1.1056 window is asymptotic.  Measured over the sieve:
    # the lower bound holds from x = 11 on, the upper only from x = 96082
    # (last violation at 96081, e.g. pi(100) = 25 > 1.1056*100/ln 100).
    # Check both exhaustively on their actual domains up to 10^6.
    sieve = default_sieve(10**6)
    xs = np.arange(100, 10**6 + 1, dtype=np.int64)
    pis = sieve.prime_counts(xs).astype(np.float64)
    bound = xs / np.log(xs)
    assert bool(np.all(0.92129 * bound < pis))
    upper = pis < 1.1056 * bound
    violations = xs[~upper]
    assert violations.max() == 96081
    assert bool(np.all(upper[xs >= 96082]))


def test_sieve_basics():
    s = PrimeSieve(50)
    assert s.primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert s.factorize(48) == {2: 4, 3: 1}
    assert s.primes_between(10, 20) == [11, 13, 17, 19]
    assert s.primes_between(2, 4) == [3]
    with pytest.raises(ValueError):
        s.is_prime(51)


def test_sieve_factorize_matches_naive():
    sieve = default_sieve()
    rng = random.Random(3)
    for _ in range(500):
        x = rng.randrange(2, 10**6)
        assert sieve.factorize(x) == naive_factorize(x)


def test_prime_divisors_match_naive():
    assert prime_divisors(1) == []
    for x in range(2, 5000):
        assert prime_divisors(x) == sorted(naive_factorize(x)), x
    # beyond the sieve the primes come from trial division and rho
    for x in (10**12 + 39, 2**61 - 1, 999_983 * 1_000_003, 2**40 * 3**5):
        assert prime_divisors(x) == sorted(factorize(x))
    assert prime_divisors(999_983 * 1_000_003) == [999_983, 1_000_003]
    with pytest.raises(ValueError):
        prime_divisors(0)


def test_composite_run_matches_naive_walk():
    s = PrimeSieve(200)
    for m in range(0, 180):
        for cap in (0, 1, 7, 20):
            run = 0
            while run < cap and not naive_is_prime(m + run + 1):
                run += 1
            assert s.composite_run(m, cap) == run, (m, cap)
    assert s.composite_run(113, 20) == 13  # 114..126 between primes 113 and 127
    assert s.composite_run(199, 1) == 1    # no prime left in the table: 200
    with pytest.raises(ValueError):
        s.composite_run(190, 11)


def test_all_prime_table_and_beyond():
    limit = default_sieve().limit
    assert all_prime([]) and all_prime([2, 3, 999_983])
    for bad in ([2, 4], [0, 3], [1], [-7, 3], [2, 999_981]):
        assert not all_prime(bad), bad
    beyond = [p for p in range(limit + 1, limit + 200) if naive_is_prime(p)]
    assert all_prime([2] + beyond)
    assert not all_prime([2, beyond[0] * 3])
