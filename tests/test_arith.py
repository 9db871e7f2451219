import bisect
import copy
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grimm.arith
from grimm.arith import (
    DETERMINISTIC_PRIMALITY_BOUND,
    InternalContradiction,
    SIEVE_GUARD,
    PrimeSieve,
    Window,
    all_prime,
    default_sieve,
    factorize,
    is_prime,
    largest_prime_factors,
    largest_prime_power,
    prime_divisors,
    probable_prime,
    representation_threshold,
    vp_binomial,
)
from grimm.arith import _odd_part, _powmod, _sprp  # the strong-round core
from grimm.assign import _check_column
from grimm.primegen import generate
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


PSI_12 = 318_665_857_834_031_151_167_461  # least strong pseudoprime to the primes 2..37


def test_is_prime_above_2_64_uses_the_prime_bases(monkeypatch):
    # psi_12 is a strong probable prime to the primes 2..37; below psi_13 only
    # base 41 rejects it.  The 7 bases, proven only below 2^64, are not used
    # above it (28178 would reject psi_12, but proves nothing for others).
    d, s = _odd_part(PSI_12 - 1)
    prime_bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    assert 2**64 < PSI_12 < DETERMINISTIC_PRIMALITY_BOUND
    assert [a for a in prime_bases if not _sprp(PSI_12, a, d, s)] == [41]
    tried = []
    monkeypatch.setattr(grimm.arith, "_sprp",
                        lambda x, a, d, s: tried.append(a) or _sprp(x, a, d, s))
    assert not is_prime(PSI_12) and tried == list(prime_bases)
    tried.clear()
    assert is_prime(2**64 + 13) and tried == list(prime_bases)  # the least prime above 2^64
    tried.clear()
    assert is_prime(2**64 - 59) and tried == [2, 325, 9375, 28178, 450775, 9780504, 1795265022]
    assert not probable_prime(PSI_12)


def test_is_prime_band_agrees_with_random_rounds():
    # On [2^64, psi_13) probable_prime hands x to is_prime, so its verdict is
    # compared with the 64 seeded random-base rounds it runs above the bound
    # and with the 7 bases that are proven only below 2^64.
    rng = random.Random(1713)
    sinclair = grimm.arith._MR_BASES[0][1]
    primes = 0
    for _ in range(150):
        x = rng.randrange(2**64, DETERMINISTIC_PRIMALITY_BOUND) | 1
        while True:  # every odd number up to the next prime
            d, s = _odd_part(x - 1)
            verdict = is_prime(x)
            assert verdict == grimm.arith._mr_random(x, 64, 0)
            assert verdict == all(_sprp(x, a, d, s) for a in sinclair)
            if verdict:
                primes += 1
                break
            x += 2
    assert primes == 150


def test_probable_prime_agrees_on_64bit():
    rng = random.Random(9001)
    for _ in range(1000):
        x = rng.randrange(2, 2**63)
        assert probable_prime(x) == is_prime(x)


def test_probable_prime_big_inputs():
    assert probable_prime(2**89 - 1)
    assert not probable_prime(2**89 - 3)
    assert not probable_prime((2**89 - 1) ** 2)


def test_probable_prime_base_two_pass_is_not_a_verdict():
    # A composite Mersenne number is a strong probable prime to base 2; with
    # no factor below 10^4 and above the deterministic bound, only the random
    # rounds can reject it.
    x = 2**101 - 1
    assert x == 7432339208719 * 341117531003194129
    assert x > DETERMINISTIC_PRIMALITY_BOUND
    assert all(x % p for p in range(2, 10**4))
    d, s = _odd_part(x - 1)
    assert _sprp(x, 2, d, s)
    assert probable_prime(x) is False


def _loaded_gmp():
    powm = grimm.arith._gmp_powm()
    if powm is None:
        pytest.skip("libgmp.so.10 cannot be loaded on this host")
    return powm


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.data())
def test_powmod_matches_pow_above_the_bound(data):
    # Odd moduli from the bound up to 2^4096, both through the raw binding
    # and through _powmod, which must have kept the kernel.
    powm = _loaded_gmp()
    assert grimm.arith._gmp_kernel() is not None
    x = 2 * data.draw(st.integers(DETERMINISTIC_PRIMALITY_BOUND // 2, 2**4095 - 1)) + 1
    a = data.draw(st.integers(2, x - 2))
    d = 2 * data.draw(st.integers(0, x // 2)) + 1
    want = pow(a, d, x)
    assert powm(a, d, x) == want
    assert _powmod(a, d, x) == want


def test_powmod_threads_share_no_gmp_state():
    # mpz_powm runs without the interpreter lock, so these calls overlap;
    # the first ones also race to load the kernel.
    _loaded_gmp()
    rng = random.Random(77)
    top = 1 << 1023 | 1  # odd 1024-bit moduli
    jobs = [[(rng.getrandbits(1000) + 2, rng.getrandbits(1000) | 1, rng.getrandbits(1023) | top)
             for _ in range(30)] for _ in range(4)]
    results = [None] * len(jobs)

    def work(i):
        results[i] = [_powmod(a, d, x) for a, d, x in jobs[i]]

    grimm.arith._gmp_kernel.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[pow(a, d, x) for a, d, x in job] for job in jobs]
    assert grimm.arith._gmp_kernel() is not None


# Verdicts and the generate(512, 1009) sweep as the built-in pow gives them.
_PROBABLE_PRIME_FIXTURES = [
    (2**89 - 1, True), (2**89 - 3, False), ((2**89 - 1) ** 2, False),
    (2**101 - 1, False),  # a strong probable prime to base 2
    (2**127 - 1, True), (2**521 - 1, True), (2**523 - 1, False), (2**607 - 1, True),
    ((2**127 - 1) * (2**521 - 1), False), (3**400 + 2, False), (10**300 + 331, True),
]


def _wrong_kernel(calls):
    def kernel(a, d, x):
        calls.append(x)
        return (pow(a, d, x) + 1) % x
    return kernel


@pytest.mark.parametrize("kernel", ["libgmp", "unavailable", "fails self-check"])
def test_probable_prime_results_do_not_depend_on_the_kernel(monkeypatch, kernel):
    calls = []
    if kernel == "unavailable":
        monkeypatch.setattr(grimm.arith, "_gmp_powm", lambda: None)
    elif kernel == "fails self-check":
        monkeypatch.setattr(grimm.arith, "_gmp_powm", lambda: _wrong_kernel(calls))
    grimm.arith._gmp_kernel.cache_clear()
    try:
        if kernel != "libgmp":
            assert grimm.arith._gmp_kernel() is None
        verdicts = [(x, probable_prime(x)) for x, _ in _PROBABLE_PRIME_FIXTURES]
        assert verdicts == _PROBABLE_PRIME_FIXTURES
        pool, res = generate(512, 1009)
        assert (pool.primes[0], len(pool.primes), res.offset) == (1009, 48, 324)
        assert res.prime == pool.product + 324 and res.bit_length == 512
        # The failed kernel was asked for its one check power, and never again.
        assert len(calls) == (kernel == "fails self-check")
    finally:
        grimm.arith._gmp_kernel.cache_clear()


def test_is_prime_never_reaches_the_kernel(monkeypatch):
    # Every proven verdict, up to the deterministic bound, rests on pow alone.
    def refuse(a, d, x):
        raise AssertionError(f"kernel asked for a power mod {x}")

    monkeypatch.setattr(grimm.arith, "_powmod", refuse)
    near = DETERMINISTIC_PRIMALITY_BOUND - 1000
    verdicts = [is_prime(x) for x in range(near, DETERMINISTIC_PRIMALITY_BOUND)]
    assert verdicts == [probable_prime(x) for x in range(near, DETERMINISTIC_PRIMALITY_BOUND)]
    assert any(verdicts) and is_prime(2**64 + 13)
    with pytest.raises(AssertionError, match="kernel"):
        probable_prime(2**89 - 1)


def _count_powers(monkeypatch):
    """The moduli of every _powmod call from here on, in call order."""
    calls, real = [], grimm.arith._powmod

    def counted(a, d, x):
        calls.append(x)
        return real(a, d, x)

    monkeypatch.setattr(grimm.arith, "_powmod", counted)
    return calls


_BELOW_1E4 = [p for p in range(2, 10**4) if naive_is_prime(p)]
_SCREENED = [2, 3, 9973, *random.Random(26).sample(_BELOW_1E4[2:-1], 20)]


@pytest.mark.parametrize("p", _SCREENED)
def test_screen_refuses_every_prime_below_ten_thousand_without_a_power(monkeypatch, p):
    # q is prime, so p is the only prime below 10^4 that divides p * q.
    calls = _count_powers(monkeypatch)
    q = 2**89 - 1
    assert p * q >= DETERMINISTIC_PRIMALITY_BOUND
    assert probable_prime(p * q) is False
    assert calls == []


def test_screen_stops_below_ten_thousand(monkeypatch):
    # 10007 is the least prime above 10^4: its multiple passes the screen
    # and is refused by the base-2 round.
    assert len(_BELOW_1E4) == 1229 and _BELOW_1E4[-1] == 9973
    calls = _count_powers(monkeypatch)
    x = 10007 * (2**89 - 1)
    assert probable_prime(x) is False
    assert calls == [x]


def test_generate_2048_bit_sweep_makes_155_powers(monkeypatch):
    # 114 candidates refused by the base-2 round, then 41 rounds on the prime:
    # no candidate is tested twice or skipped.
    calls = _count_powers(monkeypatch)
    pool, res = generate(2048, 4001)
    assert res.offset == 1356
    assert len(calls) == 155 and calls.count(res.prime) == 41
    assert len(set(calls)) == 115 and calls[-41:] == [res.prime] * 41


def _strike_per_prime(start, count, below):
    """_strike as one slice strike per sieve prime below `below`, each
    setting its own value alive again."""
    primes = default_sieve().primes
    alive = bytearray(b"\x01") * count
    for p in primes[: bisect.bisect_left(primes, below)]:
        i = -start % p
        if i < count:
            alive[i::p] = bytes(len(range(i, count, p)))
            if start <= p < start + count:
                alive[p - start] = 1
    return alive


def _last_group(below):
    """The number of primes below `below` in their last aligned group."""
    end = bisect.bisect_left(default_sieve().primes, below)
    return (end - 1) % grimm.arith._STRIKE_GROUP + 1


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(st.integers(2**2047, 2**2048 - 1))
def test_strike_matches_per_prime_at_2048_bits(start):
    assert _last_group(10**6) == 2  # shorter than the rest
    assert grimm.arith._strike(start, 4001, 10**6) == _strike_per_prime(start, 4001, 10**6)


@pytest.mark.parametrize("start, count, below", [
    (999_000, 3000, 10**6),  # sieve primes >= count inside the interval
    (2, 10**4, 10**6),  # every prime below 10^4 restored
    (999_000, 3000, 2 * 10**6),  # below past the sieve's last prime
    (10**5 - 7, 1, 10**6),  # count 1, at a prime
    (2**2047 + 1, 1, 10**6),  # count 1, big start
    (10**9 + 1, 500, 600),  # no prime >= count below `below`
    (10**9 + 1, 700, 29_453),  # last group of 32 full
    (10**9 + 1, 4759, 50_000),  # count's own index starts a group
    (0, 40, 30),  # 0 is a multiple of every prime
])
def test_strike_matches_per_prime_at_the_edges(start, count, below):
    if below == 29_453:
        assert _last_group(below) == grimm.arith._STRIKE_GROUP
    if count == 4759:
        assert bisect.bisect_left(default_sieve().primes, count) % grimm.arith._STRIKE_GROUP == 0
    assert grimm.arith._strike(start, count, below) == _strike_per_prime(start, count, below)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.integers(0, 3 * 10**6), st.integers(1, 6000), st.integers(2, 2 * 10**6))
def test_strike_matches_per_prime_on_small_starts(start, count, below):
    assert grimm.arith._strike(start, count, below) == _strike_per_prime(start, count, below)


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


def test_binomial_valuation_bounded_by_window_max():
    rng = random.Random(20260810)
    sieve = default_sieve(10**6 + 40)
    primes = sieve.primes
    for _ in range(10**4):
        m = rng.randrange(1, 10**6)
        n = rng.randrange(1, 31)
        p = primes[rng.randrange(0, bisect.bisect_right(primes, m + n))]
        w = Window(m, n)
        assert vp_binomial(p, w) <= max(naive_vp(p, x) for x in w.values())


def test_representation_threshold_fixtures():
    assert representation_threshold(7) == 420
    assert representation_threshold(2) == 2
    assert representation_threshold(10) == 2520
    with pytest.raises(ValueError):
        representation_threshold(1)
    with pytest.raises(ValueError, match=r"^sieve limit 100000001 exceeds SIEVE_GUARD = 100000000$"):
        representation_threshold(SIEVE_GUARD + 1)


def test_representation_threshold_is_lcm():
    for n in range(2, 41):
        assert representation_threshold(n) == iterated_lcm(n)


def test_pi_ln_lower_bound_exhaustive():
    # pi(n) * ln(n) >= n for every 17 <= n <= 10^6
    sieve = default_sieve(10**6)
    ns = np.arange(17, 10**6 + 1, dtype=np.int64)
    pis = np.searchsorted(np.asarray(sieve.primes), ns, side="right").astype(np.float64)
    assert bool(np.all(pis * np.log(ns) >= ns))


def test_chebyshev_window_exhaustive_where_valid():
    # The 0.92129 / 1.1056 window is asymptotic.  Measured over the sieve:
    # the lower bound holds from x = 11 on, the upper only from x = 96082
    # (last violation at 96081, e.g. pi(100) = 25 > 1.1056*100/ln 100).
    # Check both exhaustively on their actual domains up to 10^6.
    sieve = default_sieve(10**6)
    xs = np.arange(100, 10**6 + 1, dtype=np.int64)
    pis = np.searchsorted(np.asarray(sieve.primes), xs, side="right").astype(np.float64)
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
    with pytest.raises(ValueError):
        s.is_prime(51)
    # every small limit against trial division; limits below 3 are raised to 3
    for limit in range(0, 301):
        s = PrimeSieve(limit)
        top = max(limit, 3)
        assert s.limit == top
        naive = [naive_is_prime(x) for x in range(top + 1)]
        primes = [x for x in range(top + 1) if naive[x]]
        assert s.primes == primes
        assert [s.is_prime(x) for x in range(top + 1)] == naive
        for x in range(1, top + 1):  # ascending primes, as factorize promises
            assert list(s.factorize(x).items()) == list(naive_factorize(x).items()), (limit, x)
        for bad in (-1, top + 1):
            with pytest.raises(ValueError):
                s.is_prime(bad)


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


def test_all_prime_table_and_beyond():
    limit = default_sieve().limit
    assert all_prime([]) and all_prime([2, 3, 999_983])
    for bad in ([2, 4], [0, 3], [1], [-7, 3], [2, 999_981]):
        assert not all_prime(bad), bad
    beyond = [p for p in range(limit + 1, limit + 200) if naive_is_prime(p)]
    assert all_prime([2] + beyond)
    assert not all_prime([2, beyond[0] * 3])


def test_all_prime_sends_only_entries_beyond_the_sieve_to_is_prime(monkeypatch):
    limit = default_sieve().limit
    beyond = [p for p in range(limit + 1, limit + 200) if naive_is_prime(p)]
    tested = []
    strong = grimm.arith.is_prime
    monkeypatch.setattr(grimm.arith, "is_prime", lambda x: tested.append(x) or strong(x))
    assert all_prime([2, 3, 999_983])
    assert tested == []
    assert all_prime([2, *beyond, 7919, 999_983])
    assert tested == beyond
    tested.clear()
    # an entry within the sieve that is not prime settles it with no strong rounds
    for inside in (999_981, 1, 0, -7):
        assert not all_prime([*beyond, inside]), inside
    assert tested == []
    assert not all_prime([2, *beyond, beyond[0] * 3])
    assert tested == [*beyond, beyond[0] * 3]


def test_sieve_table_is_16_bit_smallest_prime_factors():
    s = PrimeSieve(5000)
    assert s._spf.itemsize == 2
    naive = [0 if x < 2 or naive_is_prime(x) else min(naive_factorize(x)) for x in range(5001)]
    assert s._spf.tolist() == naive
    # the largest sieve the guard allows still has 16-bit smallest prime factors
    assert math.isqrt(SIEVE_GUARD) < 1 << 16


def test_sieve_memory():
    tracemalloc.start()
    try:
        sieve = PrimeSieve(10**6)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sieve.limit == 10**6
    assert retained <= 6 * 10**6 and peak <= 8 * 10**6, (retained, peak)


def test_all_prime_reads_single_entries_and_catches_a_corrupt_table(monkeypatch):
    sieve = default_sieve()
    assert isinstance(sieve.primes, list)
    assert all_prime([2]) and all_prime([3, 3])
    assert not all_prime([4])
    assert all_prime([sieve.limit]) == naive_is_prime(sieve.limit)
    assert all_prime([sieve.limit - 1, 2]) == naive_is_prime(sieve.limit - 1)
    lo = 1000
    tops = largest_prime_factors(lo, lo + 20)
    _check_column(lo, tops)
    bad = copy.copy(sieve)
    bad._spf = copy.copy(sieve._spf)
    bad._spf[max(tops)] = 2
    monkeypatch.setattr(grimm.arith, "_sieve", bad)
    with pytest.raises(InternalContradiction):
        _check_column(lo, tops)


def naive_top(x):
    return max((p**e for p, e in naive_factorize(x).items()), default=1)


def test_largest_prime_power_matches_naive():
    limit = default_sieve().limit
    tops = [pow(*largest_prime_power(x)) for x in range(2, 13)]
    assert tops == [2, 3, 4, 5, 3, 7, 8, 9, 5, 11, 4]
    assert largest_prime_power(1328) == (83, 1) and largest_prime_power(1296) == (3, 4)
    # within the sieve, up to its limit, and factorize beyond it
    for x in (*range(2, 3001), *range(limit - 40, limit + 41)):
        p, v = largest_prime_power(x)
        assert p**v == naive_top(x) and naive_is_prime(p) and naive_vp(p, x) == v, x
    # prime powers beyond the sieve: a prime, a square and a high power
    for x, pv in ((999_983 * 1_000_003, (1_000_003, 1)), (2 * 1009**2, (1009, 2)),
                  (2 * 3**39, (3, 39))):
        assert largest_prime_power(x) == pv
    for x in (1, 0, -4):
        with pytest.raises(ValueError):
            largest_prime_power(x)


def test_largest_prime_factors_match_naive():
    limit = default_sieve().limit
    assert largest_prime_factors(1, 12) == [1, 2, 3, 2, 5, 3, 7, 2, 3, 5, 11, 3]
    naive = [max(naive_factorize(x), default=1) for x in range(1, 5001)]
    assert largest_prime_factors(1, 5000) == naive
    # a segment straddling sqrt(hi) = 70, one near the sieve limit, one
    # ending at it, an empty one, and factorize beyond the sieve
    for lo, hi in ((60, 4900), (987654, 999999), (limit - 40, limit), (limit - 5, limit + 40)):
        got = largest_prime_factors(lo, hi)
        assert got == [max(naive_factorize(x)) for x in range(lo, hi + 1)], lo
    assert largest_prime_factors(5, 4) == []
    assert largest_prime_factors(999_983 * 1_000_003, 999_983 * 1_000_003) == [1_000_003]
    with pytest.raises(ValueError):
        largest_prime_factors(0, 5)
    with pytest.raises(ValueError):
        largest_prime_factors(5, 3)


def test_prime_power_witness_check_catches_corruption(monkeypatch):
    # factorize misreports: an exponent too high (840 = 2^3 * 3 * 5 * 7) or
    # too low, a composite as prime (45, and 2 * 1009^2 beyond the sieve), 1
    # as a prime, a prime that does not divide
    x = 2 * 1009**2
    bad = {840: {2: 4, 3: 1, 5: 1, 7: 1}, 1296: {2: 4, 3: 3}, 45: {45: 1}, x: {x: 1},
           91: {1: 5}, 77: {7: 1, 13: 1}}
    real = grimm.arith.factorize
    monkeypatch.setattr(grimm.arith, "factorize", lambda y: bad.get(y) or real(y))
    for y, q in ((840, "2^4"), (1296, "3^3"), (45, "45^1"), (x, f"{x}^1"), (91, "1^5"),
                 (77, "13^1")):
        with pytest.raises(InternalContradiction) as info:
            largest_prime_power(y)
        assert str(info.value) == f"{q} is not a prime power exactly dividing {y}"
    assert largest_prime_power(839) == (839, 1) and largest_prime_power(841) == (29, 2)
