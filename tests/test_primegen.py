import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grimm.arith import default_sieve, is_prime, probable_prime
from grimm.arith import _mr_random  # noqa: F401  (cross-check helper)
import grimm.primegen
from grimm.primegen import (
    GenerationResult,
    NoFeasiblePool,
    PrimePool,
    band_primes,
    first_prime,
    generate,
    select_pool,
    sweep,
)
from oracles import naive_is_prime, naive_sweep

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

TOY = (29, 31, 37, 41, 43, 47)


def test_pool_validation():
    pool = PrimePool(primes=TOY)
    assert pool.product == 2756205443
    with pytest.raises(ValueError):
        PrimePool(primes=())
    with pytest.raises(ValueError):
        PrimePool(primes=(31, 29))
    with pytest.raises(ValueError):
        PrimePool(primes=(29, 59))  # 59 >= 2*29
    with pytest.raises(ValueError):
        PrimePool(primes=(29, 33))  # 33 composite


def test_select_pool_toy():
    pool = select_pool(32, TOY)
    assert pool.primes == TOY
    assert 2**31 <= pool.product < 2**32


def test_select_pool_small_band():
    assert select_pool(2, [2, 3]).primes == (3,)


def test_select_pool_band_and_feasibility_errors():
    with pytest.raises(ValueError):
        select_pool(8, [3, 11])  # not one dyadic band
    with pytest.raises(NoFeasiblePool):
        select_pool(50, [3, 5])
    with pytest.raises(NoFeasiblePool):
        select_pool(8, [])


def test_select_pool_wide_band_postconditions():
    candidates = [p for p in range(1000, 2000) if is_prime(p)]
    pool = select_pool(64, candidates)
    assert pool.primes[-1] < 2 * pool.primes[0]
    assert 2**63 <= pool.product < 2**64


def test_sweep_order_and_fixtures():
    res = sweep(15, 3)  # candidates 17, 13 in that order
    assert res.prime == 17 and res.offset == 2
    res = sweep(3, 3)  # candidates 5, 1; 1 is no prime
    assert res.prime == 5 and res.offset == 2
    with pytest.raises(ValueError):
        sweep(8, 3)


def test_sweep_toy_product():
    k = 2756205443
    res = sweep(k, 29)
    assert not res.conjecture2_violation
    assert abs(res.offset) <= 6
    assert res.prime == k + res.offset
    assert is_prime(res.prime)
    assert is_prime(k + 6)  # 2756205449


def test_sweep_reports_empty_as_violation():
    # k = 3*5 shifted sweeps only +/-2 with p1 = 3... choose k = 25*? no:
    # use k = 9 (odd), p1 = 3: candidates 11, 7 are prime, so force a miss
    # with k = 119 (7*17), p1 = 3: candidates 121 = 11^2 and 117 = 9*13.
    res = sweep(119, 3)
    assert res.conjecture2_violation
    assert res.prime is None and res.offset is None
    assert res.bit_length == (119).bit_length()


def test_generate_toy_band():
    pool, res = generate(32, 29)
    assert 2**31 <= pool.product < 2**32
    assert pool.primes[-1] < 2 * pool.primes[0]
    assert not res.conjecture2_violation
    assert abs(res.offset) <= 2 * (pool.primes[0] // 2)
    assert probable_prime(res.prime, rounds=64, seed=99)  # independent recheck


def test_generate_small():
    pool, res = generate(2, 3)
    assert pool.primes == (3,)
    assert res.k == 3 and res.prime == 5


def test_generate_16_bit():
    # the band [17, 34) cannot reach 16 bits: triples of its primes stay
    # below 2^15 and quadruples overshoot 2^16
    with pytest.raises(NoFeasiblePool):
        generate(16, 17)
    pool, res = generate(16, 37)
    assert 2**15 <= res.k < 2**16
    assert res.prime is not None
    assert is_prime(res.prime)


def test_generate_big_band_probable_path():
    pool, res = generate(128, 1009)
    assert 2**127 <= res.k < 2**128
    assert res.prime is not None
    assert res.bit_length in (128, 129)
    assert probable_prime(res.prime, rounds=64, seed=7)


def test_generate_rejects_even_band():
    with pytest.raises(ValueError):
        generate(8, 2)
    with pytest.raises(ValueError):
        generate(8, 3, candidates=[2, 3])


def test_randomized_verdicts_match_deterministic_on_sweep_candidates():
    # 10^3 sweep-style candidates in the 64-bit range
    rng = random.Random(12)
    checked = 0
    while checked < 1000:
        k = rng.randrange(2**40, 2**62) | 1
        for step in range(1, 6):
            for x in (k + 2 * step, k - 2 * step):
                assert _mr_random(x, rounds=24, seed=5) == is_prime(x)
                checked += 1


def test_sieved_sweep_fixtures():
    assert sweep(3, 3).prime == 5  # 5 is a sieving prime: it must not be struck
    assert sweep(15, 3).prime == 17
    res = sweep(119, 3)  # 121 = 11^2 and 117 = 9*13 are both struck
    assert res.conjecture2_violation and res.prime is None
    assert sweep(1, 9).prime == 3  # 3 sieves the interval -7..9 and is its first prime


def test_generate_512_bit_fixture():
    pool, res = generate(512, band_start=1009)
    assert len(pool.primes) == 48
    assert pool.primes[:3] == (1009, 1013, 1019)
    assert pool.primes[-3:] == (2003, 2011, 2017)
    assert res.k % 2**64 == 16177967486473836473
    assert res.offset == 324 and res.prime == res.k + 324
    assert res.bit_length == 512 and not res.conjecture2_violation


@PROPERTY
@given(
    st.one_of(st.integers(1, 5_000), st.integers(1, 2**255)),
    st.integers(3, 9_000),
)
def test_sieved_sweep_matches_naive(half_k, p1):
    k = 2 * half_k + 1
    res = sweep(k, p1)
    ref = naive_sweep(k, p1)
    assert res.prime == ref
    assert res.offset == (None if ref is None else ref - k)
    assert res.conjecture2_violation == (ref is None)


@PROPERTY
@given(st.integers(-60, 3_000), st.integers(0, 200), st.integers(0, 400))
def test_first_prime_unit_step_matches_naive(start, count, depth):
    want = next((x for x in range(start, start + count) if naive_is_prime(x)), None)
    assert first_prime(start, count, range(count), depth) == want


def test_band_past_the_shared_sieve_under_default_recursion_limit():
    # 43,840 candidates in [600001, 1200002): far more than the recursion
    # limit, so the pool search must not recurse per candidate
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        pool, res = generate(60, band_start=600_001)
    finally:
        sys.setrecursionlimit(before)
    assert pool.primes == (800623, 1199993, 1199999)
    assert res.k == 800623 * 1199993 * 1199999
    assert res.offset == 6 and res.bit_length == 60


def test_select_pool_node_count(monkeypatch):
    # The 2048-bit pool of the 4001 band is found at search node 755:
    # one fewer exhausts the budget.
    cand = band_primes(4001, 8002)
    monkeypatch.setattr(grimm.primegen, "_SELECT_NODE_BUDGET", 754)
    with pytest.raises(NoFeasiblePool, match="budget"):
        select_pool(2048, cand)
    monkeypatch.setattr(grimm.primegen, "_SELECT_NODE_BUDGET", 755)
    pool = select_pool(2048, cand)
    assert 2**2047 <= pool.product < 2**2048


def test_band_primes_match_naive_walk():
    for lo in (2, 3, 4, 29, 4001):
        assert band_primes(lo, 2 * lo) == [x for x in range(lo, 2 * lo) if naive_is_prime(x)]
    lo = 500_009
    assert band_primes(lo, 2 * lo) == [x for x in range(lo, 2 * lo) if probable_prime(x)]
    limit = default_sieve().limit
    for hi in (limit, limit + 1, limit + 2):  # read off the sieve, or struck past it
        assert band_primes(limit - 200, hi) == [x for x in range(limit - 200, hi) if probable_prime(x)]


def test_band_primes_keep_the_shared_sieve():
    # sqrt(hi) is past the shared sieve's limit: its primes strike the band
    # and is_prime confirms the survivors above limit^2
    before = default_sieve().limit
    lo = 10**13
    assert band_primes(lo, lo + 3000) == [x for x in range(lo, lo + 3000) if probable_prime(x)]
    assert default_sieve().limit == before

