import math
from itertools import chain

import pytest

import grimm.arith
import grimm.conjectures
import grimm.smooth
from grimm.arith import (
    DEFAULT_SIEVE_LIMIT,
    InternalContradiction,
    PrimeSieve,
    default_sieve,
    representation_threshold,
)
from grimm.smooth import (
    ENUMERATION_GUARD,
    enumerate_hn,
    hn_cardinality,
    hn_segments,
    in_hn,
    vector_count,
)
from oracles import brute_hn, merged_hn


def test_small_set_fixtures():
    assert enumerate_hn(2).elements == ()
    assert enumerate_hn(3).elements == (6,)
    assert enumerate_hn(4).elements == (4, 6, 12)
    assert hn_cardinality(2) == 0
    assert hn_cardinality(3) == 1
    assert hn_cardinality(4) == 3
    assert hn_cardinality(7) == 19
    assert len(enumerate_hn(7)) == 19


def test_membership_fixtures():
    assert in_hn(6, 3)
    assert not in_hn(8, 4)      # 2^3 = 8 > 4
    assert not in_hn(7, 100)    # primes never belong
    assert in_hn(12, 4)
    assert not in_hn(12, 3)     # 2^2 = 4 > 3
    with pytest.raises(ValueError):
        in_hn(1, 5)
    with pytest.raises(ValueError):
        in_hn(10, 1)


def test_cardinality_matches_enumeration():
    # crosses the int64/bigint split at n = 43
    for n in range(2, 49):
        got = enumerate_hn(n)
        assert len(got) == hn_cardinality(n), f"n={n}"
        assert list(got.elements) == sorted(set(got.elements)), f"n={n}"


def test_every_element_is_member_and_scan_complete():
    for n in range(2, 13):
        elements = enumerate_hn(n).elements
        assert all(in_hn(x, n) for x in elements)
        assert list(elements) == brute_hn(n, representation_threshold(n))


def test_monotone_in_n():
    prev: set[int] = set()
    for n in range(2, 61):
        cur = set(enumerate_hn(n).elements)
        assert prev <= cur, f"H({n - 1}) not within H({n})"
        prev = cur


def test_max_element_bounded_by_threshold():
    for n in range(2, 41):
        elements = enumerate_hn(n).elements
        if elements:
            assert max(elements) <= representation_threshold(n)
    assert max(enumerate_hn(7)) == 420


def test_enumeration_guard():
    # vector counts pass 10^7 at n = 71
    assert vector_count(70) <= ENUMERATION_GUARD
    assert vector_count(71) > ENUMERATION_GUARD
    with pytest.raises(ValueError, match="guard"):
        enumerate_hn(71)
    with pytest.raises(ValueError, match="guard"):
        enumerate_hn(200)
    with pytest.raises(ValueError, match="guard"):
        hn_segments(71)  # at the call, before any segment is asked for
    # the closed form stays available far beyond the enumeration guard
    assert hn_cardinality(200) == vector_count(200) - 1 - 46
    # the guard is on min(vector_count(n), bound), checked at the call
    assert list(chain.from_iterable(hn_segments(200, 30))) == [4, 6, 8, 9, 10, 12, 14, 15, 16,
                                                             18, 20, 21, 22, 24, 25, 26, 27, 28, 30]
    hn_segments(71, ENUMERATION_GUARD)
    with pytest.raises(ValueError, match=r"H\(71\) enumeration needs 10000001 .* ENUMERATION_GUARD"):
        hn_segments(71, ENUMERATION_GUARD + 1)
    # vector_count(n) > n: a large n is refused before its primes are sieved
    before = default_sieve().limit
    with pytest.raises(ValueError, match="ENUMERATION_GUARD"):
        hn_segments(10**8, 10**9)
    assert default_sieve().limit == before
    # the count stops once it passes the bound, so a bounded n past the
    # shared sieve is refused without growing it
    with pytest.raises(ValueError, match=r"H\(3000000\) enumeration needs 20000000 .* = 10000000$"):
        hn_segments(3 * 10**6, 2 * 10**7)
    assert default_sieve().limit == before


def test_prime_pass_continues_past_the_default_sieve(monkeypatch):
    # n just past the default sieve: primes_upto reads its primes, then the
    # struck bands' from where they ended, with none repeated or skipped.
    monkeypatch.setattr(grimm.arith, "_sieve", grimm.arith._sieve)  # restored after
    n = DEFAULT_SIEVE_LIMIT + 100
    primes = PrimeSieve(n).primes
    assert primes[-1] > default_sieve().primes[-1]
    assert list(grimm.arith.primes_upto(n)) == primes
    # across band edges, up to and including a prime n
    wide = PrimeSieve(DEFAULT_SIEVE_LIMIT + 2 * grimm.arith.BLOCK_SPAN + 1).primes
    assert list(grimm.arith.primes_upto(wide[-1])) == wide
    exponents = [sum(p**k <= n for k in range(1, 21)) for p in primes]  # 2^20 > n
    assert hn_cardinality(n) == math.prod(1 + e for e in exponents) - 1 - len(primes)


def test_closed_forms_past_the_default_sieve_keep_it(monkeypatch):
    # The counts and lcm(1..n) read the primes past the shared sieve from
    # struck bands; the sieve stays at its default limit.
    monkeypatch.setattr(grimm.arith, "_sieve", None)  # a fresh default one, restored after
    n = DEFAULT_SIEVE_LIMIT + 100
    primes = PrimeSieve(n).primes
    exponents = [sum(p**k <= n for k in range(1, 21)) for p in primes]  # 2^20 > n
    vectors = math.prod(1 + e for e in exponents)
    assert vector_count(n) == vectors
    assert hn_cardinality(n) == vectors - 1 - len(primes)
    lcm = grimm.conjectures._product([p**e for p, e in zip(primes, exponents)])
    assert representation_threshold(n) == lcm
    assert default_sieve().limit == DEFAULT_SIEVE_LIMIT

def test_invalid_n():
    for fn in (enumerate_hn, hn_segments, hn_cardinality):
        with pytest.raises(ValueError):
            fn(1)


def test_bigint_path_examples():
    # n = 43 exceeds int64 capacity (lcm(1..43) >= 2^63): bigint path
    got = enumerate_hn(43)
    assert len(got) == hn_cardinality(43)
    assert max(got) == representation_threshold(43)


def test_enumeration_matches_merged_oracle():
    # H(n) streams as sorted, nonempty segments, each within one range
    # [2^k, 2^(k+1)) and the ranges ascending, so they are disjoint;
    # enumerate_hn concatenates them
    for n in range(2, 61):
        segments = list(hn_segments(n))
        expected = merged_hn(n)
        assert list(chain.from_iterable(segments)) == expected, f"n={n}"
        ranges = [s[0].bit_length() for s in segments]
        assert [s[-1].bit_length() for s in segments] == ranges, f"n={n}"
        assert ranges == sorted(set(ranges)), f"n={n}"
    assert enumerate_hn(60).elements == tuple(expected)
    assert max(map(len, hn_segments(30))) < hn_cardinality(30) // 4


def test_membership_by_bisection():
    hs = enumerate_hn(12)
    members = set(hs.elements)
    for x in range(-2, representation_threshold(12) + 3):
        assert (x in hs) == (x in members), x
    assert 27720 in hs and 27721 not in hs
    assert 0 not in enumerate_hn(2)


def test_bounded_segments_match_merged_oracle():
    for n in range(2, 31):
        expected = merged_hn(n)
        lcm = representation_threshold(n)
        for bound in (n, n + 1, 1000, lcm - 1, lcm, 10 * lcm):
            segments = list(hn_segments(n, bound))
            got = list(chain.from_iterable(segments))
            assert got == [x for x in expected if x <= bound], (n, bound)
            assert all(segments), (n, bound)


def test_segment_members_are_exact_ints():
    # The hn report formats each block of members with "%d" and no per-block
    # type test, which is exact only for ints: no bool and no int subclass.
    for n in range(2, 41):
        lcm = representation_threshold(n)
        for bound in (None, n, 1000, lcm - 1, 10 * lcm):
            for segment in hn_segments(n, bound):
                assert type(segment) is list, (n, bound)
                assert all(type(x) is int for x in segment), (n, bound)


@pytest.mark.parametrize("corrupt", [
    lambda segments: (s[1:] if i == 0 else s for i, s in enumerate(segments)),  # a member dropped
    lambda segments: ([*s, s[-1] + 1] for s in segments),  # a member too many, past lcm(1..n)
])
def test_whole_streams_are_checked(monkeypatch, corrupt):
    # A stream holding all of H(30) (no bound, or one >= lcm(1..30)) is checked
    # against the closed-form count and lcm(1..30) when it ends; a stream cut
    # below lcm(1..30) is not all of H(30) and is passed through unchecked.
    segments = grimm.smooth._segments
    monkeypatch.setattr(grimm.smooth, "_segments", lambda *args: corrupt(segments(*args)))
    message = r"^H\(30\) enumeration fails its count or lcm check$"
    with pytest.raises(InternalContradiction, match=message):
        enumerate_hn(30)
    for bound in (representation_threshold(30), 10**13):
        with pytest.raises(InternalContradiction, match=message):
            list(hn_segments(30, bound))
    list(hn_segments(30, representation_threshold(30) - 1))
    list(hn_segments(30, 10**6))
