from itertools import chain

import pytest

from grimm.arith import representation_threshold
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
