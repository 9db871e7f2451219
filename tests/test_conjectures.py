import itertools
import math
import multiprocessing
import tracemalloc

import pytest

import grimm.arith
import grimm.assign
import grimm.conjectures
from grimm.arith import SIEVE_GUARD, InternalContradiction, Window, largest_prime_factors
from grimm.assign import exact_representation_exists, grimm_assignment
from grimm.conjectures import (
    BLOCK_SPAN,
    CompositeRun,
    _block_gaps,
    _gap_blocks,
    _grimm_chunk,
    _product,
    conjecture1_probe,
    conjecture2_i,
    conjecture2_ii,
    cramer_gap_report,
    cramer_gap_scan,
    enumerate_composite_runs,
    map_blocks,
    verify_grimm_range,
    verify_small_windows,
)
from grimm.primegen import band_primes
from oracles import (
    brute_hn,
    exact_representation_feasible,
    grimm_feasible,
    naive_factorize,
    naive_is_prime,
)

# Maximal runs of >= 7 consecutive composites contained in [2, 427],
# derived from the prime gaps; fifteen in total.
RUNS_427_7 = [
    (90, 7),
    (114, 13),
    (140, 9),
    (182, 9),
    (200, 11),
    (212, 11),
    (242, 9),
    (284, 9),
    (294, 13),
    (318, 13),
    (338, 9),
    (360, 7),
    (390, 7),
    (402, 7),
    (410, 9),
]


def gaps(limit, min_len=1):
    """(m, n) for each maximal run m+1 .. m+n of the walk, block by block."""
    blocks = _gap_blocks(limit, min_len)
    return [gap for block in blocks for gap in _block_gaps(*block, limit, min_len)]


def walked_gaps(limit, min_len):
    """(m, n) for each maximal run m+1 .. m+n of n >= min_len composites
    within [2, limit], by a walk over a plain sieve up to limit + 1."""
    prime = bytearray([1]) * (limit + 2)
    prime[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit + 1) + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, limit + 2, p)))
    walked = []
    last = None  # the last prime seen; a run closes at the next one
    for x in range(2, limit + 2):
        if prime[x]:
            if last is not None and x - last > min_len:
                walked.append((last, x - last - 1))
            last = x
    return walked


@pytest.mark.parametrize("limit", [1_000_100, 1_200_000])
def test_runs_past_the_default_sieve_keep_it(monkeypatch, limit):
    # The blocks past the shared sieve strike their own primes; the sieve
    # stays at its default limit.
    monkeypatch.setattr(grimm.arith, "_sieve", None)  # a fresh default one, restored after
    runs = enumerate_composite_runs(limit)
    assert [(r.start - 1, r.length) for r in runs] == walked_gaps(limit, 1)
    assert grimm.arith.default_sieve().limit == grimm.arith.DEFAULT_SIEVE_LIMIT

def test_runs_427_against_prime_gaps():
    got = enumerate_composite_runs(427, 7)
    assert [(r.start, r.length) for r in got] == RUNS_427_7
    assert got[0] == CompositeRun(start=90, length=7)
    assert (114, 13) in [(r.start, r.length) for r in got]
    # each run is genuinely maximal: bounded by primes, all members composite
    for r in got:
        assert naive_is_prime(r.start - 1) and naive_is_prime(r.end + 1)
        assert all(not naive_is_prime(x) for x in range(r.start, r.end + 1))


def test_runs_boundary_containment():
    # run 422..430 ends past 427 and must not appear
    assert all(r.start != 422 for r in enumerate_composite_runs(427, 7))
    # ...but shows up once the limit covers it
    assert (422, 9) in [(r.start, r.length) for r in enumerate_composite_runs(430, 7)]


def test_runs_small_fixtures():
    got = enumerate_composite_runs(10, 1)
    assert [(r.start, r.length) for r in got] == [(4, 1), (6, 1), (8, 3)]
    assert enumerate_composite_runs(2, 5) == []
    with pytest.raises(ValueError):
        enumerate_composite_runs(100, 0)


def test_runs_exhaustive_against_scan():
    limit = 5000
    got = {(r.start, r.length) for r in enumerate_composite_runs(limit, 1)}
    expected = set()
    start = None
    for x in range(2, limit + 2):
        if x <= limit and not naive_is_prime(x):
            if start is None:
                start = x
        else:
            if start is not None:
                if x <= limit or naive_is_prime(x):
                    expected.add((start, x - start))
                start = None
    assert got == expected


def test_composite_gaps_match_a_naive_walk():
    # 3001 is prime, so at limit 3000 the last run ends on the limit.
    prime = [naive_is_prime(x) for x in range(3002)]
    assert prime[3001]
    for limit in range(3001):
        walked = []
        last = None  # the last prime seen; a run closes at the next one
        for x in range(2, limit + 2):
            if prime[x]:
                if last is not None and x - last > 1:
                    walked.append((last, x - last - 1))
                last = x
        for min_len in range(1, 11):
            expected = [(m, n) for m, n in walked if n >= min_len]
            assert gaps(limit, min_len) == expected, (limit, min_len)
    with pytest.raises(ValueError):
        verify_grimm_range(100, 0)


def test_composite_gaps_at_the_top_of_the_sieve(monkeypatch):
    # The last run within the limit is decided by is_prime(limit + 1), also
    # past the sieve: 999,983 and 1,000,003 are consecutive primes, and
    # limit + 1 is prime below at 999,982 and past it at 1,000,002.
    top = grimm.arith.default_sieve().limit
    monkeypatch.setattr(grimm.arith, "_sieve", grimm.arith.default_sieve())  # drop the grown one
    for limit in (999_900, 999_982, 999_983, 999_999, top, 1_000_001, 1_000_002):
        walked = []
        last = None
        for x in range(999_800, limit + 2):
            if naive_is_prime(x):
                if last is not None and x - last > 1:
                    walked.append((last, x - last - 1))
                last = x
        assert gaps(limit)[-len(walked):] == walked, limit
    assert naive_is_prime(1_000_003) and gaps(1_000_002)[-1] == (999_983, 19)


def test_verify_at_the_default_limit_builds_no_sieve(monkeypatch):
    # verify at 10^6 reads its runs from the default 10^6 sieve and decides
    # the run ending at the limit by is_prime(limit + 1), not a second sieve.
    monkeypatch.setattr(grimm.arith, "_sieve", grimm.arith.PrimeSieve(10**6))
    built = []
    init = grimm.arith.PrimeSieve.__init__

    def counting(self, limit):
        built.append(limit)
        init(self, limit)

    monkeypatch.setattr(grimm.arith.PrimeSieve, "__init__", counting)
    report = verify_grimm_range(10**6)
    assert report.ok and report.windows_checked == len(gaps(10**6))
    assert built == []


def test_verify_grimm_small_ranges():
    report = verify_grimm_range(4)
    assert report.windows_checked == 1 and report.ok
    report = verify_grimm_range(10**4)
    assert report.ok
    assert report.windows_checked == len(enumerate_composite_runs(10**4, 1))


def test_verify_grimm_long_runs_below_threshold():
    # the fifteen runs of length >= 7 below the n = 7 threshold all assign
    report = verify_grimm_range(427, min_len=7)
    assert report.windows_checked == 15
    assert report.ok


def test_grimm_chunk_names_stuck_element():
    # 2, 3, 4: 3 takes itself, 2 and 4 compete for the prime 2 and the
    # later one, 4, is where the augmenting search fails.
    failures = _grimm_chunk([(1, 3)])
    assert len(failures) == 1
    (f,) = failures
    assert (f.m, f.n) == (1, 3)
    assert f.reason == "no distinct prime for 4"


def test_grimm_chunk_checks_the_column(monkeypatch):
    # A column that reports a prime not dividing its element: 6, 7 -> 7, 8.
    monkeypatch.setattr(
        grimm.conjectures, "largest_prime_factors", lambda lo, hi: list(range(lo + 1, hi + 2))
    )
    with pytest.raises(InternalContradiction):
        _grimm_chunk([(5, 2)])


def column_with(entries):
    """largest_prime_factors with some entries replaced, by element."""

    def column(lo, hi):
        return [entries.get(x, top) for x, top in enumerate(largest_prime_factors(lo, hi), lo)]

    return column


@pytest.mark.parametrize("window, entries", [
    # 8, 9, 10 with P(8) reported as 4: it divides 8, and 4, 3, 5 are
    # distinct and all >= n = 3, but 4 is not prime.
    ((7, 3), {8: 4}),
    # 20, 21, 22 with P(21) reported as 13: 5, 13, 11 are distinct primes
    # >= 3, but 13 does not divide 21.
    ((19, 3), {21: 13}),
    # P(21) reported as 1: it divides 21, and 5, 1, 11 are distinct, but 1
    # is not prime.
    ((19, 3), {21: 1}),
    # P(21) reported as 0: refused as an entry below 2, before any remainder
    # by it is taken.
    ((19, 3), {21: 0}),
    # P(20) reported as -2: it divides 20, and -2, 7, 11 are distinct, but
    # a negative divisor is not a prime.
    ((19, 3), {20: -2}),
])
def test_column_entries_must_be_primes_dividing_their_elements(monkeypatch, window, entries):
    with monkeypatch.context() as patch:
        patch.setattr(grimm.conjectures, "largest_prime_factors", column_with(entries))
        with pytest.raises(InternalContradiction):
            _grimm_chunk([window])
    with monkeypatch.context() as patch:
        patch.setattr(grimm.assign, "largest_prime_factors", column_with(entries))
        with pytest.raises(InternalContradiction):
            grimm_assignment(Window(*window))


def test_grimm_chunk_rejects_a_short_column(monkeypatch):
    # 20, 21, 22 have P = 5, 7, 11, all >= 3; a column one entry short
    # leaves the run two primes for three elements.
    def short(lo, hi):
        return largest_prime_factors(lo, hi)[:-1]

    monkeypatch.setattr(grimm.conjectures, "largest_prime_factors", short)
    with pytest.raises(InternalContradiction):
        _grimm_chunk([(19, 3)])


def test_only_smooth_runs_reach_the_settle_walk(monkeypatch):
    # A run goes to _settle_grimm iff two of its elements share their
    # largest prime factor; every other run is settled by its n distinct,
    # checked column entries.
    walked = []

    def recording(w, tops):
        walked.append((w.m, w.n))
        return grimm.assign._settle_grimm(w, tops)

    monkeypatch.setattr(grimm.conjectures, "_settle_grimm", recording)
    windows = gaps(2 * 10**4)
    assert _grimm_chunk(windows) == []

    def shared_top(m, n):
        return len({max(naive_factorize(x)) for x in range(m + 1, m + n + 1)}) < n

    assert walked == [(m, n) for m, n in windows if shared_top(m, n)]
    assert 0 < len(walked) < len(windows) // 2


@pytest.mark.parametrize("min_len", [1, 7])
def test_grimm_chunk_matches_oracle_on_runs(min_len):
    windows = [(r.start - 1, r.length) for r in enumerate_composite_runs(2 * 10**4, min_len)]
    failures = [(f.m, f.n) for f in _grimm_chunk(windows)]
    assert failures == [(m, n) for m, n in windows if not grimm_feasible(m, n)]


def test_verify_blocks_bound_their_columns(monkeypatch):
    columns = []

    def recording(lo, hi):
        columns.append((lo, hi))
        return largest_prime_factors(lo, hi)

    monkeypatch.setattr(grimm.conjectures, "largest_prime_factors", recording)
    report = verify_grimm_range(10**5, min_len=30)
    windows = gaps(10**5, 30)
    assert report.windows_checked == len(windows)
    assert [(f.m, f.n) for f in report.failures] == [
        (m, n) for m, n in windows if grimm_assignment(Window(m, n)) is None
    ]
    # One column per value block: it starts past the block's first integer
    # and ends before the first prime from the block's end.
    blocks = _gap_blocks(10**5, 30)
    assert blocks == [(2, 2 + BLOCK_SPAN), (2 + BLOCK_SPAN, 10**5 + 1)]
    assert BLOCK_SPAN == 1 << 16 and len(columns) == len(blocks)
    for (lo, hi), (first, last) in zip(blocks, columns):
        closing = next(x for x in itertools.count(hi) if naive_is_prime(x))
        assert lo < first <= last < closing


@pytest.mark.parametrize("min_len", [1, 7])
@pytest.mark.parametrize("limit", [
    BLOCK_SPAN - 1, BLOCK_SPAN, BLOCK_SPAN + 1, 2 * BLOCK_SPAN + 1,
    1_000_002,  # limit + 1 = 1,000,003 is prime, past the sieve verify builds
])
def test_verify_blocks_match_a_naive_walk(monkeypatch, limit, min_len):
    # Every run that reaches the augmenting walk is made to fail, so the
    # failures list them in run order across the block edges.
    monkeypatch.setattr(grimm.arith, "_sieve", grimm.arith.default_sieve())  # drop a grown one
    monkeypatch.setattr(grimm.conjectures, "_settle_grimm", lambda w, tops: 0)
    windows = walked_gaps(limit, min_len)
    report = verify_grimm_range(limit, min_len)
    assert report.windows_checked == len(windows)
    assert report.failures and report.failures == _grimm_chunk(windows)


def test_verify_traced_peak_is_one_block():
    # No list of all 78,496 runs: the traced peak is one block's primes,
    # runs and column, not the range's (6.7 MB with a whole-range run list).
    grimm.arith.default_sieve(10**6)
    tracemalloc.start()
    try:
        report = verify_grimm_range(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.windows_checked == 78_496
    assert peak < 3 * 2**20, peak


def test_verify_grimm_worker_independence():
    solo = verify_grimm_range(10**5, workers=1)
    duo = verify_grimm_range(10**5, workers=2)
    assert solo.ok and duo.ok
    assert solo.windows_checked == duo.windows_checked
    assert solo.failures == duo.failures


def test_verify_blocks_under_spawn(monkeypatch):
    # Spawned workers start from a fresh import: each block reads its own
    # primes and builds its own column, and nothing comes from an inherited
    # global.
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(
            grimm.conjectures,
            "map_blocks",
            lambda fn, bs, workers: calls.append((fn, bs)) or map_blocks(fn, bs, workers),
        )
        solo = verify_grimm_range(2 * 10**5)
    ((check, blocks),) = calls
    assert len(blocks) >= 2
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        spawned = pool.map_async(check, blocks).get(timeout=120)
        stuck = pool.apply_async(_grimm_chunk, ([(1, 3)],)).get(timeout=120)  # 2, 3, 4
    assert spawned == [check(b) for b in blocks]
    assert sum(count for count, _ in spawned) == solo.windows_checked
    assert [f for _, failures in spawned for f in failures] == solo.failures
    assert [f.reason for f in stuck] == ["no distinct prime for 4"]
    duo = verify_grimm_range(2 * 10**5, workers=2)
    assert (duo.failures, duo.windows_checked) == (solo.failures, solo.windows_checked)


def test_small_windows_reject_empty_bounds():
    for m_max, max_n in ((5, 0), (-3, 5), (0, 7)):
        with pytest.raises(ValueError, match="need m_max >= 1 and max_n >= 1"):
            verify_small_windows(m_max, max_n)


def test_small_windows_full_check():
    report = verify_small_windows(420, 7)
    assert report.ok
    assert report.windows_checked == 826
    # exactly two length-7 windows intersect H(7): one at 140, one at 210
    assert report.fallback_windows == [(139, (140,)), (203, (210,))]


@pytest.mark.parametrize("m_max", [1, 2, 5, 150, 1000, 1340, 1361])
@pytest.mark.parametrize("max_n", [1, 2, 3, 7, 12])
def test_small_windows_match_oracle(m_max, max_n):
    def all_composite(m, n):
        return not any(naive_is_prime(x) for x in range(m + 1, m + n + 1))

    windows = [
        (m, n)
        for m in range(1, m_max + 1)
        for n in range(2, max_n + 1)
        if all_composite(m, n)
    ]
    hn = set(brute_hn(max_n, m_max + max_n))
    fallback = []
    for m in range(1, m_max + 1):
        inside = tuple(x for x in range(m + 1, m + max_n + 1) if x in hn)
        if inside and all_composite(m, max_n):
            fallback.append((m, inside))
    report = verify_small_windows(m_max, max_n)
    assert report.failures == [w for w in windows if not exact_representation_feasible(*w)]
    assert report.windows_checked == len(windows)
    assert report.fallback_windows == fallback


# fallback_windows and windows_checked as the per-window witness walk gave them
SMALL_WINDOW_PINS = {
    (5000, 12): (19000, [
        (113, (120,)), (114, (120, 126)), (318, (330,)), (839, (840,)), (1259, (1260,)),
        (1381, (1386,)), (1382, (1386,)), (1383, (1386,)), (1384, (1386,)), (1385, (1386,)),
        (1847, (1848,)), (2508, (2520,)), (3948, (3960,)), (3949, (3960,)), (3950, (3960,)),
        (3951, (3960,)), (3952, (3960,)), (3953, (3960,)), (3954, (3960,)), (4608, (4620,)),
    ]),
    (20000, 9): (78601, [
        (113, (120,)), (114, (120,)), (115, (120,)), (116, (120,)), (117, (120, 126)),
        (139, (140,)), (201, (210,)), (621, (630,)), (839, (840,)), (1259, (1260,)),
        (2511, (2520,)),
    ]),
    # elements up to 1,100,007, past the default sieve
    (1100000, 7): (4486920, [(139, (140,)), (203, (210,))]),
}


@pytest.mark.parametrize("m_max, max_n", sorted(SMALL_WINDOW_PINS))
def test_small_windows_find_each_witness_once(m_max, max_n):
    # The windows are read off the scan's listing of H(max_n): no element
    # is searched for a witness, and the shared sieve is left as it was.
    sieve = grimm.arith.default_sieve()
    report = verify_small_windows(m_max, max_n)
    assert (report.windows_checked, report.fallback_windows) == SMALL_WINDOW_PINS[m_max, max_n]
    assert grimm.arith.default_sieve().limit == sieve.limit


def test_conjecture1_fixtures():
    assert not conjecture1_probe(Window(116, 10)).feasible
    assert conjecture1_probe(Window(203, 7)).feasible
    assert conjecture1_probe(Window(89, 7)).feasible
    with pytest.raises(ValueError):
        conjecture1_probe(Window(100, 3))  # 101, 103 prime
    with pytest.raises(ValueError):
        conjecture1_probe(Window(1, 2))


def test_conjecture1_is_alias():
    for m, n in ((89, 7), (116, 10), (118, 8), (203, 7)):
        assert conjecture1_probe(Window(m, n)).feasible == exact_representation_exists(
            Window(m, n)
        ).feasible


def test_conjecture2_i_small_fixtures():
    probes = conjecture2_i(4)
    assert {p.d for p in probes} == {5, 7, 35}
    assert all(p.ok for p in probes)
    p35 = next(p for p in probes if p.d == 35)
    assert p35.q == 5
    assert p35.clauses[0].prime == 37   # first prime in (31, 39]
    assert p35.clauses[1].prime == 31   # first prime in (30, 40)

    probes = conjecture2_i(2)
    assert [p.d for p in probes] == [3]
    assert probes[0].q == 3
    assert probes[0].clauses[0].prime == 2  # (1, 5]
    assert probes[0].clauses[1].prime == 2  # (0, 6)


def test_conjecture2_i_counterexample_at_24():
    # d = 29*31*37*47 sits inside the prime gap 1563329..1563389, which is
    # wider than 2n for n = 24 and 25: a genuine violation of clause (i).
    for n, expected in ((23, []), (24, [1563361]), (25, [1563361])):
        bad = [p for p in conjecture2_i(n) if not p.ok]
        assert [p.d for p in bad] == expected
    violation = next(p for p in conjecture2_i(24) if not p.ok)
    assert violation.q == 29
    assert violation.clauses[0].prime is None
    assert violation.clauses[1].prime == 1563389  # +/- q clause still holds


def test_conjecture2_i_first_clause_failures_below_25():
    # the scan that motivates the record above: everything passes until n=24
    for n in range(2, 24):
        assert all(p.ok for p in conjecture2_i(n)), n


def test_conjecture2_i_guard_and_budget():
    with pytest.raises(ValueError, match="budget"):
        conjecture2_i(100)
    probes = conjecture2_i(100, divisor_budget=25, seed=3)
    assert len(probes) == 25
    again = conjecture2_i(100, divisor_budget=25, seed=3)
    assert [(p.d, p.ok) for p in probes] == [(p.d, p.ok) for p in again]


def test_conjecture2_ii_fixtures():
    probes = conjecture2_ii(6)
    assert [p.d for p in probes] == [5]  # primes in (3, 6)
    assert probes[0].clauses[0].lo == 1 and probes[0].clauses[0].hi == 6
    assert probes[0].ok

    probes = conjecture2_ii(10)
    assert [p.d for p in probes] == [7]
    assert probes[0].clauses[0].prime == 2  # window [1, 10]

    # composite divisor failing the coprimality hypothesis is vacuous
    probes = conjecture2_ii(9)
    d35 = next(p for p in probes if p.d == 35)
    # 35 = 9*3 + 8; gcd(35, 28) = 7 within the block
    assert d35.vacuous and d35.ok


def test_conjecture2_ii_no_violations_to_50():
    for n in range(3, 51):
        assert all(p.ok for p in conjecture2_ii(n)), n



def test_conjecture2_ii_coprimality_matches_the_gcd_rule():
    # A probe is vacuous exactly when d shares a factor with another element
    # of its block nt+1 .. nt+n, read off the gcds one by one: every divisor
    # for n <= 60, and seeded samples of the larger blocks at 90 and 150.
    runs = [conjecture2_ii(n) for n in range(3, 61)]
    assert sum(map(len, runs)) == 1748
    runs += [conjecture2_ii(n, divisor_budget=300, seed=1) for n in (90, 150)]
    for probe in itertools.chain.from_iterable(runs):
        n, d = probe.n, probe.d
        t = (d - 1) // n
        coprime = all(math.gcd(d, n * t + j) == 1 for j in range(1, n + 1) if n * t + j != d)
        assert probe.vacuous == (not coprime), (n, d)


def test_prime_blocks_are_the_open_bands():
    # Clause (i) and the Cramer report read the primes in (n, 2n); clause (ii)
    # those in (n/2, n).  An off-by-one at either end of a band changes a block.
    for n in range(2, 401):
        assert cramer_gap_report(n).d == math.prod(
            p for p in range(n + 1, 2 * n) if naive_is_prime(p)), n
    for n in range(2, 31):
        singles = [r.d for r in conjecture2_i(n) if r.d == r.q]
        assert singles == [p for p in range(n + 1, 2 * n) if naive_is_prime(p)], n
    for n in range(3, 61):
        singles = [r.d for r in conjecture2_ii(n) if r.d == r.q]
        assert singles == [p for p in range(n // 2 + 1, n) if naive_is_prime(p) and 2 * p > n], n


def test_prime_blocks_keep_the_sieve_guard():
    # A block's band stands in for the sieve up to its top, and is refused
    # where that sieve was: 2n > SIEVE_GUARD for (n, 2n), n > SIEVE_GUARD for
    # (n/2, n), before the band is struck and with the shared sieve unchanged.
    before = grimm.arith.default_sieve().limit
    half = SIEVE_GUARD // 2 + 1
    for call, n in ((cramer_gap_report, half), (conjecture2_i, half),
                    (conjecture2_ii, SIEVE_GUARD + 1), (cramer_gap_report, 10**9)):
        with pytest.raises(ValueError, match="SIEVE_GUARD"):
            call(n)
    assert grimm.conjectures._band(SIEVE_GUARD - 30, SIEVE_GUARD) == [
        p for p in range(SIEVE_GUARD - 30, SIEVE_GUARD) if naive_is_prime(p)]
    assert grimm.arith.default_sieve().limit == before


def test_cramer_product_tree_is_math_prod():
    for n in (2, 10, 100, 1000, 5000, 30000):
        block = band_primes(n + 1, 2 * n)
        assert _product(block) == math.prod(block), n
    assert _product([]) == 1 and _product([7]) == 7
    assert _product(list(range(1, 300))) == math.factorial(299)


def test_cramer_record_n10():
    rec = cramer_gap_report(10)
    assert rec.q == 11
    assert rec.d == 46189
    assert rec.lhs == 22.0
    assert rec.holds
    assert math.isclose(rec.rhs, math.log(46178) ** 2, rel_tol=1e-12)
    # frozen to 6 significant figures
    assert math.isclose(rec.rhs, 115.353, rel_tol=5e-6)


def test_cramer_small_cases():
    rec = cramer_gap_report(4)
    assert rec.q == 5 and rec.d == 35 and rec.holds
    assert math.isclose(rec.rhs, math.log(30) ** 2, rel_tol=1e-12)
    rec = cramer_gap_report(2)
    assert rec.q == 3 and rec.d == 3
    assert rec.holds is None and rec.rhs is None


def test_cramer_scan():
    records, least = cramer_gap_scan(10, 40)
    assert all(r.holds for r in records)
    assert least == 10
    records, least = cramer_gap_scan(2, 40)
    assert least == 6  # n=5 has a single prime in (5, 10): not applicable
    assert [r.n for r in records if r.holds is None] == [2, 3, 5]


def test_cramer_big_block_log_precision():
    # block product beyond float range; the log must still come out exact
    rec = cramer_gap_report(1000)
    assert rec.d > 10**320
    with pytest.raises(OverflowError):
        float(rec.d)
    assert rec.holds
    assert math.isclose(rec.rhs, math.log(rec.d - rec.q) ** 2, rel_tol=1e-12)
