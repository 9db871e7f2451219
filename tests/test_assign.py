import dataclasses
import hashlib
import json
import multiprocessing
import random

import pytest

import grimm.arith
import grimm.assign
import grimm.coprime
from grimm.arith import Window, default_sieve, representation_threshold
from grimm.assign import (
    exact_representation_exists,
    g_of_m,
    grimm_assignment,
    scan_counterexamples,
    w_of_m,
)
from grimm.cli import EXIT_FINDINGS, EXIT_INTERNAL, run
from grimm.conjectures import BLOCK_SPAN, verify_grimm_range
from grimm.coprime import CanonicalRow, InternalContradiction, verify_representation
from grimm.matching import augment
from oracles import exact_representation_feasible, grimm_feasible

# All-composite windows in m <= 200, n <= 12 without the full representation,
# derived with the exhaustive oracle; every one is blocked at 120.
KNOWN_FAILURES_200_12 = [
    (113, 12),
    (115, 8),
    (116, 8),
    (116, 9),
    (116, 10),
    (117, 8),
    (118, 8),
]


def test_grimm_fixtures():
    assert grimm_assignment(Window(89, 7)) is not None     # the run 90..96
    got = grimm_assignment(Window(116, 10))
    assert got is not None
    assert len(set(got.primes)) == 10
    for j, p in enumerate(got.primes, start=1):
        assert (116 + j) % p == 0
    assert grimm_assignment(Window(1, 1)).primes == (2,)
    with pytest.raises(ValueError):
        grimm_assignment(Window(0, 3))


def test_grimm_runtime_check_catches_defects(monkeypatch):
    # A matcher that always claims success hands the prime 2 to both 2
    # and 4 in the window 2, 3, 4.
    def overclaiming(adj, pair_r, start):
        pair_r[adj[start][0]] = start
        return True

    with monkeypatch.context() as patch:
        patch.setattr(grimm.assign, "augment", overclaiming)
        with pytest.raises(InternalContradiction):
            grimm_assignment(Window(1, 3))
    # A divisor walk that reports composites (8, 9, 10 as their own primes).
    with monkeypatch.context() as patch:
        patch.setattr(grimm.assign, "prime_divisors", lambda x: [x])
        with pytest.raises(InternalContradiction):
            grimm_assignment(Window(7, 3))
    # A largest-prime-factor column that reports a prime not dividing its
    # element.
    with monkeypatch.context() as patch:
        patch.setattr(grimm.assign, "largest_prime_factors", shifted_column)
        with pytest.raises(InternalContradiction):
            grimm_assignment(Window(5, 2))  # 6, 7 -> 7, 8


def test_g_checks_its_final_matching(monkeypatch, capsys):
    # An augment that succeeds but then leaves the prime 10007, which divides
    # no element of the windows from 1000, matched to index 3 (1003 = 17 * 59).
    def misplacing(adj, pair_r, start):
        found = augment(adj, pair_r, start)
        if start == 3:
            del pair_r[next(p for p, i in pair_r.items() if i == 3)]
            pair_r[10007] = 3
        return found

    # An augment that fails at once: value 0, which no window has (m + 1 >= 2
    # has a prime), is a defect, not a usage error.
    for mutant in (misplacing, lambda adj, pair_r, start: False):
        monkeypatch.setattr(grimm.assign, "augment", mutant)
        assert run(["g", "--m", "1000"]) == EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "InternalContradiction"


def shifted_column(lo, hi):
    return [x + 1 for x in range(lo, hi + 1)]


def test_grimm_matches_oracle_sampled():
    rng = random.Random(211)
    for _ in range(400):
        m = rng.randrange(1, 3000)
        n = rng.randrange(1, 9)
        assert (grimm_assignment(Window(m, n)) is not None) == grimm_feasible(m, n)


def test_exceptions_blocked_at_120():
    for m, n in ((116, 10), (118, 8)):
        decision = exact_representation_exists(Window(m, n))
        assert not decision.feasible
        assert decision.blocking.value == 120
        assert decision.certificate is None
    # the recorded reasons carry (prime, needed, available)
    d = exact_representation_exists(Window(118, 8))
    assert d.blocking.reasons == ((2, 0, 3), (3, 2, 1), (5, 3, 1))
    d = exact_representation_exists(Window(116, 10))
    assert d.blocking.reasons == ((2, 0, 3), (3, 2, 1), (5, 2, 1))


def test_feasible_fixture_203_7():
    decision = exact_representation_exists(Window(203, 7))
    assert decision.feasible
    cert = decision.certificate
    assert verify_representation(cert)
    assert cert.all_factors_nontrivial
    assert cert.factors == (17, 41, 103, 207, 208, 209, 5)


def test_certificate_soundness_sampled():
    rng = random.Random(97)
    for _ in range(300):
        w = Window(rng.randrange(1, 10**4), rng.randrange(1, 9))
        decision = exact_representation_exists(w)
        if decision.feasible:
            assert decision.certificate.all_factors_nontrivial
            assert verify_representation(decision.certificate)
        else:
            assert decision.blocking is not None
            assert w.m + decision.blocking.index == decision.blocking.value


def test_oracle_equivalence_random():
    rng = random.Random(4242)
    for _ in range(1000):
        m = rng.randrange(1, 10**4)
        n = rng.randrange(1, 9)
        got = exact_representation_exists(Window(m, n)).feasible
        assert got == exact_representation_feasible(m, n), (m, n)


def test_decision_deterministic():
    first = exact_representation_exists(Window(203, 7))
    for _ in range(3):
        again = exact_representation_exists(Window(203, 7))
        assert again.certificate == first.certificate


def test_g_fixtures():
    res = g_of_m(1, 2)
    # both {2} and {2,3} assign (primes self-assign); the cap is the 2m wall
    assert res.value == 2 and res.cap_hit
    assert g_of_m(116).value >= 10
    assert g_of_m(116).value == 13
    with pytest.raises(ValueError):
        g_of_m(10, 21)  # cap beyond 2m
    with pytest.raises(ValueError):
        g_of_m(0)


def test_g_below_2m_for_m_from_2():
    for m in range(2, 2001):
        res = g_of_m(m)
        assert res.value < 2 * m, m
        assert not res.cap_hit


def test_g_matches_incremental_oracle():
    rng = random.Random(59)
    for _ in range(150):
        m = rng.randrange(2, 1500)
        res = g_of_m(m)
        assert grimm_feasible(m, res.value) or res.value == 0
        assert not grimm_feasible(m, res.value + 1)


def test_w_fixtures():
    res = w_of_m(118, 8)
    assert res.value == 7
    assert res.feasible == (True,) * 7 + (False,)
    assert not res.cap_hit
    res = w_of_m(116, 10)
    assert res.feasible[9] is False
    # above the threshold the full cap is reachable
    for n in (5, 7):
        m = representation_threshold(n) + 1
        res = w_of_m(m, n)
        assert res.value == n and res.cap_hit


def test_w_at_most_g():
    rng = random.Random(61)
    for _ in range(40):
        m = rng.randrange(2, 400)
        cap = min(2 * m, 8)
        assert w_of_m(m, cap).value <= g_of_m(m, cap).value


def test_scan_rectangle_matches_oracle_list():
    hits = scan_counterexamples((1, 200), (1, 12))
    assert [(c.m, c.n) for c in hits] == KNOWN_FAILURES_200_12
    assert all(c.blocking_value == 120 for c in hits)
    assert (116, 10) in [(c.m, c.n) for c in hits]
    assert (118, 8) in [(c.m, c.n) for c in hits]


def test_scan_oracle_agreement_exhaustive():
    # every rectangle window, feasibility cross-checked exhaustively
    from grimm.arith import default_sieve

    sieve = default_sieve()
    hits = {(c.m, c.n) for c in scan_counterexamples((1, 200), (1, 12))}
    for m in range(1, 201):
        for n in range(1, 13):
            if all(not sieve.is_prime(m + i) for i in range(1, n + 1)):
                expected = not exact_representation_feasible(m, n)
                assert ((m, n) in hits) == expected


def test_scan_small_lengths_all_pass():
    assert scan_counterexamples((1, 420), (7, 7)) == []
    assert scan_counterexamples((1, 420), (2, 6)) == []


def test_scan_empty_and_degenerate():
    assert scan_counterexamples((1, 100), (1, 0)) == []
    assert scan_counterexamples((50, 40), (1, 5)) == []
    with pytest.raises(ValueError):
        scan_counterexamples((0, 10), (1, 5))
    # a window of one composite is its own part > 1; H(1) is not enumerated
    assert scan_counterexamples((1, 1), (1, 1)) == []
    assert scan_counterexamples((1, 500), (0, 1)) == []
    assert scan_counterexamples((1, 1), (1, 12)) == []  # n_max clamps to m_max = 1


def test_scan_large_rectangle_keeps_the_default_sieve(monkeypatch):
    # m <= 10^6, n <= 20 gives the findings of the rectangle-wide L column
    # (305 windows, digest taken from it), and the shared sieve stays at its
    # default limit.
    monkeypatch.setattr(grimm.arith, "_sieve", None)
    hits = scan_counterexamples((1, 10**6), (1, 20))
    digest = hashlib.sha256(repr([(c.m, c.n, c.blocking_value) for c in hits]).encode())
    assert len(hits) == 305
    assert digest.hexdigest() == (
        "1fac39b2640dc57323928b4b3822d7969c97c9bd7cfa853f54a8075e94301850"
    )
    assert default_sieve().limit == 10**6


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces multiprocessing.Pool by one that records the size asked
    for and maps in-process, so no process is started."""
    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, blocks):
            return list(map(fn, blocks))

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    return sizes


def test_verify_pool_holds_at_most_one_worker_per_block(pool_sizes):
    solo = verify_grimm_range(2 * 10**5)
    blocks = -(-(2 * 10**5 - 1) // BLOCK_SPAN)  # value blocks over [2, 200000]
    assert pool_sizes == [] and blocks == 4
    assert verify_grimm_range(2 * 10**5, workers=64).failures == solo.failures
    assert verify_grimm_range(2 * 10**5, workers=2).failures == solo.failures
    assert pool_sizes == [blocks, 2]


def test_scan_worker_independence(pool_sizes, capsys):
    # --workers is accepted and has no effect on scan: no pool is started
    reports = []
    for workers in ("1", "2", "64"):
        argv = ["scan", "--m-max", "4500", "--n-max", "8", "--workers", workers]
        assert run(argv) == EXIT_FINDINGS
        reports.append(capsys.readouterr().out)
    assert pool_sizes == []
    assert reports[0] == reports[1] == reports[2]
    assert "findings (4)" in reports[0]


def test_scan_pool_only_for_large_rectangles(pool_sizes, capsys):
    # scan has no pool at any size: 2^15 rows, the size that used to start
    # one, runs in-process like 4500 rows
    for rows in (4500, 1 << 15):
        solo = scan_counterexamples((1, rows), (1, 8))
        argv = ["scan", "--m-max", str(rows), "--n-max", "8", "--workers", "2"]
        assert run(argv) == EXIT_FINDINGS
        assert f"findings ({len(solo)})" in capsys.readouterr().out
    assert pool_sizes == []


def test_scan_pool_holds_at_most_one_worker_per_block(pool_sizes, capsys):
    # scan decides its rows in one pass with no blocks, so --workers 64
    # holds no worker, with or without the first row
    rows = 1 << 15
    for m_min in (1, 2):
        solo = scan_counterexamples((m_min, rows), (1, 8))
        argv = ["scan", "--m-min", str(m_min), "--m-max", str(rows),
                "--n-max", "8", "--workers", "64"]
        assert run(argv) == EXIT_FINDINGS
        assert f"findings ({len(solo)})" in capsys.readouterr().out
    assert pool_sizes == []


def corrupt_canonical(monkeypatch):
    """Make every canonical certificate claim one power of its first prime
    too many, leaving its parts as they were."""
    real = CanonicalRow.representation

    def corrupted(row):
        rep = real(row)
        (p, e, i), *rest = rep.assignment
        return dataclasses.replace(rep, assignment=((p, e + 1, i), *rest))

    monkeypatch.setattr(CanonicalRow, "representation", corrupted)


def test_scan_checks_canonical_certificates(monkeypatch):
    corrupt_canonical(monkeypatch)
    with pytest.raises(InternalContradiction):
        scan_counterexamples((1, 200), (1, 12))
    # 105 = 3 * 5 * 7 lies in H(7): row 104 is walked from n = 7 on, and its
    # canonical certificates at n = 7, 8 are checked.  Below n = 7 the H(n)
    # lemma settles the windows without building any certificate.
    with pytest.raises(InternalContradiction):
        w_of_m(104, 8)
    assert all(w_of_m(104, 6).feasible)


def test_w_matches_per_window_decisions():
    limit = default_sieve().limit
    for m, cap in ((1, 2), (2, 4), (118, 8), (113, 14), (2000, 30), (limit + 3, 12)):
        expected = tuple(
            exact_representation_exists(Window(m, n)).feasible for n in range(1, cap + 1)
        )
        assert w_of_m(m, cap).feasible == expected, m


def test_w_matches_a_walk_of_every_width():
    # The H(n) lemma settles every width below n0 exactly as the row walk
    # does; 10**12 + 1 .. 10**12 + 60 hold a prime power > 60 each, so
    # n0 > cap there and nothing is walked.
    rng = random.Random(30)
    rows = [(10**12, 60), (1, 2)] + [
        (rng.randrange(1, 10**rng.randrange(2, 10)), rng.randrange(1, 50)) for _ in range(40)
    ]
    for m, cap in rows:
        walked = tuple(blocking is None for _, blocking in grimm.assign._walk(m, 1, cap, {}))
        assert w_of_m(m, cap).feasible == walked, (m, cap)


def test_w_reads_prime_powers_only_below_its_first_open_width(monkeypatch):
    # n0 = 43 for m = 10**6: L(m + i) is read for i = 1 .. 42 only, not for
    # every index up to the cap.
    calls = []
    real = grimm.assign.largest_prime_power
    monkeypatch.setattr(grimm.assign, "largest_prime_power", lambda x: calls.append(x) or real(x))
    assert w_of_m(10**6, 600).value == 132
    assert len(calls) <= 42


def test_decision_checks_row_exponents(monkeypatch):
    # v_p(C(m+n, n)) never exceeds the window's largest v_p, so an exponent
    # that does leaves its prime with no admissible index: a defect.
    exponents = CanonicalRow.exponents
    monkeypatch.setattr(CanonicalRow, "exponents", lambda row: {**exponents(row), 2: 99})
    with pytest.raises(InternalContradiction, match="prime 2 has no admissible index"):
        exact_representation_exists(Window(203, 7))


def test_decision_checks_matched_certificates(monkeypatch):
    monkeypatch.setattr(grimm.assign, "verify_representation", lambda rep: False)
    with pytest.raises(InternalContradiction, match="bad certificate"):
        exact_representation_exists(Window(203, 7))


def test_scan_checks_each_members_largest_prime_power(monkeypatch):
    # 840 = 2^3 * 3 * 5 * 7 lies in H(20); reported as 2^4 * 3 * 5 * 7 its L
    # would still be <= 20, and the scan would keep its 42 findings, but
    # largest_prime_power recounts v_2(840) = 3 apart from factorize.
    assert len(scan_counterexamples((1, 3000), (1, 20))) == 42
    factorize = grimm.arith.factorize
    monkeypatch.setattr(grimm.arith, "factorize",
                        lambda x: {2: 4, 3: 1, 5: 1, 7: 1} if x == 840 else factorize(x))
    with pytest.raises(InternalContradiction) as info:
        scan_counterexamples((1, 3000), (1, 20))
    assert str(info.value) == "2^4 is not a prime power exactly dividing 840"


def recorded(monkeypatch, name):
    """The results of every call assign makes to its helper name."""
    results = []
    real = getattr(grimm.assign, name)

    def recording(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(grimm.assign, name, recording)
    return results


def test_empty_index_is_blocked_without_a_matching(monkeypatch):
    # 120 = 2^3 * 3 * 5 has no admissible prime in 119..126: the window is
    # blocked there whatever a matching would find.
    monkeypatch.setattr(grimm.assign, "max_matching", None)
    decision = exact_representation_exists(Window(118, 8))
    assert not decision.feasible and decision.blocking.value == 120
    # The verdict is recounted apart from the row: floor sums that give
    # every prime exponent 1 make 2 admissible at 120.
    monkeypatch.setattr(grimm.assign, "_vp_binomial", lambda p, m, n: 1)
    with pytest.raises(InternalContradiction, match="120 has an admissible prime"):
        exact_representation_exists(Window(118, 8))


def test_scan_moves_before_it_matches(monkeypatch):
    # The README rectangle: 688 windows settled by their canonical
    # certificates, 771 by one move, 182 by _decide, of which 7 need a
    # matching (6 feasible) and 175 have an index with no admissible prime.
    # So every finding has a Hall violator of at most two indices: the empty
    # index alone, or the two that the one short matching reaches.
    matchings = recorded(monkeypatch, "max_matching")
    checks = recorded(monkeypatch, "verify_representation")
    moves = recorded(monkeypatch, "_one_move")
    decisions = recorded(monkeypatch, "_decide")
    violators = recorded(monkeypatch, "_alternating_reach")
    assert len(scan_counterexamples((1, 20000), (1, 20))) == 176
    assert (len(moves), len(decisions), len(matchings)) == (953, 182, 7)
    assert len(checks) == 688 + 771 + 6
    assert violators == [{7, 10}]


def test_moved_windows_are_feasible(monkeypatch):
    moves = recorded(monkeypatch, "_one_move")
    scan_counterexamples((1, 3000), (1, 20))
    moved = [cert.window for cert in moves if cert is not None]
    assert len(moved) > 100
    for w in moved:
        assert exact_representation_exists(w).feasible, w


def test_census_factors_each_element_once_per_run(monkeypatch):
    # The n <= 16 Conjecture 1 census: the rows of one run share one dict of
    # element factorizations, so the walk factors each element at most once
    # per run.  _decide's recounts call factorize apart from the walk.
    runs, factored = [], []
    walk = grimm.assign._walk

    def walking(m, start, n_hi, known):
        if not runs or runs[-1] is not known:
            runs.append(known)
        return walk(m, start, n_hi, known)

    factorize = grimm.coprime.factorize

    def factoring(x):
        factored.append((len(runs), x))
        return factorize(x)

    monkeypatch.setattr(grimm.assign, "_walk", walking)
    monkeypatch.setattr(grimm.coprime, "factorize", factoring)
    assert len(scan_counterexamples((1, 720720), (1, 16))) == 108
    assert len(runs) > 10
    assert len(set(factored)) == len(factored)
    assert len(factored) == sum(map(len, runs))


@pytest.mark.parametrize("corrupted", [{2: 3, 3: 1, 5: 2}, {2: 3, 3: 1, 5: 1, 7: 1}],
                         ids=["extra_power", "extra_prime"])
def test_scan_checks_the_runs_shared_factorizations(monkeypatch, corrupted):
    # 120 = 2^3 * 3 * 5, misread in the dict its run shares, is caught by the
    # certificate checks of the first window that holds it.
    walk = grimm.assign._walk

    def walking(m, start, n_hi, known):
        known.setdefault(120, corrupted)
        return walk(m, start, n_hi, known)

    monkeypatch.setattr(grimm.assign, "_walk", walking)
    with pytest.raises(InternalContradiction, match="certificate fails at Window.m=113, n=8"):
        scan_counterexamples((1, 200), (1, 12))
