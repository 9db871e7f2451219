import dataclasses
import random

import pytest

import grimm.assign
from grimm.arith import Window, default_sieve, representation_threshold
from grimm.assign import (
    exact_representation_exists,
    g_of_m,
    grimm_assignment,
    scan_counterexamples,
    w_of_m,
)
from grimm.coprime import CanonicalRow, InternalContradiction, verify_representation
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
    # One that reports a prime not dividing its element.
    with monkeypatch.context() as patch:
        patch.setattr(grimm.assign, "prime_divisors", lambda x: [x + 1])
        with pytest.raises(InternalContradiction):
            grimm_assignment(Window(5, 2))  # 6, 7 -> 7, 8


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


def test_scan_worker_independence():
    # wide enough for several fixed-size chunks
    solo = scan_counterexamples((1, 4500), (1, 8), workers=1)
    duo = scan_counterexamples((1, 4500), (1, 8), workers=2)
    assert solo == duo


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
    with pytest.raises(InternalContradiction):
        w_of_m(118, 8)


def test_w_matches_per_window_decisions():
    limit = default_sieve().limit
    for m, cap in ((1, 2), (2, 4), (118, 8), (113, 14), (2000, 30), (limit + 3, 12)):
        expected = tuple(
            exact_representation_exists(Window(m, n)).feasible for n in range(1, cap + 1)
        )
        assert w_of_m(m, cap).feasible == expected, m
