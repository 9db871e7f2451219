"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL gate line (run with -s to watch them).

Three expectations are encoded as strict xfails because the arithmetic
contradicts them; the true values are pinned in the regular suite and the
README findings section:

  * criterion 6b -- the commonly cited 13-set run listing below 427 misses
    the maximal runs 140..148 and 294..306 (prime gaps 139->149, 293->307);
  * criterion 8b -- the Chebyshev window constants are asymptotic: the
    upper constant 1.1056 fails on much of [100, 96081];
  * criterion 10a -- clause (i) of Conjecture 2 is genuinely false at
    n = 24, 25: d = 29*31*37*47 = 1563361 sits in the prime gap
    1563329..1563389, wider than 2n.
"""

import bisect
import json
import math
import multiprocessing
import random
import time

import numpy as np
import pytest

from grimm.arith import (
    Window,
    default_sieve,
    is_prime,
    representation_threshold,
)
from grimm.assign import exact_representation_exists, scan_counterexamples
from grimm.cli import run as cli_run
from grimm.conjectures import (
    conjecture2_i,
    conjecture2_ii,
    cramer_gap_report,
    cramer_gap_scan,
    enumerate_composite_runs,
    verify_grimm_range,
    verify_small_windows,
)
from grimm.coprime import (
    construct_representation,
    full_representation,
    representation_from_factors,
    verify_representation,
)
from grimm.primegen import select_pool, sweep
from grimm.smooth import ENUMERATION_GUARD, enumerate_hn, hn_cardinality, vector_count
from oracles import exact_representation_feasible, iterated_lcm

SEED = 20260810


def gate(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _enumerated_size(n: int) -> int:
    return len(enumerate_hn(n).elements)


def test_criterion_01_hn_fixtures_and_cardinality():
    t0 = time.monotonic()
    assert enumerate_hn(2).elements == ()
    assert enumerate_hn(3).elements == (6,)
    assert enumerate_hn(4).elements == (4, 6, 12)
    # Exact agreement on every n in [2, 200] the enumeration guard admits
    # (all n <= 70; vector counts pass 10^7 at n = 71, reaching ~4.7e15 by
    # n = 200, so enumeration there is impossible by design and the guard
    # must fire instead).
    feasible = [n for n in range(2, 201) if vector_count(n) <= ENUMERATION_GUARD]
    assert feasible == list(range(2, 71))
    heavy_first = sorted(feasible, reverse=True)
    with multiprocessing.Pool(2) as pool:
        sizes = pool.map(_enumerated_size, heavy_first, chunksize=1)
    for n, size in zip(heavy_first, sizes):
        assert size == hn_cardinality(n), f"n={n}"
    for n in (71, 100, 200):
        with pytest.raises(ValueError, match="guard"):
            enumerate_hn(n)
    elapsed = time.monotonic() - t0
    gate(
        "01",
        elapsed < 60,
        f"H(2)..H(4) exact; |H(n)| = closed form for n in 2..{feasible[-1]}; "
        f"guard verified at 71/100/200; {elapsed:.1f}s",
    )


def test_criterion_02_threshold_equals_lcm():
    assert representation_threshold(7) == 420
    for n in range(2, 41):
        assert representation_threshold(n) == iterated_lcm(n)
    gate("02", True, "threshold(7) = 420 and threshold = lcm(1..n) for n <= 40")


def test_criterion_03_representation_engine():
    t0 = time.monotonic()
    count = 0
    n = 1
    for m in range(1, 10**5 + 1, 10):
        w = Window(m, n)
        rep = construct_representation(w)
        assert verify_representation(rep), w
        count += 1
        n = n % 12 + 1
    known = representation_from_factors(Window(203, 7), (17, 41, 103, 207, 208, 209, 5))
    assert verify_representation(known)
    elapsed = time.monotonic() - t0
    gate(
        "03",
        count >= 10**4 and elapsed < 300,
        f"{count} windows constructed+verified, zero failures; "
        f"known (203,7) tuple validates; {elapsed:.1f}s",
    )


def test_criterion_04_threshold_windows_all_nontrivial():
    rng = random.Random(SEED)
    checked = 0
    for n in range(2, 11):
        bound = representation_threshold(n)
        ms = [bound + k for k in range(1, 101)]
        ms += [rng.randrange(bound + 1, 10**9) for _ in range(100)]
        for m in ms:
            rep = full_representation(Window(m, n))
            assert rep.all_factors_nontrivial, (m, n)
            checked += 1
    gate("04", checked == 1800, f"{checked} above-threshold windows, all parts > 1")


def test_criterion_05_exceptions_and_oracle_agreement():
    t0 = time.monotonic()
    for m, n in ((116, 10), (118, 8)):
        decision = exact_representation_exists(Window(m, n))
        assert not decision.feasible
        assert decision.blocking.value == 120
        assert exact_representation_feasible(m, n) is False  # exhaustive oracle
    mismatches = [
        (m, n)
        for m in range(1, 501)
        for n in range(1, 9)
        if exact_representation_exists(Window(m, n)).feasible
        != exact_representation_feasible(m, n)
    ]
    elapsed = time.monotonic() - t0
    gate(
        "05",
        not mismatches and elapsed < 600,
        f"(116,10) and (118,8) infeasible, blocked at 120, oracle agrees; "
        f"matching == exhaustive oracle on all 4000 windows m<=500 n<=8; {elapsed:.1f}s",
    )


def test_criterion_06a_small_windows_all_representable():
    t0 = time.monotonic()
    report = verify_small_windows(420, 7)
    elapsed = time.monotonic() - t0
    gate(
        "06a",
        report.ok and report.windows_checked == 826 and elapsed < 60,
        f"all {report.windows_checked} composite windows n in 2..7, m <= 420 "
        f"pass ({len(report.fallback_windows)} via matching fallback); {elapsed:.1f}s",
    )


DOCUMENTED_13_RUNS = [
    (90, 7),
    (114, 13),
    (182, 9),
    (200, 11),
    (212, 11),
    (242, 9),
    (284, 9),
    (318, 13),
    (338, 9),
    (360, 7),
    (390, 7),
    (402, 7),
    (410, 9),
]


@pytest.mark.xfail(
    strict=True,
    reason="the 13-set listing is incomplete: prime gaps 139->149 and 293->307 "
    "add the maximal runs (140,9) and (294,13), so the enumeration has 15 sets "
    "(see README findings)",
)
def test_criterion_06b_runs_match_documented_13_sets():
    got = [(r.start, r.length) for r in enumerate_composite_runs(427, 7)]
    gate(
        "06b",
        got == DOCUMENTED_13_RUNS,
        f"expected the documented 13 sets, enumeration has {len(got)}: "
        f"extras {sorted(set(got) - set(DOCUMENTED_13_RUNS))}",
    )


def test_criterion_07_bulk_grimm_to_1e6():
    t0 = time.monotonic()
    report = verify_grimm_range(10**6, workers=8)
    elapsed = time.monotonic() - t0
    gate(
        "07",
        report.ok and elapsed < 600,
        f"{report.windows_checked} maximal runs within 10^6, zero failures, "
        f"{elapsed:.1f}s at {report.worker_count} workers",
    )


def test_criterion_08a_pi_log_bound():
    sieve = default_sieve(10**6)
    ns = np.arange(17, 10**6 + 1, dtype=np.int64)
    pis = np.searchsorted(np.asarray(sieve.primes), ns, side="right").astype(np.float64)
    ok = bool(np.all(pis * np.log(ns) >= ns))
    gate("08a", ok, "pi(n)*ln(n) >= n for every 17 <= n <= 10^6")


@pytest.mark.xfail(
    strict=True,
    reason="the 0.92129/1.1056 window is asymptotic: the upper constant fails "
    "for 82899 values in [100, 96081], e.g. pi(100) = 25 > 1.1056*100/ln 100 "
    "(see README findings)",
)
def test_criterion_08b_chebyshev_window_sampled():
    sieve = default_sieve(10**6)
    rng = random.Random(SEED)
    xs = [100, 1000, 10**4, 10**5, 10**6]
    xs += [rng.randrange(100, 10**6) for _ in range(200)]
    bad = [
        x
        for x in xs
        if not (
            0.92129 * x / math.log(x)
            < bisect.bisect_right(sieve.primes, x)
            < 1.1056 * x / math.log(x)
        )
    ]
    gate(
        "08b",
        not bad,
        f"{len(bad)} of {len(xs)} sampled x violate the window, e.g. {bad[:3]}",
    )


def test_criterion_08c_chebyshev_window_on_valid_domain():
    sieve = default_sieve(10**6)
    xs = np.arange(100, 10**6 + 1, dtype=np.int64)
    pis = np.searchsorted(np.asarray(sieve.primes), xs, side="right").astype(np.float64)
    bound = xs / np.log(xs)
    lower_ok = bool(np.all(0.92129 * bound < pis))
    upper = pis < 1.1056 * bound
    ok = lower_ok and bool(np.all(upper[xs >= 96082]))
    gate(
        "08c",
        ok,
        "lower bound exhaustive on [100, 10^6]; upper exhaustive on "
        "[96082, 10^6] (its actual domain here; last violation at 96081)",
    )


def test_criterion_09_primegen_toy():
    t0 = time.monotonic()
    pool = select_pool(32, (29, 31, 37, 41, 43, 47))
    assert pool.primes == (29, 31, 37, 41, 43, 47)
    k = pool.product
    assert k == 2756205443 and 2**31 <= k < 2**32
    assert is_prime(k + 6)  # 2756205449
    res = sweep(k, 29)
    assert not res.conjecture2_violation
    assert abs(res.offset) <= 6 and is_prime(res.prime)
    elapsed = time.monotonic() - t0
    gate("09", elapsed < 1, f"toy pool: k = {k}, prime at offset {res.offset:+d}; {elapsed:.2f}s")


@pytest.mark.xfail(
    strict=True,
    reason="clause (i) of Conjecture 2 is false at n = 24 and 25: "
    "d = 29*31*37*47 = 1563361 lies in the prime gap 1563329..1563389 "
    "and (d-n, d+n] holds no prime (see README findings)",
)
def test_criterion_10a_conjecture2_i_zero_violations():
    violations = [
        (n, p.d) for n in range(2, 26) for p in conjecture2_i(n) if not p.ok
    ]
    gate("10a", not violations, f"clause (i) violations at {violations}")


def test_criterion_10b_conjecture2_ii_and_cramer():
    t0 = time.monotonic()
    bad = [(n, p.d) for n in range(3, 51) for p in conjecture2_ii(n) if not p.ok]
    assert not bad
    records, least = cramer_gap_scan(10, 40)
    assert all(r.holds for r in records) and least == 10
    rec = cramer_gap_report(10)
    assert rec.q == 11 and rec.d == 46189 and rec.lhs == 22.0
    assert math.isclose(rec.rhs, 115.353, rel_tol=5e-6)  # 6 significant figures
    elapsed = time.monotonic() - t0
    gate(
        "10b",
        elapsed < 120,
        f"clause (ii) clean for n <= 50; 2q < (ln(d-q))^2 on 10..40 with the "
        f"n=10 record (q=11, d=46189, rhs {rec.rhs:.4f}); {elapsed:.1f}s",
    )


def test_criterion_11_determinism(tmp_path):
    base_cmd = ["scan", "--m-max", "200", "--n-max", "12", "--format", "json", "--seed", "0"]
    outs = []
    for tag in ("one", "two"):
        path = tmp_path / f"{tag}.json"
        cli_run(base_cmd + ["--output", str(path), "--workers", "2"])
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    findings = []
    for workers in (1, 4, 8):
        path = tmp_path / f"scan-w{workers}.json"
        cli_run(base_cmd + ["--output", str(path), "--workers", str(workers)])
        findings.append(json.loads(path.read_text())["findings"])
    assert findings[0] == findings[1] == findings[2]
    verify_failures = []
    for workers in (1, 4, 8):
        report = verify_grimm_range(2 * 10**5, workers=workers)
        verify_failures.append([(f.m, f.n) for f in report.failures])
    assert verify_failures[0] == verify_failures[1] == verify_failures[2]
    gate(
        "11",
        True,
        "byte-identical repeated reports; findings stable across workers 1/4/8",
    )
