"""The four workloads: seeded inputs, work items and output checks.

Each workload turns a seed into one `grimm` command line.  Seed 0 gives
the reference input; other seeds move it within a range narrow enough that
the amount of work stays within about two per cent, so runs on different
seeds measure the same thing.  Checks read the JSON report and compare it
with `oracle`, which shares no code with grimm.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, replace

import oracle

# All-composite windows with m <= 200, n <= 12 lacking the full
# representation, each blocked at 120 (README finding 2).
README_BLOCKED = ((113, 12), (115, 8), (116, 8), (116, 9), (116, 10), (117, 8), (118, 8))
SCAN_REFERENCE_COUNTEREXAMPLES = 176  # m <= 20000, n <= 20
SCAN_FEASIBLE_SAMPLE = 100
DEFAULT_SIEVE = 10**6  # the size grimm builds when a command needs no larger one


@dataclass(frozen=True)
class Job:
    workload: str
    argv: tuple[str, ...]
    sieve_limit: int  # the shared sieve built during set-up
    expected_rc: int

    def arg(self, flag: str) -> int:
        return int(self.argv[self.argv.index(flag) + 1])

    def with_workers(self, workers: int) -> "Job":
        argv = list(self.argv)
        argv[argv.index("--workers") + 1] = str(workers)
        return replace(self, argv=tuple(argv))

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Outcome:
    items: int
    problems: list[str]


def make_job(workload: str, seed: int) -> Job:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        limit = 10**6 if seed == 0 else rng.randrange(10**6, 10**6 + 2 * 10**4 + 1)
        argv = ("verify", "--limit", str(limit), "--workers", "1")
        return Job(workload, argv, limit + 1, 0)
    if workload == "scan":
        shift = 0 if seed == 0 else rng.randrange(0, 501)
        argv = ("scan", "--m-min", str(1 + shift), "--m-max", str(20000 + shift),
                "--n-max", "20", "--workers", "2")
        return Job(workload, argv, 20000 + shift + 20 + 1, 1)
    if workload == "primegen":
        # The band stays fixed: the sweep length is a prime gap, which varies
        # several-fold between bands.  The seed picks the Miller-Rabin bases.
        mr_seed = 0 if seed == 0 else rng.randrange(1, 2**31)
        argv = ("primegen", "--bits", "2048", "--band-start", "4001",
                "--seed", str(mr_seed), "--workers", "1")
        return Job(workload, argv, DEFAULT_SIEVE, 0)
    if workload == "hn":
        # H(64) = H(65) = H(66): no prime power lies in 65..66.
        n = 64 if seed == 0 else rng.choice((64, 65, 66))
        return Job(workload, ("hn", "--n", str(n), "--workers", "1"), DEFAULT_SIEVE, 0)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify", "scan", "primegen", "hn")


def check(job: Job, data: bytes) -> Outcome:
    """Work items in the report and every disagreement with the oracle."""
    if job.workload == "hn":
        return _check_hn(job, data)
    report = json.loads(data)
    problems = _check_header(job, report)
    outcome = {"verify": _check_verify, "scan": _check_scan, "primegen": _check_primegen}[
        job.workload
    ](job, report)
    outcome.problems[:0] = problems
    return outcome


def _check_header(job: Job, report: dict) -> list[str]:
    problems = []
    if report.get("config", {}).get("subcommand") != job.workload:
        problems.append("report is for another subcommand")
    want = "findings" if job.expected_rc == 1 else "ok"
    if report.get("status") != want:
        problems.append(f"status {report.get('status')!r}, expected {want!r}")
    return problems


def _check_verify(job: Job, report: dict) -> Outcome:
    limit = job.arg("--limit")
    runs = oracle.composite_run_count(oracle.prime_flags(limit + 1), limit)
    res = report["result"]
    problems = []
    if res["failures"] or report["findings"]:
        problems.append(f"{len(res['failures'])} Grimm failures reported")
    if res["windows_checked"] != runs:
        problems.append(f"windows_checked {res['windows_checked']} != {runs} composite runs")
    if res["range_limit"] != limit:
        problems.append(f"range_limit {res['range_limit']} != {limit}")
    return Outcome(runs, problems)


def _check_scan(job: Job, report: dict) -> Outcome:
    m_lo, m_hi, n_max = job.arg("--m-min"), job.arg("--m-max"), job.arg("--n-max")
    flags = oracle.prime_flags(m_hi + n_max + 1)
    windows = oracle.composite_windows(flags, m_lo, m_hi, n_max)
    hits = report["result"]["counterexamples"]
    problems = []
    if report["findings"] != hits:
        problems.append("findings differ from result.counterexamples")
    keys = [(h["m"], h["n"]) for h in hits]
    if keys != sorted(set(keys)):
        problems.append("counterexamples not strictly ordered by (m, n)")
    window_set = set(windows)
    for h in hits:
        m, n, value = h["m"], h["n"], h["blocking_value"]
        if (m, n) not in window_set:
            problems.append(f"({m},{n}) is not an all-composite window of the rectangle")
        elif oracle.full_representation_exists(m, n):
            problems.append(f"({m},{n}) reported blocked but has a full representation")
        if not m < value <= m + n:
            problems.append(f"({m},{n}) blocking value {value} outside the window")
    if (m_lo, m_hi, n_max) == (1, 20000, 20):
        if len(hits) != SCAN_REFERENCE_COUNTEREXAMPLES:
            problems.append(f"{len(hits)} counterexamples, expected {SCAN_REFERENCE_COUNTEREXAMPLES}")
        small = {(h["m"], h["n"]): h["blocking_value"] for h in hits if h["m"] <= 200 and h["n"] <= 12}
        if small != {w: 120 for w in README_BLOCKED}:
            problems.append(f"windows with m <= 200, n <= 12: {sorted(small.items())}")
    hit_set = set(keys)
    rest = [w for w in windows if w not in hit_set]
    for m, n in random.Random(job.key).sample(rest, min(SCAN_FEASIBLE_SAMPLE, len(rest))):
        if not oracle.full_representation_exists(m, n):
            problems.append(f"({m},{n}) has no full representation but was not reported")
    return Outcome(len(windows), problems)


def _check_primegen(job: Job, report: dict) -> Outcome:
    bits, band = job.arg("--bits"), job.arg("--band-start")
    res = report["result"]
    pool, k, offset, prime = res["pool"], res["k"], res["offset"], res["prime"]
    flags = oracle.prime_flags(2 * band)
    problems = []
    if pool != sorted(set(pool)) or not all(band <= p < 2 * band and flags[p] for p in pool):
        problems.append("pool is not ascending primes of the band")
    if math.prod(pool) != k or not 2 ** (bits - 1) <= k < 2**bits:
        problems.append("k is not the pool product or not of the requested width")
    if offset is None or prime is None or res["conjecture2_violation"]:
        return Outcome(1, problems + ["empty sweep reported"])
    if offset % 2 or offset == 0 or abs(offset) > 2 * (pool[0] // 2) or prime != k + offset:
        problems.append(f"offset {offset} outside the sweep")
    if not oracle.fermat_probable_prime(prime):
        problems.append("prime fails a Fermat test to bases 2, 3, 5")
    if res["bit_length"] != prime.bit_length():
        problems.append("bit_length mismatch")
    # Sweep order is k+2, k-2, k+4, k-4, ...
    step = abs(offset) // 2
    return Outcome(2 * (step - 1) + (1 if offset > 0 else 2), problems)


_ELEMENTS = re.compile(rb'"elements"\s*:\s*\[')
_INT = re.compile(rb"-?\d+")
HN_PREFIX_BOUND = 10**4


def _check_hn(job: Job, data: bytes) -> Outcome:
    # The report holds millions of members; scan them in place instead of
    # building a list of Python ints.
    n = job.arg("--n")
    match = _ELEMENTS.search(data)
    if match is None:
        return Outcome(1, ["no elements array in the report"])
    start = match.end()
    end = data.index(b"]", start)
    report = json.loads(data[:start] + data[end:])
    problems = _check_header(job, report)
    expected = oracle.hn_size(oracle.prime_flags(n), n)
    count, prev, prefix = 0, 0, []
    for tok in _INT.finditer(data, start, end):
        x = int(tok.group())
        if x <= prev:
            problems.append(f"members not ascending at {x}")
            break
        if x <= HN_PREFIX_BOUND:
            prefix.append(x)
        count, prev = count + 1, x
    if count != expected or report["result"]["cardinality"] != expected:
        problems.append(f"{count} members, cardinality {report['result']['cardinality']}, expected {expected}")
    if prev != math.lcm(*range(1, n + 1)):
        problems.append("largest member is not lcm(1..n)")
    if prefix != oracle.hn_members_upto(n, HN_PREFIX_BOUND):
        problems.append(f"members up to {HN_PREFIX_BOUND} differ from brute force")
    return Outcome(expected, problems)
