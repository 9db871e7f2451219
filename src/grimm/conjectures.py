"""Bulk verification over composite runs, and empirical probes for the two
open questions the README states:

  Conjecture 1 -- for every sufficiently large n, the product of any n
  consecutive composites m+1..m+n equals n! times a pairwise-coprime
  product of parts a_i | (m+i), all parts > 1.  Equivalent to the exact
  representation of C(m+n, n), so the probe is an alias with the
  compositeness precondition enforced.

  Conjecture 2 -- prime-presence claims near divisors of prime-block
  products: (i) for d > 1 dividing the product of primes in (n, 2n),
  primes exist in (d-n, d+n] and in (d-q, d+q), q the least prime factor
  of d; (ii) for d > 1 dividing the product of primes in (n/2, n) written
  as d = nt + r with d coprime to the rest of its block, a prime exists in
  [nt+1, nt+n].

A probe that finds a violation reports it as a first-class finding; it
never raises.  The Cramer-gap report quantifies why clause (i) is out of
reach of even squared-log prime gaps.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import time
from dataclasses import dataclass, field

from .arith import Window, default_sieve, is_prime, largest_prime_factors, largest_prime_powers
from .assign import (
    RepresentationDecision,
    _check_column,
    _settle_grimm,
    exact_representation_exists,
    map_blocks,
    scan_counterexamples,
)
from .coprime import InternalContradiction, construct_representation
from .primegen import first_prime

SUBSET_GUARD = 20  # probe every divisor only when the prime block has <= this many primes


@dataclass(frozen=True)
class CompositeRun:
    """A maximal block of consecutive composites (bounded by primes)."""

    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length - 1


def _composite_gaps(limit: int, min_len: int) -> list[tuple[int, int]]:
    """(m, n) for each maximal run m+1 .. m+n of n >= min_len composites within [2, limit]."""
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    # The primes up to limit bound every run but the last; that one is
    # maximal within the limit only when limit + 1 is prime.
    ps = default_sieve(limit).primes
    k = bisect.bisect_right(ps, limit)
    last = [limit + 1] if k and is_prime(limit + 1) else []
    ends = itertools.chain(itertools.islice(ps, 1, k), last)
    return [(p, q - p - 1) for p, q in zip(ps, ends) if q - p > min_len]


def enumerate_composite_runs(limit: int, min_len: int = 1) -> list[CompositeRun]:
    """Maximal composite runs whose elements all lie within [2, limit].

    Maximality at the right edge is decided by looking one past the limit,
    so a run ending exactly at `limit` is included when limit+1 is prime.
    """
    return [CompositeRun(start=m + 1, length=n) for m, n in _composite_gaps(limit, min_len)]


@dataclass
class GrimmFailure:
    m: int
    n: int
    reason: str


@dataclass
class VerificationReport:
    """Outcome of a bulk range scan; failures empty iff everything passed."""

    range_limit: int
    windows_checked: int
    failures: list[GrimmFailure]
    elapsed: float
    worker_count: int

    @property
    def ok(self) -> bool:
        return not self.failures


# A verify block holds at most this many runs and spans at most this many
# integers, so the P(x) column it builds stays small whatever --min-len is.
BLOCK_RUNS = 4096
BLOCK_SPAN = 1 << 16


def _grimm_chunk(windows: list[tuple[int, int]]) -> list[GrimmFailure]:
    m0 = windows[0][0]
    tops = largest_prime_factors(m0 + 1, sum(windows[-1]))
    _check_column(m0 + 1, tops)
    out = []
    for m, n in windows:
        col = tops[m - m0 : m - m0 + n]
        if len(set(col)) == n:  # n distinct checked primes: an assignment
            continue
        stuck = _settle_grimm(Window(m, n), col)
        if isinstance(stuck, int):
            out.append(GrimmFailure(m=m, n=n, reason=f"no distinct prime for {m + stuck}"))
    return out


def verify_grimm_range(
    limit: int, min_len: int = 1, workers: int = 1
) -> VerificationReport:
    """Check the distinct-prime assignment on every maximal composite run
    within the limit.

    An assignment for a maximal run restricts to every sub-window, so runs
    are the only windows that need checking.  The runs are cut into blocks
    of at most BLOCK_RUNS runs spanning at most BLOCK_SPAN integers; each
    block builds and checks one largest-prime-factor column over its span.
    A run whose n entries are distinct is settled by them: each is a
    checked prime dividing its element.  Only a run where two elements
    share their largest prime factor goes to _settle_grimm.  The blocks do
    not depend on the worker count, and neither does the report content.
    """
    t0 = time.monotonic()
    windows = _composite_gaps(limit, min_len)
    blocks = []
    i = 0
    while i < len(windows):
        # Run i starts a block; it ends before the first run that reaches
        # past BLOCK_SPAN integers from its start (m + n is a run's last
        # element), or after BLOCK_RUNS runs.
        hi = min(i + BLOCK_RUNS, len(windows))
        j = bisect.bisect_right(windows, windows[i][0] + BLOCK_SPAN, i + 1, hi, key=sum)
        blocks.append(windows[i:j])
        i = j
    return VerificationReport(
        range_limit=limit,
        windows_checked=len(windows),
        failures=map_blocks(_grimm_chunk, blocks, workers),
        elapsed=time.monotonic() - t0,
        worker_count=workers,
    )


@dataclass
class SmallWindowReport:
    """Exhaustive small-length check below the representation threshold.

    Every all-composite window with 2 <= n <= max_n and m <= m_max must
    admit the full representation.  Windows whose elements all avoid
    H(max_n) get it from the canonical construction; the others
    (`fallback_windows`) rely on the matching certificate.
    """

    m_max: int
    max_n: int
    windows_checked: int
    failures: list[tuple[int, int]]
    fallback_windows: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_small_windows(m_max: int = 420, max_n: int = 7) -> SmallWindowReport:
    """The failures are those of scan_counterexamples on m <= m_max, 2 <= n <= max_n."""
    if m_max < 1 or max_n < 1:
        raise ValueError(f"need m_max >= 1 and max_n >= 1, got m_max={m_max}, max_n={max_n}")
    sieve = default_sieve(m_max + max_n + 1)
    # An element of an all-composite window lies in H(max_n) iff its
    # largest prime power is <= max_n.
    tops = largest_prime_powers(1, m_max + max_n)
    checked = 0
    fallback = []
    for m in range(1, m_max + 1):
        run = sieve.composite_run(m, max_n)
        checked += max(run - 1, 0)  # the all-composite widths 2 .. run
        if run < max_n:
            continue
        inside = tuple(x for x, q in enumerate(tops[m : m + max_n], m + 1) if q <= max_n)
        if inside:
            fallback.append((m, inside))
        elif not construct_representation(Window(m, max_n)).all_factors_nontrivial:
            raise InternalContradiction(f"trivial part on an H({max_n})-free window at m={m}")
    return SmallWindowReport(
        m_max=m_max,
        max_n=max_n,
        windows_checked=checked,
        failures=[(c.m, c.n) for c in scan_counterexamples((1, m_max), (2, max_n))],
        fallback_windows=fallback,
    )


def conjecture1_probe(w: Window) -> RepresentationDecision:
    """The Conjecture 1 test for one window; requires all elements composite.

    prod(m+i) = n! * prod(a_i) under the part constraints is exactly the
    coprime representation of C(m+n, n), so this delegates after enforcing
    the compositeness precondition.
    """
    for x in w.values():
        if x < 4 or is_prime(x):
            raise ValueError(f"window element {x} is not composite")
    return exact_representation_exists(w)


@dataclass(frozen=True)
class IntervalProbe:
    """One prime-presence clause over an interval with explicit openness."""

    lo: int
    hi: int
    lo_open: bool
    hi_open: bool
    prime: int | None

    @property
    def ok(self) -> bool:
        return self.prime is not None


@dataclass(frozen=True)
class DivisorProbe:
    """Probe record for one divisor d of a prime-block product."""

    n: int
    d: int
    q: int
    clauses: tuple[IntervalProbe, ...]
    vacuous: bool = False

    @property
    def ok(self) -> bool:
        return self.vacuous or all(c.ok for c in self.clauses)


def _find_prime(lo: int, hi: int, lo_open: bool, hi_open: bool) -> IntervalProbe:
    start = lo + 1 if lo_open else lo
    count = max(0, (hi - 1 if hi_open else hi) - start + 1)
    # Sieving primes below the interval length: each strikes at least one
    # value, and deeper ones cost more mods than the tests they would save
    # at the sizes these probes reach.
    prime = first_prime(start, count, range(count), depth=count)
    return IntervalProbe(lo=lo, hi=hi, lo_open=lo_open, hi_open=hi_open, prime=prime)


def _block_divisors(primes: list[int], budget: int | None, seed: int):
    """Nonempty subsets of the prime block, as (least prime, product) pairs.

    Exhaustive (ascending product count order by subset size) when the
    block is small; otherwise `budget` random subsets from a seeded
    generator.
    """
    k = len(primes)
    if budget is None:
        if k > SUBSET_GUARD:
            raise ValueError(
                f"{k} primes in the block, beyond the subset guard"
                f" SUBSET_GUARD = {SUBSET_GUARD}; pass a divisor budget"
            )
        for size in range(1, k + 1):
            for sub in itertools.combinations(primes, size):
                d = math.prod(sub)
                yield sub[0], d
    else:
        rng = random.Random(seed)
        for _ in range(budget):
            size = rng.randint(1, k)
            sub = sorted(rng.sample(primes, size))
            yield sub[0], math.prod(sub)


def conjecture2_i(
    n: int, divisor_budget: int | None = None, seed: int = 0
) -> list[DivisorProbe]:
    """Probe clause (i) for every divisor (or a budgeted sample) at this n.

    For d | prod of primes in (n, 2n), d > 1, q = least prime factor of d:
    a prime must appear in (d-n, d+n] and in (d-q, d+q).  Failures are
    returned in the probe records, never raised.
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    sieve = default_sieve(2 * n)
    block = sieve.primes_between(n, 2 * n)
    out = []
    for q, d in _block_divisors(block, divisor_budget, seed):
        clauses = (
            _find_prime(d - n, d + n, lo_open=True, hi_open=False),
            _find_prime(d - q, d + q, lo_open=True, hi_open=True),
        )
        out.append(DivisorProbe(n=n, d=d, q=q, clauses=clauses))
    return out


def conjecture2_ii(
    n: int, divisor_budget: int | None = None, seed: int = 0
) -> list[DivisorProbe]:
    """Probe clause (ii) for squarefree divisors of the (n/2, n) prime block.

    d = nt + r with t = floor((d-1)/n), the unique split with 1 <= r <= n.
    The clause only speaks when d is coprime to every other element of its
    block nt+1 .. nt+n; otherwise the probe is recorded as vacuous.
    """
    if n < 3:
        raise ValueError("defined for n >= 3")
    sieve = default_sieve(n)
    block = [p for p in sieve.primes_between(n // 2 - 1, n) if 2 * p > n]
    out = []
    for q, d in _block_divisors(block, divisor_budget, seed):
        t = (d - 1) // n
        r = d - n * t
        coprime = all(
            math.gcd(d, n * t + j) == 1 for j in range(1, n + 1) if j != r
        )
        if not coprime:
            out.append(DivisorProbe(n=n, d=d, q=q, clauses=(), vacuous=True))
            continue
        clause = _find_prime(n * t + 1, n * t + n, lo_open=False, hi_open=False)
        out.append(DivisorProbe(n=n, d=d, q=q, clauses=(clause,)))
    return out


@dataclass(frozen=True)
class CramerGapRecord:
    """The comparison 2q < (ln(d-q))^2 for the full (n, 2n) prime block.

    d is the exact product of the block, q its least prime.  `holds` is
    None when d = q leaves the logarithm undefined.  A true comparison
    says clause (i) at this d needs a prime in a gap narrower than even
    squared-log spacing guarantees.
    """

    n: int
    q: int
    d: int
    lhs: float
    rhs: float | None
    holds: bool | None


def cramer_gap_report(n: int) -> CramerGapRecord:
    if n < 2:
        raise ValueError("defined for n >= 2")
    sieve = default_sieve(2 * n)
    block = sieve.primes_between(n, 2 * n)
    q = block[0]
    d = math.prod(block)
    if d - q <= 0:
        return CramerGapRecord(n=n, q=q, d=d, lhs=2.0 * q, rhs=None, holds=None)
    # math.log is exact to a few ulp on arbitrary-size ints, far inside
    # the 1e-9 relative error this comparison needs.
    rhs = math.log(d - q) ** 2
    return CramerGapRecord(n=n, q=q, d=d, lhs=2.0 * q, rhs=rhs, holds=2 * q < rhs)


def cramer_gap_scan(n_lo: int, n_hi: int) -> tuple[list[CramerGapRecord], int | None]:
    """Records for n_lo..n_hi plus the least n from which the comparison
    holds through the end of the range (None if it never settles)."""
    records = [cramer_gap_report(n) for n in range(n_lo, n_hi + 1)]
    least = None
    for rec in reversed(records):
        if rec.holds:
            least = rec.n
        else:
            break
    return records, least
