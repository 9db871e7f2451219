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

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from .arith import (
    BLOCK_SPAN,
    InternalContradiction,
    Window,
    _check_sieve_limit,
    _product,
    _vp_binomial,
    band_primes,
    default_sieve,
    first_prime,
    is_prime,
    largest_prime_factors,
    largest_prime_power,
)
from .assign import (
    RepresentationDecision,
    _check_column,
    _settle_grimm,
    exact_representation_exists,
    scan_counterexamples,
)

SUBSET_GUARD = 20  # probe every divisor only when the prime block has <= this many primes


@dataclass(frozen=True)
class CompositeRun:
    """A maximal block of consecutive composites (bounded by primes)."""

    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length - 1


def _gap_blocks(limit: int, min_len: int) -> list[tuple[int, int]]:
    """The value blocks [lo, hi) that together hold the primes 2 .. limit,
    each BLOCK_SPAN wide but the last; a limit above SIEVE_GUARD is refused."""
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    _check_sieve_limit(limit)
    return [(lo, min(lo + BLOCK_SPAN, limit + 1)) for lo in range(2, limit + 1, BLOCK_SPAN)]


def _block_gaps(lo: int, hi: int, limit: int, min_len: int) -> list[tuple[int, int]]:
    """(p, q - p - 1) for consecutive primes p < q with lo <= p < hi and
    q <= limit + 1, when q - p > min_len: the maximal runs p+1 .. q-1 of at
    least min_len composites within [2, limit] that start in the block."""
    ps = band_primes(lo, hi)
    # The block's last run closes at the first prime from hi on, so it is
    # maximal within the limit only when that prime is at most limit + 1.
    for ahead in range(hi, limit + 2, 64):
        closing = band_primes(ahead, min(ahead + 64, limit + 2))
        if closing:
            ps.append(closing[0])
            break
    return [(p, q - p - 1) for p, q in zip(ps, ps[1:]) if q - p > min_len]


def enumerate_composite_runs(limit: int, min_len: int = 1) -> list[CompositeRun]:
    """Maximal composite runs whose elements all lie within [2, limit].

    Maximality at the right edge is decided by looking one past the limit,
    so a run ending exactly at `limit` is included when limit+1 is prime.
    """
    return [
        CompositeRun(start=m + 1, length=n)
        for block in _gap_blocks(limit, min_len)
        for m, n in _block_gaps(*block, limit, min_len)
    ]


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


def _grimm_chunk(windows: list[tuple[int, int]]) -> list[GrimmFailure]:
    m0 = windows[0][0]
    span = sum(windows[-1]) - m0
    tops = largest_prime_factors(m0 + 1, m0 + span)
    if len(tops) != span:
        raise InternalContradiction(
            f"largest-prime-factor column from {m0 + 1} has {len(tops)} entries, not {span}"
        )
    _check_column(m0 + 1, tops)
    out = []
    for m, n in windows:
        col = tops[m - m0 : m - m0 + n]
        # n checked primes, one per element, are an assignment when distinct,
        # as they are when all are >= n: such a prime divides at most one of
        # n consecutive integers.
        if min(col) >= n or len(set(col)) == n:
            continue
        stuck = _settle_grimm(Window(m, n), col)
        if isinstance(stuck, int):
            out.append(GrimmFailure(m=m, n=n, reason=f"no distinct prime for {m + stuck}"))
    return out


def _grimm_block(
    block: tuple[int, int], limit: int, min_len: int
) -> tuple[int, list[GrimmFailure]]:
    """The number of runs that start in the value block, and their failures."""
    windows = _block_gaps(*block, limit, min_len)
    return len(windows), _grimm_chunk(windows) if windows else []


def map_blocks(fn, blocks: list, workers: int) -> list:
    """[fn(block) for block in blocks]: in-process, or in a pool of at most
    one worker per block."""
    if workers <= 1 or len(blocks) <= 1:
        return list(map(fn, blocks))
    import multiprocessing  # only here: most runs never start a pool

    with multiprocessing.Pool(min(workers, len(blocks))) as pool:
        return pool.map(fn, blocks)


def verify_grimm_range(limit: int, min_len: int = 1, workers: int = 1) -> VerificationReport:
    """Check the distinct-prime assignment on every maximal composite run
    within the limit.

    An assignment for a maximal run restricts to every sub-window, so runs
    are the only windows that need checking.  [2, limit] is cut into value
    blocks of BLOCK_SPAN integers; each block reads its own primes, builds
    the runs that start in it (the last one closes at the first prime past
    the block, and at the limit only when limit + 1 is prime), and checks
    them with one largest-prime-factor column over their span, at most
    BLOCK_SPAN plus one prime gap.  A run whose n entries are distinct is
    settled by them: each is a checked prime dividing its element.  Only a
    run where two elements share their largest prime factor goes to
    _settle_grimm.  No list of all the runs is built, so memory is the
    sieve's plus one block.  The column and its check read the shared sieve,
    so it is grown to the limit here, before any worker forks.  The blocks
    do not depend on the worker count, and neither does the report content.
    """
    t0 = time.monotonic()
    blocks = _gap_blocks(limit, min_len)
    default_sieve(limit)
    check = functools.partial(_grimm_block, limit=limit, min_len=min_len)
    pieces = map_blocks(check, blocks, workers)
    return VerificationReport(
        range_limit=limit,
        windows_checked=sum(count for count, _ in pieces),
        failures=[f for _, failures in pieces for f in failures],
        elapsed=time.monotonic() - t0,
        worker_count=workers,
    )


@dataclass
class SmallWindowReport:
    """Exhaustive small-length check below the representation threshold.

    Every all-composite window with 2 <= n <= max_n and m <= m_max must
    admit the full representation.  The failures are decided by
    scan_counterexamples.  A width-max_n window whose elements all avoid
    H(max_n) has it by the threshold argument: each element's L(x) > max_n
    is checked by largest_prime_power (_witness), and its prime, the
    witness, by floor sums (_checked_witness).  The width-max_n
    windows that meet H(max_n) are listed with their members
    (`fallback_windows`), and scan decides them.
    """

    m_max: int
    max_n: int
    windows_checked: int
    failures: list[tuple[int, int]]
    fallback_windows: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _windows_in_run(k: int, max_n: int) -> int:
    """The windows of widths 2 .. max_n inside k consecutive integers."""
    t = min(max(k, 1), max_n)
    return (t - 1) * (2 * k - t) // 2


def _witness(x: int, n: int) -> tuple[int, int] | None:
    """(p, v) with p^v = L(x) checked by largest_prime_power, if L(x) > n;
    None for x in H(n), a prime <= n, or x < 2.  No window enters, so a walk
    finds it once per element."""
    p, v = largest_prime_power(x) if x >= 2 else (1, 0)
    return (p, v) if p**v > n else None


def _checked_witness(w: Window, x: int, found: tuple[int, int] | None) -> int | None:
    """The prime p of found = _witness(x, w.n), once its exponent in
    C(m+n, n) is checked by floor sums to lie in [1, v_p(x)].

    Since p^v_p(x) > n, x is the window's unique valuation maximum at p,
    which pins that exponent there; a value outside it raises
    InternalContradiction.
    """
    if found is None:
        return None
    p, v = found
    e = _vp_binomial(p, w.m, w.n)
    if not 1 <= e <= v:
        raise InternalContradiction(
            f"witness {p} at {x}: coefficient valuation {e} outside [1, {v}]")
    return p


def verify_small_windows(m_max: int = 420, max_n: int = 7) -> SmallWindowReport:
    """The failures are those of scan_counterexamples on m <= m_max, 2 <= n <= max_n.

    One pass over verify's gaps of k = q - p - 1 composites between primes
    p < q, p <= m_max (q <= 2 * m_max by Bertrand): the rows m = p .. q - 1 have
    the q - m - 1 composites p + 1 .. q - 1 ahead of them, so the gap is
    counted in closed form, and only its full-width windows are visited.
    Every element factored here and in the scan is at most m_max + max_n,
    so the shared sieve is grown past it: each factorization is then table
    lookups, not trial division and rho.
    """
    if m_max < 1 or max_n < 1:
        raise ValueError(f"need m_max >= 1 and max_n >= 1, got m_max={m_max}, max_n={max_n}")
    default_sieve(m_max + max_n + 1)
    checked = 0
    fallback = []
    gaps = (gap for block in _gap_blocks(m_max, 1) for gap in _block_gaps(*block, 2 * m_max + 2, 1))
    for p, k in gaps:
        # The windows in the gap's k composites, less those starting past m_max:
        # those lie within its last p + k - m_max - 1 composites.
        checked += _windows_in_run(k, max_n) - _windows_in_run(p + k - m_max - 1, max_n)
        top = min(p + k - max_n, m_max)
        found = {x: _witness(x, max_n) for x in range(p + 1, top + max_n + 1)} if top >= p else {}
        for m in range(p, top + 1):
            w = Window(m, max_n)
            inside = tuple(x for x in w.values() if _checked_witness(w, x, found[x]) is None)
            if inside:
                fallback.append((m, inside))
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


def _check_block_size(k: int) -> None:
    if k > SUBSET_GUARD:
        raise ValueError(
            f"{k} primes in the block, beyond the subset guard"
            f" SUBSET_GUARD = {SUBSET_GUARD}; pass a divisor budget"
        )


def _block_divisors(primes: list[int], budget: int | None, seed: int):
    """Nonempty subsets of the prime block, as (least prime, product) pairs.

    Exhaustive (ascending product count order by subset size) when the
    block is small; otherwise `budget` random subsets from a seeded
    generator.
    """
    k = len(primes)
    if budget is None:
        _check_block_size(k)
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


def _band(lo: int, hi: int) -> list[int]:
    """band_primes(lo, hi), refused as the sieve up to hi that it stands in for is."""
    _check_sieve_limit(hi)
    return band_primes(lo, hi)


def _block_i(n: int) -> list[int]:
    """The primes in (n, 2n), the block of clause (i)."""
    if n < 2:
        raise ValueError("defined for n >= 2")
    return _band(n + 1, 2 * n)


def _block_ii(n: int) -> list[int]:
    """The primes in (n/2, n), the block of clause (ii)."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    return _band(n // 2 + 1, n)


def _check_subset_guard(block: Callable[[int], list[int]], n_lo: int, n_hi: int) -> None:
    """Make, for n = n_lo .. n_hi in turn, the checks an exhaustive probe of
    the clause whose prime block is block(n) makes before its first divisor:
    n in range, the block within SIEVE_GUARD and of at most SUBSET_GUARD
    primes.  The first n that fails raises that probe's error, before any
    probe has run."""
    for n in range(n_lo, n_hi + 1):
        _check_block_size(len(block(n)))


def conjecture2_i(
    n: int, divisor_budget: int | None = None, seed: int = 0
) -> list[DivisorProbe]:
    """Probe clause (i) for every divisor (or a budgeted sample) at this n.

    For d | prod of primes in (n, 2n), d > 1, q = least prime factor of d:
    a prime must appear in (d-n, d+n] and in (d-q, d+q).  Failures are
    returned in the probe records, never raised.
    """
    out = []
    for q, d in _block_divisors(_block_i(n), divisor_budget, seed):
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

    Each prime p of d lies in (n/2, n), so 2p > n and the only other
    multiples of p that can fall in the block are d - p and d + p, at r - p
    and r + p.  d is therefore coprime to the rest of the block exactly
    when every such p, and so its least prime q, has p >= r and
    p >= n + 1 - r.
    """
    out = []
    for q, d in _block_divisors(_block_ii(n), divisor_budget, seed):
        t = (d - 1) // n
        r = d - n * t
        if q < max(r, n + 1 - r):
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
    block = _block_i(n)
    q = block[0]
    d = _product(block)
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
