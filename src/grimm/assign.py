"""Matching-based decision procedures over windows of consecutive integers.

Two questions, in increasing strength, for the window m+1 .. m+n:

  * grimm_assignment -- are there n distinct primes p_1..p_n with
    p_j | (m+j)?  (The assignment Grimm's conjecture asks for on
    all-composite windows.)
  * exact_representation_exists -- can C(m+n, n) be written as a product
    of pairwise-coprime parts a_i | (m+i), every part > 1?

Both reduce to bipartite matchings that must saturate the index side.
g_of_m and w_of_m extend them to "largest workable n", and
scan_counterexamples sweeps a rectangle for all-composite windows where
the strong form fails.  Those two settle a window in this order: without
any walk when its elements all carry a prime power > n (the H(n) lemma);
else, walking each remaining row m once, by its canonical representation
when every part is > 1; else by that representation with one prime moved
onto each part equal to 1; and only the rest by _decide, which blocks a
window at an index with no admissible prime before it runs the matching.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from itertools import accumulate, chain

from .arith import (
    FACTORIZATION_BOUND,
    Window,
    _vp_binomial,
    all_prime,
    band_primes,
    factorize,
    largest_prime_factors,
    largest_prime_power,
    prime_divisors,
)
from .coprime import (
    CanonicalRow,
    CoprimeRepresentation,
    InternalContradiction,
    verify_representation,
)
from .matching import augment, max_matching
from .smooth import hn_segments


@dataclass(frozen=True)
class GrimmAssignment:
    """Distinct primes p_1..p_n with p_j dividing m+j."""

    window: Window
    primes: tuple[int, ...]


@dataclass(frozen=True)
class BlockedIndex:
    """Why one window element cannot receive any prime of the coefficient.

    reasons lists (prime, needed_exponent, available_exponent) for every
    prime dividing the element; needed_exponent 0 means the prime does not
    divide the coefficient at all.
    """

    index: int
    value: int
    reasons: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class RepresentationDecision:
    """Outcome of the exact-representation test, with certificate or blocker."""

    window: Window
    feasible: bool
    certificate: CoprimeRepresentation | None
    blocking: BlockedIndex | None

    def __bool__(self) -> bool:
        return self.feasible


def _check_column(lo: int, tops: list[int]) -> None:
    """Raise InternalContradiction unless each tops[k] is a prime dividing lo + k.

    all_prime refuses entries below 2, so no remainder by 0 is taken.
    """
    if not all_prime(tops) or any(map(operator.mod, range(lo, lo + len(tops)), tops)):
        raise InternalContradiction(f"bad largest-prime-factor column from {lo}")


def _settle_grimm(w: Window, tops: list[int]) -> GrimmAssignment | int:
    """The checked assignment for the window, or the index it is stuck at.

    tops holds P(m+1) .. P(m+n), the largest prime factor of each element,
    as checked by _check_column.  A prime p >= n divides at most one of n
    consecutive integers, so an element whose largest prime factor is >= n
    takes that prime.  Only the n-smooth rest is walked for its primes, all
    below n; each gets one augmenting search in index order, and the first
    that fails is the stuck index once a Hall violator confirms it
    (_hall_checked).  The assignment is then checked (_checked_assignment).
    """
    residual = {i: prime_divisors(w.m + i) for i, top in enumerate(tops, 1) if top < w.n}
    pair_r: dict[int, int] = {}
    for i in residual:
        if not augment(residual, pair_r, i):
            return _hall_checked(w.m, residual, pair_r, i)
    return _checked_assignment(w, list(tops), pair_r)


def _hall_checked(m: int, adj: dict[int, list[int]], pair_r: dict[int, int], i: int) -> int:
    """i, the index where augment failed, once a Hall violator confirms it.

    S is the set of indices that alternating paths reach from i, and C the
    union of their listed primes.  Each m + j of S must divide out to 1 by
    its own listed primes, so C holds every prime of S's elements; C must
    be all prime and smaller than S.  Then no distinct primes exist for S,
    whatever the matcher did.
    """
    hall = _alternating_reach(adj, [(j, p) for p, j in pair_r.items()], {i})
    primes = sorted({p for j in hall for p in adj[j]})
    # all_prime refuses entries below 2, so each division below ends.
    if not (len(primes) < len(hall) and all_prime(primes)):
        raise InternalContradiction(f"failed augment without a Hall violator at {m + i}")
    for j in hall:
        x = m + j
        for p in adj[j]:
            while x % p == 0:
                x //= p
        if x != 1:
            raise InternalContradiction(f"{m + j} has a prime not in {adj[j]}")
    return i


def _checked_assignment(w: Window, primes: list[int], pair_r: dict[int, int]) -> GrimmAssignment:
    """primes, with each matched prime p of pair_r at its index pair_r[p], as
    the window's assignment, once checked apart from how it was built: each
    prime divides its element, is prime, and is distinct."""
    for p, i in pair_r.items():
        primes[i - 1] = p
    divides = not any(map(operator.mod, w.values(), primes))
    if not (divides and len(set(primes)) == w.n and all_prime(primes)):
        raise InternalContradiction(f"invalid Grimm assignment {primes} at {w}")
    return GrimmAssignment(window=w, primes=tuple(primes))


def grimm_assignment(w: Window) -> GrimmAssignment | None:
    """A distinct-prime assignment for the window, or None if none exists."""
    if w.m < 1:
        raise ValueError("window base must be >= 1")
    tops = largest_prime_factors(w.m + 1, w.last)
    _check_column(w.m + 1, tops)
    settled = _settle_grimm(w, tops)
    return None if isinstance(settled, int) else settled


def _blocked(row: CanonicalRow, exps: dict[int, int], index: int) -> RepresentationDecision:
    """The infeasible decision for the row's window, blocked at index."""
    reasons = tuple((p, exps.get(p, 0), v) for p, v in row.factors[index - 1].items())
    return RepresentationDecision(
        window=Window(row.m, row.n),
        feasible=False,
        certificate=None,
        blocking=BlockedIndex(index=index, value=row.m + index, reasons=reasons),
    )


def _decide(row: CanonicalRow) -> RepresentationDecision:
    """The exact-representation decision for the row's current window.

    Edge (i, p) iff the element m+i can absorb the full power p^(e_p) of
    the coefficient, i.e. v_p(m+i) >= e_p; indices are taken in order and
    primes ascending, so the matching is deterministic.
    """
    w = Window(row.m, row.n)
    exps = row.exponents()
    adj = {
        i: [p for p, v in element.items() if 0 < exps.get(p, 0) <= v]
        for i, element in enumerate(row.factors, 1)
    }
    first = {p: i for i in reversed(adj) for p in adj[i]}  # smallest admissible index
    for p in exps:
        if p not in first:
            raise InternalContradiction(f"prime {p} has no admissible index in {w}")
    empty = next((i for i, ps in adj.items() if not ps), None)
    if empty is not None:
        # An index with no admissible prime blocks every matching: no
        # matching is run, and the verdict is recounted apart from the row.
        if _recounted(w, [empty]):
            raise InternalContradiction(f"{w.m + empty} has an admissible prime in {w}")
        return _blocked(row, exps, empty)
    matching = max_matching(adj)
    if len(matching) < w.n:
        unmatched = set(adj) - {i for i, _ in matching}
        hall = _alternating_reach(adj, matching, unmatched)
        if len(_recounted(w, hall)) >= len(hall):
            raise InternalContradiction(f"short matching without a Hall violator at {w}")
        return _blocked(row, exps, min(unmatched))
    factors = [1] * w.n
    taken = {p: i for i, p in matching}
    assignment = []
    for p, e in exps.items():
        # Unmatched primes drop to their smallest admissible index.
        i = taken.get(p, first[p])
        factors[i - 1] *= p**e
        assignment.append((p, e, i))
    cert = CoprimeRepresentation(window=w, factors=tuple(factors), assignment=tuple(assignment))
    if not (cert.all_factors_nontrivial and verify_representation(cert)):
        raise InternalContradiction(f"saturating matching gave a bad certificate at {w}")
    return RepresentationDecision(window=w, feasible=True, certificate=cert, blocking=None)


def _alternating_reach(
    adj: dict[int, list[int]], matching: list[tuple[int, int]], unmatched: set[int]
) -> set[int]:
    """The indices that alternating paths reach from the unmatched ones: an
    edge to an admissible prime, then that prime's matched edge back (the
    König step).  For a maximum matching they form a Hall violator S, whose
    admissible primes are all matched into S, fewer than |S|."""
    owner = {p: i for i, p in matching}
    reached = set(unmatched)
    stack = list(unmatched)
    while stack:
        for p in adj[stack.pop()]:
            i = owner.get(p)
            if i is not None and i not in reached:
                reached.add(i)
                stack.append(i)
    return reached


def _recounted(w: Window, indices) -> set[int]:
    """The admissible primes of the window's indices, recounted apart from
    the row: from factorize(m + i) and the floor sums of v_p(C(m+n, n))."""
    return {p for i in indices for p, v in factorize(w.m + i).items()
            if 0 < _vp_binomial(p, w.m, w.n) <= v}


def exact_representation_exists(w: Window) -> RepresentationDecision:
    """Decide whether C(m+n, n) splits into coprime parts a_i | (m+i), all > 1.

    Feasible iff the admissibility matching saturates every index: each
    index takes its matched prime's full power, remaining primes fall to
    their smallest admissible index, which yields a verified certificate.
    Infeasible outcomes report the smallest unsaturated index (preferring
    one with no admissible prime at all, where the obstruction is local).
    The exponents and element factorizations come from one CanonicalRow
    walk over the window.
    """
    if w.m < 1:
        raise ValueError("window base must be >= 1")
    return _decide(CanonicalRow(w.m, w.n))


@dataclass(frozen=True)
class LargestN:
    """Result of a largest-workable-n search up to a cap."""

    m: int
    cap: int
    value: int
    cap_hit: bool
    feasible: tuple[bool, ...] = ()


def g_of_m(m: int, cap: int | None = None) -> LargestN:
    """Largest n <= cap admitting a distinct-prime assignment.

    A failed window stays failed when extended (its deficient index set
    persists), so the scan stops at the first failure, once a Hall violator
    confirms it (_hall_checked); the matching is grown one index at a time,
    and the last one is checked as an assignment (_checked_assignment).
    cap defaults to 2m and may not exceed it, the window there containing
    two powers of 2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if cap is None:
        cap = 2 * m
    if not 1 <= cap <= 2 * m:
        raise ValueError(f"cap must lie in [1, 2m] = [1, {2 * m}]")
    adj: dict[int, list[int]] = {}
    pair_r: dict[int, int] = {}
    value = 0
    for n in range(1, cap + 1):
        adj[n] = prime_divisors(m + n)
        if not augment(adj, pair_r, n):
            _hall_checked(m, adj, pair_r, n)
            break
        value = n
    # value 0 is no answer (m + 1 >= 2 has a prime), and fails as a window of one 1.
    _checked_assignment(Window(m, max(value, 1)), [1] * max(value, 1), pair_r)
    return LargestN(m=m, cap=cap, value=value, cap_hit=value == cap)


def _walk(m: int, start: int, n_hi: int, known: dict[int, dict[int, int]]):
    """(n, blocking evidence or None if feasible) for n = start .. n_hi.

    The row's canonical representations start at width start - 1, built in
    one pass, and grow one element at a time, reading and adding element
    factorizations in known.  Each window is settled by the first of these
    that applies:

      1. its canonical parts are all > 1: feasible once the certificate
         passes verify_representation;
      2. one admissible prime moved onto each part equal to 1 (_one_move):
         feasible once the moved certificate passes the same check;
      3. _decide on the same row, which runs the matching unless an index
         has no admissible prime, and supplies the blocking evidence.
    """
    row = CanonicalRow(m, start - 1, known)
    for n in range(start, n_hi + 1):
        row.extend()
        rep = row.representation()
        if rep.all_factors_nontrivial:
            if not verify_representation(rep):
                raise InternalContradiction(f"canonical certificate fails at {rep.window}")
            yield n, None
        elif _one_move(row, rep) is not None:
            yield n, None
        else:
            yield n, _decide(row).blocking


def _one_move(row: CanonicalRow, rep: CoprimeRepresentation) -> CoprimeRepresentation | None:
    """The canonical representation rep of the row's window with one prime
    moved onto each part equal to 1, checked; None if some such part has no
    move.

    The parts equal to 1 are taken in ascending index order.  Each takes the
    first admissible prime p of its element, ascending, whose part holds
    another prime as well (is more than p^(e_p)): p^(e_p) divides the
    element, and the part it leaves stays > 1.  The moved certificate must
    pass verify_representation.
    """
    factors = list(rep.factors)
    assignment = list(rep.assignment)
    slot = {p: k for k, (p, _, _) in enumerate(assignment)}
    for i, element in enumerate(row.factors, 1):
        if factors[i - 1] > 1:
            continue
        for p, v in element.items():
            k = slot.get(p)
            if k is not None:
                _, e, j = assignment[k]
                q = p**e
                if e <= v and factors[j - 1] > q:
                    break
        else:
            return None
        assignment[k] = (p, e, i)
        factors[j - 1] //= q
        factors[i - 1] = q
    cert = CoprimeRepresentation(
        window=rep.window, factors=tuple(factors), assignment=tuple(assignment)
    )
    if not (cert.all_factors_nontrivial and verify_representation(cert)):
        raise InternalContradiction(
            f"canonical certificate fails at {cert.window} after one move per part of 1"
        )
    return cert


W_CAP_GUARD = 10_000


def w_of_m(m: int, cap: int) -> LargestN:
    """Largest n <= cap with a full coprime representation, plus the whole
    feasibility bitmap.

    Unlike the distinct-prime case, failure is not known to persist as n
    grows, so every n gets its own decision (no early exit); the cap is
    bounded to keep one call's runtime sane.  Every width n below the row's
    first open width n0, the least max(i, L(m+i)), is feasible by the H(n)
    lemma: each m+i then carries a prime power L(m+i) > n (checked by
    arith.largest_prime_power), which divides no other element, so its
    canonical part is > 1.  L(m+i) is read only while i is below the least
    value found so far; from n0 on the row is walked (_walk), as in
    scan_counterexamples.
    """
    if m < 1 or cap < 1:
        raise ValueError("need m >= 1 and cap >= 1")
    if cap > W_CAP_GUARD:
        raise ValueError(f"cap {cap} beyond the runtime guard W_CAP_GUARD = {W_CAP_GUARD}")
    n0, i = cap + 1, 1
    while i < n0:
        n0 = min(n0, max(i, pow(*largest_prime_power(m + i))))
        i += 1
    walked = _walk(m, n0, cap, {}) if n0 <= cap else ()
    bitmap = (True,) * (n0 - 1) + tuple(blocking is None for _, blocking in walked)
    value = max((n for n in range(1, cap + 1) if bitmap[n - 1]), default=0)
    return LargestN(m=m, cap=cap, value=value, cap_hit=value == cap, feasible=bitmap)


@dataclass(frozen=True)
class Counterexample:
    """An all-composite window whose exact representation fails."""

    m: int
    n: int
    blocking_value: int


def _listed(n: int, lo: int, bound: int) -> dict[int, int]:
    """{x: L(x)} for lo < x <= bound in H(n), or prime and <= n: the x that
    the H(n) lemma leaves open at width n, with L(x) <= n checked by
    largest_prime_power; an x that fails it raises InternalContradiction."""
    members = chain.from_iterable(hn_segments(n, bound))
    tops = {x: pow(*largest_prime_power(x))
            for x in chain(band_primes(2, n + 1), members) if x > lo}
    if max(tops.values(), default=0) > n:
        raise InternalContradiction(f"bad enumeration of H({n}) up to {bound}")
    return tops


def scan_counterexamples(
    m_range: tuple[int, int], n_range: tuple[int, int]
) -> list[Counterexample]:
    """All-composite windows in the rectangle failing the exact representation.

    Complete over m in m_range, n in n_range (inclusive bounds), ordered by
    (m, n).  The H(n) lemma leaves a window open only if it holds an x with
    L(x) <= n_max (L checked by largest_prime_power), a member of H(n_max)
    or a prime <= n_max, so only the rows x - n_max <= m < x of these x
    (_listed) are looked at.  Such a row is walked only if its window of its
    first open width n0 holds no prime, from max(n_min, n0) up to the next
    prime that band_primes finds for its run of rows; the rows of a run
    share their element factorizations.
    A rectangle whose largest element, min(m_max, lcm(1..n_max)) + n_max, reaches
    FACTORIZATION_BOUND is refused before any row is decided.
    """
    m_lo, m_hi = m_range
    n_lo, n_hi = n_range
    if m_lo < 1 or n_lo < 0:
        raise ValueError("rectangle must start at m >= 1, n >= 0")
    # Bertrand: a window with n >= m holds a prime in (m, 2m], so no
    # all-composite window of the rectangle is wider than m_hi.
    n_hi = min(n_hi, m_hi)
    # A window of one composite is its own part > 1.
    if m_hi < m_lo or n_hi < n_lo or n_hi < 2:
        return []
    bound = m_hi + n_hi
    # lcm(1..n_hi), the largest member of H(n_hi), or the first partial lcm past the bound.
    lcm = next((q for q in accumulate(range(1, n_hi + 1), math.lcm) if q > bound), None)
    lcm = lcm or math.lcm(*range(1, n_hi + 1))
    if min(m_hi, lcm) + n_hi >= FACTORIZATION_BOUND:
        raise ValueError(f"scan elements reach FACTORIZATION_BOUND = {FACTORIZATION_BOUND}")
    tops = _listed(n_hi, m_lo, bound)
    # The listed x, cut where one lies more than n_hi past the one before:
    # each run's rows x - n_hi <= m < x are consecutive.
    runs: list[list[int]] = []
    for x in sorted(tops):
        if runs and x - runs[-1][-1] <= n_hi:
            runs[-1].append(x)
        else:
            runs.append([x])
    out = []
    for xs in runs:
        lo, end = max(m_lo, xs[0] - n_hi), xs[-1] + n_hi
        # The run's primes, then end, where no window of the run reaches.
        primes = band_primes(lo + 1, end) + [end]
        # first[m], row m's first open width n0 (as in w_of_m): the least
        # max(x - m, L(x)) over its listed x.  Only rows whose window of that
        # width holds no prime are kept: q <= m < p - L(x) for the primes
        # q <= x < p next to x.
        first: dict[int, int] = {}
        for x in xs:
            k = bisect.bisect_right(primes, x)
            top = tops[x]
            for m in range(max(lo, x - n_hi, primes[k - 1] if k else lo),
                           min(m_hi, x - 1, primes[k] - top - 1) + 1):
                n = x - m if x - m > top else top
                if n < first.get(m, n_hi + 1):
                    first[m] = n
        known: dict[int, dict[int, int]] = {}  # the run's element factorizations
        for m in sorted(first):
            start = max(n_lo, first[m])
            width = min(n_hi, primes[bisect.bisect_right(primes, m)] - m - 1)
            if start <= width:
                for n, blocking in _walk(m, start, width, known):
                    if blocking is not None:
                        out.append(Counterexample(m=m, n=n, blocking_value=blocking.value))
    return out
