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
the strong form fails.  Those two walk each row m once: a window whose
canonical representation has every part > 1 is settled by it, and only
the rest reach the matching.
"""

from __future__ import annotations

import multiprocessing
import operator
from dataclasses import dataclass

from .arith import Window, _vp, all_prime, default_sieve, factorize, prime_divisors
from .coprime import (
    CanonicalRow,
    CoprimeRepresentation,
    InternalContradiction,
    verify_representation,
    window_prime_exponents,
)
from .matching import MatchingInstance, augment, max_matching


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


def _settle_grimm(w: Window) -> GrimmAssignment | int:
    """The checked assignment for the window, or the index it is stuck at.

    A prime p >= n divides at most one of n consecutive integers, so an
    element whose largest prime factor is >= n takes that prime.  The
    n-smooth rest can only use primes below n; each gets one augmenting
    search in index order, and the first that fails is the stuck index.
    The result is checked apart from how it was built.
    """
    if w.m < 1:
        raise ValueError("window base must be >= 1")
    divisors = list(map(prime_divisors, w.values()))
    primes = [ps[-1] for ps in divisors]
    residual = {i: ps for i, ps in enumerate(divisors, 1) if ps[-1] < w.n}
    pair_r: dict[int, int] = {}
    for i in residual:
        if not augment(residual, pair_r, i):
            return i
    for p, i in pair_r.items():
        primes[i - 1] = p
    divides = not any(map(operator.mod, w.values(), primes))
    if not (divides and len(set(primes)) == w.n and all_prime(primes)):
        raise InternalContradiction(f"invalid Grimm assignment {primes} at {w}")
    return GrimmAssignment(window=w, primes=tuple(primes))


def grimm_assignment(w: Window) -> GrimmAssignment | None:
    """A distinct-prime assignment for the window, or None if none exists."""
    settled = _settle_grimm(w)
    return None if isinstance(settled, int) else settled


def representation_instance(
    w: Window,
) -> tuple[MatchingInstance, dict[int, int]]:
    """The admissibility graph behind the exact-representation test.

    Edge (i, p) iff the element m+i can absorb the full power p^(e_p) of
    the coefficient, i.e. v_p(m+i) >= e_p.  Only primes with e_p > 0
    participate; every such prime has at least one admissible index.
    """
    exps = window_prime_exponents(w)
    m = w.m
    adj: dict[int, list[int]] = {i: [] for i in range(1, w.n + 1)}
    for p, e in exps.items():
        hit = False
        first = m + 1 + (-(m + 1)) % p
        for x in range(first, m + w.n + 1, p):
            if _vp(p, x) >= e:
                adj[x - m].append(p)
                hit = True
        if not hit:
            raise InternalContradiction(
                f"prime {p} has no admissible index in {w}"
            )
    inst = MatchingInstance(
        left=tuple(range(1, w.n + 1)),
        right=tuple(sorted(exps)),
        edges={i: tuple(sorted(ps)) for i, ps in adj.items()},
    )
    return inst, exps


def _blocked_evidence(w: Window, exps: dict[int, int], index: int) -> BlockedIndex:
    value = w.m + index
    reasons = []
    for p, v in sorted(factorize(value).items()):
        reasons.append((p, exps.get(p, 0), v))
    return BlockedIndex(index=index, value=value, reasons=tuple(reasons))


def exact_representation_exists(w: Window) -> RepresentationDecision:
    """Decide whether C(m+n, n) splits into coprime parts a_i | (m+i), all > 1.

    Feasible iff the admissibility matching saturates every index: each
    index takes its matched prime's full power, remaining primes fall to
    their smallest admissible index, which yields a verified certificate.
    Infeasible outcomes report the smallest unsaturated index (preferring
    one with no admissible prime at all, where the obstruction is local).
    """
    if w.m < 1:
        raise ValueError("window base must be >= 1")
    inst, exps = representation_instance(w)
    matching = max_matching(inst)
    if len(matching) < w.n:
        matched = {i for i, _ in matching}
        empty = [i for i in inst.left if not inst.edges[i]]
        index = empty[0] if empty else min(set(inst.left) - matched)
        return RepresentationDecision(
            window=w,
            feasible=False,
            certificate=None,
            blocking=_blocked_evidence(w, exps, index),
        )
    factors = [1] * w.n
    taken = {p: i for i, p in matching}
    # Unmatched primes drop to their smallest admissible index.
    admissible_of: dict[int, list[int]] = {p: [] for p in exps}
    for i in inst.left:
        for p in inst.edges[i]:
            admissible_of[p].append(i)
    assignment = []
    for p, e in exps.items():
        i = taken.get(p)
        if i is None:
            i = admissible_of[p][0]
        factors[i - 1] *= p**e
        assignment.append((p, e, i))
    cert = CoprimeRepresentation(
        window=w, factors=tuple(factors), assignment=tuple(assignment)
    )
    if not (cert.all_factors_nontrivial and verify_representation(cert)):
        raise InternalContradiction(f"saturating matching gave a bad certificate at {w}")
    return RepresentationDecision(
        window=w, feasible=True, certificate=cert, blocking=None
    )


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
    persists), so the scan stops at the first failure; the matching is
    grown one index at a time.  cap defaults to 2m and may not exceed it,
    the window there containing two powers of 2.
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
            break
        value = n
    return LargestN(m=m, cap=cap, value=value, cap_hit=value == cap)


def _decide_row(m: int, n_lo: int, n_hi: int):
    """(n, blocking evidence or None if feasible) for n = n_lo .. n_hi.

    The row's canonical representations are grown one element at a time.
    A window whose canonical parts are all > 1 is feasible, once its
    certificate passes verify_representation; the rest go to
    exact_representation_exists, which supplies the blocking evidence.
    """
    row = CanonicalRow(m)
    for n in range(1, n_hi + 1):
        row.extend()
        if n < n_lo:
            continue
        rep = row.representation()
        if rep.all_factors_nontrivial:
            if not verify_representation(rep):
                raise InternalContradiction(f"canonical certificate fails at {rep.window}")
            yield n, None
        else:
            yield n, exact_representation_exists(Window(m, n)).blocking


W_CAP_GUARD = 10_000


def w_of_m(m: int, cap: int) -> LargestN:
    """Largest n <= cap with a full coprime representation, plus the whole
    feasibility bitmap.

    Unlike the distinct-prime case, failure is not known to persist as n
    grows, so every n gets its own decision (no early exit); the cap is
    bounded to keep one call's runtime sane.
    """
    if m < 1 or cap < 1:
        raise ValueError("need m >= 1 and cap >= 1")
    if cap > W_CAP_GUARD:
        raise ValueError(f"cap {cap} beyond the runtime guard {W_CAP_GUARD}")
    bitmap = tuple(blocking is None for _, blocking in _decide_row(m, 1, cap))
    value = max((n for n in range(1, cap + 1) if bitmap[n - 1]), default=0)
    return LargestN(m=m, cap=cap, value=value, cap_hit=value == cap, feasible=bitmap)


@dataclass(frozen=True)
class Counterexample:
    """An all-composite window whose exact representation fails."""

    m: int
    n: int
    blocking_value: int


def _scan_chunk(args) -> list[Counterexample]:
    (m_lo, m_hi), (n_lo, n_hi) = args
    sieve = default_sieve(m_hi + n_hi + 1)
    out = []
    for m in range(m_lo, m_hi + 1):
        run = sieve.composite_run(m, n_hi)
        for n, blocking in _decide_row(m, n_lo, run):
            if blocking is not None:
                out.append(Counterexample(m=m, n=n, blocking_value=blocking.value))
    return out


def scan_counterexamples(
    m_range: tuple[int, int],
    n_range: tuple[int, int],
    workers: int = 1,
) -> list[Counterexample]:
    """All-composite windows in the rectangle failing the exact representation.

    Complete over m in m_range, n in n_range (inclusive bounds), ordered by
    (m, n).  Work is chunked by fixed m-blocks, so the output is identical
    for every worker count.
    """
    m_lo, m_hi = m_range
    n_lo, n_hi = n_range
    if m_lo < 1 or n_lo < 0:
        raise ValueError("rectangle must start at m >= 1, n >= 0")
    if m_hi < m_lo or n_hi < n_lo or n_hi == 0:
        return []
    n_lo = max(n_lo, 1)
    default_sieve(m_hi + n_hi + 1)
    chunk = 2048
    blocks = [
        ((lo, min(lo + chunk - 1, m_hi)), (n_lo, n_hi))
        for lo in range(m_lo, m_hi + 1, chunk)
    ]
    if workers <= 1 or len(blocks) == 1:
        pieces = [_scan_chunk(b) for b in blocks]
    else:
        with multiprocessing.Pool(workers) as pool:
            pieces = pool.map(_scan_chunk, blocks)
    out: list[Counterexample] = []
    for piece in pieces:
        out.extend(piece)
    return out
