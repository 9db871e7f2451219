"""The sets H(n) of composites whose maximal prime-power divisors stay <= n.

H(n) = { x composite : p^(v_p(x)) <= n for every prime p | x }.  Members
factor entirely into prime powers bounded by n, so H(n) is finite with
largest element lcm(1..n), and |H(n)| has the closed form

    prod over p <= n of (1 + floor(log_p n))  -  1  -  pi(n):

each member corresponds to one exponent vector (e_p) with
0 <= e_p <= floor(log_p n), minus the empty product and the pi(n)
single-prime vectors.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator

from .arith import InternalContradiction, _max_exponent, is_prime, largest_prime_power, primes_upto

# Enumeration walks every exponent vector; refuse anything bigger.
ENUMERATION_GUARD = 10**7


@dataclass(frozen=True)
class HnSet:
    """An enumerated H(n): ascending member tuple."""

    n: int
    elements: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        i = bisect.bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x


def _vectors(n: int, limit: int | None = None) -> tuple[int, int, int, bool]:
    """(count, lcm, read, whole): the products of 1 + e and of p^e, e = floor(log_p n),
    over the `read` primes p <= n taken by one ascending pass, which stops before the
    next prime once count passes limit; whole says it took them all (read = pi(n)).
    lcm stops growing once count passes ENUMERATION_GUARD, itself past it then (p^e >= 1 + e)."""
    count = lcm = 1
    read = 0
    primes = primes_upto(n)
    for p in primes:
        if limit is not None and count > limit:
            return count, lcm, read, False
        e = _max_exponent(p, n)
        lcm *= p**e if count <= ENUMERATION_GUARD else 1
        count *= 1 + e
        read += 1
        if limit is None and count > ENUMERATION_GUARD and p * p > n:
            # Every later prime is above sqrt(n), so has e = 1: it doubles
            # count, one shift for all of them, and leaves lcm as it is.
            rest = sum(1 for _ in primes)
            return count << rest, lcm, read + rest, True
    return count, lcm, read, True


def in_hn(x: int, n: int) -> bool:
    """Membership test: x composite with every maximal prime-power divisor <= n."""
    if x < 2 or n < 2:
        raise ValueError("membership defined for x >= 2, n >= 2")
    return not is_prime(x) and pow(*largest_prime_power(x)) <= n


def vector_count(n: int) -> int:
    """Number of exponent vectors behind H(n): prod of (1 + floor(log_p n))."""
    return _vectors(n)[0]


def hn_cardinality(n: int) -> int:
    """|H(n)| in closed form (exact, arbitrary precision)."""
    if n < 2:
        raise ValueError(f"H(n) defined for n >= 2, got {n}")
    count, _, pi, _ = _vectors(n)
    return count - 1 - pi


def enumerate_hn(n: int) -> HnSet:
    """Exact ascending enumeration of H(n), the concatenated hn_segments(n).

    Guarded: raises when the vector count exceeds ENUMERATION_GUARD, which
    keeps worst-case runtime around a minute.
    """
    return HnSet(n=n, elements=tuple(chain.from_iterable(hn_segments(n))))


def hn_segments(n: int, bound: int | None = None) -> Iterator[list[int]]:
    """H(n) as ascending sorted lists, one per nonempty value range [2^k, 2^(k+1)),
    holding only the members <= bound when a bound is given.

    Every exponent-vector product is 2^a * u with u odd.  Only the powers
    of two up to n and the sorted odd products are held: a range is the
    union of one slice of the odd products per power of two, and one sort
    merges those sorted runs.  So H(n) is never held whole; the largest
    segment of H(64) has 159,829 members against 4,128,749 in all.  A
    product above the bound (by default lcm(1..n), the largest product) is
    dropped as soon as it is formed.

    The guard (as for enumerate_hn, on min(vector_count(n), bound)) is
    checked here, before the first segment is asked for, by a pass (_vectors)
    that stops once the count passes the bound, or the guard if there is none.
    A stream of all of H(n) (no bound, or one >= lcm(1..n)) is checked at its
    end (_checked).
    """
    if n < 2:
        raise ValueError(f"H(n) defined for n >= 2, got {n}")
    count, lcm, _, whole = _vectors(n, ENUMERATION_GUARD if bound is None else bound)
    if bound is not None:
        count, whole = min(count, bound), True  # the pass stops only past the bound
    if count > ENUMERATION_GUARD:
        needs = count if whole else f"more than {ENUMERATION_GUARD}"
        raise ValueError(
            f"H({n}) enumeration needs {needs} exponent vectors, beyond the"
            f" guard ENUMERATION_GUARD = {ENUMERATION_GUARD}"
        )
    # Within the guard lcm is lcm(1..n), or past the bound if the pass stopped there.
    bound = lcm if bound is None else bound
    segments = _segments(n, list(primes_upto(min(n, bound))), bound)
    return _checked(n, segments, lcm) if lcm <= bound else segments


def _checked(n: int, segments: Iterator[list[int]], lcm: int) -> Iterator[list[int]]:
    """segments, a stream of all of H(n), failing at its end unless it held the
    closed-form count hn_cardinality(n) and ended at lcm(1..n)."""
    count = last = 0
    for segment in segments:
        count += len(segment)
        last = segment[-1]
        yield segment
        del segment  # the next segment is built with this one released
    if count != hn_cardinality(n) or (n >= 3 and last != lcm):
        raise InternalContradiction(f"H({n}) enumeration fails its count or lcm check")


def _segments(n: int, primes: list[int], bound: int) -> Iterator[list[int]]:
    odd = [1]
    for p in primes[1:]:
        # Each power p^e appends the first `size` products up to bound // p^e, read in
        # place, scaled by it: one sorted run per power, which timsort finds and merges.
        size = len(odd)
        q = p
        while q <= n:
            odd.extend(map(q.__mul__, islice(odd, bisect.bisect_right(odd, bound // q, 0, size))))
            q *= p
        odd.sort()
    twos = n.bit_length()  # the powers 2^a <= n are those with a < twos
    # 1 and the primes are the only non-members, and all of them are <= n.
    skip = {1, *primes}
    for k in range(odd[-1].bit_length() + twos - 1):
        segment = []
        for a in range(min(k + 1, twos)):
            # 2^a * u lies in [2^k, 2^(k+1)) iff u lies in [2^(k-a), 2^(k-a+1)),
            # and is at most the bound iff u is at most bound >> a.
            lo = bisect.bisect_left(odd, 1 << (k - a))
            run = odd[lo : bisect.bisect_left(odd, min(2 << (k - a), (bound >> a) + 1), lo)]
            segment.extend(map(a.__rlshift__, run) if a else run)
        segment.sort()
        if 1 << k <= n:
            segment = [x for x in segment if x not in skip]
        if segment:
            yield segment
