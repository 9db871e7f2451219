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

from .arith import default_sieve, factorize, is_prime

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


def _max_exponent(p: int, n: int) -> int:
    """floor(log_p n): the largest e with p^e <= n, computed exactly."""
    e, q = 0, p
    while q <= n:
        e += 1
        q *= p
    return e


def _primes_upto(n: int) -> list[int]:
    sieve = default_sieve(n)
    return sieve.primes[: sieve.prime_count(n)]


def in_hn(x: int, n: int) -> bool:
    """Membership test: x composite with every maximal prime-power divisor <= n."""
    if x < 2 or n < 2:
        raise ValueError("membership defined for x >= 2, n >= 2")
    if is_prime(x):
        return False
    return all(p**e <= n for p, e in factorize(x).items())


def vector_count(n: int) -> int:
    """Number of exponent vectors behind H(n): prod of (1 + floor(log_p n))."""
    out = 1
    for p in _primes_upto(n):
        out *= 1 + _max_exponent(p, n)
    return out


def hn_cardinality(n: int) -> int:
    """|H(n)| in closed form (exact, arbitrary precision)."""
    if n < 2:
        raise ValueError(f"H(n) defined for n >= 2, got {n}")
    return vector_count(n) - 1 - len(_primes_upto(n))


def enumerate_hn(n: int) -> HnSet:
    """Exact ascending enumeration of H(n), the concatenated hn_segments(n).

    Guarded: raises when the vector count exceeds ENUMERATION_GUARD, which
    keeps worst-case runtime around a minute.
    """
    return HnSet(n=n, elements=tuple(chain.from_iterable(hn_segments(n))))


def hn_segments(n: int) -> Iterator[list[int]]:
    """H(n) as ascending sorted lists, one per nonempty value range [2^k, 2^(k+1)).

    Every exponent-vector product is 2^a * u with u odd.  Only the powers
    of two up to n and the sorted odd products are held: a range is the
    union of one slice of the odd products per power of two, and one sort
    merges those sorted runs.  So H(n) is never held whole; the largest
    segment of H(64) has 159,829 members against 4,128,749 in all.

    The guard (as for enumerate_hn) is checked here, before the first
    segment is asked for.
    """
    if n < 2:
        raise ValueError(f"H(n) defined for n >= 2, got {n}")
    count = vector_count(n)
    if count > ENUMERATION_GUARD:
        raise ValueError(
            f"H({n}) enumeration needs {count} exponent vectors, beyond the"
            f" guard ENUMERATION_GUARD = {ENUMERATION_GUARD}"
        )
    return _segments(n, _primes_upto(n))


def _segments(n: int, primes: list[int]) -> Iterator[list[int]]:
    odd = [1]
    for p in primes[1:]:
        # Each power p^e appends the first `size` products, read in place, scaled
        # by it: one sorted run per power, which timsort finds and merges.
        size = len(odd)
        q = p
        while q <= n:
            odd.extend(map(q.__mul__, islice(odd, size)))
            q *= p
        odd.sort()
    twos = n.bit_length()  # the powers 2^a <= n are those with a < twos
    # 1 and the primes are the only non-members, and all of them are <= n.
    skip = {1, *primes}
    for k in range(odd[-1].bit_length() + twos - 1):
        segment = []
        for a in range(min(k + 1, twos)):
            # 2^a * u lies in [2^k, 2^(k+1)) iff u lies in [2^(k-a), 2^(k-a+1)).
            lo = bisect.bisect_left(odd, 1 << (k - a))
            run = odd[lo : bisect.bisect_left(odd, 2 << (k - a), lo)]
            segment.extend(map(a.__rlshift__, run) if a else run)
        segment.sort()
        if 1 << k <= n:
            segment = [x for x in segment if x not in skip]
        if segment:
            yield segment
