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
from itertools import islice

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
    """Exact ascending enumeration of H(n) by exponent vectors.

    Guarded: raises when the vector count exceeds ENUMERATION_GUARD, which
    keeps worst-case runtime around a minute.
    """
    if n < 2:
        raise ValueError(f"H(n) defined for n >= 2, got {n}")
    count = vector_count(n)
    if count > ENUMERATION_GUARD:
        raise ValueError(
            f"H({n}) enumeration needs {count} exponent vectors, beyond the"
            f" guard ENUMERATION_GUARD = {ENUMERATION_GUARD}"
        )
    primes = _primes_upto(n)
    out = [1]
    for p in primes:
        # Each power p^e appends the first `size` products, read in place, scaled
        # by it: one sorted run per power, which timsort finds and merges.
        size = len(out)
        q = p
        while q <= n:
            out.extend(map(q.__mul__, islice(out, size)))
            q *= p
        out.sort()
    # 1 and the primes are the only non-members, and all of them are <= n.
    head = bisect.bisect_right(out, n)
    skip = {1, *primes}
    out[:head] = [x for x in out[:head] if x not in skip]
    return HnSet(n=n, elements=tuple(out))
