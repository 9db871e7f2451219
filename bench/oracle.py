"""Arithmetic the output checks rely on, written without any grimm code.

Slow but plain: a bytearray sieve, trial division, `math.comb` for binomial
valuations and Kuhn's augmenting-path matching.
"""

from __future__ import annotations

import math


def prime_flags(limit: int) -> bytearray:
    """flags[x] == 1 iff x is prime, for 0 <= x <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return flags


def composite_run_count(flags: bytearray, limit: int) -> int:
    """Maximal runs of consecutive composites with every element <= limit
    (each run lies strictly between two consecutive primes, the upper one
    at most limit + 1)."""
    count = 0
    prev = None
    for q in range(2, limit + 2):
        if flags[q]:
            if prev is not None and q - prev > 1:
                count += 1
            prev = q
    return count


def composite_windows(flags: bytearray, m_lo: int, m_hi: int, n_max: int) -> list[tuple[int, int]]:
    """Every (m, n) with m_lo <= m <= m_hi, 1 <= n <= n_max and m+1..m+n composite."""
    out = []
    for m in range(m_lo, m_hi + 1):
        n = 0
        while n < n_max and not flags[m + n + 1]:
            n += 1
            out.append((m, n))
    return out


def _factor(x: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= x:
        while x % p == 0:
            out[p] = out.get(p, 0) + 1
            x //= p
        p += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def _multiplicity(p: int, x: int) -> int:
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def full_representation_exists(m: int, n: int) -> bool:
    """Whether C(m+n, n) = a_1 ... a_n with pairwise coprime a_i | m+i, all a_i > 1.

    Coprime parts give each prime's whole power to one index, so every index
    needs a prime p with v_p(m+i) >= v_p(C(m+n, n)) > 0 of its own: a
    matching that saturates the indices.
    """
    coeff = math.comb(m + n, n)
    factors = {i: _factor(m + i) for i in range(1, n + 1)}
    primes = sorted({p for f in factors.values() for p in f})
    need = {p: _multiplicity(p, coeff) for p in primes}
    adj = {
        i: [p for p, v in f.items() if need[p] > 0 and v >= need[p]]
        for i, f in factors.items()
    }
    owner: dict[int, int] = {}

    def augment(i: int, seen: set[int]) -> bool:
        for p in adj[i]:
            if p not in seen:
                seen.add(p)
                if p not in owner or augment(owner[p], seen):
                    owner[p] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(1, n + 1))


def fermat_probable_prime(x: int, bases=(2, 3, 5)) -> bool:
    return all(pow(a, x - 1, x) == 1 for a in bases)


def hn_size(flags: bytearray, n: int) -> int:
    """|H(n)| = prod over primes p <= n of (1 + floor(log_p n)), minus 1, minus pi(n)."""
    product = 1
    primes = 0
    for p in range(2, n + 1):
        if flags[p]:
            primes += 1
            e, q = 0, p
            while q <= n:
                e, q = e + 1, q * p
            product *= 1 + e
    return product - 1 - primes


def hn_members_upto(n: int, bound: int) -> list[int]:
    """Members of H(n) up to bound by brute force: composites whose maximal
    prime-power divisors are all <= n."""
    out = []
    for x in range(4, bound + 1):
        f = _factor(x)
        if (len(f) > 1 or next(iter(f.values())) > 1) and all(p**e <= n for p, e in f.items()):
            out.append(x)
    return out
