"""Independent brute-force oracles the tests check the package against.

Everything here deliberately avoids the package's own algorithms: primality
is plain trial division, binomial valuations come from dividing math.comb
directly, feasibility decisions are exhaustive assignment searches.
"""

from __future__ import annotations

import math


def naive_is_prime(x: int) -> bool:
    if x < 2:
        return False
    f = 2
    while f * f <= x:
        if x % f == 0:
            return False
        f += 1
    return True


def naive_factorize(x: int) -> dict[int, int]:
    out: dict[int, int] = {}
    f = 2
    while f * f <= x:
        while x % f == 0:
            out[f] = out.get(f, 0) + 1
            x //= f
        f += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def naive_vp(p: int, x: int) -> int:
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def iterated_lcm(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out = math.lcm(out, k)
    return out


def binomial_prime_exponents(m: int, n: int) -> dict[int, int]:
    """{p: v_p(C(m+n, n))} by dividing the exact coefficient, no floor sums."""
    coeff = math.comb(m + n, n)
    out: dict[int, int] = {}
    for i in range(1, n + 1):
        for p in naive_factorize(m + i):
            if p not in out:
                e = naive_vp(p, coeff)
                if e:
                    out[p] = e
    return out


def canonical_factors(m: int, n: int) -> tuple[int, ...]:
    """The canonical parts: each prime power of C(m+n, n) on the smallest
    index whose element has the largest valuation at that prime."""
    factors = [1] * n
    for p, e in binomial_prime_exponents(m, n).items():
        vals = [naive_vp(p, m + i) for i in range(1, n + 1)]
        factors[vals.index(max(vals))] *= p**e
    return tuple(factors)


def exact_representation_feasible(m: int, n: int) -> bool:
    """Exhaustive search: can every index take a distinct coefficient prime
    whose full power it absorbs?"""
    exps = binomial_prime_exponents(m, n)
    admissible = {
        i: [p for p, e in exps.items() if naive_vp(p, m + i) >= e]
        for i in range(1, n + 1)
    }
    order = sorted(admissible, key=lambda i: len(admissible[i]))
    used: set[int] = set()

    def walk(k: int) -> bool:
        if k == len(order):
            return True
        for p in admissible[order[k]]:
            if p not in used:
                used.add(p)
                if walk(k + 1):
                    return True
                used.discard(p)
        return False

    return walk(0)


def grimm_feasible(m: int, n: int) -> bool:
    """Exhaustive search for n distinct primes with p_j | (m+j)."""
    admissible = {i: sorted(naive_factorize(m + i)) for i in range(1, n + 1)}
    order = sorted(admissible, key=lambda i: len(admissible[i]))
    used: set[int] = set()

    def walk(k: int) -> bool:
        if k == len(order):
            return True
        for p in admissible[order[k]]:
            if p not in used:
                used.add(p)
                if walk(k + 1):
                    return True
                used.discard(p)
        return False

    return walk(0)


def brute_max_matching_size(left: list[int], edges: dict[int, tuple[int, ...]]) -> int:
    """Maximum matching cardinality by trying every assignment."""

    def walk(idx: int, used: frozenset) -> int:
        if idx == len(left):
            return 0
        best = walk(idx + 1, used)  # leave left[idx] unmatched
        for r in edges.get(left[idx], ()):
            if r not in used:
                best = max(best, 1 + walk(idx + 1, used | {r}))
        return best

    return walk(0, frozenset())


def recursive_augment(
    adj: dict[int, list[int]], pair_r: dict[int, int], start: int
) -> bool:
    """Textbook recursive Kuhn step: depth-first in adjacency order, each
    right vertex visited at most once per call."""
    seen: set[int] = set()

    def walk(l: int) -> bool:
        for r in adj[l]:
            if r not in seen:
                seen.add(r)
                if r not in pair_r or walk(pair_r[r]):
                    pair_r[r] = l
                    return True
        return False

    return walk(start)


def brute_hn(n: int, bound: int) -> list[int]:
    """Scan [4, bound] for composites whose maximal prime powers stay <= n."""
    out = []
    for x in range(4, bound + 1):
        if naive_is_prime(x):
            continue
        if all(p**e <= n for p, e in naive_factorize(x).items()):
            out.append(x)
    return out
