"""Independent brute-force oracles the tests check the package against.

Everything here deliberately avoids the package's own algorithms: primality
is plain trial division, binomial valuations come from dividing math.comb
directly, feasibility decisions are exhaustive assignment searches.  Two
exceptions: naive_sweep, a reference for the sieve in front of the primality
test, not for the test itself; and floor_sum_exponents, which takes the
coefficient's exponents from the package's Legendre floor sums (vp_binomial)
to check the incremental exponent walk against.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

from grimm.arith import Window, probable_prime, vp_binomial


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


def floor_sum_exponents(m: int, n: int) -> dict[int, int]:
    """{p: v_p(C(m+n, n))} by Legendre floor sums, ascending in p, over the
    primes of the window elements (every prime of the coefficient is one)."""
    w = Window(m, n)
    primes = sorted({p for x in w.values() for p in naive_factorize(x)})
    exps = {p: vp_binomial(p, w) for p in primes}
    return {p: e for p, e in exps.items() if e}


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


def recursive_max_matching(adj: dict[int, list[int]]) -> list[tuple[int, int]]:
    """Hopcroft-Karp as the package wrote it with a recursive dfs, which
    fails on a path deeper than the interpreter's recursion limit."""
    left = list(adj)
    pair_l: dict[int, int] = {}
    pair_r: dict[int, int] = {}
    dist: dict[int, int] = {}

    def bfs() -> bool:
        queue = deque()
        for l in left:
            if l not in pair_l:
                dist[l] = 0
                queue.append(l)
            else:
                dist[l] = -1
        reachable = False
        while queue:
            l = queue.popleft()
            for r in adj[l]:
                if r not in pair_r:
                    reachable = True
                else:
                    nxt = pair_r[r]
                    if dist[nxt] == -1:
                        dist[nxt] = dist[l] + 1
                        queue.append(nxt)
        return reachable

    def dfs(l: int) -> bool:
        for r in adj[l]:
            nxt = pair_r.get(r)
            if nxt is None or (dist[nxt] == dist[l] + 1 and dfs(nxt)):
                pair_l[l] = r
                pair_r[r] = l
                return True
        dist[l] = -1
        return False

    while bfs():
        for l in left:
            if l not in pair_l:
                dfs(l)
    return [(l, pair_l[l]) for l in left if l in pair_l]


def brute_hn(n: int, bound: int) -> list[int]:
    """Scan [4, bound] for composites whose maximal prime powers stay <= n."""
    out = []
    for x in range(4, bound + 1):
        if naive_is_prime(x):
            continue
        if all(p**e <= n for p, e in naive_factorize(x).items()):
            out.append(x)
    return out


def naive_sweep(k: int, p1: int) -> int | None:
    """The first prime among k+2, k-2, k+4, k-4, ... out to +/- 2*floor(p1/2),
    with probable_prime on every candidate >= 2 and no sieve."""
    for step in range(1, p1 // 2 + 1):
        for x in (k + 2 * step, k - 2 * step):
            if x >= 2 and probable_prime(x):
                return x
    return None


def merged_hn(n: int) -> list[int]:
    """H(n) by exponent vectors, one heapq.merge per prime: the sorted
    products are scaled by each power p^e (which keeps them sorted) and the
    scaled copies are merged; 1 and the primes are dropped at the end."""
    primes = [p for p in range(2, n + 1) if naive_is_prime(p)]
    out = [1]
    for p in primes:
        powers = [1]
        while powers[-1] * p <= n:
            powers.append(powers[-1] * p)
        out = list(heapq.merge(*[[x * q for x in out] for q in powers]))
    skip = set(primes) | {1}
    return [x for x in out if x not in skip]
