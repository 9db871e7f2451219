"""Exact integer arithmetic: sieving, primality, factorization, valuations.

Everything here is exact.  Python integers never wrap, so the usual
fixed-width overflow hazards do not exist; the explicit guards below
(sieve limit, factorization width, deterministic primality width) are the
places where a result would otherwise silently degrade.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass

import numpy as np

# The 7-base strong-probable-prime test is deterministic below this bound
# (well above 2^64).
DETERMINISTIC_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Factorization is guaranteed to terminate for inputs below 2^64.
FACTORIZATION_BOUND = 1 << 64

DEFAULT_SIEVE_LIMIT = 10**6

# Trial division hands off to rho once the trial prime exceeds this, so
# inputs up to _TRIAL_CAP^2 are fully factored by trial division alone.
_TRIAL_CAP = 4096


@dataclass(frozen=True)
class Window:
    """The interval of n consecutive integers m+1 .. m+n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"window base must be >= 0, got m={self.m}")
        if self.n < 1:
            raise ValueError(f"window length must be >= 1, got n={self.n}")

    @property
    def last(self) -> int:
        return self.m + self.n

    def values(self) -> range:
        """The window elements m+1, ..., m+n."""
        return range(self.m + 1, self.m + self.n + 1)


class PrimeSieve:
    """Smallest-prime-factor sieve with a cumulative prime-count table.

    Immutable once built; all queries are read-only, so a single instance
    may be shared freely across threads (and across forked workers).
    """

    def __init__(self, limit: int):
        if limit < 3:
            limit = 3
        self.limit = limit
        spf = np.zeros(limit + 1, dtype=np.int32)
        for i in range(2, math.isqrt(limit) + 1):
            if spf[i] == 0:
                block = spf[i * i :: i]
                block[block == 0] = i
        membership = spf == 0
        membership[:2] = False
        self._membership = membership
        self._pi = np.cumsum(membership, dtype=np.int64)
        # Plain lists index ~5x faster than numpy scalars in the per-element
        # hot loops (bulk factorization of range scans).
        self._spf = spf.tolist()
        self.primes: list[int] = np.flatnonzero(membership).tolist()

    def is_prime(self, x: int) -> bool:
        if x < 0 or x > self.limit:
            raise ValueError(f"{x} outside sieve range [0, {self.limit}]")
        return bool(self._membership[x])

    def composite_run(self, m: int, cap: int) -> int:
        """How many of m+1, m+2, ... are non-prime in a row, at most cap."""
        if m < 0 or m + cap > self.limit:
            raise ValueError(f"{m + cap} outside sieve range [0, {self.limit}]")
        k = bisect.bisect_right(self.primes, m)
        following = self.primes[k] if k < len(self.primes) else self.limit + 1
        return min(cap, following - m - 1)

    def prime_count(self, x: int) -> int:
        """pi(x), the number of primes <= x."""
        if x < 0 or x > self.limit:
            raise ValueError(f"{x} outside sieve range [0, {self.limit}]")
        return int(self._pi[x])

    def prime_counts(self, xs) -> np.ndarray:
        """Vectorized pi over an array of arguments within the sieve range."""
        return self._pi[np.asarray(xs)]

    def factorize(self, x: int) -> dict[int, int]:
        """Exact factorization of 1 <= x <= limit via repeated spf lookup."""
        if not 1 <= x <= self.limit:
            raise ValueError(f"{x} outside sieve range [1, {self.limit}]")
        spf = self._spf
        out: dict[int, int] = {}
        while True:
            p = spf[x]
            if p == 0:
                if x > 1:
                    out[x] = out.get(x, 0) + 1
                return out
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            out[p] = e

    def primes_between(self, lo: int, hi: int) -> list[int]:
        """Primes p with lo < p < hi (both ends exclusive)."""
        if hi - 1 > self.limit:
            raise ValueError(f"{hi} outside sieve range")
        lo = max(lo, 1)
        return (np.flatnonzero(self._membership[lo + 1 : hi]) + lo + 1).tolist()


_sieve: PrimeSieve | None = None


def default_sieve(min_limit: int = DEFAULT_SIEVE_LIMIT) -> PrimeSieve:
    """The shared sieve, grown on demand.  Construction is single-threaded;
    callers that fork workers should build it once in the parent first."""
    global _sieve
    if _sieve is None or _sieve.limit < min_limit:
        _sieve = PrimeSieve(max(min_limit, DEFAULT_SIEVE_LIMIT))
    return _sieve


def is_prime(x: int) -> bool:
    """Deterministic primality for 0 <= x < DETERMINISTIC_PRIMALITY_BOUND.

    Strong-probable-prime test over a fixed witness set with no error
    anywhere below the bound (which covers the full 64-bit range).
    """
    if x < 2:
        return False
    for p in _SMALL_PRIMES:
        if x % p == 0:
            return x == p
    if x >= DETERMINISTIC_PRIMALITY_BOUND:
        raise ValueError(
            f"{x} exceeds the deterministic witness bound; use probable_prime"
        )
    d = x - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % x == 0:
            continue
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def _mr_random(x: int, rounds: int, seed: int) -> bool:
    """Strong-probable-prime rounds with random bases; composite slips
    through with probability below 4^(-rounds).  The generator is seeded
    per candidate, so verdicts do not depend on call order."""
    if x < 2:
        return False
    for p in _SMALL_PRIMES:
        if x % p == 0:
            return x == p
    d = x - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    rng = random.Random((seed << 64) ^ (x % (1 << 64)))
    for _ in range(rounds):
        a = rng.randrange(2, x - 1)
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def probable_prime(x: int, rounds: int = 40, seed: int = 0) -> bool:
    """Primality for arbitrary-size integers.

    Below the deterministic witness bound this is exact.  Above it, trial
    division by the primes under 10^4 is followed by `rounds` seeded
    random-base rounds (reproducible; composite error below 4^(-rounds)).
    """
    if x < DETERMINISTIC_PRIMALITY_BOUND:
        return is_prime(x)
    for p in default_sieve().primes[:1229]:  # primes below 10^4
        if x % p == 0:
            return False
    return _mr_random(x, rounds, seed)


def all_prime(xs: list[int]) -> bool:
    """Whether every x in xs is prime: read off the shared sieve's table
    when all of them lie within it, by is_prime otherwise."""
    sieve = default_sieve()
    if xs and 2 <= min(xs) and max(xs) <= sieve.limit:
        # Within the sieve, x >= 2 is prime iff it has no smallest-prime-factor entry.
        return not any(map(sieve._spf.__getitem__, xs))
    return all(map(is_prime, xs))


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite n, found by Brent-cycle rho.

    The polynomial offset c walks a fixed sequence 1, 2, 3, ... so the
    search is deterministic; every composite below 2^64 yields to some c.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 10_000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable for n < 2^64


def factorize(x: int) -> dict[int, int]:
    """Exact prime factorization of x >= 1 as an ascending {prime: exponent} map.

    Trial division by sieved primes, then deterministic rho on whatever
    cofactor survives.  Inputs must stay below 2^64; bigger integers are
    only ever primality-tested in this package, never factored.
    """
    if x < 1:
        raise ValueError(f"cannot factorize {x}")
    if x >= FACTORIZATION_BOUND:
        raise ValueError(f"{x} exceeds the 64-bit factorization guard")
    sieve = default_sieve()
    if x <= sieve.limit:
        return sieve.factorize(x)
    out: dict[int, int] = {}
    for p in sieve.primes:
        if p > _TRIAL_CAP or p * p > x:
            break
        if x % p == 0:
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            out[p] = e
    if x > 1:
        stack = [x]
        while stack:
            y = stack.pop()
            if is_prime(y):
                out[y] = out.get(y, 0) + 1
                continue
            g = _brent_rho(y)
            stack.append(g)
            stack.append(y // g)
    return dict(sorted(out.items()))


def prime_divisors(x: int) -> list[int]:
    """The distinct primes dividing x >= 1, ascending.

    Within the shared sieve this walks the smallest-prime-factor table
    without building an exponent map; beyond it, the primes of factorize.
    """
    sieve = default_sieve()
    if not 1 <= x <= sieve.limit:
        return list(factorize(x))
    spf = sieve._spf
    out = []
    p = spf[x]
    while p:
        out.append(p)
        x //= p
        while x % p == 0:
            x //= p
        p = spf[x]
    if x > 1:
        out.append(x)
    return out


def vp(p: int, x: int) -> int:
    """The p-adic valuation: the largest e with p^e dividing x."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if x < 1:
        raise ValueError(f"valuation undefined for {x}")
    return _vp(p, x)


def _vp(p: int, x: int) -> int:
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def vp_factorial(p: int, x: int) -> int:
    """Valuation of x! at p by the floor-sum formula, without forming x!."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    total = 0
    q = p
    while q <= x:
        total += x // q
        q *= p
    return total


def vp_binomial(p: int, w: Window) -> int:
    """Valuation of C(m+n, n) at p, as a difference of three floor sums."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _vp_binomial(p, w.m, w.n)


def _vp_binomial(p: int, m: int, n: int) -> int:
    total = 0
    q = p
    top = m + n
    while q <= top:
        total += top // q - m // q - n // q
        q *= p
    return total


def max_vp_in_window(p: int, w: Window) -> tuple[int, int]:
    """Maximum of v_p(m+i) over i = 1..n, with the smallest attaining index.

    Returns (t, i*).  When no window element is divisible by p, t = 0 and
    the index reported is 1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    m, n = w.m, w.n
    best_t, best_i = 0, 1
    first = m + 1 + (-(m + 1)) % p
    for x in range(first, m + n + 1, p):
        t = _vp(p, x)
        if t > best_t:
            best_t, best_i = t, x - m
    return best_t, best_i


def representation_threshold(n: int) -> int:
    """Product over primes p <= n of the largest power of p not exceeding n.

    Equal to lcm(1, ..., n).  Whenever m exceeds this value, every element
    of the window m+1 .. m+n carries a prime power larger than n, which is
    what makes the all-parts-greater-than-one factor assignment possible.
    """
    if n < 2:
        raise ValueError(f"threshold defined for n >= 2, got {n}")
    sieve = default_sieve(n)
    out = 1
    for p in sieve.primes:
        if p > n:
            break
        q = p
        while q * p <= n:
            q *= p
        out *= q
    return out


def prime_count(x: int) -> int:
    """pi(x) from the shared sieve table; rejects x above the sieve limit."""
    if x < 0:
        raise ValueError(f"pi undefined for {x}")
    return default_sieve().prime_count(x)
