"""Exact integer arithmetic: sieving, primality, factorization, valuations.

Everything here is exact.  Python integers never wrap, so the usual
fixed-width overflow hazards do not exist; the explicit guards below
(sieve limit SIEVE_GUARD, factorization width, deterministic primality
width) are the places where a run would otherwise exhaust memory or a
result silently degrade.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from array import array
from dataclasses import dataclass
from itertools import compress, islice, takewhile
from operator import itemgetter
from typing import Iterable, Iterator

# Strong-test witness sets, each proven below its bound: Sinclair's 7 bases below
# 2^64, the prime bases 2..41 below psi_13 (Sorenson & Webster, Math. Comp. 2017).
DETERMINISTIC_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BASES = ((1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
             (DETERMINISTIC_PRIMALITY_BOUND, (*_SMALL_PRIMES, 41)))

# probable_prime's seeded random-base rounds above psi_13 unless a caller
# asks for others: a composite passes them with probability below 4^-40.
DEFAULT_MR_ROUNDS = 40

# Factorization is guaranteed to terminate for inputs below 2^64.
FACTORIZATION_BOUND = 1 << 64

DEFAULT_SIEVE_LIMIT = 10**6

# A sieve holds a 16-bit entry per integer up to its limit and a list of the
# primes; refuse anything bigger before allocating.  Each entry is a prime
# <= isqrt(SIEVE_GUARD) < 2^16, so it fits.
SIEVE_GUARD = 10**8

# Primes past the shared sieve are struck in bands of this many integers.
BLOCK_SPAN = 1 << 16

# _strike reduces the interval's start once per aligned run of this many
# sieve primes (PrimeSieve.group_products).
_STRIKE_GROUP = 32

# Trial division hands off to rho once the trial prime exceeds this, so
# inputs up to _TRIAL_CAP^2 are fully factored by trial division alone.
_TRIAL_CAP = 4096


class InternalContradiction(ArithmeticError):
    """A guaranteed arithmetic fact failed to hold: defect, not bad input."""


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


def _check_sieve_limit(limit: int) -> None:
    """Refuse the primes up to a limit above SIEVE_GUARD before reading any."""
    if limit > SIEVE_GUARD:
        raise ValueError(f"sieve limit {limit} exceeds SIEVE_GUARD = {SIEVE_GUARD}")


class PrimeSieve:
    """Smallest-prime-factor table with the ascending list of primes.

    _spf[x] is the smallest prime factor of composite x <= limit, and 0 for
    0, 1 and the primes, in an unsigned 16-bit array: that factor is at most
    isqrt(SIEVE_GUARD) < 2^16, and a wider one would raise OverflowError in
    the strike, never wrap.
    Immutable once built (group_products is filled in on first use, always to
    the same value); all queries are read-only, so a single instance may be
    shared freely across threads (and across forked workers).
    """

    def __init__(self, limit: int):
        _check_sieve_limit(limit)
        limit = max(limit, 3)
        self.limit = limit
        root = math.isqrt(limit)
        alive = bytearray(b"\x01") * (limit + 1)
        alive[:2] = b"\x00\x00"
        for p in range(2, root + 1):
            if alive[p]:
                alive[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        self.primes: list[int] = [2, *compress(range(3, limit + 1, 2), memoryview(alive)[3::2])]
        del alive
        # Striking the larger primes first leaves each entry at its smallest
        # prime factor.
        self._spf = spf = array("H", [0]) * (limit + 1)
        for p in reversed(self.primes[: bisect.bisect_right(self.primes, root)]):
            spf[p * p :: p] = array("H", [p]) * len(range(p * p, limit + 1, p))

    @functools.cached_property
    def group_products(self) -> tuple[int, ...]:
        """The product of primes[j : j + _STRIKE_GROUP] for each multiple j
        of _STRIKE_GROUP."""
        primes = self.primes
        return tuple(math.prod(primes[j : j + _STRIKE_GROUP])
                     for j in range(0, len(primes), _STRIKE_GROUP))

    def _check(self, x: int) -> None:
        if x < 0 or x > self.limit:
            raise ValueError(f"{x} outside sieve range [0, {self.limit}]")

    def is_prime(self, x: int) -> bool:
        self._check(x)
        return x >= 2 and not self._spf[x]

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


_sieve: PrimeSieve | None = None


def default_sieve(min_limit: int = DEFAULT_SIEVE_LIMIT) -> PrimeSieve:
    """The shared sieve; only verify_grimm_range and verify_small_windows grow
    it.  Construction is single-threaded; callers that fork workers should
    build it once first."""
    global _sieve
    if _sieve is None or _sieve.limit < min_limit:
        _sieve = PrimeSieve(max(min_limit, DEFAULT_SIEVE_LIMIT))
    return _sieve


def _strike(start: int, count: int, below: int) -> bytearray:
    """alive[i] = 0 exactly when start + i is a multiple of one of the shared
    sieve's primes below `below` other than the prime itself.

    A prime p < count strikes its multiples with one slice, and so does
    every prime up to the next multiple of _STRIKE_GROUP in the sieve's
    list.  Each later prime strikes at most the one offset -start mod p, and
    is taken with its aligned group of the sieve's group_products: start is
    reduced once by the group's product, and each prime's offset is the
    negated remainder mod p.  A small start is its own remainder, so no
    caller pays more than one small mod per prime.  Last, every sieve prime
    inside the interval is set alive again: no other prime divides it.
    """
    sieve = default_sieve()
    primes = sieve.primes
    alive = bytearray(b"\x01") * count
    end = bisect.bisect_left(primes, below)
    mid = bisect.bisect_left(primes, count, 0, end)
    mid = min(mid + -mid % _STRIKE_GROUP, end)
    for p in islice(primes, mid):
        i = -start % p
        alive[i::p] = bytes(len(range(i, count, p)))
    products = islice(sieve.group_products, mid // _STRIKE_GROUP, None)
    for j, product in zip(range(mid, end, _STRIKE_GROUP), products):
        r = -(start % product)
        for p in primes[j : min(j + _STRIKE_GROUP, end)]:
            i = r % p
            if i < count:
                alive[i] = 0
    for p in islice(primes, bisect.bisect_left(primes, start, 0, end),
                    bisect.bisect_left(primes, start + count, 0, end)):
        alive[p - start] = 1
    return alive


def band_primes(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi), 2 <= lo, unguarded: read off the shared sieve
    if it reaches hi - 1, else the survivors of a strike of the band by its
    primes up to sqrt(hi - 1), without growing it.  A composite survivor
    exceeds limit^2, so is_prime decides only those."""
    sieve = default_sieve()
    primes, square = sieve.primes, sieve.limit**2
    if hi - 1 <= sieve.limit:
        return primes[bisect.bisect_left(primes, lo) : bisect.bisect_left(primes, hi)]
    alive = _strike(lo, hi - lo, math.isqrt(hi - 1) + 1)
    return [x for x in compress(range(lo, hi), alive) if x <= square or is_prime(x)]


def first_prime(start: int, count: int, order, depth: int,
                rounds: int = DEFAULT_MR_ROUNDS, seed: int = 0) -> int | None:
    """The first probable prime among start + i, taken over the indices
    0 <= i < count in the order `order` (which may skip some); None when
    there is none.

    The interval is sieved once before any test: every prime p below depth
    costs one start mod p and strikes its multiples other than p itself,
    all of which are composite or below 2.  Only unstruck values >= 2 reach
    probable_prime, so the answer is that of testing each visited value in
    order.
    """
    alive = _strike(start, count, depth)
    for i in order:
        x = start + i
        if x >= 2 and alive[i] and probable_prime(x, rounds, seed):
            return x
    return None


def primes_upto(n: int) -> Iterator[int]:
    """The primes <= n, ascending: the shared sieve's, then band_primes in bands
    of BLOCK_SPAN past it.  n > SIEVE_GUARD is refused once it reads that far."""
    sieve = default_sieve()
    yield from takewhile(n.__ge__, sieve.primes)
    _check_sieve_limit(n)
    for lo in range(sieve.limit + 1, n + 1, BLOCK_SPAN):
        yield from band_primes(lo, min(lo + BLOCK_SPAN, n + 1))


def is_prime(x: int) -> bool:
    """Deterministic primality for 0 <= x < DETERMINISTIC_PRIMALITY_BOUND.

    Strong-probable-prime test over the witness set proven for x's range
    (_MR_BASES): 7 bases below 2^64, the prime bases 2..41 up to the bound.
    """
    if x < 2:
        return False
    for p in _SMALL_PRIMES:
        if x % p == 0:
            return x == p
    if x >= DETERMINISTIC_PRIMALITY_BOUND:
        raise ValueError(f"{x} exceeds the deterministic witness bound; use probable_prime")
    d, s = _odd_part(x - 1)
    bases = next(bases for bound, bases in _MR_BASES if x < bound)
    return all(a % x == 0 or _sprp(x, a, d, s) for a in bases)


def _odd_part(y: int) -> tuple[int, int]:
    """(d, s) with y = d * 2^s and d odd, for y > 0."""
    s = (y & -y).bit_length() - 1
    return y >> s, s


def _sprp(x: int, a: int, d: int, s: int) -> bool:
    """Whether odd x > 2, with x - 1 = d * 2^s and d odd, is a strong
    probable prime to base a.  False proves x composite.

    Below DETERMINISTIC_PRIMALITY_BOUND, where is_prime's verdicts are
    proofs, the modular power is the built-in pow; above it, where only
    probable_prime's rounds reach, it is _powmod.
    """
    y = _powmod(a, d, x) if x >= DETERMINISTIC_PRIMALITY_BOUND else pow(a, d, x)
    if y == 1 or y == x - 1:
        return True
    for _ in range(s - 1):
        y = y * y % x
        if y == x - 1:
            return True
    return False


def _powmod(a: int, d: int, x: int) -> int:
    """pow(a, d, x) for a, d >= 0 and odd x > 1, through libgmp's mpz_powm
    when the library loads and passes its self-check, else the built-in pow
    (the reference the kernel is tested against)."""
    powm = _gmp_kernel()
    return pow(a, d, x) if powm is None else powm(a, d, x)


@functools.cache
def _gmp_kernel():
    """_gmp_powm once it has matched pow on one fixed power, else None, for
    the life of the process."""
    powm = _gmp_powm()
    check = (3**160, 7**170, 11**150 + 2)  # several limbs each, an odd modulus
    return powm if powm is not None and powm(*check) == pow(*check) else None


def _gmp_powm():
    """A function (a, d, x) -> a^d mod x on libgmp's mpz_powm, or None when
    libgmp cannot be loaded.  Each call holds its own mpz values, cleared
    before it returns, so no GMP state is shared across threads or forks."""
    import ctypes  # only probable-prime rounds above the bound pay for it

    try:
        gmp = ctypes.CDLL("libgmp.so.10")
    except OSError:
        return None

    class Mpz(ctypes.Structure):  # mpz_t: alloc, size, limb pointer
        _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("d", ctypes.c_void_p)]

    mpz, size_t = ctypes.POINTER(Mpz), ctypes.c_size_t
    init, clear, imp, powm, exp = (
        gmp.__gmpz_init, gmp.__gmpz_clear, gmp.__gmpz_import, gmp.__gmpz_powm, gmp.__gmpz_export
    )
    init.argtypes = clear.argtypes = [mpz]
    init.restype = clear.restype = imp.restype = powm.restype = None
    # Words are single bytes, least significant first, native endianness, no nails.
    imp.argtypes = [mpz, size_t, ctypes.c_int, size_t, ctypes.c_int, size_t, ctypes.c_char_p]
    powm.argtypes = [mpz, mpz, mpz, mpz]
    exp.argtypes = [ctypes.c_void_p, ctypes.POINTER(size_t), ctypes.c_int, size_t,
                    ctypes.c_int, size_t, mpz]
    exp.restype = ctypes.c_void_p

    def kernel(a: int, d: int, x: int) -> int:
        out, count = ctypes.create_string_buffer((x.bit_length() + 7) // 8), size_t()
        r, *args = vals = [Mpz() for _ in range(4)]
        for v in vals:
            init(v)
        try:
            for v, value in zip(args, (a, d, x)):
                raw = value.to_bytes((value.bit_length() + 7) // 8, "little")
                imp(v, len(raw), -1, 1, 0, 0, raw)
            powm(r, *args)
            exp(out, ctypes.byref(count), -1, 1, 0, 0, r)  # r < x fits the buffer
        finally:
            for v in vals:
                clear(v)
        return int.from_bytes(out.raw[: count.value], "little")

    return kernel


def _mr_random(x: int, rounds: int, seed: int) -> bool:
    """Strong-probable-prime rounds with random bases; composite slips
    through with probability below 4^(-rounds).  The generator is seeded
    per candidate, so verdicts do not depend on call order."""
    if x < 2:
        return False
    for p in _SMALL_PRIMES:
        if x % p == 0:
            return x == p
    d, s = _odd_part(x - 1)
    rng = random.Random((seed << 64) ^ (x % (1 << 64)))
    return all(_sprp(x, rng.randrange(2, x - 1), d, s) for _ in range(rounds))


def probable_prime(x: int, rounds: int = DEFAULT_MR_ROUNDS, seed: int = 0) -> bool:
    """Primality for arbitrary-size integers.

    Below DETERMINISTIC_PRIMALITY_BOUND this is is_prime, proven exact.
    Above it: one gcd with the product of the primes below 10^4 (x exceeds
    them all, so a common factor proves it composite), one strong round to
    base 2, then `rounds` seeded random-base rounds (reproducible; composite
    error below 4^(-rounds)).  A failed base-2 round proves x composite; a
    pass still faces every random round.  These rounds take their modular
    powers from _powmod (libgmp when it loads, else pow); the verdicts are
    the same either way.
    """
    if x < DETERMINISTIC_PRIMALITY_BOUND:
        return is_prime(x)
    if math.gcd(x, _screen_product()) > 1:
        return False
    d, s = _odd_part(x - 1)
    return _sprp(x, 2, d, s) and _mr_random(x, rounds, seed)


@functools.cache
def _screen_product() -> int:
    """The product of the 1,229 primes below 10^4, formed once."""
    return _product(takewhile((10**4).__gt__, default_sieve().primes))


def all_prime(xs: list[int]) -> bool:
    """Whether every x in xs is prime: the entries within the shared sieve
    are read off its table, and only those beyond it go to is_prime."""
    sieve = default_sieve()
    if xs and 2 <= min(xs):
        # Within the sieve, x >= 2 is prime iff it has no smallest-prime-factor
        # entry.  One itemgetter gathers them all; the leading 0 reads _spf[0],
        # which is 0, and makes a single x still give a tuple.  An x beyond
        # the sieve stops the gather with IndexError.
        try:
            return not any(itemgetter(0, *xs)(sieve._spf))
        except IndexError:
            pass
    inside = [x for x in xs if x <= sieve.limit]
    if inside and not (min(inside) >= 2 and all_prime(inside)):
        return False
    return all(is_prime(x) for x in xs if x > sieve.limit)


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite n, found by Brent-cycle rho.

    The polynomial offset c walks a fixed sequence 1, 2, 3, ... so the
    search is deterministic; every composite below 2^64 yields to some c.
    """
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
        raise ValueError(
            f"{x} exceeds the factorization guard FACTORIZATION_BOUND = {FACTORIZATION_BOUND}"
        )
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
    """The distinct primes dividing x >= 1, ascending."""
    return list(factorize(x))


def largest_prime_power(x: int) -> tuple[int, int]:
    """(p, v) with p^v = L(x), the largest prime power dividing x >= 2.

    p is the prime of factorize(x) with the largest p^e, checked apart from
    it: p is prime (all_prime: the sieve's table within it, is_prime beyond),
    and e is v_p(x) recounted by division.  A misreported factor raises
    InternalContradiction.
    """
    _, p, e = max((p**e, p, e) for p, e in factorize(x).items())
    if not (all_prime([p]) and _vp(p, x) == e):
        raise InternalContradiction(f"{p}^{e} is not a prime power exactly dividing {x}")
    return p, e


def largest_prime_factors(lo: int, hi: int) -> list[int]:
    """P(x), the largest prime factor of x, for x = lo .. hi (P(1) = 1).

    Within the shared sieve, each prime q up to the split, the larger of
    sqrt(hi) and an eighth of the span, overwrites its multiples in
    ascending order, so each entry ends at the largest of them dividing x.
    A prime p above the split is the only prime > sqrt(hi) that can divide
    x, and it has at most eight multiples in the span: each is written one
    by one, at x = c * p, found per cofactor c = x / p.  Beyond the sieve
    each entry comes from factorize.
    """
    if not 1 <= lo <= hi + 1:
        raise ValueError(f"need 1 <= lo <= hi + 1, got lo={lo}, hi={hi}")
    sieve = default_sieve()
    if hi > sieve.limit:
        return [max(factorize(x), default=1) for x in range(lo, hi + 1)]
    primes = sieve.primes
    out = [1] * (hi - lo + 1)
    split = max(math.isqrt(hi), len(out) // 8)
    a_split = bisect.bisect_right(primes, split)
    for q in primes[:a_split]:
        start = -(-lo // q) * q - lo
        out[start::q] = [q] * len(range(start, len(out), q))
    # The primes p with lo <= c * p <= hi, p > split, are primes[a:b]; both
    # ends only fall as c grows, so each search is confined to the index
    # range the previous cofactor left.
    a = b = len(primes)
    for c in range(1, hi // (split + 1) + 1):
        a = bisect.bisect_right(primes, (lo - 1) // c, a_split, a)
        b = bisect.bisect_right(primes, hi // c, a, b)
        for p in primes[a:b]:
            out[c * p - lo] = p
    return out


def _vp(p: int, x: int) -> int:
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


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


def _max_exponent(p: int, n: int) -> int:
    """floor(log_p n): the largest e with p^e <= n, computed exactly."""
    e, q = 0, p
    while q <= n:
        e += 1
        q *= p
    return e


def representation_threshold(n: int) -> int:
    """Product over primes p <= n of the largest power of p not exceeding n.

    Equal to lcm(1, ..., n).  Whenever m exceeds this value, every element
    of the window m+1 .. m+n carries a prime power larger than n, which is
    what makes the all-parts-greater-than-one factor assignment possible.
    """
    if n < 2:
        raise ValueError(f"threshold defined for n >= 2, got {n}")
    _check_sieve_limit(n)  # before the product, not once the stream reaches n
    return _product(p ** _max_exponent(p, n) for p in primes_upto(n))


def _product(xs: Iterable[int]) -> int:
    """math.prod(xs) as a balanced product tree: neighbours are multiplied
    pairwise until one factor is left, so each large multiplication has two
    factors of about the same size.  Its leaves are products of 64 entries,
    which math.prod forms faster than the tree would; only the leaves are
    held, never xs whole."""
    it = iter(xs)
    parts = []
    while leaf := list(islice(it, 64)):
        parts.append(math.prod(leaf))
    while len(parts) > 1:
        parts = [a * b for a, b in zip(parts[::2], parts[1::2])] + parts[len(parts) & ~1 :]
    return parts[0] if parts else 1
