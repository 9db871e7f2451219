"""Prime generation from products of small primes in a dyadic band.

Pick primes p_1 < ... < p_r < 2*p_1 whose product k lands in
[2^(bits-1), 2^bits), then test k+2, k-2, k+4, k-4, ... out to
k +/- 2*floor(p_1/2).  Every candidate is coprime to each p_i, and an
empty sweep would itself be a counterexample to Conjecture 2 at
n = 2*floor(p_1/2) + 1, so it is reported rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import DEFAULT_MR_ROUNDS, DEFAULT_SIEVE_LIMIT, band_primes, first_prime, probable_prime

# Bounded backtracking: give up on a pool after this many search nodes.
_SELECT_NODE_BUDGET = 10**6


@dataclass(frozen=True)
class PrimePool:
    """Ascending primes confined to one dyadic band: largest < 2 * smallest."""

    primes: tuple[int, ...]

    def __post_init__(self):
        ps = self.primes
        if not ps:
            raise ValueError("empty pool")
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise ValueError("pool must be strictly ascending")
        if not all(probable_prime(p) for p in ps):
            raise ValueError("pool members must be prime")
        if ps[-1] >= 2 * ps[0]:
            raise ValueError(f"band violated: {ps[-1]} >= 2*{ps[0]}")

    @property
    def product(self) -> int:
        return math.prod(self.primes)


@dataclass(frozen=True)
class GenerationResult:
    """Outcome of one sweep around a pool product k.

    offset is the signed even displacement of the prime found (None along
    with prime when the whole sweep came up empty, which sets
    conjecture2_violation).
    """

    k: int
    offset: int | None
    prime: int | None
    bit_length: int
    conjecture2_violation: bool


class NoFeasiblePool(ValueError):
    """No subset of the candidates has a product of the requested width."""


def select_pool(bits: int, candidate_primes) -> PrimePool:
    """A subset of the candidates whose product lies in [2^(bits-1), 2^bits).

    Candidates must be ascending primes within one dyadic band, so any
    subset automatically satisfies the band condition.  The search walks
    subset sizes in ascending order and, within a size, prefers larger
    primes; two-sided bounds (largest- and smallest-possible completion of
    the current branch) prune it, and a node budget caps the backtracking.
    """
    if bits < 2:
        raise ValueError("bits must be >= 2")
    cand = list(candidate_primes)
    if not cand:
        raise NoFeasiblePool("no candidates")
    if any(b <= a for a, b in zip(cand, cand[1:])):
        raise ValueError("candidates must be strictly ascending")
    if cand[-1] >= 2 * cand[0]:
        raise ValueError("candidates must fit one dyadic band [x, 2x)")
    lo, hi = 1 << (bits - 1), 1 << bits
    desc = cand[::-1]
    total = len(desc)
    # small[s]: product of the s smallest, up to the first that reaches hi
    small = [1]
    while len(small) <= total and small[-1] < hi:
        small.append(small[-1] * cand[len(small) - 1])
    nodes = 0

    def choose(size: int, largest: int) -> list[int] | None:
        # Depth-first, taking desc[i] before skipping it.  A pending node is
        # (i, prod, slots, depth, window): depth is how many of `chosen` are
        # its own, window the product of the `slots` largest remaining,
        # desc[i : i + slots] (0 when fewer remain, so the bound prunes it).
        # The stack holds at most one skip per level.
        nonlocal nodes
        chosen: list[int] = []
        stack = [(0, 1, size, 0, largest)]
        while stack:
            i, prod, slots, depth, window = stack.pop()
            del chosen[depth:]
            nodes += 1
            if nodes > _SELECT_NODE_BUDGET:
                raise NoFeasiblePool(
                    f"backtracking budget exhausted after {_SELECT_NODE_BUDGET} nodes"
                )
            if slots == 0:
                if lo <= prod < hi:
                    return sorted(chosen)
                continue
            # best case: the `slots` largest remaining; worst case: the smallest
            if prod * window < lo or prod * small[slots] >= hi:
                continue
            rest = window // desc[i]
            skip = rest * desc[i + slots] if i + slots < total else 0
            stack.append((i + 1, prod, slots, depth, skip))
            stack.append((i + 1, prod * desc[i], slots - 1, depth + 1, rest))
            chosen.append(desc[i])
        return None

    found = None
    largest = 1
    for size in range(1, total + 1):
        largest *= desc[size - 1]
        if largest < lo:
            continue  # even the largest primes cannot reach the band yet
        if small[size] >= hi:
            break  # every subset of this size (and beyond) overshoots
        found = choose(size, largest)
        if found is not None:
            break
    if found is None:
        raise NoFeasiblePool(f"no subset of {len(cand)} candidates reaches {bits} bits")
    return PrimePool(primes=tuple(found))


def sweep(k: int, p1: int, mr_rounds: int = DEFAULT_MR_ROUNDS, seed: int = 0) -> GenerationResult:
    """Test k+2, k-2, k+4, k-4, ... out to +/- 2*floor(p1/2) for primality.

    k must be odd (pools containing 2 make the even offsets pointless).
    Returns the first prime in that fixed order; an empty sweep is flagged
    as a Conjecture 2 violation for n = 2*floor(p1/2) + 1.  The interval
    [k - 2h, k + 2h], h = floor(p1/2), is sieved by the primes of the shared
    sieve first, and only its even offsets are visited (2 strikes only the
    odd ones): a 2048-bit candidate costs a modular power per test, a
    sieving prime one k mod p.
    """
    if k % 2 == 0:
        raise ValueError("k must be odd")
    half = p1 // 2
    order = (2 * (half + sign * j) for j in range(1, half + 1) for sign in (1, -1))
    prime = first_prime(k - 2 * half, 4 * half + 1, order, DEFAULT_SIEVE_LIMIT, mr_rounds, seed)
    return GenerationResult(
        k=k,
        offset=None if prime is None else prime - k,
        prime=prime,
        bit_length=(k if prime is None else prime).bit_length(),
        conjecture2_violation=prime is None,
    )


def generate(
    bits: int,
    band_start: int = 29,
    mr_rounds: int = DEFAULT_MR_ROUNDS,
    seed: int = 0,
    candidates: list[int] | None = None,
) -> tuple[PrimePool, GenerationResult]:
    """End to end: gather candidate primes in [band_start, 2*band_start),
    select a pool of the requested width, sweep around its product.

    band_start must be odd-prime territory (>= 3); candidate lists passed
    explicitly override the band scan but face the same checks.
    """
    if bits < 2:
        raise ValueError("bits must be >= 2")
    if candidates is None:
        if band_start < 3:
            raise ValueError("band_start must be >= 3 to keep products odd")
        candidates = band_primes(band_start, 2 * band_start)
    if candidates and candidates[0] == 2:
        raise ValueError("pools containing 2 are rejected; k must be odd")
    pool = select_pool(bits, candidates)
    return pool, sweep(pool.product, pool.primes[0], mr_rounds, seed)
