"""Coprime factor assignments for binomial coefficients over a window.

C(m+n, n) always factors as a_1 * ... * a_n with a_i | (m+i) and the a_i
pairwise coprime: push each prime power of the coefficient onto one window
element of maximal valuation.  Parts equal to 1 can occur; they provably
cannot once m clears representation_threshold(n), and full_representation
enforces that stronger form.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .arith import (
    InternalContradiction,
    Window,
    all_prime,
    factorize,
    representation_threshold,
)
from .smooth import in_hn

# The factorizations of the widths 1, 2, ...: every row divides by the same
# ones, so each is factored once per process.  The cached maps are shared
# and only ever read.
_width_factors = functools.cache(factorize)


@functools.cache
def _factorial_exponents(k: int) -> tuple[tuple[int, int], ...]:
    """(p, v_p(k!)) for every prime p <= k, from the widths' factorizations."""
    total: dict[int, int] = {}
    for j in range(2, k + 1):
        for p, v in _width_factors(j).items():
            total[p] = total.get(p, 0) + v
    return tuple(total.items())


@dataclass(frozen=True)
class CoprimeRepresentation:
    """A tuple (a_1..a_n) for a window, with its prime-to-index assignment.

    assignment entries are (prime, exponent, index), index 1-based; each
    prime appears in exactly one entry and a_i is the product of its
    entries' prime powers.
    """

    window: Window
    factors: tuple[int, ...]
    assignment: tuple[tuple[int, int, int], ...]

    @property
    def all_factors_nontrivial(self) -> bool:
        return min(self.factors, default=2) > 1


class CanonicalRow:
    """The canonical representations of C(m+n, n) for n = 1, 2, ..., one
    window element at a time.

    Each step factors the new element m+n once, takes the width n's
    factorization from a per-process table, and moves the exponents by
    the ratio C(m+n, n) / C(m+n-1, n-1) = (m+n) / n:
    e_p(m, n) = e_p(m, n-1) + v_p(m+n) - v_p(n).  Per prime it keeps the
    largest valuation in the window and the smallest index attaining it,
    which is where the canonical rule puts the prime's power.

    The row starts at width n, its first n elements taken in one pass that
    subtracts the exponents of n! once.  Element factorizations are read
    from, and added to, the dict known when one is given, so rows that
    share it factor each element once.

    factors[i-1] is the ascending factorization of the element m+i.
    """

    def __init__(self, m: int, n: int = 0, known: dict[int, dict[int, int]] | None = None):
        if m < 0:
            raise ValueError(f"window base must be >= 0, got m={m}")
        self.m = m
        self.n = 0
        self._exps: dict[int, int] = {}
        self._top: dict[int, int] = {}
        self._at: dict[int, int] = {}
        self._known = {} if known is None else known
        self.factors: list[dict[int, int]] = []
        self._grow(n)
        # Every prime of n! is at most n, so it divides a window element
        # and already has an entry.
        for p, v in _factorial_exponents(n):
            self._exps[p] -= v

    def _grow(self, count: int) -> None:
        """Append the next count elements and add their exponents, dividing
        by no width."""
        m, exps, top, at, known = self.m, self._exps, self._top, self._at, self._known
        for n in range(self.n + 1, self.n + count + 1):
            x = m + n
            element = known.get(x)
            if element is None:
                element = known[x] = factorize(x)
            self.factors.append(element)
            for p, v in element.items():
                exps[p] = exps.get(p, 0) + v
                if v > top.get(p, 0):
                    top[p] = v
                    at[p] = n
        self.n += count

    def extend(self) -> None:
        """Grow the window by its next element m+n+1."""
        self._grow(1)
        # Every prime of n is at most n, so it has an entry.
        for p, v in _width_factors(self.n).items():
            self._exps[p] -= v

    def exponents(self) -> dict[int, int]:
        """{p: v_p(C(m+n, n))} for every prime dividing the coefficient,
        ascending in p."""
        return {p: e for p, e in sorted(self._exps.items()) if e}

    def representation(self) -> CoprimeRepresentation:
        """The canonical representation of the current window m+1 .. m+n."""
        top, at = self._top, self._at
        assignment = [(p, e, at[p]) for p, e in sorted(self._exps.items()) if e]
        factors = [1] * self.n
        for p, e, i in assignment:
            if e > top[p]:
                raise InternalContradiction(
                    f"v_{p} of the coefficient exceeds the window maximum"
                    f" at m={self.m}, n={self.n}"
                )
            factors[i - 1] *= p**e
        return CoprimeRepresentation(
            window=Window(self.m, self.n),
            factors=tuple(factors),
            assignment=tuple(assignment),
        )


def construct_representation(w: Window) -> CoprimeRepresentation:
    """The canonical representation: each prime power of C(m+n, n) goes to
    the smallest window index of maximal valuation.

    Total for every window (degenerate ones included); factors equal to 1
    are allowed here.
    """
    return CanonicalRow(w.m, w.n).representation()


def representation_from_factors(w: Window, factors) -> CoprimeRepresentation:
    """Wrap an externally supplied tuple (a_1..a_n), deriving its assignment
    by factoring each part.  Validity is not assumed; run
    verify_representation on the result."""
    factors = tuple(int(a) for a in factors)
    if len(factors) != w.n:
        raise ValueError(f"expected {w.n} parts, got {len(factors)}")
    if any(a < 1 for a in factors):
        raise ValueError("parts must be >= 1")
    assignment = []
    for i, a in enumerate(factors, start=1):
        for p, e in factorize(a).items():
            assignment.append((p, e, i))
    assignment.sort()
    return CoprimeRepresentation(window=w, factors=factors, assignment=tuple(assignment))


def verify_representation(r: CoprimeRepresentation) -> bool:
    """Exact check of all representation invariants, sharing no code with
    any construction.

    Divisibility a_i | (m+i); assignment consistency (distinct primes,
    positive exponents, per-index products equal to the parts, which makes
    the parts pairwise coprime); and prod(a_i) == C(m+n, n), which, the
    primes being distinct, pins every exponent.
    """
    w = r.window
    m, n = w.m, w.n
    if len(r.factors) != n or min(r.factors) < 1:
        return False
    if any(map(operator.mod, w.values(), r.factors)):
        return False
    primes = [p for p, _, _ in r.assignment]
    if len(set(primes)) != len(primes) or not all_prime(primes):
        return False
    rebuilt = [1] * n
    for p, e, i in r.assignment:
        if e < 1 or not 1 <= i <= n:
            return False
        rebuilt[i - 1] *= p**e
    return tuple(rebuilt) == r.factors and math.prod(r.factors) == math.comb(m + n, n)


def full_representation(w: Window) -> CoprimeRepresentation:
    """The canonical representation when m > representation_threshold(n),
    where every part is guaranteed greater than 1.

    Checks on the way that no window element lands in H(n); a violation of
    either guarantee raises InternalContradiction, since it would
    contradict the threshold argument rather than reflect bad input.
    """
    m, n = w.m, w.n
    bound = representation_threshold(n)
    if m <= bound:
        raise ValueError(f"m={m} not above threshold {bound} for n={n}")
    for x in w.values():
        if in_hn(x, n):
            raise InternalContradiction(f"{x} in H({n}) despite m > {bound}")
    rep = construct_representation(w)
    if not rep.all_factors_nontrivial:
        raise InternalContradiction(f"trivial part above the threshold: {rep.factors}")
    return rep
