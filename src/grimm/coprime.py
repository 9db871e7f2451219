"""Coprime factor assignments for binomial coefficients over a window.

C(m+n, n) always factors as a_1 * ... * a_n with a_i | (m+i) and the a_i
pairwise coprime: push each prime power of the coefficient onto one window
element of maximal valuation.  Parts equal to 1 can occur; they provably
cannot once m clears representation_threshold(n), and full_representation
enforces that stronger form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .arith import (
    Window,
    _vp,
    _vp_binomial,
    all_prime,
    factorize,
    representation_threshold,
)
from .smooth import in_hn


class InternalContradiction(ArithmeticError):
    """A guaranteed arithmetic fact failed to hold: defect, not bad input."""


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


def window_prime_exponents(w: Window) -> dict[int, int]:
    """{p: v_p(C(m+n, n))} over every prime dividing the coefficient.

    Any prime factor of C(m+n, n) divides the window product, so the
    candidates come from factoring the n window elements.
    """
    m, n = w.m, w.n
    primes: set[int] = set()
    for x in w.values():
        if x > 1:
            primes.update(factorize(x))
    out: dict[int, int] = {}
    for p in sorted(primes):
        e = _vp_binomial(p, m, n)
        if e > 0:
            out[p] = e
    return out


class CanonicalRow:
    """The canonical representations of C(m+n, n) for n = 1, 2, ..., one
    window element at a time.

    Each step factors the new element m+n once and moves the exponents by
    the ratio C(m+n, n) / C(m+n-1, n-1) = (m+n) / n:
    e_p(m, n) = e_p(m, n-1) + v_p(m+n) - v_p(n).  Per prime it keeps the
    largest valuation in the window and the smallest index attaining it,
    which is where the canonical rule puts the prime's power.
    """

    def __init__(self, m: int):
        if m < 0:
            raise ValueError(f"window base must be >= 0, got m={m}")
        self.m = m
        self.n = 0
        self._exps: dict[int, int] = {}
        self._top: dict[int, int] = {}
        self._at: dict[int, int] = {}

    def extend(self) -> None:
        """Grow the window by its next element m+n+1."""
        n = self.n + 1
        exps, top = self._exps, self._top
        for p, v in factorize(self.m + n).items():
            exps[p] = exps.get(p, 0) + v
            if v > top.get(p, 0):
                top[p] = v
                self._at[p] = n
        # Every prime of n is at most n, so it divides a window element
        # and already has an entry.
        for p, v in factorize(n).items():
            exps[p] -= v
        self.n = n

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
    row = CanonicalRow(w.m)
    for _ in range(w.n):
        row.extend()
    return row.representation()


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


def dominant_prime_witness(w: Window, i: int) -> int | None:
    """A prime p with p^(v_p(m+i)) > n, when m+i lies outside H(n).

    Such a prime makes m+i the unique valuation maximum in the window, and
    its exponent in C(m+n, n) is pinned between 1 and v_p(m+i); both facts
    are re-checked here.  Returns None when m+i is in H(n), is a prime not
    exceeding n, or is below 2.
    """
    if not 1 <= i <= w.n:
        raise ValueError(f"index {i} outside 1..{w.n}")
    x = w.m + i
    if x < 2:
        return None
    witness = None
    for p, e in factorize(x).items():
        if p**e > w.n:
            witness = p
            break
    if witness is None:
        return None
    e_binom = _vp_binomial(witness, w.m, w.n)
    v_here = _vp(witness, x)
    if not 1 <= e_binom <= v_here:
        raise InternalContradiction(
            f"witness {witness} at {x}: coefficient valuation {e_binom}"
            f" outside [1, {v_here}]"
        )
    return witness
