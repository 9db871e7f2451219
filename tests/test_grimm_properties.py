"""Property tests of the Grimm assignment against the exhaustive oracle."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from grimm.arith import Window
from grimm.assign import grimm_assignment
from oracles import grimm_feasible, naive_factorize, naive_is_prime

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def fermat_screen(p: int) -> bool:
    """Fermat tests to bases 2, 3, 5, 7: a cheap independent screen for
    primes too large for trial division."""
    return all(pow(a, p - 1, p) == 1 for a in (2, 3, 5, 7) if p % a)


def assert_valid(w: Window, got) -> None:
    assert got.window == w
    assert len(got.primes) == w.n
    assert len(set(got.primes)) == w.n
    for x, p in zip(w.values(), got.primes):
        assert x % p == 0
        assert naive_is_prime(p) if p < 10**7 else fermat_screen(p)


def smooth_count(m: int, n: int) -> int:
    """Window elements whose prime factors all lie below n."""
    return sum(max(naive_factorize(x)) < n for x in range(m + 1, m + n + 1))


@lru_cache(maxsize=None)
def smooth_windows() -> list[tuple[int, int]]:
    """Windows of length 4..14 around 2^a 3^b with two or more n-smooth
    elements, the ones that reach the residual matcher."""
    out = []
    smooth = (2**a * 3**b for a in range(1, 17) for b in range(11))
    for s in sorted(x for x in smooth if x <= 10**5):
        for n in range(4, 15):
            for m in range(max(s - n, 1), s):
                if smooth_count(m, n) >= 2:
                    out.append((m, n))
    return out


@PROPERTY
@given(st.integers(1, 10**4 - 1), st.integers(1, 14))
def test_agrees_with_oracle_on_small_windows(m, n):
    w = Window(m, n)
    got = grimm_assignment(w)
    assert (got is not None) == grimm_feasible(m, n)
    if got is not None:
        assert_valid(w, got)


@PROPERTY
@given(st.data())
def test_agrees_with_oracle_on_smooth_windows(data):
    m, n = data.draw(st.sampled_from(smooth_windows()))
    assert smooth_count(m, n) >= 2
    w = Window(m, n)
    got = grimm_assignment(w)
    assert (got is not None) == grimm_feasible(m, n)
    if got is not None:
        assert_valid(w, got)


@settings(PROPERTY, max_examples=40)
@given(st.integers(10**12, 10**12 + 10**6), st.integers(1, 14))
def test_valid_beyond_the_sieve(m, n):
    # Elements near 10^12 are factored by trial division and rho; the
    # oracle's exhaustive search is too slow there, so only validity is checked.
    w = Window(m, n)
    got = grimm_assignment(w)
    if got is not None:
        assert_valid(w, got)
