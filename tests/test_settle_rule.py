"""The H(n) settle rule: a window whose elements all carry a prime power
> n needs no row walk, since its canonical parts are all > 1."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grimm.arith import Window, is_prime, largest_prime_power
from grimm.assign import Counterexample, _decide_row, scan_counterexamples
from grimm.coprime import CanonicalRow, construct_representation, verify_representation
from grimm.smooth import in_hn
from oracles import naive_factorize, naive_is_prime

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def naive_top(x):
    return max((p**e for p, e in naive_factorize(x).items()), default=1)


@PROPERTY
@given(st.integers(1, 10**6), st.integers(1, 30))
def test_settled_random_windows_have_nontrivial_canonical_parts(m, n):
    tops = [naive_top(x) for x in range(m + 1, m + n + 1)]
    assume(min(tops) > n)
    assert [pow(*largest_prime_power(x)) for x in range(m + 1, m + n + 1)] == tops
    rep = construct_representation(Window(m, n))
    assert rep.all_factors_nontrivial and verify_representation(rep), (m, n)


def test_settle_rule_exhaustive_small():
    # every window m <= 3000, n <= 20: settled ones have a checked canonical
    # certificate with all parts > 1; the rest meet H(n) or hold a prime <= n
    tops = [naive_top(x) for x in range(1, 3021)]
    for m in range(1, 3001):
        row = CanonicalRow(m)
        low = tops[m]
        for n in range(1, 21):
            row.extend()
            low = min(low, tops[m + n - 1])
            if low > n:
                rep = row.representation()
                assert rep.all_factors_nontrivial and verify_representation(rep), (m, n)
            else:
                window = range(m + 1, m + n + 1)
                assert any(x <= n and is_prime(x) or in_hn(x, n) for x in window), (m, n)


def walk_every_row(m_lo, m_hi, n_hi):
    composite = [not naive_is_prime(x) for x in range(m_hi + n_hi + 1)]
    tops = [naive_top(x) for x in range(m_lo + 1, m_hi + n_hi + 1)]
    out = []
    for m in range(m_lo, m_hi + 1):
        run = 0  # the composites m+1, m+2, ... in a row, at most n_hi
        while run < n_hi and composite[m + run + 1]:
            run += 1
        k = m - m_lo
        for n, blocking in _decide_row(m, 1, run, tops[k : k + run]):
            if blocking is not None:
                out.append(Counterexample(m=m, n=n, blocking_value=blocking.value))
    return out


def test_hn_rows_keep_every_unsettled_row():
    # scan decides only the rows within n_hi below a member of H(n_hi) or a
    # prime <= n_hi; both edges (x at offset n_hi, L(x) = n_hi) matter here
    for n_hi in (8, 11, 17, 20):
        assert scan_counterexamples((1, 20000), (1, n_hi)) == walk_every_row(1, 20000, n_hi), n_hi
