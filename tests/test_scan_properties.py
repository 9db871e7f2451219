"""Property tests of the row-by-row scan against per-window decisions."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from grimm.arith import Window
from grimm.assign import Counterexample, exact_representation_exists, scan_counterexamples
from oracles import exact_representation_feasible, naive_is_prime

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def reference_scan(m_lo, m_hi, n_lo, n_hi, exhaustive=True):
    """Every all-composite window of the rectangle decided on its own, and
    checked by the exhaustive search unless exhaustive is False."""
    out = []
    for m in range(m_lo, m_hi + 1):
        for n in range(n_lo, n_hi + 1):
            if any(naive_is_prime(m + i) for i in range(1, n + 1)):
                break
            decision = exact_representation_exists(Window(m, n))
            if exhaustive:
                assert decision.feasible == exact_representation_feasible(m, n), (m, n)
            if not decision.feasible:
                out.append(Counterexample(m=m, n=n, blocking_value=decision.blocking.value))
    return out


@PROPERTY
@given(
    st.integers(1, 5000),
    st.integers(0, 40),
    st.integers(1, 6),
    st.integers(0, 6),
)
def test_scan_matches_per_window_reference(m_lo, width, n_lo, extra):
    n_hi = n_lo + extra
    got = scan_counterexamples((m_lo, m_lo + width), (n_lo, n_hi))
    assert got == reference_scan(m_lo, m_lo + width, n_lo, n_hi)


@PROPERTY
@given(st.integers(90, 140), st.integers(0, 30), st.integers(1, 9))
def test_scan_matches_reference_near_120(m_lo, width, n_lo):
    # the blocked windows of README finding 2 all sit here
    got = scan_counterexamples((m_lo, m_lo + width), (n_lo, 12))
    assert got == reference_scan(m_lo, m_lo + width, n_lo, 12)


# The members of H(28) in [10^9, 1.34 * 10^9]: the rows just below them are
# walked with every element beyond the default 10^6 sieve, so the run's
# shared factorizations come from trial division and rho.  The last one's
# rows hold the census findings (1338557207, 23) and (1338557209, 23).
NEAR_1E9 = [
    1003917915, 1029659400, 1043031600, 1056755700, 1070845776, 1115464350, 1147334760,
    1163962800, 1181079900, 1216870200, 1235591280, 1274816400, 1338557220,
]


@settings(PROPERTY, max_examples=20)
@given(st.sampled_from(NEAR_1E9), st.integers(1, 28), st.integers(0, 16), st.integers(18, 28))
@example(1338557220, 13, 4, 18)
def test_scan_matches_reference_near_1e9(x, below, width, n_lo):
    # Decided one window at a time by the matching; the exhaustive search is
    # left out, its trial divisions taking seconds at this size.
    m_lo = x - below
    got = scan_counterexamples((m_lo, m_lo + width), (n_lo, 28))
    assert got == reference_scan(m_lo, m_lo + width, n_lo, 28, exhaustive=False)
