"""Property tests of the row-by-row scan against per-window decisions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from grimm.arith import Window
from grimm.assign import Counterexample, exact_representation_exists, scan_counterexamples
from oracles import exact_representation_feasible, naive_is_prime

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def reference_scan(m_lo, m_hi, n_lo, n_hi):
    """Every all-composite window of the rectangle decided on its own."""
    out = []
    for m in range(m_lo, m_hi + 1):
        for n in range(n_lo, n_hi + 1):
            if any(naive_is_prime(m + i) for i in range(1, n + 1)):
                break
            decision = exact_representation_exists(Window(m, n))
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
