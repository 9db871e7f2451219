"""Pinned exact-representation decisions and factorize reports.

The digests were recorded from the implementation that decided each
window with its own exponent map and admissibility graph.  They cover the
whole decision (feasibility, certificate, assignment order and blocking
evidence) through repr, so any change in the graph, its adjacency order or
a tie-break shows up here as a changed digest.
"""

import contextlib
import hashlib
import io

import pytest

from grimm.arith import Window
from grimm.assign import exact_representation_exists
from grimm.cli import EXIT_OK, run


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_decisions_over_small_grid():
    h = hashlib.sha256()
    for m in range(1, 401):
        for n in range(1, 21):
            h.update(repr(exact_representation_exists(Window(m, n))).encode() + b"\n")
    assert h.hexdigest() == "2932ac088ac77000741888fe17a1637bba7fa499b0c52a52ba95be1f0f282c23"


# Windows past the shared sieve: two infeasible ones just above it, windows
# near 10^9 whose canonical representation has a trivial part (so the
# matching decides them), and windows near 10^12.
LARGE = {
    (1361352, 17): (False, "522fd90e5d3261839857a4baffc41053dd7394f315f84f2b1c4a91b293bc8093"),
    (6126111, 17): (False, "63238dfdc9dace6b637d20fe6580f96c86c7fd567777b6075977f4d2a4289619"),
    (1029659388, 25): (True, "f7428ffef80b838f1d0016e178163c0bf14dbcede5109b68b52e462052646d27"),
    (999999999, 25): (True, "656f18304fb97387e2726940255593b2ef83f885b49806269117a98e18fe41a9"),
    (999999999999, 20): (True, "a83d5a267c815799eeb771ed0a31ea6ffa8d6e016f0309ad991673cf4d323d41"),
    (1000000000038, 24): (True, "effa491ae0cc7360c0317d0902c694d585c833a337341ff531a945788da8644f"),
}


@pytest.mark.parametrize("window", sorted(LARGE))
def test_decisions_past_the_sieve(window):
    decision = exact_representation_exists(Window(*window))
    assert (decision.feasible, _sha(repr(decision))) == LARGE[window]


FACTORIZE_JSON = {
    (203, 7): "ea4c7410c73a87cbe91d7ab937b9637af3564cf4e5b7a8ac7266099f2bcb9055",
    (116, 10): "c0727ba73da1263363ccc109fbcb45df3ae6b4cb177efb5b43696cbb7fbb6bc8",
    (1, 5): "c53ecfae68e2f7d96bb89150053c6fbded00fd715ad7af4aeb6b1a9759e26407",
}


@pytest.mark.parametrize("window", sorted(FACTORIZE_JSON))
def test_factorize_report_bytes(window):
    m, n = window
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["factorize", "--m", str(m), "--n", str(n), "--format", "json"])
    assert code == EXIT_OK
    assert _sha(out.getvalue()) == FACTORIZE_JSON[window]
