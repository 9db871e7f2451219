import math
import random

import pytest

import grimm.arith
from grimm.arith import Window, default_sieve, largest_prime_power, representation_threshold
from grimm.coprime import (
    CanonicalRow,
    CoprimeRepresentation,
    construct_representation,
    full_representation,
    representation_from_factors,
    verify_representation,
)
from oracles import (
    binomial_prime_exponents,
    canonical_factors,
    floor_sum_exponents,
    naive_factorize,
    naive_is_prime,
    naive_vp,
)


def test_construct_203_7():
    rep = construct_representation(Window(203, 7))
    assert verify_representation(rep)
    # the canonical rule parks 5 on 205, leaving 210 with a trivial part
    assert rep.factors == (17, 205, 103, 207, 208, 209, 1)
    assert not rep.all_factors_nontrivial


def test_known_tuple_validates():
    rep = representation_from_factors(Window(203, 7), (17, 41, 103, 207, 208, 209, 5))
    assert verify_representation(rep)
    assert rep.all_factors_nontrivial


def test_perturbed_tuple_fails():
    # 34 still divides 204, but the product picks up a stray factor 2
    rep = representation_from_factors(Window(203, 7), (34, 41, 103, 207, 208, 209, 5))
    assert not verify_representation(rep)


def test_construct_116_10_has_trivial_part_at_120():
    rep = construct_representation(Window(116, 10))
    assert verify_representation(rep)
    assert rep.factors[3] == 1  # 120 receives nothing
    assert all((116 + i) % a == 0 for i, a in enumerate(rep.factors, start=1))


def test_construct_degenerate_windows():
    rep = construct_representation(Window(1, 1))
    assert rep.factors == (2,)
    assert verify_representation(rep)
    # m = 0 windows: C(n, n) = 1, every part 1, still valid
    rep0 = construct_representation(Window(0, 4))
    assert rep0.factors == (1, 1, 1, 1)
    assert verify_representation(rep0)


def test_all_ones_fails_when_product_nontrivial():
    rep = representation_from_factors(Window(1, 1), (1,))
    assert not verify_representation(rep)


def test_verify_rejects_broken_assignments():
    from grimm.coprime import CoprimeRepresentation

    w = Window(1, 1)
    good = construct_representation(w)
    assert verify_representation(good)
    # duplicate prime entries
    bad = CoprimeRepresentation(w, (2,), ((2, 1, 1), (2, 1, 1)))
    assert not verify_representation(bad)
    # assignment does not rebuild the parts
    bad = CoprimeRepresentation(w, (2,), ((2, 2, 1),))
    assert not verify_representation(bad)
    # exponent zero
    bad = CoprimeRepresentation(w, (2,), ((2, 0, 1),))
    assert not verify_representation(bad)
    # non-prime base
    bad = CoprimeRepresentation(Window(3, 1), (4,), ((4, 1, 1),))
    assert not verify_representation(bad)


def test_window_exponents_match_direct_division():
    rng = random.Random(11)
    for _ in range(150):
        m = rng.randrange(1, 2000)
        n = rng.randrange(1, 11)
        row = CanonicalRow(m)
        for _ in range(n):
            row.extend()
        want = binomial_prime_exponents(m, n)
        assert row.exponents() == floor_sum_exponents(m, n) == want
        assert list(row.exponents()) == sorted(want)
        assert row.factors == [naive_factorize(m + i) for i in range(1, n + 1)]


def test_construct_passes_verify_on_grid():
    rng = random.Random(77)
    for _ in range(400):
        w = Window(rng.randrange(1, 10**5), rng.randrange(1, 13))
        rep = construct_representation(w)
        assert verify_representation(rep), w


def test_product_identity_against_comb():
    rng = random.Random(13)
    for _ in range(100):
        w = Window(rng.randrange(1, 500), rng.randrange(1, 9))
        rep = construct_representation(w)
        assert math.prod(rep.factors) == math.comb(w.m + w.n, w.n)


def test_exponent_conservation():
    rng = random.Random(17)
    for _ in range(100):
        w = Window(rng.randrange(1, 10**4), rng.randrange(1, 12))
        rep = construct_representation(w)
        merged: dict[int, int] = {}
        for p, e, _ in rep.assignment:
            merged[p] = merged.get(p, 0) + e
        assert merged == floor_sum_exponents(w.m, w.n)


def test_full_representation_fixtures():
    rep = full_representation(Window(421, 7))
    assert rep.all_factors_nontrivial and verify_representation(rep)
    rep = full_representation(Window(2521, 10))
    assert rep.all_factors_nontrivial and verify_representation(rep)
    with pytest.raises(ValueError):
        full_representation(Window(420, 7))  # boundary excluded


def test_full_representation_sampled():
    rng = random.Random(23)
    for n in range(2, 11):
        bound = representation_threshold(n)
        for m in [bound + 1, bound + 17, rng.randrange(bound + 1, bound + 10**6)]:
            rep = full_representation(Window(m, n))
            assert rep.all_factors_nontrivial
            assert verify_representation(rep)


def witness(w: Window, i: int) -> int | None:
    """The prime p of L(m+i) = p^v, checked by largest_prime_power, if p^v > n
    (the H(n) lemma's witness for the element m+i), once the oracle puts its
    exponent in C(m+n, n) in [1, v]; None for x in H(n), a prime <= n, or x < 2."""
    x = w.m + i
    p, v = largest_prime_power(x) if x >= 2 else (1, 0)
    if p**v <= w.n:
        return None
    assert 1 <= binomial_prime_exponents(w.m, w.n).get(p, 0) <= v, (w, x)
    return p


def test_witness_fixtures():
    assert witness(Window(116, 10), 5) == 11  # 121 = 11^2 > 10
    assert witness(Window(2, 4), 4) is None   # 6 lies in H(4)
    assert witness(Window(0, 3), 2) is None   # 2 prime, 2 <= n
    assert witness(Window(0, 3), 1) is None   # element 1
    assert witness(Window(112, 4), 1) == 113  # prime > n


def test_witness_properties_randomized():
    rng = random.Random(29)
    for _ in range(500):
        m = rng.randrange(1, 10**5)
        n = rng.randrange(1, 25)
        i = rng.randrange(1, n + 1)
        w = Window(m, n)
        p = witness(w, i)
        if p is not None:
            v = naive_vp(p, m + i)
            assert p**v > n
            e = binomial_prime_exponents(m, n).get(p, 0)
            assert 1 <= e <= v


def test_row_exponents_match_floor_sums():
    # e_p(m, n) = e_p(m, n-1) + v_p(m+n) - v_p(n), against the floor sums
    for m in range(300):
        row = CanonicalRow(m)
        for n in range(1, 40):
            row.extend()
            got = {p: e for p, e, _ in row.representation().assignment}
            assert got == row.exponents() == floor_sum_exponents(m, n), (m, n)


def test_row_representation_is_canonical():
    rng = random.Random(31)
    limit = default_sieve().limit  # windows past it are factored without the table
    for _ in range(60):
        m = rng.choice((rng.randrange(1, 10**5), rng.randrange(limit, limit + 10**5)))
        row = CanonicalRow(m)
        for n in range(1, 17):
            row.extend()
            rep = row.representation()
            assert rep == construct_representation(Window(m, n))
            assert rep.factors == canonical_factors(m, n), (m, n)
            assert verify_representation(rep)


def test_verify_rejects_each_defect():
    w = Window(203, 7)
    good = construct_representation(w)
    assert verify_representation(good)
    p, e, i = good.assignment[0]  # 2^3 on 208
    # a missing prime: the parts divide their elements but their product
    # falls short of C(210, 7)
    factors = list(good.factors)
    factors[i - 1] //= p**e
    rest = good.assignment[1:]
    assert not verify_representation(CoprimeRepresentation(w, tuple(factors), rest))
    # a wrong exponent, carried into the parts as well
    factors[i - 1] *= p ** (e - 1)
    wrong = ((p, e - 1, i),) + rest
    assert not verify_representation(CoprimeRepresentation(w, tuple(factors), wrong))
    # parts that are not coprime, with the product still C(4, 3) = 4 and
    # every part dividing its element (2 | 2, 1 | 3, 2 | 4)
    twice = Window(1, 3)
    for assignment in (((2, 1, 1),), ((2, 1, 1), (2, 1, 3))):
        assert not verify_representation(CoprimeRepresentation(twice, (2, 1, 2), assignment))
    # a composite entry whose power is otherwise consistent: C(4, 1) = 4
    assert not verify_representation(CoprimeRepresentation(Window(3, 1), (4,), ((4, 1, 1),)))


def test_verify_primality_beyond_the_sieve(monkeypatch):
    limit = default_sieve().limit
    prime = next(x for x in range(limit + 1, 2 * limit) if naive_is_prime(x))
    composite = next(
        x for x in range(limit + 1, 2 * limit) if x % 2 and not naive_is_prime(x)
    )
    calls = []
    real = grimm.arith.is_prime
    monkeypatch.setattr(grimm.arith, "is_prime", lambda x: calls.append(x) or real(x))
    # the window x-1+1 = x: C(x, 1) = x is one part owning a single "prime" x
    for x, expected in ((prime, True), (composite, False)):
        rep = CoprimeRepresentation(Window(x - 1, 1), (x,), ((x, 1, 1),))
        assert verify_representation(rep) is expected
    assert calls == [prime, composite]
