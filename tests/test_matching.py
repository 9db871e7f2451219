import random

from grimm.matching import augment, max_matching
from oracles import brute_max_matching_size, recursive_augment, recursive_max_matching


def test_complete_bipartite():
    matching = max_matching({1: [10, 20, 30], 2: [10, 20, 30], 3: [10, 20, 30]})
    assert len(matching) == 3
    assert len({r for _, r in matching}) == 3


def test_star():
    assert len(max_matching({1: [7], 2: [7], 3: [7]})) == 1


def test_isolated_left_vertex():
    assert max_matching({1: [5], 2: []}) == [(1, 5)]


def test_random_instances_against_exhaustive_optimum():
    rng = random.Random(101)
    for _ in range(300):
        nl = rng.randrange(1, 9)
        nr = rng.randrange(1, 9)
        left = tuple(range(1, nl + 1))
        right = tuple(range(100, 100 + nr))
        edges = {
            l: [r for r in right if rng.random() < 0.4] for l in left
        }
        got = max_matching(edges)
        assert len(got) == brute_max_matching_size(list(left), edges)
        # validity: edges exist and right side untouched twice
        assert all(r in edges[l] for l, r in got)
        assert len({r for _, r in got}) == len(got)


def test_deterministic():
    rng = random.Random(5)
    for _ in range(50):
        left = tuple(range(1, 7))
        right = tuple(range(50, 58))
        edges = {
            l: [r for r in right if rng.random() < 0.5] for l in left
        }
        first = max_matching(edges)
        for _ in range(3):
            assert max_matching(edges) == first


def test_incremental_augment_matches_batch():
    rng = random.Random(31)
    for _ in range(100):
        left = list(range(1, rng.randrange(2, 8)))
        right = list(range(30, 30 + rng.randrange(2, 8)))
        adj = {l: sorted(r for r in right if rng.random() < 0.5) for l in left}
        pair_r: dict[int, int] = {}
        grown = 0
        for l in left:
            grown += augment(adj, pair_r, l)
        assert grown == len(max_matching(adj))


def test_augment_matches_recursive_reference():
    # Same search order as the recursive Kuhn step, so the same pair_r.
    rng = random.Random(47)
    for _ in range(300):
        left = list(range(1, rng.randrange(2, 10)))
        right = list(range(40, 40 + rng.randrange(2, 10)))
        adj = {l: [r for r in right if rng.random() < 0.4] for l in left}
        rng.shuffle(left)
        got: dict[int, int] = {}
        want: dict[int, int] = {}
        for l in left:
            assert augment(adj, got, l) == recursive_augment(adj, want, l)
            assert got == want


def test_augment_long_path_under_default_recursion_limit():
    # Left k is matched to right k and also adjacent to right k+1; a new
    # left vertex 0 reaching right 1 forces an augmenting path through all
    # of them, 2k+1 = 3001 edges, deeper than the default recursion limit.
    k = 1500
    adj = {0: [1], **{i: [i, i + 1] for i in range(1, k + 1)}}
    pair_r = {i: i for i in range(1, k + 1)}
    assert augment(adj, pair_r, 0)
    assert pair_r == {i + 1: i for i in range(k + 1)}


def test_max_matching_matches_recursive_reference():
    # The explicit-stack dfs visits in the recursive order, so the pairs agree.
    rng = random.Random(53)
    for _ in range(500):
        nl, nr = rng.randrange(1, 14), rng.randrange(1, 14)
        density = rng.choice((0.15, 0.3, 0.5))
        adj = {l: [r for r in range(100, 100 + nr) if rng.random() < density]
               for l in rng.sample(range(nl + 5), nl)}
        for rs in adj.values():
            rng.shuffle(rs)
        assert max_matching(adj) == recursive_max_matching(adj)


def test_max_matching_long_path_under_default_recursion_limit():
    # The first phase matches left i to right i and leaves 2999 unmatched; the
    # next augmenting path runs through all 3000 left vertices, which the
    # recursive dfs could not follow (900 vertices were within its reach).
    adj = {i: [i, i + 1] for i in range(2999)}
    adj[2999] = [0]
    assert max_matching(adj) == [*((i, i + 1) for i in range(2999)), (2999, 0)]
