"""Deterministic maximum bipartite matching (Hopcroft-Karp).

Left vertices are window indices, right vertices primes, but the algorithm
is generic.  No sets or hash-order iteration anywhere: identical instances
produce identical matchings, which the byte-stable reports rely on.
"""

from __future__ import annotations

from collections import deque

_INF = -1


def max_matching(adj: dict[int, list[int]]) -> list[tuple[int, int]]:
    """A maximum-cardinality matching as (left, right) pairs in left order.

    adj maps each left vertex to its right neighbours; the left order is
    the dict order, and neighbours are tried in list order.
    """
    left = list(adj)
    pair_l: dict[int, int] = {}
    pair_r: dict[int, int] = {}
    dist: dict[int, int] = {}

    def bfs() -> bool:
        queue = deque()
        for l in left:
            if l not in pair_l:
                dist[l] = 0
                queue.append(l)
            else:
                dist[l] = _INF
        reachable = False
        while queue:
            l = queue.popleft()
            for r in adj[l]:
                if r not in pair_r:
                    reachable = True
                else:
                    nxt = pair_r[r]
                    if dist[nxt] == _INF:
                        dist[nxt] = dist[l] + 1
                        queue.append(nxt)
        return reachable

    def dfs(root: int) -> bool:
        # Depth-first along the layers, on an explicit stack so that a path's
        # length is not bounded by the interpreter's recursion limit.
        trail = [(root, iter(adj[root]))]
        while trail:
            l, rights = trail[-1]
            for r in rights:
                nxt = pair_r.get(r)
                if nxt is None:
                    # From the last left vertex back to the root, each takes the
                    # right vertex that the one after it held; the last takes r.
                    for l, _ in reversed(trail):
                        pair_r[r] = l
                        pair_l[l], r = r, pair_l.get(l)
                    return True
                if dist[nxt] == dist[l] + 1:
                    trail.append((nxt, iter(adj[nxt])))
                    break
            else:
                dist[l] = _INF
                trail.pop()
        return False

    while bfs():
        for l in left:
            if l not in pair_l:
                dfs(l)
    return [(l, pair_l[l]) for l in left if l in pair_l]


def augment(
    adj: dict[int, list[int]], pair_r: dict[int, int], start: int
) -> bool:
    """One augmenting-path step for incremental matching growth.

    pair_r maps right vertex -> matched left vertex and is updated in
    place when an augmenting path from `start` is found.  The search is
    depth-first in adjacency order, with an explicit stack so the path
    length is not bounded by the interpreter's recursion limit.
    """
    seen: set[int] = set()
    trails = [iter(adj[start])]
    via: list[int] = []  # via[k]: the right vertex taken from the k-th left vertex
    while trails:
        for r in trails[-1]:
            if r in seen:
                continue
            seen.add(r)
            via.append(r)
            if r not in pair_r:
                l = start
                for step in via:
                    pair_r[step], l = l, pair_r.get(step)
                return True
            trails.append(iter(adj[pair_r[r]]))
            break
        else:
            trails.pop()
            if via:
                via.pop()
    return False
