"""Maximum matching in general graphs.

Implements the blossom-contraction augmenting-path algorithm on an
adjacency-list graph over vertices ``0..len(adj)-1``, where V is the
number of vertices it is given.  The paired check in `validate` passes
one connected component at a time, so V stays small there; the
projection cascade's matching repair passes a whole set, about 1000
members on a 61x61 grid.  Each root's search resets O(V) state
(``parent`` and ``base`` for every vertex, and the O(V) lists of `lca`
and of each blossom), so a whole matching costs at least O(V^2) even
when the induced subgraph is many small components; O(V^3) in the worst
case.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


def maximum_matching(adj: Sequence[Sequence[int]]) -> list[int]:
    """Return ``mate`` where ``mate[v]`` is v's partner or -1 if exposed.

    ``adj`` must be symmetric: ``u in adj[v]`` iff ``v in adj[u]``.
    """
    n = len(adj)
    mate = [-1] * n
    parent = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def find_path(root: int) -> int:
        for v in range(n):
            parent[v] = -1
            base[v] = v
        used = [False] * n
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    # odd cycle: contract the blossom and re-scan its vertices
                    b = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, b, to, blossom)
                    mark_path(to, b, v, blossom)
                    for u in range(n):
                        if blossom[base[u]]:
                            base[u] = b
                            if not used[u]:
                                used[u] = True
                                queue.append(u)
                elif parent[to] == -1:
                    parent[to] = v
                    if mate[to] == -1:
                        return to
                    used[mate[to]] = True
                    queue.append(mate[to])
        return -1

    for v in range(n):
        if mate[v] != -1:
            continue
        end = find_path(v)
        while end != -1:
            prev = parent[end]
            hop = mate[prev]
            mate[end] = prev
            mate[prev] = end
            end = hop
    return mate
