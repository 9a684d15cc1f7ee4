"""Maximum matchings in general and bipartite graphs.

General graphs are handled by augmenting-path search with odd-cycle (blossom)
contraction; bipartite graphs by layered augmenting-path search.  A seed
permutes the scan order, so different seeds may return different maximum
matchings of the same size; results are deterministic for a fixed
(graph, seed) pair.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .graph import Bipartition, Graph, bipartition, is_valid_bipartition, normalize_edge


class CapExceededError(RuntimeError):
    """An exhaustive oracle refused an input above its size cap."""


@dataclass(frozen=True)
class Matching:
    edges: frozenset[tuple[int, int]]
    host_size: int

    def __len__(self) -> int:
        return len(self.edges)

    def covered(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def to_lines(self) -> str:
        return "".join(f"m {u} {v}\n" for u, v in self.sorted_edges())


def matching_from_pairs(pairs, host_size: int) -> Matching:
    edges = frozenset(normalize_edge(u, v) for u, v in pairs)
    seen: set[int] = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        if not (1 <= u <= host_size) or not (1 <= v <= host_size):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 1..{host_size}")
        if u in seen or v in seen:
            raise ValueError(f"edges share vertex {u if u in seen else v}")
        seen.update((u, v))
    return Matching(edges, host_size)


@dataclass(frozen=True)
class MatchingFlags:
    valid: bool
    maximal: bool
    maximum: bool
    perfect: bool


def max_matching(g: Graph, seed: int = 0) -> Matching:
    """Maximum matching of g via blossom contraction.

    The seed shuffles both the vertex processing order and each adjacency
    list; remaining ties fall to the lowest vertex index.
    """
    n = g.vertex_count
    rng = random.Random(seed)
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in g.sorted_edges():
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        rng.shuffle(lst)
    order = list(range(1, n + 1))
    rng.shuffle(order)

    match = [0] * (n + 1)
    for v in order:
        if match[v] == 0:
            for to in adj[v]:
                if match[to] == 0:
                    match[v] = to
                    match[to] = v
                    break

    def lca(a: int, b: int, p: list[int], base: list[int]) -> int:
        seen = [False] * (n + 1)
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == 0:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, flower: list[bool], p: list[int], base: list[int]):
        while base[v] != b:
            flower[base[v]] = True
            flower[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_augmenting(root: int) -> tuple[int, list[int]]:
        used = [False] * (n + 1)
        p = [0] * (n + 1)
        base = list(range(n + 1))
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != 0 and p[match[to]] != 0):
                    # odd cycle: contract the blossom down to its base
                    curbase = lca(v, to, p, base)
                    flower = [False] * (n + 1)
                    mark_path(v, curbase, to, flower, p, base)
                    mark_path(to, curbase, v, flower, p, base)
                    for i in range(1, n + 1):
                        if flower[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == 0:
                    p[to] = v
                    if match[to] == 0:
                        return to, p
                    used[match[to]] = True
                    queue.append(match[to])
        return 0, p

    for root in order:
        if match[root] != 0:
            continue
        end, p = find_augmenting(root)
        if end == 0:
            continue
        while end != 0:
            pv = p[end]
            ppv = match[pv]
            match[end] = pv
            match[pv] = end
            end = ppv

    edges = frozenset(normalize_edge(v, match[v]) for v in range(1, n + 1) if match[v] > v)
    return Matching(edges, n)


def max_matching_bipartite(g: Graph, b: Bipartition | None = None) -> Matching:
    """Maximum matching of a bipartite graph by layered augmenting paths."""
    if b is None:
        b = bipartition(g)
        if b is None:
            raise ValueError("graph is not bipartite")
    elif not is_valid_bipartition(g, b):
        raise ValueError("invalid bipartition for this graph")
    inf = float("inf")
    left = sorted(b.side0)
    adj = g.adjacency()
    pair_l: dict[int, int] = {u: 0 for u in left}
    pair_r: dict[int, int] = {v: 0 for v in b.side1}
    dist: dict[int, float] = {}

    def bfs() -> bool:
        queue = deque()
        for u in left:
            if pair_l[u] == 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = pair_r[v]
                if w == 0:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = pair_r[v]
            if w == 0 or (dist[w] == dist[u] + 1 and dfs(w)):
                pair_l[u] = v
                pair_r[v] = u
                return True
        dist[u] = inf
        return False

    while bfs():
        for u in left:
            if pair_l[u] == 0:
                dfs(u)
    edges = frozenset(normalize_edge(u, v) for u, v in pair_l.items() if v != 0)
    return Matching(edges, g.vertex_count)


def nu(g: Graph, seed: int = 0) -> int:
    """Maximum matching size."""
    return len(max_matching(g, seed))


def validate_matching(g: Graph, m: Matching) -> MatchingFlags:
    """Check m against g: validity, maximality, maximumness, perfection."""
    valid = m.host_size == g.vertex_count and m.edges <= g.edges
    if valid:
        covered: set[int] = set()
        for u, v in m.edges:
            if u in covered or v in covered:
                valid = False
                break
            covered.update((u, v))
    if not valid:
        return MatchingFlags(False, False, False, False)
    cov = m.covered()
    maximal = all(u in cov or v in cov for u, v in g.edges)
    perfect = 2 * len(m) == g.vertex_count
    maximum = perfect or len(m) == nu(g)
    return MatchingFlags(valid, maximal, maximum, perfect)


def nu_bruteforce(g: Graph, cap: int = 24) -> int:
    """Exhaustive maximum matching size; refuses graphs above the edge cap."""
    if g.edge_count > cap:
        raise CapExceededError(f"graph has {g.edge_count} edges, cap is {cap}")
    edges = g.sorted_edges()
    total = len(edges)
    best = 0
    used: set[int] = set()

    def rec(idx: int, size: int):
        nonlocal best
        if size > best:
            best = size
        while idx < total and (edges[idx][0] in used or edges[idx][1] in used):
            idx += 1
        if idx == total or size + (total - idx) <= best:
            return
        u, v = edges[idx]
        used.add(u)
        used.add(v)
        rec(idx + 1, size + 1)
        used.discard(u)
        used.discard(v)
        rec(idx + 1, size)

    rec(0, 0)
    return best


def iter_all_matchings(g: Graph):
    """Yield every matching of g (including the empty one) as a frozenset.

    Purely exhaustive; used as an independent oracle in tests and by the
    exhaustive spectrum oracle.
    """
    edges = g.sorted_edges()
    total = len(edges)
    current: list[tuple[int, int]] = []
    used: set[int] = set()

    def rec(idx: int):
        yield frozenset(current)
        for i in range(idx, total):
            u, v = edges[i]
            if u in used or v in used:
                continue
            current.append(edges[i])
            used.update((u, v))
            yield from rec(i + 1)
            current.pop()
            used.difference_update((u, v))

    yield from rec(0)
