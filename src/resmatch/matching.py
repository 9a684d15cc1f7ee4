"""Maximum matchings in general and bipartite graphs.

One engine, `_blossom`, finds every maximum matching here: augmenting-path
search with odd-cycle (blossom) contraction.  `nu`, the bipartite entry and
`resmatch.colorable.nu2_bipartite` run it in vertex order with sorted
adjacency.  `max_matching` first lets a seed permute the scan order, so
different seeds may return different maximum matchings of the same size;
results are deterministic for a fixed (graph, seed) pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Bipartition, Graph, normalize_edge, require_bipartite


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
    edges = frozenset(normalize_edge(u, v, host_size) for u, v in pairs)
    seen: set[int] = set()
    for u, v in edges:
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


def _blossom(n: int, adj: list[list[int]], order) -> list[int]:
    """Mate of every vertex of a maximum matching (0 = unmatched; slot 0 unused).

    A greedy pass over `order`, then one augmenting-path search from each
    still-free root in `order`, contracting odd cycles (blossoms) as in
    Edmonds' algorithm.  As in Gabow's implementation (JACM 1976) the search
    arrays are allocated once per call; each search resets only the vertices
    it reached, and lca walks mark with a stamp.  Ties fall to the order of
    `order` and of each adjacency list.
    """
    match = [0] * (n + 1)
    for v in order:
        if match[v] == 0:
            for to in adj[v]:
                if match[to] == 0:
                    match[v] = to
                    match[to] = v
                    break
    even = [False] * (n + 1)  # outer vertices of the current search tree
    p = [0] * (n + 1)  # tree parent of each inner vertex
    base = list(range(n + 1))  # base of the blossom holding each vertex
    mark = [0] * (n + 1)
    stamp = 0
    for root in order:
        if match[root] != 0:
            continue
        even[root] = True
        tree = [root]
        queue = [root]
        head = end = 0
        while head < len(queue) and end == 0:
            v = queue[head]
            head += 1
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != 0 and p[match[to]] != 0):
                    # odd cycle: contract the blossom down to the lca of v and to
                    stamp += 1
                    a = v
                    while True:
                        a = base[a]
                        mark[a] = stamp
                        if match[a] == 0:
                            break
                        a = p[match[a]]
                    curbase = base[to]
                    while mark[curbase] != stamp:
                        curbase = base[p[match[curbase]]]
                    petals = set()
                    for x, child in ((v, to), (to, v)):
                        while base[x] != curbase:
                            petals.update((base[x], base[match[x]]))
                            p[x] = child
                            child = match[x]
                            x = p[child]
                    grown = []
                    for i in tree:
                        if base[i] in petals:
                            base[i] = curbase
                            if not even[i]:
                                even[i] = True
                                grown.append(i)
                    # in vertex order: the queue order decides which matching is found
                    grown.sort()
                    queue += grown
                elif p[to] == 0:
                    p[to] = v
                    tree.append(to)
                    if match[to] == 0:
                        end = to
                        break
                    even[match[to]] = True
                    tree.append(match[to])
                    queue.append(match[to])
        while end != 0:
            pv = p[end]
            ppv = match[pv]
            match[end] = pv
            match[pv] = end
            end = ppv
        for x in tree:
            even[x] = False
            p[x] = 0
            base[x] = x
    return match


def _matching(mate: list[int]) -> Matching:
    return Matching(frozenset((v, w) for v, w in enumerate(mate) if w > v), len(mate) - 1)


def _unshuffled(g: Graph) -> list[int]:
    return _blossom(g.vertex_count, g.adjacency(), range(1, g.vertex_count + 1))


def max_matching(g: Graph, seed: int = 0) -> Matching:
    """Maximum matching of g via blossom contraction.

    The seed shuffles both the vertex processing order and each adjacency
    list; it changes which maximum matching is returned, never its size.
    """
    rng = random.Random(seed)
    adj = g.adjacency()
    for lst in adj:
        rng.shuffle(lst)
    order = list(range(1, g.vertex_count + 1))
    rng.shuffle(order)
    return _matching(_blossom(g.vertex_count, adj, order))


def max_matching_bipartite(g: Graph, b: Bipartition | None = None) -> Matching:
    """Maximum matching of a bipartite graph (the blossom engine, unshuffled).

    Which maximum matching is returned is unspecified.
    """
    require_bipartite(g, b)
    return _matching(_unshuffled(g))


def nu(g: Graph) -> int:
    """Maximum matching size: the blossom engine in vertex order, no shuffles."""
    return sum(map(bool, _unshuffled(g))) // 2


def validate_matching(g: Graph, m: Matching) -> MatchingFlags:
    """Check m against g: validity, maximality, maximumness, perfection."""
    cov = m.covered()
    # edges of g have two distinct ends, so they are disjoint iff they cover 2|m| vertices
    if m.host_size != g.vertex_count or not m.edges <= g.edges or len(cov) != 2 * len(m):
        return MatchingFlags(False, False, False, False)
    maximal = all(u in cov or v in cov for u, v in g.edges)
    perfect = 2 * len(m) == g.vertex_count
    maximum = perfect or len(m) == nu(g)
    return MatchingFlags(True, maximal, maximum, perfect)
