"""Largest subgraphs that split into two disjoint matchings.

For bipartite hosts this is a degree-constrained subgraph: cap
every vertex at two incident chosen edges and maximize the edge count.  In a
bipartite graph any subgraph with maximum degree two is a disjoint union of
paths and even cycles, so it always splits into two matchings.  Tutte's
gadget ("A short proof of the factor theorem for finite graphs", 1954) turns
the degree caps into one ordinary maximum matching, which the blossom engine
of `resmatch.matching` computes.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, require_bipartite
from .matching import _blossom, _search_arrays, nu


class ColorableResult(NamedTuple):
    size: int
    classes: tuple[frozenset[tuple[int, int]], ...]


def _two_color(chosen: set[tuple[int, int]]) -> tuple[frozenset, frozenset]:
    """Split a max-degree-two edge set into two matchings.

    Each path is walked from its lowest-indexed endpoint and each cycle from
    its lowest-indexed vertex, alternating classes along the walk.  Each
    step takes the lowest edge at the current vertex that no walk has taken,
    and removes it from both ends' neighbour lists.
    """
    nbr: dict[int, list[int]] = {}
    for u, v in sorted(chosen):  # so each neighbour list is sorted
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    classes: tuple[list, list] = ([], [])
    ends = sorted(v for v, lst in nbr.items() if len(lst) == 1)
    for start in ends + sorted(nbr):
        cur = start
        c = 0
        while nbr[cur]:
            nxt = nbr[cur].pop(0)
            nbr[nxt].remove(cur)
            classes[c].append((cur, nxt) if cur < nxt else (nxt, cur))
            c = 1 - c
            cur = nxt
    return frozenset(classes[0]), frozenset(classes[1])


def nu2_bipartite(g: Graph) -> ColorableResult:
    """Largest union of two disjoint matchings in a bipartite graph.

    One maximum matching of Tutte's degree-constraint gadget: vertex u gets
    copies u and n+u, and edge k = (u, v) becomes the path
    copies(u) - a - b - copies(v) with a = 2n+2k+1 and b = a+1.  An edge path
    holds two matching edges when a and b are both matched to copies and one
    otherwise, so the gadget's maximum matching has |E| + nu2 edges.  An edge
    is chosen when its a and b are both matched, not to each other (a matched
    with b free is not chosen); the chosen edges have maximum degree two and
    the witness splits them into two matchings.  g is two-colored first, and
    a ValueError raised when it has an odd cycle.
    """
    require_bipartite(g)
    n = g.vertex_count
    edges = g.sorted_edges()
    gadget: list[list[int]] = [[] for _ in range(2 * n + 2 * len(edges) + 1)]
    for k, (u, v) in enumerate(edges):
        a = 2 * n + 2 * k + 1
        for x, y in ((u, a), (n + u, a), (v, a + 1), (n + v, a + 1), (a, a + 1)):
            gadget[x].append(y)
            gadget[y].append(x)
    top = len(gadget) - 1
    mate = _blossom(top, gadget, range(1, top + 1), _search_arrays(top))
    size = sum(map(bool, mate)) // 2 - len(edges)
    chosen = set()
    for k, e in enumerate(edges):
        a = 2 * n + 2 * k + 1
        if mate[a] and mate[a + 1] and mate[a] != a + 1:
            chosen.add(e)
    assert len(chosen) == size
    class0, class1 = _two_color(chosen)
    assert len(class0) + len(class1) == size
    return ColorableResult(size, (class0, class1))


def upper_bound_L(g: Graph) -> int:
    """nu_2 - nu: after deleting any maximum matching, at most this many
    disjoint edges remain, so it bounds the residual spectrum from above."""
    return nu2_bipartite(g).size - nu(g)
