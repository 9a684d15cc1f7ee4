"""Maximum matchings in general and bipartite graphs.

One engine finds every maximum matching here, and every augmentation goes
through one entry: `_augment`, a single-root augmenting-path search with
odd-cycle (blossom) contraction in the whole graph less the edges of a
skipped-edge mate array, or, above a threshold lo > 0, in the vertices above
lo that end no skipped edge.  With lo = 0 it first takes a path of length 1
or 3 from the root if there is one, the path its search would find first,
and runs no search.  It is called with lo = 0 by `_blossom`, a greedy pass
followed by one `_augment` from each free root, which `nu`, the bipartite
entry and `resmatch.colorable.nu2_bipartite` run in vertex order with sorted
adjacency and no skipped edge, as do the enumerator's root matching and
every seeded matching; and by `resmatch.spectrum`'s enumerator, which
completes and repairs its matching of the whole graph with the chosen edges
skipped.  The enumerator's other matching, of its undecided vertices, is
repaired by `_augment` above a threshold lo > 0.  The enumerator first
asks `_fixed_mates` for edges of its root matching M that every maximum
matching holds, all of them on a bipartite graph: one search from the
M-free vertices and an iterative Tarjan pass over the digraph with an arc
x -> mate(w) for each edge x - w, with no sides, in O(V + E) and with no
recursion.  `max_matching` first lets a seed permute the scan order, so
different seeds may return different maximum matchings of the same size;
results are deterministic for a fixed (graph, seed) pair.

The seed's permutations are those of CPython's `random.shuffle`, reproduced
draw for draw from `getrandbits`: each adjacency list in vertex order, then
the vertex order, from one generator seeded with the seed.  `_seeded_mates`
serves a batch of seeds on one graph: it builds the lists, their shuffle plan
(`_shuffle_plan`), the search arrays and one `random.Random` once, and per
seed reseeds the generator (the stream of `random.Random(seed)`; an int seed
goes straight to the C `seed` under the Python wrapper), shuffles
copies (`_shuffled`) and runs `_blossom`; `max_matching` is one such seed.
Every seed after a batch's first hands `_blossom` the first one's size, and
`_blossom` starts no root search once its matching has that size: all
maximum matchings have it, so the searches it skips would all fail, and a
failing search writes nothing to the matching.
`tests/golden/seeded_matchings.json` and the differential tests in
`tests/test_matching.py` pin that equivalence.  Should a later CPython change
its shuffle, both fail; the fix is then to drop the inline copy and call
`rng.shuffle` again, which changes the seeded matchings (and the `bench`
residual column) on that CPython.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .graph import Bipartition, Graph, normalize_edge, require_bipartite


Matching = frozenset[tuple[int, int]]  # a matching is its edge set, each edge (u, v) with u < v


def matching_from_pairs(pairs, vertex_count: int) -> Matching:
    """pairs as a matching on 1..vertex_count; ValueError if two share a vertex."""
    edges = frozenset(normalize_edge(u, v, vertex_count) for u, v in pairs)
    seen: set[int] = set()
    for u, v in edges:
        if u in seen or v in seen:
            raise ValueError(f"edges share vertex {u if u in seen else v}")
        seen.update((u, v))
    return edges


class MatchingFlags(NamedTuple):
    valid: bool
    maximal: bool
    maximum: bool
    perfect: bool


def _blossom(n: int, adj: list[list[int]], order, arrays, size=None) -> list[int]:
    """Mate of every vertex of a maximum matching (0 = unmatched; slot 0 unused).

    A greedy pass over `order`, then one `_augment` with lo = 0 from each
    still-free root in `order` that has a neighbour, with the caller's
    scratch arrays (`_search_arrays(n)`, no edge skipped): an isolated root's
    search would reach only the root and fail.  Ties fall to the order of
    `order` and of each adjacency list.

    With size, the size of a maximum matching of the graph, no root search
    starts once 2 * size vertices are matched, and the result is the same:
    all maximum matchings of a graph have one size, so a matching of that
    size is maximum; in a maximum matching there is no augmenting path
    (Berge), so every search left would fail; and a failing `_augment` writes
    nothing to match (only the final flip along a found path writes) and
    leaves the arrays as it found them (it resets what it reached, and mark
    is only ever compared with a fresh stamp).
    """
    match = [0] * (n + 1)
    for v in order:
        if match[v] == 0:
            for to in adj[v]:
                if match[to] == 0:
                    match[v] = to
                    match[to] = v
                    break
    # augmentations still to find; without size -1, which only falls and so never reaches 0
    short = -1 if size is None else size - (n + 1 - match.count(0)) // 2
    for root in order:
        if match[root] == 0:
            if not short:  # the matching has size: every search left would fail
                break
            if adj[root]:
                short -= _augment(adj, match, root, 0, arrays)
    return match


def _search_arrays(n: int):
    """Scratch arrays for `_augment` on vertices 1..n: outer flags, tree
    parents, blossom bases, lca and petal marks (mark[0] holds the last
    stamp), and the skipped-edge mates (all 0: no edge is skipped)."""
    return [False] * (n + 1), [0] * (n + 1), list(range(n + 1)), [0] * (n + 1), [0] * (n + 1)


def _augment(adj, match, root: int, lo: int, arrays) -> bool:
    """Augment `match` along one augmenting path from the free vertex root,
    if there is one, contracting odd cycles (blossoms) as in Edmonds'
    algorithm.  True when it augmented.

    With the mate array skip (the last of the arrays: skip[v] = w hides the
    edge (v, w), 0 hides nothing) it sees the whole graph less the skipped
    edges if lo = 0, else the subgraph on the vertices above lo that end no
    skipped edge; match is a matching and root is free.  As in Gabow (JACM 1976) the
    scratch arrays outlive the search, which resets only the vertices it
    reached; each contraction stamps mark twice, once for the lca walk and
    once for the bases of its petals, so no set is built per blossom.  An
    edge's cheapest tests come first.

    With lo = 0 it first takes a path of length 1, root - w with w the first
    free visible neighbour in adj[root] order, or else one of length 3,
    root - x = y - w with x the first in adj[root] order whose mate y has a
    free neighbour w other than root and skip[y] (the first such w), and
    then runs no search and leaves the scratch arrays alone.  That is the
    path the search would find first, for any matching and skipped edges.
    - While it scans root, the search stops at the first free visible
      neighbour before it scans any other vertex: a free vertex is never in
      the tree (base[w] = w, p[w] = 0), and a contraction writes p only on
      vertices of the tree.  That neighbour gives the path of length 1.
    - If root has no free visible neighbour, the search queues mate(x) for
      each visible neighbour x in adj[root] order: a new odd x queues its
      mate, and if the mate y of x is already odd, x closes the triangle
      root - y = x - root, whose contraction makes y even and queues it.  So
      the first even vertices it queues are those y, in that order, and
      every vertex grown later is queued after them.  The first y with a
      free neighbour w other than root (and not skip[y]) ends the search on
      root - x = y - w at its first such w.
    - If there is no such y, the check writes nothing and the search runs as
      it would alone.  A short path skips the search's contractions, so
      mark[0] can differ afterwards; that does not matter, since mark is
      only ever compared with a fresh stamp.
    """
    even, p, base, mark, skip = arrays
    if not lo:
        hidden = skip[root]
        for x in adj[root]:
            if x != hidden and not match[x]:
                match[root], match[x] = x, root
                return True
        for x in adj[root]:
            if x == hidden:
                continue
            y = match[x]  # every visible neighbour of root is matched
            for w in adj[y]:
                if not match[w] and w != root and w != skip[y]:
                    match[root], match[x], match[y], match[w] = x, root, w, y
                    return True
    even[root] = True
    tree = [root]
    queue = [root]
    end = 0
    for v in queue:  # the loop reads the outer vertices queued while it runs
        mate, hidden = match[v], skip[v]  # neither changes until the search ends
        bv = base[v]  # changes only when a blossom absorbs v
        for to in adj[v]:
            if to == mate or to == hidden or to <= lo or base[to] == bv or lo and skip[to]:
                continue
            mt = match[to]
            if to == root or (mt and p[mt]):
                # odd cycle: contract the blossom down to the lca of v and to
                mark[0] += 1
                stamp = mark[0]
                x = v
                while True:
                    x = base[x]
                    mark[x] = stamp
                    if match[x] == 0:
                        break
                    x = p[match[x]]
                curbase = base[to]
                while mark[curbase] != stamp:
                    curbase = base[p[match[curbase]]]
                # a fresh stamp marks the bases of the blossom's petals
                mark[0] += 1
                stamp = mark[0]
                for x, child in ((v, to), (to, v)):
                    while base[x] != curbase:
                        mark[base[x]] = mark[base[match[x]]] = stamp
                        p[x] = child
                        child = match[x]
                        x = p[child]
                grown = []
                for i in tree:
                    if mark[base[i]] == stamp:
                        base[i] = curbase
                        if not even[i]:
                            even[i] = True
                            grown.append(i)
                # in vertex order: the queue order decides which matching is found
                grown.sort()
                queue += grown
                bv = base[v]
            elif p[to] == 0:
                p[to] = v
                tree.append(to)
                if mt == 0:
                    end = to
                    break
                even[mt] = True
                tree.append(mt)
                queue.append(mt)
        if end:
            break
    found = end != 0
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
    return found


def _fixed_mates(n: int, adj, mate: list[int]) -> list[int]:
    """Mate array of edges of mate, a maximum matching M, that every maximum
    matching holds (0 elsewhere): all such edges if the graph is bipartite.

    An M-edge missing from a maximum matching M' lies on a component of
    M ⊕ M' (Berge): an even alternating path from an M-free vertex, whose
    ends the search from the M-free vertices reaches (x - w leads on to
    mate[w]; slot 0, the mate of an M-free w, counts as reached), or an
    alternating cycle x1 = y1 - x2 = y2 ... - x1, whose ends yi form the
    directed cycle yi -> yi+1 in the digraph with an arc x -> mate[w] for
    each neighbour w of x.  So an M-edge is fixed if neither end is reached
    nor lies in a strongly connected component of two or more nodes, which
    an iterative Tarjan pass finds (the loop x -> mate[mate[x]] = x and
    slot 0, which starts finished, change no low link).

    On a bipartite graph each step x - w = mate[w] stays on x's side, so
    the walk f - w1 = y1 - ... - wk = yk by which the search reached yk has
    its yi, each reached once, on the free root f's side and their mates wi
    on the other: it is an even alternating path.  A directed cycle
    y1 -> ... -> yk -> y1 gives the alternating cycle
    y1 - mate[y2] = y2 - ... - mate[y1] = y1.  So every M-edge left out
    lies on one of the two, and M ⊕ it is a maximum matching without it."""
    loose = [not m for m in mate]  # ends whose M-edge is not fixed; the M-free vertices, slot 0
    queue = [v for v in range(1, n + 1) if not mate[v]]
    for x in queue:  # the queue grows while it is read
        for w in adj[x]:
            y = mate[w]
            if not loose[y]:
                loose[y] = True
                queue.append(y)
    order = [0] * (n + 1)  # Tarjan's visit number; n + 1 once the node's component is out
    order[0] = n + 1  # slot 0 is no node
    low = [0] * (n + 1)
    component: list[int] = []  # Tarjan's stack of visited nodes not yet in a component
    count = 0
    for root in range(1, n + 1):
        if order[root]:
            continue
        count += 1
        order[root] = low[root] = count
        component.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            x, nbrs = work[-1]
            for w in nbrs:
                y = mate[w]
                if not order[y]:
                    count += 1
                    order[y] = low[y] = count
                    component.append(y)
                    work.append((y, iter(adj[y])))
                    break
                if order[y] < low[x]:
                    low[x] = order[y]
            else:
                work.pop()
                if work and low[x] < low[work[-1][0]]:
                    low[work[-1][0]] = low[x]
                if low[x] == order[x]:  # x roots a component: pop it
                    cycle = component[-1] != x  # two or more nodes: each is on a directed cycle
                    while True:
                        y = component.pop()
                        order[y] = n + 1
                        loose[y] = loose[y] or cycle
                        if y == x:
                            break
    return [0 if loose[v] or loose[m] else m for v, m in enumerate(mate)]  # either end rules it out


def _matching(mate: list[int]) -> Matching:
    return frozenset((v, w) for v, w in enumerate(mate) if w > v)


def _unshuffled(g: Graph) -> list[int]:
    n = g.vertex_count
    return _blossom(n, g.adjacency(), range(1, n + 1), _search_arrays(n))


def _shuffle_plan(lists):
    """(index, steps) for each of lists that a shuffle can change (length 2
    or more), in order: steps are the (i, k) that `random.shuffle` runs
    through, i from len - 1 down to 1 and k = (i + 1).bit_length(), the bits
    each try of its `_randbelow(i + 1)` draws."""
    return [(x, [(i, (i + 1).bit_length()) for i in range(len(lst) - 1, 0, -1)])
            for x, lst in enumerate(lists) if len(lst) > 1]


def _shuffled(lists, plan, getrandbits):
    """A copy of lists whose members named in plan are shuffled copies, drawn
    in plan order exactly as `random.shuffle` draws: j = getrandbits(k) until
    j <= i, then swap; the other members are shared, not copied."""
    out = lists[:]
    for x, steps in plan:
        lst = out[x] = lists[x][:]
        for i, k in steps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            lst[i], lst[j] = lst[j], lst[i]
    return out


def _seeded_mates(g: Graph, seeds):
    """The mate array of `max_matching(g, seed)` for each of seeds in turn;
    the lists (each adjacency list, then the vertex order), their plan, the
    search arrays and the generator are built once per call, not per seed.
    Every seed after the first passes the first one's size to `_blossom`,
    which then starts no search once the matching has that size: the same
    mate arrays, without the searches that would fail."""
    n = g.vertex_count
    lists = [*g.adjacency(), list(range(1, n + 1))]
    plan = _shuffle_plan(lists)
    arrays = _search_arrays(n)
    rng = random.Random()
    getrandbits = rng.getrandbits
    # an int seeds the C generator as the Python wrapper's seed would; the
    # wrapper hashes str and bytes seeds first, so any other seed keeps it
    seed_int = super(random.Random, rng).seed
    size = None  # the size of every maximum matching of g, once the first seed has one
    for seed in seeds:
        if isinstance(seed, int):
            seed_int(seed)
        else:
            rng.seed(seed)
        adj = _shuffled(lists, plan, getrandbits)
        mate = _blossom(n, adj, adj.pop(), arrays, size=size)  # the last list is the vertex order
        if size is None:
            size = (n + 1 - mate.count(0)) // 2
        yield mate


def max_matching(g: Graph, seed: int = 0) -> Matching:
    """Maximum matching of g via blossom contraction.

    The seed shuffles each adjacency list, then the vertex processing order;
    it changes which maximum matching is returned, never its size.  A batch
    of seeds gets the same matchings from `_seeded_mates` with one set-up.
    """
    return _matching(next(_seeded_mates(g, (seed,))))


def max_matching_bipartite(g: Graph, b: Bipartition | None = None) -> Matching:
    """Maximum matching of a bipartite graph (the blossom engine, unshuffled).

    Which maximum matching is returned is unspecified.  A given bipartition
    b is checked against g in place of two-coloring it; only the benchmark
    harness passes one.
    """
    require_bipartite(g, b)
    return _matching(_unshuffled(g))


def nu(g: Graph) -> int:
    """Maximum matching size: the blossom engine in vertex order, no shuffles."""
    return sum(map(bool, _unshuffled(g))) // 2


def _covered(m: Matching) -> frozenset[int]:
    return frozenset(v for e in m for v in e)


def _is_matching_of(g: Graph, m: Matching, cov: frozenset[int]) -> bool:
    """Whether m, which covers cov, is a matching of g: edges of g, pairwise disjoint."""
    # edges of g have two distinct ends, so they are disjoint iff they cover 2|m| vertices
    return m <= g.edges and len(cov) == 2 * len(m)


def validate_matching(g: Graph, m: Matching) -> MatchingFlags:
    """Check m against g: validity, maximality, maximumness, perfection."""
    cov = _covered(m)
    if not _is_matching_of(g, m, cov):
        return MatchingFlags(False, False, False, False)
    maximal = all(u in cov or v in cov for u, v in g.edges)
    perfect = 2 * len(m) == g.vertex_count
    maximum = perfect or len(m) == nu(g)
    return MatchingFlags(True, maximal, maximum, perfect)
