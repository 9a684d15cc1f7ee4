"""The warm-started enumerator against the per-node-bound reference.

Both branch on the lowest remaining edge and take it before dropping it, so
they must yield the same (matching, residual) pairs in the same order: the
witnesses, the census and the cap all read that order.
"""

import importlib
import random

import pytest

from oracles import (
    covering_cnf,
    cycle,
    iter_maximum_matchings_bounded,
    path,
    random_bipartite,
    random_graph,
    residual,
    took_short_path,
)
from resmatch.graph import bipartition, build_graph
from resmatch.matching import _augment, _blossom, _fixed_mates, _search_arrays, max_matching
from resmatch.reduction import build_artifact, parse_dimacs
from resmatch.spectrum import _iter_maximum_matchings, spectrum


def assert_same_stream(g):
    # the package yields each matching as its sorted edge tuple
    want = [(tuple(sorted(m)), r) for m, r in iter_maximum_matchings_bounded(g)]
    assert list(_iter_maximum_matchings(g)) == want


@pytest.mark.parametrize("seed", range(120))
def test_same_stream_on_gnp(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 13)
    assert_same_stream(random_graph(n, rng.choice((0.15, 0.3, 0.45, 0.6)), rng))


@pytest.mark.parametrize("seed", range(60))
def test_same_stream_on_bipartite(seed):
    rng = random.Random(500 + seed)
    assert_same_stream(random_bipartite(rng.randint(2, 14), 40, rng))


@pytest.mark.parametrize("seed", range(30))
def test_same_stream_with_isolated_vertices(seed):
    """A G(n, p) graph spread over a larger vertex set, so that isolated
    vertices sit between, before and after its vertices: the root blossom
    starts no search from an isolated root, and the enumerator leaves each
    one unmatched."""
    rng = random.Random(700 + seed)
    g = random_graph(rng.randint(1, 11), rng.choice((0.2, 0.35, 0.5)), rng)
    total = g.vertex_count + rng.randint(1, 4)
    label = [0, *sorted(rng.sample(range(1, total + 1), g.vertex_count))]
    assert_same_stream(build_graph(total, [(label[u], label[v]) for u, v in g.edges]))


@pytest.mark.parametrize("seed", range(20))
def test_same_stream_on_sparse_odd_graphs(seed):
    """G(31, 2/25): odd order, so no perfect matching, and many vertices that
    some maximum matching misses, so most nodes search their drop child."""
    assert_same_stream(random_graph(31, 0.08, random.Random(f"g31:{seed}")))


def dense24(seed: int):
    """24 vertices, 68 edges drawn from all pairs: thousands of maximum matchings."""
    pairs = [(u, v) for u in range(1, 25) for v in range(u + 1, 25)]
    return build_graph(24, random.Random(seed).sample(pairs, 68))


@pytest.mark.parametrize("seed", range(4))
def test_same_stream_on_dense_24_vertex_graphs(seed):
    assert_same_stream(dense24(seed))


@pytest.mark.parametrize("variant", ["L", "ell"])
@pytest.mark.parametrize("num_vars, m", [(3, 1), (3, 2), (4, 2), (5, 2), (5, 4), (6, 2), (6, 3)])
def test_same_stream_on_artifacts(variant, num_vars, m):
    assert_same_stream(build_artifact(covering_cnf(10 * num_vars + m, num_vars, m), variant).graph)


def assert_fixed_edges(g):
    """_fixed_mates of the root matching M, a mate array, is the set of edges
    of M that every matching of the reference stream holds if g is
    bipartite, and a subset of that set otherwise; returns it."""
    n = g.vertex_count
    adj = g.adjacency()
    mate = _blossom(n, adj, range(1, n + 1), _search_arrays(n))
    held = _fixed_mates(n, adj, mate)
    got = {(v, w) for v, w in enumerate(held) if w > v}
    want = {(v, w) for v, w in enumerate(mate) if w > v}
    for m, _ in iter_maximum_matchings_bounded(g):
        want &= m
    assert got == want if bipartition(g) else got <= want
    assert all(held[w] == v for v, w in enumerate(held) if w)  # a mate array
    return got


@pytest.mark.parametrize("seed", range(60))
def test_fixed_edges_on_bipartite(seed):
    rng = random.Random(500 + seed)
    assert_fixed_edges(random_bipartite(rng.randint(2, 14), 40, rng))


@pytest.mark.parametrize("variant", ["L", "ell"])
@pytest.mark.parametrize("num_vars, m", [(3, 1), (3, 2), (4, 2), (5, 2), (5, 4), (6, 2), (6, 3)])
def test_fixed_edges_on_artifacts(variant, num_vars, m):
    """An L artifact's perfect matchings have 16m edges, 10m of them fixed;
    an ell artifact's have 14m, 8m of them fixed."""
    g = build_artifact(covering_cnf(10 * num_vars + m, num_vars, m), variant).graph
    assert len(assert_fixed_edges(g)) == (10 if variant == "L" else 8) * m


# a tree whose maximum matchings leave 1 or 3 free: (2, 4) is on the even
# alternating path from 1 or 3, so only (4, 5) and (6, 7) are fixed
FORK = build_graph(7, [(1, 2), (2, 3), (2, 4), (4, 5), (5, 6), (6, 7)])


@pytest.mark.parametrize("g, fixed", [
    (path(8), {(1, 2), (3, 4), (5, 6), (7, 8)}),  # the only maximum matching
    (cycle(8), set()),  # two perfect matchings, each the other's alternating cycle
    (path(7), set()),  # each maximum matching misses one odd vertex
    (FORK, {(4, 5), (6, 7)}),
    # a triangle beside a path on four vertices: in all three maximum matchings
    (build_graph(7, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7)]), {(4, 5), (6, 7)}),
    # P_10 and the chord (1, 3): the triangle 1 2 3 leaves the one perfect matching alone
    (build_graph(10, [(i, i + 1) for i in range(1, 10)] + [(1, 3)]),
     {(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)}),
    # triangles 1 2 4 and 3 5 6 joined by (2, 5): all three edges of the one
    # perfect matching are fixed, but the arcs 2 -> 1 -> 5 -> 3 -> 2 close a
    # directed cycle through the ends of all three, which is no alternating cycle
    (build_graph(6, [(1, 2), (1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (5, 6)]), set()),
])
def test_fixed_edges_by_hand(g, fixed):
    assert assert_fixed_edges(g) == fixed
    assert_same_stream(g)


@pytest.mark.parametrize("seed", range(60))
def test_fixed_edges_on_gnp(seed):
    rng = random.Random(f"fixed:{seed}")
    g = random_graph(rng.randint(1, 13), rng.choice((0.15, 0.3, 0.45, 0.6)), rng)
    assert_fixed_edges(g)
    assert_same_stream(g)


# clause 1 2 3 three times and -1 -2 -3 three times: 3 or 6 clauses satisfied
GAPPED_CNF = "p cnf 3 6\n" + "1 2 3 0\n" * 3 + "-1 -2 -3 0\n" * 3


@pytest.mark.parametrize("variant, vertices, achieved", [
    ("L", 192, {62, 65}),
    ("ell", 168, {59, 62}),
])
def test_gapped_spectrum_survives_pruning(variant, vertices, achieved):
    """A residual spectrum need not be an interval; a pruned child that held
    a leaf would show here as a lost value."""
    g = build_artifact(parse_dimacs(GAPPED_CNF), variant).graph
    assert g.vertex_count == vertices
    assert spectrum(g).achieved == achieved
    assert_same_stream(g)


def test_leaf_residual_needs_no_nu_or_delete_edges(monkeypatch):
    spectrum_module = importlib.import_module("resmatch.spectrum")
    # the cold residual lives with the test oracles: spectrum imports neither half
    assert not hasattr(spectrum_module, "nu") and not hasattr(spectrum_module, "delete_edges")
    homes = {"nu": "resmatch.matching", "delete_edges": "resmatch.graph",
             "_blossom": "resmatch.spectrum"}
    calls = dict.fromkeys(homes, 0)

    def counting(name):
        real = getattr(importlib.import_module(homes[name]), name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name, home in homes.items():
        monkeypatch.setattr(importlib.import_module(home), name, counting(name))
    g = dense24(0)
    items = list(_iter_maximum_matchings(g))
    assert len(items) == 4316
    # one blossom at the root; each leaf yields the residual it carried
    assert calls == {"nu": 0, "delete_edges": 0, "_blossom": 1}
    assert all(r == residual(g, frozenset(c)) for c, r in items)


def test_spectrum_builds_a_matching_only_at_each_residuals_first_leaf(monkeypatch):
    spectrum_module = importlib.import_module("resmatch.spectrum")
    built = []

    def counted(*args):
        built.append(frozenset(*args))
        return built[-1]

    # the module's frozenset builds each witness edge set, then the achieved set
    monkeypatch.setattr(spectrum_module, "frozenset", counted, raising=False)
    values = set()
    for seed in range(10):  # seed 4 reaches three residual values in 27 matchings
        g = random_graph(20, 0.15, random.Random(seed))
        built.clear()
        report = spectrum(g)
        values.add(len(report.achieved))
        assert len(built) == len(report.achieved) + 1 and built[-1] is report.achieved
        # each is its residual's witness: the first leaf of the stream with that residual
        firsts = {}
        for pos, (chosen, r) in enumerate(_iter_maximum_matchings(g), start=1):
            firsts.setdefault(r, (pos, frozenset(chosen)))
        assert list(report.first_seen) == [
            (r, pos, edges) for r, (pos, edges) in firsts.items()]
        assert all(m is b for (_, _, m), b in zip(report.first_seen, built))
    assert values == {1, 2, 3}


def short_paths(g, res, hidden, a):
    """Every augmenting path of length 1 or 3 from the free vertex a, by
    brute force over the edges of g less the hidden ones: (a, w) with w free,
    or (a, x, y, w) with (x, y) in the matching res and w free."""
    visible = g.edges - hidden
    free = {v for v in range(1, g.vertex_count + 1) if not res[v]}
    ends = [(w,) for w in free if tuple(sorted((a, w))) in visible]
    for x, y in [(x, res[x]) for x in range(1, g.vertex_count + 1) if res[x]]:
        for w in free - {a}:
            if tuple(sorted((a, x))) in visible and tuple(sorted((y, w))) in visible:
                ends.append((x, y, w))
    return ends


@pytest.mark.parametrize("seed", range(40))
def test_short_augment_takes_exactly_the_short_paths(seed):
    """R is a random maximum matching less one of its edges (a, b), and the
    hidden edges are a random matching that R does not hold, which in the
    enumerator's repairs hides (a, b).  From a, b or a vertex that R missed
    already, `_augment` with lo = 0 takes a path of length 1 or 3 exactly
    when brute force finds one that uses no hidden edge, and then gains one
    edge of the graph that is not hidden; otherwise it searches, and
    augments along a longer path or leaves R unchanged."""
    rng = random.Random(f"short:{seed}")
    found = set()
    for _ in range(30):
        g = random_graph(rng.randint(2, 10), rng.choice((0.2, 0.4, 0.6)), rng)
        m = max_matching(g, seed=rng.randrange(100))
        if not m:
            continue
        removed = rng.choice(sorted(m))
        res = [0] * (g.vertex_count + 1)
        for u, v in m - {removed}:
            res[u], res[v] = v, u
        root = rng.choice([v for v in range(1, g.vertex_count + 1) if not res[v]])
        adj = g.adjacency()
        edges = [e for e in sorted(g.edges) if res[e[0]] != e[1]]
        rng.shuffle(edges)
        # the root's hidden edge, if any, comes first
        edges.insert(0, rng.choice([None, *((root, c) for c in adj[root])]))
        skip = [0] * (g.vertex_count + 1)
        hidden = set()
        for e in edges:
            if e and not (skip[e[0]] or skip[e[1]]) and rng.random() < 0.6:
                skip[e[0]], skip[e[1]] = e[1], e[0]
                hidden.add(tuple(sorted(e)))
        before = res[:]
        paths = short_paths(g, before, hidden, root)
        arrays = (*_search_arrays(g.vertex_count)[:-1], skip)
        augmented = _augment(adj, res, root, 0, arrays)
        short = took_short_path(before, res, root)
        found.add(short)
        assert short == bool(paths)
        if not augmented:
            assert res == before
            continue
        pairs = {(v, w) for v, w in enumerate(res) if w > v}
        assert all(res[w] == v for v, w in pairs)  # a mate array: each pair both ways
        assert pairs <= g.edges - hidden
        assert len(pairs) == len(m)  # one edge more than R less (a, b)
        assert res[root]
    assert found == {True, False}
