"""Differential tests against networkx at 10^2 to 10^3 vertices, far above
the sizes the exhaustive oracles accept."""

import random

import pytest

from resmatch.colorable import nu2_bipartite
from resmatch.graph import build_graph
from resmatch.matching import matching_from_pairs, nu

nx = pytest.importorskip("networkx")

SEEDS = range(20)


def gnp(seed: int):
    """G(n, c/n) with mean degree c in [2, 5]: sparse, with odd cycles that
    the search must contract as blossoms."""
    rng = random.Random(seed)
    n = rng.randint(100, 600)
    p = rng.uniform(2, 5) / n
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    return build_graph(n, edges)


def random_bipartite(seed: int):
    """Sides 1..a and a+1..n; each cross pair is an edge independently, for a
    mean degree in [1, 3] on the larger side."""
    rng = random.Random(1000 + seed)
    n = rng.randint(100, 600)
    a = rng.randint(n // 3, 2 * n // 3)
    p = rng.uniform(1, 3) / max(a, n - a)
    edges = [(u, v) for u in range(1, a + 1) for v in range(a + 1, n + 1) if rng.random() < p]
    return build_graph(n, edges), a


def _nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(1, g.vertex_count + 1))
    h.add_edges_from(g.edges)
    return h


@pytest.mark.parametrize("seed", SEEDS)
def test_nu_matches_networkx(seed):
    g = gnp(seed)
    assert nu(g) == len(nx.max_weight_matching(_nx_graph(g), maxcardinality=True))


@pytest.mark.parametrize("seed", SEEDS)
def test_nu2_matches_capacity_two_flow(seed):
    g, a = random_bipartite(seed)
    net = nx.DiGraph()
    for u, v in g.edges:
        net.add_edge(u, v, capacity=1)
    for u in range(1, a + 1):
        net.add_edge("s", u, capacity=2)
    for v in range(a + 1, g.vertex_count + 1):
        net.add_edge(v, "t", capacity=2)
    result = nu2_bipartite(g)
    assert result.size == nx.maximum_flow_value(net, "s", "t")
    class0, class1 = result.classes
    assert not class0 & class1
    assert len(class0) + len(class1) == result.size
    for cls in (class0, class1):
        assert cls <= g.edges
        matching_from_pairs(cls, g.vertex_count)  # raises if two edges share a vertex
