"""The warm-started enumerator against the per-node-bound reference.

Both branch on the lowest remaining edge and take it before dropping it, so
they must yield the same (matching, residual) pairs in the same order: the
witnesses, the census and the cap all read that order.
"""

import importlib
import random

import pytest

from oracles import iter_maximum_matchings_bounded, random_bipartite, random_graph, residual
from resmatch.graph import build_graph
from resmatch.reduction import build_artifact, parse_dimacs
from resmatch.spectrum import _iter_maximum_matchings


def assert_same_stream(g):
    assert list(_iter_maximum_matchings(g)) == list(iter_maximum_matchings_bounded(g))


@pytest.mark.parametrize("seed", range(120))
def test_same_stream_on_gnp(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 13)
    assert_same_stream(random_graph(n, rng.choice((0.15, 0.3, 0.45, 0.6)), rng))


@pytest.mark.parametrize("seed", range(60))
def test_same_stream_on_bipartite(seed):
    rng = random.Random(500 + seed)
    assert_same_stream(random_bipartite(rng.randint(2, 14), 40, rng))


def dense24(seed: int):
    """24 vertices, 68 edges drawn from all pairs: thousands of maximum matchings."""
    pairs = [(u, v) for u in range(1, 25) for v in range(u + 1, 25)]
    return build_graph(24, random.Random(seed).sample(pairs, 68))


@pytest.mark.parametrize("seed", range(4))
def test_same_stream_on_dense_24_vertex_graphs(seed):
    assert_same_stream(dense24(seed))


def random_cnf(seed: int, num_vars: int, m: int):
    """Exact-3-SAT with every variable used: the first clauses cover the
    variables in a shuffled order, the rest are drawn at random."""
    rng = random.Random(seed)
    order = list(range(1, num_vars + 1))
    rng.shuffle(order)
    clauses = []
    for at in range(0, num_vars, 3):
        chunk = order[at:at + 3]
        chunk += rng.sample([v for v in order if v not in chunk], 3 - len(chunk))
        clauses.append(chunk)
    while len(clauses) < m:
        clauses.append(rng.sample(order, 3))
    lines = [" ".join(str(v if rng.random() < 0.5 else -v) for v in cl) + " 0" for cl in clauses]
    return parse_dimacs(f"p cnf {num_vars} {len(clauses)}\n" + "\n".join(lines) + "\n")


@pytest.mark.parametrize("variant", ["L", "ell"])
@pytest.mark.parametrize("num_vars, m", [(3, 1), (3, 2), (4, 2), (5, 2), (5, 4), (6, 2), (6, 3)])
def test_same_stream_on_artifacts(variant, num_vars, m):
    assert_same_stream(build_artifact(random_cnf(10 * num_vars + m, num_vars, m), variant).graph)


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
    assert all(r == residual(g, m) for m, r in items)
