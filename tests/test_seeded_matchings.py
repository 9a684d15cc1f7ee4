"""Byte-for-byte pins of `max_matching(g, seed)`.

The `bench` residual column and the identity-tolerance witness are seeded
matchings, so the matching each (graph, seed) pair returns is part of the
output contract.  The pins live in golden/seeded_matchings.json.  To
regenerate them after a deliberate change, run this file as a script:

    PYTHONPATH=src python tests/test_seeded_matchings.py
"""

import json
import os
import random

import pytest

from resmatch.graph import build_graph, parse_graph_file
from resmatch.matching import max_matching
from resmatch.reduction import build_artifact, parse_dimacs

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, os.pardir, "fixtures")
GOLDEN = os.path.join(HERE, "golden", "seeded_matchings.json")

SEEDS = (0, 1, 2, 17)
# Seeded G(14, 3/10) graphs; each has an odd cycle, so the search contracts
# blossoms.
RANDOM_SEEDS = (5, 11, 23)


def _read(name: str) -> str:
    with open(os.path.join(FIXTURES, name)) as fh:
        return fh.read()


def _random_graph(seed: int):
    rng = random.Random(seed)
    n = 14
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.3]
    return build_graph(n, edges)


def graphs() -> dict:
    out = {
        "p5": parse_graph_file(_read("p5.mg")),
        "twin_spider": parse_graph_file(_read("twin_spider.mg")),
        "m1-ell": build_artifact(parse_dimacs(_read("example_m1.cnf")), "ell").graph,
    }
    for seed in RANDOM_SEEDS:
        out[f"gnp14-{seed}"] = _random_graph(seed)
    return out


def render() -> dict:
    """name -> seed -> sorted matching edges."""
    return {
        name: {str(seed): [list(e) for e in sorted(max_matching(g, seed))] for seed in SEEDS}
        for name, g in graphs().items()
    }


def _load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(graphs()))
def test_seeded_matching_matches_golden(name):
    g = graphs()[name]
    golden = _load_golden()[name]
    for seed in SEEDS:
        assert [list(e) for e in sorted(max_matching(g, seed))] == golden[str(seed)], seed


def test_random_pins_are_not_bipartite():
    from resmatch.graph import bipartition

    assert all(bipartition(_random_graph(seed)) is None for seed in RANDOM_SEEDS)


if __name__ == "__main__":
    result = render()
    with open(GOLDEN, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(result)} graphs to {GOLDEN}")
