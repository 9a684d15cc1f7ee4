import hashlib
import itertools
import json
import random

import pytest

from oracles import TWIN_SPIDER, CapExceededError, cycle, nu_k_bruteforce, path, random_bipartite
from resmatch.graph import build_graph
from resmatch.matching import matching_from_pairs, nu, validate_matching
from resmatch.colorable import _two_color, nu2_bipartite, upper_bound_L

K4 = build_graph(4, list(itertools.combinations(range(1, 5), 2)))


def test_nu2_twin_spider():
    res = nu2_bipartite(TWIN_SPIDER)
    assert res.size == 8
    assert len(res.classes) == 2


def test_nu2_known_values():
    assert nu2_bipartite(path(5)).size == 4
    assert nu2_bipartite(cycle(6)).size == 6
    assert nu2_bipartite(path(2)).size == 1
    assert nu2_bipartite(build_graph(3, [])).size == 0


def test_nu2_witness_is_two_matchings():
    rng = random.Random(11)
    for _ in range(80):
        g = random_bipartite(rng.randint(2, 12), 18, rng)
        res = nu2_bipartite(g)
        assert len(res.classes) == 2
        assert sum(len(c) for c in res.classes) == res.size
        union = set()
        for cls in res.classes:
            flags = validate_matching(g, matching_from_pairs(cls, g.vertex_count))
            assert flags.valid
            union |= set(cls)
        assert len(union) == res.size


def _max_degree_two_sets(rng):
    """Disjoint unions of paths and even cycles on scattered vertex labels."""
    for _ in range(300):
        n = rng.randint(2, 40)
        labels = rng.sample(range(1, 3 * n + 1), n)
        edges, i = set(), 0
        while i < n - 1:
            size = rng.randint(2, n - i)
            run = labels[i:i + size]
            edges.update(tuple(sorted(e)) for e in zip(run, run[1:]))
            if size >= 4 and size % 2 == 0 and rng.random() < 0.5:
                edges.add(tuple(sorted((run[0], run[-1]))))
            i += size
        yield edges


# sha256 of the classes below, in order: which edge lands in which class is
# part of nu2's witness, so a change to the two-colouring walk shows here
TWO_COLOR_CLASSES_SHA256 = "bdc5b6fe9cd42e1f1c3601f53506cea95957c062058fceff587b7a8a1e88cacd"


def test_two_color_classes_are_pinned():
    rng = random.Random(61)
    out = []
    for _ in range(400):
        g = random_bipartite(rng.randint(2, 30), 60, rng)
        out.append([sorted(c) for c in nu2_bipartite(g).classes])
    for edges in _max_degree_two_sets(random.Random(67)):
        out.append([sorted(c) for c in _two_color(edges)])
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == TWO_COLOR_CLASSES_SHA256


def test_nu2_rejects_non_bipartite():
    with pytest.raises(ValueError, match="not bipartite"):
        nu2_bipartite(cycle(5))


def test_nu_k_bruteforce_known():
    assert nu_k_bruteforce(K4, 2) == 4
    assert nu_k_bruteforce(K4, 3) == 6
    assert nu_k_bruteforce(path(5), 2) == 4
    assert nu_k_bruteforce(cycle(6), 2) == 6
    assert nu_k_bruteforce(cycle(5), 2) == 4
    assert nu_k_bruteforce(path(4), 0) == 0
    assert nu_k_bruteforce(path(4), 1) == nu(path(4))


def test_nu_k_bruteforce_guards():
    with pytest.raises(ValueError, match="non-negative"):
        nu_k_bruteforce(path(3), -1)
    big = build_graph(10, [(u, v) for u in range(1, 8) for v in range(u + 1, 8)])
    with pytest.raises(CapExceededError):
        nu_k_bruteforce(big, 2, cap=20)


def test_flow_equals_bruteforce_on_random_bipartite():
    rng = random.Random(23)
    for _ in range(150):
        g = random_bipartite(rng.randint(2, 12), 16, rng)
        assert nu2_bipartite(g).size == nu_k_bruteforce(g, 2), g.sorted_edges()


def test_nu_nu2_sandwich():
    rng = random.Random(31)
    for _ in range(100):
        g = random_bipartite(rng.randint(2, 12), 16, rng)
        n1 = nu(g)
        n2 = nu2_bipartite(g).size
        assert n1 <= n2 <= 2 * n1


def test_upper_bound_L_dominates_spectrum_max():
    from resmatch.spectrum import spectrum

    rng = random.Random(47)
    for _ in range(60):
        g = random_bipartite(rng.randint(2, 10), 12, rng)
        rep = spectrum(g, cap=10**5)
        assert rep.big_l <= upper_bound_L(g)


def test_upper_bound_L_twin_spider():
    # nu2 - nu = 8 - 5 = 3 here, a strict overestimate of L = 2
    assert upper_bound_L(TWIN_SPIDER) == 3
