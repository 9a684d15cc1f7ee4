import itertools
import random

import pytest

from oracles import TWIN_SPIDER, CapExceededError, cycle, nu_k_bruteforce, path, random_bipartite
from resmatch.graph import Bipartition, build_graph
from resmatch.matching import matching_from_pairs, nu, validate_matching
from resmatch.colorable import nu2_bipartite, upper_bound_L

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


def test_nu2_rejects_non_bipartite():
    with pytest.raises(ValueError, match="not bipartite"):
        nu2_bipartite(cycle(5))
    with pytest.raises(ValueError, match="invalid bipartition"):
        nu2_bipartite(path(3), Bipartition(frozenset({1, 2}), frozenset({3})))


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
