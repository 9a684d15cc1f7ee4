import importlib
import itertools
import random

import pytest

from oracles import (
    CapExceededError,
    augment_reference,
    blossom_reference,
    covering_cnf,
    cycle,
    iter_all_matchings,
    nu_bruteforce,
    path,
    random_bipartite,
    random_graph,
    took_short_path,
)
from resmatch.graph import Bipartition, bipartition, build_graph
from resmatch.matching import (
    Matching,
    MatchingFlags,
    _augment,
    _blossom,
    _matching,
    _search_arrays,
    _seeded_mates,
    _shuffle_plan,
    _shuffled,
    matching_from_pairs,
    max_matching,
    max_matching_bipartite,
    nu,
    validate_matching,
)
from resmatch.reduction import build_artifact


def complete(n):
    return build_graph(n, list(itertools.combinations(range(1, n + 1), 2)))


PETERSEN = build_graph(
    10,
    [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
     (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
     (6, 8), (8, 10), (10, 7), (7, 9), (9, 6)],
)


def test_matching_container():
    m = matching_from_pairs([(3, 1), (2, 4)], 5)
    assert len(m) == 2
    assert m.covered() == frozenset({1, 2, 3, 4})
    assert m.sorted_edges() == [(1, 3), (2, 4)]
    with pytest.raises(ValueError, match="share"):
        matching_from_pairs([(1, 2), (2, 3)], 3)
    with pytest.raises(ValueError, match="outside"):
        matching_from_pairs([(1, 9)], 3)


@pytest.mark.parametrize(
    "g, expect",
    [
        (path(1), 0),
        (path(2), 1),
        (path(5), 2),
        (cycle(5), 2),
        (cycle(6), 3),
        (complete(4), 2),
        (PETERSEN, 5),
    ],
)
def test_nu_known_values(g, expect):
    assert nu(g) == expect


def test_blossom_handles_odd_cycle_with_tail():
    # a C5 with a pendant edge needs a blossom flip to reach 3
    g = build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (3, 6)])
    assert nu(g) == 3


def test_blossom_matches_bruteforce_exhaustively_small():
    # every labeled graph on up to 4 vertices
    for n in range(5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            assert nu(g) == nu_bruteforce(g)


def test_blossom_matches_bruteforce_random():
    rng = random.Random(2024)
    for _ in range(400):
        g = random_graph(rng.randint(5, 9), rng.choice([0.2, 0.4, 0.6]), rng)
        assert nu(g) == nu_bruteforce(g, cap=36), g.sorted_edges()


def _kernel_inputs(rng, case):
    """(graph, lo, skip, match) for one of the four ways the package runs
    its search: lo = 0 and nothing skipped (the root blossom, `nu`), lo > 0
    with chosen edges skipped (the enumerator's mask searches), lo = 0 with
    chosen edges skipped (its residual repairs), and 'residual', the last
    with a random share of the matching's edges taken out, so that roots
    have free neighbours and free vertices two steps away, as after a repair
    frees the ends of an edge.  skip is the mate array of the chosen edges
    and match a greedy matching of the graph the search sees, less that
    share.  Sparse general graphs of up to 120 vertices grow blossoms that
    absorb several vertices at once, whose queue order decides the path
    found."""
    n = rng.randint(40, 120)
    if rng.random() < 0.75:
        g = random_graph(n, rng.uniform(2.5, 4) / n, rng)
    else:
        g = random_bipartite(n, 2 * n, rng)
    skip = [0] * (n + 1)
    if case != "plain":
        for u, v in rng.sample(g.sorted_edges(), g.edge_count):
            if not skip[u] and not skip[v] and rng.random() < 0.3:
                skip[u], skip[v] = v, u
    lo = rng.randint(1, n // 2) if case == "mask" else 0

    def sees(v, w):
        return skip[v] != w if lo == 0 else min(v, w) > lo and not skip[v] and not skip[w]

    match = [0] * (n + 1)
    for v in range(1, n + 1):
        for w in g.adjacency()[v]:
            if not match[v] and not match[w] and sees(v, w):
                match[v], match[w] = w, v
    if case == "residual":
        share = rng.uniform(0.1, 0.6)
        for v, w in enumerate(match):
            if v < w and rng.random() < share:
                match[v] = match[w] = 0
    return g, lo, skip, match


def _kernel_log(search, g, lo, skip, match):
    """(root, found, mate array, arrays[:3]) after each call of search from
    each vertex in turn that is free then and above lo (and ends no chosen
    edge if lo > 0), on a copy of match; the arrays outlive each call, as in
    the package."""
    n, adj = g.vertex_count, g.adjacency()
    arrays = (*_search_arrays(n)[:-1], skip)  # no search writes skip
    match = match[:]
    log = []
    for root in range(lo + 1, n + 1):
        if not match[root] and (lo == 0 or not skip[root]):
            log.append((root, search(adj, match, root, lo, arrays), match[:],
                        [a[:] for a in arrays[:3]]))
    return log


@pytest.mark.parametrize("case", ["plain", "mask", "repair", "residual"])
@pytest.mark.parametrize("seed", range(40))
def test_search_kernel_agrees_with_the_reference(case, seed):
    inputs = _kernel_inputs(random.Random(f"kernel:{case}:{seed}"), case)
    assert _kernel_log(_augment, *inputs) == _kernel_log(augment_reference, *inputs)


def test_the_residual_kernel_case_reaches_every_outcome():
    # over the residual case's 40 seeds, `_augment` takes a path of length 1
    # (2 mate entries change), of length 3 (4), a longer one (6 or more) and
    # none (0): each way out of the kernel is compared with the reference
    changed = set()
    for seed in range(40):
        g, lo, skip, match = _kernel_inputs(random.Random(f"kernel:residual:{seed}"), "residual")
        before = match
        for _, _, after, _ in _kernel_log(_augment, g, lo, skip, match):
            changed.add(min(sum(a != b for a, b in zip(before, after)), 6))
            before = after
    assert changed == {0, 2, 4, 6}


def test_max_matching_is_deterministic_per_seed():
    g = PETERSEN
    a = max_matching(g, seed=3)
    b = max_matching(g, seed=3)
    assert a == b
    assert len(a) == 5


def test_seeds_reach_different_matchings_on_p5():
    found = {max_matching(path(5), seed=s).edges for s in range(20)}
    assert len(found) > 1


def test_seeded_shuffles_leave_the_shared_adjacency_alone():
    g = build_graph(10, PETERSEN.sorted_edges())
    adj = g.adjacency()
    before = [lst[:] for lst in adj]
    assert len({max_matching(g, seed=s).edges for s in range(8)}) > 1
    assert g.adjacency() is adj
    assert adj == before and all(lst == sorted(lst) for lst in adj)
    fresh = build_graph(10, PETERSEN.sorted_edges())
    assert g == fresh and hash(g) == hash(fresh)


def shuffled(lists, getrandbits):
    """The package's shuffle of lists: its plan, then its draws."""
    return _shuffled(lists, _shuffle_plan(lists), getrandbits)


@pytest.mark.parametrize("length", range(41))
def test_inline_shuffle_draws_as_random_shuffle(length):
    for seed in range(200):
        want = list(range(length))
        random.Random(seed).shuffle(want)
        (got,) = shuffled([list(range(length))], random.Random(seed).getrandbits)
        assert got == want, seed


def test_inline_shuffle_of_several_lists_from_one_generator():
    # max_matching shuffles every adjacency list and then the vertex order
    # from one generator, so each list starts where the last one's draws end
    sizes = random.Random(3)
    for seed in range(200):
        lengths = [sizes.randint(0, 12) for _ in range(sizes.randint(1, 14))]
        rng = random.Random(seed)
        want = [list(range(n)) for n in lengths]
        for x in want:
            rng.shuffle(x)
        lists = [list(range(n)) for n in lengths]
        got = shuffled(lists, random.Random(seed).getrandbits)
        assert got == want, (seed, lengths)
        # the inputs stay as they were; a list no draw can change is shared
        assert lists == [list(range(n)) for n in lengths]
        assert all((a is b) == (len(a) < 2) for a, b in zip(got, lists))


# seeds past one 32-bit word (init_by_array takes several key words), negative
# seeds (the generator seeds from abs), repeats within one batch, str and
# bytes seeds, which the Python seed of random.Random hashes, and True, an int
# subclass (_seeded_mates hands ints straight to the C seed)
BATCH = (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 + 5, 3**70, -1, -7, -(2**40), 1, 0, 2**32, -7, 5,
         "5", b"5", "seed", True)


def test_one_reseeded_generator_shuffles_as_fresh_ones():
    # the permutations themselves: one generator, reseeded per seed as
    # _seeded_mates does, against random.Random(seed).shuffle on each list
    sizes = random.Random(8)
    rng = random.Random()
    for seed in BATCH * 3:
        lengths = [sizes.randint(0, 15) for _ in range(sizes.randint(1, 14))]
        fresh = random.Random(seed)
        want = [list(range(n)) for n in lengths]
        for x in want:
            fresh.shuffle(x)
        rng.seed(seed)
        assert shuffled([list(range(n)) for n in lengths], rng.getrandbits) == want, seed


def reference_mates(g, seed):
    """The seeded search as written with random.shuffle and fresh state."""
    rng = random.Random(seed)
    adj = [lst[:] for lst in g.adjacency()]
    for lst in adj:
        rng.shuffle(lst)
    order = list(range(1, g.vertex_count + 1))
    rng.shuffle(order)
    return _blossom(g.vertex_count, adj, order, _search_arrays(g.vertex_count))


def test_seeded_matching_is_the_shuffled_blossom():
    rng = random.Random(11)
    for _ in range(100):
        g = random_graph(rng.randint(1, 14), rng.choice((0.2, 0.35, 0.5)), rng)
        for seed in range(20):
            assert max_matching(g, seed) == _matching(reference_mates(g, seed))


# Graphs for a batch of seeds, each later seed of which stops searching at
# the first seed's size: the empty graph, one vertex, an edgeless graph, a
# triangle with a tail and isolated vertices (odd order), graphs whose first
# seed's greedy pass is short of maximum (Petersen, P_13, odd order), and one
# whose later seeds need up to two augmentations (P_12).
BATCH_GRAPHS = {
    "n0": build_graph(0, []),
    "n1": build_graph(1, []),
    "isolated5": build_graph(5, []),
    "triangle-tail": build_graph(9, [(2, 3), (3, 4), (4, 2), (4, 7), (7, 8)]),  # 1, 5, 6, 9 isolated
    "petersen": PETERSEN,
    "p12": path(12),
    "p13": path(13),
}


@pytest.mark.parametrize("g", BATCH_GRAPHS.values(), ids=BATCH_GRAPHS)
def test_a_batch_of_seeds_is_the_shuffled_blossom_per_seed(g):
    assert list(_seeded_mates(g, BATCH)) == [reference_mates(g, seed) for seed in BATCH]


def _searches_per_seed(g, monkeypatch) -> list:
    """For each seed of BATCH in turn, (kind, matched vertices, augmented)
    for the check for a short path ('short') that begins each `_augment`
    that `_seeded_mates` makes and, when the check finds none, for the
    search after it ('search'), in order."""
    searches = []

    def counted(adj, match, root, lo, arrays):
        before = match[:]
        matched = len(match) - match.count(0)
        found = _augment(adj, match, root, lo, arrays)
        short = took_short_path(before, match, root)
        searches.append(("short", matched, short))
        if not short:
            searches.append(("search", matched, found))
        return found

    monkeypatch.setattr("resmatch.matching._augment", counted)
    per_seed = []
    for _ in _seeded_mates(g, BATCH):
        per_seed.append(searches[:])
        searches.clear()
    return per_seed


@pytest.mark.parametrize("g", BATCH_GRAPHS.values(), ids=BATCH_GRAPHS)
def test_a_batch_starts_no_search_at_the_first_seeds_size(g, monkeypatch):
    # every seed after the first knows the size of a maximum matching, so no
    # check or search starts once its matching has that size: it would fail
    # (one could start only where a maximum matching leaves vertices free)
    size = nu(g)
    per_seed = _searches_per_seed(g, monkeypatch)
    assert len(per_seed) == len(BATCH)
    assert all(matched < 2 * size for later in per_seed[1:] for _, matched, _ in later)
    # a search runs only in a call whose short check has failed
    for seed in per_seed:
        kinds = [kind for kind, _, _ in seed]
        assert all(kinds[i - 1:i] == ["short"] and not seed[i - 1][2]
                   for i, kind in enumerate(kinds) if kind == "search")


def test_the_batch_graphs_augment_after_the_greedy_pass(monkeypatch):
    # the first seed of Petersen and of P_13 augments, and a later seed of
    # P_12 augments twice: a batch reaches its size by a short check or a
    # search after the greedy pass
    augments = {name: [sum(augmented for _, _, augmented in seed)
                       for seed in _searches_per_seed(BATCH_GRAPHS[name], monkeypatch)]
                for name in ("petersen", "p12", "p13")}
    assert augments["petersen"][0] >= 1 and augments["p13"][0] >= 1
    assert max(augments["p12"][1:]) >= 2


# (short checks, searches) per seed of BATCH: each `_augment` checks for a
# short path first and searches only if the check fails, so the checks are
# the calls and the searches are the checks that failed.
# Petersen's seeds all reach size 5 by short checks; P_13's first seed, which
# has no size to stop at, runs one search that fails.
BATCH_COUNTS = {
    "petersen": [(1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (0, 0), (0, 0), (1, 0), (0, 0), (1, 0),
                 (1, 0), (1, 0), (1, 0), (0, 0), (1, 0), (1, 0), (1, 0), (0, 0), (1, 0)],
    "p12": [(0, 0), (2, 0), (1, 1), (1, 0), (1, 1), (1, 1), (1, 0), (2, 0), (1, 0), (1, 1),
            (2, 0), (0, 0), (1, 0), (1, 0), (1, 1), (1, 0), (1, 0), (1, 1), (2, 0)],
    "p13": [(2, 1), (1, 0), (0, 0), (0, 0), (1, 0), (1, 1), (1, 0), (1, 0), (0, 0), (0, 0),
            (1, 0), (1, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (1, 0)],
}


@pytest.mark.parametrize("name", BATCH_COUNTS)
def test_the_short_checks_and_searches_per_seed(name, monkeypatch):
    per_seed = _searches_per_seed(BATCH_GRAPHS[name], monkeypatch)
    counts = [tuple(sum(kind == want for kind, _, _ in seed) for want in ("short", "search"))
              for seed in per_seed]
    assert counts == BATCH_COUNTS[name]


def _with_the_reference(n, adj, order):
    """`_blossom`'s mate array on (adj, order), asserted equal to that of
    `blossom_reference`, which runs a search where `_blossom` first tries a
    path of length 1 or 3; each gets fresh search arrays."""
    mate = _blossom(n, adj, order, _search_arrays(n))
    assert mate == blossom_reference(n, adj, order, _search_arrays(n))
    return mate


def _short_checks(monkeypatch) -> list:
    """Whether each `_augment` that `_blossom` makes from here on took a
    path of length 1 or 3 (True) or searched (False)."""
    found = []

    def counted(adj, match, root, lo, arrays):
        before = match[:]
        augmented = _augment(adj, match, root, lo, arrays)
        found.append(took_short_path(before, match, root))
        return augmented

    monkeypatch.setattr("resmatch.matching._augment", counted)
    return found


def test_the_short_check_keeps_the_seeded_matchings(monkeypatch):
    # random graphs with an odd cycle, n <= 30, each under a batch of seeds:
    # `_seeded_mates` against the reference on the lists shuffled as it
    # shuffles them
    rng = random.Random("short-seeded")
    found = _short_checks(monkeypatch)
    graphs = 0
    while graphs < 60:
        n = rng.randint(3, 30)
        g = random_graph(n, rng.uniform(1.5, 4) / n, rng)
        if bipartition(g) is not None:
            continue
        graphs += 1
        lists = [*g.adjacency(), list(range(1, n + 1))]
        plan = _shuffle_plan(lists)
        seeds = range(graphs * 100, graphs * 100 + 20)
        for seed, mate in zip(seeds, _seeded_mates(g, seeds)):
            adj = _shuffled(lists, plan, random.Random(seed).getrandbits)
            assert mate == _with_the_reference(n, adj, adj.pop()), (g.sorted_edges(), seed)
    assert True in found and False in found


def test_the_short_check_keeps_the_vertex_order_matchings(monkeypatch):
    # what nu, the bipartite entry and the enumerator's root matching run
    rng = random.Random("short-plain")
    found = _short_checks(monkeypatch)
    for _ in range(300):
        n = rng.randint(1, 40)
        if rng.random() < 0.7:
            g = random_graph(n, rng.uniform(1, 4) / n, rng)
        else:
            g = random_bipartite(n, 2 * n, rng)
        _with_the_reference(n, g.adjacency(), range(1, n + 1))
    assert True in found and False in found


def test_the_short_check_keeps_the_tutte_gadget_matchings(monkeypatch):
    # the gadgets as nu2_bipartite builds them
    rng = random.Random("short-gadget")
    colorable = importlib.import_module("resmatch.colorable")
    found = _short_checks(monkeypatch)
    calls = []

    def recorded(n, adj, order, arrays):
        calls.append(n)
        return _with_the_reference(n, adj, order)

    monkeypatch.setattr(colorable, "_blossom", recorded)
    for _ in range(60):
        n = rng.randint(2, 16)
        colorable.nu2_bipartite(random_bipartite(n, 2 * n, rng))
    assert len(calls) == 60
    assert True in found


@pytest.mark.parametrize("variant", ["L", "ell"])
@pytest.mark.parametrize("num_vars, m", [(3, 1), (4, 2), (5, 4)])
def test_the_short_check_keeps_the_artifact_matchings(variant, num_vars, m):
    g = build_artifact(covering_cnf(10 * num_vars + m, num_vars, m), variant).graph
    n = g.vertex_count
    _with_the_reference(n, g.adjacency(), range(1, n + 1))
    lists = [*g.adjacency(), list(range(1, n + 1))]
    plan = _shuffle_plan(lists)
    for seed, mate in zip(range(5), _seeded_mates(g, range(5))):
        adj = _shuffled(lists, plan, random.Random(seed).getrandbits)
        assert mate == _with_the_reference(n, adj, adj.pop()), seed


@pytest.mark.parametrize("first", [2, 4])
def test_the_first_neighbours_short_path_wins(first):
    # the root 1 has two paths of length 3, 1 - 2 = 3 - 6 and 1 - 4 = 5 - 7;
    # the greedy pass over this order matches 3 - 2 and 5 - 4 and leaves 1,
    # 6 and 7 free, and the check takes the path through adj[1][0]
    g = build_graph(7, [(1, 2), (1, 4), (2, 3), (4, 5), (3, 6), (5, 7)])
    adj = [lst[:] for lst in g.adjacency()]
    adj[1].sort(key=lambda x: x != first)
    mate = _with_the_reference(7, adj, [3, 5, 1, 2, 4, 6, 7])
    y, w = {2: (3, 6), 4: (5, 7)}[first]
    assert mate[1] == first and mate[y] == w
    assert sum(map(bool, mate)) == 6


def test_a_triangle_at_the_root_is_contracted_before_the_check_reaches_it(monkeypatch):
    # greedy matches 1 - 2 and leaves 4 (a triangle 4 - 1 = 2 - 4) and 3 free;
    # from 4 the check scans 1's mate 2 (no free neighbour), then 2's mate 1,
    # which the search reaches only by contracting the triangle: 4 - 2 = 1 - 3
    found = _short_checks(monkeypatch)
    g = build_graph(4, [(1, 2), (1, 3), (1, 4), (2, 4)])
    assert _with_the_reference(4, g.adjacency(), [1, 2, 4, 3]) == [0, 3, 4, 1, 2]
    assert found == [True]


def test_a_path_of_length_five_is_left_to_the_search():
    # the path 5 - 1 - 2 - 3 - 4 - 6: greedy over this order matches 1 - 2 and
    # 3 - 4, and the only augmenting path, 5 - 1 = 2 - 3 = 4 - 6, has length 5:
    # the check finds no short path, and the search flips all six mates
    g = build_graph(6, [(5, 1), (1, 2), (2, 3), (3, 4), (4, 6)])
    adj = g.adjacency()
    match = [0, 2, 1, 4, 3, 0, 0]
    before = match[:]
    assert _augment(adj, match, 5, 0, _search_arrays(6))
    assert not took_short_path(before, match, 5)
    assert match == [0, 5, 3, 2, 6, 1, 4]
    assert _with_the_reference(6, adj, [1, 3, 5, 6, 2, 4]) == [0, 5, 3, 2, 6, 1, 4]


def test_a_batch_of_seeds_on_random_graphs():
    rng = random.Random(12)
    for _ in range(60):
        g = random_graph(rng.randint(0, 14), rng.choice((0.1, 0.3, 0.5)), rng)
        got = list(_seeded_mates(g, BATCH))
        assert got == [reference_mates(g, seed) for seed in BATCH], g.sorted_edges()
        assert [_matching(m) for m in got] == [max_matching(g, seed) for seed in BATCH]


def test_a_batch_builds_one_generator_and_one_set_of_search_arrays(monkeypatch):
    made = []
    arrays = _search_arrays

    class Counted(random.Random):
        def __init__(self, *args):
            made.append("Random")
            super().__init__(*args)

    def counted_arrays(n):
        made.append("arrays")
        return arrays(n)

    monkeypatch.setattr("resmatch.matching.random.Random", Counted)
    monkeypatch.setattr("resmatch.matching._search_arrays", counted_arrays)
    mates = list(_seeded_mates(PETERSEN, range(50)))
    assert len(mates) == 50 and sorted(made) == ["Random", "arrays"]


def test_hopcroft_karp_agrees_with_blossom():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 12)
        half = (n + 1) // 2
        edges = [
            (u, v)
            for u in range(1, half + 1)
            for v in range(half + 1, n + 1)
            if rng.random() < 0.4
        ]
        g = build_graph(n, edges)
        m = max_matching_bipartite(g)
        assert validate_matching(g, m).valid
        assert len(m) == nu(g)


def test_hopcroft_karp_rejects_non_bipartite():
    with pytest.raises(ValueError, match="not bipartite"):
        max_matching_bipartite(cycle(5))


def test_hopcroft_karp_rejects_wrong_bipartition():
    g = path(3)
    with pytest.raises(ValueError, match="invalid bipartition"):
        max_matching_bipartite(g, Bipartition(frozenset({1, 2}), frozenset({3})))


def test_nu_and_bipartite_entries_use_no_randomness(monkeypatch):
    import inspect

    from resmatch.colorable import nu2_bipartite

    def refuse(*args, **kwargs):
        raise AssertionError("only a seeded matching may shuffle")

    assert list(inspect.signature(nu).parameters) == ["g"]
    assert list(inspect.signature(nu2_bipartite).parameters) == ["g"]
    monkeypatch.setattr("resmatch.matching.random.Random", refuse)
    assert nu(PETERSEN) == 5
    assert len(max_matching_bipartite(cycle(8))) == 4
    assert nu2_bipartite(cycle(8)).size == 8
    with pytest.raises(AssertionError, match="only a seeded matching"):
        max_matching(PETERSEN, 3)


def test_validate_matching_flags():
    # on P4 the middle edge is maximal but not maximum
    g4 = path(4)
    maximal_not_max = matching_from_pairs([(2, 3)], 4)
    flags = validate_matching(g4, maximal_not_max)
    assert flags.valid and flags.maximal and not flags.maximum and not flags.perfect

    g = path(5)
    maximum = matching_from_pairs([(1, 2), (3, 4)], 5)
    flags = validate_matching(g, maximum)
    assert flags.valid and flags.maximal and flags.maximum and not flags.perfect

    not_maximal = matching_from_pairs([(1, 2)], 5)
    flags = validate_matching(g, not_maximal)
    assert flags.valid and not flags.maximal

    foreign = Matching(frozenset({(1, 5)}), 5)
    assert not validate_matching(g, foreign).valid
    wrong_host = matching_from_pairs([(1, 2)], 4)
    assert not validate_matching(g, wrong_host).valid
    sharing = Matching(frozenset({(1, 2), (2, 3)}), 5)
    assert validate_matching(g, sharing) == MatchingFlags(False, False, False, False)


def test_validate_matching_perfect():
    g = cycle(6)
    m = matching_from_pairs([(1, 2), (3, 4), (5, 6)], 6)
    flags = validate_matching(g, m)
    assert flags.valid and flags.maximal and flags.maximum and flags.perfect


def test_validate_perfect_matching_needs_no_nu(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a perfect matching is maximum without computing nu")

    monkeypatch.setattr("resmatch.matching.nu", refuse)
    m = matching_from_pairs([(2, 3), (4, 5), (6, 1)], 6)
    flags = validate_matching(cycle(6), m)
    assert flags.valid and flags.maximum and flags.perfect


@pytest.mark.parametrize("pairs, valid", [([(1, 2), (3, 4)], True), ([(1, 2), (2, 3)], False)])
def test_validate_matching_builds_the_covered_set_once(monkeypatch, pairs, valid):
    calls = []
    covered = Matching.covered

    def counted(self):
        calls.append(self)
        return covered(self)

    monkeypatch.setattr(Matching, "covered", counted)
    m = Matching(frozenset(pairs), 5)
    assert validate_matching(path(5), m).valid is valid
    assert calls == [m]


def test_bruteforce_cap():
    g = complete(8)  # 28 edges
    with pytest.raises(CapExceededError):
        nu_bruteforce(g, cap=24)
    assert nu_bruteforce(g, cap=28) == 4


def test_iter_all_matchings_counts():
    # matchings of P4 (including the empty one): {}, {12}, {23}, {34}, {12,34}
    seen = list(iter_all_matchings(path(4)))
    assert len(seen) == 5
    assert len({frozenset(m) for m in seen}) == 5
    # matchings of a triangle: empty + one per edge
    assert sum(1 for _ in iter_all_matchings(cycle(3))) == 4


def test_iter_all_matchings_yields_each_once_random():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng.randint(1, 7), 0.5, rng)
        seen = [frozenset(m) for m in iter_all_matchings(g)]
        assert len(seen) == len(set(seen))
        best = max((len(m) for m in seen), default=0)
        assert best == nu(g)
