import importlib
import inspect
import os
import random
import sys
from fractions import Fraction

import pytest

from oracles import (
    TWIN_SPIDER,
    count_searches,
    cycle,
    iter_all_matchings,
    mates_near,
    milp_big_l,
    milp_ell,
    path,
    random_bipartite,
    random_graph,
    record_searches,
    residual,
    spectrum_double_brute,
    took_short_path,
)
from resmatch import reduction
from resmatch.graph import bipartition, build_graph, delete_edges
from resmatch.matching import max_matching, nu, validate_matching
from resmatch.reduction import build_artifact, parse_dimacs, verify_artifact
from resmatch.spectrum import (
    BoundsReport,
    SpectrumReport,
    ToleranceFunction,
    TruncatedSpectrumError,
    _check_bounds,
    _pass,
    approx_trial,
    check_bounds,
    decide_problem1,
    enumerate_maximum_matchings,
    parse_tolerance,
    spectrum,
)


# --- tolerance functions ---


def test_parse_tolerance_kinds():
    assert parse_tolerance("identity").kind == "identity"
    assert parse_tolerance("const:3").evaluate(99) == 3
    assert parse_tolerance("linear:1/2").evaluate(10) == 5
    assert parse_tolerance("log").evaluate(8) == 3
    assert parse_tolerance("log").evaluate(1) == 0
    assert parse_tolerance("sqrt").evaluate(10) == 3
    assert parse_tolerance("sqrt:2").evaluate(9) == 6
    assert parse_tolerance("identity").evaluate(7) == 7


def test_tolerance_rejects_bad_specs():
    with pytest.raises(ValueError):
        parse_tolerance("cubic:1")
    for spec in ("const:", "log:", "identity:"):  # a ':' with no coefficient
        with pytest.raises(ValueError, match="rational '' is not"):
            parse_tolerance(spec)
    for spec in ("identity:1", "identity:1/1", "identity:1.0", "identity:0", "identity:2"):
        # any coefficient is refused once it parses, even one equal to 1
        with pytest.raises(ValueError, match="identity tolerance admits no coefficient"):
            parse_tolerance(spec)
    with pytest.raises(ValueError, match="rational 'x' is not"):
        parse_tolerance("identity:x")
    with pytest.raises(ValueError, match="identity"):
        ToleranceFunction("identity", Fraction(2))
    with pytest.raises(ValueError, match="non-negative"):
        ToleranceFunction("constant", Fraction(-1))
    with pytest.raises(ValueError, match="non-negative"):
        parse_tolerance("log").evaluate(-1)


def test_tolerance_log_uses_floor_base_two():
    f = parse_tolerance("log")
    assert [f.evaluate(x) for x in (0, 1, 2, 3, 4, 7, 8)] == [0, 0, 1, 1, 2, 2, 3]


# --- enumeration ---


def test_enumerate_p5_exactly_three():
    res = enumerate_maximum_matchings(path(5), cap=10)
    assert not res.truncated
    assert len(res.matchings) == 3
    assert {min(m) for m in res.matchings} == {(1, 2), (2, 3)}
    for m in res.matchings:
        flags = validate_matching(path(5), m)
        assert flags.valid and flags.maximum


def test_enumerate_respects_cap():
    res = enumerate_maximum_matchings(path(5), cap=2)
    assert res.truncated
    assert len(res.matchings) == 2
    with pytest.raises(ValueError, match="positive"):
        enumerate_maximum_matchings(path(5), cap=0)
    with pytest.raises(ValueError, match="positive"):
        spectrum(path(5), cap=0)
    with pytest.raises(ValueError, match="positive"):
        decide_problem1(path(5), 0, parse_tolerance("const:0"), cap=0)
    with pytest.raises(ValueError, match="positive"):
        check_bounds(path(5), cap=0)
    with pytest.raises(ValueError, match="positive"):
        approx_trial(path(5), [1], cap=0)


@pytest.mark.parametrize("name", ["P5", "twin spider", "C6", "L artifact"])
def test_every_consumer_caps_the_same_way(monkeypatch, name):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                           "example_m1.cnf")) as fh:
        art = build_artifact(parse_dimacs(fh.read()), "L")
    g = {"P5": path(5), "twin spider": TWIN_SPIDER, "C6": cycle(6), "L artifact": art.graph}[name]
    if g.coords is None:  # the census reads g's stream whatever g's layout: any coordinates do
        g = build_graph(g.vertex_count, g.edges, {v: (v, 0) for v in range(1, g.vertex_count + 1)})
    art = art._replace(graph=g)
    spectrum_module = importlib.import_module("resmatch.spectrum")
    real = spectrum_module._iter_maximum_matchings
    total = sum(1 for _ in real(g))
    entered = []

    def counted(h):
        entered.append(h)
        return real(h)

    monkeypatch.setattr(spectrum_module, "_iter_maximum_matchings", counted)
    for cap in range(1, total + 2):
        # the census's own cap is max(256, 8 * 2^n): the same seam as the truncated census test
        monkeypatch.setattr(reduction, "_pass", lambda h, _, visit: _pass(h, cap, visit))
        entered.clear()
        want = (min(cap, total), cap < total)
        rep = spectrum(g, cap)
        assert (rep.enumerated, rep.truncated) == want
        res = enumerate_maximum_matchings(g, cap)
        assert (len(res.matchings), res.truncated) == want
        census = verify_artifact(art, exhaustive=True).census
        assert (census.count, census.truncated) == want
        for exact in (lambda: check_bounds(g, cap), lambda: approx_trial(g, range(5), cap)):
            if cap < total:
                with pytest.raises(TruncatedSpectrumError):
                    exact()
            else:
                exact()
        assert entered == [g] * 5, cap  # one pass per call


def test_enumerate_counts_match_oracle():
    rng = random.Random(77)
    for _ in range(120):
        g = random_graph(rng.randint(1, 7), rng.choice([0.3, 0.5, 0.7]), rng)
        res = enumerate_maximum_matchings(g, cap=10**5)
        assert not res.truncated
        seen = set(res.matchings)
        assert len(seen) == len(res.matchings)
        best = nu(g)
        oracle = {frozenset(m) for m in iter_all_matchings(g) if len(m) == best}
        assert seen == oracle


def test_empty_graph_has_one_maximum_matching():
    res = enumerate_maximum_matchings(build_graph(3, []), cap=10)
    assert len(res.matchings) == 1
    assert len(res.matchings[0]) == 0


# --- spectrum ---


def test_spectrum_p5():
    rep = spectrum(path(5), cap=100)
    assert (rep.nu, rep.ell, rep.big_l) == (2, 1, 2)
    assert rep.achieved == frozenset({1, 2})
    assert rep.enumerated == 3
    assert not rep.truncated
    assert nu(delete_edges(path(5), rep.witness_min)) == 1
    assert nu(delete_edges(path(5), rep.witness_max)) == 2


def test_spectrum_twin_spider_unique_maximum_matching():
    rep = spectrum(TWIN_SPIDER, cap=100)
    assert (rep.nu, rep.ell, rep.big_l) == (5, 2, 2)
    assert rep.enumerated == 1
    assert rep.witness_min == rep.witness_max


def test_spectrum_even_cycle_single_value():
    # C8 has exactly two maximum matchings, and deleting either leaves the other
    rep = spectrum(cycle(8), cap=100)
    assert rep.enumerated == 2
    assert rep.achieved == frozenset({4})
    assert rep.ell == rep.big_l == 4


def test_spectrum_matches_double_bruteforce():
    rng = random.Random(123)
    for _ in range(200):
        g = random_graph(rng.randint(1, 8), rng.choice([0.25, 0.45, 0.65]), rng)
        rep = spectrum(g, cap=10**5)
        best, residuals = spectrum_double_brute(g)
        assert rep.nu == best
        assert sorted(rep.achieved) == residuals
        assert rep.ell == residuals[0]
        assert rep.big_l == residuals[-1]


def test_spectrum_depth_does_not_grow_with_edge_count():
    g = build_graph(300, [(2 * i - 1, 2 * i) for i in range(1, 151)])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        rep = spectrum(g, cap=10)
    finally:
        sys.setrecursionlimit(old)
    assert (rep.nu, rep.ell, rep.big_l, rep.enumerated) == (150, 0, 0, 1)


def test_path_needs_one_search_per_matched_edge(monkeypatch):
    # The path's one maximum matching is perfect, so all 100 of its edges are
    # fixed: the root is the leaf, with no branching search.  R starts empty
    # and is completed from the fixed ends in vertex order.  1's only edge is
    # fixed, so its short check and its search fail; 2i augments along
    # (2i, 2i+1) by the short check for i = 1..99, which matches each odd
    # vertex above 1; 200 fails as 1 did: 2 searches, 101 checks.  These are
    # the counts of branching on the fixed edges too, where each take (2i-1,
    # 2i) repaired R at once, by other checks: there the first repair failed
    # from 1 and 2, and each later one augmented from 2i-1 to 2i-2.
    assert count_searches(monkeypatch, path(200)) == (1, 0, 2, 101)


def ladder(k):
    rails = [(i, i + 1) for i in range(1, k)] + [(k + i, k + i + 1) for i in range(1, k)]
    return build_graph(2 * k, rails + [(i, k + i) for i in range(1, k + 1)])


def test_ladder_search_count(monkeypatch):
    # M is perfect, so the free count skips every drop child and the second
    # search of every take child, and no child is pruned: the 125 branching
    # nodes have 158 take children, 33 of them with two, (u, u+1) and then
    # the rung (u, k+u).  A take child searches unless u's mate in the one
    # working M is v.  Each second child searches, for the first wrote its
    # (u, u+1) back into M when it was cut off; 29 first children search
    # too, where the subtree popped before left u on its rung: 62 searches.
    # The root matches the rails in pairs, and R is written in place, so a
    # child finds the edges that earlier repairs put into R: 50 children
    # take an edge of R, 42 repair it by the short check from u and 8 by a
    # search from u after the check finds nothing, so r never drops
    assert count_searches(monkeypatch, ladder(8)) == (34, 62, 8, 50)


@pytest.mark.parametrize("n, items, repairs", [
    # R = {12}: taking 12 leaves 1 isolated, so the repair from the first end
    # finds no short path and its search fails, and the one from the second
    # end takes 2-3 by its short check, in the list the drop child holds too:
    # its take of 23 finds 23 in R and takes 2-1 by the short check from 2
    (3, [([(1, 2)], 1), ([(2, 3)], 1)], [("short", 1, False), ("repair", 1, False),
                                         ("short", 2, True), ("short", 2, True)]),
    # 12 and 34 are fixed, so R starts empty on the path less them, 1 2-3 4:
    # the fixed ends, in order, find nothing from 1, the edge 2-3 from 2,
    # and nothing from 4, whose only edge is fixed; 3 is matched by then.
    # (Branching on 12 and 34 made as many, from other roots: checks from 1
    # and 2, searches from 1 and 2, then a check from 3.)
    (4, [([(1, 2), (3, 4)], 1)], [("short", 1, False), ("repair", 1, False),
                                  ("short", 2, True), ("short", 4, False),
                                  ("repair", 4, False)]),
])
def test_residual_repairs_on_short_paths(monkeypatch, n, items, repairs):
    stream, searches = record_searches(monkeypatch, path(n))
    assert stream == items
    assert [search for search in searches if search[0] != "branch"] == repairs


def test_the_short_path_rule_agrees_with_counting_changed_mates(monkeypatch):
    """`took_short_path` reads a few mates near the root.  A rule on the
    whole array: a path of length k flips k + 1 entries, so a short path
    changes 2 or 4 of them.  Both rules give the same answer on every
    residual `_augment` of the enumerator, on the pinned graphs above (P_101
    stands in for P_1001) and on 200 random graphs."""
    enumerator = importlib.import_module("resmatch.spectrum")
    search = enumerator._augment
    answers = []

    def both(adj, match, root, lo, arrays):
        whole, near = match[:], mates_near(adj, match, root)
        found = search(adj, match, root, lo, arrays)
        if not lo:
            changed = sum(a != b for a, b in zip(whole, match))
            answers.append((took_short_path(near, match, root), changed in (2, 4)))
        return found

    monkeypatch.setattr(enumerator, "_augment", both)
    rng = random.Random("short-path rule")
    graphs = [path(200), ladder(8), path(3), path(4), path(101)] + [
        random_bipartite(rng.randint(2, 14), 30, rng) if i % 3 == 2
        else random_graph(rng.randint(2, 12), rng.uniform(0.15, 0.5), rng) for i in range(200)]
    for g in graphs:
        for _ in enumerator._iter_maximum_matchings(g):
            pass
    assert all(near == whole for near, whole in answers)
    assert {near for near, _ in answers} == {True, False}


@pytest.mark.parametrize("seed", range(15))
def test_big_l_matches_the_milp_past_brute_force_sizes(seed):
    """G(n, p) with n 20-28 is past the exhaustive oracles; many of these
    graphs have no perfect matching, so drop children are searched too."""
    pytest.importorskip("scipy")
    rng = random.Random(f"milp:{seed}")
    g = random_graph(rng.randint(20, 28), rng.uniform(0.12, 0.25), rng)
    report = spectrum(g, cap=10**4)
    want = milp_big_l(g)
    if report.truncated:  # a prefix of the stream can only miss the maximum
        assert report.big_l <= want
    else:
        assert report.big_l == want


@pytest.mark.parametrize("seed", range(15))
def test_ell_matches_the_milp_on_bipartite_graphs(seed):
    """Bipartite G(n, p) with n 20-28, with and without perfect matchings."""
    pytest.importorskip("scipy")
    rng = random.Random(f"milp-ell:{seed}")
    n = rng.randint(20, 28)
    p, half = rng.uniform(0.15, 0.35), (n + 1) // 2
    g = build_graph(n, [(u, v) for u in range(1, half + 1) for v in range(half + 1, n + 1)
                        if rng.random() < p])
    report = spectrum(g, cap=10**4)
    want = milp_ell(g)
    if report.truncated:  # a prefix of the stream can only miss the minimum
        assert report.ell >= want
    else:
        assert report.ell == want


def test_spectrum_json_shape():
    d = spectrum(path(5), cap=100).to_json_dict()
    assert d["nu"] == 2 and d["ell"] == 1 and d["L"] == 2
    assert d["achieved"] == [1, 2]
    assert isinstance(d["witness_min"], list)


# --- problem 1 decisions ---


def test_identity_tolerance_short_circuits():
    g = path(5)
    res = decide_problem1(g, 0, parse_tolerance("identity"), cap=100)
    assert res.answer == "yes"
    assert res.enumerated == 0
    assert not res.truncated
    assert res.witness is not None
    assert validate_matching(g, res.witness).maximum


def test_problem1_yes_and_no():
    g = path(5)  # residuals: {1, 2}
    assert decide_problem1(g, 1, parse_tolerance("const:0"), cap=100).answer == "yes"
    assert decide_problem1(g, 2, parse_tolerance("const:0"), cap=100).answer == "yes"
    # no residual value is exactly 0 away from... k=0: |r-0| <= 0 impossible
    res = decide_problem1(g, 0, parse_tolerance("const:0"), cap=100)
    assert res.answer == "no"
    assert res.witness is None
    assert res.enumerated == 3


def test_problem1_witness_is_checkable():
    g = path(5)
    res = decide_problem1(g, 1, parse_tolerance("const:0"), cap=100)
    assert res.answer == "yes"
    r = nu(delete_edges(g, res.witness))
    assert abs(r - 1) <= 0


def test_problem1_witness_is_first_hit_in_enumeration_order():
    rng = random.Random(2024)
    for _ in range(60):
        g = random_graph(rng.randint(2, 9), rng.choice([0.3, 0.5]), rng)
        order = enumerate_maximum_matchings(g, cap=10**5).matchings
        residuals = [nu(delete_edges(g, m)) for m in order]
        caps = (1, 2, 10**5)
        spectrum_truncated = {cap: spectrum(g, cap=cap).truncated for cap in caps}
        assert spectrum_truncated == {cap: len(order) > cap for cap in caps}
        for spec in ("const:0", "const:1", "log"):
            f = parse_tolerance(spec)
            bound = f.evaluate(g.vertex_count)
            for k in range(g.vertex_count // 2 + 1):
                for cap in caps:
                    res = decide_problem1(g, k, f, cap=cap)
                    hits = [i for i, r in enumerate(residuals[:cap]) if abs(r - k) <= bound]
                    if hits:
                        assert (res.answer, res.witness, res.enumerated) == (
                            "yes", order[hits[0]], hits[0] + 1)
                    else:
                        seen = min(cap, len(order))
                        answer = "unknown" if len(order) > cap else "no"
                        assert (res.answer, res.witness, res.enumerated) == (answer, None, seen)
                    assert res.truncated == (res.answer == "unknown")
                    # compute exits on the report alone: a truncated answer
                    # comes from a truncated spectrum
                    assert not res.truncated or spectrum_truncated[cap]


def test_problem1_tolerance_monotone():
    g = TWIN_SPIDER  # unique residual 2, |V| = 10
    for k in range(0, 6):
        tight = decide_problem1(g, k, parse_tolerance("const:0"), cap=100).answer
        loose = decide_problem1(g, k, parse_tolerance("const:10"), cap=100).answer
        if tight == "yes":
            assert loose == "yes"
    # log tolerance: floor(log2(10)) = 3, so k within 3 of residual 2 is a yes
    assert decide_problem1(g, 5, parse_tolerance("log"), cap=100).answer == "yes"
    assert decide_problem1(g, 0, parse_tolerance("const:1"), cap=100).answer == "no"


def test_problem1_unknown_on_truncation():
    g = path(9)  # many maximum matchings
    res = decide_problem1(g, 0, parse_tolerance("const:0"), cap=2)
    assert res.answer == "unknown"
    assert res.truncated


def test_problem1_k_range_guard():
    with pytest.raises(ValueError, match="0..2"):
        decide_problem1(path(5), 3, parse_tolerance("const:0"), cap=10)
    with pytest.raises(ValueError):
        decide_problem1(path(5), -1, parse_tolerance("const:0"), cap=10)


# --- bounds and trials ---


def test_check_bounds_random():
    rng = random.Random(321)
    for _ in range(150):
        g = random_graph(rng.randint(1, 9), rng.choice([0.3, 0.5]), rng)
        rep = check_bounds(g, cap=10**5)
        assert rep.ok, rep.violations
        assert rep.ell <= rep.big_l <= 2 * rep.ell
        if rep.has_perfect_matching:
            assert 2 * rep.big_l <= 3 * rep.ell


def test_check_bounds_raises_on_truncation():
    with pytest.raises(TruncatedSpectrumError):
        check_bounds(path(9), cap=1)


@pytest.mark.parametrize("ell, big_l, want", [
    (3, 7, ("L <= 2*ell failed: 7 > 6", "2L <= 3*ell failed with perfect matching: 14 > 9")),
    (2, 1, ("ell <= L failed: 2 > 1",)),
])
def test_check_bounds_reports_each_violation(ell, big_l, want):
    # the bounds are theorems, so the report is built by hand over a graph with a perfect matching
    g = build_graph(4, [(1, 2), (3, 4)])
    m = max_matching(g)
    report = SpectrumReport(2, ell, big_l, frozenset({ell, big_l}), m, m, 1, False, ())
    bounds = _check_bounds(g, report)
    assert bounds.has_perfect_matching
    assert bounds.violations == want
    assert not bounds.ok


def test_approx_trial_p5_hits_both_extremes():
    trial = approx_trial(path(5), seeds=range(25), cap=100)
    assert trial.ok
    ratios = {trial.verdicts[r][0] for _, r in trial.rows}
    assert Fraction(1) in ratios and Fraction(2) in ratios


def test_approx_trial_ratio_ranges():
    rng = random.Random(555)
    for _ in range(60):
        g = random_graph(rng.randint(2, 9), 0.4, rng)
        trial = approx_trial(g, seeds=range(4), cap=10**5)
        assert trial.ok, trial.violations
        for _, r in trial.rows:
            assert trial.ell <= r <= trial.big_l
            r_ell, r_big_l, ok = trial.verdicts[r]
            assert ok
            if trial.ell >= 1:
                assert 1 <= r_ell <= 2
                assert Fraction(1, 2) <= r_big_l <= 1


def test_approx_trial_rows_match_the_cold_residuals():
    # approx_trial reads each seeded residual off the enumeration; here each
    # row is rebuilt from a fresh blossom on g less the seeded matching, and
    # each residual's verdict from the exact bounds
    rng = random.Random(2024)
    odd = 0
    for _ in range(200):
        g = random_graph(rng.randint(1, 12), rng.choice((0.2, 0.35, 0.5)), rng)
        odd += bipartition(g) is None
        seeds = range(rng.randint(0, 100), 100 + rng.randint(1, 30))
        bounds = check_bounds(g)
        ell, big_l = bounds.ell, bounds.big_l
        want = [(seed, residual(g, max_matching(g, seed))) for seed in seeds]
        trial = approx_trial(g, seeds)
        assert list(trial.rows) == want
        assert set(trial.verdicts) == {r for _, r in want}
        for r, verdict in trial.verdicts.items():
            ratios = (Fraction(r, ell), Fraction(r, big_l)) if ell else (None, None)
            assert verdict == (*ratios, bounds.ok and ell <= r <= big_l)
        assert (trial.nu, trial.ell, trial.big_l) == (bounds.nu, ell, big_l)
    assert odd >= 50  # graphs with odd cycles, where the searches contract blossoms


def test_approx_trial_residuals_are_the_cold_residuals_up_to_14_vertices():
    # the seeded matchings come in one batch per graph, keyed by edge tuple
    rng = random.Random(1414)
    for _ in range(40):
        g = random_graph(rng.randint(10, 14), rng.choice((0.2, 0.3)), rng)
        seeds = range(rng.randint(0, 50), 90)
        trial = approx_trial(g, seeds)
        assert list(trial.rows) == [
            (seed, residual(g, max_matching(g, seed))) for seed in seeds]


@pytest.mark.parametrize("g", [
    path(6),  # one maximum matching
    cycle(6),  # two
    path(5),  # three
    build_graph(7, [(1, v) for v in range(2, 8)]),  # a star: six, one edge each
    build_graph(8, [(1, 2), (3, 4), (4, 5), (5, 3), (6, 7)]),  # a triangle, isolated 8
    build_graph(4, []),
], ids=["p6", "c6", "p5", "star7", "triangle-isolated", "edgeless4"])
def test_approx_trial_with_repeated_matchings_is_the_per_seed_reference(g):
    # seeds are keyed by mate array, with one edge tuple per distinct
    # matching; each row must still be the seed's own matching's residual
    seeds = [*range(-40, 260), *range(30)]  # 330 seeds, 30 of them twice
    distinct = {max_matching(g, seed) for seed in seeds}
    assert len(distinct) <= 6
    bounds = check_bounds(g)
    ell, big_l = bounds.ell, bounds.big_l
    want = [(seed, residual(g, max_matching(g, seed))) for seed in seeds]
    trial = approx_trial(g, seeds)
    assert list(trial.rows) == want
    assert trial.verdicts == {
        r: ((Fraction(r, ell), Fraction(r, big_l)) if ell else (None, None))
        + (bounds.ok and ell <= r <= big_l,)
        for _, r in want}
    count = spectrum(g).enumerated
    if count > 1:  # a cap below the count truncates the spectrum, which the bounds refuse
        with pytest.raises(TruncatedSpectrumError):
            approx_trial(g, seeds, cap=count - 1)


def test_approx_trial_reads_a_one_shot_iterator_of_seeds():
    rng = random.Random(7)
    for _ in range(10):
        g = random_graph(rng.randint(4, 12), 0.35, rng)
        want = approx_trial(g, range(60))
        assert len(want.rows) == 60
        assert approx_trial(g, (seed for seed in range(60))) == want
        assert approx_trial(g, iter(list(range(60)))) == want


def test_approx_trial_a_failed_bound_fails_every_verdict(monkeypatch):
    # the bounds are theorems, so the failure is planted
    def planted(g, report):
        return BoundsReport(report.nu, report.ell, report.big_l, False, ("planted",))

    monkeypatch.setattr(sys.modules["resmatch.spectrum"], "_check_bounds", planted)
    trial = approx_trial(path(5), seeds=range(25))
    assert trial.violations == ("planted",)
    assert set(trial.verdicts) == {1, 2}
    assert not any(ok for _, _, ok in trial.verdicts.values())


def test_approx_trial_undefined_ratios_when_ell_zero():
    g = build_graph(2, [(1, 2)])  # deleting the only edge leaves nothing
    trial = approx_trial(g, seeds=[0, 1], cap=10)
    assert trial.ell == 0
    assert trial.verdicts == {0: (None, None, True)}
