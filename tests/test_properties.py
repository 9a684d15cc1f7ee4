"""Properties of the spectrum and the reduction, on inputs that `hypothesis`
draws: two metamorphic ones (disjoint union, relabelling), the paper's
bounds (ell <= L <= 2*ell, 2L <= 3*ell with a perfect matching, and
L <= nu2 - nu on bipartite graphs), and decoding an encoded assignment.

No property assumes that the achieved set is an interval: the sumset is
built exactly.  `conftest.py` loads a derandomized profile, so every run
tries the same examples.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from resmatch.colorable import nu2_bipartite
from resmatch.graph import Graph, build_graph
from resmatch.reduction import (
    VARIANTS,
    Assignment,
    build_artifact,
    decode_matching,
    encode_assignment,
    parse_dimacs,
)
from resmatch.spectrum import spectrum

# at most 105 * 105 maximum matchings in a union of two parts on 7 vertices
CAP = 10**5


@st.composite
def graphs(draw, max_vertices=7) -> Graph:
    n = draw(st.integers(0, max_vertices))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return build_graph(n, sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else [])


@st.composite
def graphs_with_perfect_matching(draw, max_pairs=5) -> Graph:
    """A graph on 2k vertices that holds the perfect matching the drawn
    order pairs up, plus any other edges."""
    n = 2 * draw(st.integers(1, max_pairs))
    order = draw(st.permutations(range(1, n + 1)))
    planted = {tuple(sorted(order[i:i + 2])) for i in range(0, n, 2)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return build_graph(n, sorted(planted | draw(st.sets(st.sampled_from(pairs)))))


@st.composite
def bipartite_graphs(draw, max_side=5) -> Graph:
    """Sides 1..a and a+1..a+b, then a relabelling, so a side is not an
    interval of the vertex ids."""
    a, b = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    n = a + b
    label = draw(st.permutations(range(1, n + 1)))
    pairs = [(label[u - 1], label[v - 1]) for u in range(1, a + 1) for v in range(a + 1, n + 1)]
    return build_graph(n, sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else [])


@st.composite
def formulas(draw, max_vars=6, max_clauses=3) -> str:
    """An exact-3 DIMACS formula in which every variable occurs: the drawn
    variables are renamed 1..k in order of first use."""
    n = draw(st.integers(3, max_vars))
    variables = st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True)
    clauses = draw(st.lists(variables, min_size=1, max_size=max_clauses))
    rename: dict[int, int] = {}
    for v in (v for cl in clauses for v in cl):
        rename.setdefault(v, len(rename) + 1)
    lines = [" ".join(str(rename[v] if draw(st.booleans()) else -rename[v]) for v in cl) + " 0\n"
             for cl in clauses]
    return f"p cnf {len(rename)} {len(clauses)}\n" + "".join(lines)


def relabelled(g: Graph, label: list[int]) -> list[tuple[int, int]]:
    """The edges of g with each vertex v renamed label[v - 1]."""
    return [(label[u - 1], label[v - 1]) for u, v in g.edges]


def summary(g: Graph):
    rep = spectrum(g, cap=CAP)
    assert not rep.truncated
    return rep.nu, rep.ell, rep.big_l, rep.achieved, rep.enumerated


@settings(max_examples=300)
@given(st.data(), graphs(), graphs())
def test_disjoint_union_spectrum_is_the_sumset(data, g1, g2):
    """A maximum matching of a disjoint union is one of each part, and so is
    its residual: nu and the residuals add, and the counts multiply."""
    n1, n = g1.vertex_count, g1.vertex_count + g2.vertex_count
    label = data.draw(st.permutations(range(1, n + 1)))  # interleaves the parts
    union = build_graph(n, relabelled(g1, label) + relabelled(g2, label[n1:]))
    nu1, _, _, a1, e1 = summary(g1)
    nu2, _, _, a2, e2 = summary(g2)
    nu, ell, big_l, achieved, enumerated = summary(union)
    sumset = {x + y for x in a1 for y in a2}
    assert (nu, achieved, enumerated) == (nu1 + nu2, sumset, e1 * e2)
    assert (ell, big_l) == (min(sumset), max(sumset))


@settings(max_examples=300)
@given(st.data(), graphs(max_vertices=9))
def test_relabelling_keeps_the_spectrum(data, g):
    n = g.vertex_count
    label = data.draw(st.permutations(range(1, n + 1)))
    assert summary(build_graph(n, relabelled(g, label))) == summary(g)


@settings(max_examples=300)
@given(graphs(max_vertices=9))
def test_ell_and_L_bound_each_other(g):
    """Any maximum matching is a 2-approximation for ell: L <= 2 * ell."""
    _, ell, big_l, achieved, _ = summary(g)
    assert ell <= big_l <= 2 * ell
    assert min(achieved) == ell and max(achieved) == big_l


@settings(max_examples=200)
@given(graphs_with_perfect_matching())
def test_a_perfect_matching_tightens_the_bound(g):
    nu, ell, big_l, _, _ = summary(g)
    assert 2 * nu == g.vertex_count
    assert 2 * big_l <= 3 * ell


@settings(max_examples=200)
@given(bipartite_graphs())
def test_L_is_at_most_nu2_minus_nu_on_bipartite_graphs(g):
    """G - F keeps F's vertices, and F plus a matching of G - F is a union
    of two disjoint matchings of G: nu + L <= nu2."""
    nu, _, big_l, _, _ = summary(g)
    assert big_l <= nu2_bipartite(g).size - nu


@settings(max_examples=100)
@given(st.data(), formulas(), st.sampled_from(VARIANTS))
def test_decoding_an_encoding_gives_back_its_assignment(data, text, variant):
    art = build_artifact(parse_dimacs(text), variant)
    bits = data.draw(st.lists(st.booleans(), min_size=art.cnf.num_vars,
                              max_size=art.cnf.num_vars))
    alpha = Assignment(tuple(bits))
    assert decode_matching(art, encode_assignment(art, alpha)) == alpha
