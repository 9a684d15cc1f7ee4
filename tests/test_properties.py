"""Metamorphic properties of the spectrum, on graphs that `hypothesis` draws.

Neither property assumes that the achieved set is an interval: the sumset
is built exactly.  `conftest.py` loads a derandomized profile, so every run
tries the same examples.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from resmatch.graph import Graph, build_graph
from resmatch.spectrum import spectrum

# at most 105 * 105 maximum matchings in a union of two parts on 7 vertices
CAP = 10**5


@st.composite
def graphs(draw, max_vertices=7) -> Graph:
    n = draw(st.integers(0, max_vertices))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return build_graph(n, sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else [])


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
