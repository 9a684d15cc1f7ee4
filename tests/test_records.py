"""The result records are NamedTuples; Graph and ToleranceFunction stay
frozen dataclasses, and a matching is a frozenset of edges.

Each record is built through the call that returns it, twice, and checked
for its declared fields in order, equality and hashing by value, refused
assignment, its `Name(field=value, ...)` repr and `_replace`.  The two
dataclasses keep what a tuple could not give them.
"""

import dataclasses
import os

import pytest

from resmatch.graph import bipartition, build_graph, parse_graph_file
from resmatch.colorable import nu2_bipartite
from resmatch.matching import (matching_from_pairs, max_matching, max_matching_bipartite,
                               validate_matching)
from resmatch.reduction import (all_assignments, build_artifact, decode_matching,
                                encode_assignment, parse_dimacs, verify_artifact)
from resmatch.spectrum import (ToleranceFunction, approx_trial, check_bounds, decide_problem1,
                               enumerate_maximum_matchings, spectrum)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _read(name: str) -> str:
    with open(os.path.join(FIXTURES, name)) as fh:
        return fh.read()


def _p5():
    return parse_graph_file(_read("p5.mg"))


def _artifact():
    return build_artifact(parse_dimacs(_read("example_m1.cnf")), "L")


def _certificate():
    return verify_artifact(_artifact(), exhaustive=True)


# record name -> (its fields in declared order, a call that builds one, hashable)
RECORDS = {
    "Bipartition": (("side0", "side1"), lambda: bipartition(_p5()), True),
    "MatchingFlags": (("valid", "maximal", "maximum", "perfect"),
                      lambda: validate_matching(_p5(), max_matching(_p5())), True),
    "ColorableResult": (("size", "classes"), lambda: nu2_bipartite(_p5()), True),
    "EnumerationResult": (("matchings", "truncated"),
                          lambda: enumerate_maximum_matchings(_p5()), True),
    "SpectrumReport": (("nu", "ell", "big_l", "achieved", "witness_min", "witness_max",
                        "enumerated", "truncated", "first_seen"), lambda: spectrum(_p5()), True),
    "Problem1Result": (("answer", "witness", "enumerated", "truncated"),
                       lambda: decide_problem1(_p5(), 1, ToleranceFunction("constant", 0)), True),
    "BoundsReport": (("nu", "ell", "big_l", "has_perfect_matching", "violations"),
                     lambda: check_bounds(_p5()), True),
    "ApproxTrialReport": (("nu", "ell", "big_l", "rows", "verdicts", "violations"),
                          lambda: approx_trial(_p5(), range(1, 6)), False),  # verdicts is a dict
    "CnfInstance": (("num_vars", "clauses"), lambda: parse_dimacs(_read("example_m1.cnf")), True),
    "Assignment": (("values",),
                   lambda: decode_matching(_artifact(), spectrum(_artifact().graph).witness_min),
                   True),
    "ReductionArtifact": (("graph", "cnf", "variant", "roles", "cycles"), _artifact,
                          False),  # roles is a dict
    "ResidualCheck": (("assignment", "sat", "expected", "actual", "decode_ok"),
                      lambda: _certificate().residual_checks[0], True),
    "MatchingCensus": (("pure_expected", "count", "truncated", "pure_count", "hybrid_count",
                        "residual_min", "residual_max", "encoded_min", "encoded_max",
                        "residuals_ok"), lambda: _certificate().census, True),
    "Certificate": (("variant", "m", "vertices", "edges", "max_degree", "bipartite", "connected",
                     "nu_value", "residual_checks", "census", "discrepancies"), _certificate, True),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    fields, build, hashable = RECORDS[request.param]
    first, second = build(), build()
    assert type(first).__name__ == request.param
    return first, second, fields, hashable


def test_fields_are_the_declared_names_in_order(record):
    rec, _, fields, _ = record
    assert rec._fields == fields
    assert tuple(rec._asdict()) == fields


def test_independent_builds_are_equal_and_hash_by_value(record):
    first, second, _, hashable = record
    assert first is not second
    assert first == second
    if hashable:
        assert hash(first) == hash(second)
    else:
        with pytest.raises(TypeError):
            hash(first)


def test_a_record_is_a_tuple_of_its_fields(record):
    rec, _, fields, _ = record
    items = tuple(getattr(rec, name) for name in fields)
    assert rec == items
    assert tuple(rec) == items
    assert rec[0] == items[0]
    assert len(rec) == len(fields)


def test_setting_a_field_raises_attribute_error(record):
    rec, _, fields, _ = record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))


def test_repr_names_each_field(record):
    rec, _, fields, _ = record
    inner = ", ".join(f"{name}={getattr(rec, name)!r}" for name in fields)
    assert repr(rec) == f"{type(rec).__name__}({inner})"


def test_replace_returns_a_changed_copy(record):
    rec, second, fields, _ = record
    changed = rec._replace(**{fields[0]: None})
    assert type(changed) is type(rec)
    assert getattr(changed, fields[0]) is None
    assert changed[1:] == rec[1:]
    assert rec == second  # the original is left as it was


def test_census_count_is_the_field_not_tuple_count():
    census = _certificate().census
    assert census.count == census[1] == 8  # one maximum matching per assignment of 3 variables


def test_graph_stays_a_dataclass_hashed_without_coords():
    bare = _p5()
    g = build_graph(bare.vertex_count, list(bare.edges), {v: (v, 0) for v in range(1, 6)})
    assert dataclasses.is_dataclass(g) and not isinstance(g, tuple)
    assert g.coords is not None and bare.coords is None
    assert hash(g) == hash(bare)
    assert g.adjacency() is g.adjacency()


def _twin_spider():
    return parse_graph_file(_read("twin_spider.mg"))


def _first_seen(g):
    return g, [m for _, _, m in spectrum(g).first_seen]


def _problem1(g, k, kind, coefficient=1):
    return g, [decide_problem1(g, k, ToleranceFunction(kind, coefficient)).witness]


# case -> a call giving (g, matchings of g that an entry returned)
MATCHINGS = {
    "max_matching": lambda: (_twin_spider(), [max_matching(_twin_spider(), s) for s in range(6)]),
    "max_matching_bipartite": lambda: (_p5(), [max_matching_bipartite(_p5())]),
    "matching_from_pairs": lambda: (_p5(), [matching_from_pairs([(4, 3), (1, 2)], 5)]),
    "encode_assignment": lambda: (_artifact().graph, [encode_assignment(_artifact(), a)
                                                      for a in all_assignments(3)]),
    "spectrum_witnesses": lambda: (_twin_spider(), [spectrum(_twin_spider()).witness_min,
                                                    spectrum(_twin_spider()).witness_max]),
    "spectrum_first_seen": lambda: _first_seen(_twin_spider()),
    "decide_problem1": lambda: _problem1(_p5(), 2, "constant", 0),
    "decide_problem1_identity": lambda: _problem1(_twin_spider(), 0, "identity"),
    "enumerate_maximum_matchings": lambda: (_p5(), enumerate_maximum_matchings(_p5()).matchings),
}


@pytest.mark.parametrize("case", sorted(MATCHINGS))
def test_an_entry_returns_each_matching_as_a_frozenset_of_edges(case):
    g, matchings = MATCHINGS[case]()
    assert matchings
    for m in matchings:
        assert type(m) is frozenset
        assert all(type(e) is tuple and len(e) == 2 and e[0] < e[1] for e in m)
        assert m <= g.edges
        ends = [v for e in m for v in e]
        assert len(set(ends)) == len(ends) == 2 * len(m)  # no shared vertex; len counts edges


def test_tolerance_function_stays_a_dataclass_that_validates():
    assert dataclasses.is_dataclass(ToleranceFunction)
    with pytest.raises(ValueError, match="unknown tolerance kind 'bogus'"):
        ToleranceFunction("bogus")
