import importlib
import os
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from oracles import (build_artifact_reference, census_certificate, covering_cnf, expected_residual,
                     milp_big_l, milp_ell, random_cnf)

from resmatch import matching, reduction
from resmatch.graph import build_graph, delete_edges, emit_graph_file
from resmatch.matching import nu
from resmatch.reduction import (
    Assignment,
    CnfInstance,
    ConstructionError,
    DIMACS_CLAUSE_LIMIT,
    DimacsError,
    EXHAUSTIVE_LIMITS,
    ReductionArtifact,
    StructuralDecodeError,
    additive_threshold,
    all_assignments,
    build_artifact,
    calibration,
    check_exhaustive_limits,
    decode_matching,
    encode_assignment,
    expected_counts,
    parse_dimacs,
    sat_count,
    verify_artifact,
)
from resmatch.spectrum import _pass, enumerate_maximum_matchings, spectrum

M1 = "p cnf 3 1\n1 2 3 0\n"
M1_NEG = "p cnf 3 1\n-1 -2 -3 0\n"
M2_OPP = "p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n"
M2_DISJOINT = "p cnf 6 2\n1 2 3 0\n4 5 6 0\n"
M2_MIXED = "p cnf 3 2\n1 -2 3 0\n2 -3 -1 0\n"
M3 = "p cnf 4 3\n1 2 3 0\n-2 3 -4 0\n1 -3 4 0\n"
FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


# --- DIMACS parsing ---


def test_parse_dimacs_basic():
    cnf = parse_dimacs("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    assert cnf.num_vars == 3
    assert cnf.num_clauses == 2
    assert cnf.clauses == ((1, -2, 3), (-1, 2, -3))


def test_parse_dimacs_clause_spanning_lines():
    cnf = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert cnf.clauses == ((1, 2, 3),)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("1 2 3 0\n", "before header"),
        ("p cnf 3\n1 2 3 0\n", "malformed header"),
        ("p dnf 3 1\n1 2 3 0\n", "malformed header"),
        ("p cnf 0 1\n", "must be positive"),
        ("p cnf 3 1\np cnf 3 1\n1 2 3 0\n", "duplicate header"),
        ("p cnf 3 1\n1 2 x 0\n", "bad token"),
        ("p cnf 3 1\n1 2 3\n", "unterminated clause"),
        ("p cnf 3 2\n1 2 3 0\n", "declares 2 clauses but 1"),
        ("p cnf 3 1\n1 2 0\n", "clause 1: expected exactly 3"),
        ("p cnf 3 1\n1 2 3 4 0\n", "clause 1: expected exactly 3"),
        ("p cnf 3 1\n1 2 -2 0\n", "clause 1: repeated variable"),
        ("p cnf 3 1\n1 2 4 0\n", "clause 1: variable 4 out of range"),
        ("p cnf 4 1\n1 2 3 0\n", "never used"),
        ("", "missing 'p cnf' header"),
        # read as the clause (1, 2, 3) if any Unicode blank parted fields and
        # any Unicode line boundary ended lines: an em space, a record
        # separator (an ASCII control that str.split() counts as a blank)
        # and a Unicode line separator
        ("p cnf 3 1\n1\u20032\u20033\u20030\n", "line 2: bad token '1"),
        ("p cnf 3 1\n1 2 3\x1e0\n", "line 2: bad token '3"),
        ("p cnf 3 1\u20281 2 3 0\n", "line 1: malformed header"),
        # skipped as a blank line or read as a comment by str.split()
        ("p cnf 3 1\n\u3000\n1 2 3 0\n", "line 2: bad token '\\u3000'"),
        ("p cnf 3 1\n\u2003c note\n1 2 3 0\n", "line 2: bad token '\\u2003c'"),
        ("p cnf 3 1\n\x1dc note\n1 2 3 0\n", "line 2: bad token '\\x1dc'"),
    ],
)
def test_parse_dimacs_errors(text, fragment):
    with pytest.raises(DimacsError, match=re.escape(fragment)):
        parse_dimacs(text)


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff13"])
def test_parse_dimacs_reads_ascii_digits_only(token):
    # int() reads each token as a number; the clause 1 -2 <token> read as (1, -2, 3)
    for text, message in [
        (f"p cnf {token} 1\n1 2 3 0\n", f"line 1: malformed header 'p cnf {token} 1'"),
        (f"p cnf 3 {token}\n1 2 3 0\n", f"line 1: malformed header 'p cnf 3 {token}'"),
        (f"p cnf 3 1\n1 -2 {token} 0\n", f"line 2: bad token {token!r}"),
    ]:
        with pytest.raises(DimacsError) as exc:
            parse_dimacs(text)
        assert str(exc.value) == message


def test_parse_dimacs_reads_any_text_in_comments_and_every_line_end():
    text = "c caf\u00e9 \u2028 1 2 3 0\r\np cnf 3 2\r1\t2 3 0\f\n\v-1 -2 -3 0\r\n"
    assert parse_dimacs(text) == parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n")


def test_parse_dimacs_lists_unused_variables():
    with pytest.raises(DimacsError) as exc:
        parse_dimacs("p cnf 5 1\n1 2 4 0\n")
    assert str(exc.value) == "declared variable(s) never used: [3, 5]"


def test_parse_dimacs_unused_message_is_bounded():
    # the header alone must not size the work or the message
    with pytest.raises(DimacsError) as exc:
        parse_dimacs("p cnf 1000000 1\n1 2 3 0\n")
    assert str(exc.value) == (
        "declared variable(s) never used: [4, 5, 6, 7, 8, 9, 10, 11, 12, 13] (999997 in all)"
    )
    assert len(str(exc.value)) < 200


@pytest.mark.parametrize("body", ["", "x 0\n", "1 2 0\n", "1 2 3 0\n" * 3],
                         ids=["no-clauses", "bad-token", "short-clause", "too-few"])
def test_parse_dimacs_refuses_a_header_over_the_clause_limit_before_its_clauses(body):
    """The header's clause count is checked on its line, so no line after
    it is read, malformed or not."""
    assert DIMACS_CLAUSE_LIMIT == 3000
    over = DIMACS_CLAUSE_LIMIT + 1
    with pytest.raises(DimacsError) as exc:
        parse_dimacs(f"c c\np cnf 3 {over}\n" + body)
    assert str(exc.value) == (f"line 2: header declares {over} clauses,"
                              f" at most {DIMACS_CLAUSE_LIMIT} are accepted")


def test_parse_dimacs_accepts_a_header_at_the_clause_limit():
    cnf = parse_dimacs(f"p cnf 3 {DIMACS_CLAUSE_LIMIT}\n" + "1 2 3 0\n" * DIMACS_CLAUSE_LIMIT)
    assert cnf.num_clauses == DIMACS_CLAUSE_LIMIT


def test_parse_dimacs_names_later_clause():
    with pytest.raises(DimacsError, match="clause 2"):
        parse_dimacs("p cnf 3 2\n1 2 3 0\n1 3 -3 0\n")


# --- assignments ---


def test_assignment_helpers():
    a = Assignment((True, False, True))
    assert a.of(1) and not a.of(2) and a.of(3)
    assert a.bits() == "TFT"
    assert len(list(all_assignments(3))) == 8


def test_sat_count():
    cnf = parse_dimacs(M2_OPP)
    assert sat_count(cnf, Assignment((False, False, False))) == 1
    assert sat_count(cnf, Assignment((True, True, True))) == 1
    assert sat_count(cnf, Assignment((True, False, False))) == 2


# --- construction ---


@pytest.mark.parametrize("variant", ["L", "ell"])
@pytest.mark.parametrize("text", [M1, M1_NEG, M2_OPP, M2_MIXED, M3])
def test_structural_census(variant, text):
    cnf = parse_dimacs(text)
    art = build_artifact(cnf, variant)
    exp = expected_counts(cnf.num_clauses, variant)
    assert art.graph.vertex_count == exp["vertices"]
    assert art.graph.edge_count == exp["edges"]
    cert = verify_artifact(art)
    assert cert.ok, cert.discrepancies
    assert cert.nu_value == exp["nu"]
    assert cert.max_degree == exp["max_degree"]
    assert cert.bipartite and cert.connected
    assert cert.to_json_dict()["kParam"] == exp["k_param"]


def test_expected_counts_formulas():
    assert expected_counts(1, "L") == {
        "vertices": 32, "edges": 36, "nu": 16, "max_degree": 4, "k_param": 10,
    }
    assert expected_counts(1, "ell") == {
        "vertices": 28, "edges": 30, "nu": 14, "max_degree": 3, "k_param": None,
    }
    assert expected_counts(3, "L")["vertices"] == 96
    assert expected_counts(3, "ell")["edges"] == 92


def test_build_rejects_bad_variant():
    with pytest.raises(ValueError, match="variant"):
        build_artifact(parse_dimacs(M1), "both")


@pytest.mark.parametrize("check", [build_artifact, check_exhaustive_limits])
def test_variant_checks_share_one_message(check):
    # check_exhaustive_limits is library-only here: the CLI's --variant has choices
    with pytest.raises(ValueError) as err:
        check(parse_dimacs(M1), "x")
    assert str(err.value) == "variant must be one of ('L', 'ell'), got 'x'"


def test_artifact_roles_are_complete():
    art = build_artifact(parse_dimacs(M2_MIXED), "ell")
    # 8 spine vertices (4 path and 3 spine edges); per occurrence 2 u, 2 feed,
    # 3 port and 1 join edges; per clause 1 anchor and 2 link edges
    assert Counter(art.roles.values()) == {
        "path": 4, "spine": 3, "u": 12, "feed": 12, "port": 18, "join": 6,
        "anchor": 2, "link": 4,
    }
    # variable i occurs twice, so its cycle has 8 edges, 4 on each side
    assert [(len(t), len(f)) for t, f in art.cycles] == [(4, 4)] * 3


def test_l_variant_has_columns_no_links():
    roles = Counter(build_artifact(parse_dimacs(M1), "L").roles.values())
    assert roles["column"] == 2
    assert roles["rail"] == 6
    assert roles["link"] == 0


def test_build_is_deterministic():
    a = build_artifact(parse_dimacs(M2_MIXED), "L")
    b = build_artifact(parse_dimacs(M2_MIXED), "L")
    assert emit_graph_file(a.graph) == emit_graph_file(b.graph)
    assert list(a.roles.items()) == list(b.roles.items())
    assert a.cycles == b.cycles


def _assert_same_artifact(art, ref):
    assert art.graph == ref.graph
    assert art.graph.coords == ref.graph.coords  # coords take no part in ==
    assert list(art.roles.items()) == list(ref.roles.items())
    assert art.cycles == ref.cycles


# (variables, clauses): the smallest and largest of both, then seeded draws
# with n in 3..100 and m in n/3..400
_rng = random.Random("build-shapes")
BUILD_SHAPES = [(3, 1), (3, 400), (100, 34), (100, 400)] + [
    (n, _rng.randint(-(-n // 3), 400)) for n in (_rng.randint(3, 100) for _ in range(8))]


@pytest.mark.parametrize("variant", ["L", "ell"])
@pytest.mark.parametrize("num_vars, m", BUILD_SHAPES)
def test_build_matches_the_point_reference(variant, num_vars, m):
    cnf = covering_cnf(num_vars * 1000 + m, num_vars, m)
    _assert_same_artifact(build_artifact(cnf, variant), build_artifact_reference(cnf, variant))


@pytest.mark.parametrize("variant", ["L", "ell"])
@pytest.mark.parametrize("name", sorted(n for n in os.listdir(FIXTURES) if n.endswith(".cnf")))
def test_build_matches_the_point_reference_on_fixtures(variant, name):
    with open(os.path.join(FIXTURES, name)) as fh:
        cnf = parse_dimacs(fh.read())
    _assert_same_artifact(build_artifact(cnf, variant), build_artifact_reference(cnf, variant))


@pytest.mark.parametrize("variant", ["L", "ell"])
def test_build_does_not_depend_on_the_key_stride(monkeypatch, variant):
    # any odd stride above the rows gives the lattice order; the planted
    # faults below build at a wider one
    cnf = parse_dimacs(M3)
    art = build_artifact(cnf, variant)
    monkeypatch.setattr(reduction, "_stride", lambda m: 4 * m + 2001)
    _assert_same_artifact(build_artifact(cnf, variant), art)


# --- layout invariants: each planted fault raises its ConstructionError ---

# Clause 1 opens with variable 4, so its gadget is built first but sits to
# the right of variable 1's gadget in clause 2.
PLANT_CNF = "p cnf 4 2\n4 -1 2 0\n3 1 -2 0\n"


CORNERS = ("v21", "v22", "v11", "v12", "u11", "u12", "u21", "u22")  # _gadget's order


def _plant(monkeypatch, gadgets=(), move=None, extra_edge=None):
    """Build hooks: move(cells) edits the named (x, y) corners of each gadget
    (variable, clause) in `gadgets`; extra_edge joins two corners in every
    gadget.  The key stride is widened so that the points planted off the
    lattice, up to row 4m + 1001, keep keys that name them."""
    real = reduction._gadget
    monkeypatch.setattr(reduction, "_stride", lambda m: 4 * m + 2001)

    def gadget(i, j, positive, h):
        corners, edges = real(i, j, positive, h)
        cells = {name: (k // h - 1, k % h) for name, k in zip(CORNERS, corners)}
        if (i, j) in gadgets:
            move(cells)
        keys = {name: (x + 1) * h + y for name, (x, y) in cells.items()}
        moved = {k: keys[name] for name, k in zip(CORNERS, corners)}
        edges = [(moved[a], moved[b], role) for a, b, role in edges]
        if extra_edge is not None:
            a, b, role = extra_edge
            edges.append((keys[a], keys[b], role))
        return tuple(keys.values()), edges

    monkeypatch.setattr(reduction, "_gadget", gadget)


def _onto_v12(c):
    # u11 keeps its parity, and no edge of it becomes a duplicate, so only
    # the collision check can see this fault
    c["u11"] = c["v12"]


def _odd_shift(c):
    x, y = c["u11"]
    c["u11"] = (x + 1000, y + 1001)


# fault -> (how to plant it, message for L, message for ell); the two-gadget
# plants put a second fault in a gadget built later but lying first in
# lattice order, so the message must name the first offender in build order
PLANTED_FAULTS = {
    "collision": (dict(gadgets=[(4, 1), (1, 2)], move=_onto_v12), "lattice collision at (16, 4)"),
    "collision-late": (dict(gadgets=[(1, 2)], move=_onto_v12), "lattice collision at (4, 8)"),
    # v11-v12 twice in every gadget
    "duplicate": (dict(extra_edge=("v12", "v11", "port")), "duplicate edge ((15, 4), (16, 4))"),
    "parity": (dict(gadgets=[(4, 1), (1, 2)], move=_odd_shift),
               "edge ((15, 2), (1015, 1002)) does not cross the parity classes"),
    "parity-late": (dict(gadgets=[(1, 2)], move=_odd_shift),
                    "edge ((3, 6), (1003, 1006)) does not cross the parity classes"),
    "vertex-count": (dict(gadgets=[(1, 2)], move=lambda c: c.update(extra=(1000, 1001))),
                     "65 lattice points, expected 64", "57 lattice points, expected 56"),
    # one more valid edge per gadget
    "edge-count": (dict(extra_edge=("u11", "u21", "u")),
                   "79 edges, expected 73", "67 edges, expected 61"),
}


@pytest.mark.parametrize("variant", ["L", "ell"])
@pytest.mark.parametrize("fault", list(PLANTED_FAULTS))
def test_build_names_the_planted_fault(monkeypatch, variant, fault):
    plant, *messages = PLANTED_FAULTS[fault]
    _plant(monkeypatch, **plant)
    with pytest.raises(ConstructionError) as exc:
        build_artifact(parse_dimacs(PLANT_CNF), variant)
    assert str(exc.value) == messages[-1 if variant == "ell" else 0]


@pytest.mark.parametrize("variant", ["L", "ell"])
def test_build_rejects_a_variable_without_occurrences(variant):
    with pytest.raises(ConstructionError, match="^variable 4 has no occurrences$"):
        build_artifact(CnfInstance(4, ((1, 2, 3),)), variant)


@pytest.mark.parametrize("variant", ["L", "ell"])
@pytest.mark.parametrize("text", [M1, M1_NEG, M2_OPP, M2_MIXED])
def test_artifact_record(variant, text):
    cnf = parse_dimacs(text)
    art = build_artifact(cnf, variant)
    assert set(art.roles) == art.graph.edges
    # the artifact graph passes the checks of the validating constructor
    assert art.graph == build_graph(art.graph.vertex_count, list(art.roles), art.graph.coords)
    assert len(art.cycles) == cnf.num_vars
    for true_side, false_side in art.cycles:
        assert not true_side & false_side
        assert len(true_side) == len(false_side)
        for side in (true_side, false_side):
            assert len({v for e in side for v in e}) == 2 * len(side)  # a matching
    sides = [side for pair in art.cycles for side in pair]
    cycle_edges = {e for e, role in art.roles.items() if role in ("port", "join")}
    assert set().union(*sides) == cycle_edges
    assert sum(map(len, sides)) == len(cycle_edges)  # the cycles are disjoint
    fixed = {e for e, role in art.roles.items() if role in ("path", "u", "column")}
    for alpha in all_assignments(cnf.num_vars):
        chosen = [t if value else f for value, (t, f) in zip(alpha.values, art.cycles)]
        assert encode_assignment(art, alpha) == fixed.union(*chosen)


@pytest.mark.parametrize("variant, axis", [("L", 0), ("ell", 1)])
@pytest.mark.parametrize("text", [M1, M1_NEG, M2_OPP, M2_MIXED])
def test_true_side_orientation(variant, axis, text):
    # L takes the vertical side of each cycle for TRUE (both ends share x),
    # ell the horizontal side (both ends share y)
    art = build_artifact(parse_dimacs(text), variant)
    xy = art.graph.coords
    for true_side, false_side in art.cycles:
        assert all(xy[u][axis] == xy[v][axis] for u, v in true_side)
        assert all(xy[u][1 - axis] == xy[v][1 - axis] for u, v in false_side)


# --- encode / decode ---


@pytest.mark.parametrize("variant", ["L", "ell"])
@pytest.mark.parametrize("text", [M1, M1_NEG, M2_OPP, M2_MIXED])
def test_encode_decode_roundtrip(variant, text):
    cnf = parse_dimacs(text)
    art = build_artifact(cnf, variant)
    for alpha in all_assignments(cnf.num_vars):
        f = encode_assignment(art, alpha)
        assert 2 * len(f) == art.graph.vertex_count
        assert decode_matching(art, f) == alpha


def test_encode_rejects_wrong_arity():
    art = build_artifact(parse_dimacs(M1), "L")
    with pytest.raises(ValueError, match="3"):
        encode_assignment(art, Assignment((True,)))


def test_decode_requires_perfect_matching():
    art = build_artifact(parse_dimacs(M1), "L")
    with pytest.raises(ValueError, match="perfect"):
        decode_matching(art, frozenset())


def test_decode_flags_hybrid_matchings():
    # this instance admits perfect matchings that thread through port links
    art = build_artifact(parse_dimacs(M2_MIXED), "ell")
    enum = enumerate_maximum_matchings(art.graph, cap=1000)
    encodings = {encode_assignment(art, a) for a in all_assignments(3)}
    hybrids = [f for f in enum.matchings if f not in encodings]
    assert len(hybrids) == 2
    for f in hybrids:
        with pytest.raises(StructuralDecodeError, match="not purely oriented"):
            decode_matching(art, f)


# --- residual identities ---


@pytest.mark.parametrize("variant", ["L", "ell"])
@pytest.mark.parametrize("text", [M1, M1_NEG, M2_OPP, M2_DISJOINT, M2_MIXED])
def test_residual_identity_exhaustive(variant, text):
    cnf = parse_dimacs(text)
    art = build_artifact(cnf, variant)
    m = cnf.num_clauses
    for alpha in all_assignments(cnf.num_vars):
        f = encode_assignment(art, alpha)
        r = nu(delete_edges(art.graph, f))
        s = sat_count(cnf, alpha)
        want = 10 * m - 1 + s if variant == "L" else 11 * m - 1 - s
        assert r == want == expected_residual(art, alpha), (variant, alpha.bits())


@pytest.mark.parametrize("variant", ["L", "ell"])
@pytest.mark.parametrize("text", [M1, M2_OPP, M2_MIXED])
def test_verify_exhaustive_certificate(variant, text):
    art = build_artifact(parse_dimacs(text), variant)
    cert = verify_artifact(art, exhaustive=True)
    assert cert.ok, cert.discrepancies
    assert cert.census is not None
    assert cert.census.pure_count == 2**art.cnf.num_vars
    assert cert.census.residual_min == cert.census.encoded_min
    if variant == "L":
        assert cert.census.hybrid_count == 0
    d = cert.to_json_dict()
    assert d["ok"] is True
    assert d["V"] == d["expectedV"]
    assert d["E"] == d["expectedE"]
    assert len(d["residualChecks"]) == 2**art.cnf.num_vars


@pytest.mark.parametrize("variant", ["L", "ell"])
def test_hand_built_artifact_certifies(variant):
    # the record stores no closed-form counts, so an artifact assembled from
    # its parts certifies exactly as the compiled one does
    art = build_artifact(parse_dimacs(M2_MIXED), variant)
    hand = ReductionArtifact(art.graph, art.cnf, art.variant, art.roles, art.cycles)
    assert verify_artifact(hand, exhaustive=True) == verify_artifact(art, exhaustive=True)


@pytest.mark.parametrize("text, ell", [
    ("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n", 19),
    ("p cnf 4 4\n1 2 3 0\n-1 2 4 0\n1 -3 -4 0\n-2 3 4 0\n", 39),
], ids=["n3m2", "n4m4"])
def test_ell_census_minimum_matches_the_milp(text, ell):
    """The census minimum is ell of the artifact, which is bipartite; both
    formulas are satisfiable, so it is 11m - 1 - m."""
    pytest.importorskip("scipy")
    art = build_artifact(parse_dimacs(text), "ell")
    census = verify_artifact(art, exhaustive=True).census
    assert not census.truncated
    assert census.residual_min == milp_ell(art.graph) == ell


def test_big_l_past_the_census_limit_matches_the_milp_and_the_closed_form():
    """Seven variables, one past the exhaustive limit: L of the L artifact
    from the enumeration, from the fixed-size integer program and as
    10m - 1 + maxsat, with maxsat over all 2^7 assignments, agree."""
    pytest.importorskip("scipy")
    pytest.importorskip("networkx")
    cnf = covering_cnf(7, EXHAUSTIVE_LIMITS["L"]["variables"] + 1, 20)
    art = build_artifact(cnf, "L")
    report = spectrum(art.graph)
    maxsat = max(sat_count(cnf, alpha) for alpha in all_assignments(cnf.num_vars))
    assert not report.truncated and report.enumerated == 2**cnf.num_vars
    assert report.big_l == milp_big_l(art.graph) == 10 * 20 - 1 + maxsat


def test_hybrid_census_is_recorded():
    art = build_artifact(parse_dimacs(M2_MIXED), "ell")
    cert = verify_artifact(art, exhaustive=True)
    assert cert.ok
    assert cert.census.hybrid_count == 2
    # hybrids may only enlarge the residual range upward
    assert cert.census.residual_max >= cert.census.encoded_max
    assert cert.census.residual_min == cert.census.encoded_min


def test_exhaustive_raises_above_limit():
    wide = "p cnf 7 3\n1 2 3 0\n4 5 6 0\n7 1 2 0\n"
    art = build_artifact(parse_dimacs(wide), "L")
    assert art.cnf.num_vars == EXHAUSTIVE_LIMITS["L"]["variables"] + 1
    with pytest.raises(ValueError, match="at most 6 variables, instance has 7"):
        verify_artifact(art, exhaustive=True)
    assert verify_artifact(art, exhaustive=False).ok


@pytest.mark.parametrize("variant", ["L", "ell"])
def test_exhaustive_raises_above_clause_limit(variant):
    # the census time grows with m; the variable limit does not bound m
    limit = {"L": 50, "ell": 6}[variant]
    assert EXHAUSTIVE_LIMITS[variant] == {"variables": 6, "clauses": limit}
    art = build_artifact(parse_dimacs(random_cnf(3, limit + 1, 0)), variant)
    with pytest.raises(ValueError, match=f"at most {limit} clauses, instance has {limit + 1}$"):
        verify_artifact(art, exhaustive=True)
    assert verify_artifact(art, exhaustive=False).ok


def test_exhaustive_runs_at_clause_limit():
    art = build_artifact(parse_dimacs(random_cnf(3, EXHAUSTIVE_LIMITS["L"]["clauses"], 0)), "L")
    cert = verify_artifact(art, exhaustive=True)
    assert cert.ok and cert.census.count == 8


@pytest.mark.parametrize("n", range(3, 7))
def test_exhaustive_ell_certifies_every_sweep_formula_at_its_clause_limit(n):
    # the ell limit is the largest m at which all 20 seeded formulas at each
    # n from 3 to 6 certify; at m = 7 one at n = 5 hits the census cap
    m = EXHAUSTIVE_LIMITS["ell"]["clauses"]
    for seed in range(20):
        cert = verify_artifact(build_artifact(parse_dimacs(random_cnf(n, m, seed)), "ell"),
                               exhaustive=True)
        assert cert.ok and not cert.census.truncated, seed


def _without_a_path_edge(art):
    path_edge = next(e for e, role in art.roles.items() if role == "path")
    return art._replace(graph=delete_edges(art.graph, [path_edge]))


def test_exhaustive_reports_artifact_without_perfect_matching():
    broken = _without_a_path_edge(build_artifact(parse_dimacs(M1), "L"))
    cert = verify_artifact(broken, exhaustive=True)
    assert not cert.ok
    assert cert.residual_checks == ()
    assert cert.census.pure_count == 0
    assert cert.census.encoded_min is None
    assert cert.to_json_dict()["ok"] is False
    assert any(msg.startswith("nu:") for msg in cert.discrepancies)


def test_verify_reports_coordinates_that_do_not_two_color():
    with open(os.path.join(FIXTURES, "example_m1.cnf")) as fh:
        art = build_artifact(parse_dimacs(fh.read()), "L")
    g = art.graph
    a, b = min(g.edges)
    coords = dict(g.coords)
    coords[a], coords[b] = coords[b], coords[a]  # (a, b) still crosses; the other edges at a do not
    cert = verify_artifact(art._replace(graph=build_graph(g.vertex_count, list(g.edges), coords)))
    assert cert.bipartite is False
    assert cert.discrepancies == ("bipartite: parity classes do not two-color the artifact",)


@pytest.mark.parametrize("variant, text, broken", [("L", M1, False), ("L", M1, True),
                                                  ("ell", M2_MIXED, False)],
                         ids=["intact", "path-edge-deleted", "ell-with-hybrids"])
def test_exhaustive_verify_is_one_census_pass(monkeypatch, variant, text, broken):
    art = build_artifact(parse_dimacs(text), variant)
    if broken:  # no perfect matching: every maximum matching is a hybrid
        art = _without_a_path_edge(art)
    spectrum_module = importlib.import_module("resmatch.spectrum")
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((reduction, "nu"), (matching, "nu"), (reduction, "decode_matching"),
                         (reduction, "sat_count"), (matching, "validate_matching"),
                         (spectrum_module, "_iter_maximum_matchings"),
                         (reduction, "_covered"), (matching, "_covered"),
                         (reduction, "_is_matching_of"), (matching, "_is_matching_of")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    cert = verify_artifact(art, exhaustive=True)
    assert cert.ok is not broken
    assert calls["_iter_maximum_matchings"] == 1  # one census pass
    assert calls["nu"] == 1  # the structural nu; residuals come from the census
    assert calls["sat_count"] == len(cert.residual_checks)  # one per checked assignment
    # each leaf is read as the stream's edge tuple: nothing re-checks it as a matching
    assert calls["_covered"] == calls["_is_matching_of"] == 0
    assert calls["decode_matching"] == calls["validate_matching"] == 0
    if not broken:
        assert cert.census.pure_count == 2**art.cnf.num_vars
        assert cert.census.hybrid_count == (variant == "ell") * 2


def _close_anchor_square(art):
    """art with the edges u11-u21 and u12-u22 of one anchor square added, so
    the square is a 4-cycle whose other side can replace its two u edges."""
    g = art.graph
    ids = {p: v for v, p in g.coords.items()}
    anchor = next(e for e, role in art.roles.items() if role == "anchor")
    u11 = next(v for v in anchor if g.coords[v][0] != -1)  # the other end is on the spine
    u12 = sum(next(e for e, role in art.roles.items() if role == "u" and u11 in e)) - u11
    (x, y), (x2, y2) = g.coords[u11], g.coords[u12]
    # the square spans (x, y)..(x + 1, y + 1): u12 is one unit step from u11, u21 the other
    u21, u22 = ids[(x + 1 - (x2 - x), y + 1 - (y2 - y))], ids[(x + 1, y + 1)]
    closed = build_graph(g.vertex_count, [*g.edges, (u11, u21), (u12, u22)], g.coords)
    return art._replace(graph=closed)


def _census_inputs(art):
    """(label, artifact): art, art less the first edge of each role, and art
    with one anchor square closed."""
    yield "intact", art
    for role in sorted(set(art.roles.values())):
        e = next(e for e, r in art.roles.items() if r == role)
        yield f"no {role} edge {e}", art._replace(graph=delete_edges(art.graph, [e]))
    yield "closed anchor square", _close_anchor_square(art)


# (variables, clauses) of the seeded formulas: 3-6 variables, 1-4 clauses
CENSUS_SHAPES = [(3, 1), (3, 4), (4, 2), (5, 3), (6, 2), (6, 4)]


@pytest.mark.parametrize("variant", ["L", "ell"])
@pytest.mark.parametrize("shape", CENSUS_SHAPES, ids=lambda s: f"n{s[0]}m{s[1]}")
def test_census_matches_the_reference(variant, shape):
    art = build_artifact(parse_dimacs(random_cnf(*shape, seed=0)), variant)
    for label, mutant in _census_inputs(art):
        want = census_certificate(mutant).to_json_dict()
        assert verify_artifact(mutant, exhaustive=True).to_json_dict() == want, label


@pytest.mark.parametrize("variant", ["L", "ell"])
def test_closed_anchor_square_gives_two_matchings_per_assignment(variant):
    art = _close_anchor_square(build_artifact(parse_dimacs(M3), variant))
    d = verify_artifact(art, exhaustive=True).to_json_dict()
    assert d == census_certificate(art).to_json_dict()
    assert d["census"]["pureCount"] == 2 * 2**art.cnf.num_vars
    assert d["census"]["residualsOk"] is False
    assert [rc["decodeOk"] for rc in d["residualChecks"]] == [False] * 2**art.cnf.num_vars


@pytest.mark.parametrize("variant", ["L", "ell"])
def test_truncated_census_reports_only_what_a_prefix_shows(monkeypatch, variant):
    monkeypatch.setattr(reduction, "_pass", lambda g, cap, visit: _pass(g, 4, visit))
    art = build_artifact(parse_dimacs(M1), variant)
    cert = verify_artifact(art, exhaustive=True)
    assert cert.census.truncated and cert.census.count == 4
    assert cert.discrepancies == ("census: enumeration truncated, cannot certify",)
    assert len(cert.residual_checks) == 4 and all(rc.ok for rc in cert.residual_checks)
    for label, mutant in _census_inputs(art):
        want = census_certificate(mutant, cap=4).to_json_dict()
        assert verify_artifact(mutant, exhaustive=True).to_json_dict() == want, label


def test_satisfying_assignment_hits_k_param():
    # a fully satisfying assignment drives the L-variant residual to 11m-1
    for text in (M1, M2_OPP):
        cnf = parse_dimacs(text)
        art = build_artifact(cnf, "L")
        m = cnf.num_clauses
        hits = [
            alpha
            for alpha in all_assignments(cnf.num_vars)
            if sat_count(cnf, alpha) == m
        ]
        assert hits
        for alpha in hits:
            f = encode_assignment(art, alpha)
            assert (nu(delete_edges(art.graph, f)) == 11 * m - 1
                    == expected_counts(m, "L")["k_param"])


# --- calibration ---


def test_calibration_exact_values():
    assert calibration("L", Fraction(1, 100)) == Fraction(3, 200)
    assert calibration("ell", Fraction(1, 100)) == Fraction(1, 40)
    # generic form: both variants leave delta in (0, 1/8)
    assert calibration("L", Fraction(1, 89)) == Fraction(1, 8) - Fraction(11, 89)
    assert calibration("ell", Fraction(1, 81)) == Fraction(1, 8) - Fraction(10, 81)


def test_calibration_matches_rederivation():
    rng = random.Random(10)
    for _ in range(50):
        q = rng.randint(89, 10**6)
        eps = Fraction(1, q)
        # solve 10 + 7/8 + delta = 11(1 - eps) for delta
        assert calibration("L", eps) == 11 * (1 - eps) - Fraction(87, 8)
    for _ in range(50):
        q = rng.randint(81, 10**6)
        eps = Fraction(1, q)
        # solve 11 - 7/8 - delta = 10(1 + eps) for delta
        assert calibration("ell", eps) == Fraction(81, 8) - 10 * (1 + eps)


def test_calibration_boundaries_rejected():
    for bad in (Fraction(0), Fraction(1, 88), Fraction(1, 2), Fraction(-1, 100)):
        with pytest.raises(ValueError):
            calibration("L", bad)
    for bad in (Fraction(0), Fraction(1, 80), Fraction(1, 2)):
        with pytest.raises(ValueError):
            calibration("ell", bad)
    with pytest.raises(ValueError, match="variant"):
        calibration("x", Fraction(1, 100))


def test_calibration_range():
    rng = random.Random(20)
    for _ in range(100):
        eps = Fraction(1, rng.randint(89, 10**4))
        assert 0 < calibration("L", eps) < Fraction(1, 8)
        assert 0 < calibration("ell", eps) < Fraction(1, 8)


def test_additive_threshold():
    # bound is 1/256 - eps/32
    assert additive_threshold(Fraction(1, 1000), Fraction(1, 16))
    assert not additive_threshold(Fraction(1, 256), Fraction(1, 16))
    assert not additive_threshold(Fraction(1, 256), Fraction(1, 10**6))
    # exact boundary: c equal to the bound is rejected
    eps = Fraction(1, 64)
    bound = Fraction(1, 256) - eps / 32
    assert not additive_threshold(bound, eps)
    assert additive_threshold(bound - Fraction(1, 10**9), eps)


def test_additive_threshold_guards():
    with pytest.raises(ValueError, match="positive"):
        additive_threshold(Fraction(0), Fraction(1, 16))
    with pytest.raises(ValueError, match="eps"):
        additive_threshold(Fraction(1, 1000), Fraction(1, 8))
    with pytest.raises(ValueError, match="eps"):
        additive_threshold(Fraction(1, 1000), Fraction(0))


def test_calibration_rational_types():
    d = calibration("L", Fraction(1, 100))
    assert isinstance(d, Fraction)
    assert d.denominator == 200


@pytest.mark.parametrize("n, m", [(30, 10), (30, 5)])
def test_random_cnf_gives_up_on_a_shape_it_cannot_cover(n, m):
    """m clauses of three variables use all n only if 3m >= n, and at 3m = n
    only if no two share one: the redraws end in an error that names the
    shape instead of running on."""
    with pytest.raises(ValueError, match=f"draws of m = {m} clauses used all n = {n} variables"):
        random_cnf(n, m, 0)
