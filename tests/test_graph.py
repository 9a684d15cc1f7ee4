import random
import re
import warnings

import pytest
from oracles import adjacency_by_sorted_edges, degree_profile_by_edges, record_lines_reference

from resmatch import graph

from resmatch.graph import (
    Bipartition,
    DuplicateEdgeWarning,
    Graph,
    GRAPH_EDGE_LIMIT,
    GRAPH_VERTEX_LIMIT,
    GraphFormatError,
    bipartition,
    build_graph,
    degree_profile,
    delete_edges,
    emit_graph_file,
    is_connected,
    is_valid_bipartition,
    normalize_edge,
    parse_graph_file,
    records,
)
from resmatch.reduction import build_artifact, parse_dimacs


def test_normalize_edge_orders_endpoints():
    assert normalize_edge(3, 1) == (1, 3)
    assert normalize_edge(1, 3) == (1, 3)


def test_build_graph_basic():
    g = build_graph(4, [(1, 2), (3, 2), (3, 4)])
    assert g.vertex_count == 4
    assert g.edge_count == 3
    assert g.sorted_edges() == [(1, 2), (2, 3), (3, 4)]
    assert g.adjacency()[2] == [1, 3]


def test_build_graph_collapses_duplicates_with_warning():
    with pytest.warns(DuplicateEdgeWarning, match="2 duplicate"):
        g = build_graph(3, [(1, 2), (2, 1), (1, 2), (2, 3)])
    assert g.edge_count == 2


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph(3, [(2, 2)])
    with pytest.raises(ValueError, match="outside"):
        build_graph(3, [(1, 4)])
    with pytest.raises(ValueError, match="non-negative"):
        build_graph(-1, [])


def test_empty_and_edgeless_graphs():
    assert build_graph(0, []).edge_count == 0
    g = build_graph(5, [])
    assert g.sorted_edges() == []
    assert degree_profile(g) == {"min": 0, "max": 0, "histogram": [(0, 5)]}


def test_coords_validation():
    g = build_graph(2, [(1, 2)], coords={1: (0, 0), 2: (0, 1)})
    assert g.coords[2] == (0, 1)
    with pytest.raises(ValueError, match="cover every vertex"):
        build_graph(2, [(1, 2)], coords={1: (0, 0)})
    with pytest.raises(ValueError, match="injective"):
        build_graph(2, [(1, 2)], coords={1: (0, 0), 2: (0, 0)})
    with pytest.raises(ValueError, match="unknown vertex"):
        build_graph(2, [(1, 2)], coords={1: (0, 0), 2: (0, 1), 3: (1, 1)})


def test_bipartition_even_cycle():
    g = build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
    b = bipartition(g)
    assert b is not None
    assert b.side0 == frozenset({1, 3, 5})
    assert is_valid_bipartition(g, b)


def test_bipartition_odd_cycle_is_none():
    g = build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert bipartition(g) is None


def test_bipartition_prefers_coord_parity():
    # path laid out on the lattice; parity classes match the BFS classes
    g = build_graph(3, [(1, 2), (2, 3)], coords={1: (0, 0), 2: (0, 1), 3: (1, 1)})
    b = bipartition(g)
    assert b.side0 == frozenset({1, 3})


def test_is_valid_bipartition_rejects_bad_split():
    g = build_graph(2, [(1, 2)])
    assert not is_valid_bipartition(g, Bipartition(frozenset({1, 2}), frozenset()))
    assert not is_valid_bipartition(g, Bipartition(frozenset({1}), frozenset()))


def test_connectivity():
    assert is_connected(build_graph(0, []))
    assert is_connected(build_graph(1, []))
    assert not is_connected(build_graph(2, []))
    assert is_connected(build_graph(3, [(1, 2), (2, 3)]))
    assert not is_connected(build_graph(4, [(1, 2), (3, 4)]))


def test_degree_profile_star():
    g = build_graph(4, [(1, 2), (1, 3), (1, 4)])
    assert degree_profile(g) == {
        "min": 1,
        "max": 3,
        "histogram": [(1, 3), (3, 1)],
    }


def test_delete_edges_keeps_vertices():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    h = delete_edges(g, [(3, 2)])
    assert h.vertex_count == 4
    assert h.sorted_edges() == [(1, 2), (3, 4)]
    with pytest.raises(ValueError, match=r"edge \(1, 4\) is not in the graph"):
        delete_edges(g, [(1, 4)])


def test_graph_with_coords_is_hashable():
    cnf = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
    a = build_artifact(cnf, "L").graph
    b = build_artifact(cnf, "L").graph
    assert a == b and a is not b
    assert hash(a) == hash(b)
    moved = Graph(a.vertex_count, a.edges, {v: (x + 1, y) for v, (x, y) in a.coords.items()})
    assert moved != a


def test_delete_edges_preserves_coords():
    g = build_graph(2, [(1, 2)], coords={1: (0, 0), 2: (1, 0)})
    h = delete_edges(g, [(1, 2)])
    assert h.coords == g.coords


GOOD_FILE = """\
# sample
p mg 3 2
v 1 0 0
v 2 1 0
v 3 2 0
e 1 2
e 2 3
"""


def test_parse_graph_file_roundtrip():
    g = parse_graph_file(GOOD_FILE)
    assert g.vertex_count == 3
    assert g.sorted_edges() == [(1, 2), (2, 3)]
    assert g.coords == {1: (0, 0), 2: (1, 0), 3: (2, 0)}
    assert parse_graph_file(emit_graph_file(g)) == g


def test_emit_is_canonical():
    a = build_graph(3, [(2, 3), (1, 2)])
    b = build_graph(3, [(1, 2), (3, 2)])
    assert emit_graph_file(a) == emit_graph_file(b)
    assert emit_graph_file(a).endswith("\n")


def test_emit_without_coords_has_no_vertex_records():
    text = emit_graph_file(build_graph(2, [(1, 2)]))
    assert text == "p mg 2 1\ne 1 2\n"


def test_emitted_edge_records_are_the_sorted_edges():
    """The edge records come from the adjacency lists, not from a sort: they
    must still be the sorted edge pairs, on the seeded graphs of
    _helper_graphs (vertexless, edgeless, isolated vertices, no coordinates),
    on some of them with shuffled coordinates and on the vertexless graph
    with an empty coordinate map, and parse back to g."""
    rng = random.Random("emit-order")
    graphs = _helper_graphs()
    for g in graphs[1::10]:
        xs = list(range(g.vertex_count))
        rng.shuffle(xs)
        graphs.append(build_graph(g.vertex_count, list(g.edges),
                                  {v: (xs[v - 1], v % 3) for v in range(1, g.vertex_count + 1)}))
    graphs.append(build_graph(0, [], {}))  # an empty map round-trips as no map
    assert graphs[0].vertex_count == 0 and graphs[-2].coords is not None
    for g in graphs:
        text = emit_graph_file(g)
        assert [line for line in text.splitlines() if line[0] == "e"] == [
            f"e {u} {v}" for u, v in sorted(g.edges)]
        assert parse_graph_file(text) == g


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("e 1 2\n", "record before header"),
        ("p mg 2\n", "malformed header"),
        ("p mg 2 x\n", "malformed header"),
        ("p mg -1 0\n", "negative count"),
        ("p mg 2 1\np mg 2 1\n", "duplicate header"),
        ("p mg 2 1\ne 1\n", "malformed edge record"),
        ("p mg 2 1\ne 1 3\n", "out of range"),
        ("p mg 2 1\ne 1 1\n", "self-loop"),
        ("p mg 2 1\nq 1 2\n", "unknown record tag"),
        ("p mg 2 2\ne 1 2\n", "header declares 2 edges"),
        ("p mg 2 1\nv 5 0 0\ne 1 2\n", "vertex id 5 out of range"),
        ("p mg 2 1\nv 1 0 0\nv 1 1 1\ne 1 2\n", "duplicate coordinates"),
        ("", "missing 'p mg' header"),
    ],
)
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_graph_file(text)


def test_parse_reports_line_numbers():
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph_file("# c\np mg 2 1\ne 1 1\n")


@pytest.mark.parametrize("body", ["", "e 1 1\n", "x 1 2\n", "e 1 2\n" * 3],
                         ids=["no-records", "self-loop", "unknown-tag", "duplicates"])
def test_parse_refuses_a_header_over_the_vertex_limit_before_its_records(body):
    """The header's vertex count is checked on its line: a malformed record
    after it is never read, and duplicate edges after it draw no warning."""
    assert GRAPH_VERTEX_LIMIT == 10**5
    over = GRAPH_VERTEX_LIMIT + 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GraphFormatError) as exc:
            parse_graph_file(f"# c\np mg {over} 3\n" + body)
    assert str(exc.value) == (f"line 2: header declares {over} vertices,"
                              f" at most {GRAPH_VERTEX_LIMIT} are accepted")


@pytest.mark.parametrize("body", ["", "e 1 1\n", "x 1 2\n", "e 1 2\n" * 3],
                         ids=["no-records", "self-loop", "unknown-tag", "duplicates"])
def test_parse_refuses_a_header_over_the_edge_limit_before_its_records(body):
    """The header's edge count is checked on its line too, after its vertex
    count: no record after it is read, and duplicates draw no warning."""
    assert GRAPH_EDGE_LIMIT == 10**6
    over = GRAPH_EDGE_LIMIT + 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GraphFormatError) as exc:
            parse_graph_file(f"# c\np mg 10 {over}\n" + body)
    assert str(exc.value) == (f"line 2: header declares {over} edges,"
                              f" at most {GRAPH_EDGE_LIMIT} are accepted")
    with pytest.raises(GraphFormatError, match=f"declares {GRAPH_VERTEX_LIMIT + 1} vertices"):
        parse_graph_file(f"p mg {GRAPH_VERTEX_LIMIT + 1} {over}\n" + body)


def test_parse_accepts_a_header_at_the_edge_limit():
    """At the bound the header is read, and only the record count refuses it."""
    with pytest.raises(GraphFormatError) as exc:
        parse_graph_file(f"p mg 10 {GRAPH_EDGE_LIMIT}\n")
    assert str(exc.value) == f"header declares {GRAPH_EDGE_LIMIT} edges but 0 edge records found"


def test_parse_accepts_a_header_at_the_vertex_limit():
    g = parse_graph_file(f"p mg {GRAPH_VERTEX_LIMIT} 1\ne 1 {GRAPH_VERTEX_LIMIT}\n")
    assert (g.vertex_count, g.edges) == (GRAPH_VERTEX_LIMIT, {(1, GRAPH_VERTEX_LIMIT)})


def test_parse_collapses_duplicate_edges_with_warning():
    with pytest.warns(DuplicateEdgeWarning):
        g = parse_graph_file("p mg 2 2\ne 1 2\ne 2 1\n")
    assert g.edge_count == 1


# Exact messages: lines end at '\n', '\r\n' or '\r' and records are split on
# ASCII blanks, so leading blanks, tabs and form feeds do not change a record,
# a '#' opens a comment only as the first character of its first field, and
# tags are compared whole.
@pytest.mark.parametrize(
    "text, message",
    [
        ("  p mg 2 1\n\te 1 2\n \te 1 1\n", "line 3: self-loop at vertex 1"),
        ("p mg 2 1\n   e 1\n", "line 2: malformed edge record 'e 1'"),
        ("p mg 2 1\n\tv 1 0\n", "line 2: malformed vertex record 'v 1 0'"),
        ("p mg 2 1\n  v 3 0 0  \n", "line 2: vertex id 3 out of range"),
        ("  p mg 2 1 7\n", "line 1: malformed header 'p mg 2 1 7'"),
        ("#comment\np mg 2 1\n#x\ne 1 3\n", "line 4: edge endpoint out of range in 'e 1 3'"),
        ("p mg 2 1\n #e 1 2\ne 1 1\n", "line 3: self-loop at vertex 1"),
        ("# c\nv 1 0 0\np mg 1 0\n", "line 2: record before header"),
        ("p mg 2 1\nee 1 2\n", "line 2: unknown record tag 'ee'"),
        ("p mg 2 1\nvx 1 0 0\n", "line 2: unknown record tag 'vx'"),
        ("pp mg 2 1\n", "line 1: unknown record tag 'pp'"),
        ("p mg 2 1\ne\n", "line 2: malformed edge record 'e'"),
        ("p mg 2 1\r\ne 1 2\r\ne 2 2\r\n", "line 3: self-loop at vertex 2"),
        ("p mg 2 1\r\ne 1 x\r\n", "line 2: malformed edge record 'e 1 x'"),
        ("p mg 2 1\ne 1 3   \n", "line 2: edge endpoint out of range in 'e 1 3'"),
        ("\n\n   \np mg 2 1\n\n\t\ne 1 1\n", "line 7: self-loop at vertex 1"),
        ("\n\n\np mg 2\n", "line 4: malformed header 'p mg 2'"),
        ("p mg 2 1\n\x0ce 1 2\n\x0ce 1 1\n", "line 3: self-loop at vertex 1"),  # \f is a blank
        # str.split() and str.splitlines() would read each of these as a header
        # and the edge (1, 2): an em space, a no-break space, a unit separator
        # (an ASCII control that str.split() counts as a blank), a Unicode line
        # separator and a next-line control
        ("p mg 2 1\ne\u20031\u20032\n", "line 2: unknown record tag 'e\\u20031\\u20032'"),
        ("p mg 2 1\ne 1 2\u00a0\n", "line 2: malformed edge record 'e 1 2\\xa0'"),
        ("p mg 2 1\ne 1\x1f2\n", "line 2: malformed edge record 'e 1\\x1f2'"),
        ("p mg 2 1\u2028e 1 2\n", "line 1: malformed header 'p mg 2 1\\u2028e 1 2'"),
        ("# caf\u00e9\u2028\np mg 2 1\x85e 1 2\n", "line 2: malformed header 'p mg 2 1\\x85e 1 2'"),
        # str.split() would skip a line of non-ASCII blanks and read a comment
        # indented by one or by \x1c-\x1f as a comment
        ("p mg 2 1\n\u3000\ne 1 2\n", "line 2: unknown record tag '\\u3000'"),
        ("p mg 2 1\n\u00a0# note\ne 1 2\n", "line 2: unknown record tag '\\xa0#'"),
        ("p mg 2 1\n\x1c# note\ne 1 2\n", "line 2: unknown record tag '\\x1c#'"),
    ],
)
def test_parse_dispatch_messages(text, message):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph_file(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("token", ["1_0", "\u0662", "\uff13"])
def test_parse_reads_ascii_digits_only(token):
    # int() reads each token as a number: a digit separator, an Arabic-Indic
    # and a fullwidth digit
    for text, kind in [(f"p mg {token} 0\n", "header"), (f"p mg 3 {token}\n", "header"),
                       (f"p mg 3 0\nv {token} 0 0\n", "vertex record"),
                       (f"p mg 3 0\nv 1 0 {token}\n", "vertex record"),
                       (f"p mg 3 1\ne 1 {token}\n", "edge record")]:
        lines = text.splitlines()
        with pytest.raises(GraphFormatError) as exc:
            parse_graph_file(text)
        assert str(exc.value) == f"line {len(lines)}: malformed {kind} {lines[-1]!r}"


def _parse_int_by_regex(text):
    """The digit rule as one regular expression: the reference for `parse_int`."""
    if not re.fullmatch(r"\s*[-+]?\d+\s*", text, re.ASCII):
        raise ValueError(f"{text[:40]!r} is not an integer")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text[:40]!r} has too many digits") from None


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def test_parse_int_follows_the_regex_digit_rule():
    # ASCII digits and blanks, non-ASCII digits (Arabic-Indic, fullwidth, a
    # superscript that str.isdigit() accepts), non-ASCII blanks, \x1c-\x1f,
    # the digit separator, signs and letters
    alphabet = list("0123456789 \t\n\r\f\v+-_xe") + [
        "\u0662", "\uff13", "\u00b2", "\u00a0", "\u2003", "\u2028", "\x85",
        "\x1c", "\x1d", "\x1e", "\x1f"]
    rng = random.Random("parse-int")
    corpus = ["", " ", "+", "-", "+-1", "--1", "1-", "0", "-0", "+7", " \t-12 \r\n", "1 2",
              "1_0", "\u0662", "\uff13", "\u00b2", "\x1c5", "5\x1f", "\u00a05", "5\u2003",
              "9" * 5000, "-" + "9" * 5000, " " + "1" * 4300 + " ", "1" * 4301]
    corpus += ["".join(rng.choices(alphabet, k=rng.randint(1, 8))) for _ in range(20000)]
    corpus += [rng.choice(["", " ", "\t"]) + rng.choice(["", "+", "-"])
               + "".join(rng.choices("0123456789", k=rng.randint(1, 30)))
               + rng.choice(["", " ", "\n", "\u00a0", "_1"]) for _ in range(5000)]
    for text in corpus:
        assert _outcome(graph.parse_int, text) == _outcome(_parse_int_by_regex, text), repr(text)


def test_parse_reads_any_text_in_comments():
    text = "# caf\u00e9 \u2003e 1 2\u2028e 2 3\n#\x1c\r\np mg 3 2\re 1 2\r\n\f# \x85\ne 2 3\n"
    assert parse_graph_file(text) == parse_graph_file("p mg 3 2\ne 1 2\ne 2 3\n")


def test_parse_ignores_blanks_tabs_and_carriage_returns():
    messy = "\r\n# c\r\n  p mg 3 2\r\n\tv 1 0 0\r\n v 2 1 0\nv 3 2 0 \r\n\n e 1 2\r\ne\t2 3\r\n"
    assert parse_graph_file(messy) == parse_graph_file(GOOD_FILE)


# what a record line can hold: the three line ends, the ASCII blanks, a
# separator and two line ends that str.split() and str.splitlines() would
# read, both comment characters, digits and letters; the plain part is the
# ASCII one less \x1c, which str.split() parts at BLANKS alone
READER_ALPHABET = ["\n", "\r\n", "\r", " ", "\t", "\f", "\v", "\x1c", "\u2028", "\x85",
                   "#", "c", "p", "e", "x", "0", "1", "7"]
PLAIN_ALPHABET = [t for t in READER_ALPHABET if t.isascii() and t != "\x1c"]


@pytest.mark.parametrize("block", [1, 2, 7, graph._BLOCK])
def test_records_read_each_line_as_the_whole_text_rule_does(monkeypatch, block):
    """300 seeded texts, every other one plain, read in blocks of 1, 2 and 7
    characters, so that block edges fall inside lines and between the two
    characters of a \\r\\n, and at the package's block size: each comment
    character gives the same line numbers, fields and stripped lines as the
    reference."""
    monkeypatch.setattr(graph, "_BLOCK", block)
    rng = random.Random("records")
    for i in range(300):
        text = "".join(rng.choices(READER_ALPHABET if i % 2 else PLAIN_ALPHABET,
                                   k=rng.randint(0, 120)))
        for comment in "#c":
            assert list(records(text, comment)) == record_lines_reference(text, comment)


@pytest.mark.parametrize("offset", range(-2, 3))
@pytest.mark.parametrize("end", ["\r\n", "\r", "\n"])
def test_records_across_a_block_edge(offset, end):
    """A whole and a plain text of three blocks, with a line end inserted at
    the edge of the first block or near it: at offset -1 a \\r\\n straddles
    the edge."""
    rng = random.Random(f"edge:{offset}:{end}")
    edge = graph._BLOCK + offset
    for alphabet in (READER_ALPHABET, PLAIN_ALPHABET):
        text = "".join(rng.choices(alphabet, k=3 * graph._BLOCK))
        text = text[:edge] + end + text[edge:]
        for comment in "#c":
            assert list(records(text, comment)) == record_lines_reference(text, comment)


def _helper_graphs():
    """200 seeded graphs: the empty graph, edgeless ones, and sparse to dense
    random graphs, some of them disjoint unions, so that many have isolated
    vertices or several components."""
    rng = random.Random("graph-helpers")
    graphs = [build_graph(0, []), build_graph(1, []), build_graph(5, [])]
    while len(graphs) < 200:
        n = rng.randint(1, 16)
        p = rng.choice((0.05, 0.15, 0.3, 0.6))
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
        if rng.random() < 0.3:  # a second part that shares no vertex with the first
            k = rng.randint(1, 8)
            edges += [(n + u, n + v) for u in range(1, k + 1) for v in range(u + 1, k + 1)
                      if rng.random() < p]
            n += k
        rng.shuffle(edges)
        graphs.append(build_graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]))
    return graphs


def test_graph_helpers_match_their_references():
    nx = pytest.importorskip("networkx")
    disconnected = 0
    for g in _helper_graphs():
        assert g.adjacency() == adjacency_by_sorted_edges(g)
        assert degree_profile(g) == degree_profile_by_edges(g)
        h = nx.Graph()
        h.add_nodes_from(range(1, g.vertex_count + 1))
        h.add_edges_from(g.edges)
        connected = g.vertex_count == 0 or nx.is_connected(h)
        assert is_connected(g) == connected
        disconnected += not connected
    assert 50 <= disconnected <= 150  # both answers are well represented
