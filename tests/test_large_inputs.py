"""Matching, nu2, compute, the enumerator's memory and the structural
certificate far above brute-force sizes.

Every search here is iterative, so path length does not meet Python's
recursion limit.
"""

import ast
import json
import pathlib
import time
import tracemalloc

import pytest

import resmatch
from oracles import count_searches, covering_cnf, path
from resmatch.cli import main
from resmatch.colorable import nu2_bipartite
from resmatch.graph import (GRAPH_VERTEX_LIMIT, GraphFormatError, build_graph, emit_graph_file,
                            parse_graph_file)
from resmatch.matching import max_matching, max_matching_bipartite, nu, validate_matching
from resmatch.reduction import DimacsError, build_artifact, parse_dimacs, verify_artifact
from resmatch.spectrum import _iter_maximum_matchings, spectrum


def labelled_path(k: int):
    """Path a_1 b_1 a_2 b_2 ... a_k b_k, labelled so that a vertex-order greedy
    pass leaves a_1 and b_k free: the one augmenting path spans all 2k vertices.
    Left vertices a_i = i-1 for i >= 2 and a_1 = k; right vertices b_i = k+i."""
    a = [None, k] + list(range(1, k))
    b = [None] + [k + i for i in range(1, k + 1)]
    edges = [(a[i], b[i]) for i in range(1, k + 1)] + [(a[i], b[i - 1]) for i in range(2, k + 1)]
    return build_graph(2 * k, edges)


def ladder(rungs: int):
    """2 x rungs grid: vertices i and rungs+i form rung i."""
    edges = [(i, rungs + i) for i in range(1, rungs + 1)]
    for i in range(1, rungs):
        edges += [(i, i + 1), (rungs + i, rungs + i + 1)]
    return build_graph(2 * rungs, edges)


def test_labelled_path_of_3000_vertices():
    g = labelled_path(1500)
    m = max_matching_bipartite(g)
    assert len(m) == 1500
    assert validate_matching(g, m).perfect
    assert nu(g) == 1500
    assert nu2_bipartite(g).size == 2999


def test_ladder_of_ten_thousand_vertices():
    g = ladder(5000)
    assert nu(g) == 5000
    assert len(max_matching_bipartite(g)) == 5000
    assert validate_matching(g, max_matching(g, 3)).perfect
    result = nu2_bipartite(g)
    assert result.size == 10000  # the boundary cycle is Hamiltonian
    class0, class1 = result.classes
    assert len(class0) == len(class1) == 5000


def four_cycles(count: int):
    """count disjoint 4-cycles: 2^count maximum matchings, none of them fixed."""
    edges = []
    for a in range(0, 4 * count, 4):
        edges += [(a + 1, a + 2), (a + 2, a + 3), (a + 3, a + 4), (a + 1, a + 4)]
    return build_graph(4 * count, edges)


def first_leaf_peak_mb(g) -> float:
    """The tracemalloc peak, in MiB, of the enumeration of g up to its first
    leaf; g's adjacency lists are built before, and not counted.  While it
    runs, 2,000 tuples of each length up to 20 are held, so that CPython's
    free lists of small tuples start empty: a tuple taken from one is not
    counted, and up to 2,000 of each length would otherwise hide."""
    g.adjacency()
    held = [tuple(range(k)) for k in range(1, 21) for _ in range(2000)]
    tracemalloc.start()
    try:
        next(_iter_maximum_matchings(g))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
        del held


@pytest.mark.parametrize("family, size", [(lambda k: path(2 * k + 1), 5000), (four_cycles, 2500),
                                          (ladder, 2500)], ids=["odd-path", "4-cycles", "ladder"])
def test_memory_to_the_first_leaf_grows_linearly(family, size):
    """The first leaf of P_10001 and of 2,500 disjoint 4-cycles lies 5,000
    levels down, and that of the 2 x 2500 ladder 2,500.  The enumerator keeps
    one working M and copies R only where r drops, so each doubling of the
    input about doubles its peak, which stays under 16 MiB at twice these
    sizes.  (A copy of M or R per pending level took 96-384 MiB at these
    sizes, 4x per doubling.)  The larger input runs only once the smaller
    has passed its bound."""
    small = first_leaf_peak_mb(family(size))
    assert small <= 16
    large = first_leaf_peak_mb(family(2 * size))
    assert large <= 16 and large <= 2.2 * small


def test_spectrum_of_the_path_on_3000_vertices(monkeypatch):
    """One maximum matching, and it is perfect: each of its edges is fixed,
    so the enumeration is its root alone, with no branching search."""
    g = path(3000)
    rep = spectrum(g)
    assert rep.enumerated == 1
    assert rep.ell == rep.big_l == 1499
    assert not rep.truncated
    assert count_searches(monkeypatch, g)[:2] == (1, 0)


def test_compute_on_the_path_of_100000_vertices(tmp_path):
    """The largest input compute accepts: its one maximum matching's 50,000
    edges are fixed, so the enumeration does no branching, and the path
    less them is 49,999 disjoint edges."""
    graph, report = tmp_path / "p100000.mg", tmp_path / "p100000.json"
    graph.write_text(emit_graph_file(path(100000)))
    assert main(["compute", str(graph), "--output", str(report)]) == 0
    out = json.loads(report.read_text())
    assert (out["nu"], out["ell"], out["L"], out["enumerated"]) == (50000, 49999, 49999, 1)


def test_compute_on_the_path_of_100000_vertices_with_a_chord(tmp_path):
    """P_100000 and the chord (1, 3) close a triangle, so the graph is not
    bipartite, and its one maximum matching is still the path's, since a
    perfect matching that held (1, 3) would leave 2 unmatched.  Every edge
    of it is fixed, so the enumeration does no branching."""
    chorded = build_graph(100000, [*path(100000).edges, (1, 3)])
    graph, report = tmp_path / "p100000-chord.mg", tmp_path / "p100000-chord.json"
    graph.write_text(emit_graph_file(chorded))
    assert main(["compute", str(graph), "--output", str(report)]) == 0
    out = json.loads(report.read_text())
    assert (out["nu"], out["ell"], out["L"], out["enumerated"]) == (50000, 49999, 49999, 1)
    assert out["bipartite"] is False and "nu2" not in out


def over_bound_text(over: str) -> str:
    """A formula of 10^6 clauses, or a file declaring GRAPH_VERTEX_LIMIT + 1
    vertices with 10^6 edge records (the path's 10^5 edges ten times)."""
    if over == "cnf":
        return f"p cnf 3 {10**6}\n" + "1 2 3 0\n" * 10**6
    n = GRAPH_VERTEX_LIMIT + 1
    return f"p mg {n} {10 * (n - 1)}\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, n)) * 10


@pytest.mark.parametrize("over", ["cnf", "graph"])
def test_a_parser_refuses_an_over_bound_header_before_the_lines_after_it(over):
    """Each parser raises its header error in under 5 ms (the best of three
    calls) and with a tracemalloc peak under 1 MiB beyond the text: it reads
    the header first, and its reader splits only the block of lines that
    holds it.  Splitting the whole text first took 65-92 ms and 61-67 MiB."""
    text = over_bound_text(over)
    parse, error = (parse_dimacs, DimacsError) if over == "cnf" else (parse_graph_file,
                                                                      GraphFormatError)

    def refuse():
        with pytest.raises(error, match="^line 1: header declares "):
            parse(text)

    times = []
    for _ in range(3):
        start = time.perf_counter()
        refuse()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        refuse()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert min(times) < 0.005 and peak < 2**20


@pytest.mark.parametrize("command, over", [("reduce", "cnf"), ("verify", "cnf"),
                                           ("compute", "graph"), ("verify", "graph")])
def test_a_million_records_after_an_over_bound_header_are_never_read(tmp_path, capsys,
                                                                     command, over):
    """The two texts of `over_bound_text` are refused at their header line:
    exit 2 within 0.5 s, no warning and no output file.  The refusal costs
    the read of the file: 12-30 ms in process, where splitting it whole
    first took 120-157 ms (Python 3.11)."""
    cnf, graph, output = tmp_path / "in.cnf", tmp_path / "in.mg", tmp_path / "out"
    cnf.write_text(over_bound_text("cnf") if over == "cnf" else "p cnf 3 1\n1 2 3 0\n")
    graph.write_text(over_bound_text("graph") if over == "graph" else emit_graph_file(path(5)))
    argv = {"reduce": ["reduce", str(cnf), "--variant", "L"],
            "verify": ["verify", str(graph), str(cnf), "--variant", "L"],
            "compute": ["compute", str(graph)]}[command]
    start = time.perf_counter()
    code = main([*argv, "--output", str(output)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: line 1: header declares ")
    assert "warning:" not in err and not output.exists()
    assert elapsed < 0.5


def test_odd_path_needs_one_search_per_matching(monkeypatch):
    """P_1001 has 501 maximum matchings, one missing each odd vertex.  One
    vertex is free at the root, so only the drop child of an odd vertex
    needs a search, and below it none is free: 500 searches in all.  The
    last two counts are the residual repairs: 1,000 repair searches, and
    125,751 checks for a path of length 1 or 3, one per `_augment` of the
    carried residual matching.  R is written in place, so the last leaf,
    which leaves 1 unmatched, finds each of its takes (2i, 2i+1) in R, where
    the repairs of the leaves before it put them, and repairs each by one
    check: 500 of those checks, where a copy of the root's R had none."""
    assert count_searches(monkeypatch, path(1001)) == (501, 500, 1000, 125751)


@pytest.mark.parametrize("variant", ["L", "ell"])
def test_structural_certificate_at_800_clauses(variant):
    cnf = covering_cnf(8, 201, 800)
    art = build_artifact(cnf, variant)
    assert art.graph.vertex_count > 10000
    assert verify_artifact(art, exhaustive=False).ok


def test_no_function_in_the_package_calls_itself():
    """Direct recursion (a function calling its own name, or self.<name> in a
    method) would tie input size to the interpreter's recursion limit."""
    offenders = []
    for path in sorted(pathlib.Path(resmatch.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if (isinstance(f, ast.Name) and f.id == fn.name) or (
                    isinstance(f, ast.Attribute)
                    and f.attr == fn.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")
                ):
                    offenders.append(f"{path.name}:{node.lineno} {fn.name}")
    assert offenders == []
