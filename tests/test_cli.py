import argparse
import gc
import importlib
import io
import json
import os
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from oracles import path, random_bipartite, random_cnf

from resmatch.cli import build_parser, main
from resmatch.colorable import upper_bound_L
from resmatch.graph import GRAPH_VERTEX_LIMIT, emit_graph_file, parse_graph_file
from resmatch.reduction import DIMACS_CLAUSE_LIMIT, VARIANTS
from resmatch.spectrum import ApproxTrialReport, approx_trial, spectrum

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
P5 = os.path.join(FIXTURES, "p5.mg")
TWIN = os.path.join(FIXTURES, "twin_spider.mg")
CNF1 = os.path.join(FIXTURES, "example_m1.cnf")
CNF2 = os.path.join(FIXTURES, "example_m2.cnf")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _counting(monkeypatch, target: str) -> list:
    """Replace target (a dotted path) by a wrapper that records each call's
    first argument and then calls it; returns the record."""
    module, _, name = target.rpartition(".")
    # the module itself: the package's attribute resmatch.spectrum is the function
    home = __import__(module, fromlist=[name])
    real = getattr(home, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(home, name, wrapper)
    return calls


def test_compute_p5(capsys):
    code, out, _ = run(capsys, "compute", P5)
    assert code == 0
    d = json.loads(out)
    assert (d["nu"], d["ell"], d["L"]) == (2, 1, 2)
    assert d["achieved"] == [1, 2]
    assert d["bipartite"] and d["connected"]
    assert d["nu2"] == 4
    assert not d["truncated"]


def test_compute_twin_spider(capsys):
    code, out, _ = run(capsys, "compute", TWIN)
    assert code == 0
    d = json.loads(out)
    assert (d["nu"], d["nu2"], d["L"], d["ell"]) == (5, 8, 2, 2)
    assert d["enumerated"] == 1
    assert d["upper_bound_L"] == 3
    assert d["degree_profile"]["max"] == 3


def test_compute_upper_bound_is_colorables_bound(tmp_path, capsys):
    """compute writes nu2 - nu from its own report's nu, and
    `colorable.upper_bound_L` computes it afresh: the two must agree on
    every bipartite graph, and L must not exceed it (L <= nu2 - nu)."""
    rng = random.Random("compute-upper-bound")
    for i in range(20):
        n = rng.randint(6, 14)
        g = random_bipartite(n, 3 * n, rng)
        graph = tmp_path / f"g{i}.mg"
        graph.write_text(emit_graph_file(g))
        code, out, _ = run(capsys, "compute", str(graph))
        assert code == 0
        d = json.loads(out)
        assert d["bipartite"]
        assert d["upper_bound_L"] == upper_bound_L(g)
        assert d["L"] <= d["upper_bound_L"]


def _commands(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    """The subcommand action of parser; its choices map each name to its parser."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands


def test_variant_choices_are_the_reduction_variants():
    choices = {name: action.choices for name, sub in _commands(build_parser()).choices.items()
               for action in sub._actions if action.dest == "variant"}
    assert choices.keys() == {"reduce", "verify", "calibrate"}
    # the tuple itself, not a copy of its values: the list of variants has one home
    assert all(c is VARIANTS for c in choices.values())


def test_compute_is_byte_identical(capsys):
    _, first, _ = run(capsys, "compute", P5)
    _, second, _ = run(capsys, "compute", P5)
    assert first == second
    assert first.endswith("\n")


def test_compute_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "compute", P5, "--output", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["nu"] == 2


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_output_files_get_the_umask_mode(tmp_path, capsys, umask, mode):
    # as open(path, "w") would create them, not as mkstemp's 0600
    report, cert = tmp_path / "report.json", tmp_path / "cert.json"
    old = os.umask(umask)
    try:
        assert run(capsys, "compute", P5, "--output", str(report))[0] == 0
        assert run(capsys, "reduce", CNF1, "--variant", "L", "--output",
                   str(tmp_path / "art.mg"), "--certificate", str(cert))[0] == 0
    finally:
        os.umask(old)
    assert [os.stat(p).st_mode & 0o777 for p in (report, cert)] == [mode, mode]


def test_compute_problem1_identity(capsys):
    code, out, _ = run(capsys, "compute", P5, "--k", "1", "--f", "identity")
    assert code == 0
    p1 = json.loads(out)["problem1"]
    assert p1["answer"] == "yes"
    assert p1["enumerated"] == 0
    assert p1["witness"]


def test_compute_problem1_no(capsys):
    code, out, _ = run(capsys, "compute", P5, "--k", "0", "--f", "const:0")
    assert code == 0
    p1 = json.loads(out)["problem1"]
    assert p1["answer"] == "no"
    assert p1["witness"] is None


def test_compute_two_colors_the_graph_once_per_question(capsys, monkeypatch):
    """compute two-colors a bipartite graph twice, once per question: for
    the report's bipartite key, and inside nu2_bipartite, which colors g
    itself because that costs less than checking a given coloring.  So no
    compute path calls is_valid_bipartition.  The enumerator colours
    nothing: its fixed edges need no sides."""
    in_cli = _counting(monkeypatch, "resmatch.cli.bipartition")
    in_graph = _counting(monkeypatch, "resmatch.graph.bipartition")  # require_bipartite's
    checks = _counting(monkeypatch, "resmatch.graph.is_valid_bipartition")
    code, out, _ = run(capsys, "compute", TWIN)
    assert code == 0 and json.loads(out)["nu2"] == 8
    assert (len(in_cli), len(in_graph), len(checks)) == (1, 1, 0)
    in_graph.clear()
    with open(TWIN) as f:
        g = parse_graph_file(f.read())
    # the enumerator's modules hold no binding of their own that the counter would miss
    assert not any(hasattr(importlib.import_module(f"resmatch.{name}"), "bipartition")
                   for name in ("spectrum", "matching"))
    spectrum(g)
    assert in_graph == []


def test_compute_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.mg"
    bad.write_text("p mg 2 1\ne 1 1\n")
    code, out, err = run(capsys, "compute", str(bad))
    assert code == 2
    assert "self-loop" in err


def test_compute_checks_k_and_f_before_enumerating(capsys, monkeypatch):
    def no_spectrum(g, cap):
        raise AssertionError("spectrum ran before the input checks")

    monkeypatch.setattr("resmatch.cli.spectrum", no_spectrum)
    code, _, err = run(capsys, "compute", P5, "--k", "99")
    assert (code, err) == (2, "error: k must lie in 0..2, got 99\n")
    code, _, err = run(capsys, "compute", P5, "--k", "1", "--f", "cubic:1")
    assert (code, err) == (2, "error: unknown tolerance kind 'cubic'\n")


@pytest.mark.parametrize("spec, err", [
    ("bogus", "error: unknown tolerance kind 'bogus'\n"),
    # a ':' promises a coefficient, so an empty one is refused, not read as 1
    ("const:", "error: rational '' is not an integer, a decimal or p/q\n"),
    ("identity:", "error: rational '' is not an integer, a decimal or p/q\n"),
    # identity takes no coefficient, not even one equal to 1
    ("identity:1", "error: identity tolerance admits no coefficient\n"),
    ("identity:1/1", "error: identity tolerance admits no coefficient\n"),
    ("identity:1.0", "error: identity tolerance admits no coefficient\n"),
    ("identity:2", "error: identity tolerance admits no coefficient\n"),
])
def test_compute_checks_f_without_k(capsys, monkeypatch, spec, err):
    def no_spectrum(g, cap):
        raise AssertionError("spectrum ran before the input checks")

    monkeypatch.setattr("resmatch.cli.spectrum", no_spectrum)
    assert run(capsys, "compute", P5, "--f", spec) == (2, "", err)


OVER_VERTICES = GRAPH_VERTEX_LIMIT + 1
VERTEX_LIMIT_ERROR = (f"error: line 1: header declares {OVER_VERTICES} vertices,"
                      f" at most {GRAPH_VERTEX_LIMIT} are accepted\n")


def test_compute_refuses_inputs_above_the_vertex_limit(capsys, monkeypatch, tmp_path):
    """The parser refuses the header: a self-loop after it is never read,
    duplicate edges after it draw no warning, and no report is written."""
    def no_spectrum(g, cap):
        raise AssertionError("spectrum ran before the vertex limit")

    monkeypatch.setattr("resmatch.cli.spectrum", no_spectrum)
    graph, report = tmp_path / "huge.mg", tmp_path / "report.json"
    for body in ("", "e 1 1\n", "e 1 2\n" * 3):
        graph.write_text(f"p mg {OVER_VERTICES} {len(body.splitlines())}\n" + body)
        for extra in ([], ["--k", "1", "--f", "const:0"]):
            assert run(capsys, "compute", str(graph), *extra, "--output", str(report)) == (
                2, "", VERTEX_LIMIT_ERROR)
            assert not report.exists()


def test_compute_accepts_inputs_at_the_vertex_limit(capsys, tmp_path):
    graph = tmp_path / "limit.mg"
    graph.write_text(f"p mg {GRAPH_VERTEX_LIMIT} 1\ne 1 {GRAPH_VERTEX_LIMIT}\n")
    code, out, _ = run(capsys, "compute", str(graph))
    assert code == 0
    assert json.loads(out)["nu"] == 1


def test_out_of_memory_exits_2_without_traceback(capsys, monkeypatch):
    def exhausted(g, cap):
        raise MemoryError

    monkeypatch.setattr("resmatch.cli.spectrum", exhausted)
    code, out, err = run(capsys, "compute", P5)
    assert (code, out, err) == (2, "", "error: out of memory\n")  # no traceback


@pytest.mark.parametrize("argv", [
    ("compute", P5, "--k", "1", "--f", "linear:1/0"),
    ("bench", "random:n=4,count=1,p=1/0"),
    ("bench", "random:n=4,count=1,p=1e999"),
    ("bench", "random:n=4,count=1,p=3/2"),
    ("bench", "random:n=4,count=1,p=-1/2"),
    ("calibrate", "--epsilon", "1/0"),
    ("calibrate", "--epsilon", "1/100", "--c", "1/0"),
    # ASCII digits and blanks, no separator: the pattern refuses what Fraction would read
    ("calibrate", "--epsilon", "\u0663"),
    ("calibrate", "--epsilon", "1/1_00"),
    ("calibrate", "--epsilon", "1/100", "--c", "\uff13/4"),
    ("calibrate", "--epsilon", "\u20031/100"),
    ("compute", P5, "--k", "1", "--f", "linear:\uff13/4"),
    ("bench", "random:n=4,count=1,p=1/\u0663"),
])
def test_bad_rationals_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


# each integer option, after the arguments its command needs
INTEGER_OPTIONS = [("compute", P5, "--k"), ("compute", P5, "--cap"),
                   ("bench", "path:3", "--trials"), ("bench", "path:3", "--seed"),
                   ("bench", "path:3", "--cap")]


@pytest.mark.parametrize("text, error", [
    # ASCII digits and blanks, no separator: the digit rule of the family fields
    ("1_0", "is not an integer"),
    ("\u0663", "is not an integer"),
    ("\uff13", "is not an integer"),
    ("\u20035", "is not an integer"),
    ("x", "is not an integer"),
    ("9" * 5000, "has too many digits"),
])
@pytest.mark.parametrize("argv", INTEGER_OPTIONS, ids=lambda argv: f"{argv[0]} {argv[-1]}")
def test_integer_options_take_ascii_digits_only(capsys, argv, text, error):
    with pytest.raises(SystemExit) as exc:
        main([*argv, text])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.endswith(f"error: argument {argv[-1]}: value {text[:40]!r} {error}\n")


@pytest.mark.parametrize("argv", INTEGER_OPTIONS, ids=lambda argv: f"{argv[0]} {argv[-1]}")
def test_integer_options_read_signs_and_ascii_blanks(capsys, argv):
    name = argv[-1][2:]
    assert vars(build_parser().parse_args([*argv, " +3 "]))[name] == 3
    assert vars(build_parser().parse_args([*argv, "-2"]))[name] == -2


@pytest.mark.parametrize("exponent", ["1e5000", "1e999", "1e2000000", "1e-3"])
def test_rationals_refuse_exponents(capsys, exponent):
    start = time.perf_counter()
    code, out, err = run(capsys, "calibrate", "--epsilon", exponent)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == f"error: rational '{exponent}' is not an integer, a decimal or p/q\n"


def test_rationals_with_more_digits_than_int_converts_exit_2(capsys):
    code, _, err = run(capsys, "calibrate", "--epsilon", "1/" + "3" * 5000)
    assert (code, err) == (2, f"error: rational '1/{'3' * 38}' has too many digits\n")


def test_duplicate_edges_warn_in_one_stable_line(tmp_path, capsys):
    graph = tmp_path / "dup.mg"
    graph.write_text("p mg 3 4\ne 1 2\ne 2 1\ne 2 3\ne 3 2\n")
    code, out, err = run(capsys, "compute", str(graph))
    assert code == 0
    assert json.loads(out)["nu"] == 1
    assert err == "warning: collapsed 2 duplicate edge(s)\n"


def test_compute_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "compute", "/nonexistent/file.mg")
    assert code == 2
    assert "error:" in err


def test_reduce_roundtrip(tmp_path, capsys):
    graph_path = tmp_path / "art.mg"
    cert_path = tmp_path / "art.cert.json"
    code, out, _ = run(
        capsys, "reduce", CNF1, "--variant", "L",
        "--output", str(graph_path), "--certificate", str(cert_path),
    )
    assert code == 0 and out == ""
    cert = json.loads(cert_path.read_text())
    assert cert["ok"] is True
    assert cert["V"] == 32 and cert["kParam"] == 10
    text = graph_path.read_text()
    assert text.startswith("p mg 32 36\n")

    code, out, _ = run(
        capsys, "verify", str(graph_path), CNF1, "--variant", "L", "--exhaustive"
    )
    assert code == 0
    d = json.loads(out)
    assert d["ok"] and d["graph_matches_artifact"]
    assert d["census"]["count"] == 8


def test_reduce_ell_variant(tmp_path, capsys):
    graph_path = tmp_path / "art.mg"
    code, out, _ = run(capsys, "reduce", CNF2, "--variant", "ell",
                       "--output", str(graph_path))
    assert code == 0
    cert = json.loads(out)
    assert cert["V"] == 56 and cert["E"] == 61
    assert cert["kParam"] is None


def test_reduce_rejects_bad_cnf(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 3 1\n1 2 -2 0\n")
    code, _, err = run(capsys, "reduce", str(bad), "--variant", "L",
                       "--output", str(tmp_path / "x.mg"))
    assert code == 2
    assert "repeated variable" in err


def test_reduce_refuses_one_path_for_both_outputs(tmp_path, capsys, monkeypatch):
    # the certificate would replace the artifact; the paths are compared
    # normalised, and the command stops before it builds anything
    monkeypatch.chdir(tmp_path)
    built = _counting(monkeypatch, "resmatch.cli.build_artifact")
    assert run(capsys, "reduce", CNF1, "--variant", "L", "--output", "A.mg",
               "--certificate", "./A.mg") == (
        2, "", "error: --output and --certificate name the same file\n")
    assert built == [] and os.listdir(tmp_path) == []


def test_output_errors_name_the_requested_path(tmp_path, capsys, monkeypatch):
    # not the temporary file beside it, whose random name would make stderr
    # differ between identical runs; nothing is left behind
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    for _ in range(2):
        assert run(capsys, "compute", P5, "--output", "nodir/p5.json") == (
            2, "", "error: [Errno 2] No such file or directory: 'nodir/p5.json'\n")
        assert run(capsys, "compute", P5, "--output", "adir") == (
            2, "", "error: [Errno 21] Is a directory: 'adir'\n")
    assert os.listdir(tmp_path) == ["adir"] and os.listdir(tmp_path / "adir") == []


def test_verify_detects_tampering(tmp_path, capsys):
    graph_path = tmp_path / "art.mg"
    run(capsys, "reduce", CNF1, "--variant", "L", "--output", str(graph_path))
    lines = graph_path.read_text().splitlines()
    header = lines[0].split()
    edge_lines = [l for l in lines if l.startswith("e ")]
    kept = [l for l in lines if not l.startswith("e ")] + edge_lines[:-1]
    kept[0] = f"p mg {header[2]} {len(edge_lines) - 1}"
    graph_path.write_text("\n".join(kept) + "\n")

    code, out, _ = run(capsys, "verify", str(graph_path), CNF1, "--variant", "L")
    assert code == 1
    d = json.loads(out)
    assert not d["ok"]
    assert not d["graph_matches_artifact"]
    assert any("35 edges" in msg for msg in d["discrepancies"])


def test_verify_wrong_variant_fails(tmp_path, capsys):
    graph_path = tmp_path / "art.mg"
    run(capsys, "reduce", CNF1, "--variant", "L", "--output", str(graph_path))
    code, out, _ = run(capsys, "verify", str(graph_path), CNF1, "--variant", "ell")
    assert code == 1
    assert not json.loads(out)["ok"]


def test_verify_needs_the_artifact_coordinates(tmp_path, capsys):
    graph_path = tmp_path / "art.mg"
    run(capsys, "reduce", CNF1, "--variant", "L", "--output", str(graph_path))
    lines = graph_path.read_text().splitlines()
    assert any(l.startswith("v ") for l in lines)
    graph_path.write_text("\n".join(l for l in lines if not l.startswith("v ")) + "\n")

    code, out, _ = run(capsys, "verify", str(graph_path), CNF1, "--variant", "L")
    assert code == 1
    d = json.loads(out)
    assert d["graph_matches_artifact"] is False
    assert d["discrepancies"] == ["input graph is not the compiled artifact"]


@pytest.mark.parametrize("variant, cnf", [("L", CNF1), ("ell", CNF2)])
def test_verify_parses_a_reordered_artifact_to_the_same_report(
        tmp_path, capsys, monkeypatch, variant, cnf):
    """The canonical file is recognised by its text and not parsed; the same
    records reordered, with a comment and a blank line, go through the
    parser and give the same report byte for byte."""
    canonical = tmp_path / "art.mg"
    run(capsys, "reduce", cnf, "--variant", variant, "--output", str(canonical))
    lines = canonical.read_text().splitlines()
    edges = [line for line in lines if line.startswith("e ")]
    reordered = tmp_path / "reordered.mg"
    reordered.write_text("\n".join([line for line in lines if not line.startswith("e ")]
                                   + ["# edge records in reverse order", ""] + edges[::-1]) + "\n")
    parsed = _counting(monkeypatch, "resmatch.cli.parse_graph_file")

    want = run(capsys, "verify", str(canonical), cnf, "--variant", variant)
    assert want[0] == 0 and json.loads(want[1])["graph_matches_artifact"] is True
    assert parsed == []
    assert run(capsys, "verify", str(reordered), cnf, "--variant", variant) == want
    assert parsed == [reordered.read_text()]


def test_verify_exhaustive_refuses_a_malformed_edge_record_before_the_census(
        tmp_path, capsys, monkeypatch):
    graph_path = tmp_path / "art.mg"
    run(capsys, "reduce", CNF1, "--variant", "L", "--output", str(graph_path))
    lines = graph_path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("e "))
    lines[at] = "e 3 y"
    graph_path.write_text("\n".join(lines) + "\n")

    def refuse(*args, **kwargs):
        raise AssertionError("the census started")

    monkeypatch.setattr("resmatch.reduction._pass", refuse)
    code, out, err = run(capsys, "verify", str(graph_path), CNF1, "--variant", "L", "--exhaustive")
    assert (code, out, err) == (2, "", f"error: line {at + 1}: malformed edge record 'e 3 y'\n")


@pytest.mark.parametrize("extra", [(), ("--k", "1", "--f", "const:0")],
                         ids=["spectrum", "problem1"])
def test_compute_refuses_a_cap_of_zero(tmp_path, capsys, extra):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "compute", P5, "--cap", "0", *extra, "--output", str(target))
    assert (code, out, err) == (2, "", "error: cap must be positive\n")
    assert not target.exists()


def test_verify_exhaustive_limit(tmp_path, capsys):
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 7 3\n1 2 3 0\n4 5 6 0\n7 1 2 0\n")
    graph_path = tmp_path / "art.mg"
    run(capsys, "reduce", str(cnf), "--variant", "L", "--output", str(graph_path))
    code, _, err = run(capsys, "verify", str(graph_path), str(cnf),
                       "--variant", "L", "--exhaustive")
    assert code == 2
    assert "at most 6" in err


@pytest.mark.parametrize("variant", VARIANTS)
def test_verify_exhaustive_clause_limit(tmp_path, capsys, variant):
    # ell's limit is lower: above 6 clauses its census can stop at its cap
    limit = {"L": 50, "ell": 6}[variant]
    cnf = tmp_path / "long.cnf"
    cnf.write_text(f"p cnf 3 {limit + 1}\n" + "1 2 3 0\n" * (limit + 1))
    graph_path = tmp_path / "art.mg"
    code, _, _ = run(capsys, "reduce", str(cnf), "--variant", variant, "--output", str(graph_path))
    assert code == 0
    code, out, err = run(capsys, "verify", str(graph_path), str(cnf),
                         "--variant", variant, "--exhaustive")
    assert (code, out, err) == (2, "", "error: exhaustive verification supports at most"
                                       f" {limit} clauses, instance has {limit + 1}\n")
    cnf.write_text(f"p cnf 3 {limit}\n" + "1 2 3 0\n" * limit)
    run(capsys, "reduce", str(cnf), "--variant", variant, "--output", str(graph_path))
    code, _, _ = run(capsys, "verify", str(graph_path), str(cnf), "--variant", variant,
                     "--exhaustive")
    assert code == 0


@pytest.mark.parametrize("text, message", [
    ("p cnf 7 3\n1 2 3 0\n4 5 6 0\n7 1 2 0\n", "at most 6 variables, instance has 7"),
    ("p cnf 3 51\n" + "1 2 3 0\n" * 51, "at most 50 clauses, instance has 51"),
], ids=["variables", "clauses"])
def test_verify_exhaustive_limits_come_before_the_graph_and_the_build(
        tmp_path, capsys, monkeypatch, text, message):
    """The limits read the CNF alone: an over-limit formula exits 2 with the
    limit message before the graph file is opened or the artifact built."""
    cnf = tmp_path / "big.cnf"
    cnf.write_text(text)
    missing = str(tmp_path / "no-such-graph.mg")

    def refuse(*args):
        raise AssertionError("build_artifact ran before the limit check")

    monkeypatch.setattr("resmatch.cli.build_artifact", refuse)
    for graph_path in (missing, P5):
        code, out, err = run(capsys, "verify", graph_path, str(cnf),
                             "--variant", "L", "--exhaustive")
        assert (code, out, err) == (2, "", f"error: exhaustive verification supports {message}\n")


@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_clause_limit_comes_before_the_graph_and_the_build(tmp_path, capsys, monkeypatch,
                                                           command):
    """A formula one clause over DIMACS_CLAUSE_LIMIT exits 2 within a
    second, before the graph file is opened or the artifact built, and
    writes no file; the parser refuses its header, so a malformed line
    after it is never read.  A formula at the limit reaches the build."""
    built = []

    def refuse(cnf, variant):
        built.append(cnf.num_clauses)
        raise ValueError("build refused")

    monkeypatch.setattr("resmatch.cli.build_artifact", refuse)
    cnf, output, cert = (tmp_path / name for name in ("long.cnf", "out", "cert.json"))

    def outcome(m: int, graph_path: str, body: str | None = None):
        cnf.write_text(f"p cnf 3 {m}\n" + ("1 2 3 0\n" * m if body is None else body))
        if command == "reduce":
            argv = ["reduce", str(cnf), "--variant", "L", "--output", str(output),
                    "--certificate", str(cert)]
        else:
            argv = ["verify", graph_path, str(cnf), "--variant", "L", "--output", str(output)]
        start = time.perf_counter()
        result = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert not output.exists() and not cert.exists()
        return result

    over = DIMACS_CLAUSE_LIMIT + 1
    refused = (2, "", f"error: line 1: header declares {over} clauses,"
                      f" at most {DIMACS_CLAUSE_LIMIT} are accepted\n")
    assert outcome(over, str(tmp_path / "no-such-graph.mg")) == refused
    assert outcome(over, str(tmp_path / "no-such-graph.mg"), body="x 0\n") == refused
    assert built == []
    assert outcome(DIMACS_CLAUSE_LIMIT, P5) == (2, "", "error: build refused\n")
    assert built == [DIMACS_CLAUSE_LIMIT]


def test_verify_refuses_a_graph_file_above_the_vertex_limit(tmp_path, capsys):
    """A file that is not the canonical artifact text is parsed, and one
    whose header is over GRAPH_VERTEX_LIMIT is an input error (exit 2), not
    a mismatch with the artifact (exit 1); no report is written."""
    graph, report = tmp_path / "huge.mg", tmp_path / "report.json"
    graph.write_text(f"p mg {OVER_VERTICES} 1\ne 1 1\n")
    assert run(capsys, "verify", str(graph), CNF1, "--variant", "L",
               "--output", str(report)) == (2, "", VERTEX_LIMIT_ERROR)
    assert not report.exists()


def test_verify_reports_a_bad_cnf_before_a_bad_graph(tmp_path, capsys):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text("p cnf 3 1\n1 2 0\n")
    code, _, err = run(capsys, "verify", str(tmp_path / "no-such-graph.mg"), str(cnf),
                       "--variant", "L")
    assert (code, err) == (2, "error: clause 1: expected exactly 3 literals, got 2\n")


def test_bench_p5_hits_both_ratios(capsys):
    code, out, err = run(capsys, "bench", "path:5", "--trials", "20", "--seed", "1")
    assert code == 0
    rows = out.splitlines()
    assert rows[0].startswith("graph,")
    ratios = {row.split(",")[9] for row in rows[1:]}
    assert {"1/1", "2/1"} <= ratios
    assert "0 violation(s)" in err


def test_bench_even_cycles_ratio_one(capsys):
    code, out, _ = run(capsys, "bench", "cycle:4..10:2", "--trials", "3")
    assert code == 0
    for row in out.splitlines()[1:]:
        assert row.split(",")[9] == "1/1"


def test_bench_random_families(capsys):
    code, out, _ = run(capsys, "bench", "random:n=8,count=20,p=2/5", "--trials", "3")
    assert code == 0
    assert len(out.splitlines()) == 61
    code, out, _ = run(capsys, "bench", "random-bipartite:n=9,count=15,p=1/3",
                       "--trials", "2")
    assert code == 0
    assert len(out.splitlines()) == 31


def test_bench_is_deterministic(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "bench", "random:n=7,count=10,p=1/2", "--seed", "9", "--output", str(a))
    run(capsys, "bench", "random:n=7,count=10,p=1/2", "--seed", "9", "--output", str(b))
    assert a.read_text() == b.read_text()


def test_bench_counts_each_bad_row_once(capsys, monkeypatch):
    report = ApproxTrialReport(
        nu=1, ell=1, big_l=1, rows=((1, 3), (2, 1)),
        verdicts={3: (Fraction(3), Fraction(3), False), 1: (Fraction(1), Fraction(1), True)},
        violations=("seed 1: residual 3 outside [1, 1]", "seed 1: r/ell = 3 outside [1, 2]"),
    )
    monkeypatch.setattr("resmatch.cli.approx_trial", lambda g, seeds, cap: report)
    code, out, err = run(capsys, "bench", "path:2", "--trials", "2")
    assert code == 1
    assert "bench: 1 violation(s)" in err
    assert [row.split(",")[-1] for row in out.splitlines()[1:]] == ["False", "True"]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_bench_rejects_trials_below_one(capsys, trials):
    code, out, err = run(capsys, "bench", "path:5", "--trials", trials)
    assert (code, out, err) == (2, "", f"error: --trials must be positive, got {trials}\n")


@pytest.mark.parametrize("trials", ["100001", "100000000"])
def test_bench_rejects_trials_above_the_maximum(capsys, trials):
    # refused before a seed or a graph is made: 10**8 seeds would need gigabytes
    code, out, err = run(capsys, "bench", "path:5", "--trials", trials)
    assert (code, out, err) == (2, "", f"error: --trials must be at most 100000, got {trials}\n")


@pytest.mark.parametrize("family, count", [
    ("random:n=4,count=100001", 100001),
    ("random-bipartite:n=4,count=10000000000", 10**10),
    ("path:1..1000000000", 10**9),
    ("cycle:3..300002", 300000),
])
def test_bench_rejects_families_above_the_maximum(capsys, family, count):
    # refused before any graph is built
    code, out, err = run(capsys, "bench", family)
    assert (code, out, err) == (2, "", f"error: a bench family must hold at most 100000 graphs,"
                                       f" got {count}\n")


# bench argv -> its error message; a number error names the field it is in
BAD_FAMILIES = {
    ("cycle:2..4",): "cycle family needs at least 3 vertices, got 2",
    ("cycle:1..9:2",): "cycle family needs at least 3 vertices, got 1",
    ("cycle:5..2",): "bad size range '5..2'",
    ("random:n=4,count=0",): "family parameters n and count must be positive",
    ("path:3..2",): "bad size range '3..2'",
    ("cycle:4", "--cap", "0"): "--cap must be positive, got 0",
    ("cycle:4", "--cap", "-3"): "--cap must be positive, got -3",
    ("path:",): "family size '' is not an integer",
    ("path:3..",): "family range end '' is not an integer",
    ("path:x..3",): "family range start 'x' is not an integer",
    ("cycle:3..5:",): "family step '' is not an integer",
    ("random:n=",): "family parameter n '' is not an integer",
    ("random:n=5,count=x",): "family parameter count 'x' is not an integer",
    ("random:n=" + "9" * 5000,): f"family parameter n '{'9' * 40}' has too many digits",
    # ASCII digits only, as in the rational reader: no separators, no other scripts
    ("path:1_0",): "family size '1_0' is not an integer",
    ("cycle:3..1_2",): "family range end '1_2' is not an integer",
    ("random:n=\u0663,count=1",): "family parameter n '\u0663' is not an integer",
    ("random:n=4,count=\uff12",): "family parameter count '\uff12' is not an integer",
    ("path:3..6:\u00b2",): "family step '\u00b2' is not an integer",
    ("path:\u20035",): "family size '\\u20035' is not an integer",  # repr escapes the blank
    ("random:n=4,p=",): "family parameter p: rational '' is not an integer, a decimal or p/q",
    # a repeated key is refused, not read as its last value
    ("random:n=5,n=6",): "family parameter n is given twice",
    ("random-bipartite:p=1/2,count=2,p=1/3",): "family parameter p is given twice",
    ("path:3..6:0",): "step must be positive, got 0",
    ("random:n",): "bad family parameter 'n', expected key=value",
    ("random:n=4,q=1",): "unknown family parameter(s): ['q']",
}


@pytest.mark.parametrize("argv", list(BAD_FAMILIES), ids=lambda argv: " ".join(argv)[:40])
def test_bench_bad_family_prints_no_rows(capsys, argv):
    assert run(capsys, "bench", *argv) == (2, "", f"error: {BAD_FAMILIES[argv]}\n")


@pytest.mark.parametrize("family, largest", [
    ("random:n=1001,count=1,p=0", 1001),
    ("random-bipartite:n=1000000,count=1", 10**6),
    ("path:5..1001", 1001),
    ("cycle:3..100000:7", 99998),
])
def test_bench_rejects_graphs_above_the_vertex_bound(capsys, monkeypatch, family, largest):
    def refuse(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr("resmatch.cli.build_graph", refuse)  # checked before any graph is built
    code, out, err = run(capsys, "bench", family)
    assert (code, out, err) == (2, "", f"error: a bench graph must have at most 1000 vertices,"
                                       f" got {largest}\n")


def test_bench_writes_each_graph_before_the_next(monkeypatch):
    out = io.StringIO()
    lines_seen = []

    def trial(g, seeds, cap):
        lines_seen.append(out.getvalue().count("\n"))
        return approx_trial(g, seeds, cap)

    monkeypatch.setattr("resmatch.cli.approx_trial", trial)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["bench", "path:3..6", "--trials", "4"]) == 0
    # the header, then four rows per graph already written
    assert lines_seen == [1, 5, 9, 13]
    assert out.getvalue().count("\n") == 17


def test_bench_output_file_appears_only_when_complete(capsys, monkeypatch, tmp_path):
    target = tmp_path / "rows.csv"
    calls = []

    def trial(g, seeds, cap):
        calls.append(g.vertex_count)
        if len(calls) == 3:
            raise MemoryError
        return approx_trial(g, seeds, cap)

    monkeypatch.setattr("resmatch.cli.approx_trial", trial)
    code, out, err = run(capsys, "bench", "path:3..6", "--output", str(target))
    assert (code, out, err) == (2, "", "error: out of memory\n")
    assert list(tmp_path.iterdir()) == []


def test_bench_streams_rows_to_its_output_file(capsys, tmp_path):
    # 200 graphs x 100 seeds = 20,000 rows.  Buffered in a StringIO until the
    # sweep ended, they peaked at 3.1 MB of traced allocations (Python 3.11);
    # written as they come, at 0.23 MB
    target = tmp_path / "rows.csv"
    argv = ["bench", "random:n=4,count=200,p=1/2", "--trials", "100", "--output", str(target)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1_000_000
    with open(target) as fh:
        assert sum(1 for _ in fh) == 20_001


def test_bench_rejects_bad_family(capsys):
    code, _, err = run(capsys, "bench", "torus:n=5")
    assert code == 2
    assert "unknown family" in err
    code, _, err = run(capsys, "bench", "path")
    assert code == 2


def test_calibrate_delta(capsys):
    code, out, _ = run(capsys, "calibrate", "--variant", "L", "--epsilon", "1/100")
    assert code == 0
    assert json.loads(out) == {"delta": "3/200", "epsilon": "1/100", "variant": "L"}
    code, out, _ = run(capsys, "calibrate", "--variant", "ell", "--epsilon", "1/100")
    assert json.loads(out)["delta"] == "1/40"


def test_calibrate_threshold(capsys):
    code, out, _ = run(capsys, "calibrate", "--epsilon", "1/16", "--c", "1/1000")
    assert code == 0
    d = json.loads(out)
    assert d == {"admissible": True, "bound": "1/512", "c": "1/1000", "epsilon": "1/16"}
    code, out, _ = run(capsys, "calibrate", "--epsilon", "1/16", "--c", "1/256")
    assert json.loads(out)["admissible"] is False


def test_calibrate_boundary_exits_2(capsys):
    code, _, err = run(capsys, "calibrate", "--variant", "L", "--epsilon", "1/88")
    assert code == 2 and "1/88" in err
    code, _, err = run(capsys, "calibrate", "--variant", "ell", "--epsilon", "1/80")
    assert code == 2
    code, _, err = run(capsys, "calibrate")
    assert code == 2 and "epsilon" in err


def test_module_entry_point():
    import resmatch.__main__  # noqa: F401  (import must not run main at import time)


@pytest.fixture(params=[True, False], ids=["collecting", "paused"])
def collector(request):
    """The cyclic collector switched on or off for one test, and put back after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("argv, outcome", [
    (["compute", P5], 0),
    (["compute", P5, "--cap", "1"], 1),
    (["compute", "/nonexistent/file.mg"], 2),
    (["compute"], SystemExit),
    (["compute", P5], RuntimeError),
], ids=["exit-0", "exit-1", "exit-2", "usage-error", "escaping-exception"])
def test_main_restores_the_collector(capsys, monkeypatch, collector, argv, outcome):
    during = []
    if outcome is RuntimeError:
        def escape(g, cap):
            during.append(gc.isenabled())
            raise RuntimeError("escapes main")
        monkeypatch.setattr("resmatch.cli.spectrum", escape)
    if isinstance(outcome, int):
        assert main(argv) == outcome
    else:
        with pytest.raises(outcome):
            main(argv)
    capsys.readouterr()
    assert gc.isenabled() is collector
    assert during == ([False] if outcome is RuntimeError else [])  # paused inside the command


def _cyclic_garbage(argv: list[str]) -> int:
    """The objects in reference cycles that one main call leaves behind,
    counted by a collection made with the collector off since before the call."""
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert main(argv) == 0
        return gc.collect()
    finally:
        if was:
            gc.enable()


def _sized_argv(tmp_path, command: str, scale: int) -> list[str]:
    """argv for command on an input that grows linearly with scale; for
    verify, the artifact it reads is reduced here first."""
    cnf = tmp_path / f"formula{scale}.cnf"
    artifact = tmp_path / f"artifact{scale}.mg"
    cnf.write_text(random_cnf(3 * scale, 10 * scale, 1))
    reduce = ["reduce", str(cnf), "--variant", "L", "--output", str(artifact)]
    if command == "reduce":
        return reduce
    if command == "verify":
        assert main(reduce) == 0
        return ["verify", str(artifact), str(cnf), "--variant", "L"]
    if command == "compute":
        graph = tmp_path / f"path{scale}.mg"
        graph.write_text(emit_graph_file(path(5 * scale)))
        return ["compute", str(graph)]
    return ["bench", f"random:n=10,count={5 * scale},p=1/3"]


@pytest.mark.parametrize("command", ["reduce", "verify", "compute", "bench"])
def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path, capsys, command):
    # main runs with the cyclic collector paused, which is sound only while
    # no command leaves reference cycles in proportion to its input
    small, large = (_sized_argv(tmp_path, command, scale) for scale in (1, 10))
    assert _cyclic_garbage(large) == _cyclic_garbage(small)


def test_no_state_passes_between_main_calls(tmp_path, capsys, monkeypatch):
    # main parses with one parser built per process; each call must still see
    # only its own argv, whatever ran before it
    monkeypatch.setenv("COLUMNS", "80")
    artifact = str(tmp_path / "artifact.mg")
    assert run(capsys, "reduce", CNF1, "--variant", "L", "--output", artifact)[0] == 0
    argvs = [
        ["compute"],
        ["no-such-command"],
        ["calibrate", "--variant", "no-such-variant", "--epsilon", "1/100"],
        ["--help"],
        ["compute", "--help"],
        ["compute", P5, "--k", "1", "--f", "const:0"],
        ["bench", "path:5", "--trials", "3"],
        ["calibrate", "--epsilon", "1/100"],
        ["verify", artifact, CNF1, "--variant", "L"],
    ]

    def outcome(argv):
        # argparse exits on a usage error and on --help; its code is the status
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    forwards = [outcome(argv) for argv in argvs]
    backwards = [outcome(argv) for argv in reversed(argvs)][::-1]
    assert backwards == forwards
    codes = [code for code, _, _ in forwards]
    assert codes == [2, 2, 2, 0, 0, 0, 0, 0, 0]
    assert all(err.startswith("usage: resmatch") for _, _, err in forwards[:3])
    fresh = build_parser()
    assert forwards[3][1:] == (fresh.format_help(), "")
    assert forwards[4][1:] == (_commands(fresh).choices["compute"].format_help(), "")


def test_main_builds_no_parser_after_its_first_call(capsys, monkeypatch):
    assert main(["compute", P5]) == 0

    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr("resmatch.cli.build_parser", refuse)
    assert main(["compute", P5]) == 0
    capsys.readouterr()
