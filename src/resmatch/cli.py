"""Command-line front end.

Subcommands: compute, reduce, verify, bench, calibrate.  All reports are
JSON with sorted keys (bench emits CSV), rationals travel as "p/q" strings,
and identical invocations produce byte-identical output.  Exit status is 0
only when every check passed and nothing was truncated; input and usage
problems exit with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import io
import json
import os
import random
import sys
import tempfile
import warnings
from fractions import Fraction

from .colorable import nu2_bipartite
from .graph import (
    Graph,
    bipartition,
    build_graph,
    degree_profile,
    emit_graph_file,
    is_connected,
    parse_graph_file,
    parse_int,
)
from .matching import nu
from .reduction import (
    VARIANTS,
    CnfInstance,
    additive_bound,
    additive_threshold,
    build_artifact,
    calibration,
    check_exhaustive_limits,
    parse_dimacs,
    verify_artifact,
)
from .spectrum import (
    DEFAULT_CAP,
    TruncatedSpectrumError,
    answer_problem1,
    approx_trial,
    parse_rational,
    parse_tolerance,
    spectrum,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@contextlib.contextmanager
def _output(path: str | None):
    """Standard output, or a temporary file beside path that replaces path
    only once the block has finished (and is removed if it raises).  The
    file gets the mode open(path, "w") would create, not mkstemp's 0600.
    Failing to create or to place the file is an OSError naming path: the
    temporary file's name is random, so naming it would vary stderr."""
    if path is None:
        yield sys.stdout
        return
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".resmatch-")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        os.unlink(tmp)
        raise


def _emit_json(obj: dict, path: str | None):
    _emit_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def _emit_text(text: str, path: str | None):
    with _output(path) as fh:
        fh.write(text)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# vertices of one compute input: the report costs about 440 bytes per vertex
# even without edges, and p mg 100000 0 takes about 0.5 s and 60 MB
COMPUTE_VERTEX_LIMIT = 10**5
# clauses of one reduce or verify formula: an L artifact has 32 vertices per
# clause, so the largest has 96,000, which compute accepts; at the limit reduce
# and verify each take about 0.9 s and 100 MB, and memory grows linearly past it
ARTIFACT_CLAUSE_LIMIT = 3000


def cmd_compute(args) -> int:
    tolerance = parse_tolerance(args.f)  # checked with or without --k
    g = parse_graph_file(_read(args.input))
    if g.vertex_count > COMPUTE_VERTEX_LIMIT:
        raise ValueError(f"compute accepts at most {COMPUTE_VERTEX_LIMIT} vertices,"
                         f" got {g.vertex_count}")
    # answer_problem1 checks k before it asks for the enumeration, which can take seconds
    enumerate_once = functools.cache(lambda: spectrum(g, cap=args.cap))
    result = None
    if args.k is not None:
        result = answer_problem1(g, args.k, tolerance, enumerate_once)
    report = enumerate_once()
    out = report.to_json_dict()
    out["degree_profile"] = degree_profile(g)
    out["bipartite"] = bipartite = bipartition(g) is not None
    out["connected"] = is_connected(g)
    if bipartite:  # nu2_bipartite colors g again: cheaper than checking a given coloring
        out["nu2"] = nu2 = nu2_bipartite(g).size
        out["upper_bound_L"] = nu2 - report.nu
    if result is not None:
        out["problem1"] = {
            "k": args.k,
            "f": args.f,
            "answer": result.answer,
            "witness": None
            if result.witness is None
            else [list(e) for e in result.witness.sorted_edges()],
            "enumerated": result.enumerated,
            "truncated": result.truncated,
        }
    _emit_json(out, args.output)
    return EXIT_CHECK_FAILED if report.truncated else EXIT_OK  # a truncated answer implies it


def _read_cnf(path: str, command: str) -> CnfInstance:
    """The formula at path, refused before anything is built from it when
    it has more than ARTIFACT_CLAUSE_LIMIT clauses."""
    cnf = parse_dimacs(_read(path))
    if cnf.num_clauses > ARTIFACT_CLAUSE_LIMIT:
        raise ValueError(f"{command} accepts at most {ARTIFACT_CLAUSE_LIMIT} clauses,"
                         f" got {cnf.num_clauses}")
    return cnf


def cmd_reduce(args) -> int:
    if args.certificate is not None:  # it would replace the artifact it certifies
        if os.path.abspath(args.certificate) == os.path.abspath(args.output):
            raise ValueError("--output and --certificate name the same file")
    cnf = _read_cnf(args.input, "reduce")
    art = build_artifact(cnf, args.variant)
    cert = verify_artifact(art, exhaustive=False)
    _emit_text(emit_graph_file(art.graph), args.output)
    _emit_json(cert.to_json_dict(), args.certificate)
    return EXIT_OK if cert.ok else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    cnf = _read_cnf(args.cnf, "verify")
    if args.exhaustive:  # before the graph is read or the artifact built
        check_exhaustive_limits(cnf, args.variant)
    text = _read(args.input)
    art = build_artifact(cnf, args.variant)
    # the canonical text is the artifact; any other file is parsed, and so
    # refused if malformed, before the census starts
    same_graph = text == emit_graph_file(art.graph)
    mismatches = []
    if not same_graph:
        loaded = parse_graph_file(text)
        for noun, given, built in (("vertices", loaded.vertex_count, art.graph.vertex_count),
                                   ("edges", loaded.edge_count, art.graph.edge_count)):
            if given != built:
                mismatches.append(f"input graph has {given} {noun}, artifact has {built}")
        same_graph = loaded == art.graph
        if not same_graph:
            mismatches.append("input graph is not the compiled artifact")
    cert = verify_artifact(art, exhaustive=args.exhaustive)
    cert = cert._replace(discrepancies=cert.discrepancies + tuple(mismatches))
    out = cert.to_json_dict()
    out["graph_matches_artifact"] = same_graph
    _emit_json(out, args.output)
    return EXIT_OK if cert.ok else EXIT_CHECK_FAILED


def _int_field(text: str, field: str, error: type[Exception] = ValueError) -> int:
    try:
        return parse_int(text)
    except ValueError as exc:
        raise error(f"{field} {exc}") from None


def _int_option(text: str) -> int:
    """The type of the integer options; argparse names the option in the error."""
    return _int_field(text, "value", argparse.ArgumentTypeError)


def _parse_sizes(text: str) -> range:
    # N, A..B, or A..B:STEP
    step = 1
    if ":" in text:
        text, step_text = text.split(":", 1)
        step = _int_field(step_text, "family step")
        if step < 1:
            raise ValueError(f"step must be positive, got {step}")
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = _int_field(lo_text, "family range start"), _int_field(hi_text, "family range end")
    else:
        lo = hi = _int_field(text, "family size")
    if lo < 1 or hi < lo:
        raise ValueError(f"bad size range {text!r}")
    return range(lo, hi + 1, step)


def _parse_params(text: str) -> dict[str, str]:
    params: dict[str, str] = {}
    for part in text.split(","):
        key, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"bad family parameter {part!r}, expected key=value")
        key = key.strip()
        if key in params:
            raise ValueError(f"family parameter {key} is given twice")
        params[key] = value.strip()
    return params


def _random_graph(n: int, p: float, rng: random.Random, bipartite: bool) -> Graph:
    if bipartite:
        half = (n + 1) // 2
        candidates = ((u, v) for u in range(1, half + 1) for v in range(half + 1, n + 1))
    else:
        candidates = ((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))
    return build_graph(n, [e for e in candidates if rng.random() < p])


def _path(n: int, closed: bool) -> Graph:
    edges = [(i, i + 1) for i in range(1, n)]
    if closed:
        edges.append((n, 1))
    return build_graph(n, edges)


MAX_GRAPHS = 10**5  # graphs one bench family may hold
# vertices of one bench graph; a random graph draws once per vertex pair, and
# random:n=1000,p=1 takes about 0.5 s and 130 MB to build
MAX_VERTICES = 1000


def _family_graphs(spec: str, seed: int):
    """An iterator of (label, graph) for a family spec such as path:5,
    cycle:4..12:2, or random:n=10,count=100,p=3/10 (random-bipartite takes the
    same keys); it builds each graph when asked for it.  The whole spec, and
    its size against MAX_GRAPHS and MAX_VERTICES, is checked before this returns."""
    name, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"family spec {spec!r} needs parameters after ':'")
    if name in ("path", "cycle"):
        sizes = _parse_sizes(rest)
        if name == "cycle" and sizes[0] < 3:
            raise ValueError(f"cycle family needs at least 3 vertices, got {sizes[0]}")
        count, largest = len(sizes), sizes[-1]
        graphs = ((f"{name}:{n}", _path(n, name == "cycle")) for n in sizes)
    elif name in ("random", "random-bipartite"):
        params = _parse_params(rest)
        unknown = set(params) - {"n", "count", "p"}
        if unknown:
            raise ValueError(f"unknown family parameter(s): {sorted(unknown)}")
        n = _int_field(params.get("n", "8"), "family parameter n")
        count = _int_field(params.get("count", "10"), "family parameter count")
        try:
            p = parse_rational(params.get("p", "1/3"))
        except ValueError as exc:
            raise ValueError(f"family parameter p: {exc}") from None
        if n < 1 or count < 1:
            raise ValueError("family parameters n and count must be positive")
        if not 0 <= p <= 1:
            raise ValueError(f"family parameter p must lie in [0, 1], got {params['p']}")
        largest = n
        bipartite = name == "random-bipartite"
        graphs = ((f"{name}:{n}#{i}",
                   _random_graph(n, float(p), random.Random(f"{seed}:{name}:{n}:{i}"), bipartite))
                  for i in range(count))
    else:
        raise ValueError(f"unknown family {name!r}")
    if count > MAX_GRAPHS:
        raise ValueError(f"a bench family must hold at most {MAX_GRAPHS} graphs, got {count}")
    if largest > MAX_VERTICES:
        raise ValueError(f"a bench graph must have at most {MAX_VERTICES} vertices, got {largest}")
    return graphs


MAX_TRIALS = 10**5  # seeds per graph; approx_trial keeps one row per seed

BENCH_COLUMNS = (
    "graph",
    "vertices",
    "edges",
    "nu",
    "ell",
    "L",
    "truncated",
    "seed",
    "residual",
    "ratio_ell",
    "ratio_L",
    "ok",
)


def _csv_text(cells) -> str:
    """cells as csv.writer writes them in a row, without the line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()[:-1]


def cmd_bench(args) -> int:
    if args.trials < 1:  # no seeds, no rows: nothing would be checked
        raise ValueError(f"--trials must be positive, got {args.trials}")
    if args.trials > MAX_TRIALS:
        raise ValueError(f"--trials must be at most {MAX_TRIALS}, got {args.trials}")
    if args.cap < 1:
        raise ValueError(f"--cap must be positive, got {args.cap}")
    graphs = _family_graphs(args.family, args.seed)
    violations = 0
    truncations = 0
    observed_ell_ratios: set[Fraction] = set()
    seeds = range(args.seed, args.seed + args.trials)
    with _output(args.output) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BENCH_COLUMNS)
        for label, g in graphs:
            try:
                trial = approx_trial(g, seeds, cap=args.cap)
            except TruncatedSpectrumError:
                truncations += 1
                writer.writerow([label, g.vertex_count, g.edge_count,
                                 nu(g), "", "", True, "", "", "", "", False])
                continue
            # a row's other cells are fixed per graph (the first seven) or per
            # residual (the last three): each is formatted once, by csv
            head = _csv_text([label, g.vertex_count, g.edge_count,
                              trial.nu, trial.ell, trial.big_l, False])
            tails = {}  # residual -> its ratio_ell, ratio_L and ok cells
            for r, (r_ell, r_big_l, ok) in trial.verdicts.items():
                if r_ell is not None:
                    observed_ell_ratios.add(r_ell)
                if not ok:
                    violations += sum(x == r for _, x in trial.rows)
                tails[r] = _csv_text(["" if x is None else _rat(x) for x in (r_ell, r_big_l)] + [ok])
            fh.writelines(f"{head},{seed},{r},{tails[r]}\n" for seed, r in trial.rows)
    ratio_note = ",".join(_rat(r) for r in sorted(observed_ell_ratios)[:12])
    print(f"bench: {violations} violation(s), {truncations} truncation(s),"
          f" ratios to ell observed: [{ratio_note}]", file=sys.stderr)
    return EXIT_OK if violations == 0 and truncations == 0 else EXIT_CHECK_FAILED


def cmd_calibrate(args) -> int:
    if args.epsilon is None:
        raise ValueError("calibrate requires --epsilon")
    eps = parse_rational(args.epsilon)
    out: dict = {"epsilon": _rat(eps)}
    if args.c is None:
        out["variant"] = args.variant
        out["delta"] = _rat(calibration(args.variant, eps))
    else:
        c = parse_rational(args.c)
        out["c"] = _rat(c)
        out["bound"] = _rat(additive_bound(eps))
        out["admissible"] = additive_threshold(c, eps)
    _emit_json(out, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resmatch",
        description="Residual matching spectra and SAT hardness artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="spectrum report for a graph file")
    p_compute.add_argument("input")
    p_compute.add_argument("--output")
    p_compute.add_argument("--cap", type=_int_option, default=DEFAULT_CAP)
    p_compute.add_argument("--k", type=_int_option, default=None)
    p_compute.add_argument("--f", default="identity",
                           help="tolerance: identity, const:C, linear:C, log[:C], sqrt[:C];"
                                " C is a rational: an integer, a decimal or p/q")
    p_compute.set_defaults(func=cmd_compute)

    p_reduce = sub.add_parser("reduce", help="compile a CNF into an artifact graph")
    p_reduce.add_argument("input")
    p_reduce.add_argument("--variant", choices=VARIANTS, required=True)
    p_reduce.add_argument("--output", required=True, help="artifact graph file")
    p_reduce.add_argument("--certificate", help="certificate JSON (default stdout)")
    p_reduce.set_defaults(func=cmd_reduce)

    p_verify = sub.add_parser("verify", help="check a graph file against its CNF")
    p_verify.add_argument("input", help="artifact graph file")
    p_verify.add_argument("cnf")
    p_verify.add_argument("--variant", choices=VARIANTS, required=True)
    p_verify.add_argument("--exhaustive", action="store_true")
    p_verify.add_argument("--output")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="approximation-ratio sweep over a family")
    p_bench.add_argument("family",
                         help="path:N, cycle:A..B[:STEP], random:n=,count=,p=,"
                              " random-bipartite:n=,count=,p=")
    p_bench.add_argument("--trials", type=_int_option, default=5,
                         help=f"seeded matchings per graph, 1..{MAX_TRIALS}")
    p_bench.add_argument("--seed", type=_int_option, default=1)
    p_bench.add_argument("--cap", type=_int_option, default=10**5)
    p_bench.add_argument("--output")
    p_bench.set_defaults(func=cmd_bench)

    p_cal = sub.add_parser("calibrate", help="exact gap and threshold arithmetic")
    p_cal.add_argument("--variant", choices=VARIANTS, default="L")
    p_cal.add_argument("--epsilon", help="rational p/q")
    p_cal.add_argument("--c", help="additive coefficient p/q")
    p_cal.add_argument("--output")
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


# Built once per process: parse_args returns a fresh Namespace on each call,
# and the parser holds no input and no result, so main calls can share it.
PARSER = build_parser()


def _show_warning(message, category, filename, lineno, file=None, line=None):
    # no source location: stderr must not depend on where resmatch is installed
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    # The cyclic collector is paused for the call: reduce and verify allocate
    # about 10^5 tracked tuples, lists and dicts, which its passes would rescan
    # while the artifact is built, and no command leaves cyclic garbage that
    # grows with its input (tests/test_cli.py holds this).
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = PARSER.parse_args(argv)
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            try:
                return args.func(args)
            except (ValueError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_INPUT_ERROR
            except MemoryError:  # exit 1 would claim that a check failed
                print("error: out of memory", file=sys.stderr)
                return EXIT_INPUT_ERROR
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
