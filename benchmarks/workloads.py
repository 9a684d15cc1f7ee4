"""Seeded workloads: input files, CLI invocations and their output checks.

Each workload turns a seed into a fixed list of operations.  An operation
is one `resmatch` command line over generated files plus a check that reads
what the command wrote and compares it with the oracles in `oracle.py`.
Checks see only the files and the exit code, never resmatch objects.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracle
from oracle import expect

# reference.json pins the bench-sweep output of this seed byte for byte
DEFAULT_SEED = 1
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass
class Op:
    """One CLI invocation.  `check(rc, stderr, outputs)` raises CheckError;
    `outputs` maps each path in `reads` to its text."""

    key: str
    argv: list[str]
    writes: list[str]
    reads: list[str]
    check: Callable[[int, str, dict[str, str]], None]
    passed: set[str] = field(default_factory=set)  # digests already checked


@dataclass
class Inputs:
    ops: list[Op]
    warmup: Op
    bipartite_files: list[str]  # graph files that also get a Hopcroft-Karp timing


def _reference() -> dict:
    """Exact values computed once by `run.py --make-reference`."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ------------------------------------------------------------ compute-random

# A fixed pool of random graphs keeps the heavy-tailed count of maximum
# matchings identical on every seed; the seed relabels the vertices,
# shuffles the edge records and picks k.
COMPUTE_POOL = 88
COMPUTE_GENERAL_N = (12, 16)
COMPUTE_BIPARTITE_N = (16, 20)
COMPUTE_P = (1 / 4, 1 / 3)


def random_graph(rng: random.Random, n: int, p: float, bipartite: bool):
    half = (n + 1) // 2
    if bipartite:
        pairs = [(u, v) for u in range(1, half + 1) for v in range(half + 1, n + 1)]
    else:
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return [e for e in pairs if rng.random() < p]


def compute_pool() -> list[tuple[str, int, list, bool]]:
    """(name, n, edges, bipartite): every third graph is random-bipartite; the
    last, small one is the warm-up."""
    rng = random.Random("compute-random:pool")
    pool = []
    for i in range(COMPUTE_POOL + 1):
        bipartite = i % 3 == 2
        lo, hi = COMPUTE_BIPARTITE_N if bipartite else COMPUTE_GENERAL_N
        n = rng.randint(lo, hi) if i < COMPUTE_POOL else 10
        pool.append((f"g{i:03d}", n, random_graph(rng, n, rng.uniform(*COMPUTE_P), bipartite),
                     bipartite))
    return pool


class _ComputeCheck:
    """Checks one `compute` report against networkx and the bound theorems."""

    def __init__(self, n: int, edges, k: int | None, ref: dict | None):
        self.n, self.edges, self.k, self.ref = n, edges, k, ref
        self.facts: dict | None = None

    def _facts(self) -> dict:
        if self.facts is None:
            g = oracle.nx_graph(self.n, self.edges)
            facts = {"g": g, "nu": oracle.nu_general(g),
                     "bipartite": oracle.nx.is_bipartite(g),
                     "connected": self.n == 0 or oracle.nx.is_connected(g),
                     "profile": oracle.degree_profile(self.n, self.edges)}
            if facts["bipartite"]:
                color = oracle.nx.bipartite.color(g)
                facts["nu2"] = oracle.nu2_bipartite(g, {v for v, c in color.items() if c == 0})
            self.facts = facts
        return self.facts

    def __call__(self, rc: int, stderr: str, outputs: dict[str, str]):
        expect(rc == 0, f"exit code {rc}")
        rep = json.loads(next(iter(outputs.values())))
        f = self._facts()
        g, nu = f["g"], f["nu"]
        expect(rep["nu"] == nu, f"nu {rep['nu']} != oracle {nu}")
        expect(rep["truncated"] is False, "spectrum truncated")
        ell, big_l = rep["ell"], rep["L"]
        for key, want in (("witness_min", ell), ("witness_max", big_l)):
            pairs = [tuple(e) for e in rep[key]]
            oracle.check_matching(g, pairs, nu, key)
            got = oracle.residual(g, pairs)
            expect(got == want, f"{key} leaves residual {got}, report says {want}")
        achieved = rep["achieved"]
        expect(achieved == sorted(set(achieved)) and achieved[0] == ell and achieved[-1] == big_l,
               f"achieved {achieved} does not span [{ell}, {big_l}]")
        expect(ell <= big_l <= 2 * ell, f"ell <= L <= 2*ell fails: {ell}, {big_l}")
        if 2 * nu == self.n:
            expect(2 * big_l <= 3 * ell, f"2L <= 3*ell fails with a perfect matching: {ell}, {big_l}")
        expect(rep["enumerated"] >= 1, "no maximum matching enumerated")
        expect(rep["degree_profile"] == f["profile"], "degree profile differs")
        expect(rep["bipartite"] == f["bipartite"], "bipartite flag differs")
        expect(rep["connected"] == f["connected"], "connected flag differs")
        if f["bipartite"]:
            expect(rep.get("nu2") == f["nu2"], f"nu2 {rep.get('nu2')} != oracle {f['nu2']}")
            expect(rep.get("upper_bound_L") == f["nu2"] - nu, "upper_bound_L != nu2 - nu")
            expect(big_l <= f["nu2"] - nu, f"L <= nu2 - nu fails: {big_l} > {f['nu2'] - nu}")
        if self.ref is not None:
            for key in ("ell", "L", "achieved", "enumerated"):
                expect(rep[key] == self.ref[key], f"{key} {rep[key]} != reference {self.ref[key]}")
        if self.k is not None:
            self._check_problem1(rep)

    def _check_problem1(self, rep: dict):
        p1 = rep["problem1"]
        expect(p1["k"] == self.k and p1["f"] == "const:0" and p1["truncated"] is False,
               "problem1 header differs")
        if self.k in self.ref["achieved"]:
            expect(p1["answer"] == "yes", f"k={self.k} is achieved, answer {p1['answer']}")
            pairs = [tuple(e) for e in p1["witness"]]
            oracle.check_matching(self._facts()["g"], pairs, self._facts()["nu"], "problem1 witness")
            got = oracle.residual(self._facts()["g"], pairs)
            expect(got == self.k, f"problem1 witness leaves residual {got}, k={self.k}")
            expect(1 <= p1["enumerated"] <= rep["enumerated"], "problem1 enumerated out of range")
        else:
            expect(p1["answer"] == "no" and p1["witness"] is None,
                   f"k={self.k} is not achieved, answer {p1['answer']}")
            expect(p1["enumerated"] == rep["enumerated"], "problem1 'no' did not enumerate everything")


def compute_random(seed: int, wd: str, run_op=None) -> Inputs:
    rng = random.Random(f"compute-random:{seed}")
    ref = _reference()["compute-random"]
    ops = []
    bip_files = []
    for i, (name, n, base, bipartite) in enumerate(compute_pool()):
        warmup = i == COMPUTE_POOL
        gref = None if warmup else ref[name]
        if gref is not None:
            expect(gref["sha256"] == oracle.sha256(oracle.graph_text(n, base)),
                   f"reference for {name} is stale")
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        edges = [tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in base]
        rng.shuffle(edges)
        path = _write(os.path.join(wd, name + ".mg"), oracle.graph_text(n, edges))
        if bipartite and not warmup:
            bip_files.append(path)
        out = os.path.join(wd, name + ".json")
        argv = ["compute", path, "--output", out]
        k = None
        if i % 4 == 1 and gref is not None:
            absent = [k for k in range(n // 2 + 1) if k not in gref["achieved"]]
            k = rng.choice(absent if i % 8 == 5 and absent else gref["achieved"])
            argv += ["--k", str(k), "--f", "const:0"]
        ops.append(Op(name, argv, [out], [out], _ComputeCheck(n, edges, k, gref)))
    return Inputs(ops[:-1], ops[-1], bip_files)


def make_compute_reference() -> dict:
    return {name: {"sha256": oracle.sha256(oracle.graph_text(n, edges)),
                   **oracle.exact_spectrum(n, edges)}
            for name, n, edges, _ in compute_pool()[:-1]}


# ------------------------------------------------------------ SAT artifacts


def random_cnf(rng: random.Random, num_vars: int, m: int) -> list[tuple[int, ...]]:
    """Exact-3-SAT with every variable used: the first clauses cover the
    variables in a shuffled order, the rest are uniform."""
    order = list(range(1, num_vars + 1))
    rng.shuffle(order)
    clauses = []
    for at in range(0, num_vars, 3):
        group = order[at:at + 3]
        while len(group) < 3:
            x = rng.randint(1, num_vars)
            if x not in group:
                group.append(x)
        clauses.append(group)
    while len(clauses) < m:
        clauses.append(rng.sample(range(1, num_vars + 1), 3))
    return [tuple(v if rng.random() < 0.5 else -v for v in cl) for cl in clauses[:m]]


@functools.cache
def _artifact(text: str) -> tuple[int, int, int, bool, int]:
    """(V, E, nu, connected, max degree) of an artifact file."""
    n, e, nu = oracle.artifact_nu(text)
    _, edges, _ = oracle.parse_graph_text(text)
    g = oracle.nx_graph(n, edges)
    return n, e, nu, oracle.nx.is_connected(g), max(d for _, d in g.degree)


def _check_certificate(cert: dict, m: int, variant: str, art_text: str, exhaustive: bool):
    shape = oracle.artifact_shape(m, variant)
    n, e, nu, connected, max_deg = _artifact(art_text)
    expect((n, e, max_deg) == (shape["V"], shape["E"], shape["maxDeg"]),
           f"artifact file has V={n} E={e} maxDeg={max_deg}, closed form {shape}")
    expect(connected, "artifact file is disconnected")
    expect(2 * nu == n, f"artifact file has nu={nu}, expected |V|/2={n // 2}")
    expect(cert["ok"] is True and cert["discrepancies"] == [], f"certificate not ok: {cert['discrepancies']}")
    for key in ("V", "E", "maxDeg", "kParam"):
        expect(cert[key] == shape[key], f"certificate {key}={cert[key]}, closed form {shape[key]}")
    expect(cert["nu"] == nu, f"certificate nu={cert['nu']}, Hopcroft-Karp {nu}")
    expect(cert["m"] == m and cert["variant"] == variant, "certificate header differs")
    expect(cert["bipartite"] is True and cert["connected"] is True, "certificate structure flags")
    expect((cert["census"] is not None) == exhaustive, "census presence differs")


def _structural_op_pair(wd: str, name: str, cnf_path: str, m: int, variant: str) -> list[Op]:
    art = os.path.join(wd, name + ".mg")
    cert = os.path.join(wd, name + ".cert.json")
    ver = os.path.join(wd, name + ".verify.json")

    def check_reduce(rc, stderr, outputs):
        expect(rc == 0, f"reduce exit code {rc}")
        _check_certificate(json.loads(outputs[cert]), m, variant, outputs[art], False)

    def check_verify(rc, stderr, outputs):
        expect(rc == 0, f"verify exit code {rc}")
        rep = json.loads(outputs[ver])
        expect(rep["graph_matches_artifact"] is True, "verify: graph does not match artifact")
        _check_certificate(rep, m, variant, outputs[art], False)

    return [
        Op(name + ".reduce",
           ["reduce", cnf_path, "--variant", variant, "--output", art, "--certificate", cert],
           [art, cert], [art, cert], check_reduce),
        Op(name + ".verify", ["verify", art, cnf_path, "--variant", variant, "--output", ver],
           [ver], [ver, art], check_verify),
    ]


# (clauses, variant) per CNF; variables are clauses // 4.  Larger artifacts
# (m = 800, 25,600 vertices) take ~4.7 s per reduce + verify pair, which would
# leave room for one pass per run.
STRUCTURAL_SLOTS = [(100, "L"), (100, "ell")] * 2 + [
    (m, v) for m in (125, 150, 200, 300) for v in ("L", "ell")] + [(400, "L"), (400, "ell")]


def artifact_structural(seed: int, wd: str, run_op=None) -> Inputs:
    rng = random.Random(f"artifact-structural:{seed}")
    ops: list[Op] = []
    files = []
    for idx, (m, variant) in enumerate(STRUCTURAL_SLOTS + [(40, "L")]):
        name = f"s{idx:02d}_{variant}_m{m}"
        cnf = _write(os.path.join(wd, name + ".cnf"),
                     oracle.cnf_text(m // 4, random_cnf(rng, m // 4, m)))
        ops += _structural_op_pair(wd, name, cnf, m, variant)
        files.append(os.path.join(wd, name + ".mg"))
    return Inputs(ops[:-2], ops[-2], files[:-1])


# (variables, clauses, variant) per CNF for the exhaustive census.  Renaming
# variables changes an operation's cost by up to 1.6x (enumeration order), so
# the set is wide and mostly small; m = 5 and 6 cost 1-7 s per operation.
CENSUS_SLOTS = [(n, 2, v) for n in (5, 6) for v in ("L", "ell")] * 6 + [
    (n, 3, v) for n in (5, 6) for v in ("L", "ell")] + [(5, 4, "L")]


def artifact_census(seed: int, wd: str, run_op) -> Inputs:
    """Formulas come from a fixed pool; the seed renames their variables,
    which relabels the artifact without changing its census.  Artifacts are
    compiled with `resmatch reduce` during set-up (checked like any other
    operation); the measured operation is `verify --exhaustive`."""
    pool = random.Random("artifact-census:pool")
    rng = random.Random(f"artifact-census:{seed}")
    ops = []
    files = []
    for idx, (num_vars, m, variant) in enumerate(CENSUS_SLOTS + [(3, 1, "ell")]):
        name = f"c{idx:02d}_{variant}_n{num_vars}_m{m}"
        perm = list(range(1, num_vars + 1))
        rng.shuffle(perm)
        clauses = [tuple(perm[abs(x) - 1] * (1 if x > 0 else -1) for x in cl)
                   for cl in random_cnf(pool, num_vars, m)]
        cnf = _write(os.path.join(wd, name + ".cnf"), oracle.cnf_text(num_vars, clauses))
        reduce_op, _ = _structural_op_pair(wd, name, cnf, m, variant)
        run_op(reduce_op)
        art = reduce_op.writes[0]
        files.append(art)
        out = os.path.join(wd, name + ".census.json")
        encoded = oracle.encoded_residuals(num_vars, clauses, variant)
        check = _census_check(num_vars, m, variant, art, out, encoded)
        ops.append(Op(name, ["verify", art, cnf, "--variant", variant, "--exhaustive",
                             "--output", out], [out], [out, art], check))
    return Inputs(ops[:-1], ops[-1], files[:-1])


def _census_check(num_vars: int, m: int, variant: str, art: str, out: str,
                  encoded: dict[str, int]):
    def check(rc, stderr, outputs):
        expect(rc == 0, f"verify --exhaustive exit code {rc}")
        rep = json.loads(outputs[out])
        _check_certificate(rep, m, variant, outputs[art], True)
        checks = rep["residualChecks"]
        expect(sorted(c["assignment"] for c in checks) == sorted(encoded),
               "residual checks do not cover every assignment")
        for c in checks:
            want = encoded[c["assignment"]]
            expect(c["expected"] == want and c["actual"] == want and c["decodeOk"] is True
                   and c["ok"] is True, f"residual check {c} != closed form {want}")
            expect(oracle.encoded_residual(m, variant, c["sat"]) == want,
                   f"satisfied-clause count {c['sat']} wrong for {c['assignment']}")
        cen = rep["census"]
        lo, hi = min(encoded.values()), max(encoded.values())
        pure = 2 ** num_vars
        expect((cen["encodedMin"], cen["encodedMax"]) == (lo, hi),
               f"encoded range {cen['encodedMin']}..{cen['encodedMax']}, closed form {lo}..{hi}")
        expect(cen["pureExpected"] == pure and cen["pureCount"] == pure, "pure matching count")
        expect(cen["truncated"] is False and cen["residualsOk"] is True, "census flags")
        expect(cen["count"] == cen["pureCount"] + cen["hybridCount"], "census count split")
        expect(cen["residualMin"] == lo, f"census minimum {cen['residualMin']} != {lo}")
        if variant == "L":
            expect(cen["hybridCount"] == 0 and cen["residualMax"] == hi, "L census has hybrids")
        else:
            expect(cen["residualMax"] >= hi, "ell census maximum below the encoded maximum")
    return check


# ------------------------------------------------------------ bench-sweep

BENCH_OPS = 80
BENCH_FAMILY = (12, 2, "1/3")  # n, count, p
BENCH_TRIALS = 200
BENCH_COLUMNS = ["graph", "vertices", "edges", "nu", "ell", "L", "truncated", "seed",
                 "residual", "ratio_ell", "ratio_L", "ok"]


def family_graphs(family_seed: int, n: int, count: int, p: str):
    """The edges of `random:n=..,count=..,p=..` as the CLI documents them."""
    for idx in range(count):
        rng = random.Random(f"{family_seed}:random:{n}:{idx}")
        yield f"random:{n}#{idx}", random_graph(rng, n, float(Fraction(p)), False)


class _BenchCheck:
    def __init__(self, family_seed: int, n: int, count: int, p: str, trials: int,
                 ref: dict | None):
        self.family_seed, self.trials, self.ref, self.n = family_seed, trials, ref, n
        self.graphs = dict(family_graphs(family_seed, n, count, p))
        self.nus: dict[str, int] = {}

    def __call__(self, rc, stderr, outputs):
        expect(rc == 0, f"bench exit code {rc}")
        expect(stderr.startswith("bench: 0 violation(s), 0 truncation(s)"), f"stderr {stderr!r}")
        text = next(iter(outputs.values()))
        rows = list(csv.reader(io.StringIO(text)))
        expect(rows[0] == BENCH_COLUMNS, "bench header differs")
        rows = rows[1:]
        expect(len(rows) == len(self.graphs) * self.trials, f"{len(rows)} rows")
        for at, (label, edges) in enumerate(self.graphs.items()):
            if label not in self.nus:
                self.nus[label] = oracle.nu_general(oracle.nx_graph(self.n, edges))
            nu = self.nus[label]
            block = rows[at * self.trials:(at + 1) * self.trials]
            ell, big_l = int(block[0][4]), int(block[0][5])
            expect(ell <= big_l <= 2 * ell, f"{label}: ell <= L <= 2*ell fails")
            if 2 * nu == self.n:
                expect(2 * big_l <= 3 * ell, f"{label}: 2L <= 3*ell fails")
            if self.ref is not None:
                want = self.ref["graphs"][label]
                expect([ell, big_l] == want, f"{label}: ell, L = {ell}, {big_l}, reference {want}")
            for j, row in enumerate(block):
                r = int(row[8])
                ratios = ["", ""] if ell == 0 else [_rat(Fraction(r, ell)), _rat(Fraction(r, big_l))]
                want_row = [label, str(self.n), str(len(edges)), str(nu), str(ell), str(big_l),
                            "False", str(self.family_seed + j), row[8], *ratios, "True"]
                expect(row == want_row, f"row {row} != {want_row}")
                expect(ell <= r <= big_l, f"{label}: residual {r} outside [{ell}, {big_l}]")
        if self.ref is not None:
            expect(oracle.sha256(text) == self.ref["sha256"],
                   "seeded bench output is not byte-identical to the reference")


def bench_sweep(seed: int, wd: str, run_op=None) -> Inputs:
    return _bench_inputs(seed, wd, _reference()["bench-sweep"] if seed == DEFAULT_SEED else None)


def _bench_inputs(seed: int, wd: str, ref: dict | None) -> Inputs:
    n, count, p = BENCH_FAMILY
    ops = []
    for i in range(BENCH_OPS + 1):
        last = i == BENCH_OPS
        family_seed = seed * 100_000 + i * BENCH_TRIALS
        c, trials = (1, 20) if last else (count, BENCH_TRIALS)
        name = f"b{i:03d}"
        out = os.path.join(wd, name + ".csv")
        argv = ["bench", f"random:n={n},count={c},p={p}", "--trials", str(trials),
                "--seed", str(family_seed), "--output", out]
        check = _BenchCheck(family_seed, n, c, p, trials,
                            None if ref is None or last else ref[name])
        ops.append(Op(name, argv, [out], [out], check))
    return Inputs(ops[:-1], ops[-1], [])


def make_bench_reference(wd: str, run_op) -> dict:
    """Exact ell and L per graph from the benchmark's own enumerator, and the
    digest of each seeded CSV (which must stay byte-identical)."""
    out = {}
    for op in _bench_inputs(DEFAULT_SEED, wd, None).ops:
        run_op(op)
        with open(op.writes[0]) as fh:
            digest = oracle.sha256(fh.read())
        graphs = {}
        for label, edges in op.check.graphs.items():
            spec = oracle.exact_spectrum(op.check.n, edges)
            graphs[label] = [spec["ell"], spec["L"]]
        out[op.key] = {"sha256": digest, "graphs": graphs}
    return out


# name -> generate(seed, work_dir, run_op) -> Inputs, where run_op executes
# and checks a set-up command (only the census needs one).  Why each workload
# exists is stated in BENCHMARK.json.
WORKLOADS = {
    "compute-random": compute_random,
    "artifact-structural": artifact_structural,
    "artifact-census": artifact_census,
    "bench-sweep": bench_sweep,
}
