"""Byte-for-byte pins of CLI reports and error messages.

Each case pins the exit code and stdout; a case that writes to stderr pins
that too, and so does a case that writes a file with --output.  The pinned
outputs live in golden/cli_outputs.json.  To regenerate them after a
deliberate output change, run this file as a script:

    PYTHONPATH=src python tests/test_golden.py

This is the one list of byte-pinned CLI runs: CI runs it under several
PYTHONHASHSEED values, so a new CLI output path gets a case here, not a
command in the workflow.
"""

import contextlib
import hashlib
import io
import json
import os
import random

import pytest
from oracles import random_cnf, random_graph

from resmatch.cli import main
from resmatch.graph import degree_profile, emit_graph_file, parse_graph_file
from resmatch.reduction import build_artifact, parse_dimacs

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, os.pardir, "fixtures")
GOLDEN = os.path.join(HERE, "golden", "cli_outputs.json")

# Seeded G(10, 3/10) graphs whose spectra hold two values, so a Problem 1
# witness is not always the first matching enumerated.
RANDOM_SEEDS = (3, 7, 16)

# A seeded sparse G(31, 2/25) graph: odd order, so no perfect matching, and
# 63 maximum matchings over four residual values.
G31 = random_graph(31, 0.08, random.Random("g31:9"))

# A formula whose ell artifact has hybrid maximum matchings (10 in its
# census, 2 of them hybrid).
M2_MIXED = "p cnf 3 2\n1 -2 3 0\n2 -3 -1 0\n"

# Formulas compiled for the verify cases: short name -> fixture file, or
# DIMACS text written under the work directory.
CNFS = {"m1": "example_m1.cnf", "m2": "example_m2.cnf", "mixed": M2_MIXED,
        "k3": "k3.cnf", "k3twin": "k3_twin.cnf"}

# Inputs the parsers must reject, one per message: placeholder -> file text.
BAD_INPUTS = {
    "bad_header_arity": "p mg 3\n",
    "bad_header_tag": "p xx 3 0\n",
    "bad_header_field": "p mg 3 x\n",
    "bad_vertex_arity": "p mg 2 0\nv 1 0\n",
    "bad_vertex_field": "p mg 2 0\nv 1 0 y\n",
    "bad_edge_arity": "p mg 2 1\ne 1\n",
    "bad_edge_field": "p mg 2 1\ne 1 x\n",
    "edge_outside": "p mg 2 1\ne 1 3\n",
    "self_loop": "p mg 2 1\ne 2 2\n",
    "bad_dimacs_arity": "p cnf 3\n1 2 3 0\n",
    "bad_dimacs_tag": "p dnf 3 1\n1 2 3 0\n",
    "bad_dimacs_field": "p cnf 3 x\n1 2 3 0\n",
    # int() would read each of these: a digit separator, Arabic-Indic and
    # fullwidth digits; the digit rule takes ASCII digits only
    "bad_header_separator": "p mg 1_0 1\ne 1 2\n",
    "bad_edge_digit": "p mg 3 1\ne 1 \u0662\n",
    "bad_vertex_digit": "p mg 1 0\nv 1 0 \uff13\n",
    "bad_dimacs_header_digit": "p cnf \u0663 1\n1 2 3 0\n",
    "bad_dimacs_literal_digit": "p cnf 3 1\n1 -2 \uff13 0\n",
    # str.split() and str.splitlines() would read each of these as an edge or
    # a clause: fields part at ASCII blanks and lines end at \n, \r\n or \r only
    "bad_edge_em_space": "p mg 2 1\ne\u20031\u20032\n",
    "bad_edge_unit_separator": "p mg 2 1\ne 1\x1f2\n",
    "bad_header_line_separator": "p mg 2 1\u2028e 1 2\n",
    "bad_dimacs_em_space": "p cnf 3 1\n1\u20032\u20033\u20030\n",
    "bad_dimacs_line_separator": "p cnf 3 1\u20281 2 3 0\n",
    # str.split() would skip the first as a blank line and read the second
    # as a comment: a non-ASCII blank is a field, not a blank
    "bad_blank_only_line": "p mg 2 1\n\u3000\ne 1 2\n",
    "bad_dimacs_indented_comment": "p cnf 3 1\n\u2003c note\n1 2 3 0\n",
}

# name -> argv, with {p5}, {twin}, {r<seed>}, {g31}, {cnf_<name>},
# {art_<name>_<variant>}, {out} and the keys of BAD_INPUTS standing for files.
CASES = {
    "p5": ["compute", "{p5}"],
    "twin": ["compute", "{twin}"],
    "p5-k1-const0-yes": ["compute", "{p5}", "--k", "1", "--f", "const:0"],
    "p5-k0-const0-no": ["compute", "{p5}", "--k", "0", "--f", "const:0"],
    "p5-k0-const0-cap2-unknown": ["compute", "{p5}", "--k", "0", "--f", "const:0", "--cap", "2"],
    "p5-k1-identity": ["compute", "{p5}", "--k", "1", "--f", "identity"],
    "twin-k3-identity": ["compute", "{twin}", "--k", "3", "--f", "identity"],
    "r3": ["compute", "{r3}"],
    "r3-k3-const0-yes": ["compute", "{r3}", "--k", "3", "--f", "const:0"],
    "r3-k3-const0-cap2-unknown": ["compute", "{r3}", "--k", "3", "--f", "const:0", "--cap", "2"],
    "r7": ["compute", "{r7}"],
    "r7-k4-const0-yes": ["compute", "{r7}", "--k", "4", "--f", "const:0"],
    "r7-k2-const1-no": ["compute", "{r7}", "--k", "2", "--f", "const:1"],
    "r16": ["compute", "{r16}"],
    "r16-k1-log-yes": ["compute", "{r16}", "--k", "1", "--f", "log"],
    "r16-k0-linear-no": ["compute", "{r16}", "--k", "0", "--f", "linear:1/10"],
    "r16-k2-identity": ["compute", "{r16}", "--k", "2", "--f", "identity"],
    "g31": ["compute", "{g31}"],
    # the paper's gap on K3 (m = 8, 256 vertices): L is 86 on K3 and 87 on its
    # twin, so k = 11m - 1 = 87 is missed by m/8 = 1 > 256/257 on K3 alone
    "k3-L-k87-linear-no": ["compute", "{art_k3_L}", "--k", "87", "--f", "linear:1/257"],
    "k3twin-L-k87-linear-yes": ["compute", "{art_k3twin_L}", "--k", "87",
                                "--f", "linear:1/257"],
    # truncated reports: the exit status follows the report, whatever the answer
    "p5-k1-const0-cap2-truncated-yes": ["compute", "{p5}", "--cap", "2", "--k", "1",
                                        "--f", "const:0"],
    "p5-k1-identity-cap1-truncated": ["compute", "{p5}", "--cap", "1", "--k", "1",
                                      "--f", "identity"],
    # a graph file that is not the formula's artifact: three graph discrepancies
    "p5-m1-L-mismatch": ["verify", "{p5}", "{cnf_m1}", "--variant", "L"],
    # the same with the census: the compiled artifact's census, then the three
    "p5-m1-L-mismatch-exhaustive": ["verify", "{p5}", "{cnf_m1}", "--variant", "L",
                                    "--exhaustive"],
    **{
        f"{name}-{variant}-exhaustive": [
            "verify", f"{{art_{name}_{variant}}}", f"{{cnf_{name}}}",
            "--variant", variant, "--exhaustive",
        ]
        for name in CNFS
        for variant in ("L", "ell")
    },
    **{
        f"{name}-{variant}-reduce": [
            "reduce", f"{{cnf_{name}}}", "--variant", variant, "--output", "{out}",
        ]
        for name in CNFS
        for variant in ("L", "ell")
    },
    "bench-path": ["bench", "path:2..6"],
    "bench-cycle": ["bench", "cycle:3..7:2"],
    "bench-random": ["bench", "random:n=8,count=3,p=1/3", "--seed", "4"],
    # the same rows written to a file: the streamed rows pinned with --output
    "bench-random-output": ["bench", "random:n=8,count=3,p=1/3", "--seed", "4",
                            "--output", "{out}"],
    "bench-random-bipartite": ["bench", "random-bipartite:n=8,count=2,p=1/2"],
    "bench-random-cap2-truncated": ["bench", "random:n=8,count=3,p=1/3", "--seed", "4",
                                    "--cap", "2"],
    # the benchmark's bench-sweep command
    "bench-sweep": ["bench", "random:n=12,count=2,p=1/3", "--trials", "200", "--seed", "100000"],
    "calibrate-L": ["calibrate", "--variant", "L", "--epsilon", "1/100"],
    "calibrate-ell": ["calibrate", "--variant", "ell", "--epsilon", "1/100"],
    "calibrate-threshold": ["calibrate", "--epsilon", "1/16", "--c", "1/1000"],
    **{
        f"error-{name}": ["compute", f"{{{name}}}"]
        for name in BAD_INPUTS
        if not name.startswith("bad_dimacs")
    },
    **{
        f"error-{name}": ["reduce", f"{{{name}}}", "--variant", "L", "--output", "{out}"]
        for name in BAD_INPUTS
        if name.startswith("bad_dimacs")
    },
}


def _random_graph_text(seed: int) -> str:
    rng = random.Random(seed)
    n = 10
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.3]
    return f"p mg {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _files(workdir: str) -> dict:
    """Placeholder -> path: the fixtures, the random graphs, G31, the formulas
    of CNFS and both compiled artifacts of each, the bad inputs, and an
    output path, written under workdir."""
    files = {
        "p5": os.path.join(FIXTURES, "p5.mg"),
        "twin": os.path.join(FIXTURES, "twin_spider.mg"),
        "out": os.path.join(workdir, "out.mg"),
        "g31": os.path.join(workdir, "g31.mg"),
    }
    with open(files["g31"], "w") as fh:
        fh.write(emit_graph_file(G31))
    for name, text in BAD_INPUTS.items():
        path = files[name] = os.path.join(workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
    for seed in RANDOM_SEEDS:
        path = files[f"r{seed}"] = os.path.join(workdir, f"r{seed}.mg")
        with open(path, "w") as fh:
            fh.write(_random_graph_text(seed))
    for name, source in CNFS.items():
        if source.endswith(".cnf"):
            cnf = files[f"cnf_{name}"] = os.path.join(FIXTURES, source)
        else:
            cnf = files[f"cnf_{name}"] = os.path.join(workdir, f"{name}.cnf")
            with open(cnf, "w") as fh:
                fh.write(source)
        for variant in ("L", "ell"):
            path = files[f"art_{name}_{variant}"] = os.path.join(
                workdir, f"art_{name}_{variant}.mg"
            )
            code, _, _ = _run(["reduce", cnf, "--variant", variant, "--output", path])
            assert code == 0
    return files


def _entry(name: str, files: dict) -> dict:
    """Run case name: {"code", "stdout"[, "stderr"][, "output"]}, with
    "stderr" only when the case writes to it and "output" only when it
    writes the {out} file (removed first, so each case starts without it)."""
    out_path = files["out"]
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    code, stdout, stderr = _run([a.format(**files) for a in CASES[name]])
    entry = {"code": code, "stdout": stdout}
    if stderr:
        entry["stderr"] = stderr
    if os.path.exists(out_path):
        with open(out_path, newline="") as fh:  # no newline translation
            entry["output"] = fh.read()
    return entry


def render(workdir: str) -> dict:
    """Run every case; return name -> its _entry."""
    files = _files(workdir)
    return {name: _entry(name, files) for name in CASES}


def _load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return _files(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, files):
    assert _entry(name, files) == _load_golden()[name]


def test_golden_cases_cover_every_problem1_answer():
    answers = {
        json.loads(entry["stdout"])["problem1"]["answer"]
        for entry in _load_golden().values()
        if '"problem1"' in entry["stdout"]
    }
    assert answers == {"yes", "no", "unknown"}


@pytest.mark.parametrize("name", ["p5", "twin", *(f"r{seed}" for seed in RANDOM_SEEDS)])
def test_compute_reports_the_library_degree_profile(name, files):
    _, stdout, _ = _run(["compute", files[name]])
    with open(files[name]) as fh:
        g = parse_graph_file(fh.read())
    assert json.loads(stdout)["degree_profile"] == json.loads(json.dumps(degree_profile(g)))


# sha256 of what `reduce` and `verify` write, and of the artifact record, for
# a seeded 25-variable, 100-clause formula: the size the structural benchmark
# starts at (3,200 and 2,800 vertices).  Cycles are pinned side by side as
# sorted edge lists.
SCALE_PINS = {
    "L": {
        "graph": "7fb122c10464660ba2c320c4cdc1c4ad879bbfaf6d819bcbb4403d7b8a459cc5",
        "certificate": "4ba6d290e60f714a638d1624845a4e45da14057d3132d5bd82ab4672f9dea695",
        "verify": "c2ebe74a3a80ff7ac8768bea0279aa8260d82eec6e1a4a16ccb13d40c963b07c",
        "roles": "2ebc6a020f5460a456af580a841015b6696ad9cff49f0fd09fb9684874cca160",
        "cycles": "d55af7ce312d640f3e4c24a1ecbd5b975ed4e301abc3def9dbcdd33478f997f8",
    },
    "ell": {
        "graph": "6e364fbe0cd10f6954e69710a4657d78be105c933f36e242df169826ddfe7fb6",
        "certificate": "25efe37adf7977b3012338ba5b36383dea3c186c9957b12ca7c66a5d939063ce",
        "verify": "0d666154de330ac90492e5095ff08e1ebb47cc7a41460cd7cfa31551f43315b4",
        "roles": "770a3339e5bd94a1d0c37c55fa3b601e7bfbd05b426d7b9ec486aeefcdf759d3",
        "cycles": "19a9789ae20dee0a629d1698123552a311ee1b674e544795daf20edc93fe7c39",
    },
}


@pytest.mark.parametrize("variant", sorted(SCALE_PINS))
def test_artifact_bytes_at_benchmark_scale(variant, tmp_path):
    def sha(data) -> str:
        return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()

    text = random_cnf(25, 100, seed=0)
    cnf, art_file, cert, report = (tmp_path / name for name in ("f.cnf", "a.mg", "c.json", "v.json"))
    cnf.write_text(text)
    assert main(["reduce", str(cnf), "--variant", variant, "--output", str(art_file),
                 "--certificate", str(cert)]) == 0
    assert main(["verify", str(art_file), str(cnf), "--variant", variant,
                 "--output", str(report)]) == 0
    art = build_artifact(parse_dimacs(text), variant)
    assert art_file.read_text() == emit_graph_file(art.graph)
    assert {
        "graph": sha(art_file.read_bytes()),
        "certificate": sha(cert.read_bytes()),
        "verify": sha(report.read_bytes()),
        "roles": sha(repr(list(art.roles.items()))),
        "cycles": sha(repr([(sorted(t), sorted(f)) for t, f in art.cycles])),
    } == SCALE_PINS[variant]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as wd:
        result = render(wd)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(result)} cases to {GOLDEN}")
