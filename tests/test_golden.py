"""Byte-for-byte pins of `compute` and `verify --exhaustive` reports.

The pinned outputs live in golden/cli_outputs.json.  To regenerate them
after a deliberate output change, run this file as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import random

import pytest

from resmatch.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, os.pardir, "fixtures")
GOLDEN = os.path.join(HERE, "golden", "cli_outputs.json")

# Seeded G(10, 3/10) graphs whose spectra hold two values, so a Problem 1
# witness is not always the first matching enumerated.
RANDOM_SEEDS = (3, 7, 16)

# A formula whose ell artifact has hybrid maximum matchings (10 in its
# census, 2 of them hybrid).
M2_MIXED = "p cnf 3 2\n1 -2 3 0\n2 -3 -1 0\n"

# Formulas compiled for the verify cases: short name -> fixture file, or
# DIMACS text written under the work directory.
CNFS = {"m1": "example_m1.cnf", "m2": "example_m2.cnf", "mixed": M2_MIXED}

# name -> argv, with {p5}, {twin}, {r<seed>}, {cnf_<name>} and
# {art_<name>_<variant>} standing for files.
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
    **{
        f"{name}-{variant}-exhaustive": [
            "verify", f"{{art_{name}_{variant}}}", f"{{cnf_{name}}}",
            "--variant", variant, "--exhaustive",
        ]
        for name in CNFS
        for variant in ("L", "ell")
    },
}


def _random_graph_text(seed: int) -> str:
    rng = random.Random(seed)
    n = 10
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.3]
    return f"p mg {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


def _run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _files(workdir: str) -> dict:
    """Placeholder -> path: the fixtures, the random graphs, the formulas
    of CNFS and both compiled artifacts of each, written under workdir."""
    files = {
        "p5": os.path.join(FIXTURES, "p5.mg"),
        "twin": os.path.join(FIXTURES, "twin_spider.mg"),
    }
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
            code, _ = _run(["reduce", cnf, "--variant", variant, "--output", path])
            assert code == 0
    return files


def render(workdir: str) -> dict:
    """Run every case; return name -> {"code", "stdout"}."""
    files = _files(workdir)
    out = {}
    for name, argv in CASES.items():
        code, stdout = _run([a.format(**files) for a in argv])
        out[name] = {"code": code, "stdout": stdout}
    return out


def _load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return _files(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, files):
    golden = _load_golden()[name]
    code, stdout = _run([a.format(**files) for a in CASES[name]])
    assert code == golden["code"]
    assert stdout == golden["stdout"]


def test_golden_cases_cover_every_problem1_answer():
    answers = {
        json.loads(entry["stdout"])["problem1"]["answer"]
        for entry in _load_golden().values()
        if '"problem1"' in entry["stdout"]
    }
    assert answers == {"yes", "no", "unknown"}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as wd:
        result = render(wd)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(result)} cases to {GOLDEN}")
