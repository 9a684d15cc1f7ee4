"""The paper's hardness gap, end to end, on a family whose MAX-SAT is known.

K3 (fixtures/k3.cnf) is the 8 clauses on variables 1-3 with all 8 sign
patterns: every assignment falsifies exactly one of them.  K3^t is t copies
of those clauses on the same 3 variables, m = 8t clauses in all, so its
max-sat is 7m/8.  Its twin (fixtures/k3_twin.cnf) has (1 2 3) in place of
each (-1 -2 -3), so all-TRUE satisfies all m.  Each artifact has 8 maximum
matchings, whatever t, and its residual spectrum has a closed form:

- L artifacts: L = 10m - 1 + max-sat, so 10m - 1 + 7m/8 on K3^t and
  11m - 1 on the twin;
- ell artifacts: ell = 11m - 1 - max-sat, so 11m - 1 - 7m/8 on K3^t and
  10m - 1 on the twin.

On an L artifact (32m vertices), `compute --k 11m-1 --f linear:C` asks
whether some residual lies within C * 32m of 11m - 1.  K3^t misses it by
m/8, so the answer is no below C = 1/256 and yes from C = 1/256 on, for
every t; the twin reaches it exactly.  t = 16 (4,096 vertices) holds too,
in about 1 s per artifact, and is left out of these tests for time.
"""

import io
import json
import os
from contextlib import redirect_stdout

import pytest

from resmatch.cli import main
from resmatch.reduction import build_artifact, parse_dimacs
from resmatch.spectrum import spectrum

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

# fixture -> max-sat of one copy of its 8 clauses
FORMULAS = {"k3.cnf": 7, "k3_twin.cnf": 8}


def k3_power(name: str, t: int) -> str:
    """DIMACS text of t copies of the fixture's clauses, on its 3 variables."""
    with open(os.path.join(FIXTURES, name)) as fh:
        clauses = [line for line in fh.read().splitlines() if line[0] not in "cp"]
    return f"p cnf 3 {len(clauses) * t}\n" + "\n".join(clauses * t) + "\n"


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(FORMULAS))
@pytest.mark.parametrize("t", [1, 2, 4])
@pytest.mark.parametrize("variant", ["L", "ell"])
def test_spectrum_has_the_closed_form(variant, t, name):
    m, sat = 8 * t, FORMULAS[name] * t
    g = build_artifact(parse_dimacs(k3_power(name, t)), variant).graph
    rep = spectrum(g)
    assert (rep.enumerated, rep.truncated) == (8, False)
    if variant == "L":
        assert rep.big_l == 10 * m - 1 + sat
    else:
        assert rep.ell == 11 * m - 1 - sat


@pytest.mark.parametrize("t", [1, 2, 4])
def test_problem1_answer_flips_at_c_1_256(t, tmp_path):
    # reduce, then compute --k 11m-1, through the CLI: the K3^t gap is m/8,
    # and C * 32m reaches it at C = 1/256, not at 1/257
    m = 8 * t
    answers = {}
    for name in FORMULAS:
        cnf, art = tmp_path / name, tmp_path / f"{name}.mg"
        cnf.write_text(k3_power(name, t))
        assert _run(["reduce", str(cnf), "--variant", "L", "--output", str(art)])[0] == 0
        for c in ("1/257", "1/256"):
            code, stdout = _run(["compute", str(art), "--k", str(11 * m - 1),
                                 "--f", f"linear:{c}"])
            assert code == 0
            answers[name, c] = json.loads(stdout)["problem1"]["answer"]
    assert answers == {("k3.cnf", "1/257"): "no", ("k3.cnf", "1/256"): "yes",
                       ("k3_twin.cnf", "1/257"): "yes", ("k3_twin.cnf", "1/256"): "yes"}


@pytest.mark.parametrize("epsilon, admissible", [("1/2057", True), ("1/2056", False)])
def test_calibrate_admits_c_1_257_below_epsilon_1_2056(epsilon, admissible):
    # 1/256 - 1/257 = 1/65792 = (1/2056) / 32: the bound 1/256 - eps/32 stays
    # above c = 1/257 exactly when eps < 1/2056
    code, stdout = _run(["calibrate", "--epsilon", epsilon, "--c", "1/257"])
    assert code == 0
    assert json.loads(stdout)["admissible"] is admissible
