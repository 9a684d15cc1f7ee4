"""Acceptance criteria, one test per criterion.

Each test records a single [PASS]/[FAIL] line through the acceptance_report
fixture; the lines are replayed in the terminal summary after the run.
"""

import itertools
import json
import os
import random
import time
from fractions import Fraction

from oracles import (
    expected_residual,
    nu_bruteforce,
    nu_k_bruteforce,
    random_bipartite,
    random_graph,
    spectrum_double_brute,
)
from resmatch.cli import main
from resmatch.colorable import nu2_bipartite
from resmatch.graph import build_graph, delete_edges
from resmatch.matching import nu, validate_matching
from resmatch.reduction import (
    additive_threshold,
    all_assignments,
    build_artifact,
    calibration,
    encode_assignment,
    expected_counts,
    parse_dimacs,
    sat_count,
    verify_artifact,
)
from resmatch.spectrum import approx_trial, check_bounds, decide_problem1, parse_tolerance, spectrum

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _random_graph_capped(n, max_edges, rng):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng.shuffle(pairs)
    return build_graph(n, pairs[: rng.randint(0, min(max_edges, len(pairs)))])


def test_criterion_1_p5_fixture(tmp_path, acceptance_report):
    out_path = tmp_path / "p5.json"
    t0 = time.monotonic()
    code = main(["compute", os.path.join(FIXTURES, "p5.mg"), "--output", str(out_path)])
    elapsed = time.monotonic() - t0
    d = json.loads(out_path.read_text())
    ok = (
        code == 0
        and (d["nu"], d["ell"], d["L"]) == (2, 1, 2)
        and d["achieved"] == [1, 2]
        and elapsed < 1.0
    )
    acceptance_report(1, "path fixture spectrum", ok, f"{elapsed:.3f}s")


def test_criterion_2_twin_spider_fixture(tmp_path, acceptance_report):
    out_path = tmp_path / "twin.json"
    t0 = time.monotonic()
    code = main(
        ["compute", os.path.join(FIXTURES, "twin_spider.mg"), "--output", str(out_path)]
    )
    elapsed = time.monotonic() - t0
    d = json.loads(out_path.read_text())
    ok = (
        code == 0
        and (d["nu"], d["nu2"], d["ell"], d["L"]) == (5, 8, 2, 2)
        and d["enumerated"] == 1
        and elapsed < 1.0
    )
    acceptance_report(2, "twin-spider fixture values", ok, f"{elapsed:.3f}s")


def test_criterion_3_oracle_equivalence(acceptance_report):
    t0 = time.monotonic()
    rng = random.Random(30301)
    mismatches = 0
    checked = 0

    # every labeled graph on up to 4 vertices, both oracles
    for n in range(5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            best, residuals = spectrum_double_brute(g)
            rep = spectrum(g, cap=10**5)
            if nu(g) != nu_bruteforce(g) or rep.nu != best or sorted(rep.achieved) != residuals:
                mismatches += 1
            checked += 1

    # random coverage of graphs on up to 8 vertices
    for _ in range(10_000):
        g = random_graph(rng.randint(1, 8), rng.choice([0.2, 0.35, 0.5]), rng)
        if nu(g) != nu_bruteforce(g):
            mismatches += 1
        best, residuals = spectrum_double_brute(g)
        rep = spectrum(g, cap=10**5)
        if rep.nu != best or sorted(rep.achieved) != residuals:
            mismatches += 1
        checked += 1

    # sparser random graphs on up to 14 vertices
    for _ in range(500):
        g = _random_graph_capped(rng.randint(9, 14), 20, rng)
        if nu(g) != nu_bruteforce(g, cap=24):
            mismatches += 1
        best, residuals = spectrum_double_brute(g)
        rep = spectrum(g, cap=10**6)
        if rep.nu != best or sorted(rep.achieved) != residuals:
            mismatches += 1
        checked += 1

    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and checked >= 10_500 and elapsed < 600
    acceptance_report(3, "matching and spectrum oracle equivalence", ok,
                      f"{checked} graphs, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_4_flow_nu2_equivalence(acceptance_report):
    t0 = time.monotonic()
    rng = random.Random(40404)
    mismatches = 0
    for _ in range(300):
        g = random_bipartite(rng.randint(2, 12), 18, rng)
        if nu2_bipartite(g).size != nu_k_bruteforce(g, 2):
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 300
    acceptance_report(4, "flow nu2 equals brute force on 300 bipartite graphs", ok,
                      f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_5_bound_suite(acceptance_report):
    t0 = time.monotonic()
    rng = random.Random(50505)
    violations = 0
    for _ in range(1000):
        g = random_graph(rng.randint(1, 12), rng.choice([0.2, 0.35, 0.5]), rng)
        bounds = check_bounds(g, cap=10**6)
        if not bounds.ok:
            violations += 1
        trial = approx_trial(g, seeds=(0, 1, 2), cap=10**6)
        if not trial.ok:
            violations += 1
        for _, r in trial.rows:
            r_ell, r_big_l, _ = trial.verdicts[r]
            if trial.ell >= 1 and not (1 <= r_ell <= 2 and Fraction(1, 2) <= r_big_l <= 1):
                violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0
    acceptance_report(5, "bound suite on 1000 random graphs", ok,
                      f"{violations} violations, {elapsed:.1f}s")


CNFS_M12 = [
    "p cnf 3 1\n1 2 3 0\n",
    "p cnf 3 1\n1 -2 -3 0\n",
    "p cnf 3 1\n-1 -2 -3 0\n",
    "p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n",
    "p cnf 6 2\n1 2 3 0\n4 5 6 0\n",
    "p cnf 3 2\n1 -2 3 0\n2 -3 -1 0\n",
]


def test_criterion_6_structural_certificates(acceptance_report):
    t0 = time.monotonic()
    texts = {
        1: "p cnf 3 1\n1 2 3 0\n",
        2: "p cnf 3 2\n1 -2 3 0\n2 -3 -1 0\n",
        3: "p cnf 4 3\n1 2 3 0\n-2 3 -4 0\n1 -3 4 0\n",
    }
    failures = []
    for m, text in texts.items():
        for variant, v_per_m, deg in (("L", 32, 4), ("ell", 28, 3)):
            cert = verify_artifact(build_artifact(parse_dimacs(text), variant))
            stated = (37 * m - 1) if variant == "L" else (31 * m - 1)
            d = cert.to_json_dict()
            good = (
                cert.ok
                and cert.vertices == v_per_m * m
                and cert.nu_value == cert.vertices // 2
                and cert.bipartite
                and cert.connected
                and cert.max_degree == deg
                and cert.edges == d["expectedE"] == expected_counts(m, variant)["edges"] == stated
                and d["E"] == d["expectedE"] == stated
            )
            if not good:
                failures.append((m, variant, cert.discrepancies))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 10
    acceptance_report(6, "structural certificates for m in 1..3", ok,
                      f"{len(failures)} failures, {elapsed:.2f}s")


def test_criterion_7_residual_identities(acceptance_report):
    t0 = time.monotonic()
    mismatches = 0
    assignments = 0
    for text in CNFS_M12:
        cnf = parse_dimacs(text)
        m = cnf.num_clauses
        for variant in ("L", "ell"):
            art = build_artifact(cnf, variant)
            for alpha in all_assignments(cnf.num_vars):
                f = encode_assignment(art, alpha)
                r = nu(delete_edges(art.graph, f))
                s = sat_count(cnf, alpha)
                want = 10 * m - 1 + s if variant == "L" else 11 * m - 1 - s
                if r != want or want != expected_residual(art, alpha):
                    mismatches += 1
                assignments += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 120
    acceptance_report(7, "residual identities over all assignments (m <= 2)", ok,
                      f"{assignments} encodings, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_8_satisfiable_reaches_k_param(acceptance_report):
    t0 = time.monotonic()
    hits = []
    for text in ("p cnf 3 1\n1 2 3 0\n", "p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n"):
        cnf = parse_dimacs(text)
        art = build_artifact(cnf, "L")
        m = cnf.num_clauses
        found = any(
            sat_count(cnf, alpha) == m
            and nu(delete_edges(art.graph, encode_assignment(art, alpha)))
            == 11 * m - 1
            == expected_counts(m, "L")["k_param"]
            for alpha in all_assignments(cnf.num_vars)
        )
        hits.append(found)
    elapsed = time.monotonic() - t0
    acceptance_report(8, "satisfying assignment reaches k_param on the L variant",
                      all(hits), f"{sum(hits)}/2 instances, {elapsed:.2f}s")


def test_criterion_9_identity_tolerance_trivial_yes(acceptance_report):
    t0 = time.monotonic()
    rng = random.Random(90909)
    identity = parse_tolerance("identity")
    failures = 0
    for _ in range(100):
        g = random_graph(rng.randint(1, 10), rng.choice([0.25, 0.5]), rng)
        k = rng.randint(0, g.vertex_count // 2)
        res = decide_problem1(g, k, identity, cap=10**6)
        witness_ok = res.witness is not None and validate_matching(g, res.witness).maximum
        if res.answer != "yes" or res.enumerated != 0 or not witness_ok:
            failures += 1
    elapsed = time.monotonic() - t0
    acceptance_report(9, "identity tolerance answers yes without enumeration",
                      failures == 0, f"{failures} failures, {elapsed:.2f}s")


def test_criterion_10_calibration(acceptance_report):
    t0 = time.monotonic()
    rng = random.Random(101010)
    bad = 0
    for _ in range(50):
        eps = Fraction(rng.randint(1, 100), rng.randint(8900, 10**6))
        if eps >= Fraction(1, 88):
            eps = Fraction(1, 89)
        # 10 + 7/8 + delta = 11(1 - eps), solved for delta
        if calibration("L", eps) != 11 * (1 - eps) - 10 - Fraction(7, 8):
            bad += 1
    for _ in range(50):
        eps = Fraction(rng.randint(1, 100), rng.randint(8100, 10**6))
        if eps >= Fraction(1, 80):
            eps = Fraction(1, 81)
        # 11 - 7/8 - delta = 10(1 + eps), solved for delta
        if calibration("ell", eps) != 11 - Fraction(7, 8) - 10 * (1 + eps):
            bad += 1
    for _ in range(50):
        c = Fraction(rng.randint(1, 50), rng.randint(51, 10**5))
        eps = Fraction(1, rng.randint(9, 10**4))
        if additive_threshold(c, eps) != (c < Fraction(1, 256) - eps / 32):
            bad += 1

    rejected = 0
    for variant, eps in (("L", Fraction(1, 88)), ("ell", Fraction(1, 80))):
        try:
            calibration(variant, eps)
        except ValueError:
            rejected += 1
    if not additive_threshold(Fraction(1, 256), Fraction(1, 1000)):
        rejected += 1

    elapsed = time.monotonic() - t0
    ok = bad == 0 and rejected == 3
    acceptance_report(10, "calibration matches exact rational re-derivation", ok,
                      f"{bad} mismatches, {rejected}/3 boundary rejections, {elapsed:.2f}s")
