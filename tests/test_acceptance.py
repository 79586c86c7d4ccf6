"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here, not configured elsewhere.
"""

import json
import time

import numpy as np

from mkbary import (
    BarycenterProblem,
    Constraint,
    CostSpec,
    GroundSpace,
    MetaDistribution,
    barycenter_fixed_support,
    barycenter_quantile_1d,
    brute_force_transport,
    dirac,
    generate_random_measure,
    lln_experiment,
    meta_distance,
    objective,
    perturbation_experiment,
    transport_cost,
)
from mkbary.cli import main
from mkbary.barycenter import constraint_from_json
from mkbary.consistency import random_population
from mkbary.costs import growth_constants
from mkbary.verify import run_convexity, run_criterion, run_interpolation, run_q_triangle, run_triangle

LINE = GroundSpace.euclidean(1)
ABS = CostSpec.norm_power(1)
SQ = CostSpec.norm_power(2)
ROOT = CostSpec.metric_power(0.5)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} ({name}): {status}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_c01_oracle_equivalence():
    t0 = time.monotonic()
    costs = (ABS, SQ, ROOT)
    worst = 0.0
    for i in range(500):
        mu = generate_random_measure(2 * i, [-1.0], [1.0], 4)
        nu = generate_random_measure(2 * i + 1, [-1.0], [1.0], 4)
        cost = costs[i % 3]
        lp = transport_cost(mu, nu, cost)
        bf = brute_force_transport(mu, nu, cost)
        worst = max(worst, abs(lp - bf) / (1.0 + abs(lp)))
    elapsed = time.monotonic() - t0
    _report(1, "oracle equivalence", worst <= 1e-9 and elapsed < 10.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c02_convexity_suite():
    t0 = time.monotonic()
    result = run_convexity({"count": 200})
    elapsed = time.monotonic() - t0
    _report(2, "convexity", result.passed and elapsed < 30.0,
            f"violations {result.summary['violations']}, {elapsed:.1f}s")


def test_c03_interpolation_suite():
    result = run_interpolation({"count": 100})
    _report(3, "interpolation", result.passed,
            f"violations {result.summary['violations']}")


def test_c04_weak_triangle_and_gluing():
    result = run_triangle({"count": 200, "cost": {"kind": "norm_power", "p": 2}})
    ok = result.passed and result.summary["A"] == 0.0 and result.summary["B"] == 2.0
    _report(4, "weak triangle + gluing", ok,
            f"A={result.summary['A']}, B={result.summary['B']}, "
            f"violations {result.summary['violations']}")


def test_c05_q_triangle_suite():
    qs = {p: growth_constants(CostSpec.norm_power(p)).q for p in (1.0, 2.0, 4.0)}
    expected = {1.0: 3.0, 2.0: 6.0, 4.0: 24.0}
    result = run_q_triangle({"count": 200, "powers": [1.0, 2.0, 4.0]})
    ok = qs == expected and result.passed
    _report(5, "q-triangle", ok, f"q map {qs}, violations {result.summary['violations']}")


def test_c06_convergence_criterion():
    result = run_criterion({})
    ok = (result.passed
          and result.summary["escaping_verdict"] == "weak_only"
          and result.summary["truncation_verdict"] == "consistent_with_J_convergence")
    _report(6, "transport convergence criterion", ok, str(result.summary))


def test_c07_quantile_vs_lp_cross_validation():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        k = int(rng.integers(1, 5))
        inputs = [
            (generate_random_measure(10_000 + seed * 10 + i, [-2.0], [2.0], 5),
             float(rng.uniform(0.2, 1.0)))
            for i in range(k)
        ]
        cost = SQ if seed % 2 == 0 else ABS
        prob = BarycenterProblem.make(inputs, Constraint.quantile_1d(), cost)
        qres = barycenter_quantile_1d(prob)
        grid = np.concatenate([qres.measure.atoms] + [m.atoms for m, _ in prob.inputs])
        grid = np.unique(np.round(grid, 12), axis=0)
        lp = barycenter_fixed_support(
            BarycenterProblem.make(list(prob.inputs), Constraint.simplex_over(grid), cost)
        )
        worst = max(worst, abs(qres.objective - lp.objective))
    elapsed = time.monotonic() - t0
    _report(7, "1-D quantile vs LP", worst <= 1e-7 and elapsed < 60.0,
            f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_c08_two_dirac_barycenter_exact():
    prob = BarycenterProblem.make(
        [(dirac(LINE, [0.0]), 0.5), (dirac(LINE, [1.0]), 0.5)],
        Constraint.simplex_over([[0.0], [0.5], [1.0]]),
        SQ,
    )
    res = barycenter_fixed_support(prob)
    is_half = (res.measure.n_atoms == 1
               and abs(res.measure.atoms[0, 0] - 0.5) <= 1e-12
               and abs(res.measure.weights[0] - 1.0) <= 1e-12)
    exact = abs(res.objective - 0.25) <= 1e-12
    recomputed = abs(objective(res.measure, prob) - 0.25) <= 1e-12
    _report(8, "two-Dirac barycenter", is_half and exact and recomputed,
            f"measure atoms {res.measure.atoms.ravel().tolist()}, objective {res.objective!r}")


def test_c09_law_of_large_numbers():
    t0 = time.monotonic()
    population = random_population(4, 1, [0.0, 0.0], [1.0, 1.0], 5)
    grid = constraint_from_json({"kind": "grid", "shape": [9, 9], "box": [[0.0, 0.0], [1.0, 1.0]]})
    report = lln_experiment(population, [4, 16, 64], range(20), grid, SQ)
    med_j = report.summary["median_j"]
    med_meta = report.summary["median_meta_j"]
    elapsed = time.monotonic() - t0
    decay_ok = med_j[64] <= 0.5 * med_j[4]
    meta_ok = med_meta[4] > med_meta[16] > med_meta[64]
    ok = decay_ok and meta_ok and not report.incomplete and elapsed < 300.0
    _report(9, "law of large numbers", ok,
            f"median_j {med_j}, median_meta {med_meta}, {elapsed:.1f}s")


def test_c10_perturbation():
    population = MetaDistribution.dirac(generate_random_measure(2000, [0.0, 0.0], [1.0, 1.0], 4))
    grid = constraint_from_json({"kind": "grid", "shape": [9, 9], "box": [[0.0, 0.0], [1.0, 1.0]]})
    report = perturbation_experiment(population, [0.0, 0.01, 0.05, 0.1], grid, SQ)
    meta = report.summary["meta_j_track"]
    j_track = report.summary["j_track"]
    zero_ok = meta[0] <= 1e-9 and j_track[0] <= 1e-9
    mono_ok = all(b >= a - 1e-12 for a, b in zip(meta, meta[1:]))
    _report(10, "perturbation", zero_ok and mono_ok,
            f"meta track {meta}, j track {j_track}")


def test_c11_meta_distance_reduction():
    worst = 0.0
    for seed in range(50):
        mu = generate_random_measure(40_000 + seed, [-1.0, -1.0], [1.0, 1.0], 4)
        nu = generate_random_measure(41_000 + seed, [-1.0, -1.0], [1.0, 1.0], 4)
        lifted = meta_distance(MetaDistribution.dirac(mu), MetaDistribution.dirac(nu), SQ)
        plain = transport_cost(mu, nu, SQ)
        worst = max(worst, abs(lifted - plain))
    _report(11, "meta-distance reduction", worst <= 1e-9, f"worst gap {worst:.2e}")


def test_c12_verify_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"count": 20}))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = main(["verify", "criterion", "--out-dir", str(out1)])
    rc2 = main(["verify", "criterion", "--out-dir", str(out2)])
    csv_same = (out1 / "criterion.csv").read_bytes() == (out2 / "criterion.csv").read_bytes()
    summary_same = (out1 / "criterion_summary.json").read_bytes() == (out2 / "criterion_summary.json").read_bytes()
    rc3 = main(["verify", "convexity", "--config", str(cfg_path), "--out-dir", str(out1)])
    rc4 = main(["verify", "convexity", "--config", str(cfg_path), "--out-dir", str(out2)])
    csv_same2 = (out1 / "convexity.csv").read_bytes() == (out2 / "convexity.csv").read_bytes()
    ok = rc1 == rc2 == rc3 == rc4 == 0 and csv_same and summary_same and csv_same2
    _report(12, "verify determinism", ok)
