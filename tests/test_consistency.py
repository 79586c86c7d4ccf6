import numpy as np
import pytest

from mkbary import (
    CostSpec,
    GroundSpace,
    MetaDistribution,
    dirac,
    generate_random_measure,
    lln_experiment,
    meta_distance,
    perturbation_experiment,
    random_population,
    tail_cost,
    transport_cost,
)
from mkbary.consistency import constraint_from_json

LINE = GroundSpace.euclidean(1)
SQ = CostSpec.norm_power(2)

GRID5 = constraint_from_json({"kind": "grid", "shape": [5, 5], "box": [[0.0, 0.0], [1.0, 1.0]]})


def test_meta_distance_dirac_reduction():
    for seed in range(10):
        mu = generate_random_measure(seed, [-1.0], [1.0], 4)
        nu = generate_random_measure(seed + 100, [-1.0], [1.0], 4)
        lifted = meta_distance(MetaDistribution.dirac(mu), MetaDistribution.dirac(nu), SQ)
        assert lifted == pytest.approx(transport_cost(mu, nu, SQ), abs=1e-9)


def test_meta_distance_identity_and_forced_plan():
    d0, d1 = dirac(LINE, [0.0]), dirac(LINE, [1.0])
    P = MetaDistribution.make([d0, d1], [0.5, 0.5])
    assert meta_distance(P, P, SQ) == pytest.approx(0.0, abs=1e-12)
    Q = MetaDistribution.dirac(d0)
    assert meta_distance(P, Q, SQ) == pytest.approx(0.5, abs=1e-12)


def test_meta_distance_weak_triangle():
    # the lifted distance inherits J(mu,nu) <= A + B (J(mu,lam) + J(nu,lam))
    for seed in range(6):
        pops = [
            MetaDistribution.make(
                [generate_random_measure(seed * 30 + 10 * k + i, [-1.0], [1.0], 3) for i in range(2)],
                [0.5, 0.5],
            )
            for k in range(3)
        ]
        P, Q, L = pops
        lhs = meta_distance(P, Q, SQ)
        assert lhs <= 0.0 + 2.0 * (meta_distance(P, L, SQ) + meta_distance(Q, L, SQ)) + 1e-9


def test_generator_deterministic_and_bounded():
    a = generate_random_measure(42, [0.0, 0.0], [1.0, 1.0], 5)
    b = generate_random_measure(42, [0.0, 0.0], [1.0, 1.0], 5)
    assert a.same_as(b) and np.array_equal(a.atoms, b.atoms)
    single = generate_random_measure(7, [0.0], [1.0], 1)
    assert single.n_atoms == 1
    box_diam_cost = tail_cost(a, [0.0, 0.0], 2.0, SQ)
    assert box_diam_cost == 0.0
    assert a.atoms.min() >= 0.0 and a.atoms.max() <= 1.0


def test_lln_single_atom_population():
    pop = MetaDistribution.dirac(generate_random_measure(3, [0.0, 0.0], [1.0, 1.0], 3))
    report = lln_experiment(pop, [2, 4], [0, 1], GRID5, SQ)
    for _, _, j_bar, meta_j, _ in report.records:
        assert j_bar <= 1e-9
        assert meta_j <= 1e-12


def test_lln_stratified_reproduces_population():
    pop = random_population(2, 5, [0.0, 0.0], [1.0, 1.0], 3)
    report = lln_experiment(pop, [4], [0], GRID5, SQ, stratified=True)
    (_, _, j_bar, meta_j, _) = report.records[0]
    assert meta_j <= 1e-12  # stratified draw IS the population
    assert j_bar <= 1e-9    # same problem, same tie-break


def test_lln_bit_reproducible():
    pop = random_population(3, 9, [0.0, 0.0], [1.0, 1.0], 3)
    r1 = lln_experiment(pop, [2, 4], [0, 1, 2], GRID5, SQ)
    r2 = lln_experiment(pop, [2, 4], [0, 1, 2], GRID5, SQ)
    a = [(n, s, j, m) for n, s, j, m, _ in r1.records]
    b = [(n, s, j, m) for n, s, j, m, _ in r2.records]
    assert a == b  # bit-identical, runtimes excluded
    assert not r1.incomplete


def test_perturbation_zero_delta_and_monotone_meta():
    pop = MetaDistribution.dirac(generate_random_measure(8, [0.0, 0.0], [1.0, 1.0], 4))
    report = perturbation_experiment(pop, [0.0, 0.01, 0.05, 0.1], GRID5, SQ)
    meta = report.summary["meta_j_track"]
    j_track = report.summary["j_track"]
    assert meta[0] <= 1e-12 and j_track[0] <= 1e-9
    assert all(b >= a - 1e-12 for a, b in zip(meta, meta[1:]))
    # upper-semicontinuity surrogate: deltas below the recorded threshold
    # keep the perturbed barycenter usc_eps-close to the base one
    thr = report.summary["usc_threshold"]
    eps = report.summary["usc_eps"]
    for delta, _, j_bar, _ in report.records:
        if delta <= thr:
            assert j_bar <= eps


def test_report_writers(tmp_path):
    from mkbary.consistency import lln_report_csv, perturb_report_csv, summary_json

    pop = random_population(2, 4, [0.0, 0.0], [1.0, 1.0], 3)
    rep = lln_experiment(pop, [2], [0], GRID5, SQ)
    lln_report_csv(rep, tmp_path / "lln.csv")
    summary_json(rep, tmp_path / "lln.json")
    header = (tmp_path / "lln.csv").read_text().splitlines()[0]
    assert header == "n,seed,j_to_population_barycenter,meta_j"
    assert "decay_ratio" in (tmp_path / "lln.json").read_text()

    prep = perturbation_experiment(MetaDistribution.dirac(pop.atoms[0]), [0.0, 0.1], GRID5, SQ)
    perturb_report_csv(prep, tmp_path / "perturb.csv")
    assert (tmp_path / "perturb.csv").read_text().startswith("delta,meta_j,j_to_base_barycenter")


def test_meta_distribution_validation():
    d0 = dirac(LINE, [0.0])
    with pytest.raises(ValueError):
        MetaDistribution.make([d0], [0.5])
    with pytest.raises(ValueError):
        MetaDistribution.make([], [])
    merged = MetaDistribution.make([d0, d0], [0.5, 0.5])
    assert len(merged.atoms) == 1 and merged.probs[0] == 1.0


def test_lln_and_perturb_defaults_take_the_face_route(caplog):
    # every tie-break of the default `verify lln` and `verify perturb` runs
    # on the optimal face; a fallback would log a warning
    from mkbary.verify import run_suite

    with caplog.at_level("WARNING", logger="mkbary"):
        assert run_suite("lln").passed and run_suite("perturb").passed
    assert [r.getMessage() for r in caplog.records if r.name == "mkbary"] == []
