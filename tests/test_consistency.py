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
from mkbary.barycenter import constraint_from_json

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
    for _, _, j_bar, meta_j in report.records:
        assert j_bar <= 1e-9
        assert meta_j <= 1e-12


def test_lln_bit_reproducible():
    pop = random_population(3, 9, [0.0, 0.0], [1.0, 1.0], 3)
    r1 = lln_experiment(pop, [2, 4], [0, 1, 2], GRID5, SQ)
    r2 = lln_experiment(pop, [2, 4], [0, 1, 2], GRID5, SQ)
    assert r1.records == r2.records  # bit-identical
    assert not r1.errors


def test_lln_solves_each_distinct_draw_once(monkeypatch):
    import mkbary.consistency as consistency
    from mkbary import BarycenterProblem, barycenter_fixed_support, transport_costs

    pop = random_population(3, 9, [0.0, 0.0], [1.0, 1.0], 3)
    n_grid, seeds = [2, 4], range(8)
    solved = []

    def counting(problem, **kwargs):
        solved.append(problem)
        return barycenter_fixed_support(problem, **kwargs)

    monkeypatch.setattr(consistency, "barycenter_fixed_support", counting)
    report = lln_experiment(pop, n_grid, seeds, GRID5, SQ)
    base = barycenter_fixed_support(BarycenterProblem.make(list(zip(pop.atoms, pop.probs)),
                                                           GRID5, SQ))
    reps = [base.measure] + ([base.alt_measure] if base.multiple_optima else [])
    draws = {}
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for n in n_grid:
            freq = np.bincount(rng.choice(3, size=n, p=pop.probs), minlength=3) / n
            draws[(n, seed)] = freq
    # the population's barycenter, then one LP per distinct frequency vector
    assert len(solved) == 1 + len({f.tobytes() for f in draws.values()}) < 1 + len(draws)
    # every record, repeated or not, is its draw solved alone and cold
    for n, seed, j_bar, meta_j in report.records:
        freq = draws[(n, seed)]
        inputs = [(m, f) for m, f in zip(pop.atoms, freq) if f > 0]
        emp = barycenter_fixed_support(BarycenterProblem.make(inputs, GRID5, SQ))
        assert abs(j_bar - min(transport_costs([(emp.measure, r) for r in reps], SQ))) <= 1e-12
        lifted = meta_distance(MetaDistribution.make(*zip(*inputs)), pop, SQ)
        assert abs(meta_j - lifted) <= 1e-12


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
    for delta, _, j_bar in report.records:
        if delta <= thr:
            assert j_bar <= eps


def test_meta_distribution_validation():
    d0 = dirac(LINE, [0.0])
    with pytest.raises(ValueError):
        MetaDistribution.make([d0], [0.5])
    with pytest.raises(ValueError):
        MetaDistribution.make([], [])
    merged = MetaDistribution.make([d0, d0], [0.5, 0.5])
    assert len(merged.atoms) == 1 and merged.probs[0] == 1.0


def test_lln_and_perturb_defaults_take_the_face_route(caplog):
    # every barycenter of the default `verify lln` and `verify perturb` is
    # its optimal face's one vertex or tie-broken on that face; a fallback
    # would log a warning
    from mkbary.verify import run_suite

    with caplog.at_level("WARNING", logger="mkbary"):
        assert run_suite("lln").passed and run_suite("perturb").passed
    assert [r.getMessage() for r in caplog.records if r.name == "mkbary"] == []


def test_kept_bases_match_runs_without_them(monkeypatch):
    # the default `verify lln` and `verify perturb` experiments, with their
    # per-run start bases and with every barycenter LP solved cold
    import mkbary.consistency as consistency
    from mkbary.costs import cost_from_json
    from mkbary.verify import DEFAULTS

    def experiments():
        lln, per = DEFAULTS["lln"], DEFAULTS["perturb"]
        return (
            lln_experiment(consistency.population_from_json(lln["population"]), lln["n_grid"],
                           lln["seeds"], constraint_from_json(lln["constraint"]),
                           cost_from_json(lln["cost"])),
            perturbation_experiment(consistency.population_from_json(per["population"]),
                                    per["deltas"], constraint_from_json(per["constraint"]),
                                    cost_from_json(per["cost"])),
        )

    kept = experiments()
    real = consistency.barycenter_fixed_support
    monkeypatch.setattr(consistency, "barycenter_fixed_support",
                        lambda problem, _systems: real(problem))
    cold = experiments()
    assert kept[0].errors == cold[0].errors == []
    assert len(kept[0].records) == 3 * 20
    for warm_report, cold_report in zip(kept, cold):
        assert len(warm_report.records) == len(cold_report.records)
        for got, want in zip(warm_report.records, cold_report.records):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def _lln_draws(pop, n_grid, seeds):
    """Each (n, seed) draw's frequencies, as ``lln_experiment`` draws them."""
    draws = {}
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for n in n_grid:
            draws[(n, seed)] = np.bincount(rng.choice(len(pop.atoms), size=n, p=pop.probs),
                                           minlength=len(pop.atoms)) / n
    return draws


def test_lln_failed_shared_batch_resolves_each_draw_alone(monkeypatch, caplog):
    import mkbary.consistency as consistency
    from mkbary import NumericalFailure

    pop = random_population(3, 9, [0.0, 0.0], [1.0, 1.0], 3)
    n_grid, seeds = [2, 4], range(8)
    unforced = lln_experiment(pop, n_grid, seeds, GRID5, SQ)
    real, calls = consistency.solve_lp_batch, []

    def forced(problems):
        calls.append(problems)
        if len(calls) <= 2:  # the shared batch, then the first draw's own LPs
            raise NumericalFailure(f"forced {len(calls)}")
        return real(problems)

    monkeypatch.setattr(consistency, "solve_lp_batch", forced)
    with caplog.at_level("WARNING", logger="mkbary"):
        report = lln_experiment(pop, n_grid, seeds, GRID5, SQ)
    draws = _lln_draws(pop, n_grid, seeds)
    distinct = {f.tobytes() for f in draws.values()}
    # one shared call of every distinct draw's LPs, then one call per draw
    assert len(calls) == 1 + len(distinct)
    assert [len(c) for c in calls[1:]] == [len(calls[0]) // len(distinct)] * len(distinct)
    assert [r.getMessage() for r in caplog.records if r.name == "mkbary"] == [
        f"lln: the shared transport batch of {len(distinct)} draws failed "
        "(NumericalFailure('forced 1')); solving each draw alone"]
    # the first draw's LPs fail alone: it and every draw of its frequencies are holes
    first = draws[(n_grid[0], seeds[0])].tobytes()
    holes = [(n, s) for (n, s), f in draws.items() if f.tobytes() == first]
    assert [(n, s) for n, s, _ in report.errors] == holes
    assert {msg for _, _, msg in report.errors} == {"NumericalFailure('forced 2')"}
    kept = [r for r in unforced.records if (r[0], r[1]) not in holes]
    assert [r[:2] for r in report.records] == [r[:2] for r in kept]
    np.testing.assert_allclose([r[2:] for r in report.records], [r[2:] for r in kept],
                               rtol=0, atol=1e-12)


def test_lln_runs_its_barycenter_lps_and_one_packed_transport_batch(monkeypatch):
    import mkbary.consistency as consistency
    from mkbary import lp, transport

    pop = random_population(3, 9, [0.0, 0.0], [1.0, 1.0], 3)
    n_grid, seeds = [2, 4, 16], range(8)
    runs = []  # the phase of each Model.run: "barycenter", "J" or "other"
    phase = ["other"]
    real_run = lp.Model.run

    def counted_run(model):
        runs.append(phase[0])
        return real_run(model)

    monkeypatch.setattr(lp.Model, "run", counted_run)
    solvers, batches = [], []

    def in_phase(name, fn, calls):
        def counted(*args, **kwargs):
            calls.append(args[0])
            phase[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = "other"
        return counted

    monkeypatch.setattr(consistency, "barycenter_fixed_support",
                        in_phase("barycenter", consistency.barycenter_fixed_support, solvers))
    monkeypatch.setattr(consistency, "solve_lp_batch",
                        in_phase("J", consistency.solve_lp_batch, batches))
    report = lln_experiment(pop, n_grid, seeds, GRID5, SQ)
    assert not report.errors and len(batches) == 1
    distinct = {f.tobytes() for f in _lln_draws(pop, n_grid, seeds).values()}
    # one LP each for the population and every distinct draw: no face LP
    assert len(solvers) == runs.count("barycenter") == 1 + len(distinct)
    # every J and lifted-distance LP of more than one row and column, packed
    sizes = [C.size for C, _, _ in batches[0] if min(C.shape) > 1]
    blocks = transport._pack(sizes, transport.MAX_BATCH_VARS)
    assert runs.count("J") == len(blocks) < len(distinct)


def test_default_lln_and_perturb_take_the_tuple_route(monkeypatch):
    # every barycenter LP of the default `verify lln` and `verify perturb`
    # has fewer tuples than joint coupling columns
    import mkbary.barycenter as barycenter
    import mkbary.consistency as consistency
    from mkbary.verify import run_suite

    calls = {"solver": 0, "tuple": 0, "joint": 0}

    def counted(name, fn):
        def run(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(consistency, "barycenter_fixed_support",
                        counted("solver", consistency.barycenter_fixed_support))
    for name in ("tuple", "joint"):
        monkeypatch.setattr(barycenter, f"_{name}_lp",
                            counted(name, getattr(barycenter, f"_{name}_lp")))
    assert run_suite("lln").passed
    assert calls == {"solver": 53, "tuple": 53, "joint": 0}
    assert run_suite("perturb").passed
    assert calls["joint"] == 0 and calls["tuple"] == calls["solver"] > 53
