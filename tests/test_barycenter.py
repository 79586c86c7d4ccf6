import numpy as np
import pytest

from mkbary import (
    BarycenterProblem,
    Constraint,
    CostSpec,
    GroundSpace,
    NotConvexCost,
    NotOneDimensional,
    barycenter_fixed_support,
    barycenter_free_support,
    barycenter_quantile_1d,
    canonicalize,
    dirac,
    generate_random_measure,
    mixture,
    objective,
    pushforward,
)

LINE = GroundSpace.euclidean(1)
PLANE = GroundSpace.euclidean(2)
SQ = CostSpec.norm_power(2)
ABS = CostSpec.norm_power(1)
QUARTIC = CostSpec.norm_power(4)  # no closed-form 1-D minimizer: the ternary search runs

D0 = dirac(LINE, [0.0])
D1 = dirac(LINE, [1.0])


def two_dirac_problem(constraint, cost=SQ):
    return BarycenterProblem.make([(D0, 0.5), (D1, 0.5)], constraint, cost)


def test_objective_examples():
    p = BarycenterProblem.make([(D0, 1.0)], Constraint.quantile_1d(), SQ)
    assert objective(D0, p) == 0.0
    p2 = two_dirac_problem(Constraint.quantile_1d())
    assert objective(dirac(LINE, [0.5]), p2) == pytest.approx(0.25, abs=1e-12)
    assert objective(D0, p2) == pytest.approx(0.5, abs=1e-12)


def test_fixed_support_three_candidates():
    res = barycenter_fixed_support(two_dirac_problem(Constraint.simplex_over([[0.0], [0.5], [1.0]])))
    assert res.measure.same_as(dirac(LINE, [0.5]))
    assert res.objective == pytest.approx(0.25, abs=1e-12)
    assert res.certificate.kind == "lp_optimal"
    assert res.certificate.gap <= 1e-9 * 1.25


def test_fixed_support_single_input_identity():
    m = canonicalize([[0.0], [2.0]], [0.25, 0.75], LINE)
    prob = BarycenterProblem.make([(m, 1.0)], Constraint.simplex_over([[0.0], [1.0], [2.0]]), SQ)
    res = barycenter_fixed_support(prob)
    assert res.objective == pytest.approx(0.0, abs=1e-10)
    assert res.measure.same_as(m, atol=1e-8)


def test_fixed_support_tie_break_and_flag():
    res = barycenter_fixed_support(two_dirac_problem(Constraint.simplex_over([[0.0], [1.0]]), ABS))
    # objective is 1/2 across the whole simplex; lexicographic pick is delta_0
    assert res.objective == pytest.approx(0.5, abs=1e-12)
    assert res.measure.same_as(D0)
    assert res.multiple_optima
    assert res.alt_measure is not None and res.alt_measure.same_as(D1)


def test_barycenter_set_is_convex():
    prob = two_dirac_problem(Constraint.simplex_over([[0.0], [1.0]]), ABS)
    res = barycenter_fixed_support(prob)
    for t in (0.25, 0.5, 0.75):
        mix = mixture(res.measure, res.alt_measure, t)
        assert objective(mix, prob) == pytest.approx(res.objective, abs=1e-9)


def test_free_support_midpoint():
    for a, b in (((0.0,), (1.0,)), ((-2.0,), (0.5,))):
        prob = BarycenterProblem.make(
            [(dirac(LINE, a), 0.5), (dirac(LINE, b), 0.5)], Constraint.free(1), SQ
        )
        res = barycenter_free_support(prob, k=1)
        assert res.measure.same_as(dirac(LINE, [(a[0] + b[0]) / 2]), atol=1e-9)
        assert res.certificate.kind == "local_stationary"


def test_free_support_quartic_midpoint():
    prob = two_dirac_problem(Constraint.free(1), QUARTIC)
    res = barycenter_free_support(prob, k=1)
    assert res.measure.same_as(dirac(LINE, [0.5]), atol=1e-9)
    assert res.objective == pytest.approx(0.5**4, abs=1e-12)


def test_free_support_fixed_point():
    m = canonicalize([[0.0], [1.0], [3.0]], [0.2, 0.3, 0.5], LINE)
    prob = BarycenterProblem.make([(m, 1.0)], Constraint.free(3), SQ)
    res = barycenter_free_support(prob, k=3)
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert res.measure.same_as(m, atol=1e-8)


def test_free_support_trace_nonincreasing():
    for seed in range(5):
        ms = [generate_random_measure(seed * 10 + i, [-1, -1], [1, 1], 4) for i in range(3)]
        prob = BarycenterProblem.make([(m, 1.0) for m in ms], Constraint.free(3), SQ)
        res = barycenter_free_support(prob, k=3, init_seed=seed)
        values = [v for _, v in res.trace]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] <= values[0] + 1e-9


def test_free_support_rejects_nonconvex():
    prob = two_dirac_problem(Constraint.free(1), CostSpec.metric_power(0.5))
    with pytest.raises(NotConvexCost):
        barycenter_free_support(prob, k=1)


def test_quantile_two_diracs():
    res = barycenter_quantile_1d(two_dirac_problem(Constraint.quantile_1d(), SQ))
    assert res.measure.same_as(dirac(LINE, [0.5]))
    assert res.objective == pytest.approx(0.25, abs=1e-12)

    res_abs = barycenter_quantile_1d(two_dirac_problem(Constraint.quantile_1d(), ABS))
    assert res_abs.measure.same_as(dirac(LINE, [0.5]))  # midpoint tie rule


def test_quantile_two_segments():
    m1 = canonicalize([[0.0], [2.0]], [0.5, 0.5], LINE)
    m2 = canonicalize([[1.0], [3.0]], [0.5, 0.5], LINE)
    prob = BarycenterProblem.make([(m1, 0.5), (m2, 0.5)], Constraint.quantile_1d(), SQ)
    res = barycenter_quantile_1d(prob)
    expected = canonicalize([[0.5], [2.5]], [0.5, 0.5], LINE)
    assert res.measure.same_as(expected)


def test_quantile_rejects_wrong_inputs():
    p2d = BarycenterProblem.make(
        [(dirac(PLANE, [0.0, 0.0]), 1.0)], Constraint.quantile_1d(), SQ
    )
    with pytest.raises(NotOneDimensional):
        barycenter_quantile_1d(p2d)
    with pytest.raises(NotConvexCost):
        barycenter_quantile_1d(two_dirac_problem(Constraint.quantile_1d(), CostSpec.metric_power(0.5)))


def _assert_quantile_matches_lp(seed, cost):
    # the LP on (quantile atoms + input atoms) must reproduce the objective
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    inputs = [
        (generate_random_measure(seed * 50 + i, [-2.0], [2.0], 5), float(rng.uniform(0.2, 1)))
        for i in range(k)
    ]
    prob = BarycenterProblem.make(inputs, Constraint.quantile_1d(), cost)
    qres = barycenter_quantile_1d(prob)
    grid = np.concatenate([qres.measure.atoms] + [m.atoms for m, _ in prob.inputs])
    grid = np.unique(np.round(grid, 12), axis=0)
    lp = barycenter_fixed_support(
        BarycenterProblem.make(list(prob.inputs), Constraint.simplex_over(grid), cost)
    )
    assert abs(qres.objective - lp.objective) <= 1e-7


def test_quantile_matches_fixed_support_lp():
    for seed in range(20):
        _assert_quantile_matches_lp(seed, SQ if seed % 2 == 0 else ABS)


def test_quantile_quartic_matches_fixed_support_lp():
    for seed in range(6):
        _assert_quantile_matches_lp(seed, QUARTIC)


def test_joint_lp_system_by_hand():
    from mkbary.barycenter import _joint_lp_system

    wide = canonicalize([[0.0], [2.0]], [0.25, 0.75], LINE)
    prob = BarycenterProblem.make([(D0, 1.0), (wide, 3.0)], Constraint.quantile_1d(), SQ)
    c, A, rhs, n_gamma, K = _joint_lp_system(prob.inputs, SQ, np.array([[0.0], [1.0]]))
    # columns: gamma of D0 (1x2), gamma of wide (2x2, row-major), w (2)
    expected = [
        [1, 1, 0, 0, 0, 0, 0, 0],   # D0 marginal
        [1, 0, 0, 0, 0, 0, -1, 0],  # D0 tie to w_0
        [0, 1, 0, 0, 0, 0, 0, -1],  # D0 tie to w_1
        [0, 0, 1, 1, 0, 0, 0, 0],   # wide marginal, atom 0
        [0, 0, 0, 0, 1, 1, 0, 0],   # wide marginal, atom 2
        [0, 0, 1, 0, 1, 0, -1, 0],  # wide tie to w_0
        [0, 0, 0, 1, 0, 1, 0, -1],  # wide tie to w_1
        [0, 0, 0, 0, 0, 0, 1, 1],   # w on the simplex
    ]
    assert (n_gamma, K) == (6, 2)
    np.testing.assert_array_equal(A.toarray(), expected)
    np.testing.assert_array_equal(c, [0.0, 0.25, 0.0, 0.75, 3.0, 0.75, 0.0, 0.0])
    np.testing.assert_array_equal(rhs, [1.0, 0.0, 0.0, 0.25, 0.75, 0.0, 0.0, 1.0])


def test_translation_equivariance_quadratic():
    shift = np.array([0.37])
    ms = [generate_random_measure(800 + i, [-1.0], [1.0], 4) for i in range(3)]
    prob = BarycenterProblem.make([(m, 1.0) for m in ms], Constraint.quantile_1d(), SQ)
    res = barycenter_quantile_1d(prob)
    shifted = [pushforward(m, lambda x: x + shift) for m in ms]
    prob_s = BarycenterProblem.make([(m, 1.0) for m in shifted], Constraint.quantile_1d(), SQ)
    res_s = barycenter_quantile_1d(prob_s)
    np.testing.assert_allclose(res_s.measure.atoms, res.measure.atoms + shift, atol=1e-9)
    assert res_s.objective == pytest.approx(res.objective, abs=1e-9)


def test_translation_equivariance_free_support():
    shift = np.array([0.5, -0.25])
    ms = [generate_random_measure(700 + i, [-1, -1], [1, 1], 3) for i in range(2)]
    prob = BarycenterProblem.make([(m, 1.0) for m in ms], Constraint.free(2), SQ)
    res = barycenter_free_support(prob, k=2, init_seed=1)
    shifted = [pushforward(m, lambda x: x + shift) for m in ms]
    prob_s = BarycenterProblem.make([(m, 1.0) for m in shifted], Constraint.free(2), SQ)
    res_s = barycenter_free_support(prob_s, k=2, init_seed=1)
    np.testing.assert_allclose(res_s.measure.atoms, res.measure.atoms + shift, atol=1e-9)
    assert res_s.objective == pytest.approx(res.objective, abs=1e-9)


def test_result_objective_recomputes():
    for seed in range(5):
        ms = [generate_random_measure(900 + seed * 7 + i, [0, 0], [1, 1], 4) for i in range(3)]
        grid = np.array([[x, y] for x in np.linspace(0, 1, 4) for y in np.linspace(0, 1, 4)])
        prob = BarycenterProblem.make([(m, 1.0) for m in ms], Constraint.simplex_over(grid), SQ)
        res = barycenter_fixed_support(prob)
        assert abs(objective(res.measure, prob) - res.objective) <= 1e-7


def test_problem_weights_normalized():
    prob = BarycenterProblem.make([(D0, 2.0), (D1, 2.0)], Constraint.quantile_1d(), SQ)
    lams = [lam for _, lam in prob.inputs]
    assert sum(lams) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        BarycenterProblem.make([], Constraint.quantile_1d(), SQ)
    with pytest.raises(ValueError):
        BarycenterProblem.make([(D0, -1.0)], Constraint.quantile_1d(), SQ)


def test_problem_files_take_every_constraint_kind():
    from mkbary.barycenter import problem_from_json
    from mkbary.measures import measure_to_json

    def load(constraint):
        return problem_from_json({"inputs": [{"measure": measure_to_json(D0), "lambda": 1.0}],
                                  "constraint": constraint,
                                  "cost": {"kind": "norm_power", "p": 2}}).constraint

    grid = load({"kind": "grid", "box": [[0.0, 0.0], [1.0, 2.0]], "shape": [2, 3]})
    assert grid.kind == "simplex_over"
    assert grid.atoms.tolist() == [[0.0, 0.0], [0.0, 1.0], [0.0, 2.0],
                                   [1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]
    assert load({"kind": "fixed_support", "atoms": [0.0, 1.0]}).atoms.tolist() == [[0.0], [1.0]]
    assert load({"kind": "free", "k": 3}).k == 3
    assert load({"kind": "quantile_1d"}).kind == "quantile_1d"
    with pytest.raises(ValueError):
        load({"kind": "lattice"})


def _tie_instances():
    """Seeded fixed-support problems built with ties: the all-ties pair of
    Diracs, and inputs next to their mirror images on symmetric grids."""
    yield two_dirac_problem(Constraint.simplex_over([[0.0], [1.0]]), ABS)
    line_grid = np.linspace(-1.0, 1.0, 5)[:, None]
    k = 4
    plane_grid = np.array([[x, y] for x in np.linspace(-1, 1, k) for y in np.linspace(-1, 1, k)])
    for seed in range(6):
        m = generate_random_measure(1000 + seed, [-1.0], [1.0], 3)
        mirror = pushforward(m, lambda x: -x)
        yield BarycenterProblem.make([(m, 1.0), (mirror, 1.0)],
                                     Constraint.simplex_over(line_grid), ABS)
        p = generate_random_measure(1100 + seed, [-1, -1], [1, 1], 3)
        flip = pushforward(p, lambda x: x * np.array([-1.0, 1.0]))
        for cost in (ABS, SQ):
            yield BarycenterProblem.make([(p, 1.0), (flip, 1.0)],
                                         Constraint.simplex_over(plane_grid), cost)


def _pinned_reference(problem, value):
    """The lo/hi graded-weight LPs solved on the full system plus the row
    c.x = value; returns their weights and the least graded weight."""
    from scipy import sparse
    from scipy.optimize import linprog

    from mkbary.barycenter import _clip_dust, _joint_lp_system

    c, A, rhs, n_gamma, K = _joint_lp_system(problem.inputs, problem.cost,
                                             problem.constraint.atoms)
    h = np.zeros_like(c)
    h[n_gamma:] = np.arange(1, K + 1)
    A_pin = sparse.vstack([A, sparse.csr_matrix(c[None, :])])
    rhs_pin = np.append(rhs, value)
    lo, hi = (linprog(sign * h, A_eq=A_pin, b_eq=rhs_pin, bounds=(0, None), method="highs")
              for sign in (1.0, -1.0))
    assert lo.status == 0 and hi.status == 0
    return _clip_dust(lo.x[n_gamma:]), _clip_dust(hi.x[n_gamma:]), lo.fun


def test_face_route_matches_pinned_route():
    from mkbary.barycenter import _fixed_support_lp

    n_multiple = 0
    for prob in _tie_instances():
        w, value, _, alt, _ = _fixed_support_lp(prob.inputs, prob.cost, prob.constraint.atoms)
        w_lo, w_hi, least = _pinned_reference(prob, value)
        np.testing.assert_allclose(w, w_lo, rtol=0, atol=1e-9)
        assert (alt is None) == (np.max(np.abs(w_lo - w_hi)) <= 1e-7)
        if alt is not None:
            n_multiple += 1
            np.testing.assert_allclose(alt, w_hi, rtol=0, atol=1e-9)
        # no vertex of the optimal face has a smaller graded weight
        assert np.arange(1, len(w) + 1) @ w <= least + 1e-9
    assert n_multiple >= 3  # the instances do exercise ties


def test_tie_break_fallbacks_are_logged(monkeypatch, caplog):
    from mkbary import barycenter

    m = generate_random_measure(1200, [-1, -1], [1, 1], 3)
    flip = pushforward(m, lambda x: x * np.array([-1.0, 1.0]))
    grid = np.array([[x, y] for x in np.linspace(-1, 1, 4) for y in np.linspace(-1, 1, 4)])
    prob = BarycenterProblem.make([(m, 1.0), (flip, 1.0)], Constraint.simplex_over(grid), ABS)
    untied = barycenter._fixed_support_lp(prob.inputs, prob.cost, grid, tie_break=False)
    real = barycenter.linprog

    def doubled(res):  # the face solutions come back with twice the optimal cost
        res.x = 2.0 * res.x

    def failed(res):
        res.status = 2

    for spoil in (doubled, failed):
        calls = []

        def spoiled_after_main(c, **kw):
            res = real(c, **kw)
            calls.append(res)
            if len(calls) > 1:
                spoil(res)
            return res

        caplog.clear()
        with caplog.at_level("WARNING", logger="mkbary"), monkeypatch.context() as mp:
            mp.setattr(barycenter, "linprog", spoiled_after_main)
            got = barycenter._fixed_support_lp(prob.inputs, prob.cost, grid)
        assert len(calls) == 2  # the main LP, then one call for both tie-break LPs
        assert got[0].tolist() == untied[0].tolist() and got[3] is None
        assert [r.getMessage() for r in caplog.records if r.name == "mkbary"] == [
            "barycenter tie-break: face LP rejected; returning the main LP vertex "
            "without tie-break"]


def _mkbary_messages(caplog, solve):
    caplog.clear()
    with caplog.at_level("WARNING", logger="mkbary"):
        result = solve()
    return result, [r.getMessage() for r in caplog.records if r.name == "mkbary"]


def test_near_duplicate_candidate_with_far_candidate_ties_cleanly(caplog):
    # a candidate 1e-8 from the optimum costs 2e-9 more, and the far one
    # makes max |c| = 1250: the face must still hold only optimal columns
    prob = BarycenterProblem.make(
        [(D0, 0.5), (dirac(LINE, [0.8]), 0.5)],
        Constraint.simplex_over([0.0, 0.25, 0.5, 0.5 + 1e-8, 0.75, 1.0, 50.0]), SQ)
    res, messages = _mkbary_messages(caplog, lambda: barycenter_fixed_support(prob))
    assert messages == []
    assert res.measure.atoms.ravel().tolist() == [0.5]
    assert res.measure.weights.tolist() == [1.0]
    assert res.objective == pytest.approx(0.17, abs=1e-12)
    assert not res.multiple_optima


def _near_duplicate_problem(seed):
    """2-3 inputs of 1-3 atoms in the unit square; candidates are a base
    grid of 3-7 points, a copy of it moved by 10^U(-10,-5) N(0,1), and (50, 50)."""
    rng = np.random.default_rng(seed)
    inputs = []
    for _ in range(rng.integers(2, 4)):
        n = rng.integers(1, 4)
        inputs.append((canonicalize(rng.random((n, 2)), rng.dirichlet(np.ones(n)), PLANE),
                       rng.random() + 0.1))
    base = rng.random((rng.integers(3, 8), 2))
    near = base + 10.0 ** rng.uniform(-10, -5, (len(base), 1)) * rng.standard_normal(base.shape)
    S = np.vstack([base, near, [[50.0, 50.0]]])
    return BarycenterProblem.make(inputs, Constraint.simplex_over(S), SQ)


def test_near_duplicate_candidates_never_fall_back(caplog):
    for seed in range(60):
        prob = _near_duplicate_problem(seed)
        res, messages = _mkbary_messages(caplog, lambda: barycenter_fixed_support(prob))
        assert messages == [], seed
        assert abs(objective(res.measure, prob) - res.objective) <= 1e-9 * (1 + res.objective)
