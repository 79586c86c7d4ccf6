import numpy as np
import pytest
from csc_helper import to_scipy

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
        res = barycenter_free_support(prob)
        assert res.measure.same_as(dirac(LINE, [(a[0] + b[0]) / 2]), atol=1e-9)
        assert res.certificate.kind == "local_stationary"


def test_free_support_quartic_midpoint():
    prob = two_dirac_problem(Constraint.free(1), QUARTIC)
    res = barycenter_free_support(prob)
    # Powell places the one atom within 1e-8 of the midpoint, not within the
    # 1e-12 of an exact atom
    assert res.measure.n_atoms == 1 and abs(res.measure.atoms[0, 0] - 0.5) <= 1e-8
    assert res.measure.weights.tolist() == [1.0]
    assert res.objective == pytest.approx(0.5**4, abs=1e-12)


def test_free_support_and_quantile_place_the_abs_atom_alike():
    # every point of [0, 1] is optimal; both routes take the middle of the
    # weighted-median interval
    free = barycenter_free_support(two_dirac_problem(Constraint.free(1), ABS))
    quantile = barycenter_quantile_1d(two_dirac_problem(Constraint.quantile_1d(), ABS))
    for res in (free, quantile):
        assert res.measure.atoms.tolist() == [[0.5]]
        assert res.objective == pytest.approx(0.5, abs=1e-12)


def _grid_argmin(cost, points, masses, grid):
    values = masses @ cost.pair_matrix(points, grid)
    return grid[np.argmin(values)], values.min()


@pytest.mark.parametrize("seed", range(4))
def test_convex_argmin_matches_a_dense_grid(seed):
    from mkbary.barycenter import _convex_argmin

    rng = np.random.default_rng(seed)
    points, masses = rng.uniform(-1, 1, size=(7, 1)), rng.dirichlet(np.ones(7))
    line = np.linspace(-1, 1, 200_001)[:, None]
    for cost in (ABS, SQ, QUARTIC):
        z = _convex_argmin(cost, points[None], masses[None])[0]
        best, low = _grid_argmin(cost, points, masses, line)
        phi = float(masses @ cost.pair_matrix(points, [z])[:, 0])
        assert z.shape == (1,)
        assert phi <= low + 1e-12
        if cost is not ABS:  # strictly convex: one minimizer
            assert abs(z[0] - best[0]) <= 1e-5
    # two dimensions, quartic: Powell from the first point
    points = rng.uniform(-1, 1, size=(5, 2))
    masses = rng.dirichlet(np.ones(5))
    axis = np.linspace(-1, 1, 401)
    plane = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    z = _convex_argmin(QUARTIC, points[None], masses[None], points[:1])[0]
    best, low = _grid_argmin(QUARTIC, points, masses, plane)
    assert z.shape == (2,)
    assert float(masses @ QUARTIC.pair_matrix(points, [z])[:, 0]) <= low + 1e-12
    assert np.max(np.abs(z - best)) <= 2 * (axis[1] - axis[0])


def _row_argmin(cost, points, masses, start=None):
    """argmin_z sum_i masses_i g(points_i - z) of one (n, d) point set: the
    one-set-per-call minimizer the stacked ``_convex_argmin`` replaced, kept
    as the reference for its rows."""
    if cost.kind == "norm_power" and cost.p == 2.0:
        return (masses[:, None] * points).sum(axis=0) / masses.sum()

    def phi(z):
        return masses @ cost.pair_matrix(points, [z])[:, 0]

    if points.shape[1] > 1:
        from scipy.optimize import minimize

        res = minimize(lambda z: float(phi(z)), x0=start, method="Powell",
                       options={"xtol": 1e-10, "ftol": 1e-12})
        return np.asarray(res.x, dtype=float)
    xs = points[:, 0]
    if cost.kind == "norm_power" and cost.p == 1.0:
        order = np.argsort(xs)
        xs_s, cum = xs[order], np.cumsum(masses[order] / masses.sum())
        idx = min(int(np.searchsorted(cum, 0.5 - 1e-15)), len(xs_s) - 1)
        lo = xs_s[idx]
        hi = xs_s[idx + 1] if (abs(cum[idx] - 0.5) <= 1e-15 and idx + 1 < len(xs_s)) else lo
        return np.array([(lo + hi) / 2.0])
    lo, hi = float(xs.min()), float(xs.max())
    while hi - lo > 1e-12:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if phi([m1]) <= phi([m2]):
            hi = m2
        else:
            lo = m1
    return np.array([(lo + hi) / 2.0])


def _random_stack(rng, dim):
    """12 rows of 4 to 11 points in [-1, 1]^dim, about a third of the
    masses 0 but each row with one positive."""
    n = int(rng.integers(4, 12))
    points = rng.uniform(-1, 1, size=(12, n, dim))
    masses = rng.dirichlet(np.ones(n), size=12) * (rng.random((12, n)) > 0.35)
    masses[np.arange(12), rng.integers(n, size=12)] += 0.1
    return points, masses


@pytest.mark.parametrize("seed", range(6))
def test_convex_argmin_rows_match_the_per_row_reference(seed):
    from mkbary.barycenter import _convex_argmin

    rng = np.random.default_rng(seed)
    points, masses = _random_stack(rng, 1)
    # half the rows put their zero-mass points at 1e100, where a cost overflows
    points[:6][masses[:6] == 0] = 1e100
    # a weighted-median tie at 0.5 whose next sorted point, 1.5, has no
    # mass: the interval runs on to 3, the next point of positive mass
    points = np.concatenate([points, np.zeros((1, points.shape[1], 1))])
    masses = np.concatenate([masses, np.zeros((1, points.shape[1]))])
    points[-1, :4, 0], masses[-1, :4] = [3.0, 0.0, 1.5, 1.0], [0.5, 0.25, 0.0, 0.25]
    for cost in (ABS, SQ, CostSpec.norm_power(1.5), QUARTIC):
        z = _convex_argmin(cost, points, masses)
        assert z.shape == (len(points), 1)
        for zt, pts, w in zip(z, points, masses):
            pts, w = pts[w > 0], w[w > 0]
            ref = _row_argmin(cost, pts, w)
            if cost in (ABS, SQ):
                # a mean over zero-mass entries adds in another order
                np.testing.assert_allclose(zt, ref, rtol=0.0,
                                           atol=0.0 if cost is ABS else 4 * np.finfo(float).eps)
            else:
                phi = w @ cost.pair_matrix(pts, [zt])[:, 0]
                assert phi <= w @ cost.pair_matrix(pts, [ref])[:, 0] + 1e-12
    assert _convex_argmin(ABS, points[-1:], masses[-1:]).tolist() == [[2.0]]
    # in the plane the Powell rows score their positive-mass points alone
    points, masses = _random_stack(rng, 2)
    start = points[:, 0]
    for cost in (ABS, QUARTIC):
        z = _convex_argmin(cost, points, masses, start)
        assert z.shape == (len(points), 2)
        for zt, pts, w, x0 in zip(z, points, masses, start):
            np.testing.assert_array_equal(zt, _row_argmin(cost, pts[w > 0], w[w > 0], x0))


def test_ternary_search_ends_where_floats_are_sparse():
    from mkbary.barycenter import _convex_argmin

    # floats near 1e6 are 1.2e-10 apart, so a bracket cannot shrink to 1e-12
    points = 1e6 + np.array([[[0.0], [1.0], [0.3], [2.0]]])
    masses = np.array([[0.15, 0.15, 0.35, 0.35]])
    z = _convex_argmin(QUARTIC, points, masses)
    _, low = _grid_argmin(QUARTIC, points[0], masses[0], 1e6 + np.linspace(0, 2, 20_001)[:, None])
    assert float(masses[0] @ QUARTIC.pair_matrix(points[0], z)[:, 0]) <= low + 1e-9


def test_one_argmin_call_per_solve_and_per_iteration(monkeypatch):
    import mkbary.barycenter as barycenter

    calls = []
    argmin = barycenter._convex_argmin
    monkeypatch.setattr(barycenter, "_convex_argmin",
                        lambda cost, points, masses, start=None:
                        calls.append((points.shape, masses.shape))
                        or argmin(cost, points, masses, start))
    inputs = [(generate_random_measure(i, [-1.0], [1.0], 5), 1.0 + i) for i in range(3)]
    for cost in (SQ, ABS, QUARTIC):
        calls.clear()
        barycenter_quantile_1d(BarycenterProblem.make(inputs, Constraint.quantile_1d(), cost))
        assert len(calls) == 1 and calls[0][0] == (*calls[0][1], 1)
    for space, cost in ((LINE, CostSpec.norm_power(1.5)), (PLANE, SQ)):
        ms = [generate_random_measure(10 + i, [-1.0] * space.dim, [1.0] * space.dim, 5)
              for i in range(3)]
        calls.clear()
        res = barycenter_free_support(BarycenterProblem.make([(m, 1.0) for m in ms],
                                                             Constraint.free(3), cost))
        # every LP but the last, which stops the run, moves the atoms once
        assert len(res.trace) < barycenter.FREE_MAX_ITER and len(calls) == len(res.trace) - 1
        assert all(p == (*w, space.dim) for p, w in calls)


def test_free_support_fixed_point():
    m = canonicalize([[0.0], [1.0], [3.0]], [0.2, 0.3, 0.5], LINE)
    prob = BarycenterProblem.make([(m, 1.0)], Constraint.free(3), SQ)
    res = barycenter_free_support(prob)
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert res.measure.same_as(m, atol=1e-8)


def test_free_support_trace_nonincreasing():
    for seed in range(5):
        ms = [generate_random_measure(seed * 10 + i, [-1, -1], [1, 1], 4) for i in range(3)]
        prob = BarycenterProblem.make([(m, 1.0) for m in ms], Constraint.free(3), SQ)
        res = barycenter_free_support(prob, init_seed=seed)
        values = [v for _, v in res.trace]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] <= values[0] + 1e-9


def test_free_support_rejects_nonconvex():
    prob = two_dirac_problem(Constraint.free(1), CostSpec.metric_power(0.5))
    with pytest.raises(NotConvexCost):
        barycenter_free_support(prob)


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
    _assert_lp_agrees(BarycenterProblem.make(inputs, Constraint.quantile_1d(), cost))


def _assert_lp_agrees(prob):
    qres = barycenter_quantile_1d(prob)
    grid = np.concatenate([qres.measure.atoms] + [m.atoms for m, _ in prob.inputs])
    grid = np.unique(np.round(grid, 12), axis=0)
    lp = barycenter_fixed_support(
        BarycenterProblem.make(list(prob.inputs), Constraint.simplex_over(grid), prob.cost)
    )
    assert abs(qres.objective - lp.objective) <= 1e-7
    return qres


def test_quantile_cells_with_shared_cumulative_sums():
    # the partial sums 0.5 and 0.75 are shared, so two cells of the
    # refinement are empty; each kept cell gives one atom of positive weight
    inputs = [(canonicalize([[0.0], [1.0], [2.0], [3.0]], [0.25] * 4, LINE), 0.5),
              (canonicalize([[-1.0], [4.0]], [0.5, 0.5], LINE), 0.3),
              (canonicalize([[0.5], [2.5]], [0.75, 0.25], LINE), 0.2)]
    for cost in (SQ, ABS, QUARTIC):
        res = _assert_lp_agrees(BarycenterProblem.make(inputs, Constraint.quantile_1d(), cost))
        assert res.measure.n_atoms == 4
        assert np.all(res.measure.weights > 0.0) and np.all(np.diff(res.measure.atoms[:, 0]) > 0)
        np.testing.assert_allclose(res.measure.weights, [0.25] * 4, rtol=0.0, atol=1e-15)


def _breakpoint_cells(inputs):
    """Each input's atom and the width of every segment of the common
    refinement, by the breakpoints of the cumulative weights: an
    independent construction of the cells ``barycenter_quantile_1d`` keeps."""
    cums = [np.cumsum(m.weights) for m, _ in inputs]
    breakpoints = np.unique(np.concatenate([[0.0, 1.0]] + cums))
    breakpoints = breakpoints[(breakpoints > 1e-15) | (breakpoints == 0.0)]
    t0, t1 = breakpoints[:-1], breakpoints[1:]
    keep = t1 - t0 > 1e-15
    t0, t1 = t0[keep], t1[keep]
    tm = (t0 + t1) / 2.0
    xs = np.stack([m.atoms[np.minimum(np.searchsorted(cum, tm, side="left"), m.n_atoms - 1), 0]
                   for (m, _), cum in zip(inputs, cums)], axis=1)
    return xs, t1 - t0


def test_quantile_cells_match_the_breakpoint_construction(monkeypatch):
    import mkbary.barycenter as barycenter

    calls = []
    argmin, canon = barycenter._convex_argmin, barycenter.canonicalize
    monkeypatch.setattr(barycenter, "_convex_argmin",
                        lambda cost, points, masses: calls.append(points[:, :, 0].copy())
                        or argmin(cost, points, masses))
    monkeypatch.setattr(barycenter, "canonicalize",
                        lambda atoms, weights, space: calls.append(weights.copy())
                        or canon(atoms, weights, space))
    rng = np.random.default_rng(11)
    for k in range(50):
        inputs = []
        for _ in range(rng.integers(1, 6)):
            n = int(rng.integers(1, 9))
            # every other problem on multiples of 1/8, so partial sums are shared
            w = (rng.dirichlet(np.ones(n)) if k % 2
                 else rng.multinomial(8 - n, np.ones(n) / n) + 1.0)
            inputs.append((canonicalize(rng.uniform(-1, 1, size=(n, 1)), w / w.sum(), LINE),
                           float(rng.uniform(0.2, 1.0))))
        calls.clear()
        barycenter_quantile_1d(BarycenterProblem.make(inputs, Constraint.quantile_1d(), SQ))
        xs, widths = _breakpoint_cells(inputs)
        tuples, kept = calls  # one argmin call places every cell's atom
        np.testing.assert_array_equal(np.array(tuples), xs)
        np.testing.assert_allclose(kept, widths, rtol=0.0, atol=1e-15)


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
    c, system = _joint_lp_system(prob.inputs, SQ, np.array([[0.0], [1.0]]))
    A, rhs, n_gamma, K = system.A, system.rhs, system.n_gamma, system.K
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
    np.testing.assert_array_equal(to_scipy(A).toarray(), expected)
    np.testing.assert_array_equal(c, [0.0, 0.25, 0.0, 0.75, 3.0, 0.75, 0.0, 0.0])
    np.testing.assert_array_equal(rhs, [1.0, 0.0, 0.0, 0.25, 0.75, 0.0, 0.0, 1.0])


def test_joint_lp_system_matches_the_coo_construction():
    from scipy import sparse

    from mkbary.barycenter import _joint_lp_system

    grid = np.array([[x, y] for x in np.linspace(-1, 1, 4) for y in np.linspace(-1, 1, 3)])
    for seed, n_inputs in [(0, 1), (1, 2), (2, 4)]:
        inputs = [(generate_random_measure(30 * seed + i, [-1, -1], [1, 1], 2 + i), 1.0 + i)
                  for i in range(n_inputs)]
        system = _joint_lp_system(inputs, SQ, grid)[1]
        A, n_gamma, K = system.A, system.n_gamma, system.K
        # the triplets (row, column, value) of the system, as csc_matrix took them
        w_cols = n_gamma + np.arange(K)
        rows, cols = [], []
        r = off = 0
        for m, _ in inputs:
            sz = m.n_atoms
            gamma = off + np.arange(sz * K)
            rows += [r + np.repeat(np.arange(sz), K), r + sz + np.tile(np.arange(K), sz),
                     r + sz + np.arange(K)]
            cols += [gamma, gamma, w_cols]
            r, off = r + sz + K, off + sz * K
        rows, cols = np.concatenate(rows + [np.full(K, r)]), np.concatenate(cols + [w_cols])
        vals = np.where((cols >= n_gamma) & (rows < r), -1.0, 1.0)
        ref = sparse.csc_matrix((vals, (rows, cols)), shape=(r + 1, n_gamma + K))
        assert A.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            assert getattr(A, name).dtype == getattr(ref, name).dtype
            assert getattr(A, name).tobytes() == getattr(ref, name).tobytes()


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
    res = barycenter_free_support(prob, init_seed=1)
    shifted = [pushforward(m, lambda x: x + shift) for m in ms]
    prob_s = BarycenterProblem.make([(m, 1.0) for m in shifted], Constraint.free(2), SQ)
    res_s = barycenter_free_support(prob_s, init_seed=1)
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


def test_problem_weights_must_be_finite_and_sum_finitely():
    for lams, message in [((np.nan, 1.0, 1.0), r"inputs\[0\] lambda must be finite, not nan"),
                          ((1.0, -np.inf, 1.0), r"inputs\[1\] lambda must be finite, not -inf"),
                          ((1e308, 1.0, 1e308), r"input weights overflow when summed, at "
                                                r"inputs\[2\] lambda 1e\+308")]:
        with pytest.raises(ValueError, match=message):
            BarycenterProblem.make(list(zip((D0, D1, dirac(LINE, [2.0])), lams)),
                                   Constraint.quantile_1d(), SQ)
    # finite weights near the largest float normalize as they always did
    lams = np.array([1e308, 3e307])
    prob = BarycenterProblem.make(list(zip((D0, D1), lams)), Constraint.quantile_1d(), SQ)
    assert [lam for _, lam in prob.inputs] == (lams / lams.sum()).tolist()


def test_make_keeps_its_inputs_as_given():
    # families are merged where they enter (problem files, populations), so
    # make keeps a repeated measure, and an equal copy of one, as inputs of their own
    copy = dirac(LINE, [0.0])
    family = [(D1, 3.0), (D0, 1.0), (copy, 2.0), (D1, 0.5)]
    prob = BarycenterProblem.make(family, Constraint.quantile_1d(), SQ)
    assert len(prob.inputs) == len(family)
    assert all(m is given for (m, _), (given, _) in zip(prob.inputs, family))
    lams = np.array([lam for _, lam in family])
    assert [lam for _, lam in prob.inputs] == (lams / lams.sum()).tolist()
    with pytest.raises(ValueError, match="share a ground space"):
        BarycenterProblem.make([(D0, 1.0), (dirac(PLANE, [0.0, 0.0]), 1.0)],
                               Constraint.quantile_1d(), SQ)


def test_problem_files_merge_a_repeated_measure():
    from mkbary.barycenter import problem_from_json
    from mkbary.measures import measure_to_json

    a, b = (generate_random_measure(s, [0, 0], [1, 1], 4) for s in (31, 32))
    lams = np.array([0.1, 0.7, 0.3])
    prob = problem_from_json({
        "inputs": [{"measure": measure_to_json(m), "lambda": lam}
                   for m, lam in zip((a, b, a), lams.tolist())],
        "constraint": {"kind": "free", "k": 2}, "cost": {"kind": "norm_power", "p": 2}})
    norm = lams / lams.sum()
    assert [m.same_as(want) for (m, _), want in zip(prob.inputs, (a, b))] == [True, True]
    # the repeat's normalized lambda adds to the first's, bit for bit
    assert [lam for _, lam in prob.inputs] == [norm[0] + norm[2], norm[1]]


@pytest.mark.parametrize("seed", range(12))
def test_a_repeated_measure_reaches_the_merged_optimum(seed):
    # make keeps a repeat as two inputs: both fixed-support routes and the
    # quantile route must reach the optimum of the merged problem
    from dataclasses import replace

    from mkbary.barycenter import _joint_lp, _tuple_lp
    from mkbary.measures import merge_equal_measures
    from mkbary.transport import GAP_TOL

    prob, S = _route_instances(seed)
    m, lam = prob.inputs[seed % len(prob.inputs)]
    repeated = BarycenterProblem.make([*prob.inputs, (canonicalize(m.atoms, m.weights, m.space),
                                                      2.0 * lam)], prob.constraint, prob.cost)
    merged = replace(repeated, inputs=tuple(merge_equal_measures(list(repeated.inputs))))
    assert len(merged.inputs) == len(repeated.inputs) - 1
    for route in (_tuple_lp, _joint_lp):
        value = route(repeated.inputs, prob.cost, S)[1]
        want = route(merged.inputs, prob.cost, S)[1]
        assert abs(value - want) <= GAP_TOL * (1.0 + abs(want)), route.__name__

    rng = np.random.default_rng(3000 + seed)
    line = [canonicalize(rng.uniform(-1, 1, (n, 1)), rng.dirichlet(np.ones(n)), LINE)
            for n in rng.integers(1, 6, 3)]
    family = [(mu, rng.random() + 0.1) for mu in line] + [(line[0], 0.4)]
    cost = (ABS, SQ, QUARTIC)[seed % 3]
    repeated = BarycenterProblem.make(family, Constraint.quantile_1d(), cost)
    merged = replace(repeated, inputs=tuple(merge_equal_measures(list(repeated.inputs))))
    want = barycenter_quantile_1d(merged).objective
    assert (abs(barycenter_quantile_1d(repeated).objective - want)
            <= GAP_TOL * (1.0 + abs(want)))


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
    assert load({"kind": "simplex_over", "atoms": [0.0, 1.0]}).atoms.tolist() == [[0.0], [1.0]]
    assert load({"kind": "free", "k": 3}).k == 3
    assert load({"kind": "quantile_1d"}).kind == "quantile_1d"
    for kind in ("lattice", "fixed_support"):
        with pytest.raises(ValueError, match="unknown constraint kind"):
            load({"kind": kind, "atoms": [0.0, 1.0]})


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

    c, system = _joint_lp_system(problem.inputs, problem.cost, problem.constraint.atoms)
    A, rhs, n_gamma, K = system.A, system.rhs, system.n_gamma, system.K
    h = np.zeros_like(c)
    h[n_gamma:] = np.arange(1, K + 1)
    A_pin = sparse.vstack([to_scipy(A), sparse.csr_matrix(c[None, :])])
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
    from mkbary import barycenter, lp

    m = generate_random_measure(1200, [-1, -1], [1, 1], 3)
    flip = pushforward(m, lambda x: x * np.array([-1.0, 1.0]))
    grid = np.array([[x, y] for x in np.linspace(-1, 1, 4) for y in np.linspace(-1, 1, 4)])
    prob = BarycenterProblem.make([(m, 1.0), (flip, 1.0)], Constraint.simplex_over(grid), ABS)
    untied = barycenter._joint_lp(prob.inputs, prob.cost, grid, tie_break=False)
    rows, cols = barycenter._joint_lp_system(prob.inputs, prob.cost, grid)[1].A.shape
    real = lp.Model._run_once
    rejected = ("barycenter tie-break: face LP rejected; returning the main LP vertex "
                "without tie-break")

    def doubled(res):  # the face solutions come back with twice the optimal cost
        return res._replace(x=2.0 * res.x)

    def failed(res):
        return res._replace(status=2, message="forced")

    # a doubled face run is optimal, so it is rejected as it is; a failed one
    # is re-run cold by the kernel, and rejected when that run fails too
    for spoil, runs, messages in [
        (doubled, 2, [rejected]),
        (failed, 3, [f"LP of {rows} rows and {cols} columns: warm run not optimal (forced); "
                     "re-running it cold", rejected]),
    ]:
        calls = []

        def spoiled_after_main(model):
            res = real(model)
            calls.append(res)
            return spoil(res) if len(calls) > 1 else res

        caplog.clear()
        with caplog.at_level("WARNING", logger="mkbary"), monkeypatch.context() as mp:
            mp.setattr(lp.Model, "_run_once", spoiled_after_main)
            got = barycenter._joint_lp(prob.inputs, prob.cost, grid)
        assert len(calls) == runs  # the main LP, the rejected face run and any re-run
        assert got[0].tolist() == untied[0].tolist() and got[3] is None
        assert [r.getMessage() for r in caplog.records if r.name == "mkbary"] == messages


def _one_shot_tie_break(inputs, cost, S):
    """The tie-break as separate cold solves: the main LP, then the lo and hi
    graded-weight LPs on the face columns alone, each by ``lp.solve``."""
    from mkbary import lp
    from mkbary.barycenter import _clip_dust, _joint_lp_system
    from mkbary.transport import GAP_TOL

    c, system = _joint_lp_system(inputs, cost, S)
    A, rhs, n_gamma, K = system.A, system.rhs, system.n_gamma, system.K
    main = lp.solve(c, A, rhs)
    assert main.status == 0
    tol = GAP_TOL * (1.0 + abs(main.fun))
    face = np.flatnonzero(c - A.rmatvec(main.duals) <= tol / (len(inputs) + 1))
    A_face = to_scipy(A)[:, face].tocsc()
    A_face = lp.CSC(A_face.data, A_face.indices, A_face.indptr, A_face.shape)
    h = np.zeros_like(c)
    h[n_gamma:] = np.arange(1, K + 1)
    weights = []
    for sign in (1.0, -1.0):
        r = lp.solve(sign * h[face], A_face, rhs)
        assert r.status == 0 and abs(c[face] @ r.x - main.fun) <= tol
        x = np.zeros_like(c)
        x[face] = r.x
        weights.append(_clip_dust(np.clip(x[n_gamma:], 0.0, None)))
    return main.fun, weights[0], weights[1]


def _draws(population, S, count, seed):
    """Subsets of ``population`` with random input weights, as ``lln`` draws them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        counts = np.bincount(rng.integers(len(population), size=5), minlength=len(population))
        yield BarycenterProblem.make([(m, k) for m, k in zip(population, counts) if k],
                                     Constraint.simplex_over(S), SQ)


def test_kept_model_tie_break_matches_one_shot_route():
    from mkbary.barycenter import _fixed_support_lp
    from mkbary.transport import GAP_TOL

    population = [generate_random_measure(1300 + i, [0, 0], [1, 1], 5) for i in range(3)]
    grid = np.array([[x, y] for x in np.linspace(0, 1, 7) for y in np.linspace(0, 1, 7)])
    systems = {}
    problems = list(_tie_instances()) + list(_draws(population, grid, 24, 3))
    for prob in problems:
        S = prob.constraint.atoms
        w, value, gap, alt, _ = _fixed_support_lp(prob.inputs, prob.cost, S, systems=systems)
        want, w_lo, w_hi = _one_shot_tie_break(prob.inputs, prob.cost, S)
        assert abs(value - want) <= GAP_TOL * (1.0 + abs(want)) and gap <= GAP_TOL
        np.testing.assert_allclose(w, w_lo, rtol=0, atol=1e-12)
        assert (alt is None) == (np.max(np.abs(w_lo - w_hi)) <= 1e-7)
        if alt is not None:
            np.testing.assert_allclose(alt, w_hi, rtol=0, atol=1e-12)
    # the draws share constraint systems, so most of them ran warm
    assert len(systems) < len(problems) - 12


def test_kept_systems_are_assembled_once_with_the_same_costs():
    from mkbary.barycenter import _joint_lp_system

    population = [generate_random_measure(1300 + i, [0, 0], [1, 1], 5) for i in range(3)]
    grid = np.array([[x, y] for x in np.linspace(0, 1, 7) for y in np.linspace(0, 1, 7)])
    systems = {}
    problems = list(_draws(population, grid, 12, 5))
    for prob in problems:
        c, system = _joint_lp_system(prob.inputs, SQ, grid, systems)
        c_fresh, fresh = _joint_lp_system(prob.inputs, SQ, grid)
        assert c.tobytes() == c_fresh.tobytes() and system.rhs.tobytes() == fresh.rhs.tobytes()
        assert system.A.shape == fresh.A.shape and all(
            np.array_equal(got, want) for got, want in zip(system.A[:3], fresh.A[:3]))
        assert system is _joint_lp_system(prob.inputs, SQ, grid, systems)[1]
    assert len(systems) < len(problems)


def _on_candidates(S, measure):
    """``measure``'s weights on the candidate rows of ``S`` it sits on, 0 elsewhere."""
    dense = np.zeros(len(S))
    if measure is not None:
        dense[[int(np.flatnonzero((S == a).all(axis=1))[0]) for a in measure.atoms]] = measure.weights
    return dense


def test_warm_tuple_route_matches_runs_without_systems(monkeypatch):
    # lln-style draws share tuple systems; one systems dict for all of them
    # must give what each draw gives alone and cold, with each system's rows
    # assembled once and every later LP of it started from a basis.  The tie
    # instances, each solved twice, put a tie-break behind a warm start
    from mkbary import barycenter, lp
    from mkbary.transport import GAP_TOL

    population = [generate_random_measure(1300 + i, [0, 0], [1, 1], 5) for i in range(3)]
    grid = np.array([[x, y] for x in np.linspace(0, 1, 7) for y in np.linspace(0, 1, 7)])
    problems = list(_draws(population, grid, 24, 3)) + [p for p in _tie_instances()
                                                        for _ in range(2)]
    built, starts = [], []
    real_system, real_init = barycenter._System, lp.Model.__init__

    def counted_system(*args, **kwargs):
        built.append(real_system(*args, **kwargs))
        return built[-1]

    def recorded_init(model, c, A, rhs, start=None):
        starts.append((A, start))
        real_init(model, c, A, rhs, start)

    systems = {}
    calls = _counted_routes(monkeypatch)
    with monkeypatch.context() as mp:
        mp.setattr(barycenter, "_System", counted_system)
        mp.setattr(lp.Model, "__init__", recorded_init)
        warm = [barycenter_fixed_support(p, _systems=systems) for p in problems]
    cold = [barycenter_fixed_support(p) for p in problems]
    assert calls["joint"] == [] and len(calls["tuple"]) == 2 * len(problems)
    kept = [system for key, system in systems.items() if key[0] == "tuple"]
    assert len(kept) == len(built) < len(problems) // 2
    assert all(any(system is b for b in built) for system in kept)
    # per system, the first main LP ran cold and every later one from a basis
    runs = [[start is not None for A, start in starts if A is system.A] for system in kept]
    assert sum(map(len, runs)) == len(problems)
    assert all(not r[0] and all(r[1:]) for r in runs)
    for prob, got, want in zip(problems, warm, cold):
        S = prob.constraint.atoms
        assert abs(got.objective - want.objective) <= GAP_TOL * (1.0 + abs(want.objective))
        assert got.multiple_optima == want.multiple_optima
        for a, b in ((got.measure, want.measure), (got.alt_measure, want.alt_measure)):
            np.testing.assert_allclose(_on_candidates(S, a), _on_candidates(S, b),
                                       rtol=0, atol=1e-12)
    assert sum(r.multiple_optima for r in warm) >= 3


def _counted_face_runs(monkeypatch):
    """Count the calls of ``_face_tie_break``; returns the list it appends to."""
    from mkbary import barycenter

    calls = []
    real = barycenter._face_tie_break

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(barycenter, "_face_tie_break", counting)
    return calls


def _solve_both_routes(monkeypatch, problems, tuples=False):
    """Each problem by ``_joint_lp`` (or ``_tuple_lp``) as it is, and with the
    face route forced by a basis that names no column; one systems dict per route."""
    from mkbary import lp
    from mkbary.barycenter import _joint_lp, _tuple_lp

    routes = []
    for forced in (False, True):
        systems = {}
        with monkeypatch.context() as mp:
            if forced:
                mp.setattr(lp.Model, "basic_columns", lambda self: np.empty(0, dtype=np.int32))
            routes.append([_tuple_lp(p.inputs, p.cost, p.constraint.atoms) if tuples else
                           _joint_lp(p.inputs, p.cost, p.constraint.atoms, systems=systems)
                           for p in problems])
    return routes


def test_one_vertex_certificate_matches_the_face_route(monkeypatch):
    population = [generate_random_measure(1300 + i, [0, 0], [1, 1], 5) for i in range(3)]
    grid = np.array([[x, y] for x in np.linspace(0, 1, 7) for y in np.linspace(0, 1, 7)])
    problems = list(_draws(population, grid, 24, 3))
    faces = _counted_face_runs(monkeypatch)
    certified, face_route = _solve_both_routes(monkeypatch, problems)
    # every draw's face is its main vertex: no face LP ran until it was forced
    assert len(faces) == len(problems)
    for got, want in zip(certified, face_route):
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
        assert got[1] == want[1] and got[2] == want[2]
        assert got[3] is None and want[3] is None


def test_one_vertex_certificate_never_hides_a_tie(monkeypatch):
    problems = list(_tie_instances())
    faces = _counted_face_runs(monkeypatch)
    certified, face_route = _solve_both_routes(monkeypatch, problems)
    runs = len(faces) - len(problems)  # the face runs of the certified route
    tied = [want[3] is not None for want in face_route]
    assert sum(tied) >= 3
    # a face with two optimal vertices holds a nonbasic column, so its face
    # LPs still run, and both routes give the same two vertices
    assert runs >= sum(tied)
    for got, want, tie in zip(certified, face_route, tied):
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
        assert (got[3] is not None) == tie
        if tie:
            np.testing.assert_allclose(got[3], want[3], rtol=0, atol=1e-12)
    assert all(barycenter_fixed_support(p).multiple_optima == tie
               for p, tie in zip(problems, tied))


def _statuses(basis):
    return list(basis.col_status), list(basis.row_status)


def _assert_failed_warm_run_is_rerun_cold_once(monkeypatch, caplog, route, seed):
    """A warm main run of ``route`` ("joint" or "tuple") stopped at an
    iteration limit: one warning, a cold re-run of the same model, the cold
    answer, and the cold run's basis kept for the system.  The population
    drawn from ``seed`` has other optimal bases for the two weightings."""
    from mkbary import barycenter, lp

    population = [generate_random_measure(seed + i, [0, 0], [1, 1], 4) for i in range(2)]
    grid = np.array([[x, y] for x in np.linspace(0, 1, 5) for y in np.linspace(0, 1, 5)])
    first, second = (BarycenterProblem.make(list(zip(population, lams)),
                                            Constraint.simplex_over(grid), SQ)
                     for lams in ([0.3, 0.7], [0.6, 0.4]))
    solve = getattr(barycenter, f"_{route}_lp")

    def costs_and_system(inputs):
        if route == "joint":
            return barycenter._joint_lp_system(inputs, SQ, grid)
        _, c, _, system = barycenter._tuple_lp_system(inputs, SQ, grid)
        return c, system

    systems = {}
    solve(first.inputs, SQ, grid, systems=systems)
    assert len(systems) == 1
    [system] = systems.values()
    stale = system.basis
    want = solve(second.inputs, SQ, grid)
    c, fresh = costs_and_system(second.inputs)
    A = fresh.A
    cold = lp.Model(c, A, fresh.rhs)
    assert cold.run().status == 0
    real_run = lp.Model._run_once
    models = []

    def fails_first(model):  # the warm main run stops at an iteration limit
        res = real_run(model)
        models.append(model)
        return res._replace(status=1, message="Iteration limit reached") if len(models) == 1 else res

    caplog.clear()
    with caplog.at_level("WARNING", logger="mkbary"), monkeypatch.context() as mp:
        mp.setattr(lp.Model, "_run_once", fails_first)
        got = solve(second.inputs, SQ, grid, systems=systems)
    assert [r.getMessage() for r in caplog.records if r.name == "mkbary"] == [
        f"LP of {A.shape[0]} rows and {A.shape[1]} columns: warm run not optimal "
        "(Iteration limit reached); re-running it cold"]
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    assert got[1] == want[1] and got[2] == want[2]
    assert (got[3] is None) == (want[3] is None)
    # the cold re-run's basis replaced the stale one; its face is one vertex,
    # so the failed warm run and its cold re-run of the same model are all
    assert _statuses(system.basis) == _statuses(cold.basis()) != _statuses(stale)
    assert len(models) == 2 and all(model is models[0] for model in models)


def test_failed_warm_run_is_rerun_cold_once(monkeypatch, caplog):
    _assert_failed_warm_run_is_rerun_cold_once(monkeypatch, caplog, "joint", 1400)


def test_failed_warm_tuple_run_is_rerun_cold_once(monkeypatch, caplog):
    _assert_failed_warm_run_is_rerun_cold_once(monkeypatch, caplog, "tuple", 1411)


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


def test_candidates_within_the_merge_tolerance_make_no_tie():
    # 0 and 1e-13 merge on canonicalizing: LP vertices that split weight
    # between them are one measure, not two optima
    for seed in range(2):
        ms = [generate_random_measure(seed * 2 + i, [-1.0], [1.0], 4) for i in range(2)]
        prob = BarycenterProblem.make([(m, 1.0) for m in ms],
                                      Constraint.simplex_over([[0.0], [1e-13], [1.0]]), SQ)
        res = barycenter_fixed_support(prob)
        assert not res.multiple_optima and res.alt_measure is None


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


def test_every_certificate_kind_means_what_it_says(monkeypatch):
    import mkbary.barycenter as barycenter

    m1 = canonicalize([[0.0], [1.0], [3.0]], [0.2, 0.5, 0.3], LINE)
    m2 = canonicalize([[0.5], [2.0]], [0.6, 0.4], LINE)
    inputs = [(m1, 0.3), (m2, 0.7)]
    for cost in (SQ, ABS, QUARTIC):
        # quantile_1d: |LP objective - the monotone coupling's closed form|
        q = barycenter_quantile_1d(BarycenterProblem.make(inputs, Constraint.quantile_1d(), cost))
        assert q.certificate.kind == "quantile_1d"
        assert 0.0 <= q.certificate.gap <= 1e-12 * (1.0 + q.objective)
        # lp_optimal: the duality gap of the LP over the quantile and input atoms
        S = np.unique(np.concatenate([q.measure.atoms, m1.atoms, m2.atoms]), axis=0)
        fixed = BarycenterProblem.make(inputs, Constraint.simplex_over(S), cost)
        f = barycenter_fixed_support(fixed)
        assert f.certificate.kind == "lp_optimal"
        assert 0.0 <= f.certificate.gap <= 1e-9 * (1.0 + f.objective)
        assert f.objective == pytest.approx(q.objective, abs=1e-9)
        # local_stationary: no gap, only the last decrease of a nonincreasing trace
        r = barycenter_free_support(BarycenterProblem.make(inputs, Constraint.free(2), cost))
        assert r.certificate.kind == "local_stationary" and r.certificate.gap is None
        values = [v for _, v in r.trace]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        if len(values) > 1:
            assert r.certificate.last_decrease == values[-2] - values[-1]
    # the quantile gap is a real cross-check: an LP objective off by 0.5 shows
    real = barycenter.objective
    monkeypatch.setattr(barycenter, "objective", lambda nu, problem: real(nu, problem) + 0.5)
    q = barycenter_quantile_1d(BarycenterProblem.make(inputs, Constraint.quantile_1d(), SQ))
    assert q.certificate.gap == pytest.approx(0.5, abs=1e-12)


def _route_instances(seed, half_grid=False):
    """A random fixed-support problem and its candidates: 1 to 4 inputs of 1
    to 5 atoms, on a 1-D or 2-D euclidean grid under |.| or |.|^2 or on a
    finite space of points of the plane under rho = l1 distance.  With
    ``half_grid`` the euclidean atoms are rounded to multiples of 1/2."""
    rng = np.random.default_rng(2000 + seed)
    n_inputs = int(rng.integers(1, 5))
    if seed % 3 == 2:
        pts = np.unique(rng.integers(0, 4, (8, 2)) + rng.random((8, 2)) * (seed % 2), axis=0)
        space = GroundSpace.finite(np.abs(pts[:, None] - pts[None]).sum(axis=-1))
        cost = CostSpec.metric_power(1)
        S = np.sort(rng.choice(len(pts), int(rng.integers(1, len(pts) + 1)), replace=False))
        inputs = []
        for _ in range(n_inputs):
            n = int(rng.integers(1, min(5, len(pts)) + 1))
            inputs.append((canonicalize(rng.choice(len(pts), n, replace=False),
                                        rng.dirichlet(np.ones(n)), space), rng.random() + 0.1))
        return BarycenterProblem.make(inputs, Constraint.simplex_over(S[:, None]), cost), S
    d = 1 + seed % 3
    cost = (ABS, SQ)[int(rng.integers(2))]
    axis = np.linspace(-1.0, 1.0, int(rng.integers(2, 8 if d == 1 else 4)))
    S = np.stack([g.ravel() for g in np.meshgrid(*[axis] * d, indexing="ij")], axis=-1)
    inputs = []
    for _ in range(n_inputs):
        n = int(rng.integers(1, 6))
        atoms = rng.uniform(-1.0, 1.0, (n, d))
        if half_grid:
            atoms = np.round(2.0 * atoms) / 2.0
        inputs.append((canonicalize(atoms, rng.dirichlet(np.ones(n)), GroundSpace.euclidean(d)),
                       rng.random() + 0.1))
    return BarycenterProblem.make(inputs, Constraint.simplex_over(S), cost), S


def _both_lp_routes(prob, S, tie_break=True):
    from mkbary.barycenter import _joint_lp, _tuple_lp

    return (_tuple_lp(prob.inputs, prob.cost, S, tie_break),
            _joint_lp(prob.inputs, prob.cost, S, tie_break))


def test_tuple_route_matches_the_joint_route():
    from mkbary.transport import GAP_TOL

    problems = [_route_instances(seed) for seed in range(300)]
    problems += [(p, p.constraint.atoms) for p in _tie_instances()]
    n_tied = 0
    for prob, S in problems:
        got, want = _both_lp_routes(prob, S)
        assert abs(got[1] - want[1]) <= GAP_TOL * (1.0 + abs(want[1]))
        assert 0.0 <= got[2] <= GAP_TOL * (1.0 + abs(got[1]))
        # each gap bounds the LP value: value - gap, a feasible dual's objective,
        # lies below the other route's value up to rounding
        for a, b in ((got, want), (want, got)):
            assert a[1] - a[2] <= b[1] + 1e-14 * (1.0 + abs(b[1]))
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
        assert (got[3] is None) == (want[3] is None)
        if got[3] is not None:
            n_tied += 1
            np.testing.assert_allclose(got[3], want[3], rtol=0, atol=1e-12)
        # the coupling blocks have the inputs and the weights as marginals
        for (m, _), g in zip(prob.inputs, got[4]):
            np.testing.assert_allclose(g.sum(axis=1), m.weights, rtol=0, atol=1e-9)
            np.testing.assert_allclose(g.sum(axis=0), got[0], rtol=0, atol=1e-9)
        untied = _both_lp_routes(prob, S, tie_break=False)
        assert abs(untied[0][1] - want[1]) <= GAP_TOL * (1.0 + abs(want[1]))
        assert untied[0][3] is None
    assert n_tied >= 10  # the instances do exercise ties


def test_routes_agree_on_the_graded_weight_where_it_leaves_a_tie():
    # atoms on the half grid make optimal faces along which the graded
    # weight sum_k (k + 1) w_k is constant, so the two routes may stop at
    # different optimal vertices; the value, the least and largest graded
    # weight and the multiple-optima flag still agree
    from mkbary.transport import GAP_TOL

    for seed in range(150):
        prob, S = _route_instances(seed, half_grid=True)
        got, want = _both_lp_routes(prob, S)
        h = np.arange(1, len(S) + 1)
        assert abs(got[1] - want[1]) <= GAP_TOL * (1.0 + abs(want[1]))
        assert abs(h @ got[0] - h @ want[0]) <= 1e-12 * len(S)
        assert (got[3] is None) == (want[3] is None)
        if got[3] is not None:
            assert abs(h @ got[3] - h @ want[3]) <= 1e-12 * len(S)


def _counted_routes(monkeypatch):
    """Count the calls of each LP route; returns the dict of their lists."""
    from mkbary import barycenter

    calls = {"tuple": [], "joint": []}
    for name, real in (("tuple", barycenter._tuple_lp), ("joint", barycenter._joint_lp)):
        def counting(inputs, *args, _real=real, _calls=calls[name]):
            _calls.append([m.n_atoms for m, _ in inputs])
            return _real(inputs, *args)
        monkeypatch.setattr(barycenter, f"_{name}_lp", counting)
    return calls


def test_the_smaller_lp_solves():
    # prod n_i = K sum n_i takes the tuple LP, one tuple more the joint LP
    line = np.linspace(0.0, 1.0, 12)
    S = np.array([[0.25], [0.75]])

    def solve(sizes):
        inputs = [(canonicalize(line[:n, None] + 0.01 * i, np.full(n, 1.0 / n), LINE), 1.0)
                  for i, n in enumerate(sizes)]
        return barycenter_fixed_support(
            BarycenterProblem.make(inputs, Constraint.simplex_over(S), SQ))

    with pytest.MonkeyPatch.context() as mp:
        calls = _counted_routes(mp)
        tuple_side, joint_side = solve((4, 4)), solve((3, 7))
    assert calls == {"tuple": [[4, 4]], "joint": [[3, 7]]}
    assert 4 * 4 == len(S) * (4 + 4) and 3 * 7 == len(S) * (3 + 7) + 1
    for res in (tuple_side, joint_side):
        assert res.certificate.kind == "lp_optimal" and res.certificate.gap <= 1e-9


def test_grid_jobs_take_the_tuple_route(monkeypatch):
    # four inputs of six atoms on 9 x 9 and 17 x 17 grids, the shape of the
    # benchmark's fixed-grid jobs: 1296 tuples against K * 24 couplings
    rng = np.random.default_rng(7)
    inputs = [(canonicalize(rng.uniform(size=(6, 2)), rng.dirichlet(np.ones(6)), PLANE), lam)
              for lam in rng.dirichlet(np.full(4, 4.0))]
    calls = _counted_routes(monkeypatch)
    for k in (9, 17):
        axis = np.linspace(0.0, 1.0, k)
        grid = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], axis=-1)
        res = barycenter_fixed_support(BarycenterProblem.make(inputs, Constraint.simplex_over(grid),
                                                              SQ))
        assert abs(objective(res.measure, BarycenterProblem.make(
            inputs, Constraint.simplex_over(grid), SQ)) - res.objective) <= 1e-9
    assert calls == {"tuple": [[6] * 4] * 2, "joint": []}
    # a fifth input makes 7776 tuples against 81 * 30 couplings: the joint LP
    five = inputs + [(canonicalize(rng.uniform(size=(6, 2)), np.full(6, 1 / 6), PLANE), 0.2)]
    barycenter_fixed_support(BarycenterProblem.make(five, Constraint.simplex_over(grid[::4]), SQ))
    assert calls["joint"] == [[6] * 5]


def test_tuple_one_vertex_shortcut_matches_the_face_route(monkeypatch):
    population = [generate_random_measure(1300 + i, [0, 0], [1, 1], 5) for i in range(3)]
    grid = np.array([[x, y] for x in np.linspace(0, 1, 7) for y in np.linspace(0, 1, 7)])
    problems = list(_draws(population, grid, 24, 3))
    faces = _counted_face_runs(monkeypatch)
    certified, face_route = _solve_both_routes(monkeypatch, problems, tuples=True)
    # every draw's face is its main vertex: no face LP ran until it was forced
    assert len(faces) == len(problems)
    for got, want in zip(certified, face_route):
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
        assert got[1] == want[1] and got[2] == want[2]
        assert got[3] is None and want[3] is None


def test_tuple_one_vertex_shortcut_never_hides_a_tie(monkeypatch):
    problems = list(_tie_instances())
    faces = _counted_face_runs(monkeypatch)
    certified, face_route = _solve_both_routes(monkeypatch, problems, tuples=True)
    runs = len(faces) - len(problems)
    tied = [want[3] is not None for want in face_route]
    assert sum(tied) >= 3 and runs >= sum(tied)
    for got, want, tie in zip(certified, face_route, tied):
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
        assert (got[3] is not None) == tie
        if tie:
            np.testing.assert_allclose(got[3], want[3], rtol=0, atol=1e-12)


def test_tuple_tie_break_fallbacks_are_logged(monkeypatch, caplog):
    from mkbary import barycenter, lp

    prob = next(p for p in _tie_instances() if p.cost is ABS and p.space.dim == 2)
    S = prob.constraint.atoms
    untied = barycenter._tuple_lp(prob.inputs, prob.cost, S, tie_break=False)
    real = lp.Model._run_once
    rejected = ("barycenter tie-break: face LP rejected; returning the main LP vertex "
                "without tie-break")
    # the face LPs run on a new model of the face pairs, whose first run is
    # cold: a failed one is not re-run, and either spoiled run is rejected
    for spoil in (lambda res: res._replace(x=2.0 * res.x),
                  lambda res: res._replace(status=2, message="forced")):
        calls = []

        def spoiled_after_main(model):
            res = real(model)
            calls.append(res)
            return spoil(res) if len(calls) > 1 else res

        caplog.clear()
        with caplog.at_level("WARNING", logger="mkbary"), monkeypatch.context() as mp:
            mp.setattr(lp.Model, "_run_once", spoiled_after_main)
            got = barycenter._tuple_lp(prob.inputs, prob.cost, S)
        assert len(calls) == 2  # the main LP and the rejected face run
        assert got[0].tolist() == untied[0].tolist() and got[3] is None
        assert [r.getMessage() for r in caplog.records if r.name == "mkbary"] == [rejected]


def _shifted_main_run(monkeypatch, rows, shift):
    """Patch ``lp.Model._run_once`` so that the first run's row duals ``rows``
    come back raised by ``shift``; returns the list of runs it appends to."""
    from mkbary import lp

    real_run, runs = lp.Model._run_once, []

    def run(model):
        res = real_run(model)
        runs.append(res)
        if len(runs) > 1:
            return res
        duals = res.duals.copy()
        duals[rows] += shift
        return res._replace(duals=duals)

    monkeypatch.setattr(lp.Model, "_run_once", run)
    return runs


def _assert_gap_is_measured_after_the_c_transform(monkeypatch, route):
    """Both routes (``route`` "tuple" or "joint") take their gap from the
    c-transform of their marginal row duals, so only a change that moves
    the c-transformed dual objective opens it."""
    from mkbary import NumericalFailure, barycenter
    from mkbary.transport import GAP_TOL

    ms = [generate_random_measure(1500 + i, [-1.0], [1.0], 5) for i in range(3)]
    ms = [m for m in ms if m.n_atoms > 1][:2]
    S = np.linspace(-1.0, 1.0, 9)[:, None]
    prob = BarycenterProblem.make([(m, 1.0) for m in ms], Constraint.simplex_over(S), SQ)
    n0 = prob.inputs[0][0].n_atoms
    solve = getattr(barycenter, f"_{route}_lp")
    # the joint face is cut from the raw reduced costs, which a shift of one
    # input's marginal duals alone moves, so that route's shifts run untied
    tie_break = route == "tuple"
    want = solve(prob.inputs, SQ, S, tie_break)

    # a shift of every marginal dual of the first input moves sum_i mu_i.u_i
    # and y0 by opposite amounts: the duals stay optimal and the gap closed
    for delta in (1e-6, -0.25, 3.0):
        with monkeypatch.context() as mp:
            _shifted_main_run(mp, slice(0, n0), delta)
            got = solve(prob.inputs, SQ, S, tie_break)
        assert got[1] == want[1] and got[2] <= GAP_TOL * (1.0 + abs(got[1]))
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    # raising one dual by 10 lowers y0 by about 10 and raises mu.u by less
    one = np.zeros(n0)
    one[0] = 10.0
    with monkeypatch.context() as mp:
        runs = _shifted_main_run(mp, slice(0, n0), one)
        with pytest.raises(NumericalFailure, match="barycenter LP gap .* not closed"):
            solve(prob.inputs, SQ, S)
    assert len(runs) == 1  # raised before any face run


def test_tuple_gap_is_measured_after_the_c_transform(monkeypatch):
    _assert_gap_is_measured_after_the_c_transform(monkeypatch, "tuple")


def test_joint_gap_is_measured_after_the_c_transform(monkeypatch):
    from mkbary.barycenter import _joint_lp

    _assert_gap_is_measured_after_the_c_transform(monkeypatch, "joint")
    # the first input's tie rows have rhs 0 and no part in the c-transform:
    # raising their duals by 1e-6, which leaves each of its basic couplings
    # a raw reduced cost of -1e-6, changes neither the answer nor its gap
    prob = two_dirac_problem(Constraint.simplex_over([[0.0], [0.5], [1.0]]))
    S = prob.constraint.atoms
    n0, K = prob.inputs[0][0].n_atoms, len(S)
    want = _joint_lp(prob.inputs, SQ, S)
    with monkeypatch.context() as mp:
        runs = _shifted_main_run(mp, slice(n0, n0 + K), 1e-6)
        got = _joint_lp(prob.inputs, SQ, S)
    assert got[0].tolist() == want[0].tolist() and got[1:4] == want[1:4]
    assert [g.tolist() for g in got[4]] == [g.tolist() for g in want[4]]
    assert len(runs) == 1  # the face is still the main vertex alone


def test_tuple_costs_stay_within_their_slabs(monkeypatch):
    # 4 inputs of 6 atoms on a 33 x 33 grid: 1296 tuples x 1089 candidates,
    # 11.3 MB as one table.  The slab buffers take TRIANGLE_SLAB_BYTES
    # together, and everything else (the cost tables, the tuple costs, the
    # LP's arrays) under 1 MiB
    import tracemalloc

    from mkbary import barycenter

    rng = np.random.default_rng(11)
    inputs = [(canonicalize(rng.uniform(size=(6, 2)), rng.dirichlet(np.ones(6)), PLANE), lam)
              for lam in rng.dirichlet(np.ones(4))]
    axis = np.linspace(0.0, 1.0, 33)
    grid = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], axis=-1)
    prob = BarycenterProblem.make(inputs, Constraint.simplex_over(grid), SQ)
    assert 8 * 6**4 * len(grid) > 11e6
    values = []
    for budget in (barycenter.TRIANGLE_SLAB_BYTES, 2**18):
        monkeypatch.setattr(barycenter, "TRIANGLE_SLAB_BYTES", budget)
        tracemalloc.start()
        try:
            values.append(barycenter._tuple_lp(prob.inputs, SQ, grid)[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget + 2**20, (budget, peak)
    assert values[0] == values[1]


def test_tuple_plan_with_more_positive_tuples_than_a_vertex_raises(monkeypatch):
    # the product plan of the inputs is feasible, with every tuple positive
    from mkbary import NumericalFailure, lp
    from mkbary.barycenter import _tuple_lp

    ms = [canonicalize([[0.0], [0.5], [1.0]], [0.2, 0.3, 0.5], LINE),
          canonicalize([[0.25], [2.0]], [0.6, 0.4], LINE)]
    S = np.linspace(0.0, 2.0, 5)[:, None]
    prob = BarycenterProblem.make([(m, 1.0) for m in ms], Constraint.simplex_over(S), SQ)
    product = np.outer(*[m.weights for m, _ in prob.inputs]).ravel()
    real_run = lp.Model._run_once
    monkeypatch.setattr(lp.Model, "_run_once", lambda model: real_run(model)._replace(x=product))
    with pytest.raises(NumericalFailure, match="plan has 6 positive tuples, more than the 4 of a "
                                               "vertex"):
        _tuple_lp(prob.inputs, SQ, S)
