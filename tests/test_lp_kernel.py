"""The LP kernel against scipy's linprog, and the batched transport LPs against
per-problem solves and the oracle."""

import logging
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from csc_helper import to_scipy
from scipy import sparse
from scipy.optimize import linprog

import mkbary.transport as transport
from mkbary import (
    CostSpec,
    GroundSpace,
    NonFinite,
    NumericalFailure,
    brute_force_transport,
    canonicalize,
    dirac,
    generate_random_measure,
    lp,
    solve_lp_batch,
    solve_transport_batch,
)
from mkbary.transport import (
    GAP_TOL,
    MAX_BATCH_VARS,
    _dense_marginal_rows,
    _marginal_columns,
    _pack,
    solve_lp_matrix,
)

PLANE = GroundSpace.euclidean(2)
COSTS = (CostSpec.norm_power(1), CostSpec.norm_power(2), CostSpec.metric_power(0.5))


def _system(shapes):
    """The block-diagonal marginal rows of ``shapes`` on all their columns."""
    return _marginal_columns(shapes, np.arange(sum(m * n for m, n in shapes)))


def _random_pairs(count, seed):
    pairs = []
    for k in range(count):
        mu = generate_random_measure(seed + 2 * k, [-1, -1], [1, 1], 4)
        nu = generate_random_measure(seed + 2 * k + 1, [-1, -1], [1, 1], 4)
        pairs.append((mu, nu))
    return pairs


def _large_pair(size, seed):
    rng = np.random.default_rng(seed)
    return tuple(
        canonicalize(rng.uniform(size=(size, 2)), rng.dirichlet(np.ones(size)), PLANE)
        for _ in range(2)
    )


@pytest.fixture
def lp_calls(monkeypatch):
    """The column count of every HiGHS run, cold, warm or re-run, in order."""
    calls = []
    real = lp.Model._run_once

    def counting(self):
        calls.append(self._n)
        return real(self)

    monkeypatch.setattr(lp.Model, "_run_once", counting)
    return calls


def _assert_matches_linprog(c, A, rhs):
    """The kernel's solve is linprog's, bit for bit; returns the kernel's."""
    got = lp.solve(c, A, rhs)
    ref = linprog(c, A_eq=to_scipy(A), b_eq=rhs, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": lp.FEASIBILITY_TOL,
                           "dual_feasibility_tolerance": lp.FEASIBILITY_TOL})
    assert got.status == ref.status
    if ref.status == 0:
        assert got.x.tobytes() == ref.x.tobytes()
        assert got.duals.tobytes() == ref.eqlin.marginals.tobytes()
        assert got.fun == ref.fun
        assert got.nit == ref.nit
    else:
        assert got.x is None and got.duals is None and got.fun is None
    return got


def test_kernel_matches_linprog_on_random_transport_batches():
    rng = np.random.default_rng(21)
    for _ in range(30):
        shapes = [tuple(int(v) for v in rng.integers(2, 9, size=2))
                  for _ in range(rng.integers(1, 6))]
        c = np.concatenate([rng.uniform(size=m * n) ** rng.choice([1, 3]) for m, n in shapes])
        rhs = np.concatenate([np.concatenate([rng.dirichlet(np.ones(m)),
                                              rng.dirichlet(np.ones(n))[:-1]])
                              for m, n in shapes])
        assert _assert_matches_linprog(c, _system(shapes), rhs).status == 0


def _assert_face_runs_match_linprog(c, A, rhs, off_face):
    """The kept model's face runs against linprog with the off-face columns fixed to 0.

    The model runs with cost c, then with the off-face columns fixed to 0 and
    cost h, then -h, each from the last basis, as the barycenter tie-break
    does.  A warm run may stop at another optimal vertex than linprog, so
    each run is matched by status and objective within the gap tolerance.
    """
    h = np.arange(len(c), dtype=float)
    model = lp.Model(c, A, rhs)
    assert model.run().status == 0
    model.fix_to_zero(off_face)
    bounds = np.column_stack([np.zeros(len(c)), np.full(len(c), np.inf)])
    bounds[off_face, 1] = 0.0
    for cost in (h, -h):
        model.set_costs(cost)
        got = model.run()
        ref = linprog(cost, A_eq=to_scipy(A), b_eq=rhs, bounds=bounds, method="highs",
                      options={"primal_feasibility_tolerance": lp.FEASIBILITY_TOL,
                               "dual_feasibility_tolerance": lp.FEASIBILITY_TOL})
        assert got.status == ref.status == 0
        assert abs(got.fun - ref.fun) <= GAP_TOL * (1.0 + abs(ref.fun))
        assert np.max(np.abs(got.x[off_face]), initial=0.0) <= lp.FEASIBILITY_TOL
        np.testing.assert_allclose(to_scipy(A) @ got.x, rhs, rtol=0, atol=1e-9)


def test_kernel_matches_linprog_on_joint_barycenter_lps():
    from mkbary.barycenter import _joint_lp_system

    grid = np.array([[x, y] for x in np.linspace(-1, 1, 5) for y in np.linspace(-1, 1, 5)])
    rng = np.random.default_rng(5)
    for seed in range(4):
        inputs = [(generate_random_measure(50 * seed + i, [-1, -1], [1, 1], 3 + i), lam)
                  for i, lam in enumerate([0.2, 0.3, 0.5])]
        c, system = _joint_lp_system(inputs, COSTS[seed % 3], grid)
        A, rhs = system.A, system.rhs
        res = _assert_matches_linprog(c, A, rhs)
        assert res.status == 0
        # the face tie-break's shape: the same system with columns fixed to 0,
        # here every column that the main vertex leaves at 0, with some odds
        off = np.flatnonzero((res.x == 0.0) & (rng.uniform(size=len(c)) < 0.5))
        _assert_face_runs_match_linprog(c, A, rhs, off)


def test_kept_model_matches_cold_solve_on_joint_barycenter_lps():
    from mkbary.barycenter import _joint_lp_system

    rng = np.random.default_rng(11)
    grid = np.array([[x, y] for x in np.linspace(0, 1, 6) for y in np.linspace(0, 1, 6)])
    for trial in range(6):
        measures = [generate_random_measure(100 * trial + i, [0, 0], [1, 1], 5)
                    for i in range(int(rng.integers(1, 4)))]
        cost = COSTS[trial % 3]
        c, system = _joint_lp_system(
            list(zip(measures, rng.dirichlet(np.ones(len(measures))))), cost, grid)
        A, rhs = system.A, system.rhs
        model = lp.Model(c, A, rhs)
        assert model.run().status == 0
        # the same constraint system with new input weights: only the costs change
        for _ in range(3):
            c2, system2 = _joint_lp_system(
                list(zip(measures, rng.dirichlet(np.ones(len(measures))))), cost, grid)
            A2, rhs2 = system2.A, system2.rhs
            assert A2.indptr.tobytes() == A.indptr.tobytes() and rhs2.tolist() == rhs.tolist()
            # a new model from the kept one's basis, and the kept one itself
            started = lp.Model(c2, A, rhs, model.basis()).run()
            model.set_costs(c2)
            cold = lp.solve(c2, A, rhs)
            assert cold.status == 0
            tol = GAP_TOL * (1.0 + abs(cold.fun))
            for warm in (started, model.run()):
                assert warm.status == 0
                assert abs(warm.fun - cold.fun) <= tol
                assert warm.fun - rhs @ warm.duals <= tol


def _strategy(model):
    return model._highs.getOptionValue("simplex_strategy")[1]


def _cost_changed_barycenter_lp(seed):
    """A joint barycenter LP solved cold, and the costs of new input weights
    on the same constraint system."""
    from mkbary.barycenter import _joint_lp_system

    rng = np.random.default_rng(seed)
    grid = np.array([[x, y] for x in np.linspace(0, 1, 6) for y in np.linspace(0, 1, 6)])
    measures = [generate_random_measure(10 * seed + i, [0, 0], [1, 1], 5) for i in range(3)]
    c, system = _joint_lp_system(list(zip(measures, rng.dirichlet(np.ones(3)))),
                                 COSTS[seed % 3], grid)
    A, rhs = system.A, system.rhs
    model = lp.Model(c, A, rhs)
    assert model.run().status == 0
    c2 = _joint_lp_system(list(zip(measures, rng.dirichlet(np.ones(3)))), COSTS[seed % 3],
                          grid)[0]
    return model, c2, A, rhs


def test_start_basis_model_runs_primal_simplex():
    dual = int(lp._OPTIONS.simplex_strategy)
    for seed in range(4):
        model, c2, A, rhs = _cost_changed_barycenter_lp(seed)
        assert _strategy(model) == dual
        started = lp.Model(c2, A, rhs, model.basis())
        # only the costs changed, so the saved basis is primal feasible
        assert _strategy(started) == lp._PRIMAL
        got, cold = started.run(), lp.solve(c2, A, rhs)
        assert got.status == cold.status == 0
        assert abs(got.fun - cold.fun) <= GAP_TOL * (1.0 + abs(cold.fun))


def test_cold_rerun_of_a_start_basis_model_runs_dual_simplex(monkeypatch, caplog):
    model, c2, A, rhs = _cost_changed_barycenter_lp(5)
    started = lp.Model(c2, A, rhs, model.basis())
    real = lp.Model._run_once
    strategies = []

    def fails_first(self):
        strategies.append(_strategy(self))
        res = real(self)
        return lp.Solution(4, "forced", None, None, None, res.nit) if len(strategies) == 1 else res

    with caplog.at_level(logging.WARNING, logger="mkbary"), monkeypatch.context() as mp:
        mp.setattr(lp.Model, "_run_once", fails_first)
        got = started.run()
    assert strategies == [lp._PRIMAL, int(lp._OPTIONS.simplex_strategy)]
    _assert_same_solution(got, lp.solve(c2, A, rhs))
    assert len(_mkbary_messages(caplog)) == 1


def test_basic_columns_are_the_basic_column_statuses():
    rng = np.random.default_rng(31)
    transport = lp.Model(rng.uniform(size=63), _system([(7, 9)]),
                         np.concatenate([rng.dirichlet(np.ones(7)), rng.dirichlet(np.ones(9))[:-1]]))
    # HiGHS holds no basis before the first run, and reports that as an error
    assert transport.basic_columns().tolist() == []
    assert transport.run().status == 0
    barycenter, c2, _, _ = _cost_changed_barycenter_lp(2)
    basic = lp._highs.HighsBasisStatus.kBasic
    # each model after its cold run, then after a warm run on new costs
    for model, costs in ((transport, rng.uniform(size=63)), (barycenter, c2)):
        for warm in (False, True):
            if warm:
                model.set_costs(costs)
                assert model.run().status == 0
            got = model.basic_columns()
            want = [j for j, status in enumerate(model.basis().col_status) if status == basic]
            assert got.dtype == np.int32 and sorted(got.tolist()) == want


def _north_west_corner(a, b):
    """The support of the north-west-corner plan, as flat columns."""
    a, b, i, j, support = a.copy(), b.copy(), 0, 0, [0]
    while (i, j) != (len(a) - 1, len(b) - 1):
        step = min(a[i], b[j])
        a[i] -= step
        b[j] -= step
        if (a[i] <= b[j] or j == len(b) - 1) and i < len(a) - 1:
            i += 1
        else:
            j += 1
        support.append(i * len(b) + j)
    return np.array(support)


def _hstack(*blocks):
    """The ``lp.CSC`` matrix of ``blocks`` side by side."""
    M = sparse.hstack([to_scipy(B) for B in blocks], format="csc")
    return lp.CSC(M.data, M.indices, M.indptr, M.shape)


def test_added_columns_match_cold_solve_of_the_grown_lp():
    rng = np.random.default_rng(17)
    for trial in range(8):
        m, n = int(rng.integers(2, 30)), int(rng.integers(2, 30))
        # uniform weights on odd trials: a degenerate LP with many optimal vertices
        a, b = ((np.full(m, 1 / m), np.full(n, 1 / n)) if trial % 2
                else (rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))))
        C = rng.uniform(size=(m, n)) ** (1 + trial % 3)
        rhs = np.concatenate([a, b[:-1]])
        # a first block holding the north-west-corner plan, so it is feasible,
        # then the other columns in two blocks of random order
        first = np.union1d(_north_west_corner(a, b),
                           np.flatnonzero(rng.uniform(size=m * n) < 0.2))
        rest = rng.permutation(np.setdiff1d(np.arange(m * n), first))
        blocks = [first] + [np.sort(cols) for cols in np.array_split(rest, 2)]
        model = lp.Model(C.ravel()[first], _marginal_columns([(m, n)], first), rhs)
        for k, cols in enumerate(blocks[1:], start=2):
            model.add_columns(C.ravel()[cols], _marginal_columns([(m, n)], cols))
            warm = model.run()
            kept = np.concatenate(blocks[:k])
            grown = _hstack(*[_marginal_columns([(m, n)], cols) for cols in blocks[:k]])
            cold = lp.solve(C.ravel()[kept], grown, rhs)
            assert warm.status == cold.status == 0
            assert abs(warm.fun - cold.fun) <= GAP_TOL * (1.0 + abs(cold.fun))
            # the row duals price every kept column, so the warm vertex is optimal
            assert np.all(C.ravel()[kept] - grown.rmatvec(warm.duals) >= -lp.FEASIBILITY_TOL)
            np.testing.assert_allclose(to_scipy(grown) @ warm.x, rhs, atol=1e-9)
            assert warm.x.min() >= -lp.FEASIBILITY_TOL


def test_add_columns_rejects_bad_blocks():
    A = _system([(2, 2)])
    rhs = np.full(3, 0.5)
    model = lp.Model(np.arange(4.0), A, rhs)
    before = model.run()
    block = _marginal_columns([(2, 2)], np.array([0, 3]))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="LP costs must be finite"):
            model.add_columns(np.array([bad, 0.0]), block)
    with pytest.raises(ValueError, match="for a model of 3 rows"):
        model.add_columns(np.zeros(2), _marginal_columns([(2, 3)], np.array([0, 3])))
    with pytest.raises(ValueError, match="for a model of 3 rows"):
        model.add_columns(np.zeros(3), block)
    # no rejected block reached the kept model
    after = model.run()
    assert after.x.size == 4 and after.fun == before.fun


def test_kernel_status_matches_linprog_on_infeasible_and_unbounded_lps():
    twice = sparse.csc_array(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert _assert_matches_linprog(np.ones(2), twice, np.array([1.0, 2.0])).status == 2
    ray = sparse.csc_array(np.array([[1.0, -1.0]]))
    assert _assert_matches_linprog(np.array([-1.0, 0.0]), ray, np.zeros(1)).status == 3


def test_kernel_rejects_costs_that_are_not_finite():
    A = _system([(2, 2)])
    model = lp.Model(np.zeros(4), A, np.full(3, 0.5))
    for bad in (np.inf, -np.inf, np.nan):
        c = np.array([0.0, bad, 1.0, 0.0])
        with pytest.raises(ValueError, match="LP costs must be finite"):
            lp.solve(c, A, np.full(3, 0.5))
        with pytest.raises(ValueError, match="LP costs must be finite"):
            model.set_costs(c)
    # the rejected costs never reached the kept model
    assert model.run().fun == 0.0


def _grid_joint_system(k, seed):
    """The joint barycenter LP of four 6-atom inputs on a k x k grid, and its duals."""
    from mkbary.barycenter import _joint_lp_system

    rng = np.random.default_rng(seed)
    side = np.linspace(0.0, 1.0, k)
    grid = np.array([[x, y] for x in side for y in side])
    inputs = [(canonicalize(rng.uniform(size=(6, 2)), rng.dirichlet(np.ones(6)), PLANE), lam)
              for lam in rng.dirichlet(np.full(4, 4.0))]
    c, system = _joint_lp_system(inputs, CostSpec.norm_power(2), grid)
    A, rhs = system.A, system.rhs
    res = lp.solve(c, A, rhs)
    assert res.status == 0
    return c, A, rhs, res.duals


def test_csc_rmatvec_and_face_runs_match_scipy_on_the_face_cut():
    for k, seed in [(9, 1), (17, 2)]:
        c, A, rhs, y = _grid_joint_system(k, seed)
        ref = sparse.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape)
        reduced = A.rmatvec(y)
        assert reduced.tobytes() == (ref.T @ y).tobytes()
        # the face cut of the tie-break, and a scrambled third of the columns
        off_face = np.flatnonzero(c - reduced > 1e-9)
        assert 0 < len(off_face) < len(c)
        scrambled = np.random.default_rng(k).permutation(off_face)[: len(off_face) // 3]
        for off in (off_face, scrambled):
            _assert_face_runs_match_linprog(c, A, rhs, off)


def test_marginal_system_is_sparse_with_two_nonzeros_per_column():
    for m, n in [(2, 2), (2, 3), (4, 3), (4, 4), (7, 5)]:
        A = to_scipy(_system([(m, n)]))
        assert sparse.issparse(A)
        assert A.shape == (m + n - 1, m * n)
        assert A.nnz == m * n + m * (n - 1)
        np.testing.assert_array_equal(A.toarray(), _dense_marginal_rows(m, n))
    A = to_scipy(_system([(512, 512)]))
    assert sparse.issparse(A) and A.nnz == 512 * 512 + 512 * 511


def test_marginal_columns_match_dense_block_diagonal_rows():
    rng = np.random.default_rng(8)
    for _ in range(40):
        shapes = [tuple(int(v) for v in rng.integers(1, 7, size=2))
                  for _ in range(rng.integers(2, 6))]
        dense = sparse.block_diag([_dense_marginal_rows(m, n) for m, n in shapes]).toarray()
        total = dense.shape[1]
        for cols in (np.arange(total),
                     np.flatnonzero(rng.uniform(size=total) < rng.uniform(0.1, 0.9))):
            A = _marginal_columns(shapes, cols)
            assert A.shape == (dense.shape[0], len(cols))
            np.testing.assert_array_equal(to_scipy(A).toarray(), dense[:, cols])


def _dense_n_marginal_rows(sizes):
    """The rows of one block, by a loop over its cells: all sums of marginal 1,
    then the first n_i - 1 sums of each later marginal."""
    ends = sizes[0] + np.concatenate([[0], np.cumsum(np.subtract(sizes[1:], 1))]).astype(int)
    dense = np.zeros((ends[-1], int(np.prod(sizes))))
    for col, atoms in enumerate(np.ndindex(*sizes)):
        dense[atoms[0], col] = 1.0
        for i in range(1, len(sizes)):
            if atoms[i] < sizes[i] - 1:
                dense[ends[i - 1] + atoms[i], col] = 1.0
    return dense


def test_three_marginal_block_matches_a_dense_matrix():
    # (2, 3, 4): 2 + 2 + 3 rows; cell (a, b, c) is column 12 a + 4 b + c
    dense = np.zeros((7, 24))
    for a in range(2):
        for b in range(3):
            for c in range(4):
                col = 12 * a + 4 * b + c
                dense[a, col] = 1.0
                if b < 2:
                    dense[2 + b, col] = 1.0
                if c < 3:
                    dense[4 + c, col] = 1.0
    np.testing.assert_array_equal(to_scipy(_marginal_columns([(2, 3, 4)], np.arange(24))).toarray(),
                                  dense)
    np.testing.assert_array_equal(_dense_n_marginal_rows((2, 3, 4)), dense)
    rng = np.random.default_rng(9)
    for n_marginals in (1, 3, 4):
        for _ in range(15):
            shapes = [tuple(int(v) for v in rng.integers(1, 5, size=n_marginals))
                      for _ in range(rng.integers(1, 4))]
            dense = sparse.block_diag([_dense_n_marginal_rows(s) for s in shapes]).toarray()
            # columns in any order, some repeated, as the face pairs of a tuple LP
            cols = rng.integers(0, dense.shape[1], size=2 * dense.shape[1])
            A = _marginal_columns(shapes, cols)
            assert A.shape == (dense.shape[0], len(cols))
            for j in range(len(cols)):  # rows ascending in every column
                assert np.all(np.diff(A.indices[A.indptr[j]:A.indptr[j + 1]]) > 0)
            np.testing.assert_array_equal(to_scipy(A).toarray(), dense[:, cols])


def test_two_marginal_blocks_keep_their_csc_arrays():
    # the two-marginal formula the N-marginal builder generalizes, byte for byte
    def two_marginal(shapes, cols):
        m, n = np.array(shapes).T
        var_off = np.concatenate([[0], np.cumsum(m * n)])
        row_off = np.concatenate([[0], np.cumsum(m + n - 1)])
        block = np.searchsorted(var_off, cols, side="right") - 1
        i, j = np.divmod(cols - var_off[block], n[block])
        has_col_row = j < n[block] - 1
        indptr = np.zeros(len(cols) + 1, dtype=np.int32)
        np.cumsum(1 + has_col_row, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=np.int32)
        indices[indptr[:-1]] = row_off[block] + i
        indices[indptr[:-1][has_col_row] + 1] = (row_off[block] + m[block] + j)[has_col_row]
        return np.ones(len(indices)), indices, indptr, (int(row_off[-1]), len(cols))

    rng = np.random.default_rng(10)
    for _ in range(200):
        shapes = [tuple(int(v) for v in rng.integers(1, 9, size=2))
                  for _ in range(rng.integers(1, 6))]
        total = sum(m * n for m, n in shapes)
        for cols in (np.arange(total), np.flatnonzero(rng.uniform(size=total) < 0.4)):
            got, want = _marginal_columns(shapes, cols), two_marginal(shapes, cols)
            for a, b in zip(got[:3], want[:3]):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert got.shape == want[3]


def test_pack_respects_the_cap():
    assert _pack([], 10) == []
    assert _pack([4, 4, 4, 20, 3, 3], 10) == [[0, 1], [2], [3], [4, 5]]
    assert _pack([10, 1], 10) == [[0], [1]]


def test_batch_matches_single_solves_and_oracle(lp_calls):
    pairs = _random_pairs(500, seed=40)
    # trivial 1xn and nx1 blocks mixed into the batch
    pairs.insert(5, (dirac(PLANE, [0.0, 0.0]), pairs[5][1]))
    pairs.insert(9, (pairs[9][0], dirac(PLANE, [0.5, 0.5])))
    costs = [COSTS[k % 3] for k in range(len(pairs))]
    problems = [
        (cost.matrix(mu, nu), mu.weights, nu.weights) for cost, (mu, nu) in zip(costs, pairs)
    ]
    shapes = [C.shape for C, _, _ in problems]
    assert shapes[5][0] == 1 and shapes[9][1] == 1
    assert shapes[5][1] > 1 and shapes[9][0] > 1
    solver_vars = sum(m * n for m, n in shapes if m > 1 and n > 1)
    assert solver_vars > 2 * MAX_BATCH_VARS

    batch = solve_lp_batch(problems)
    assert len(lp_calls) >= 3
    assert max(lp_calls) <= MAX_BATCH_VARS
    for (C, a, b), (mu, nu), cost, (x, obj, u, v, gap) in zip(problems, pairs, costs, batch):
        _, single, _, _, _ = solve_lp_matrix(C, a, b)
        assert abs(obj - single) <= 1e-9 * (1 + abs(single))
        oracle = brute_force_transport(mu, nu, cost)
        assert abs(obj - oracle) <= 1e-9 * (1 + abs(oracle))
        assert gap <= 1e-9 * (1 + abs(obj))
        assert (x > 1e-12).sum() <= C.shape[0] + C.shape[1] - 1


def test_transport_batch_plans_pass_their_certificates(lp_calls, monkeypatch):
    sq = CostSpec.norm_power(2)
    pairs = _random_pairs(150, seed=900)
    big = _large_pair(128, seed=7)
    pairs.insert(60, big)
    plans = solve_transport_batch(pairs, sq)
    # the large problem is solved alone, on shortlists of its columns
    assert max(lp_calls) < 128 * 128
    for (mu, nu), plan in zip(pairs, plans):
        assert plan.source is mu and plan.target is nu
        plan.check(sq.matrix(mu, nu))
    monkeypatch.setattr(transport, "MAX_BATCH_VARS", 128 * 128)
    _, full, _, _, _ = solve_lp_matrix(sq.matrix(*big), big[0].weights, big[1].weights)
    assert 128 * 128 in lp_calls
    assert abs(plans[60].objective - full) <= GAP_TOL * (1 + abs(full))


def test_failures_name_the_block(monkeypatch):
    from types import SimpleNamespace

    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    half = np.array([0.5, 0.5])
    problems = [(np.zeros((1, 2)), np.ones(1), half), (C, half, half), (C, half, half)]
    monkeypatch.setattr(transport, "GAP_TOL", -1.0)
    with pytest.raises(NumericalFailure, match="block 0"):
        solve_lp_batch(problems)
    monkeypatch.setattr(transport, "GAP_TOL", 1e-9)
    monkeypatch.setattr(lp, "solve",
                        lambda c, A, rhs: SimpleNamespace(status=4, message="forced"))
    with pytest.raises(NumericalFailure, match="blocks 1..2 failed: forced"):
        solve_lp_batch(problems)


def test_non_vertex_plan_names_its_block(monkeypatch):
    # zero costs make the dense 2x2 plan optimal with a closed gap, so only
    # the vertex check can reject it
    real_solve = lp.solve

    def dense_second_block(c, A, rhs):
        res = real_solve(c, A, rhs)
        res.x[4:8] = 0.25
        return res

    half = np.array([0.5, 0.5])
    problems = [(np.array([[0.0, 1.0], [1.0, 0.0]]), half, half), (np.zeros((2, 2)), half, half)]
    solve_lp_batch(problems)
    monkeypatch.setattr(lp, "solve", dense_second_block)
    with pytest.raises(NumericalFailure, match="block 1: plan has 4 positive entries"):
        solve_lp_batch(problems)


def _full_lp(monkeypatch, C, a, b):
    """The problem's plan and objective from its full LP, with no shortlist."""
    with monkeypatch.context() as mp:
        mp.setattr(transport, "MAX_BATCH_VARS", C.size)
        x, obj, _, _, _ = solve_lp_matrix(C, a, b)
    return x, obj


def _check_shortlist(monkeypatch, lp_calls, C, a, b):
    """Solve by the shortlist and check the result against the full LP.

    The Monge test is switched off, so a problem on the line reaches the
    shortlist too.
    """
    lp_calls.clear()
    with monkeypatch.context() as mp:
        mp.setattr(transport, "_is_monge", lambda C: False)
        x, obj, u, v, gap = solve_lp_matrix(C, a, b)
    assert lp_calls and max(lp_calls) < C.size
    _, full = _full_lp(monkeypatch, C, a, b)
    assert abs(obj - full) <= GAP_TOL * (1 + abs(full))
    assert gap <= GAP_TOL * (1 + abs(obj))
    assert (x > 1e-12).sum() <= C.shape[0] + C.shape[1] - 1
    np.testing.assert_allclose(x.sum(axis=1), a, atol=1e-9)
    np.testing.assert_allclose(x.sum(axis=0), b, atol=1e-9)
    assert np.all(u[:, None] + v[None, :] <= C + 1e-12)


def test_shortlist_matches_full_lp_on_random_problems(monkeypatch, lp_calls):
    rng = np.random.default_rng(11)
    sq = CostSpec.norm_power(2)
    for m, n, dim in [(33, 40, 2), (128, 96, 2), (64, 128, 1), (100, 33, 1)]:
        space = GroundSpace.euclidean(dim)
        mu = canonicalize(rng.uniform(size=(m, dim)), rng.dirichlet(np.ones(m)), space)
        nu = canonicalize(rng.uniform(size=(n, dim)), rng.dirichlet(np.ones(n)), space)
        _check_shortlist(monkeypatch, lp_calls, sq.matrix(mu, nu), mu.weights, nu.weights)
    points = rng.uniform(size=(120, 2))
    space = GroundSpace.finite(np.linalg.norm(points[:, None] - points[None, :], axis=-1))
    for m, n, p in [(40, 70, 1.0), (120, 120, 2.0)]:
        mu = canonicalize(rng.choice(120, m, replace=False), rng.dirichlet(np.ones(m)), space)
        nu = canonicalize(rng.choice(120, n, replace=False), rng.dirichlet(np.ones(n)), space)
        cost = CostSpec.metric_power(p)
        _check_shortlist(monkeypatch, lp_calls, cost.matrix(mu, nu), mu.weights, nu.weights)


def test_shortlist_matches_oracle_on_4x4(monkeypatch, lp_calls):
    # with the cap at 4 and one start column per row and column, every 4x4
    # problem starts on at most 4 + 4 + 7 of its 16 columns
    monkeypatch.setattr(transport, "MAX_BATCH_VARS", 4)
    monkeypatch.setattr(transport, "SHORTLIST_K", 1)
    # some 4x4 cost matrices in the plane are Monge; the shortlist is under test
    monkeypatch.setattr(transport, "_is_monge", lambda C: False)
    rng = np.random.default_rng(300)
    repriced = 0
    for k in range(60):
        mu, nu = (canonicalize(rng.uniform(-1, 1, size=(4, 2)), rng.dirichlet(np.ones(4)), PLANE)
                  for _ in range(2))
        cost = COSTS[k % 3]
        lp_calls.clear()
        _, obj, _, _, gap = solve_lp_matrix(cost.matrix(mu, nu), mu.weights, nu.weights)
        assert lp_calls[0] < 16
        repriced += len(lp_calls) > 1
        oracle = brute_force_transport(mu, nu, cost)
        assert abs(obj - oracle) <= GAP_TOL * (1 + abs(oracle))
        assert gap <= GAP_TOL * (1 + abs(obj))
    assert repriced >= 10  # the pricing rounds do add columns


def test_shortlist_on_degenerate_problems(monkeypatch, lp_calls):
    sq = CostSpec.norm_power(2)
    rng = np.random.default_rng(5)
    side = np.linspace(0.0, 1.0, 7)
    grid = np.array([[x, y] for x in side for y in side])
    cases = [
        (grid, grid + np.array([side[1], 0.0])),  # a grid shifted by one step: many tied plans
        (rng.uniform(size=(60, 2)), rng.uniform(size=(60, 2))),  # an assignment problem
    ]
    for X, Y in cases:
        w = np.full(len(X), 1.0 / len(X))
        mu, nu = canonicalize(X, w, PLANE), canonicalize(Y, w, PLANE)
        _check_shortlist(monkeypatch, lp_calls, sq.matrix(mu, nu), mu.weights, nu.weights)
    # identical measures on 49 x 49 atoms: the identity plan, cost 0
    uniform = np.full(len(grid), 1.0 / len(grid))
    mu = canonicalize(grid, uniform, PLANE)
    x, obj, _, _, _ = solve_lp_matrix(sq.matrix(mu, mu), uniform, uniform)
    assert obj == 0.0
    np.testing.assert_array_equal(x, np.diag(uniform))


def test_shortlist_start_is_feasible_where_cheapest_columns_are_not(monkeypatch, lp_calls):
    # atoms -i and +j for i, j < 40: the cheapest columns of atom -i are the
    # atoms +j with j < K and the cheapest rows of +j the atoms -i with
    # i < K, so the atoms -i with i >= K can only send mass to K atoms
    n, k = 40, transport.SHORTLIST_K
    line = GroundSpace.euclidean(1)
    w = np.full(n, 1.0 / n)
    mu = canonicalize(-np.arange(n, dtype=float)[:, None], w, line)
    nu = canonicalize(np.arange(n, dtype=float)[:, None], w, line)
    C = CostSpec.norm_power(2).matrix(mu, nu)
    cheapest = np.zeros(C.shape, dtype=bool)
    np.put_along_axis(cheapest, np.argsort(C, axis=1)[:, :k], True, axis=1)
    np.put_along_axis(cheapest, np.argsort(C, axis=0)[:k], True, axis=0)
    cols = np.flatnonzero(cheapest)
    res = lp.solve(C.ravel()[cols], to_scipy(_system([(n, n)]))[:, cols],
                   np.concatenate([w, w[:-1]]))
    assert res.status == 2  # infeasible
    _check_shortlist(monkeypatch, lp_calls, C, w, w)


def test_shortlist_round_cap_falls_back_to_full_lp(monkeypatch, lp_calls, caplog):
    mu, nu = _large_pair(64, seed=3)
    C = CostSpec.norm_power(2).matrix(mu, nu)
    full_x, full = _full_lp(monkeypatch, C, mu.weights, nu.weights)
    monkeypatch.setattr(transport, "SHORTLIST_K", 1)
    monkeypatch.setattr(transport, "SHORTLIST_MAX_ROUNDS", 1)
    lp_calls.clear()
    with caplog.at_level(logging.WARNING, logger="mkbary"):
        x, obj, _, _, _ = solve_lp_matrix(C, mu.weights, nu.weights)
    assert lp_calls[0] < C.size and lp_calls[1:] == [C.size]
    assert [r.getMessage() for r in caplog.records if r.name == "mkbary"] == [
        "transport LP block 0: shortlist still missing columns after 1 rounds; "
        "solving the full LP"]
    np.testing.assert_array_equal(x, full_x)
    assert obj == full


LINE = GroundSpace.euclidean(1)


def _line_pair(rng, m, n, scale):
    return tuple(canonicalize(scale * rng.uniform(size=(k, 1)), rng.dirichlet(np.ones(k)), LINE)
                 for k in (m, n))


def test_monge_route_matches_the_shortlist_and_the_full_lp(lp_calls):
    # every power at every scale; |x - y|^4 on atoms in [0, 1000] costs up to
    # 1e12, where u_i + v_j rounds to within 2e-6 of C_ij
    rng = np.random.default_rng(25)
    for k in range(12):
        p, scale = (1.0, 1.5, 2.0, 4.0)[k % 4], (1e-3, 1.0, 1e3)[k % 3]
        cost = CostSpec.norm_power(p)
        mu, nu = _line_pair(rng, *rng.integers(33, 257, size=2), scale)
        C, a, b = cost.matrix(mu, nu), mu.weights, nu.weights
        assert transport._is_monge(C)
        lp_calls.clear()
        [plan] = solve_transport_batch([(mu, nu)], cost)
        assert lp_calls == []  # no HiGHS run
        plan.check(C)
        assert plan.gap <= GAP_TOL * (1 + plan.objective)
        x, u = transport._solve_shortlist([(C, a, b)], 0)
        _, shortlist, u, v, _ = transport._certify(0, x, C, a, b, *transport._polish(C, u))
        assert np.all(u[:, None] + v[None, :] <= C + transport.CHECK_TOL)
        [(x, _)] = transport._solve_columns([(C, a, b)], [0])
        full = float((x * C).sum())
        for other in (shortlist, full):
            assert abs(plan.objective - other) <= GAP_TOL * (1 + abs(other))


def test_staircase_matches_the_oracle_up_to_4x4():
    rng = np.random.default_rng(26)
    for k in range(60):
        mu, nu = _line_pair(rng, *rng.integers(1, 5, size=2), 2.0)
        cost = COSTS[k % 2]  # |x - y| and |x - y|^2
        (rows, cols), mass = transport._staircase(mu.weights, nu.weights)
        assert len(rows) == mu.n_atoms + nu.n_atoms - 1
        C = cost.matrix(mu, nu)
        oracle = brute_force_transport(mu, nu, cost)
        assert abs(mass @ C[rows, cols] - oracle) <= GAP_TOL * (1 + oracle)


def test_staircase_is_an_oracle_for_packed_lps_on_the_line(lp_calls):
    # at most 32 x 32 = MAX_BATCH_VARS variables, so every problem is packed
    # into HiGHS calls and none takes the Monge route
    rng = np.random.default_rng(28)
    problems, stairs = [], []
    for k in range(40):
        mu, nu = _line_pair(rng, *rng.integers(5, 33, size=2), 1.0)
        C = CostSpec.norm_power((1.0, 1.5, 2.0, 4.0)[k % 4]).matrix(mu, nu)
        (rows, cols), mass = transport._staircase(mu.weights, nu.weights)
        problems.append((C, mu.weights, nu.weights))
        stairs.append(mass @ C[rows, cols])
    assert max(C.size for C, _, _ in problems) <= MAX_BATCH_VARS
    lp_calls.clear()
    sols = solve_lp_batch(problems)
    assert len(lp_calls) >= 2
    for (_, obj, _, _, _), stair in zip(sols, stairs):
        assert abs(obj - stair) <= GAP_TOL * (1 + abs(stair))


def test_plane_problems_never_take_the_monge_route(lp_calls, caplog):
    for seed in range(5):
        mu, nu = _large_pair(40, seed)
        C = CostSpec.norm_power(2).matrix(mu, nu)
        assert not transport._is_monge(C)
        lp_calls.clear()
        with caplog.at_level(logging.WARNING, logger="mkbary"):
            solve_lp_matrix(C, mu.weights, nu.weights)
        assert lp_calls and max(lp_calls) < C.size  # the shortlist's kept model
    assert not caplog.records  # so no staircase plan was tried and refused


def test_uncertified_staircase_falls_back_to_the_shortlist(monkeypatch, lp_calls, caplog):
    # a plane cost matrix let through the Monge test: its staircase plan is
    # feasible but not optimal, so its gap check fails
    mu, nu = _large_pair(40, 27)
    C, a, b = CostSpec.norm_power(2).matrix(mu, nu), mu.weights, nu.weights
    _, honest, _, _, _ = solve_lp_matrix(C, a, b)
    monkeypatch.setattr(transport, "_is_monge", lambda C: True)
    lp_calls.clear()
    with caplog.at_level(logging.WARNING, logger="mkbary"):
        x, obj, _, _, _ = solve_lp_matrix(C, a, b)
    assert lp_calls and max(lp_calls) < C.size
    [message] = [r.getMessage() for r in caplog.records if r.name == "mkbary"]
    assert message.startswith("transport LP block 0: north-west-corner plan on a Monge cost "
                              "matrix not certified (transport LP block 0: duality gap")
    assert abs(obj - honest) <= GAP_TOL * (1 + honest)


def test_staircase_that_misses_a_marginal_falls_back_to_the_shortlist(monkeypatch, lp_calls,
                                                                     caplog):
    # atoms i and j + 1/2 under |x - y|^2: cells (20, 19) and (20, 20) both
    # cost 1/4, so a staircase that moves row 20's mass from one to the other
    # keeps its objective, its vertex count and its duality gap, and only its
    # column sums show the fault
    n = 40
    w = np.full(n, 1.0 / n)
    mu = canonicalize(np.arange(n, dtype=float)[:, None], w, LINE)
    nu = canonicalize(np.arange(n, dtype=float)[:, None] + 0.5, w, LINE)
    C, a, b = CostSpec.norm_power(2).matrix(mu, nu), mu.weights, nu.weights
    assert transport._is_monge(C) and C[20, 19] == C[20, 20]
    reference, _ = transport._solve_shortlist([(C, a, b)], 0)
    real = transport._staircase

    def moved(*weights):
        (rows, cols), mass = real(*weights)
        here = np.flatnonzero(rows == 20)
        assert cols[here].tolist() == [19, 20] and mass[here[0]] == 0.0
        mass = mass.copy()
        mass[here] = mass[here[::-1]]
        return np.stack([rows, cols]), mass

    monkeypatch.setattr(transport, "_staircase", moved)
    lp_calls.clear()
    with caplog.at_level(logging.WARNING, logger="mkbary"):
        [plan] = solve_transport_batch([(mu, nu)], CostSpec.norm_power(2))
    assert lp_calls and max(lp_calls) < C.size  # the shortlist ran
    [message] = [r.getMessage() for r in caplog.records if r.name == "mkbary"]
    assert message.startswith("transport LP block 0: north-west-corner plan on a Monge cost "
                              "matrix not certified (transport LP block 0: plan misses a "
                              "marginal by 2.500e-02)")
    np.testing.assert_array_equal(plan.coupling, reference)
    plan.check(C)


@pytest.fixture
def shared_mass_calls(monkeypatch):
    """The cost matrix shape of every shared-mass route taken, in order."""
    calls = []
    real = transport._shared_mass

    def counting(C, a, b):
        calls.append(C.shape)
        return real(C, a, b)

    monkeypatch.setattr(transport, "_shared_mass", counting)
    return calls


def _finite_plane(points):
    """The finite space of ``points`` in the plane under the euclidean distance."""
    return GroundSpace.finite(np.linalg.norm(points[:, None] - points[None, :], axis=-1))


def _overlapping_pair(rng, pool, space, m, n, shared):
    """mu on m and nu on n points of ``pool``, ``shared`` of them common to both."""
    idx = rng.permutation(len(pool))
    return (canonicalize(pool[idx[:m]], rng.dirichlet(np.ones(m)), space),
            canonicalize(pool[idx[m - shared:m - shared + n]], rng.dirichlet(np.ones(n)), space))


def _assert_keeps_shared_mass(x, C, a, b):
    rows, cols = np.nonzero(C == 0.0)
    np.testing.assert_array_equal(x[rows, cols], np.minimum(a[rows], b[cols]))


def test_shared_mass_route_matches_the_exact_routes(monkeypatch, lp_calls, shared_mass_calls,
                                                    caplog):
    rng = np.random.default_rng(29)
    points = rng.uniform(size=(200, 2))
    finite = _finite_plane(points)
    cases = [(finite, np.arange(200), CostSpec.metric_power(1)),
             (finite, np.arange(200), CostSpec.metric_power(0.5)),
             (PLANE, points, CostSpec.norm_power(1)),
             (PLANE, points, CostSpec.metric_power(0.5))] * 3
    for space, pool, cost in cases:
        m, n = rng.integers(33, 97, size=2)
        mu, nu = _overlapping_pair(rng, pool, space, m, n, rng.integers(1, min(m, n)))
        C, a, b = cost.matrix(mu, nu), mu.weights, nu.weights
        shared_mass_calls.clear()
        lp_calls.clear()
        with caplog.at_level(logging.WARNING, logger="mkbary"):
            [plan] = solve_transport_batch([(mu, nu)], cost)
        assert shared_mass_calls == [C.shape]
        assert max(lp_calls, default=0) < C.size  # only the surplus x deficit LP ran
        _assert_keeps_shared_mass(plan.coupling, C, a, b)
        plan.check(C)
        assert (plan.coupling > 1e-12).sum() <= m + n - 1
        assert plan.gap <= GAP_TOL * (1 + plan.objective)
        _, full = _full_lp(monkeypatch, C, a, b)
        x, _ = transport._solve_shortlist([(C, a, b)], 0)
        shortlist = float((x * C).sum())
        for other in (full, shortlist):
            assert abs(plan.objective - other) <= GAP_TOL * (1 + abs(other))
    assert not caplog.records


def test_shared_mass_route_matches_the_oracle_up_to_4x4(monkeypatch, shared_mass_calls):
    # with the cap at 4 every problem here is large, and so is every
    # left-over problem but a 2x2 one; some small metric matrices are
    # Monge, and the shared-mass route is under test
    monkeypatch.setattr(transport, "MAX_BATCH_VARS", 4)
    monkeypatch.setattr(transport, "_is_monge", lambda C: False)
    rng = np.random.default_rng(30)
    points = rng.uniform(size=(8, 2))
    finite = _finite_plane(points)
    cases = [(finite, np.arange(8), CostSpec.metric_power(1)),
             (finite, np.arange(8), CostSpec.metric_power(0.5)),
             (PLANE, points, CostSpec.norm_power(1)),
             (PLANE, points, CostSpec.metric_power(0.5))]
    for k in range(60):
        space, pool, cost = cases[k % 4]
        m, n = rng.integers(2, 5), rng.integers(3, 5)
        mu, nu = _overlapping_pair(rng, pool, space, m, n, rng.integers(1, min(m, n) + 1))
        shared_mass_calls.clear()
        [plan] = solve_transport_batch([(mu, nu)], cost)
        assert shared_mass_calls == [(m, n)]
        oracle = brute_force_transport(mu, nu, cost)
        assert abs(plan.objective - oracle) <= GAP_TOL * (1 + oracle)
        assert plan.gap <= GAP_TOL * (1 + plan.objective)


def test_shared_mass_route_edges(monkeypatch, lp_calls, shared_mass_calls, caplog):
    rng = np.random.default_rng(31)
    n = 40
    C = CostSpec.metric_power(1).matrix(*(2 * [canonicalize(
        np.arange(n), np.full(n, 1.0 / n), _finite_plane(rng.uniform(size=(n, 2))))]))
    w = rng.dirichlet(np.ones(n))
    # mu = nu: all mass stays and no LP runs
    with caplog.at_level(logging.WARNING, logger="mkbary"):
        [(x, obj, _, _, gap)] = solve_lp_batch([(C, w, w)], metric=True)
        assert lp_calls == [] and shared_mass_calls == [(n, n)]
        np.testing.assert_array_equal(x, np.diag(w))
        assert obj == 0.0 and gap == 0.0
        # one surplus atom, then one deficit atom: atom 0 takes half of the
        # mass of atoms 1..5, so the left-over problem is 1x5 or 5x1, which
        # has a single plan and runs no LP either
        moved = w.copy()
        moved[1:6] /= 2
        moved[0] += w[1:6].sum() / 2
        for a, b in ((moved, w), (w, moved)):
            shared_mass_calls.clear()
            lp_calls.clear()
            [(x, obj, _, _, gap)] = solve_lp_batch([(C, a, b)], metric=True)
            assert lp_calls == [] and shared_mass_calls == [(n, n)]
            _assert_keeps_shared_mass(x, C, a, b)
            _, full = _full_lp(monkeypatch, C, a, b)
            assert abs(obj - full) <= GAP_TOL * (1 + full)
            assert gap <= GAP_TOL * (1 + obj)
            assert (x > 0).sum() == n + 5
    assert not caplog.records


def test_costs_that_are_not_metrics_never_take_the_shared_mass_route(lp_calls,
                                                                     shared_mass_calls, caplog):
    rng = np.random.default_rng(32)
    points = rng.uniform(size=(60, 2))
    finite = _finite_plane(points)
    cases = [(finite, np.arange(60), CostSpec.metric_power(2)),
             (PLANE, points, CostSpec.norm_power(2)),
             (finite, np.arange(60), CostSpec.finite_matrix(finite.rho)),
             (PLANE, points, CostSpec.translation(lambda d: np.linalg.norm(d, axis=-1), dim=2))]
    for space, pool, cost in cases:
        mu, nu = _overlapping_pair(rng, pool, space, 40, 40, 20)
        C = cost.matrix(mu, nu)
        assert not cost.is_metric and (C == 0.0).sum() == 20
        lp_calls.clear()
        with caplog.at_level(logging.WARNING, logger="mkbary"):
            [plan] = solve_transport_batch([(mu, nu)], cost)
        assert lp_calls and max(lp_calls) < C.size  # the shortlist's kept model
        plan.check(C)
    assert shared_mass_calls == []
    assert not caplog.records


def _reduced_northwest(Cr, ar, br):
    # feasible but not optimal in the plane, so the full plan's gap stays open
    return transport._northwest(Cr, ar, br)[0]


def _reduced_nothing(Cr, ar, br):
    # moves no mass, so the full plan misses its marginals; its objective is
    # then below the dual bound and the gap check alone would pass it
    return np.zeros(Cr.shape)


@pytest.mark.parametrize("reduced, failure", [
    (_reduced_northwest, "duality gap"),
    (_reduced_nothing, "plan misses a marginal"),
])
def test_uncertified_shared_mass_plan_falls_back_to_the_shortlist(monkeypatch, lp_calls, caplog,
                                                                 reduced, failure):
    # the surplus x deficit LP is replaced by a wrong plan
    rng = np.random.default_rng(33)
    mu, nu = _overlapping_pair(rng, np.arange(80), _finite_plane(rng.uniform(size=(80, 2))),
                               40, 40, 20)
    C, a, b = CostSpec.metric_power(1).matrix(mu, nu), mu.weights, nu.weights
    _, honest = _full_lp(monkeypatch, C, a, b)
    solve = transport.solve_lp_batch

    def wrong(problems, metric=False):
        [(Cr, ar, br)] = problems
        return [(reduced(Cr, ar, br), None, None, np.zeros(Cr.shape[1]), None)]

    monkeypatch.setattr(transport, "solve_lp_batch", wrong)
    lp_calls.clear()
    with caplog.at_level(logging.WARNING, logger="mkbary"):
        [(x, obj, _, _, _)] = solve([(C, a, b)], metric=True)
    assert lp_calls and max(lp_calls) < C.size  # the shortlist ran
    [message] = [r.getMessage() for r in caplog.records if r.name == "mkbary"]
    assert message.startswith("transport LP block 0: shared-mass plan on a metric cost matrix "
                              f"not certified (transport LP block 0: {failure}")
    assert abs(obj - honest) <= GAP_TOL * (1 + honest)
    np.testing.assert_allclose(x.sum(axis=1), a, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_n_marginal_staircase_is_a_monotone_coupling(seed):
    rng = np.random.default_rng(seed)
    for N in range(2, 7):
        weights = [rng.dirichlet(np.ones(k)) for k in rng.integers(1, 31, size=N)]
        idx, mass = transport._staircase(*weights)
        assert idx.shape == (N, sum(len(w) for w in weights) - N + 1) == (N, mass.size)
        assert np.all(mass >= 0.0)
        for i, w in zip(idx, weights):
            steps = np.diff(i)
            assert i[0] == 0 and np.all((steps == 0) | (steps == 1))
            np.testing.assert_allclose(np.bincount(i, weights=mass, minlength=len(w)), w,
                                       rtol=0.0, atol=1e-15)


def test_large_costs_that_overflow_are_rejected(lp_calls):
    # (1e200)^2 is inf: the cost table names the cost and the pair, with no
    # numpy warning, and no LP runs
    atoms = np.linspace(0.0, 1.0, 33)[:, None]
    atoms[-1] = 1e200
    w = np.full(33, 1 / 33)
    mu = canonicalize(atoms, w, LINE)
    with warnings.catch_warnings(), pytest.raises(
            NonFinite, match=r"norm_power cost with p = 2 is inf between x = \[0.0\] and "
                             r"y = \[1e\+200\], not finite"):
        warnings.simplefilter("error")
        solve_transport_batch([(mu, mu)], CostSpec.norm_power(2))
    assert lp_calls == []
    # such a matrix, built by hand, is not taken for Monge, and the LP
    # refuses it as it refuses any cost that is not finite
    C = np.square(atoms[:-1] - atoms[:-1].T)
    C = np.pad(C, ((0, 1), (0, 1)), constant_values=np.inf)
    C[-1, -1] = 0.0
    assert not transport._is_monge(C)
    assert not transport._is_monge(np.where(np.isinf(C), np.nan, C))
    with pytest.raises(ValueError, match="LP costs must be finite"):
        solve_lp_batch([(C, w, w)])
    # potentials that are not finite end the polish instead of looping on NaN
    with pytest.raises(NumericalFailure, match="not finite"), np.errstate(invalid="ignore"):
        transport._polish(np.ones((3, 3)), np.array([np.inf, 0.0, 0.0]))


def _failing_runs(monkeypatch, lp_calls, fails, call):
    """``call()`` with the HiGHS runs numbered in ``fails`` (0 the first, as
    counted afresh in ``lp_calls``) coming back not optimal.

    Returns its result and the model of every run."""
    real = lp.Model._run_once  # the counting run of ``lp_calls``
    models = []

    def run(self):
        models.append(self)
        res = real(self)
        if len(lp_calls) - 1 in fails:
            return lp.Solution(4, "forced", None, None, None, res.nit)
        return res

    lp_calls.clear()
    with monkeypatch.context() as mp:
        mp.setattr(lp.Model, "_run_once", run)
        return call(), models


def _solve_failing_runs(monkeypatch, lp_calls, fails, C, a, b):
    """``solve_lp_matrix(C, a, b)`` under ``_failing_runs``."""
    return _failing_runs(monkeypatch, lp_calls, fails, lambda: solve_lp_matrix(C, a, b))


def _assert_same_solution(got, ref):
    assert got.status == ref.status == 0
    assert got.x.tobytes() == ref.x.tobytes()
    assert got.duals.tobytes() == ref.duals.tobytes()
    assert got.fun == ref.fun and got.nit == ref.nit


def _mkbary_messages(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "mkbary"]


def test_failed_warm_run_is_rerun_cold_as_a_new_model(monkeypatch, lp_calls, caplog):
    from mkbary.barycenter import _joint_lp_system

    rng = np.random.default_rng(23)
    side = np.linspace(0.0, 1.0, 9)
    grid = np.array([[x, y] for x in side for y in side])
    measures = [canonicalize(rng.uniform(size=(5, 2)), rng.dirichlet(np.ones(5)), PLANE)
                for _ in range(3)]
    cases = []  # (model, the LP of its next run)
    for trial in range(4):
        # a joint barycenter LP run cold, then given the costs of new input weights
        lams = [rng.dirichlet(np.ones(3)) for _ in range(2)]
        c, system = _joint_lp_system(list(zip(measures, lams[0])), COSTS[trial % 3], grid)
        A, rhs = system.A, system.rhs
        model = lp.Model(c, A, rhs)
        assert model.run().status == 0
        c2 = _joint_lp_system(list(zip(measures, lams[1])), COSTS[trial % 3], grid)[0]
        model.set_costs(c2)
        cases.append((model, (c2, A, rhs)))
        # a transport LP on the north-west-corner support, then grown by a block
        m, n = 40, 40
        a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
        C = rng.uniform(size=(m, n)).ravel()
        first = np.union1d(_north_west_corner(a, b), np.flatnonzero(rng.uniform(size=m * n) < 0.1))
        more = np.sort(rng.choice(np.setdiff1d(np.arange(m * n), first), 200, replace=False))
        rhs = np.concatenate([a, b[:-1]])
        model = lp.Model(C[first], _marginal_columns([(m, n)], first), rhs)
        assert model.run().status == 0
        model.add_columns(C[more], _marginal_columns([(m, n)], more))
        grown = _hstack(_marginal_columns([(m, n)], first), _marginal_columns([(m, n)], more))
        cases.append((model, (np.concatenate([C[first], C[more]]), grown, rhs)))
    for model, (c, A, rhs) in cases:
        ref = lp.solve(c, A, rhs)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="mkbary"):
            got, models = _failing_runs(monkeypatch, lp_calls, {0}, model.run)
        # one warning, and the cold re-run of the same model is a new model's first run
        assert models == [model, model]
        assert _mkbary_messages(caplog) == [
            f"LP of {len(rhs)} rows and {len(c)} columns: warm run not optimal (forced); "
            "re-running it cold"]
        _assert_same_solution(got, ref)


def test_only_warm_runs_are_rerun_and_only_once(monkeypatch, lp_calls, caplog):
    A = _system([(3, 3)])
    c, rhs = np.arange(9.0), np.concatenate([np.full(3, 1 / 3), np.full(2, 1 / 3)])
    ref = lp.solve(c, A, rhs)
    model = lp.Model(c, A, rhs)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="mkbary"):
        # a new model's first run is cold: its failure is returned as it is
        got, _ = _failing_runs(monkeypatch, lp_calls, {0}, model.run)
        assert got.message == "forced" and lp_calls == [9]
        assert _mkbary_messages(caplog) == []
        # every later run is warm: re-run once, and a failed re-run is returned
        got, _ = _failing_runs(monkeypatch, lp_calls, {0, 1}, model.run)
        assert got.message == "forced" and lp_calls == [9, 9]
        got, _ = _failing_runs(monkeypatch, lp_calls, {0}, model.run)
        _assert_same_solution(got, ref)
        assert lp_calls == [9, 9]
        # so is the first run of a model started from a basis
        started = lp.Model(c, A, rhs, model.basis())
        got, _ = _failing_runs(monkeypatch, lp_calls, {0}, started.run)
        _assert_same_solution(got, ref)
        assert lp_calls == [9, 9]
    assert len(_mkbary_messages(caplog)) == 3


def test_failed_warm_shortlist_round_is_rerun_cold_once(monkeypatch, lp_calls, caplog):
    mu, nu = _large_pair(64, seed=3)
    C = CostSpec.norm_power(2).matrix(mu, nu)
    _, full = _full_lp(monkeypatch, C, mu.weights, nu.weights)
    marginals = mu.weights, nu.weights
    lp_calls.clear()
    solve_lp_matrix(C, *marginals)
    rounds = list(lp_calls)
    assert len(rounds) >= 3  # a cold round and at least two warm ones
    # the first warm run fails: the kernel runs the same model cold, and the
    # next rounds append the columns priced in from the cold duals to it
    with caplog.at_level(logging.WARNING, logger="mkbary"):
        (x, obj, _, _, gap), models = _solve_failing_runs(monkeypatch, lp_calls, {1}, C,
                                                          *marginals)
    assert lp_calls[:3] == rounds[:2] + [rounds[1]] and max(lp_calls) < C.size
    assert all(model is models[0] for model in models)
    assert _mkbary_messages(caplog) == [
        f"LP of 127 rows and {rounds[1]} columns: warm run not optimal (forced); "
        "re-running it cold"]
    assert abs(obj - full) <= GAP_TOL * (1 + abs(full))
    assert gap <= GAP_TOL * (1 + abs(obj))
    np.testing.assert_allclose(x.sum(axis=1), mu.weights, atol=1e-9)
    np.testing.assert_allclose(x.sum(axis=0), nu.weights, atol=1e-9)
    # the cold re-run fails too: the round's failure is raised as before
    with pytest.raises(NumericalFailure,
                       match=f"blocks 0..0 failed: forced on {rounds[1]} of 4096 columns"):
        _solve_failing_runs(monkeypatch, lp_calls, {1, 2}, C, *marginals)
    # a cold first round that fails is not re-run
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="mkbary"), \
            pytest.raises(NumericalFailure,
                          match=f"blocks 0..0 failed: forced on {rounds[0]} of 4096 columns"):
        _solve_failing_runs(monkeypatch, lp_calls, {0}, C, *marginals)
    assert lp_calls == rounds[:1]
    assert _mkbary_messages(caplog) == []


def test_plan_check_raises_under_python_O():
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys, dataclasses\n"
        "from mkbary import CertificateViolation, CostSpec, canonicalize, GroundSpace, solve_transport\n"
        "assert False, 'asserts must be stripped'\n"
        "line = GroundSpace.euclidean(1)\n"
        "mu = canonicalize([[0.0], [1.0]], [0.5, 0.5], line)\n"
        "nu = canonicalize([[0.0], [2.0]], [0.25, 0.75], line)\n"
        "sq = CostSpec.norm_power(2)\n"
        "plan = solve_transport(mu, nu, sq)\n"
        "bad = dataclasses.replace(plan, coupling=plan.coupling[::-1].copy())\n"
        "try:\n"
        "    bad.check(sq.matrix(mu, nu))\n"
        "except CertificateViolation as exc:\n"
        "    print('raised', exc)\n"
        "else:\n"
        "    sys.exit(1)\n"
        "import numpy as np\n"
        "import mkbary.transport as transport\n"
        "from mkbary import NumericalFailure\n"
        "from mkbary import lp\n"
        "real = lp.Model.run\n"
        "def doubled(self):  # every shortlist plan comes back with twice its mass\n"
        "    res = real(self)\n"
        "    res.x[:] = 2 * res.x\n"
        "    return res\n"
        "lp.Model.run = doubled\n"
        "rng = np.random.default_rng(0)\n"
        "C = rng.uniform(size=(40, 40))\n"
        "w = np.full(40, 1 / 40)\n"
        "try:\n"
        "    transport.solve_lp_matrix(C, w, w)\n"
        "except NumericalFailure as exc:\n"
        "    print('raised', exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "raised transport plan fails" in proc.stdout
    assert "raised transport LP block 0: duality gap" in proc.stdout
