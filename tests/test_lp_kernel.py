"""The batched transport LP kernel against per-problem solves and the oracle."""

import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import mkbary.transport as transport
from mkbary import (
    CostSpec,
    GroundSpace,
    NumericalFailure,
    brute_force_transport,
    canonicalize,
    dirac,
    generate_random_measure,
    solve_lp_batch,
    solve_transport_batch,
)
from mkbary.transport import (
    GAP_TOL,
    MAX_BATCH_VARS,
    _dense_marginal_rows,
    _marginal_system,
    _pack,
    solve_lp_matrix,
)

PLANE = GroundSpace.euclidean(2)
COSTS = (CostSpec.norm_power(1), CostSpec.norm_power(2), CostSpec.metric_power(0.5))


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
def linprog_calls(monkeypatch):
    calls = []
    real = transport.linprog

    def counting(c, **kwargs):
        calls.append(len(c))
        return real(c, **kwargs)

    monkeypatch.setattr(transport, "linprog", counting)
    return calls


def test_marginal_system_is_sparse_with_two_nonzeros_per_column():
    for m, n in [(2, 2), (2, 3), (4, 3), (4, 4), (7, 5)]:
        A = _marginal_system(m, n)
        assert sparse.issparse(A)
        assert A.shape == (m + n - 1, m * n)
        assert A.nnz == m * n + m * (n - 1)
        np.testing.assert_array_equal(A.toarray(), _dense_marginal_rows(m, n))
    A = _marginal_system(512, 512)
    assert sparse.issparse(A) and A.nnz == 512 * 512 + 512 * 511


def test_pack_respects_the_cap():
    assert _pack([], 10) == []
    assert _pack([4, 4, 4, 20, 3, 3], 10) == [[0, 1], [2], [3], [4, 5]]
    assert _pack([10, 1], 10) == [[0], [1]]


def test_batch_matches_single_solves_and_oracle(linprog_calls):
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
    assert len(linprog_calls) >= 3
    assert max(linprog_calls) <= MAX_BATCH_VARS
    for (C, a, b), (mu, nu), cost, (x, obj, u, v, gap) in zip(problems, pairs, costs, batch):
        _, single, _, _, _ = solve_lp_matrix(C, a, b)
        assert abs(obj - single) <= 1e-9 * (1 + abs(single))
        oracle = brute_force_transport(mu, nu, cost)
        assert abs(obj - oracle) <= 1e-9 * (1 + abs(oracle))
        assert gap <= 1e-9 * (1 + abs(obj))
        assert (x > 1e-12).sum() <= C.shape[0] + C.shape[1] - 1


def test_transport_batch_plans_pass_their_certificates(linprog_calls, monkeypatch):
    sq = CostSpec.norm_power(2)
    pairs = _random_pairs(150, seed=900)
    big = _large_pair(128, seed=7)
    pairs.insert(60, big)
    plans = solve_transport_batch(pairs, sq)
    # the large problem is solved alone, on shortlists of its columns
    assert max(linprog_calls) < 128 * 128
    for (mu, nu), plan in zip(pairs, plans):
        assert plan.source is mu and plan.target is nu
        plan.check(sq.matrix(mu, nu))
    monkeypatch.setattr(transport, "MAX_BATCH_VARS", 128 * 128)
    _, full, _, _, _ = solve_lp_matrix(sq.matrix(*big), big[0].weights, big[1].weights)
    assert 128 * 128 in linprog_calls
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
    monkeypatch.setattr(transport, "linprog",
                        lambda c, **kw: SimpleNamespace(status=4, message="forced"))
    with pytest.raises(NumericalFailure, match="blocks 1..2 failed: forced"):
        solve_lp_batch(problems)


def test_non_vertex_plan_names_its_block(monkeypatch):
    # zero costs make the dense 2x2 plan optimal with a closed gap, so only
    # the vertex check can reject it
    real_linprog = transport.linprog

    def dense_second_block(c, **kw):
        res = real_linprog(c, **kw)
        res.x[4:8] = 0.25
        return res

    half = np.array([0.5, 0.5])
    problems = [(np.array([[0.0, 1.0], [1.0, 0.0]]), half, half), (np.zeros((2, 2)), half, half)]
    solve_lp_batch(problems)
    monkeypatch.setattr(transport, "linprog", dense_second_block)
    with pytest.raises(NumericalFailure, match="block 1: plan has 4 positive entries"):
        solve_lp_batch(problems)


def _full_lp(monkeypatch, C, a, b):
    """The problem's plan and objective from its full LP, with no shortlist."""
    with monkeypatch.context() as mp:
        mp.setattr(transport, "MAX_BATCH_VARS", C.size)
        x, obj, _, _, _ = solve_lp_matrix(C, a, b)
    return x, obj


def _check_shortlist(monkeypatch, linprog_calls, C, a, b):
    """Solve by the shortlist and check the result against the full LP."""
    linprog_calls.clear()
    x, obj, u, v, gap = solve_lp_matrix(C, a, b)
    assert linprog_calls and max(linprog_calls) < C.size
    _, full = _full_lp(monkeypatch, C, a, b)
    assert abs(obj - full) <= GAP_TOL * (1 + abs(full))
    assert gap <= GAP_TOL * (1 + abs(obj))
    assert (x > 1e-12).sum() <= C.shape[0] + C.shape[1] - 1
    np.testing.assert_allclose(x.sum(axis=1), a, atol=1e-9)
    np.testing.assert_allclose(x.sum(axis=0), b, atol=1e-9)
    assert np.all(u[:, None] + v[None, :] <= C + 1e-12)


def test_shortlist_matches_full_lp_on_random_problems(monkeypatch, linprog_calls):
    rng = np.random.default_rng(11)
    sq = CostSpec.norm_power(2)
    for m, n, dim in [(33, 40, 2), (128, 96, 2), (64, 128, 1), (100, 33, 1)]:
        space = GroundSpace.euclidean(dim)
        mu = canonicalize(rng.uniform(size=(m, dim)), rng.dirichlet(np.ones(m)), space)
        nu = canonicalize(rng.uniform(size=(n, dim)), rng.dirichlet(np.ones(n)), space)
        _check_shortlist(monkeypatch, linprog_calls, sq.matrix(mu, nu), mu.weights, nu.weights)
    points = rng.uniform(size=(120, 2))
    space = GroundSpace.finite(np.linalg.norm(points[:, None] - points[None, :], axis=-1))
    for m, n, p in [(40, 70, 1.0), (120, 120, 2.0)]:
        mu = canonicalize(rng.choice(120, m, replace=False), rng.dirichlet(np.ones(m)), space)
        nu = canonicalize(rng.choice(120, n, replace=False), rng.dirichlet(np.ones(n)), space)
        cost = CostSpec.metric_power(p)
        _check_shortlist(monkeypatch, linprog_calls, cost.matrix(mu, nu), mu.weights, nu.weights)


def test_shortlist_matches_oracle_on_4x4(monkeypatch, linprog_calls):
    # with the cap at 4 and one start column per row and column, every 4x4
    # problem starts on at most 4 + 4 + 7 of its 16 columns
    monkeypatch.setattr(transport, "MAX_BATCH_VARS", 4)
    monkeypatch.setattr(transport, "SHORTLIST_K", 1)
    rng = np.random.default_rng(300)
    repriced = 0
    for k in range(60):
        mu, nu = (canonicalize(rng.uniform(-1, 1, size=(4, 2)), rng.dirichlet(np.ones(4)), PLANE)
                  for _ in range(2))
        cost = COSTS[k % 3]
        linprog_calls.clear()
        _, obj, _, _, gap = solve_lp_matrix(cost.matrix(mu, nu), mu.weights, nu.weights)
        assert linprog_calls[0] < 16
        repriced += len(linprog_calls) > 1
        oracle = brute_force_transport(mu, nu, cost)
        assert abs(obj - oracle) <= GAP_TOL * (1 + abs(oracle))
        assert gap <= GAP_TOL * (1 + abs(obj))
    assert repriced >= 10  # the pricing rounds do add columns


def test_shortlist_on_degenerate_problems(monkeypatch, linprog_calls):
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
        _check_shortlist(monkeypatch, linprog_calls, sq.matrix(mu, nu), mu.weights, nu.weights)
    # identical measures on 49 x 49 atoms: the identity plan, cost 0
    uniform = np.full(len(grid), 1.0 / len(grid))
    mu = canonicalize(grid, uniform, PLANE)
    x, obj, _, _, _ = solve_lp_matrix(sq.matrix(mu, mu), uniform, uniform)
    assert obj == 0.0
    np.testing.assert_array_equal(x, np.diag(uniform))


def test_shortlist_start_is_feasible_where_cheapest_columns_are_not(monkeypatch, linprog_calls):
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
    res = transport.linprog(
        C.ravel()[cols], A_eq=_marginal_system(n, n)[:, cols],
        b_eq=np.concatenate([w, w[:-1]]), bounds=(0, None), method="highs",
    )
    assert res.status == 2  # infeasible
    _check_shortlist(monkeypatch, linprog_calls, C, w, w)


def test_shortlist_round_cap_falls_back_to_full_lp(monkeypatch, linprog_calls, caplog):
    mu, nu = _large_pair(64, seed=3)
    C = CostSpec.norm_power(2).matrix(mu, nu)
    full_x, full = _full_lp(monkeypatch, C, mu.weights, nu.weights)
    monkeypatch.setattr(transport, "SHORTLIST_K", 1)
    monkeypatch.setattr(transport, "SHORTLIST_MAX_ROUNDS", 1)
    linprog_calls.clear()
    with caplog.at_level(logging.WARNING, logger="mkbary"):
        x, obj, _, _, _ = solve_lp_matrix(C, mu.weights, nu.weights)
    assert linprog_calls[0] < C.size and linprog_calls[1:] == [C.size]
    assert [r.getMessage() for r in caplog.records if r.name == "mkbary"] == [
        "transport LP block 0: shortlist still missing columns after 1 rounds; "
        "solving the full LP"]
    np.testing.assert_array_equal(x, full_x)
    assert obj == full


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
        "real = transport.linprog\n"
        "def doubled(c, **kw):  # every shortlist plan comes back with twice its mass\n"
        "    res = real(c, **kw)\n"
        "    res.x = 2 * res.x\n"
        "    return res\n"
        "transport.linprog = doubled\n"
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
