"""The batched transport LP kernel against per-problem solves and the oracle."""

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


def test_transport_batch_plans_pass_their_certificates(linprog_calls):
    sq = CostSpec.norm_power(2)
    pairs = _random_pairs(150, seed=900)
    big = _large_pair(128, seed=7)
    pairs.insert(60, big)
    plans = solve_transport_batch(pairs, sq)
    assert 128 * 128 in linprog_calls  # the large problem is solved alone
    for (mu, nu), plan in zip(pairs, plans):
        assert plan.source is mu and plan.target is nu
        plan.check(sq.matrix(mu, nu))
    _, single, _, _, _ = solve_lp_matrix(sq.matrix(*big), big[0].weights, big[1].weights)
    assert abs(plans[60].objective - single) <= 1e-9 * (1 + abs(single))


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
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "raised transport plan fails" in proc.stdout
