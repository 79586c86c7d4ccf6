import dataclasses

import numpy as np
import pytest

from mkbary import (
    CertificateViolation,
    CostSpec,
    GroundSpace,
    MarginalMismatch,
    TooLarge,
    brute_force_transport,
    canonicalize,
    dirac,
    generate_random_measure,
    glue,
    interpolation_cost,
    mixture,
    solve_transport,
    transport_cost,
    truncate_to_ball,
)

LINE = GroundSpace.euclidean(1)
ABS = CostSpec.norm_power(1)
SQ = CostSpec.norm_power(2)
HALF = CostSpec.metric_power(0.5)


def rand_measure(seed, d=1, lo=-1.0, hi=1.0, max_atoms=4):
    return generate_random_measure(seed, [lo] * d, [hi] * d, max_atoms)


def test_identity_coupling_zero_cost():
    m = canonicalize([[0.0], [0.7], [2.0]], [0.2, 0.3, 0.5], LINE)
    plan = solve_transport(m, m, SQ)
    assert plan.objective == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(plan.coupling, np.diag(m.weights), atol=1e-9)


def test_forced_single_atom_target():
    m = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    plan = solve_transport(m, dirac(LINE, [0.5]), SQ)
    assert plan.objective == pytest.approx(0.25, abs=1e-12)
    plan.check(SQ.matrix(m, dirac(LINE, [0.5])))


def test_worked_2x2():
    mu = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    nu = canonicalize([[1.0], [2.0]], [0.5, 0.5], LINE)
    plan = solve_transport(mu, nu, ABS)
    assert plan.objective == pytest.approx(1.0, abs=1e-12)
    assert brute_force_transport(mu, nu, ABS) == pytest.approx(1.0, abs=1e-12)


def test_plan_invariants_random():
    for seed in range(25):
        mu = rand_measure(seed)
        nu = rand_measure(seed + 1000)
        cost = (ABS, SQ, HALF)[seed % 3]
        C = cost.matrix(mu, nu)
        plan = solve_transport(mu, nu, cost)
        plan.check(C)
        # sparse support after degeneracy cleanup
        assert (plan.coupling > 1e-12).sum() <= mu.n_atoms + nu.n_atoms - 1
        assert plan.gap <= 1e-9 * (1 + plan.objective)


def test_oracle_equivalence_random():
    for seed in range(60):
        mu = rand_measure(seed, max_atoms=4)
        nu = rand_measure(seed + 5000, max_atoms=4)
        cost = (ABS, SQ, HALF)[seed % 3]
        lp = transport_cost(mu, nu, cost)
        bf = brute_force_transport(mu, nu, cost)
        assert abs(lp - bf) <= 1e-9 * (1 + abs(lp))


def test_oracle_equivalence_asymmetric_finite():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n_sp = int(rng.integers(2, 6))
        W = rng.uniform(0.1, 2.0, (n_sp, n_sp))
        W = (W + W.T) / 2
        np.fill_diagonal(W, 0)
        D = W.copy()
        for k in range(n_sp):  # shortest paths force the triangle inequality
            D = np.minimum(D, D[:, [k]] + D[[k], :])
        sp = GroundSpace.finite(D)
        V = rng.uniform(0.0, 3.0, (n_sp, n_sp))
        np.fill_diagonal(V, 0)
        cost = CostSpec.finite_matrix(V)
        ka = int(rng.integers(1, min(4, n_sp) + 1))
        kb = int(rng.integers(1, min(4, n_sp) + 1))
        mu = canonicalize(rng.choice(n_sp, ka, replace=False), rng.dirichlet(np.ones(ka)), sp)
        nu = canonicalize(rng.choice(n_sp, kb, replace=False), rng.dirichlet(np.ones(kb)), sp)
        lp = transport_cost(mu, nu, cost)
        bf = brute_force_transport(mu, nu, cost)
        assert abs(lp - bf) <= 1e-9 * (1 + abs(lp))


def test_brute_force_small_examples():
    assert brute_force_transport(dirac(LINE, [0.0]), dirac(LINE, [1.0]), ABS) == 1.0
    assert brute_force_transport(dirac(LINE, [0.0]), dirac(LINE, [0.0]), ABS) == 0.0


def test_brute_force_size_cap():
    m = canonicalize(np.arange(5.0)[:, None], np.full(5, 0.2), LINE)
    with pytest.raises(TooLarge):
        brute_force_transport(m, m, ABS)


def test_space_mismatch_raises():
    from mkbary import SpaceMismatch

    mu = dirac(LINE, [0.0])
    nu = dirac(GroundSpace.euclidean(2), [0.0, 0.0])
    with pytest.raises(SpaceMismatch):
        solve_transport(mu, nu, SQ)


def test_plan_sparsity_at_larger_sizes():
    rng = np.random.default_rng(6)
    for trial in range(3):
        m, n = 12, 10
        mu = canonicalize(rng.normal(size=(m, 2)), rng.dirichlet(np.ones(m)),
                          GroundSpace.euclidean(2))
        nu = canonicalize(rng.normal(size=(n, 2)), rng.dirichlet(np.ones(n)),
                          GroundSpace.euclidean(2))
        plan = solve_transport(mu, nu, SQ)
        plan.check(SQ.matrix(mu, nu))
        assert (plan.coupling > 1e-12).sum() <= mu.n_atoms + nu.n_atoms - 1


def test_identity_and_positivity():
    for seed in range(10):
        m = rand_measure(seed)
        assert transport_cost(m, m, SQ) <= 1e-12
    a = dirac(LINE, [0.0])
    b = dirac(LINE, [0.25])
    assert transport_cost(a, b, SQ) > 0


def test_symmetry_for_symmetric_costs():
    for seed in range(10):
        mu, nu = rand_measure(seed), rand_measure(seed + 77)
        assert transport_cost(mu, nu, SQ) == pytest.approx(
            transport_cost(nu, mu, SQ), abs=1e-9
        )


def test_convexity_of_J():
    rng = np.random.default_rng(4)
    for seed in range(10):
        mu0, nu0 = rand_measure(seed), rand_measure(seed + 11)
        mu1, nu1 = rand_measure(seed + 22), rand_measure(seed + 33)
        j0 = transport_cost(mu0, nu0, SQ)
        j1 = transport_cost(mu1, nu1, SQ)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            lhs = transport_cost(mixture(mu0, mu1, t), mixture(nu0, nu1, t), SQ)
            assert lhs <= (1 - t) * j0 + t * j1 + 1e-9


def test_symmetrized_q_root_is_a_metric_on_samples():
    from mkbary import growth_constants

    q = growth_constants(SQ).q

    def rho(a, b):
        return max(transport_cost(a, b, SQ), transport_cost(b, a, SQ)) ** (1.0 / q)

    for seed in range(8):
        mu, nu, lam = rand_measure(seed), rand_measure(seed + 50), rand_measure(seed + 90)
        assert rho(mu, mu) <= 1e-9
        if not mu.same_as(nu):
            assert rho(mu, nu) > 0
        assert rho(mu, nu) == pytest.approx(rho(nu, mu), abs=1e-9)
        assert rho(mu, nu) <= rho(mu, lam) + rho(lam, nu) + 1e-9


def test_relaxed_triangle_at_measure_level():
    # J(mu, nu) <= A_eps + (1+eps) J(mu, lam) + C_eps J(lam, nu)
    from mkbary import relaxed_constants

    for eps in (0.1, 1.0):
        rc = relaxed_constants(SQ, eps, dim=1)
        for seed in range(12):
            mu, nu, lam = rand_measure(seed), rand_measure(seed + 3), rand_measure(seed + 6)
            j_mn = transport_cost(mu, nu, SQ)
            bound = rc.A_eps + (1 + eps) * transport_cost(mu, lam, SQ) \
                + rc.C_eps * transport_cost(lam, nu, SQ)
            assert j_mn <= bound + 1e-9 * (1 + j_mn)


def test_interpolation_examples():
    d0, d1 = dirac(LINE, [0.0]), dirac(LINE, [1.0])
    assert interpolation_cost(d0, d1, 0.0, 1.0, SQ) == (1.0, 1.0)
    value, bound = interpolation_cost(d0, d1, 0.0, 0.5, SQ)
    assert value == pytest.approx(0.5, abs=1e-12)
    assert bound == pytest.approx(0.5, abs=1e-12)
    assert interpolation_cost(d0, d1, 0.3, 0.3, SQ) == (0.0, 0.0)


def test_interpolation_bound_random():
    for seed in range(15):
        mu0, mu1 = rand_measure(seed), rand_measure(seed + 99)
        for t, tp in ((0.0, 0.25), (0.25, 0.75), (0.5, 1.0)):
            value, bound = interpolation_cost(mu0, mu1, t, tp, SQ)
            assert value <= bound + 1e-9


def test_glue_simple_shared_dirac():
    mu = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    nu = canonicalize([[2.0], [3.0]], [0.25, 0.75], LINE)
    lam = dirac(LINE, [0.0])
    sigma = glue(solve_transport(mu, lam, SQ), solve_transport(nu, lam, SQ))
    np.testing.assert_allclose(
        sigma.marginal_xy(), np.outer(mu.weights, nu.weights), atol=1e-12
    )


def test_glue_diagonal_plans():
    m = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    g = solve_transport(m, m, SQ)
    sigma = glue(g, g)
    # sigma concentrates on (x, x, x)
    for i in range(2):
        assert sigma.sigma[i, i, i] == pytest.approx(0.5, abs=1e-9)
    assert sigma.sigma.sum() == pytest.approx(1.0, abs=1e-9)


def test_glue_upper_bounds_J():
    for seed in range(10):
        mu, nu, lam = rand_measure(seed), rand_measure(seed + 1), rand_measure(seed + 2)
        sigma = glue(solve_transport(mu, lam, SQ), solve_transport(nu, lam, SQ))
        assert sigma.projected_xy_cost(SQ) >= transport_cost(mu, nu, SQ) - 1e-9


def test_glue_marginal_mismatch():
    mu = rand_measure(0)
    with pytest.raises(MarginalMismatch):
        glue(solve_transport(mu, dirac(LINE, [0.0]), SQ),
             solve_transport(mu, dirac(LINE, [1.0]), SQ))
    # a second plan whose mass exceeds lam by 1e-7 moves the first plan's
    # glued marginal by 5e-8, within numpy's default relative slack
    m = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    plan = solve_transport(m, m, SQ)
    heavy = dataclasses.replace(plan, coupling=plan.coupling * (1 + 1e-7))
    with pytest.raises(MarginalMismatch, match="first plan"):
        glue(plan, heavy)


def test_plan_check_marginals_are_absolute():
    m = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    plan = solve_transport(m, m, SQ)
    plan.check(SQ.matrix(m, m))
    coupling = plan.coupling.copy()
    coupling[0, 0] += 1e-7  # a free cell: the objective and the duals still hold
    with pytest.raises(CertificateViolation, match="source marginal"):
        dataclasses.replace(plan, coupling=coupling).check(SQ.matrix(m, m))


def test_lower_semicontinuity_surrogate():
    # J(mu, nu) <= min over late truncations of J(mu, nu_n)
    rng = np.random.default_rng(5)
    nu = canonicalize(rng.uniform(-2, 2, (4, 1)), rng.dirichlet(np.ones(4)), LINE)
    mu = canonicalize(rng.uniform(-2, 2, (3, 1)), rng.dirichlet(np.ones(3)), LINE)
    j_limit = transport_cost(mu, nu, SQ)
    radii = [1.0, 2.0, 4.0, 8.0, 16.0]
    family = [truncate_to_ball(nu, [0.0], r, SQ) for r in radii]
    support_radius = max(SQ.evaluate([0.0], a) for a in nu.atoms)
    late = [transport_cost(mu, f, SQ) for f, r in zip(family, radii) if r > support_radius]
    assert j_limit <= min(late) + 1e-6
