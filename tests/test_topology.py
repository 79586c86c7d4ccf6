import numpy as np
import pytest

from mkbary import (
    CostSpec,
    GroundSpace,
    canonicalize,
    check_convergence,
    dirac,
    generate_random_measure,
    solve_transport,
    tail_cost,
    transport_cost,
    truncate_plan,
    truncate_to_ball,
    weak_proxy_distance,
)
from mkbary.topology import diagnostics_to_csv, uniform_tail_radius

LINE = GroundSpace.euclidean(1)
SQ = CostSpec.norm_power(2)
ABS = CostSpec.norm_power(1)


def test_weak_proxy_examples():
    m = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    assert weak_proxy_distance(m, m) == pytest.approx(0.0, abs=1e-12)
    assert weak_proxy_distance(dirac(LINE, [0.0]), dirac(LINE, [5.0])) == pytest.approx(1.0)
    assert weak_proxy_distance(dirac(LINE, [0.0]), dirac(LINE, [0.25])) == pytest.approx(0.25)


def test_constant_sequence_is_consistent():
    nu = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    diag = check_convergence([nu] * 6, nu, dirac(LINE, [0.0]), SQ)
    assert diag.verdict == "consistent_with_J_convergence"


def test_escaping_mass_is_weak_only():
    ns = list(range(2, 14))
    seq = [canonicalize([[0.0], [float(n)]], [1 - 1 / n, 1 / n], LINE) for n in ns]
    d0 = dirac(LINE, [0.0])
    diag = check_convergence(seq, d0, d0, SQ)
    assert diag.verdict == "weak_only"
    for n, ref in zip(ns, diag.reference_J):
        assert ref == pytest.approx(float(n), abs=1e-9 * (1 + n))


def test_truncation_family_consistent():
    nu = generate_random_measure(11, [-2.0], [2.0], 4)
    family = [truncate_to_ball(nu, [0.0], float(n), SQ) for n in range(1, 10)]
    diag = check_convergence(family, nu, dirac(LINE, [0.0]), SQ)
    assert diag.verdict == "consistent_with_J_convergence"


def test_divergent_sequence():
    seq = [dirac(LINE, [3.0 + (n % 2)]) for n in range(8)]
    diag = check_convergence(seq, dirac(LINE, [0.0]), dirac(LINE, [0.0]), SQ)
    assert diag.verdict == "divergent"


def test_strong_to_weak_on_generated_sequences():
    # J_forward tiny forces the weak proxy tiny
    nu = generate_random_measure(13, [-1.0], [1.0], 4)
    family = [truncate_to_ball(nu, [0.0], float(n), SQ) for n in range(1, 8)]
    diag = check_convergence(family, nu, dirac(LINE, [0.0]), SQ)
    for jf, wp in zip(diag.J_forward, diag.weak_proxy):
        if jf < 1e-8:
            assert wp < 1e-3


def test_bounded_weak_to_strong():
    # supports inside a fixed bounded set: proxy -> 0 forces both J tracks -> 0
    nu = generate_random_measure(17, [-1.0], [1.0], 4)
    family = [truncate_to_ball(nu, [0.0], float(n), SQ) for n in range(1, 10)]
    diag = check_convergence(family, nu, dirac(LINE, [0.0]), SQ)
    k = max(1, len(family) // 3)
    assert max(diag.weak_proxy[-k:]) <= 1e-6
    assert max(diag.J_forward[-k:]) <= 1e-6
    assert max(diag.J_backward[-k:]) <= 1e-6


def test_diagnostics_csv(tmp_path):
    nu = dirac(LINE, [0.0])
    diag = check_convergence([nu, nu], nu, nu, SQ)
    path = tmp_path / "diag.csv"
    diagnostics_to_csv(diag, path)
    header = path.read_text().splitlines()[0]
    assert header == "n,J_forward,J_backward,weak_proxy,reference_J"


def test_truncate_plan_diagonal_noop():
    m = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    plan = solve_transport(m, m, SQ)
    nu_t, new_plan, drop = truncate_plan(plan, [0.0], 5.0, SQ)
    assert nu_t.same_as(m)
    assert drop == pytest.approx(0.0, abs=1e-12)
    assert new_plan.objective == pytest.approx(0.0, abs=1e-12)


def test_truncate_plan_full_collapse():
    mu = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    nu = canonicalize([[0.5], [1.5]], [0.5, 0.5], LINE)
    plan = solve_transport(mu, nu, SQ)
    # every atom sits inside B_R, so lambda = gamma and nu_tilde = nu
    nu_t, new_plan, drop = truncate_plan(plan, [0.0], 10.0, SQ)
    assert nu_t.same_as(nu)
    assert new_plan.objective == pytest.approx(0.0, abs=1e-12)
    assert drop == pytest.approx(0.0, abs=1e-12)


def test_truncate_plan_split_support():
    mu = canonicalize([[0.0], [4.0]], [0.5, 0.5], LINE)
    nu = canonicalize([[0.5], [4.5]], [0.5, 0.5], LINE)
    plan = solve_transport(mu, nu, ABS)
    nu_t, new_plan, drop = truncate_plan(plan, [0.0], 1.0, ABS)
    # phi = 1 on {0, 0.5}, 0 on {4, 4.5}: only the near pair is removed
    C = ABS.matrix(plan.source, plan.target)
    k_gamma = float((plan.coupling * C).sum())
    assert drop == pytest.approx(k_gamma - 0.5 * 0.5, abs=1e-12)
    # target marginal is preserved exactly
    np.testing.assert_allclose(new_plan.coupling.sum(axis=0), nu.weights, atol=1e-12)
    assert new_plan.objective == pytest.approx(drop, abs=1e-9)
    # the surgery bounds the distance between the new source and the target
    assert transport_cost(nu_t, nu, ABS) <= drop + 1e-9


def test_truncate_plan_marginal_identity_random():
    for seed in range(8):
        mu = generate_random_measure(seed, [-3.0], [3.0], 4)
        nu = generate_random_measure(seed + 40, [-3.0], [3.0], 4)
        plan = solve_transport(mu, nu, SQ)
        nu_t, new_plan, drop = truncate_plan(plan, [0.0], 2.0, SQ)
        np.testing.assert_allclose(new_plan.coupling.sum(axis=0), nu.weights, atol=1e-9)
        np.testing.assert_allclose(new_plan.coupling.sum(axis=1), nu_t.weights, atol=1e-9)
        assert new_plan.objective == pytest.approx(drop, abs=1e-9)
        assert transport_cost(nu_t, nu, SQ) <= drop + 1e-9


TRI = GroundSpace.finite([[0.0, 10.0, 10.0], [10.0, 0.0, 10.0], [10.0, 10.0, 0.0]])


def test_truncate_plan_finite_metric_power():
    # three points 10 apart: phi is 1 at point 0 and 0 at points 1 and 2,
    # so only the 0 -> 0 mass is cut and the 1 -> 2 cost of 5 drops out
    mu = canonicalize([0, 1], [0.5, 0.5], TRI)
    nu = canonicalize([0, 2], [0.5, 0.5], TRI)
    plan = solve_transport(mu, nu, CostSpec.metric_power(1))
    nu_t, new_plan, drop = truncate_plan(plan, 0, 5.0, CostSpec.metric_power(1))
    assert drop == pytest.approx(5.0, abs=1e-12)
    assert nu_t.same_as(mu)
    assert new_plan.objective == pytest.approx(5.0, abs=1e-12)


def test_finite_metric_power_tail_radius():
    # the tail is scored by rho, not by the point indices
    nu = canonicalize([0, 1, 2], [0.5, 0.25, 0.25], TRI)
    assert uniform_tail_radius([nu], 0, CostSpec.metric_power(1), 1e-9) == 16.0
    assert uniform_tail_radius([nu], 0, CostSpec.metric_power(2), 1e-9) == 128.0


def test_uniform_tail_radius():
    family = [generate_random_measure(s, [-2.0], [2.0], 4) for s in range(6)]
    R = uniform_tail_radius(family, [0.0], SQ, 1e-6)
    assert max(tail_cost(nu, [0.0], R, SQ) for nu in family) <= 1e-6
