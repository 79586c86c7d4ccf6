import numpy as np
import pytest

from mkbary import (
    ConstructionFailed,
    CostSpec,
    GroundSpace,
    SpaceMismatch,
    UnboundedRatio,
    canonicalize,
    consistency_check,
    growth_constants,
    relaxed_constants,
)
from mkbary.costs import cost_from_json, cost_to_json, halton_sample

LINE = GroundSpace.euclidean(1)
PLANE = GroundSpace.euclidean(2)


def test_evaluate_powers():
    assert CostSpec.metric_power(2).evaluate([0.0], [3.0]) == 9.0
    assert CostSpec.norm_power(1).evaluate([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)
    assert CostSpec.norm_power(4).evaluate([1.0], [1.0]) == 0.0


def test_cost_matrix_examples():
    d0 = canonicalize([[0.0]], [1.0], LINE)
    m = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    n = canonicalize([[2.0]], [1.0], LINE)
    assert CostSpec.norm_power(1).matrix(d0, d0).tolist() == [[0.0]]
    assert CostSpec.norm_power(1).matrix(m, n).tolist() == [[2.0], [1.0]]
    both = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    assert CostSpec.norm_power(2).matrix(m, both).tolist() == [[0.0, 1.0], [1.0, 0.0]]

    # table agrees with the scalar evaluate on every (cost kind, space kind)
    # pair that scores points, and refuses the others
    rng = np.random.default_rng(5)
    rho = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    finite = GroundSpace.finite(rho)

    def skew(u):  # convex and asymmetric: 2u on the right, -u on the left
        return float(2.0 * max(u[0], 0.0) - min(u[0], 0.0) + np.sum(u[1:] ** 2))

    skews = {1: CostSpec.translation(skew, dim=1), 2: CostSpec.translation(skew, dim=2)}
    table3 = CostSpec.finite_matrix([[0.0, 1.0, 3.0], [2.0, 0.0, 1.0], [1.0, 2.0, 0.0]])
    for space in (LINE, PLANE):
        X = rng.normal(size=(4, space.dim))
        Y = rng.normal(size=(3, space.dim))
        for cost in (CostSpec.metric_power(3), CostSpec.norm_power(1), CostSpec.norm_power(2),
                     skews[space.dim]):
            expect = [[cost.evaluate(x, y) for y in Y] for x in X]
            np.testing.assert_allclose(cost.table(space, X, Y), expect, rtol=1e-14, atol=0.0)
        with pytest.raises(SpaceMismatch):
            table3.table(space, X, Y)
    with pytest.raises(SpaceMismatch):
        CostSpec.norm_power(2).table(LINE, [[0.0]], [[0.0, 1.0]])
    ix, iy = [0, 2, 1, 2], [1, 0, 2]
    for cost, scalar in ((table3, table3),
                         (CostSpec.metric_power(2), CostSpec.finite_matrix(rho ** 2))):
        expect = [[scalar.evaluate(x, y) for y in iy] for x in ix]
        assert cost.table(finite, ix, iy).tolist() == expect
    for cost in (CostSpec.norm_power(1), skews[1],
                 CostSpec.finite_matrix([[0.0, 1.0], [1.0, 0.0]])):
        with pytest.raises(SpaceMismatch):
            cost.table(finite, ix, iy)


def test_growth_constants_norm_powers():
    g2 = growth_constants(CostSpec.norm_power(2))
    assert (g2.A, g2.B, g2.q0, g2.q) == (0.0, 2.0, 2.0, 6.0)
    g1 = growth_constants(CostSpec.norm_power(1))
    assert (g1.A, g1.B, g1.q0, g1.q) == (0.0, 1.0, 1.0, 3.0)
    g4 = growth_constants(CostSpec.norm_power(4))
    assert (g4.B, g4.q) == (8.0, 24.0)
    assert g2.provenance == "analytic"


def test_growth_constants_concave_power():
    g = growth_constants(CostSpec.metric_power(0.5))
    assert (g.A, g.B) == (0.0, 1.0)


def test_growth_constants_deterministic():
    c = CostSpec.norm_power(3)
    assert growth_constants(c) == growth_constants(c)


def test_growth_constants_declared():
    c = CostSpec.norm_power(2, declared={"A": 0.0, "B": 2.0, "q": 7.0})
    g = growth_constants(c)
    assert g.q == 7.0 and g.provenance == "declared"


def test_growth_constants_custom_sampled():
    c = CostSpec.translation(lambda u: float(u[0] ** 2), convex=True, dim=1)
    g = growth_constants(c, sample_size=2000)
    assert g.provenance == "sampled_lower_bound"
    assert g.B == pytest.approx(2.0, rel=1e-6)  # attained on the u = v diagonal


def test_growth_constants_finite_enumeration():
    vals = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
    g = growth_constants(CostSpec.finite_matrix(vals))
    # worst triple is c(0,2)=4 against c(0,1)+c(1,2)=2
    assert g.B == pytest.approx(2.0)


def test_unbounded_ratio_for_broken_matrix():
    # c(0,1) > 0 while the whole path through z=2 costs nothing
    vals = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(UnboundedRatio):
        growth_constants(CostSpec.finite_matrix(vals))


def test_weak_triangle_on_grid_builtins():
    # all four Assumption variants with analytic (A, B) on a sampled grid
    for cost in (CostSpec.norm_power(1), CostSpec.norm_power(2), CostSpec.metric_power(0.5)):
        g = growth_constants(cost)
        pts = halton_sample(400, 6, -2.0, 2.0)
        for row in pts:
            x, y, z = row[:2], row[2:4], row[4:]
            cxy = cost.evaluate(x, y)
            parts = [
                cost.evaluate(x, z) + cost.evaluate(y, z),
                cost.evaluate(x, z) + cost.evaluate(z, y),
                cost.evaluate(z, x) + cost.evaluate(y, z),
                cost.evaluate(z, x) + cost.evaluate(z, y),
            ]
            for s in parts:
                assert cxy <= g.A + g.B * s + 1e-9


def test_q_root_subadditive_on_grid():
    for p in (1.0, 2.0, 4.0):
        cost = CostSpec.norm_power(p)
        q = growth_constants(cost).q
        uv = halton_sample(500, 4, -2.0, 2.0)
        g = lambda u: float(np.sum(u**2) ** (p / 2.0))
        for row in uv:
            u, v = row[:2], row[2:]
            assert g(u + v) ** (1 / q) <= g(u) ** (1 / q) + g(v) ** (1 / q) + 1e-9


def test_relaxed_constants_norm2():
    rc = relaxed_constants(CostSpec.norm_power(2), 1.0, dim=2)
    assert rc.A_eps == 0.0 and rc.C_eps == 8.0  # B^(k+1) with B=2, k=2


def test_relaxed_constants_triangle_case():
    rc = relaxed_constants(CostSpec.norm_power(1), 0.25, dim=2)
    assert (rc.A_eps, rc.C_eps) == (0.0, 1.0)


def test_relaxed_constants_finite_metric():
    rho = np.array([[0.0, 1.0], [1.0, 0.0]])
    rc = relaxed_constants(CostSpec.finite_matrix(rho), 0.5)
    assert (rc.A_eps, rc.C_eps) == (0.0, 1.0)


def test_relaxed_constants_rejects_bad_declared():
    # declaring B=1 for the squared cost forces C=1, which the grid refutes
    c = CostSpec.norm_power(2, declared={"A": 0.0, "B": 1.0})
    with pytest.raises(ConstructionFailed):
        relaxed_constants(c, 0.5, dim=1)


def test_consistency_check_passes_builtin():
    sample = [np.array([v]) for v in (-1.0, 0.0, 1.0)]
    assert consistency_check(CostSpec.metric_power(2), sample).passed
    rng = np.random.default_rng(3)
    sample2 = [rng.normal(size=2) for _ in range(4)]
    assert consistency_check(CostSpec.norm_power(4), sample2).passed


def test_consistency_check_refuses_indices_for_metric_power():
    with pytest.raises(SpaceMismatch):
        consistency_check(CostSpec.metric_power(1), [0, 1, 2])
    rho = np.array([[0.0, 10.0, 10.0], [10.0, 0.0, 10.0], [10.0, 10.0, 0.0]])
    assert consistency_check(CostSpec.finite_matrix(rho ** 1), [0, 1, 2]).passed


def test_consistency_check_fails_zero_off_diagonal():
    vals = np.array([[0.0, 0.0], [0.0, 0.0]])
    rep = consistency_check(CostSpec.finite_matrix(vals), [0, 1])
    assert not rep.passed
    assert any(f[0] == "zero_off_diagonal" for f in rep.failures)


def test_asymmetric_finite_matrix():
    vals = np.array([[0.0, 1.0, 3.0], [2.0, 0.0, 1.0], [1.0, 2.0, 0.0]])
    c = CostSpec.finite_matrix(vals)
    assert not c.is_symmetric
    g = growth_constants(c)
    # every one of the four variants must hold with the enumerated B
    n = 3
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for denom in (vals[i, k] + vals[j, k], vals[i, k] + vals[k, j],
                              vals[k, i] + vals[j, k], vals[k, i] + vals[k, j]):
                    assert vals[i, j] <= g.A + g.B * denom + 1e-12


def test_cost_json_roundtrip():
    for c in (CostSpec.metric_power(2), CostSpec.norm_power(4),
              CostSpec.finite_matrix([[0.0, 1.0], [1.0, 0.0]])):
        again = cost_from_json(cost_to_json(c))
        assert again.kind == c.kind
    with pytest.raises(ValueError):
        cost_to_json(CostSpec.translation(lambda u: float(abs(u[0])), dim=1))


def test_halton_matches_scipy_unscrambled():
    from scipy.stats import qmc

    for d in (1, 2, 3, 6):
        for n in (0, 1, 2, 97, 10_000):
            ref = qmc.Halton(d=d, scramble=False).random(n)
            got = halton_sample(n, d, 0.0, 1.0)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _first_scalar_violation(cost, eps, A_eps, C_eps, X, Y, Z):
    for x, y, z in zip(X, Y, Z):
        cxy = cost.evaluate(x, y)
        slack = 1e-9 * (1.0 + cxy)
        lhs1 = A_eps + (1.0 + eps) * cost.evaluate(x, z) + C_eps * cost.evaluate(y, z)
        lhs2 = A_eps + (1.0 + eps) * cost.evaluate(z, y) + C_eps * cost.evaluate(z, x)
        if cxy > lhs1 + slack or cxy > lhs2 + slack:
            return x, y, z
    return None


def test_relaxed_check_names_the_scalar_loops_triple():
    from mkbary.costs import _check_relaxed_on_triples

    quartic = CostSpec.translation(lambda u: float(np.sum(u**4)), dim=2)
    for cost, dim, C_eps in ((CostSpec.norm_power(2), 1, 1.0), (CostSpec.norm_power(3), 2, 1.5),
                             (CostSpec.metric_power(2), 3, 2.0), (quartic, 2, 4.0)):
        pts = halton_sample(2000, 3 * dim, -1.0, 1.0)
        X, Y, Z = pts[:, :dim], pts[:, dim : 2 * dim], pts[:, 2 * dim :]
        ref = _first_scalar_violation(cost, 0.5, 0.0, C_eps, X, Y, Z)
        assert ref is not None
        with pytest.raises(ConstructionFailed) as err:
            _check_relaxed_on_triples(cost, 0.5, 0.0, C_eps, X, Y, Z)
        assert all(np.array_equal(a, b) for a, b in zip(err.value.args[1], ref))
        # the constructed constant passes both the loop and the vectorized check
        good = relaxed_constants(cost, 0.5, dim=dim)
        assert _first_scalar_violation(cost, 0.5, good.A_eps, good.C_eps, X, Y, Z) is None
