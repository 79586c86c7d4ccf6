import re

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



def _reference_B(c, cap=1e6):
    """All-triples B with full n**3 temporaries: the formula the slabbed scan keeps."""
    num = c[:, :, None]
    best = 1.0
    for denom in (c[:, None, :] + c[None, :, :], c[:, None, :] + c.T[None, :, :],
                  c.T[:, None, :] + c[None, :, :], c.T[:, None, :] + c.T[None, :, :]):
        pos = num > 1e-15
        bad = pos & (denom <= 1e-15)
        if np.any(bad):
            i, j, k = np.argwhere(bad)[0]
            raise UnboundedRatio(f"c({i},{j}) > 0 but the triangle denominator through z={k} is 0")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(pos, num / np.maximum(denom, 1e-300), 0.0)
        best = max(best, float(ratios.max()))
    if best > cap:
        raise UnboundedRatio(f"growth ratio {best:.3g} exceeds cap {cap:.3g}")
    return best


def _reference_C_eps(c, eps):
    """All-triples C_eps with full n**3 temporaries, witnesses included."""
    n = c.shape[0]
    cxy, cxz, cyz, czy, czx = (np.broadcast_to(v, (n, n, n)) for v in (
        c[:, :, None], c[:, None, :], c[None, :, :], c.T[None, :, :], c.T[:, None, :]))
    C_eps = 1.0
    for need, den in ((cxy - (1.0 + eps) * cxz, cyz), (cxy - (1.0 + eps) * czy, czx)):
        dead = (den <= 1e-15) & (need > 1e-12)
        if np.any(dead):
            raise ConstructionFailed(
                "no finite C_eps: the multiplied cost vanishes where slack is needed",
                tuple(int(v) for v in np.argwhere(dead)[0]))
        ratios = np.where(den > 1e-15, need / np.maximum(den, 1e-300), 0.0)
        C_eps = max(C_eps, float(ratios.max()))
    slack = 1e-9 * (1.0 + cxy)
    viol = (cxy > 0.0 + (1 + eps) * cxz + C_eps * cyz + slack) | (
        cxy > 0.0 + (1 + eps) * czy + C_eps * czx + slack)
    if np.any(viol):
        raise ConstructionFailed(f"relaxed inequality fails at eps={eps}",
                                 tuple(int(v) for v in np.argwhere(viol)[0]))
    return C_eps


def _outcome(f, *args):
    try:
        return f(*args)
    except (UnboundedRatio, ConstructionFailed) as exc:
        return type(exc), exc.args


def _random_tables(seed, planted=0):
    """Asymmetric and symmetric random cost tables, n from 3 to 60.

    ``planted`` triples each get the two near-zero entries (0 or 5e-16) that
    make one random denominator variant of B vanish under a positive c(x, y).
    """
    rng = np.random.default_rng(seed)
    for n in (3, 4, 7, 13, 29, 60):
        vals = rng.uniform(0.0, 2.0, size=(n, n)) ** 3
        for _ in range(planted):
            x, y, z = rng.choice(n, size=3, replace=False)
            v = rng.integers(4)
            vals[(x, z) if v < 2 else (z, x)] = rng.choice([0.0, 5e-16])
            vals[(y, z) if v % 2 == 0 else (z, y)] = rng.choice([0.0, 5e-16])
        np.fill_diagonal(vals, 0.0)
        yield vals
        yield np.minimum(vals, vals.T)


def _edge_tables():
    # points 0 and 3 coincide, yet c(0, 1) != c(3, 1): the second relaxed
    # variant fails in the first slab of two rows, the first one only at x = 5
    twins = np.ones((6, 6)) - np.eye(6)
    twins[0, 3] = twins[3, 0] = 0.0
    twins[0, 1] = twins[5, 0] = 3.0
    # every cost is below the 1e-15 positivity cut, so no ratio counts
    tiny = np.array([[0.0, 1e-15, 1e-16], [1e-15, 0.0, 1e-16], [1e-16, 1e-16, 0.0]])
    return [twins, tiny]


def _slabbed(monkeypatch, n, rows):
    import mkbary.measures as measures

    monkeypatch.setattr(measures, "TRIANGLE_SLAB_BYTES", rows * 8 * n * n)


def test_finite_constants_match_full_enumeration_bit_for_bit(monkeypatch):
    from mkbary.costs import _q_from_B

    for vals in _random_tables(21):
        _slabbed(monkeypatch, len(vals), rows=3)
        cost = CostSpec.finite_matrix(vals)
        g = growth_constants(cost, cap=np.inf)
        B = _reference_B(vals, cap=np.inf)
        assert (g.B, (g.q, g.q0)) == (B, _q_from_B(B))
        for eps in (0.1, 1.0):
            assert relaxed_constants(cost, eps).C_eps == _reference_C_eps(vals, eps)


def test_finite_constants_name_the_full_enumerations_witness(monkeypatch):
    # planted zeros make several triples fail, in several variants and slabs
    tables = [vals for seed in range(4) for vals in _random_tables(seed, planted=1 + seed)]
    late = 0
    for vals in tables + _edge_tables():
        _slabbed(monkeypatch, len(vals), rows=2)
        cost = CostSpec.finite_matrix(vals)
        ref = _outcome(_reference_B, vals)
        assert _outcome(lambda: growth_constants(cost).B) == ref
        named = isinstance(ref, tuple) and re.match(r"c\((\d+),", ref[1][0])
        late += bool(named) and int(named[1]) > 1
        for eps in (0.1, 1.0):
            ref = _outcome(_reference_C_eps, vals, eps)
            assert _outcome(lambda: relaxed_constants(cost, eps).C_eps) == ref
            late += isinstance(ref, tuple) and ref[1][1][0] > 1
    assert late > 10  # many witnesses lie beyond the first x slab


def test_finite_constants_bounded_memory():
    import tracemalloc

    rng = np.random.default_rng(4)
    pts = rng.uniform(size=(250, 2))
    cost = CostSpec.finite_matrix(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    for f in (lambda: growth_constants(cost), lambda: relaxed_constants(cost, 0.5)):
        tracemalloc.start()
        try:
            f()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n**3 temporary would be 125 MB; the table itself is 0.5 MB
        assert peak < 64 * 2**20
