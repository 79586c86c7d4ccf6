import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkbary import (
    CostSpec,
    EmptySupport,
    GroundSpace,
    ImageOutsideSpace,
    MassNotOne,
    NegativeWeight,
    SpaceMismatch,
    canonicalize,
    dirac,
    measure_from_json,
    measure_to_json,
    mixture,
    pushforward,
    restrict_and_mix,
    tail_cost,
    truncate_to_ball,
)

LINE = GroundSpace.euclidean(1)
ABS = CostSpec.norm_power(1)
SQ = CostSpec.norm_power(2)


def test_canonicalize_merges_duplicates():
    m = canonicalize([[0.0], [0.0], [1.0]], [0.25, 0.25, 0.5], LINE)
    assert m.atoms.ravel().tolist() == [0.0, 1.0]
    assert m.weights.tolist() == [0.5, 0.5]


def test_canonicalize_merges_non_neighbours():
    # (1e-13, 5) is within ATOM_MERGE_TOL of (0, 5), but (5e-14, 0) sits
    # between them in lexsort order
    m = canonicalize([[0.0, 5.0], [1e-13, 5.0], [5e-14, 0.0]], [0.25, 0.25, 0.5],
                     GroundSpace.euclidean(2))
    assert m.atoms.tolist() == [[0.0, 5.0], [5e-14, 0.0]]
    assert m.weights.tolist() == [0.5, 0.5]


_near_atoms = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(st.lists(st.sampled_from([0.0, 1.0, 5.0]), min_size=d, max_size=d),
              st.lists(st.integers(-15, 15), min_size=d, max_size=d),
              st.floats(0.01, 1.0)),
    min_size=1, max_size=12))


@given(_near_atoms)
@settings(max_examples=300, deadline=None)
def test_sort_and_merge_separates_atoms_and_keeps_mass(rows):
    from mkbary.measures import ATOM_MERGE_TOL, _sort_and_merge

    # base points a few units apart, moved by multiples of ATOM_MERGE_TOL / 10
    atoms = np.array([np.array(base) + np.array(steps) * ATOM_MERGE_TOL / 10
                      for base, steps, _ in rows])
    weights = np.array([w for _, _, w in rows])
    space = GroundSpace.euclidean(atoms.shape[1])
    out_atoms, out_weights = _sort_and_merge(space, atoms.copy(), weights.copy())
    assert out_weights.sum() == pytest.approx(weights.sum(), rel=1e-14)
    gaps = np.max(np.abs(out_atoms[:, None, :] - out_atoms[None, :, :]), axis=-1)
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() > ATOM_MERGE_TOL
    # every input atom went to a kept atom within the tolerance
    assert np.all(np.abs(atoms[:, None, :] - out_atoms[None, :, :]).max(axis=-1).min(axis=1)
                  <= ATOM_MERGE_TOL)
    m = canonicalize(atoms, weights / weights.sum(), space)
    assert m.atoms.tolist() == out_atoms.tolist()
    # the plain loop: in lexsort order, join the first kept atom within the tolerance
    order = np.lexsort(atoms.T[::-1])
    kept, sums = [], []
    for i in order:
        near = [k for k, a in enumerate(kept) if np.max(np.abs(atoms[i] - a)) <= ATOM_MERGE_TOL]
        if near:
            sums[near[0]] += weights[i]
        else:
            kept.append(atoms[i])
            sums.append(weights[i])
    assert out_atoms.tolist() == np.array(kept).tolist() and out_weights.tolist() == sums


def test_canonicalize_identity():
    m = canonicalize([[0.0]], [1.0], LINE)
    assert m.atoms.ravel().tolist() == [0.0]
    assert m.weights.tolist() == [1.0]


def test_canonicalize_rejects_bad_mass():
    with pytest.raises(MassNotOne):
        canonicalize([[0.0], [1.0]], [0.7, 0.2], LINE)


def test_canonicalize_rejects_negative_weight():
    with pytest.raises(NegativeWeight):
        canonicalize([[0.0], [1.0]], [1.5, -0.5], LINE)


def test_canonicalize_rejects_empty():
    with pytest.raises(EmptySupport):
        canonicalize(np.zeros((0, 1)), [], LINE)
    # zero weights are dropped, not kept as empty atoms
    m = canonicalize([[0.0], [1.0]], [1.0, 0.0], LINE)
    assert m.n_atoms == 1


def test_canonicalize_drops_zero_weights():
    m = canonicalize([[0.0], [1.0], [2.0]], [0.5, 0.0, 0.5], LINE)
    assert m.atoms.ravel().tolist() == [0.0, 2.0]


def test_weights_sum_exactly_one():
    w = np.array([1.0, 1.0, 1.0]) / 3.0
    m = canonicalize([[0.0], [1.0], [2.0]], w, LINE)
    assert m.weights.sum() == 1.0


def test_pushforward_translation():
    m = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    out = pushforward(m, lambda x: x + 1.0)
    assert out.atoms.ravel().tolist() == [1.0, 2.0]
    np.testing.assert_allclose(out.weights, [0.5, 0.5])


def test_pushforward_constant_map_merges():
    m = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    out = pushforward(m, lambda x: np.zeros(1))
    assert out.n_atoms == 1
    assert out.weights.tolist() == [1.0]


def test_pushforward_identity():
    m = dirac(LINE, [0.0])
    out = pushforward(m, lambda x: x)
    assert out.same_as(m)


def test_pushforward_preserves_mass_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        atoms = rng.normal(size=(n, 2))
        w = rng.dirichlet(np.ones(n))
        m = canonicalize(atoms, w, GroundSpace.euclidean(2))
        out = pushforward(m, lambda x: np.round(x, 1))
        assert abs(out.weights.sum() - 1.0) < 1e-12


def test_pushforward_integral_identity():
    # integrating f against the image equals integrating f o T directly
    rng = np.random.default_rng(7)
    space = GroundSpace.euclidean(2)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        m = canonicalize(rng.normal(size=(n, 2)), rng.dirichlet(np.ones(n)), space)
        T = lambda x: np.array([x[0] + 1.0, -0.5 * x[1]])
        f = lambda y: float(np.sin(y[0]) + y[1] ** 2)
        out = pushforward(m, T)
        lhs = sum(f(out.atom(i)) * out.weights[i] for i in range(out.n_atoms))
        rhs = sum(f(T(m.atom(i))) * m.weights[i] for i in range(m.n_atoms))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_restrict_split_recombines():
    # masses of f and 1-f add to one and their mixture recovers the measure
    rng = np.random.default_rng(8)
    m = canonicalize(rng.normal(size=(5, 1)), rng.dirichlet(np.ones(5)), LINE)
    f = lambda x: float(np.clip(0.5 + 0.3 * x[0], 0.0, 1.0))
    mass_f, part_f = restrict_and_mix(m, f)
    mass_g, part_g = restrict_and_mix(m, lambda x: 1.0 - f(x))
    assert mass_f + mass_g == pytest.approx(1.0, abs=1e-12)
    assert mixture(part_f, part_g, mass_g).same_as(m, atol=1e-9)


def test_pushforward_finite_space_image_check():
    rho = [[0.0, 1.0], [1.0, 0.0]]
    sp = GroundSpace.finite(rho)
    m = canonicalize([0, 1], [0.5, 0.5], sp)
    with pytest.raises(ImageOutsideSpace):
        pushforward(m, lambda i: i + 1)


def test_restrict_indicator():
    m = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    mass, sub = restrict_and_mix(m, lambda x: 1.0 if x[0] <= 0 else 0.0)
    assert mass == 0.5
    assert sub.same_as(dirac(LINE, [0.0]))


def test_restrict_full_and_empty():
    m = dirac(LINE, [0.0])
    mass, sub = restrict_and_mix(m, lambda x: 1.0)
    assert mass == 1.0 and sub.same_as(m)
    mass, sub = restrict_and_mix(m, lambda x: 0.0)
    assert mass == 0.0 and sub is None


def test_mixture_endpoints_and_merge():
    d0, d1 = dirac(LINE, [0.0]), dirac(LINE, [1.0])
    assert mixture(d0, d1, 0.0).same_as(d0)
    half = mixture(d0, d1, 0.5)
    np.testing.assert_allclose(half.weights, [0.5, 0.5])

    a = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    b = canonicalize([[0.0], [2.0]], [0.5, 0.5], LINE)
    mix = mixture(a, b, 0.5)
    assert mix.atoms.ravel().tolist() == [0.0, 1.0, 2.0]
    np.testing.assert_allclose(mix.weights, [0.5, 0.25, 0.25])


def test_mixture_space_mismatch():
    with pytest.raises(SpaceMismatch):
        mixture(dirac(LINE, [0.0]), dirac(GroundSpace.euclidean(2), [0.0, 0.0]), 0.5)


def test_mixture_support_and_bilinearity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = canonicalize(rng.normal(size=(3, 1)), rng.dirichlet(np.ones(3)), LINE)
        b = canonicalize(rng.normal(size=(3, 1)), rng.dirichlet(np.ones(3)), LINE)
        for t in (0.0, 0.25, 0.5, 1.0):
            mix = mixture(a, b, t)
            pool = np.concatenate([a.atoms, b.atoms]).ravel()
            assert all(any(abs(x - y) < 1e-12 for y in pool) for x in mix.atoms.ravel())
            assert abs(mix.weights.sum() - 1.0) < 1e-12


def test_truncate_far_atom_collapses():
    m = canonicalize([[0.0], [5.0]], [0.5, 0.5], LINE)
    out = truncate_to_ball(m, [0.0], 1.0, ABS)
    assert out.same_as(dirac(LINE, [0.0]))


def test_truncate_inside_ball_is_identity():
    m = dirac(LINE, [0.0])
    assert truncate_to_ball(m, [0.0], 3.0, ABS).same_as(m)
    m2 = canonicalize([[0.0], [1.5]], [0.5, 0.5], LINE)
    assert truncate_to_ball(m2, [0.0], 10.0, ABS).same_as(m2)


def test_truncate_partial_cutoff():
    # f_R(1.5) = clamp(2 - 1.5) = 0.5, displaced mass 0.25 lands on x0
    m = canonicalize([[0.0], [1.5]], [0.5, 0.5], LINE)
    out = truncate_to_ball(m, [0.0], 1.0, ABS)
    assert out.atoms.ravel().tolist() == [0.0, 1.5]
    np.testing.assert_allclose(out.weights, [0.75, 0.25])
    assert abs(out.weights.sum() - 1.0) < 1e-12


def test_tail_cost_examples():
    assert tail_cost(dirac(LINE, [0.0]), [0.0], 1.0, ABS) == 0.0
    m = canonicalize([[0.0], [3.0]], [0.5, 0.5], LINE)
    assert tail_cost(m, [0.0], 1.0, SQ) == pytest.approx(4.5, abs=1e-12)
    assert tail_cost(m, [0.0], 100.0, SQ) == 0.0


TRI = GroundSpace.finite([[0.0, 10.0, 10.0], [10.0, 0.0, 10.0], [10.0, 10.0, 0.0]])


def test_finite_metric_power_tail_cost():
    nu = canonicalize([0, 1, 2], [1 / 3, 1 / 3, 1 / 3], TRI)
    assert tail_cost(nu, 0, 5.0, CostSpec.metric_power(1)) == pytest.approx(20 / 3, abs=1e-12)
    assert tail_cost(nu, 0, 50.0, CostSpec.metric_power(2)) == pytest.approx(200 / 3, abs=1e-12)
    assert tail_cost(nu, 0, 10.0, CostSpec.metric_power(1)) == 0.0


def test_finite_metric_power_truncate_to_ball():
    nu = canonicalize([0, 1, 2], [1 / 3, 1 / 3, 1 / 3], TRI)
    assert truncate_to_ball(nu, 0, 5.0, CostSpec.metric_power(1)).same_as(dirac(TRI, 0))
    # f_R = clamp(10.5 - 10) = 0.5 at points 1 and 2: half their mass moves to 0
    out = truncate_to_ball(nu, 0, 9.5, CostSpec.metric_power(1))
    assert out.atoms.tolist() == [0, 1, 2]
    np.testing.assert_allclose(out.weights, [2 / 3, 1 / 6, 1 / 6], atol=1e-12)
    assert truncate_to_ball(nu, 0, 10.0, CostSpec.metric_power(1)).same_as(nu)


def test_tail_cost_nonincreasing_in_R():
    rng = np.random.default_rng(2)
    m = canonicalize(rng.uniform(-3, 3, size=(5, 1)), rng.dirichlet(np.ones(5)), LINE)
    values = [tail_cost(m, [0.0], R, SQ) for R in (0.5, 1.0, 2.0, 4.0, 16.0)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0


def test_measure_json_roundtrip():
    m = canonicalize([[0.25, -1.0], [0.5, 2.0]], [0.25, 0.75], GroundSpace.euclidean(2))
    again = measure_from_json(measure_to_json(m))
    assert again.same_as(m)


def test_measure_json_mass_gate():
    obj = {"space": {"kind": "euclidean", "dim": 1}, "atoms": [[0.0]], "weights": [0.9]}
    with pytest.raises(MassNotOne):
        measure_from_json(obj)


def test_finite_space_validation():
    with pytest.raises(ValueError):
        GroundSpace.finite([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(ValueError):
        GroundSpace.finite([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])  # triangle
    sp = GroundSpace.finite([[0.0, 1.0], [1.0, 0.0]])
    assert sp.n_points == 2


def test_triangle_violation_in_last_slab_rejected(monkeypatch):
    import mkbary.measures as measures

    # every distance is 1 except rho(0,1) = 2 and the short legs through
    # point 4, so the only violating triple is (0, 4, 1)
    n = 5
    rho = np.ones((n, n)) - np.eye(n)
    rho[0, 1] = rho[1, 0] = 2.0
    rho[0, 4] = rho[4, 0] = rho[1, 4] = rho[4, 1] = 0.5
    # two x values per slab: slabs {0, 1}, {2, 3}, {4}
    monkeypatch.setattr(measures, "TRIANGLE_SLAB_BYTES", 2 * 8 * n * n)
    with pytest.raises(ValueError, match="triangle"):
        GroundSpace.finite(rho)
    rho[0, 1] = rho[1, 0] = 1.0
    assert GroundSpace.finite(rho).n_points == n

    # rho(3,4) = 2 with short legs through point 0: the only violating
    # triples (3, 4, 0) and (4, 3, 0) lie in the last of the x slabs {0, 1, 2}, {3, 4}
    rho = np.ones((n, n)) - np.eye(n)
    rho[3, 4] = rho[4, 3] = 2.0
    rho[3, 0] = rho[0, 3] = rho[4, 0] = rho[0, 4] = 0.5
    monkeypatch.setattr(measures, "TRIANGLE_SLAB_BYTES", 3 * 8 * n * n)
    with pytest.raises(ValueError, match="triangle"):
        GroundSpace.finite(rho)
    rho[3, 4] = rho[4, 3] = 1.0
    assert GroundSpace.finite(rho).n_points == n


def test_thousand_point_finite_space_bounded_memory():
    import tracemalloc

    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(1000, 2))
    rho = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
    tracemalloc.start()
    try:
        sp = GroundSpace.finite(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sp.n_points == 1000
    # n**3 floats would be 8 GB; rho itself is 8 MB
    assert peak < 64 * 2**20


def test_same_as_skips_the_comparison_for_a_shared_rho(monkeypatch):
    rho = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    first, second = GroundSpace.finite(rho), GroundSpace.finite(rho)
    copy = GroundSpace.finite(rho.copy())
    assert first.rho is second.rho and first.rho is not copy.rho
    with monkeypatch.context() as mp:
        mp.setattr(np, "allclose", lambda *a, **k: pytest.fail("rho was compared"))
        assert first.same_as(second)
    assert first.same_as(copy)
    assert not first.same_as(GroundSpace.finite(2 * rho))
