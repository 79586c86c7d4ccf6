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
    NonFinite,
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


def _brute_pairs(pts, r):
    """Every pair (i, j), i < j, of rows within r in sup-norm, by the O(n^2) scan."""
    dist = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=-1)
    i, j = np.nonzero(np.triu(dist <= r, k=1))
    return sorted(zip(i.tolist(), j.tolist()))


def _near_pair_cases():
    from mkbary.measures import ATOM_MERGE_TOL

    rng = np.random.default_rng(17)
    tol = ATOM_MERGE_TOL
    for k in (9, 17):
        side = np.linspace(0.0, 1.0, k)
        yield np.array([[x, y] for x in side for y in side])
    yield np.linspace(-3.0, 3.0, 400)[:, None]
    for axis in range(3):  # axis-parallel lines in 2- and 3-D
        line = np.zeros((300, 3))
        line[:, axis] = np.arange(300) * 0.5
        yield line
        yield line[:, :2]
    for d in (1, 2, 3):  # clusters of near duplicates around a few centres
        centres = rng.uniform(-1, 1, size=(6, d))
        offsets = rng.integers(-15, 16, size=(60, d)) * tol / 10
        yield centres[rng.integers(0, 6, size=60)] + offsets
        # a chain of steps just under the radius: one cluster, few near pairs
        yield np.cumsum(np.full((40, d), 0.9 * tol), axis=0)


def test_near_pairs_find_every_pair_within_the_radius():
    from mkbary.measures import ATOM_MERGE_TOL, _near_pairs

    for pts in _near_pair_cases():
        for r in (ATOM_MERGE_TOL, 2 * ATOM_MERGE_TOL):
            pairs = _near_pairs(pts, r)
            assert np.all(pairs[:, 0] < pairs[:, 1])
            assert len(np.unique(pairs, axis=0)) == len(pairs)
            dist = np.max(np.abs(pts[pairs[:, 0]] - pts[pairs[:, 1]]), axis=1)
            found = sorted(map(tuple, pairs[dist <= r].tolist()))
            assert found == _brute_pairs(pts, r)


def test_near_pairs_stay_linear_on_a_chain():
    # 2000 atoms on the diagonal, each 0.9 ATOM_MERGE_TOL from the next: one
    # cluster in every coordinate, but only neighbours within the tolerance
    from mkbary.measures import ATOM_MERGE_TOL, _near_pairs, _sort_and_merge

    n = 2000
    pts = np.cumsum(np.full((n, 2), 0.9 * ATOM_MERGE_TOL), axis=0)
    assert len(_near_pairs(pts, 2 * ATOM_MERGE_TOL)) <= 4 * n
    # the rows of an identity weight matrix say which kept atom owns each input
    _, owned = _sort_and_merge(GroundSpace.euclidean(2), pts.copy(), np.eye(n, dtype=np.int8))
    assert owned.sum(axis=0).tolist() == [1] * n
    owners = np.argmax(owned, axis=0)
    # the O(n^2) merge: in lexsort order, join the first kept atom within the tolerance
    kept, want = np.empty((0, 2)), []
    for p in pts[np.lexsort(pts.T[::-1])]:
        near = np.flatnonzero(np.max(np.abs(kept - p), axis=1) <= ATOM_MERGE_TOL)
        if near.size:
            want.append(int(near[0]))
        else:
            want.append(len(kept))
            kept = np.vstack([kept, p])
    assert owners.tolist() == want


def _merge_plan_cases():
    """(space, atoms) pairs: chains and clusters of near duplicates within
    ATOM_MERGE_TOL, exact duplicates, sets with nothing to merge, and
    finite-space index lists with repeats."""
    from mkbary.measures import ATOM_MERGE_TOL

    rng = np.random.default_rng(23)
    tol = ATOM_MERGE_TOL
    for d in (1, 2, 3):
        space = GroundSpace.euclidean(d)
        yield space, rng.uniform(size=(30, d))
        centres = rng.uniform(-1, 1, size=(5, d))
        yield space, (centres[rng.integers(0, 5, size=40)]
                      + rng.integers(-15, 16, size=(40, d)) * tol / 10)
        yield space, rng.permutation(np.cumsum(np.full((25, d), 0.9 * tol), axis=0))
        yield space, rng.permutation(np.repeat(rng.uniform(size=(6, d)), 3, axis=0))
    points = rng.uniform(size=(7, 2))
    finite = GroundSpace.finite(np.linalg.norm(points[:, None] - points[None, :], axis=-1))
    yield finite, rng.permutation(7)
    yield finite, rng.integers(0, 7, size=20)


def test_a_kept_merge_plan_gives_the_same_bits():
    from mkbary.measures import _merge_plan, _merge_weights, _sort_and_merge

    rng = np.random.default_rng(29)
    for space, atoms in _merge_plan_cases():
        n = len(atoms)
        plan = _merge_plan(space, atoms)
        # one plan serves every weight vector on these atoms, zero weights too
        for zeros in (0, 1, n // 2):
            w = rng.dirichlet(np.ones(n))
            w[rng.permutation(n)[:zeros]] = 0.0
            w /= w.sum()
            got, want = canonicalize(atoms, w, space, plan=plan), canonicalize(atoms, w, space)
            assert got.atoms.tobytes() == want.atoms.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
        W = rng.uniform(size=(n, 3))
        want_atoms, want_W = _sort_and_merge(space, atoms.copy(), W.copy())
        assert plan.atoms.tobytes() == want_atoms.tobytes()
        assert _merge_weights(plan, W).tobytes() == want_W.tobytes()
        # a plan of n atoms applied to n - 1 atoms or weights
        with pytest.raises(ValueError, match=f"a merge plan of {n} atoms applied to {n - 1}"):
            canonicalize(atoms[1:], np.full(n - 1, 1.0 / (n - 1)), space, plan=plan)
        with pytest.raises(ValueError, match=f"a merge plan of {n} atoms applied to {n - 1}"):
            _merge_weights(plan, W[1:])


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


def test_canonicalize_rejects_non_finite_weights_and_atoms():
    nan, inf = float("nan"), float("inf")
    # a NaN weight passes the sign and mass checks: it must not be dropped as a zero
    for weights in ([nan, 1.0], [1.0, nan], [inf, 0.0], [-inf, 1.0]):
        with pytest.raises(NonFinite, match="weights must be finite"):
            canonicalize([[0.0], [1.0]], weights, LINE)
    plane = GroundSpace.euclidean(2)
    for atoms in ([[nan, 0.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, inf]], [[-inf, 0.0], [nan, nan]]):
        with pytest.raises(NonFinite, match="atom coordinates must be finite"):
            canonicalize(atoms, [0.5, 0.5], plane)
    # two NaN atoms are within no tolerance of each other, so they were kept apart
    with pytest.raises(NonFinite):
        canonicalize([[nan], [nan]], [0.5, 0.5], LINE)
    with pytest.raises(NonFinite):
        pushforward(dirac(LINE, [1.0]), lambda x: x * inf)


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


def test_same_as_tolerances_are_absolute():
    far = dirac(LINE, [1000.0])
    assert far.same_as(dirac(LINE, [1000.0 + 1e-13]))
    assert not far.same_as(dirac(LINE, [1000.009]))  # within numpy's default rtol
    even = canonicalize([[0.0], [1.0]], [0.5, 0.5], LINE)
    assert even.same_as(canonicalize([[0.0], [1.0]], [0.5 + 5e-10, 0.5 - 5e-10], LINE))
    uneven = canonicalize([[0.0], [1.0]], [0.500004, 0.499996], LINE)
    assert not even.same_as(uneven)
    assert even.same_as(uneven, atol=5e-6)


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
    with pytest.raises(ValueError, match="symmetric"):  # within numpy's default rtol
        GroundSpace.finite([[0.0, 1.0], [1.000004, 0.0]])
    with pytest.raises(ValueError):
        GroundSpace.finite([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])  # triangle
    for bad in (np.inf, np.nan):  # no triangle check can fail on these
        with pytest.raises(ValueError, match="finite"):
            GroundSpace.finite([[0.0, bad], [bad, 0.0]])
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
    # blocks of two x rows: {0, 1}, {2, 3}
    monkeypatch.setattr(measures, "TRIANGLE_SLAB_BYTES", 2 * 8 * n * n)
    with pytest.raises(ValueError, match="triangle"):
        GroundSpace.finite(rho)
    rho[0, 1] = rho[1, 0] = 1.0
    assert GroundSpace.finite(rho).n_points == n

    # rho(3,4) = 2 with short legs through point 0: the only violating
    # pair (3, 4) lies in the last of the blocks of x rows {0, 1, 2}, {3}
    rho = np.ones((n, n)) - np.eye(n)
    rho[3, 4] = rho[4, 3] = 2.0
    rho[3, 0] = rho[0, 3] = rho[4, 0] = rho[0, 4] = 0.5
    monkeypatch.setattr(measures, "TRIANGLE_SLAB_BYTES", 3 * 8 * n * n)
    with pytest.raises(ValueError, match="triangle"):
        GroundSpace.finite(rho)
    rho[3, 4] = rho[4, 3] = 1.0
    assert GroundSpace.finite(rho).n_points == n


def _violates_triangle_reference(rho):
    """The triangle predicate of ``measures._violates_triangle``, pair by pair and leg by leg."""
    n = len(rho)
    short = np.minimum(rho, rho.T)
    return any(max(rho[x, y], rho[y, x]) > min(short[x, z] + short[z, y] for z in range(n)) + 1e-12
               for x in range(n) for y in range(x + 1, n))


def _path_metric(weights):
    """The shortest-path metric of a complete graph with these symmetric edge weights."""
    d = np.array(weights, dtype=float)
    np.fill_diagonal(d, 0.0)
    for z in range(len(d)):
        d = np.minimum(d, d[:, z, None] + d[None, z, :])
    return d


@pytest.mark.parametrize("rows", [1, 2, 3, 5, None])
def test_triangle_check_matches_a_pair_by_pair_reference(monkeypatch, rows):
    import mkbary.measures as measures

    rng = np.random.default_rng(7)
    verdicts = set()
    for n in range(1, 14):
        if rows is not None:  # blocks of ``rows`` x rows, most of them not dividing n
            monkeypatch.setattr(measures, "TRIANGLE_SLAB_BYTES", rows * 8 * n * n)
        for _ in range(6):
            table = rng.uniform(0.0, 1.0, size=(n, n))
            sym = (table + table.T) * (1 - np.eye(n))
            tables = [table, sym, _path_metric(sym)]
            # symmetric only to within the tolerance of the symmetry check
            tables.append(tables[-1] + np.triu(rng.uniform(0.0, 1e-12, size=(n, n)), 1))
            for rho in tables:
                expected = _violates_triangle_reference(rho)
                assert measures._violates_triangle(rho) == expected
                verdicts.add(expected)
            # shortest paths make some triangles tight, and none is violated
            assert not measures._violates_triangle(tables[2])
    assert verdicts == {False, True}


@pytest.mark.parametrize("rows", [1, 2, 3, None])
def test_triangle_tolerance_is_added_after_the_leg_sum(monkeypatch, rows):
    import mkbary.measures as measures

    # points 0..6 on a line with dyadic spacing: every triangle through a
    # point between x and y is tight, and the leg sums are exact
    n = 7
    rho = 0.25 * np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    if rows is not None:
        monkeypatch.setattr(measures, "TRIANGLE_SLAB_BYTES", rows * 8 * n * n)
    for (x, y), raise_by, violates in [((0, n - 1), 2e-12, True), ((0, n - 1), 0.5e-12, False),
                                       ((n - 3, n - 1), 2e-12, True), ((2, 4), 0.5e-12, False)]:
        raised = rho.copy()
        raised[x, y] += raise_by
        raised[y, x] += raise_by
        assert _violates_triangle_reference(raised) == violates
        assert measures._violates_triangle(raised) == violates
        if violates:
            with pytest.raises(ValueError, match="triangle"):
                GroundSpace.finite(raised)
        else:
            assert GroundSpace.finite(raised).n_points == n
        # raised in one direction only, the longer direction is the one checked
        once = rho.copy()
        once[y, x] += raise_by
        assert measures._violates_triangle(once) == violates == _violates_triangle_reference(once)


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
    assert not first.same_as(GroundSpace.finite(rho + 4e-6 * (rho > 0)))


def _quadratic_merge(pairs):
    """Every pair against every kept one, in order: the reference merge."""
    space = pairs[0][0].space
    merged = []
    for m, w in pairs:
        if not m.space.same_as(space):
            raise ValueError("all measures must share a ground space")
        for idx, (m2, w2) in enumerate(merged):
            if m.same_as(m2):
                merged[idx] = (m2, w2 + w)
                break
        else:
            merged.append((m, w))
    return merged


def _near_equal_family(rng, space, count):
    """Measures of a few bases, copies of them whose atoms move by up to
    1.5 ATOM_MERGE_TOL and weights by up to 1.5e-9, so that some copies are
    ``same_as`` their base and some are not, in random order."""
    from mkbary.measures import ATOM_MERGE_TOL

    bases = []
    for _ in range(rng.integers(1, 6)):
        n = int(rng.integers(1, 5))
        if space.kind == "finite":
            atoms = rng.choice(space.n_points, n, replace=False)
        else:
            atoms = rng.uniform(-2.0, 2.0, (n, space.dim)) * 10.0 ** rng.integers(-1, 3)
        bases.append((atoms, rng.dirichlet(np.ones(n))))
    family = []
    for _ in range(count):
        atoms, weights = bases[rng.integers(len(bases))]
        if space.kind == "euclidean" and rng.random() < 0.7:
            atoms = atoms + rng.uniform(-1.5, 1.5, atoms.shape) * ATOM_MERGE_TOL
        if rng.random() < 0.7:
            weights = weights + rng.uniform(-1.5e-9, 1.5e-9, weights.shape)
            weights = weights / weights.sum()
        family.append((canonicalize(atoms, weights, space),
                       float(rng.random())))
    return family


@pytest.mark.parametrize("seed", range(6))
def test_merge_equal_measures_matches_the_quadratic_merge(seed):
    from mkbary.measures import merge_equal_measures

    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(6, 2))
    spaces = [LINE, GroundSpace.euclidean(3),
              GroundSpace.finite(np.linalg.norm(pts[:, None] - pts[None], axis=-1))]
    for space in spaces:
        for _ in range(20):
            family = _near_equal_family(rng, space, int(rng.integers(1, 40)))
            got, want = merge_equal_measures(family), _quadratic_merge(family)
            assert [m for m, _ in got] == [m for m, _ in want]  # the same kept objects
            assert all(a is b for (a, _), (b, _) in zip(got, want))
            assert [w for _, w in got] == [w for _, w in want]  # summed in the same order


def test_merge_equal_measures_compares_distinct_measures_near_linearly(monkeypatch):
    from mkbary.measures import DiscreteMeasure, merge_equal_measures

    rng = np.random.default_rng(0)
    family = [(canonicalize(rng.uniform(-1.0, 1.0, (6, 1)), rng.dirichlet(np.ones(6)), LINE), 1.0)
              for _ in range(512)]
    real, calls = DiscreteMeasure.same_as, []

    def counted(self, other, atol=1e-9):
        calls.append(1)
        return real(self, other, atol)

    monkeypatch.setattr(DiscreteMeasure, "same_as", counted)
    assert len(merge_equal_measures(family)) == 512
    # the quadratic merge made 512 * 511 / 2 comparisons here
    assert len(calls) < 512
    with pytest.raises(ValueError, match="share a ground space"):
        merge_equal_measures(family + [(dirac(GroundSpace.euclidean(2), [0.0, 0.0]), 1.0)])


def test_merge_equal_measures_with_keys_that_overflow():
    # coordinates near the largest float: the key sum_j w_j sum_c x_jc of big,
    # near and low is inf, so they are compared with every measure of their
    # atom count, and no overflow warns
    import warnings

    from mkbary.measures import merge_equal_measures

    plane = GroundSpace.euclidean(2)
    big = canonicalize([[1e308, 1e308]], [1.0], plane)
    near = canonicalize([[1e308, 1e308]], [1.0], plane)
    low = canonicalize([[9e307, 9e307]], [1.0], plane)
    mixed = canonicalize([[1e308, 5e307]], [1.0], plane)
    for family in ([(low, 0.1), (big, 0.2), (mixed, 0.3), (near, 0.4)],
                   [(big, 0.1), (dirac(plane, [0.0, 0.0]), 0.2), (near, 0.3), (low, 0.4)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = merge_equal_measures(family)
        want = _quadratic_merge(family)
        assert [m for m, _ in got] == [m for m, _ in want]
        assert all(a is b for (a, _), (b, _) in zip(got, want))
        assert [w for _, w in got] == [w for _, w in want]
        assert sum(m is big for m, _ in got) == 1 and all(m is not near for m, _ in got)
