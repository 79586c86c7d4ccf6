"""Finitely supported probability measures on a ground space.

A ground space is either a euclidean space R^d or a finite metric space
given by a distance matrix.  Measures are canonicalized at construction:
duplicate atoms merged, zero weights dropped, weights renormalized.  All
values are immutable and every operation is a pure function.

A finite space is validated once, when it is built: its triangle check is
one min-plus scan over the unordered pairs of points.  The loaders of
several measures (``measures_from_json``) build the space of the first
measure only, and give it to every later one whose decoded space equals it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    EmptySupport,
    ImageOutsideSpace,
    MassNotOne,
    NegativeWeight,
    NonFinite,
    SpaceMismatch,
)

# Tolerances: admission check on input mass, merge radius for duplicate atoms.
MASS_TOL = 1e-9
ATOM_MERGE_TOL = 1e-12


# Byte budget of one slab of a finite-space triple scan.  A slab holds at
# least one x layer (n*n floats, the size of the table itself); the triangle
# check sizes its blocks of x rows the same way.
TRIANGLE_SLAB_BYTES = 4 * 2**20


def _triple_slabs(c: np.ndarray):
    """Every triple (x, y, z) of a square table, in slabs of x.

    Yields ``(x0, cxy, cxz, czx, cyz, czy)`` per slab x0 <= x < x0 + k: views
    that broadcast to shape (k, n, n) indexed [x - x0, y, z], holding
    c[x, y], c[x, z], c[z, x], c[y, z] and c[z, y].  A slab spans about
    TRIANGLE_SLAB_BYTES of float64, so a caller's temporaries stay that size
    instead of n**3 floats.
    """
    n = c.shape[0]
    k = max(1, TRIANGLE_SLAB_BYTES // max(1, 8 * n * n))
    cT = np.ascontiguousarray(c.T)
    for x0 in range(0, n, k):
        x = slice(x0, x0 + k)
        yield x0, c[x, :, None], c[x, None, :], cT[x, None, :], c[None], cT[None]


def _violates_triangle(rho: np.ndarray) -> bool:
    """Whether max(rho[x, y], rho[y, x]) > min_z (l[x, z] + l[z, y]) + 1e-12 for some x < y.

    ``l = min(rho, rho.T)``, so a table symmetric only to within the
    tolerance is checked on its hull: its longest side against its shortest
    legs.  One min-plus scan over the unordered pairs, in blocks of x rows
    whose (x, y, z) sums span about TRIANGLE_SLAB_BYTES; it stops at the
    first block that violates.
    """
    n = rho.shape[0]
    short = np.minimum(rho, rho.T)
    k = max(1, TRIANGLE_SLAB_BYTES // max(1, 8 * n * n))
    for x0 in range(0, n - 1, k):
        x = slice(x0, x0 + k)
        # legs[i, j] = min_z l[x0 + i, z] + l[z, x0 + 1 + j]; l is symmetric
        legs = (short[x, None, :] + short[None, x0 + 1:, :]).min(axis=2)
        far = np.maximum(rho[x, x0 + 1:], rho.T[x, x0 + 1:])
        # y = x0 + 1 + j lies above x = x0 + i where j >= i
        if np.triu(far > legs + 1e-12).any():
            return True
    return False


@dataclass(frozen=True)
class GroundSpace:
    """Euclidean R^d (``kind='euclidean'``) or a finite metric space.

    Finite spaces carry a symmetric distance matrix ``rho`` with zero
    diagonal, strictly positive off-diagonal entries, and the triangle
    inequality; points are integer indices ``0..n-1``.
    """

    kind: str
    dim: int = 0
    rho: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind == "euclidean":
            if self.dim < 1:
                raise ValueError("euclidean dimension must be >= 1")
        elif self.kind == "finite":
            rho = np.asarray(self.rho, dtype=float)
            if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
                raise ValueError("finite space needs a square distance matrix")
            n = rho.shape[0]
            if n < 1:
                raise ValueError("finite space needs at least one point")
            if not np.isfinite(rho).all():
                raise ValueError("distance matrix entries must be finite")
            if not np.allclose(rho, rho.T, atol=1e-12, rtol=0.0):
                raise ValueError("distance matrix must be symmetric")
            if np.any(np.abs(np.diag(rho)) > 1e-12):
                raise ValueError("distance matrix must have zero diagonal")
            off = rho[~np.eye(n, dtype=bool)]
            if off.size and np.any(off <= 0):
                raise ValueError("rho(i,j) must be positive for i != j")
            if _violates_triangle(rho):
                raise ValueError("distance matrix violates the triangle inequality")
            object.__setattr__(self, "rho", rho)
            object.__setattr__(self, "dim", n)
        else:
            raise ValueError(f"unknown space kind {self.kind!r}")

    @staticmethod
    def euclidean(dim: int) -> "GroundSpace":
        return GroundSpace(kind="euclidean", dim=int(dim))

    @staticmethod
    def finite(rho) -> "GroundSpace":
        return GroundSpace(kind="finite", rho=np.asarray(rho, dtype=float))

    @property
    def n_points(self) -> int:
        if self.kind != "finite":
            raise ValueError("n_points only defined for finite spaces")
        return self.rho.shape[0]

    def same_as(self, other: "GroundSpace") -> bool:
        if self.kind != other.kind:
            return False
        if self.kind == "euclidean":
            return self.dim == other.dim
        if self.rho is other.rho:
            return True
        return self.rho.shape == other.rho.shape and np.allclose(
            self.rho, other.rho, atol=1e-12, rtol=0.0
        )


def _require_same_space(a: GroundSpace, b: GroundSpace) -> None:
    if not a.same_as(b):
        raise SpaceMismatch("operands live on different ground spaces")


def _as_indices(space: GroundSpace, raw) -> np.ndarray:
    """The points ``raw`` of the finite ``space`` as an integer index array.

    Raises ImageOutsideSpace for an entry that is not an integer in
    0..n-1: an integral float such as 2.0 is index 2, but 1.5 is rejected,
    not truncated, and -1 is rejected, not read from the end.
    """
    try:
        values = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ImageOutsideSpace(f"finite-space points must be integer indices: {exc}") from exc
    n = space.n_points
    bad = ~((values == np.round(values)) & (values >= 0) & (values < n))
    if bad.any():
        raise ImageOutsideSpace(
            f"point {values[bad].flat[0]:g} is not an index of the finite space of size {n}")
    return values.astype(int)


def _as_point(space: GroundSpace, x) -> np.ndarray | int:
    """Coerce ``x`` into a point of ``space`` (d-vector or index)."""
    if space.kind == "euclidean":
        p = np.atleast_1d(np.asarray(x, dtype=float))
        if p.shape != (space.dim,):
            raise SpaceMismatch(
                f"point of shape {p.shape} does not fit R^{space.dim}"
            )
        return p
    return int(_as_indices(space, x))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Canonical finitely supported probability measure.

    ``atoms`` is an (n, d) float array for euclidean spaces or an (n,)
    integer index array for finite spaces, sorted lexicographically;
    ``weights`` is strictly positive and sums to 1.  Construct through
    :func:`canonicalize` (or the loaders), never directly.
    """

    space: GroundSpace
    atoms: np.ndarray
    weights: np.ndarray

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    def atom(self, i: int):
        if self.space.kind == "euclidean":
            return self.atoms[i]
        return int(self.atoms[i])

    def same_as(self, other: "DiscreteMeasure", atol: float = 1e-9) -> bool:
        """Equality up to absolute tolerances: ``ATOM_MERGE_TOL`` on the atoms and
        ``atol`` on the weights.  Relies on the canonical atom order."""
        if not self.space.same_as(other.space):
            return False
        if self.atoms.shape != other.atoms.shape:
            return False
        return (np.allclose(self.atoms, other.atoms, atol=ATOM_MERGE_TOL, rtol=0.0)
                and np.allclose(self.weights, other.weights, atol=atol, rtol=0.0))


def _near_pairs(pts: np.ndarray, r: float) -> np.ndarray:
    """Pairs (i, j), i < j, of rows of ``pts`` that may lie within ``r`` (sup-norm).

    In each coordinate the sorted values joined by gaps <= r form a
    cluster, and rows whose clusters agree in every coordinate form a group.
    Rounding a subtraction is monotone, so the computed gap of two sorted
    neighbours never exceeds that of two values around them: every pair
    within r lies in one group.  A chain of small gaps is one cluster, so
    each group is swept along its widest coordinate: a row pairs with the
    later rows of its group whose value there is at most its own plus 2r.
    A computed difference <= r is exactly below 2r, and a value exactly
    below the sum is at most the rounded sum, so no pair within r is lost,
    while a chain yields O(n) candidates.  Not every candidate lies within
    r, so callers test the distance themselves.
    """
    n, d = pts.shape
    labels = np.empty((d, n), dtype=np.intp)
    for k in range(d):
        order = np.argsort(pts[:, k], kind="stable")
        labels[k, order] = np.cumsum(np.concatenate([[0], np.diff(pts[order, k]) > r]))
    order = np.lexsort(labels)
    new = np.ones(n, dtype=bool)
    new[1:] = np.any(labels[:, order[1:]] != labels[:, order[:-1]], axis=0)
    starts = np.flatnonzero(new)
    group = np.cumsum(new) - 1
    grouped = pts[order]
    span = np.maximum.reduceat(grouped, starts) - np.minimum.reduceat(grouped, starts)
    key = grouped[np.arange(n), np.argmax(span, axis=1)[group]]
    within = np.lexsort((key, group))
    order, key, group = order[within], key[within], group[within]
    # ends[p]: the first position after p's window, by one search over
    # (group, rank of the value) codes, increasing along the positions
    values, rank = np.unique(np.concatenate([key, key + 2 * r]), return_inverse=True)
    code = np.tile(group, 2) * len(values) + rank
    ends = np.searchsorted(code[:n], code[n:], side="right")
    # position p pairs with the later positions p+1 .. ends[p]-1 of its window
    later = ends - np.arange(n) - 1
    first = np.repeat(np.arange(n), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    i, j = order[first], order[second]
    return np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1)


class _MergePlan(NamedTuple):
    """How ``_sort_and_merge`` maps n raw atoms to canonical ones (see ``_merge_plan``).

    ``order`` sorts the raw atoms; in that order the ``keep`` mask marks
    the kept atoms (None when none merge), ``merged`` lists the positions
    of the others and ``into`` the kept index each adds its weight to.
    ``atoms`` holds the kept atoms, sorted.
    """

    order: np.ndarray
    keep: Optional[np.ndarray]
    merged: Optional[np.ndarray]
    into: Optional[np.ndarray]
    atoms: np.ndarray


def _merge_plan(space: GroundSpace, atoms: np.ndarray) -> _MergePlan:
    """Sort atoms lexicographically and find the duplicates that merge.

    Walking in that order, an atom within ATOM_MERGE_TOL (sup-norm) of an
    atom already kept merges into the first such one, neighbour in the
    order or not; finite-space atoms merge when equal.  No two kept atoms
    are within the tolerance.  The plan depends on the atoms alone, so a
    caller that canonicalizes many weight vectors on one atom set makes it
    once (see ``canonicalize``).
    """
    if space.kind == "euclidean":
        order = np.lexsort(atoms.T[::-1])
        tol = ATOM_MERGE_TOL
    else:
        order = np.argsort(atoms, kind="stable")
        tol = 0
    atoms = atoms[order]
    n = len(atoms)
    pts = atoms.reshape(n, -1)
    # atoms within the tolerance have leading coordinates within twice the
    # tolerance (twice, so that rounding in a subtraction drops no pair)
    if not np.any(np.diff(pts[:, 0]) <= 2 * tol):
        return _MergePlan(order, None, None, None, atoms)
    # equal atoms are neighbours: each starts out owned by the first of its run
    head = np.ones(n, dtype=bool)
    head[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    owner = np.maximum.accumulate(np.where(head, np.arange(n), 0))
    heads = np.flatnonzero(head)
    if tol > 0 and len(heads) > 1:
        first, second = heads[_near_pairs(pts[heads], 2 * tol)].T
        near = np.max(np.abs(pts[first] - pts[second]), axis=1) <= tol
        first, second = first[near], second[near]
        for j in np.unique(second):  # pairs of atoms have first < second
            cand = np.sort(first[second == j])
            cand = cand[owner[cand] == cand]
            if cand.size:
                owner[j] = cand[0]
        owner = owner[owner]
    keep = owner == np.arange(n)
    merged = np.flatnonzero(~keep)
    return _MergePlan(order, keep, merged, np.cumsum(keep)[owner[merged]] - 1, atoms[keep])


def _merge_weights(plan: _MergePlan, weights: np.ndarray) -> np.ndarray:
    """The weights of ``plan``'s kept atoms: each adds the weights merged into it,
    in sorted order.  ``weights`` may also be a matrix; the rows of merged
    atoms are added.  Raises ValueError when ``weights`` has another length
    than the atoms the plan was made from."""
    if len(weights) != len(plan.order):
        raise ValueError(f"a merge plan of {len(plan.order)} atoms applied to "
                         f"{len(weights)} weights")
    weights = weights[plan.order]
    if plan.keep is None:
        return weights
    out = weights[plan.keep]
    np.add.at(out, plan.into, weights[plan.merged])
    return out


def _sort_and_merge(space: GroundSpace, atoms: np.ndarray, weights: np.ndarray):
    """Sort atoms lexicographically and merge duplicates by weight addition
    (``_merge_plan``, then ``_merge_weights``): the kept atoms and their weights."""
    plan = _merge_plan(space, atoms)
    return plan.atoms, _merge_weights(plan, weights)


def canonicalize(raw_atoms, raw_weights, space: GroundSpace, *,
                 plan: Optional[_MergePlan] = None) -> DiscreteMeasure:
    """Build a canonical measure from raw atom/weight lists.

    Admits weights that are finite, nonnegative and sum to 1 within 1e-9,
    and euclidean atoms with finite coordinates; merges duplicate atoms
    (1e-12 coordinate tolerance), drops zero weights and renormalizes so the
    weights sum to exactly 1.  ``plan``, the ``_merge_plan`` of these very
    atoms, skips their sort and merge search and gives the same bits; a
    plan made from another number of atoms is a ValueError.
    """
    weights = np.array(raw_weights, dtype=float).reshape(-1)
    if weights.size == 0:
        raise EmptySupport("measure needs at least one atom")
    # a NaN weight would pass the sign and mass checks and be dropped as zero
    if not np.isfinite(weights).all():
        raise NonFinite("weights must be finite")
    if np.any(weights < 0):
        raise NegativeWeight(f"negative weight {weights.min()!r}")
    total = float(weights.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise MassNotOne(f"weights sum to {total!r}, expected 1 within {MASS_TOL}")

    if space.kind == "euclidean":
        atoms = np.asarray(raw_atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.shape[1] != space.dim:
            raise SpaceMismatch(
                f"atoms of shape {atoms.shape} do not fit R^{space.dim}"
            )
        if not np.isfinite(atoms).all():
            raise NonFinite("atom coordinates must be finite")
    else:
        atoms = np.asarray(raw_atoms)
        if atoms.ndim != 1:
            raise SpaceMismatch("finite-space atoms must be a flat index list")
        atoms = _as_indices(space, atoms)
    if len(atoms) != len(weights):
        raise ValueError("atoms and weights must have equal length")

    if plan is None:
        plan = _merge_plan(space, atoms)
    atoms, weights = plan.atoms, _merge_weights(plan, weights)
    mask = weights > 0
    if not mask.any():
        raise EmptySupport("all weights are zero")
    atoms, weights = atoms[mask], weights[mask]
    weights = weights / weights.sum()
    # nudge the largest weight so the sum is exactly 1.0
    resid = 1.0 - weights.sum()
    if resid != 0.0:
        weights[int(np.argmax(weights))] += resid
    atoms.setflags(write=False)
    weights.setflags(write=False)
    return DiscreteMeasure(space=space, atoms=atoms, weights=weights)


def dirac(space: GroundSpace, x) -> DiscreteMeasure:
    """The unit mass at a single point."""
    return canonicalize([_as_point(space, x)], [1.0], space)


def pushforward(measure: DiscreteMeasure, mapping: Callable) -> DiscreteMeasure:
    """Image measure under a pointwise map; coinciding images are merged."""
    space = measure.space
    images = []
    for i in range(measure.n_atoms):
        y = mapping(measure.atom(i))
        images.append(_as_point(space, y))
    if space.kind == "euclidean":
        raw = np.asarray(images, dtype=float)
    else:
        raw = np.asarray(images, dtype=int)
    return canonicalize(raw, measure.weights, space)


def restrict_and_mix(measure: DiscreteMeasure, density: Callable):
    """Weight the measure by a [0,1]-valued density and renormalize.

    Returns ``(m, sub)`` where ``m = sum_i f(x_i) w_i`` and ``sub`` is the
    normalized restricted measure, or ``None`` when ``m == 0``.
    """
    vals = np.array(
        [float(density(measure.atom(i))) for i in range(measure.n_atoms)], dtype=float
    )
    if np.any(vals < -1e-12) or np.any(vals > 1 + 1e-12):
        raise ValueError("density values must lie in [0, 1]")
    vals = np.clip(vals, 0.0, 1.0)
    masses = vals * measure.weights
    m = float(masses.sum())
    if m <= 0.0:
        return 0.0, None
    return m, canonicalize(measure.atoms, masses / m, measure.space)


def mixture(mu0: DiscreteMeasure, mu1: DiscreteMeasure, t: float) -> DiscreteMeasure:
    """The convex combination (1-t)*mu0 + t*mu1, canonicalized."""
    _require_same_space(mu0.space, mu1.space)
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if t == 0.0:
        return mu0
    if t == 1.0:
        return mu1
    atoms = np.concatenate([mu0.atoms, mu1.atoms])
    weights = np.concatenate([(1.0 - t) * mu0.weights, t * mu1.weights])
    return canonicalize(atoms, weights, mu0.space)


def merge_equal_measures(pairs) -> list:
    """Merge the (measure, weight) pairs whose measures are ``same_as``.

    A pair equal to one already kept adds its weight to the first kept one
    it equals, so the first of each group keeps its place.  Every measure
    must share the first one's ground space.

    Only measures with the same atom count and nearby keys are compared, so
    a family of distinct measures takes O(n log n) steps.  The key is
    s = sum_j w_j sum_c x_jc.  Between two ``same_as`` measures a and b it
    moves by at most r_a + r_b, with r = d ATOM_MERGE_TOL sum_j |w_j| +
    1e-9 sum_jc |x_jc| (the weight tolerance), and each computed key is off
    by at most (n + d) eps sum_jc |w_j x_jc|; a measure's radius is the sum
    of the two, and a measure is compared with the kept ones of its atom
    count whose keys lie within twice its radius plus the largest radius of
    that count.  A key or radius that overflows widens the window to all of
    its count.
    """
    space = pairs[0][0].space
    for m, _ in pairs:
        if not m.space.same_as(space):
            raise ValueError("all measures must share a ground space")
    counts = np.array([m.n_atoms for m, _ in pairs])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    x = np.concatenate([m.atoms.reshape(m.n_atoms, -1) for m, _ in pairs]).astype(float)
    w = np.concatenate([m.weights for m, _ in pairs])
    with np.errstate(over="ignore", invalid="ignore"):
        keys = np.add.reduceat(w * x.sum(axis=1), starts)
        ax = np.abs(x).sum(axis=1)
        radii = (x.shape[1] * ATOM_MERGE_TOL * np.add.reduceat(np.abs(w), starts)
                 + 1e-9 * np.add.reduceat(ax, starts)
                 + (counts + x.shape[1]) * np.finfo(float).eps
                 * np.add.reduceat(np.abs(w) * ax, starts))
        order = np.lexsort((keys, counts))
        lo, hi = np.empty(len(pairs), dtype=int), np.empty(len(pairs), dtype=int)
        ends = np.append(np.flatnonzero(np.diff(counts[order])) + 1, len(pairs))
        for first, end in zip(np.append(0, ends[:-1]), ends):
            members = order[first:end]
            near = keys[members]
            reach = 2.0 * (radii[members] + radii[members].max())
            wide = ~np.isfinite(near - reach) | ~np.isfinite(near + reach)
            lo[members] = np.where(wide, first,
                                   first + np.searchsorted(near, near - reach, "left"))
            hi[members] = np.where(wide, end, first + np.searchsorted(near, near + reach, "right"))
    order, lo, hi = order.tolist(), lo.tolist(), hi.tolist()
    slot = [-1] * len(pairs)  # where each kept pair sits in ``merged``
    merged: list = []
    for i, (m, wt) in enumerate(pairs):
        for j in sorted(j for j in order[lo[i]:hi[i]] if slot[j] >= 0):
            if m.same_as(pairs[j][0]):
                m2, w2 = merged[slot[j]]
                merged[slot[j]] = (m2, w2 + wt)
                break
        else:
            slot[i] = len(merged)
            merged.append((m, wt))
    return merged


def _cutoff(measure: DiscreteMeasure, x0, R: float, cost) -> np.ndarray:
    """Piecewise-linear cutoff at each atom: 1 on the cost-ball of radius R
    around the point x0, 0 outside radius R+1, linear in between."""
    return np.clip(R + 1.0 - cost.table(measure.space, [x0], measure.atoms)[0], 0.0, 1.0)


def truncate_to_ball(nu: DiscreteMeasure, x0, R: float, cost) -> DiscreteMeasure:
    """Push far-field mass onto the center point x0.

    Applies the cutoff density and sends the removed mass to a point mass
    at ``x0``; the result always has total mass 1.
    """
    x0 = _as_point(nu.space, x0)
    masses = _cutoff(nu, x0, R, cost) * nu.weights
    m = float(masses.sum())
    if nu.space.kind == "euclidean":
        atoms = np.concatenate([nu.atoms, np.asarray(x0, dtype=float)[None, :]])
    else:
        atoms = np.concatenate([nu.atoms, np.array([x0], dtype=int)])
    weights = np.concatenate([masses, [1.0 - m]])
    return canonicalize(atoms, weights, nu.space)


def tail_cost(nu: DiscreteMeasure, x0, R: float, cost) -> float:
    """Cost mass outside the radius-R cost ball: sum of c(x, x0) w(x) over
    atoms with c(x0, x) > R."""
    x0 = _as_point(nu.space, x0)
    far = cost.table(nu.space, [x0], nu.atoms)[0] > R
    return float(cost.table(nu.space, nu.atoms[far], [x0])[:, 0] @ nu.weights[far])


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

# field kind -> (python types, what the error calls it)
_JSON_KINDS = {
    "object": (dict, "an object"),
    "objects": (list, "an array of objects"),
    "number": ((int, float), "a number"),
    "integer": ((int, float), "a number"),  # and integral, checked in json_field
    "numbers": (list, "an array of numbers"),
    "integers": (list, "a flat array of integers"),
}
_JSON_NAMES = {dict: "object", list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


def json_name(value) -> str:
    """The JSON type of a value decoded by ``json``: object, array, string, number,
    boolean or null (the Python type name for anything else)."""
    return _JSON_NAMES.get(type(value), type(value).__name__)


def json_keys(obj: dict, keys, what: str) -> None:
    """Raise a ValueError naming every key of ``obj`` outside ``keys``."""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"{what} reads no {', '.join(map(repr, unknown))}; "
                         f"its keys are {', '.join(map(repr, sorted(keys)))}")


def json_field(obj: dict, key: str, kind: str, what: str, least=None):
    """``obj[key]``, checked to be present and of the JSON ``kind`` in ``_JSON_KINDS``.

    Every loader reads its fields through this, so a file of the wrong shape
    raises a ValueError naming the field instead of a KeyError or a
    TypeError inside a constructor.  An array must not be empty.  ``numbers``
    returns a float array.  ``integer`` takes an integral number, 2.0 too,
    and returns it as an int; 2.5 is a ValueError, not truncated.
    ``integers`` takes a flat array of such numbers and returns a list of
    ints.  With ``least``, the number, or every entry of the array, must be
    at least ``least``.
    """
    if key not in obj:
        raise ValueError(f"{what} field {key!r} is missing")
    value = obj[key]
    types, noun = _JSON_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{what} field {key!r} must be {noun}, not {json_name(value)}")
    if isinstance(value, list) and not value:
        raise ValueError(f"{what} field {key!r} must not be empty")
    if kind == "objects" and not all(isinstance(v, dict) for v in value):
        raise ValueError(f"{what} field {key!r} must be {noun}")
    if kind == "integer":
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{what} field {key!r} must be an integer, not {value!r}")
        value = int(value)
    elif kind == "integers":
        for v in value:
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or (isinstance(v, float) and not v.is_integer())):
                raise ValueError(f"{what} field {key!r} must be {noun}, not one holding {v!r}")
        value = [int(v) for v in value]
    elif kind == "numbers":
        try:
            value = np.asarray(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{what} field {key!r} must be {noun}") from exc
    if least is not None and not np.all(np.asarray(value) >= least):
        raise ValueError(f"{what} field {key!r} must be at least {least}, not {obj[key]!r}")
    return value


def space_to_json(space: GroundSpace) -> dict:
    if space.kind == "euclidean":
        return {"kind": "euclidean", "dim": space.dim}
    return {"kind": "finite", "n": space.n_points, "rho": space.rho.tolist()}


# space kind -> the keys besides ``kind``
_SPACE_KEYS = {"euclidean": ("dim",), "finite": ("n", "rho")}


def space_from_json(obj: dict) -> GroundSpace:
    kind = obj.get("kind")
    if kind not in _SPACE_KEYS:
        raise ValueError(f"unknown space kind {kind!r}")
    json_keys(obj, ("kind", *_SPACE_KEYS[kind]), f"{kind} space")
    if kind == "euclidean":
        return GroundSpace.euclidean(json_field(obj, "dim", "integer", "space"))
    rho = json_field(obj, "rho", "numbers", "space")
    if "n" in obj and json_field(obj, "n", "integer", "space") != rho.shape[0]:
        raise ValueError("declared point count disagrees with rho shape")
    return GroundSpace.finite(rho)


def measure_to_json(measure: DiscreteMeasure) -> dict:
    return {
        "space": space_to_json(measure.space),
        "atoms": measure.atoms.tolist(),
        "weights": measure.weights.tolist(),
    }


def measure_from_json(obj: dict, space: Optional[GroundSpace] = None) -> DiscreteMeasure:
    """Load a measure; a given ``space`` stands in for the file's own, unparsed."""
    json_keys(obj, ("space", "atoms", "weights"), "measure")
    if space is None:
        space = space_from_json(json_field(obj, "space", "object", "measure"))
    return canonicalize(json_field(obj, "atoms", "numbers", "measure"),
                        json_field(obj, "weights", "numbers", "measure"), space)


def measures_from_json(objs) -> list:
    """Load measures in order; those whose decoded ``space`` equals the first one's share its
    GroundSpace, so a finite space's distance matrix is validated once and ``same_as``
    finds the shared ``rho`` at once."""
    first = measure_from_json(objs[0])
    shared = objs[0]["space"]
    return [first] + [
        measure_from_json(obj, space=first.space if _same_space(obj.get("space"), shared) else None)
        for obj in objs[1:]]


def _same_space(space, shared: dict) -> bool:
    """Whether a decoded ``space`` loads as the valid ``shared`` one does.  True == 1 in
    Python, so equal objects must also agree on the type of the integer fields: a
    boolean "dim" or "n" is an error."""
    return space is shared or (space == shared and all(
        type(space.get(key)) is type(shared.get(key)) for key in ("dim", "n")))
