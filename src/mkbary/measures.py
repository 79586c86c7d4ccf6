"""Finitely supported probability measures on a ground space.

A ground space is either a euclidean space R^d or a finite metric space
given by a distance matrix.  Measures are canonicalized at construction:
duplicate atoms merged, zero weights dropped, weights renormalized.  All
values are immutable and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    EmptySupport,
    ImageOutsideSpace,
    MassNotOne,
    NegativeWeight,
    SpaceMismatch,
)

# Tolerances: admission check on input mass, merge radius for duplicate atoms.
MASS_TOL = 1e-9
ATOM_MERGE_TOL = 1e-12


# Byte budget of one slab of a finite-space triple scan.  A slab holds at
# least one x layer (n*n floats, the size of the table itself).
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
    """Whether rho[x, y] > rho[x, z] + rho[z, y] + 1e-12 for some x, y, z."""
    return any(np.greater(rxy, (rxz + 1e-12) + rzy).any()
               for _, rxy, rxz, _, _, rzy in _triple_slabs(rho))


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
            if not np.allclose(rho, rho.T, atol=1e-12):
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
            self.rho, other.rho, atol=1e-12
        )


def _require_same_space(a: GroundSpace, b: GroundSpace) -> None:
    if not a.same_as(b):
        raise SpaceMismatch("operands live on different ground spaces")


def _as_point(space: GroundSpace, x) -> np.ndarray | int:
    """Coerce ``x`` into a point of ``space`` (d-vector or index)."""
    if space.kind == "euclidean":
        p = np.atleast_1d(np.asarray(x, dtype=float))
        if p.shape != (space.dim,):
            raise SpaceMismatch(
                f"point of shape {p.shape} does not fit R^{space.dim}"
            )
        return p
    i = int(x)
    if not 0 <= i < space.n_points:
        raise ImageOutsideSpace(f"index {i} outside finite space of size {space.n_points}")
    return i


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
        """Equality up to tolerance; relies on the canonical atom order."""
        if not self.space.same_as(other.space):
            return False
        if self.atoms.shape != other.atoms.shape:
            return False
        return np.allclose(self.atoms, other.atoms, atol=ATOM_MERGE_TOL) and np.allclose(
            self.weights, other.weights, atol=atol
        )


def _sort_and_merge(space: GroundSpace, atoms: np.ndarray, weights: np.ndarray):
    """Sort atoms lexicographically and merge duplicates by weight addition.

    Walking in that order, an atom within ATOM_MERGE_TOL (sup-norm) of an
    atom already kept merges into the first such one, neighbour in the
    order or not; finite-space atoms merge when equal.  No two kept atoms
    are within the tolerance.  Merged weights are added in sorted order.
    ``weights`` may also be a matrix; the rows of merged atoms are added.
    """
    if space.kind == "euclidean":
        order = np.lexsort(atoms.T[::-1])
        tol = ATOM_MERGE_TOL
    else:
        order = np.argsort(atoms, kind="stable")
        tol = 0
    atoms = atoms[order]
    weights = weights[order]
    n = len(atoms)
    pts = atoms.reshape(n, -1)
    # atoms within the tolerance have leading coordinates within twice the
    # tolerance (twice, so that rounding in a subtraction drops no pair)
    if not np.any(np.diff(pts[:, 0]) <= 2 * tol):
        return atoms, weights
    # equal atoms are neighbours: each starts out owned by the first of its run
    head = np.ones(n, dtype=bool)
    head[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    owner = np.maximum.accumulate(np.where(head, np.arange(n), 0))
    heads = np.flatnonzero(head)
    if tol > 0 and len(heads) > 1:
        pairs = cKDTree(pts[heads]).query_pairs(2 * tol, p=np.inf, output_type="ndarray")
        for j in np.unique(pairs[:, 1]):  # pairs (i, j) of heads have i < j
            cand = heads[np.sort(pairs[pairs[:, 1] == j, 0])]
            cand = cand[(owner[cand] == cand)
                        & (np.max(np.abs(pts[cand] - pts[heads[j]]), axis=1) <= tol)]
            if cand.size:
                owner[heads[j]] = cand[0]
        owner = owner[owner]
    keep = owner == np.arange(n)
    merged = np.flatnonzero(~keep)
    out = weights[keep]
    np.add.at(out, np.cumsum(keep)[owner[merged]] - 1, weights[merged])
    return atoms[keep], out


def canonicalize(raw_atoms, raw_weights, space: GroundSpace) -> DiscreteMeasure:
    """Build a canonical measure from raw atom/weight lists.

    Admits weights that are nonnegative and sum to 1 within 1e-9; merges
    duplicate atoms (1e-12 coordinate tolerance), drops zero weights and
    renormalizes so the weights sum to exactly 1.
    """
    weights = np.array(raw_weights, dtype=float).reshape(-1)
    if weights.size == 0:
        raise EmptySupport("measure needs at least one atom")
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
    else:
        atoms = np.asarray(raw_atoms)
        if atoms.ndim != 1:
            raise SpaceMismatch("finite-space atoms must be a flat index list")
        atoms = atoms.astype(int)
        if np.any((atoms < 0) | (atoms >= space.n_points)):
            raise ImageOutsideSpace("atom index outside the finite space")
    if len(atoms) != len(weights):
        raise ValueError("atoms and weights must have equal length")

    atoms, weights = _sort_and_merge(space, atoms.copy(), weights.copy())
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

    A pair equal to one already kept adds its weight to that one, so the
    first of each group keeps its place.  Every measure must share the
    first one's ground space.  Takes O(n^2) comparisons.
    """
    space = pairs[0][0].space
    merged: list = []
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

def space_to_json(space: GroundSpace) -> dict:
    if space.kind == "euclidean":
        return {"kind": "euclidean", "dim": space.dim}
    return {"kind": "finite", "n": space.n_points, "rho": space.rho.tolist()}


def space_from_json(obj: dict) -> GroundSpace:
    kind = obj.get("kind")
    if kind == "euclidean":
        return GroundSpace.euclidean(int(obj["dim"]))
    if kind == "finite":
        rho = np.asarray(obj["rho"], dtype=float)
        if "n" in obj and int(obj["n"]) != rho.shape[0]:
            raise ValueError("declared point count disagrees with rho shape")
        return GroundSpace.finite(rho)
    raise ValueError(f"unknown space kind {kind!r}")


def measure_to_json(measure: DiscreteMeasure) -> dict:
    return {
        "space": space_to_json(measure.space),
        "atoms": measure.atoms.tolist(),
        "weights": measure.weights.tolist(),
    }


def measure_from_json(obj: dict, space: Optional[GroundSpace] = None) -> DiscreteMeasure:
    """Load a measure; a given ``space`` stands in for the file's own, unparsed."""
    if space is None:
        space = space_from_json(obj["space"])
    return canonicalize(obj["atoms"], obj["weights"], space)
