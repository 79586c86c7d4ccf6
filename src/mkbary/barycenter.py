"""Frechet barycenter solvers for weighted families of discrete measures.

Three routes:

* ``barycenter_fixed_support``: one joint LP over couplings and candidate
  weights; globally optimal on the simplex over a candidate atom set,
  with a duality-gap certificate and a deterministic tie-break: the
  optimal vertex of least graded weight sum_k k w_k over the candidates,
  found by one LP on the optimal face cut from the gap tolerance.
* ``barycenter_free_support``: alternating minimization over atom
  locations and the fixed-support LP; local certificate only.
* ``barycenter_quantile_1d``: exact solution on the line for convex
  translation costs via the common refinement of quantile functions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog, minimize

from .costs import CostSpec
from .errors import (
    NotConvexCost,
    NotOneDimensional,
    NumericalFailure,
)
from .measures import (
    DiscreteMeasure,
    GroundSpace,
    canonicalize,
    measure_from_json,
    measure_to_json,
    merge_equal_measures,
)
from .transport import _LP_OPTIONS, GAP_TOL, transport_costs

log = logging.getLogger("mkbary")


@dataclass(frozen=True)
class Constraint:
    """Feasible set for the barycenter: free (atom budget), a candidate
    simplex, or the 1-D quantile route."""

    kind: str  # free | simplex_over | quantile_1d
    atoms: Optional[np.ndarray] = None
    k: Optional[int] = None

    @staticmethod
    def simplex_over(atoms) -> "Constraint":
        arr = np.asarray(atoms, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if len(arr) == 0:
            raise ValueError("candidate atom set must be nonempty")
        uniq = np.unique(arr, axis=0)
        if len(uniq) != len(arr):
            raise ValueError("candidate atoms must be duplicate-free")
        return Constraint(kind="simplex_over", atoms=arr)

    @staticmethod
    def free(k: int) -> "Constraint":
        if k < 1:
            raise ValueError("atom budget k must be >= 1")
        return Constraint(kind="free", k=int(k))

    @staticmethod
    def quantile_1d() -> "Constraint":
        return Constraint(kind="quantile_1d")


def constraint_from_json(obj: dict) -> Constraint:
    """Parse a constraint: ``simplex_over`` (alias ``fixed_support``),
    ``grid`` (a candidate simplex on a box mesh), ``free`` or ``quantile_1d``."""
    kind = obj.get("kind")
    if kind in ("simplex_over", "fixed_support"):
        return Constraint.simplex_over(obj["atoms"])
    if kind == "grid":
        (lo, hi), shape = obj["box"], obj["shape"]
        axes = [np.linspace(lo[i], hi[i], int(shape[i])) for i in range(len(shape))]
        mesh = np.meshgrid(*axes, indexing="ij")
        return Constraint.simplex_over(np.stack([m.ravel() for m in mesh], axis=-1))
    if kind == "free":
        return Constraint.free(int(obj["k"]))
    if kind == "quantile_1d":
        return Constraint.quantile_1d()
    raise ValueError(f"unknown constraint kind {kind!r}")


@dataclass(frozen=True)
class BarycenterProblem:
    """Weighted family of input measures, a constraint set, and a cost."""

    inputs: tuple  # ((measure, weight), ...)
    constraint: Constraint
    cost: CostSpec

    @staticmethod
    def make(inputs, constraint: Constraint, cost: CostSpec) -> "BarycenterProblem":
        if not inputs:
            raise ValueError("need at least one input measure")
        lams = np.array([float(l) for _, l in inputs])
        if np.any(lams <= 0):
            raise ValueError("input weights must be positive")
        lams = lams / lams.sum()
        merged = merge_equal_measures([(m, lam) for (m, _), lam in zip(inputs, lams)])
        return BarycenterProblem(inputs=tuple(merged), constraint=constraint, cost=cost)

    @property
    def space(self) -> GroundSpace:
        return self.inputs[0][0].space


@dataclass(frozen=True)
class Certificate:
    kind: str  # lp_optimal | local_stationary
    gap: Optional[float] = None
    last_decrease: Optional[float] = None


@dataclass(frozen=True)
class BarycenterResult:
    measure: DiscreteMeasure
    objective: float
    trace: tuple
    certificate: Certificate
    multiple_optima: bool = False
    alt_measure: Optional[DiscreteMeasure] = None


def objective(nu: DiscreteMeasure, problem: BarycenterProblem) -> float:
    """The Frechet functional sum_i lambda_i J(mu_i, nu)."""
    costs = transport_costs([(m, nu) for m, _ in problem.inputs], problem.cost)
    return float(sum(lam * j for (_, lam), j in zip(problem.inputs, costs)))


# ---------------------------------------------------------------------------
# Fixed-support joint LP
# ---------------------------------------------------------------------------

def _joint_lp_system(inputs, cost: CostSpec, S: np.ndarray):
    """Assemble the joint LP over (coupling blocks, candidate weights).

    Input i adds its n_i x K coupling and n_i + K rows: the row marginals
    sum_k gamma_jk = mu_j, then the ties sum_j gamma_jk - w_k = 0.  The last
    row sums the weights w to 1.
    """
    K = len(S)
    n_gamma = K * sum(m.n_atoms for m, _ in inputs)
    w_cols = n_gamma + np.arange(K)
    c_parts, rows, cols, rhs = [], [], [], []
    r = off = 0
    for m, lam in inputs:
        sz = m.n_atoms
        c_parts.append(lam * cost.table(m.space, m.atoms, S).ravel())
        gamma = off + np.arange(sz * K)
        rows += [r + np.repeat(np.arange(sz), K), r + sz + np.tile(np.arange(K), sz),
                 r + sz + np.arange(K)]
        cols += [gamma, gamma, w_cols]
        rhs += [m.weights, np.zeros(K)]
        r, off = r + sz + K, off + sz * K
    rows, cols = np.concatenate(rows + [np.full(K, r)]), np.concatenate(cols + [w_cols])
    vals = np.where((cols >= n_gamma) & (rows < r), -1.0, 1.0)  # -w_k in the ties
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(r + 1, n_gamma + K))
    return np.concatenate(c_parts + [np.zeros(K)]), A, np.concatenate(rhs + [[1.0]]), n_gamma, K


def _split_gammas(x: np.ndarray, inputs, K: int):
    blocks, off = [], 0
    for m, _ in inputs:
        blocks.append(np.clip(x[off : off + m.n_atoms * K], 0.0, None).reshape(m.n_atoms, K))
        off += m.n_atoms * K
    return blocks


def _clip_dust(w: np.ndarray, rel: float = 1e-12) -> np.ndarray:
    w = w.copy()
    w[w < rel * max(1.0, w.max())] = 0.0
    return w


def _face_tie_break(c_vec, A, rhs, h, value, y, n_inputs: int):
    """The lo/hi graded-weight LPs (minimize, then maximize h.x) on the optimal face.

    For a feasible x, c.x = rhs.y + d.x with reduced costs d = c - A^T y, and
    x carries mass n_inputs + 1 (each coupling and the weights sum to 1).  So
    keeping the columns with d <= GAP_TOL (1 + |value|) / (n_inputs + 1) keeps
    every point of the face within the gap tolerance of the optimum, and
    complementary slackness says the optimal vertices live on it.  Both LPs
    run as one block-diagonal call on those columns, with no pin row.
    Returns the two solutions scattered back to full length, or None when
    the call fails or either half's c.x misses ``value``.
    """
    tol = GAP_TOL * (1.0 + abs(value))
    face = np.flatnonzero(c_vec - A.T @ y <= tol / (n_inputs + 1))
    A_face = A.tocsc()[:, face]
    r = linprog(np.concatenate([h[face], -h[face]]), A_eq=sparse.block_diag((A_face, A_face)),
                b_eq=np.concatenate([rhs, rhs]), bounds=(0, None), method="highs",
                options=_LP_OPTIONS)
    if r.status != 0:
        return None
    out = []
    for x_face in np.split(r.x, 2):
        if abs(c_vec[face] @ x_face - value) > tol:
            return None
        x = np.zeros_like(c_vec)
        x[face] = x_face
        out.append(x)
    return out


def _fixed_support_lp(inputs, cost: CostSpec, S: np.ndarray, tie_break: bool = True):
    """Globally optimal candidate weights for a fixed atom set.

    Returns (weights, value, gap, alt_weights, gammas): alt_weights is a
    second optimal vertex when one exists (None otherwise) and gammas are
    the per-input coupling blocks of the reported solution.

    With ``tie_break`` the reported vertex minimizes the graded weight
    sum_k k w_k over the optimal face, and alt_weights comes from maximizing
    it; ``_face_tie_break`` solves both in one call.  If that call is
    rejected, the main LP's vertex is returned untie-broken and a warning
    goes to the ``mkbary`` logger.
    """
    c_vec, A, rhs, n_gamma, K = _joint_lp_system(inputs, cost, S)
    res = linprog(c_vec, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs",
                  options=_LP_OPTIONS)
    if res.status != 0:
        raise NumericalFailure(f"barycenter LP failed: {res.message}")
    value = float(res.fun)
    dual = float(rhs @ res.eqlin.marginals)
    gap = max(0.0, value - dual)
    if gap > GAP_TOL * (1.0 + abs(value)):
        raise NumericalFailure(f"barycenter LP gap {gap:.3e} not closed")
    w = _clip_dust(np.clip(res.x[n_gamma:], 0.0, None))
    if not tie_break:
        return w, value, gap, None, _split_gammas(res.x, inputs, K)

    h = np.zeros_like(c_vec)
    h[n_gamma:] = np.arange(1, K + 1, dtype=float)
    sols = _face_tie_break(c_vec, A, rhs, h, value, res.eqlin.marginals, len(inputs))
    if sols is None:
        log.warning("barycenter tie-break: face LP rejected; "
                    "returning the main LP vertex without tie-break")
        return w, value, gap, None, _split_gammas(res.x, inputs, K)
    x_lo, x_hi = sols
    w_lo = _clip_dust(np.clip(x_lo[n_gamma:], 0.0, None))
    w_hi = _clip_dust(np.clip(x_hi[n_gamma:], 0.0, None))
    alt = w_hi if np.max(np.abs(w_lo - w_hi)) > 1e-7 else None
    return w_lo, value, gap, alt, _split_gammas(x_lo, inputs, K)


def barycenter_fixed_support(problem: BarycenterProblem) -> BarycenterResult:
    """Solve the barycenter LP on the simplex over the candidate atoms."""
    if problem.constraint.kind != "simplex_over":
        raise ValueError("fixed-support solver needs a candidate atom set")
    S = problem.constraint.atoms
    if problem.space.kind == "finite":
        S = np.asarray(S).reshape(-1)
    w, value, gap, w_alt, _ = _fixed_support_lp(problem.inputs, problem.cost, S)
    measure = canonicalize(S, w / w.sum(), problem.space)
    alt = None
    if w_alt is not None:
        alt = canonicalize(S, w_alt / w_alt.sum(), problem.space)
    return BarycenterResult(
        measure=measure,
        objective=value,
        trace=((0, value),),
        certificate=Certificate(kind="lp_optimal", gap=gap),
        multiple_optima=w_alt is not None,
        alt_measure=alt,
    )


# ---------------------------------------------------------------------------
# Free-support alternating minimization
# ---------------------------------------------------------------------------

def _farthest_point_init(pool: np.ndarray, k: int, cost: CostSpec, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pool = np.unique(pool, axis=0)
    if k >= len(pool):
        return pool.copy()
    chosen = [int(rng.integers(len(pool)))]
    dists = cost.pair_matrix(pool, pool[chosen[-1]][None, :])[:, 0]
    while len(chosen) < k:
        nxt = int(np.argmax(dists))
        chosen.append(nxt)
        dists = np.minimum(dists, cost.pair_matrix(pool, pool[nxt][None, :])[:, 0])
    return pool[np.array(chosen)]


def _atom_update(cost: CostSpec, points: np.ndarray, masses: np.ndarray, start: np.ndarray):
    """argmin_m sum_i masses_i g(points_i - m) for a convex translation cost."""
    mean = (masses[:, None] * points).sum(axis=0) / masses.sum()
    if cost.kind == "norm_power" and cost.p == 2.0:
        return mean
    if points.shape[1] == 1:
        return np.array([_convex_argmin_1d(cost, points[:, 0], masses)])

    def phi_vec(m):
        return float(masses @ cost.pair_matrix(points, [m])[:, 0])

    res = minimize(phi_vec, x0=start, method="Powell", options={"xtol": 1e-10, "ftol": 1e-12})
    return np.asarray(res.x, dtype=float)


def barycenter_free_support(
    problem: BarycenterProblem, k: Optional[int] = None, init_seed: int = 0,
    max_iter: int = 200, rel_tol: float = 1e-8,
) -> BarycenterResult:
    """Alternate between the fixed-support LP and per-atom convex updates.

    Needs a euclidean space and a convex translation cost; the trace of
    LP objectives is nonincreasing by construction and the run stops once
    the relative decrease drops below ``rel_tol``.
    """
    if problem.space.kind != "euclidean":
        raise NotConvexCost("free-support solver needs a euclidean space")
    if not problem.cost.is_convex_translation:
        raise NotConvexCost("free-support solver needs a convex translation cost")
    if k is None:
        k = problem.constraint.k if problem.constraint.k else 1
    if k < 1:
        raise ValueError("atom budget k must be >= 1")
    pool = np.concatenate([m.atoms for m, _ in problem.inputs])
    S = _farthest_point_init(pool, k, problem.cost, init_seed)

    trace = []
    prev = None
    w = None
    S_solved = S
    last_decrease = float("inf")
    for it in range(max_iter):
        w, value, _, _, gammas = _fixed_support_lp(
            problem.inputs, problem.cost, S, tie_break=False
        )
        S_solved = S
        trace.append((it, value))
        if prev is not None:
            last_decrease = prev - value
            if last_decrease <= rel_tol * (1.0 + abs(prev)):
                break
        prev = value

        # move each candidate atom to the per-atom convex minimizer of the
        # mass it received; zero-mass atoms are dropped (cluster emptied)
        S_next = []
        for kk in range(len(S)):
            pts, msk = [], []
            for (m, lam), g in zip(problem.inputs, gammas):
                col = lam * g[:, kk]
                nz = col > 1e-15
                if nz.any():
                    pts.append(m.atoms[nz])
                    msk.append(col[nz])
            if not pts:
                continue
            S_next.append(_atom_update(problem.cost, np.concatenate(pts), np.concatenate(msk), S[kk]))
        S = np.unique(np.asarray(S_next, dtype=float), axis=0)

    measure = canonicalize(S_solved, w / w.sum(), problem.space)
    return BarycenterResult(
        measure=measure,
        objective=trace[-1][1],
        trace=tuple(trace),
        certificate=Certificate(kind="local_stationary", last_decrease=last_decrease),
    )


# ---------------------------------------------------------------------------
# Exact 1-D quantile construction
# ---------------------------------------------------------------------------

def _convex_argmin_1d(cost: CostSpec, xs: np.ndarray, ws: np.ndarray) -> float:
    """argmin_m sum_i ws_i g(xs_i - m) on the line, by ternary search.

    The search runs on [min xs, max xs] until the bracket is 1e-12 wide
    and returns its midpoint.
    """
    lo, hi = float(xs.min()), float(xs.max())

    def phi(m):
        return ws @ cost.pair_matrix(xs[:, None], [[m]])[:, 0]

    while hi - lo > 1e-12:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if phi(m1) <= phi(m2):
            hi = m2
        else:
            lo = m1
    return (lo + hi) / 2.0


def _segment_argmin(cost: CostSpec, xs: np.ndarray, lams: np.ndarray) -> float:
    if cost.kind == "norm_power" and cost.p == 2.0:
        return float((lams * xs).sum() / lams.sum())
    if cost.kind == "norm_power" and cost.p == 1.0:
        order = np.argsort(xs)
        xs_s, w_s = xs[order], lams[order] / lams.sum()
        cum = np.cumsum(w_s)
        idx = min(int(np.searchsorted(cum, 0.5 - 1e-15)), len(xs_s) - 1)
        lo = xs_s[idx]
        hi = xs_s[idx + 1] if (abs(cum[idx] - 0.5) <= 1e-15 and idx + 1 < len(xs_s)) else lo
        return float((lo + hi) / 2.0)
    return _convex_argmin_1d(cost, xs, lams)


def barycenter_quantile_1d(problem: BarycenterProblem) -> BarycenterResult:
    """Exact barycenter on the line via the common quantile refinement.

    Each input's quantile function is piecewise constant; on the common
    refinement of cumulative-weight breakpoints the pointwise argmin of
    sum_i lambda_i g(F_i^{-1}(t) - m) is constant, which yields the
    barycenter atoms directly (weighted mean for g = u^2, mid-interval
    weighted median for g = |u|, ternary search otherwise).
    """
    if problem.space.kind != "euclidean" or problem.space.dim != 1:
        raise NotOneDimensional("quantile solver needs measures on the line")
    if not problem.cost.is_convex_translation:
        raise NotConvexCost("quantile solver needs a convex translation cost")

    cums = []
    for m, _ in problem.inputs:
        cums.append(np.cumsum(m.weights))
    breakpoints = np.unique(np.concatenate([[0.0, 1.0]] + cums))
    breakpoints = breakpoints[(breakpoints > 1e-15) | (breakpoints == 0.0)]
    lams = np.array([lam for _, lam in problem.inputs])

    atoms, weights = [], []
    for t0, t1 in zip(breakpoints[:-1], breakpoints[1:]):
        if t1 - t0 <= 1e-15:
            continue
        tm = (t0 + t1) / 2.0
        xs = np.array(
            [float(m.atoms[min(int(np.searchsorted(cum, tm, side="left")), m.n_atoms - 1), 0])
             for (m, _), cum in zip(problem.inputs, cums)]
        )
        atoms.append(_segment_argmin(problem.cost, xs, lams))
        weights.append(t1 - t0)
    measure = canonicalize(np.array(atoms), np.array(weights), problem.space)
    value = objective(measure, problem)
    return BarycenterResult(
        measure=measure,
        objective=value,
        trace=((0, value),),
        certificate=Certificate(kind="lp_optimal", gap=0.0),
    )


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def problem_from_json(obj: dict) -> BarycenterProblem:
    from .costs import cost_from_json

    inputs = [(measure_from_json(e["measure"]), float(e["lambda"])) for e in obj["inputs"]]
    return BarycenterProblem.make(inputs, constraint_from_json(obj["constraint"]),
                                  cost_from_json(obj["cost"]))


def result_to_json(result: BarycenterResult) -> dict:
    out = {
        "measure": measure_to_json(result.measure),
        "objective": result.objective,
        "trace": [list(t) for t in result.trace],
        "certificate": {
            "kind": result.certificate.kind,
            "gap": result.certificate.gap,
            "last_decrease": result.certificate.last_decrease,
        },
        "multiple_optima": result.multiple_optima,
    }
    return out
