"""Frechet barycenter solvers for weighted families of discrete measures.

Three routes:

* ``barycenter_fixed_support``: one joint LP over couplings and candidate
  weights; globally optimal on the simplex over a candidate atom set,
  with a duality-gap certificate and a deterministic lexicographic
  tie-break among optimal vertices.
* ``barycenter_free_support``: alternating minimization over atom
  locations and the fixed-support LP; local certificate only.
* ``barycenter_quantile_1d``: exact solution on the line for convex
  translation costs via the common refinement of quantile functions.
"""

from __future__ import annotations

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
from .measures import DiscreteMeasure, GroundSpace, canonicalize, measure_from_json, measure_to_json
from .transport import _LP_OPTIONS, transport_costs

GAP_TOL = 1e-9


@dataclass(frozen=True)
class Constraint:
    """Feasible set for the barycenter: free (atom budget), a candidate
    simplex, or the 1-D quantile route."""

    kind: str  # free | simplex_over | fixed_support | quantile_1d
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
        space = inputs[0][0].space
        merged: list = []
        for (m, _), lam in zip(inputs, lams):
            if not m.space.same_as(space):
                raise ValueError("all inputs must share a ground space")
            for idx, (m2, l2) in enumerate(merged):
                if m.same_as(m2):
                    merged[idx] = (m2, l2 + lam)
                    break
            else:
                merged.append((m, lam))
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

def _candidate_cost(cost: CostSpec, measure: DiscreteMeasure, S: np.ndarray) -> np.ndarray:
    space = measure.space
    if space.kind == "euclidean":
        return cost.pair_matrix(measure.atoms, S)
    idx = S.astype(int).ravel()
    table = cost.bound_to(space)
    if table.kind == "finite_matrix":
        return table.values[np.ix_(measure.atoms.astype(int), idx)]
    return space.rho[np.ix_(measure.atoms.astype(int), idx)] ** table.p


def _joint_lp_system(inputs, cost: CostSpec, S: np.ndarray):
    """Assemble the joint LP over (coupling blocks, candidate weights)."""
    K = len(S)
    sizes = [m.n_atoms for m, _ in inputs]
    n_gamma = sum(s * K for s in sizes)
    n_var = n_gamma + K
    c_vec = np.zeros(n_var)
    rows, cols, vals, rhs = [], [], [], []
    r = 0
    off = 0
    for (m, lam), sz in zip(inputs, sizes):
        Ci = _candidate_cost(cost, m, S)
        c_vec[off : off + sz * K] = lam * Ci.ravel()
        for j in range(sz):  # row marginal: sum_k gamma_jk = mu_j
            rows.extend([r] * K)
            cols.extend(range(off + j * K, off + (j + 1) * K))
            vals.extend([1.0] * K)
            rhs.append(float(m.weights[j]))
            r += 1
        for k in range(K):  # column ties to shared weights: sum_j gamma_jk - w_k = 0
            rows.extend([r] * sz)
            cols.extend(range(off + k, off + sz * K, K))
            vals.extend([1.0] * sz)
            rows.append(r)
            cols.append(n_gamma + k)
            vals.append(-1.0)
            rhs.append(0.0)
            r += 1
        off += sz * K
    rows.extend([r] * K)
    cols.extend(range(n_gamma, n_gamma + K))
    vals.extend([1.0] * K)
    rhs.append(1.0)
    r += 1
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(r, n_var))
    return c_vec, A, np.array(rhs), n_gamma, K


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


def _fixed_support_lp(inputs, cost: CostSpec, S: np.ndarray, tie_break: bool = True):
    """Globally optimal candidate weights for a fixed atom set.

    Returns (weights, value, gap, alt_weights, gammas): alt_weights is a
    second optimal vertex when one exists (None otherwise) and gammas are
    the per-input coupling blocks of the reported solution.
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

    # pin the optimal face with an equality row, then order vertices by a
    # graded weight on atoms (smallest = the lexicographic representative)
    h = np.zeros_like(c_vec)
    h[n_gamma:] = np.arange(1, K + 1, dtype=float)
    A_pin = sparse.vstack([A, sparse.csr_matrix(c_vec[None, :])])
    rhs_pin = np.append(rhs, value)
    lo = linprog(h, A_eq=A_pin, b_eq=rhs_pin, bounds=(0, None), method="highs",
                 options=_LP_OPTIONS)
    hi = linprog(-h, A_eq=A_pin, b_eq=rhs_pin, bounds=(0, None), method="highs",
                 options=_LP_OPTIONS)
    if lo.status != 0 or hi.status != 0:
        return w, value, gap, None, _split_gammas(res.x, inputs, K)
    w_lo = _clip_dust(np.clip(lo.x[n_gamma:], 0.0, None))
    w_hi = _clip_dust(np.clip(hi.x[n_gamma:], 0.0, None))
    alt = w_hi if np.max(np.abs(w_lo - w_hi)) > 1e-7 else None
    return w_lo, value, gap, alt, _split_gammas(lo.x, inputs, K)


def barycenter_fixed_support(problem: BarycenterProblem) -> BarycenterResult:
    """Solve the barycenter LP on the simplex over the candidate atoms."""
    if problem.constraint.kind not in ("simplex_over", "fixed_support"):
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
        lo = float(points.min())
        hi = float(points.max())

        def phi(m):
            return float(sum(w * cost.evaluate(x, np.array([m])) for x, w in zip(points, masses)))

        while hi - lo > 1e-12:
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if phi(m1) <= phi(m2):
                hi = m2
            else:
                lo = m1
        return np.array([(lo + hi) / 2.0])

    def phi_vec(m):
        return float(sum(w * cost.evaluate(x, m) for x, w in zip(points, masses)))

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
    lo, hi = float(xs.min()), float(xs.max())

    def phi(m):
        return float(sum(w * cost.evaluate(np.array([x]), np.array([m])) for x, w in zip(xs, lams)))

    while hi - lo > 1e-12:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if phi(m1) <= phi(m2):
            hi = m2
        else:
            lo = m1
    return float((lo + hi) / 2.0)


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
    cobj = obj["constraint"]
    kind = cobj.get("kind")
    if kind in ("simplex_over", "fixed_support"):
        constraint = Constraint.simplex_over(cobj["atoms"])
    elif kind == "free":
        constraint = Constraint.free(int(cobj["k"]))
    elif kind == "quantile_1d":
        constraint = Constraint.quantile_1d()
    else:
        raise ValueError(f"unknown constraint kind {kind!r}")
    return BarycenterProblem.make(inputs, constraint, cost_from_json(obj["cost"]))


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
