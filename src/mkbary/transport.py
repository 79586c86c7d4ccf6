"""Exact discrete transport: LP solver, plan algebra, brute-force oracle.

``solve_transport`` minimizes sum_ij coupling_ij * c_ij subject to the
marginal constraints and certifies optimality with a feasible dual pair
(potentials u, v with u_i + v_j <= c_ij) whose objective closes the gap.
``brute_force_transport`` recomputes the optimum for tiny instances by
enumerating every basis of the transportation polytope; it shares no code
path with the LP and serves as the independent oracle.

Every transport LP goes through ``solve_lp_batch``: a sparse marginal
system (two nonzeros per column) and block-diagonal HiGHS calls that solve
many independent small LPs at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from .costs import CostSpec
from .errors import CertificateViolation, MarginalMismatch, NumericalFailure, TooLarge
from .measures import DiscreteMeasure, mixture

GAP_TOL = 1e-9
# Cap on the LP variables of one block-diagonal HiGHS call.  HiGHS memory
# grows with the number of blocks, so an uncapped batch of thousands of tiny
# LPs costs megabytes; near a thousand variables the per-call overhead is
# already amortized.
MAX_BATCH_VARS = 1024
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True)
class TransportPlan:
    """A coupling of two measures with its cost and optional dual certificate."""

    source: DiscreteMeasure
    target: DiscreteMeasure
    coupling: np.ndarray
    objective: float
    duals: Optional[tuple] = None  # (u over source atoms, v over target atoms)
    gap: Optional[float] = None

    def check(self, cost_matrix: Optional[np.ndarray] = None, tol: float = 1e-9) -> None:
        """Check the marginal, objective, and dual-feasibility invariants.

        Raises CertificateViolation naming the first invariant that fails;
        unlike ``assert`` this also runs under ``python -O``.
        """
        def require(ok, what: str) -> None:
            if not ok:
                raise CertificateViolation(f"transport plan fails its {what} check")

        require(np.allclose(self.coupling.sum(axis=1), self.source.weights, atol=tol),
                "source marginal")
        require(np.allclose(self.coupling.sum(axis=0), self.target.weights, atol=tol),
                "target marginal")
        require(np.all(self.coupling >= -tol), "nonnegativity")
        if cost_matrix is not None:
            require(abs(float((self.coupling * cost_matrix).sum()) - self.objective) <= tol,
                    "objective")
            if self.duals is not None:
                u, v = self.duals
                require(np.all(u[:, None] + v[None, :] <= cost_matrix + tol), "dual feasibility")
                dual_obj = float(self.source.weights @ u + self.target.weights @ v)
                require(self.objective - dual_obj <= tol * (1.0 + abs(self.objective)),
                        "duality gap")


@lru_cache(maxsize=64)
def _marginal_system(m: int, n: int) -> csc_array:
    """Sparse equality rows (all m row sums, first n-1 column sums) over mn variables.

    Column k = i*n + j holds a 1 in row i and, unless j = n-1, a 1 in row
    m + j: m*n + m*(n-1) nonzeros in all.  Cached per shape, so its arrays
    are read-only.
    """
    i, j = np.divmod(np.arange(m * n), n)
    has_col_row = j < n - 1
    indptr = np.zeros(m * n + 1, dtype=np.int64)
    np.cumsum(1 + has_col_row, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[indptr[:-1]] = i
    indices[indptr[:-1][has_col_row] + 1] = m + j[has_col_row]
    A = csc_array((np.ones(len(indices)), indices, indptr), shape=(m + n - 1, m * n))
    for arr in (A.data, A.indices, A.indptr):
        arr.flags.writeable = False
    return A


def _block_system(shapes) -> csc_array:
    """Block-diagonal stack of the marginal systems of ``shapes``, in order."""
    if len(shapes) == 1:
        return _marginal_system(*shapes[0])
    blocks = [_marginal_system(m, n) for m, n in shapes]
    row_off = np.cumsum([0] + [A.shape[0] for A in blocks])
    nnz_off = np.cumsum([0] + [A.nnz for A in blocks])
    indices = np.concatenate([A.indices + r for A, r in zip(blocks, row_off)])
    indptr = np.concatenate([[0]] + [A.indptr[1:] + z for A, z in zip(blocks, nnz_off)])
    shape = (int(row_off[-1]), sum(A.shape[1] for A in blocks))
    return csc_array((np.ones(len(indices)), indices, indptr), shape=shape)


def _cancel_cycles(x: np.ndarray, C: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Remove support cycles so the plan has at most m+n-1 positive entries.

    At an optimum every support cycle has zero cost, so cancelling keeps
    the objective; the non-increasing direction is chosen regardless.
    """
    m, n = x.shape
    x = x.copy()
    while True:
        rows = [list(np.nonzero(x[i] > tol)[0]) for i in range(m)]
        cols = [list(np.nonzero(x[:, j] > tol)[0]) for j in range(n)]
        # DFS on the bipartite support graph; nodes 0..m-1 rows, m..m+n-1 cols
        parent = {}
        cycle = None
        for start in range(m):
            if cycle or start in parent:
                continue
            if not rows[start]:
                continue
            parent[start] = None
            stack = [start]
            while stack and cycle is None:
                node = stack.pop()
                if node < m:
                    nbrs = [m + j for j in rows[node]]
                else:
                    nbrs = list(cols[node - m])
                for nb in nbrs:
                    if nb == parent[node]:
                        continue
                    if nb in parent:
                        # reconstruct the cycle from both ancestries
                        path_a, p = [node], node
                        while p is not None:
                            p = parent[p]
                            if p is not None:
                                path_a.append(p)
                        path_b, p = [nb], nb
                        while p is not None:
                            p = parent[p]
                            if p is not None:
                                path_b.append(p)
                        common = next(c for c in path_a if c in set(path_b))
                        cyc = path_a[: path_a.index(common) + 1]
                        cyc += list(reversed(path_b[: path_b.index(common)]))
                        cycle = cyc
                        break
                    parent[nb] = node
                    stack.append(nb)
        if cycle is None:
            return x
        cells = []
        for a, b in zip(cycle, cycle[1:] + [cycle[0]]):
            i, j = (a, b - m) if a < m else (b, a - m)
            cells.append((i, j))
        signs = np.array([1.0 if k % 2 == 0 else -1.0 for k in range(len(cells))])
        unit_cost = float(sum(s * C[i, j] for s, (i, j) in zip(signs, cells)))
        if unit_cost > 0:
            signs = -signs
        theta = min(x[i, j] for s, (i, j) in zip(signs, cells) if s < 0)
        for s, (i, j) in zip(signs, cells):
            x[i, j] += s * theta
            if x[i, j] < tol:
                x[i, j] = 0.0


def _pack(sizes, cap: int):
    """Split consecutive problem indices into runs of at most ``cap`` variables.

    A problem larger than ``cap`` gets a run of its own.
    """
    runs, run, total = [], [], 0
    for k, size in enumerate(sizes):
        if run and total + size > cap:
            runs.append(run)
            run, total = [], 0
        run.append(k)
        total += size
    if run:
        runs.append(run)
    return runs


def _certify(k: int, x: np.ndarray, C: np.ndarray, a: np.ndarray, b: np.ndarray, u, v):
    objective = float((x * C).sum())
    dual = float(a @ u + b @ v)
    gap = max(0.0, objective - dual)
    if gap > GAP_TOL * (1.0 + abs(objective)):
        raise NumericalFailure(f"transport LP block {k}: duality gap {gap:.3e} not closed")
    return x, objective, u, v, gap


def solve_lp_batch(problems) -> list:
    """Solve independent transportation LPs given as ``(C, a, b)`` triples.

    Returns one ``(coupling, objective, u, v, gap)`` tuple per problem, in
    order.  1xn and nx1 problems have a single feasible plan and skip the
    solver.  The others are packed in order into block-diagonal HiGHS calls
    of at most ``MAX_BATCH_VARS`` variables; a larger problem is solved
    alone.  Each block's primal and equality duals are split back out,
    cleaned of support cycles, polished by a c-transform and certified by
    its own duality gap.  Raises NumericalFailure, naming the block, when
    the solver does not terminate optimally or a gap stays open.
    """
    problems = [(np.asarray(C, dtype=float), np.asarray(a, dtype=float),
                 np.asarray(b, dtype=float)) for C, a, b in problems]
    out = [None] * len(problems)
    pending = []
    for k, (C, a, b) in enumerate(problems):
        m, n = C.shape
        if m == 1:
            out[k] = _certify(k, b[None, :].copy(), C, a, b, np.zeros(1), C[0].copy())
        elif n == 1:
            out[k] = _certify(k, a[:, None].copy(), C, a, b, C[:, 0].copy(), np.zeros(1))
        else:
            pending.append(k)

    for run in _pack([problems[k][0].size for k in pending], MAX_BATCH_VARS):
        ks = [pending[r] for r in run]
        shapes = [problems[k][0].shape for k in ks]
        c_vec = np.concatenate([problems[k][0].ravel() for k in ks])
        rhs = np.concatenate([np.concatenate([problems[k][1], problems[k][2][:-1]])
                              for k in ks])
        res = linprog(
            c_vec, A_eq=_block_system(shapes), b_eq=rhs, bounds=(0, None),
            method="highs", options=_LP_OPTIONS,
        )
        if res.status != 0:
            raise NumericalFailure(
                f"transport LP blocks {ks[0]}..{ks[-1]} failed: {res.message}"
            )
        col, row = 0, 0
        for k, (m, n) in zip(ks, shapes):
            C, a, b = problems[k]
            x = np.clip(res.x[col:col + m * n].reshape(m, n), 0.0, None)
            x = _cancel_cycles(x, C)
            u = np.asarray(res.eqlin.marginals[row:row + m], dtype=float)
            # polish the potentials so feasibility holds exactly
            v = np.min(C - u[:, None], axis=0)
            u = np.min(C - v[None, :], axis=1)
            out[k] = _certify(k, x, C, a, b, u, v)
            col += m * n
            row += m + n - 1
    return out


def solve_lp_matrix(C: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Solve one transportation LP: ``solve_lp_batch`` on a batch of one."""
    return solve_lp_batch([(C, a, b)])[0]


def solve_transport_batch(pairs, cost: CostSpec) -> list:
    """Optimal plans for independent ``(mu, nu)`` pairs, solved as one batch."""
    pairs = list(pairs)
    matrices = [cost.bound_to(mu.space).matrix(mu, nu) for mu, nu in pairs]
    sols = solve_lp_batch(
        [(C, mu.weights, nu.weights) for C, (mu, nu) in zip(matrices, pairs)]
    )
    return [
        TransportPlan(source=mu, target=nu, coupling=x, objective=objective,
                      duals=(u, v), gap=gap)
        for (mu, nu), (x, objective, u, v, gap) in zip(pairs, sols)
    ]


def solve_transport(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec) -> TransportPlan:
    """Optimal transport plan between two measures; objective equals J(mu, nu)."""
    return solve_transport_batch([(mu, nu)], cost)[0]


def transport_costs(pairs, cost: CostSpec) -> list:
    """J(mu, nu) for each pair, solved as one batch."""
    return [plan.objective for plan in solve_transport_batch(pairs, cost)]


def transport_cost(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec) -> float:
    return solve_transport(mu, nu, cost).objective


def _dense_marginal_rows(m: int, n: int) -> np.ndarray:
    """The oracle's own dense copy of the marginal rows (tiny shapes only)."""
    E = np.zeros((m + n - 1, m * n))
    for i in range(m):
        E[i, i * n : (i + 1) * n] = 1.0
    for j in range(n - 1):
        E[m + j, j::n] = 1.0
    return E


@lru_cache(maxsize=32)
def _bases_for_shape(m: int, n: int):
    E = _dense_marginal_rows(m, n)
    r = m + n - 1
    subsets = np.array(list(combinations(range(m * n), r)), dtype=int)
    bases = np.transpose(E[:, subsets], (1, 0, 2))  # (K, r, r)
    dets = np.abs(np.linalg.det(bases))
    ok = dets > 0.5
    return subsets[ok], bases[ok]


def brute_force_transport(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec) -> float:
    """Exact optimum by enumerating every basis of the transportation polytope.

    Independent of the LP path; limited to supports of size at most 4x4.
    """
    cost = cost.bound_to(mu.space)
    C = cost.matrix(mu, nu)
    m, n = C.shape
    if m > 4 or n > 4:
        raise TooLarge(f"brute force capped at 4x4 supports, got {m}x{n}")
    a, b = mu.weights, nu.weights
    if m == 1:
        return float(b @ C[0])
    if n == 1:
        return float(a @ C[:, 0])
    subsets, bases = _bases_for_shape(m, n)
    rhs = np.concatenate([a, b[:-1]])
    sols = np.linalg.solve(bases, np.tile(rhs, (len(bases), 1))[..., None])[..., 0]
    feasible = np.all(sols >= -1e-9, axis=1)
    if not feasible.any():
        raise NumericalFailure("no feasible basis found (should be impossible)")
    costs = (C.ravel()[subsets[feasible]] * np.clip(sols[feasible], 0.0, None)).sum(axis=1)
    return float(costs.min())


@dataclass(frozen=True)
class GluedCoupling:
    """Three-marginal coupling sigma built from two plans sharing a target."""

    first: DiscreteMeasure    # x marginal
    second: DiscreteMeasure   # y marginal
    shared: DiscreteMeasure   # z marginal
    sigma: np.ndarray         # (x, y, z) indexed

    def marginal_xy(self) -> np.ndarray:
        return self.sigma.sum(axis=2)

    def marginal_xz(self) -> np.ndarray:
        return self.sigma.sum(axis=1)

    def marginal_yz(self) -> np.ndarray:
        return self.sigma.sum(axis=0)

    def projected_xy_cost(self, cost: CostSpec) -> float:
        """K of the (x, y) projection; an upper bound for J(first, second)."""
        C = cost.bound_to(self.first.space).matrix(self.first, self.second)
        return float((self.marginal_xy() * C).sum())


def glue(gamma1: TransportPlan, gamma2: TransportPlan) -> GluedCoupling:
    """Glue plans gamma1 in Pi(mu, lam), gamma2 in Pi(nu, lam) along lam.

    sigma(i, j, k) = gamma1(i, k) * gamma2(j, k) / lam(k); the (x,z) and
    (y,z) marginals reproduce the input plans.
    """
    lam = gamma1.target
    if not lam.same_as(gamma2.target, atol=1e-9):
        raise MarginalMismatch("plans do not share their second marginal")
    sigma = np.einsum("ik,jk->ijk", gamma1.coupling, gamma2.coupling) / lam.weights[None, None, :]
    out = GluedCoupling(first=gamma1.source, second=gamma2.source, shared=lam, sigma=sigma)
    if not np.allclose(out.marginal_xz(), gamma1.coupling, atol=1e-9):
        raise MarginalMismatch("gluing failed to reproduce the first plan")
    if not np.allclose(out.marginal_yz(), gamma2.coupling, atol=1e-9):
        raise MarginalMismatch("gluing failed to reproduce the second plan")
    return out


def interpolation_cost(mu0, mu1, t: float, tp: float, cost: CostSpec):
    """J(mu_t, mu_tp) along the mixture segment and its bound (tp-t) J(mu0, mu1)."""
    if not 0.0 <= t <= tp <= 1.0:
        raise ValueError("need 0 <= t <= t' <= 1")
    if t == tp:
        return 0.0, 0.0
    base, value = transport_costs(
        [(mu0, mu1), (mixture(mu0, mu1, t), mixture(mu0, mu1, tp))], cost
    )
    return value, (tp - t) * base


def plan_to_json(plan: TransportPlan) -> dict:
    out = {"coupling": plan.coupling.tolist(), "objective": plan.objective}
    if plan.duals is not None:
        u, v = plan.duals
        out["duals"] = {"u": u.tolist(), "v": v.tolist()}
    if plan.gap is not None:
        out["gap"] = plan.gap
    return out
