"""Exact discrete transport: LP solver, plan algebra, brute-force oracle.

``solve_transport`` minimizes sum_ij coupling_ij * c_ij subject to the
marginal constraints and certifies optimality with a feasible dual pair
(potentials u, v with u_i + v_j <= c_ij) whose objective closes the gap.
``brute_force_transport`` recomputes the optimum for tiny instances by
enumerating every basis of the transportation polytope; it shares no code
path with the LP and serves as the independent oracle.

``solve_lp_batch`` takes five routes, in this order.  A 1xn or nx1 problem
has a single feasible plan.  A problem with more than ``MAX_BATCH_VARS``
variables whose cost matrix is Monge (C_ij + C_i+1,j+1 <= C_i,j+1 + C_i+1,j
in the stored atom order, as for a convex translation cost on the line)
takes the north-west-corner plan, which is then optimal (Hoffman 1963;
Peyre & Cuturi 2019, section 2.6).  Its row and column sums are checked
and its row potentials read off its staircase.  A problem of that size
whose cost is a metric (``CostSpec.is_metric``) and whose matrix has
zero-cost cells, the atoms the two measures share, keeps min(a_i, b_i) in
place at each of them: the cost is then the Kantorovich-Rubinstein
distance, which depends on mu - nu alone (Villani 2003, Theorem 1.14;
Peyre & Cuturi 2019, section 6.1), so only the smaller problem between
the atoms with surplus and those with deficit goes back through these
routes.  Any other problem of that size goes through the shortlist below,
and so does a plan of the two exact routes that fails its checks, with one
warning.  The remaining small problems are packed into block-diagonal
LPs.  Smaller problems are not tested for the Monge property or shared
atoms: that test costs more than the LPs it would save.

One builder, ``_staircase``, computes the north-west-corner plan of any
number of marginals: the Monge route's plan, the shortlist's feasible
start and the cells of ``barycenter.barycenter_quantile_1d``.

Every transport LP is built by ``_marginal_columns``: the sparse marginal
rows of one or more problems (two nonzeros per column, block-diagonal
across problems), restricted to a set of columns.  Small problems are
packed into block-diagonal calls on all their columns, each one cold run
of the LP kernel ``mkbary.lp`` in ``_solve_columns``.

The shortlist (Gottschlich & Schuhmacher 2014; Schmitzer 2016) solves a
large problem on a few of its columns.  The LP starts on the
``SHORTLIST_K`` cheapest columns of every row and every column plus the
support of the north-west-corner plan, so it is always feasible.  Each
round solves the LP on the current columns, prices all m*n reduced costs
C - u (+) v from its equality duals in one pass and adds the columns below
the solver's dual tolerance, at most ``SHORTLIST_K`` of every row and
every column, most violated first.  The rounds run on one kept
``lp.Model``: the new columns are appended to it and enter at 0, so the
last basis stays feasible and the next round starts warm from it (the
kernel re-runs a warm round that is not optimal cold, on the same model).
When no column is missing, the plan is scattered back to m x n and
polished and certified over the full C, exactly like a plan of the full LP
or a north-west-corner plan.  After ``SHORTLIST_MAX_ROUNDS`` rounds a last
round solves the full LP cold through ``_solve_columns``, with one warning
on the ``mkbary`` logger.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from . import lp
from .costs import CostSpec
from .errors import CertificateViolation, MarginalMismatch, NumericalFailure, TooLarge
from .measures import DiscreteMeasure, mixture

GAP_TOL = 1e-9
# absolute tolerance of every invariant ``TransportPlan.check`` tests
CHECK_TOL = 1e-9
# Cap on the LP variables of one block-diagonal HiGHS call.  HiGHS memory
# grows with the number of blocks, so an uncapped batch of thousands of tiny
# LPs costs megabytes; near a thousand variables the per-call overhead is
# already amortized.
MAX_BATCH_VARS = 1024
# Start columns per row and per column of a shortlisted problem, and the
# pricing rounds it gets before the full LP is solved instead.
SHORTLIST_K = 8
SHORTLIST_MAX_ROUNDS = 20

log = logging.getLogger("mkbary")


def __getattr__(name):
    # scipy's LP front end, never called here: perfbench/tracer.py wraps it
    # under this name.  Importing it loads scipy.optimize, so only on demand.
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class TransportPlan:
    """A coupling of two measures with its cost and optional dual certificate."""

    source: DiscreteMeasure
    target: DiscreteMeasure
    coupling: np.ndarray
    objective: float
    duals: Optional[tuple] = None  # (u over source atoms, v over target atoms)
    gap: Optional[float] = None

    def check(self, cost_matrix: np.ndarray) -> None:
        """Check the marginal, objective, and dual-feasibility invariants
        against the plan's ``cost_matrix``, each to within CHECK_TOL.

        Raises CertificateViolation naming the first invariant that fails;
        unlike ``assert`` this also runs under ``python -O``.
        """
        def require(ok, what: str) -> None:
            if not ok:
                raise CertificateViolation(f"transport plan fails its {what} check")

        require(np.allclose(self.coupling.sum(axis=1), self.source.weights,
                            atol=CHECK_TOL, rtol=0.0), "source marginal")
        require(np.allclose(self.coupling.sum(axis=0), self.target.weights,
                            atol=CHECK_TOL, rtol=0.0), "target marginal")
        require(np.all(self.coupling >= -CHECK_TOL), "nonnegativity")
        require(abs(float((self.coupling * cost_matrix).sum()) - self.objective) <= CHECK_TOL,
                "objective")
        if self.duals is not None:
            u, v = self.duals
            require(np.all(u[:, None] + v[None, :] <= cost_matrix + CHECK_TOL),
                    "dual feasibility")
            dual_obj = float(self.source.weights @ u + self.target.weights @ v)
            require(self.objective - dual_obj <= CHECK_TOL * (1.0 + abs(self.objective)),
                    "duality gap")


def _marginal_columns(shapes, cols: np.ndarray) -> lp.CSC:
    """Block-diagonal marginal rows of the problems ``shapes`` on flat columns ``cols``.

    Every problem has the same number N of marginals, and its variables are
    the cells of its n_1 x ... x n_N array in C order, numbered one problem
    after another.  Each block has n_1 + sum_{i>=2} (n_i - 1) rows: every
    sum of marginal 1, then the first n_i - 1 sums of each later marginal.
    A column unravels to one atom a_i per marginal and holds a 1 in each of
    those rows it meets, rows ascending.  Transport is N = 2: an m x n block
    has m + n - 1 rows, and its column k = i*n + j holds a 1 in the block's
    row i and, unless j = n-1, in its row m + j.  ``cols`` may come in any
    order and repeat a column.
    """
    shapes = np.array(shapes).reshape(len(shapes), -1)
    var_off = np.concatenate([[0], np.cumsum(shapes.prod(axis=1))])
    row_off = np.concatenate([[0], np.cumsum(shapes.sum(axis=1) - shapes.shape[1] + 1)])
    block = np.searchsorted(var_off, cols, side="right") - 1
    # the atoms of the later marginals, last first; what is left is marginal 1's
    atom, later = cols - var_off[block], []
    for i in range(shapes.shape[1] - 1, 0, -1):
        atom, a = np.divmod(atom, shapes[block, i])
        later.append((a, shapes[block, i] - 1))
    later.reverse()
    has_row = [a < last for a, last in later]
    n_rows = np.ones(len(cols), dtype=np.intp)
    for has in has_row:
        n_rows += has
    indptr = np.zeros(len(cols) + 1, dtype=np.int32)
    np.cumsum(n_rows, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    first = indptr[:-1]
    indices[first] = row_off[block] + atom
    row, at = row_off[block] + shapes[block, 0], first + 1
    for i, ((a, last), has) in enumerate(zip(later, has_row)):
        indices[at[has]] = (row + a)[has]
        if i + 1 < len(later):
            row, at = row + last, at + has
    return lp.CSC(np.ones(len(indices)), indices, indptr, (int(row_off[-1]), len(cols)))


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


def _polish(C: np.ndarray, u: np.ndarray):
    """Potentials (u, v) by a c-transform of the row duals over all of C.

    Dual feasibility then holds, whatever columns the solver saw.  At large
    costs the sum u_i + v_j can still round above C_ij by more than
    CHECK_TOL (up to 2e-6 at costs near 1e12), so such a row is lowered by
    its excess, and by at least one unit in the last place, until it is not.
    Potentials that are not finite raise NumericalFailure.
    """
    work = C - u[:, None]
    v = work.min(axis=0)
    u = np.subtract(C, v, out=work).min(axis=1)
    while True:
        np.add(u[:, None], v, out=work)  # the excess u (+) v - C, in the same buffer
        work -= C
        over = work.max(axis=1)
        worst = over.max()
        if worst <= CHECK_TOL:
            return u, v
        if not np.isfinite(worst):  # inf or NaN, which no lowering mends
            raise NumericalFailure("c-transform potentials are not finite")
        high = over > CHECK_TOL
        u[high] = np.minimum(u[high] - over[high], np.nextafter(u[high], -np.inf))


def _certify(k: int, x: np.ndarray, C: np.ndarray, a: np.ndarray, b: np.ndarray, u, v):
    # a simplex vertex of the transportation polytope has at most m+n-1
    # positive entries, so a larger support means the solver left a cycle
    m, n = x.shape
    support = int(np.count_nonzero(x > 1e-12))
    if support > m + n - 1:
        raise NumericalFailure(
            f"transport LP block {k}: plan has {support} positive entries, "
            f"more than the {m + n - 1} of a vertex"
        )
    objective = float((x * C).sum())
    dual = float(a @ u + b @ v)
    gap = max(0.0, objective - dual)
    if gap > GAP_TOL * (1.0 + abs(objective)):
        raise NumericalFailure(f"transport LP block {k}: duality gap {gap:.3e} not closed")
    return x, objective, u, v, gap


def _failed(ks, message: str, kept: int, total: int) -> str:
    return f"transport LP blocks {ks[0]}..{ks[-1]} failed: {message} on {kept} of {total} columns"


def _solve_columns(problems, ks):
    """One cold LP kernel call over all columns of ``problems[k]`` for k in ``ks``.

    The problems' variables are numbered one after another.  Returns the
    clipped plan and the row duals of each problem, in order.
    """
    shapes = [problems[k][0].shape for k in ks]
    costs = np.concatenate([problems[k][0].ravel() for k in ks])
    rhs = np.concatenate([np.concatenate([problems[k][1], problems[k][2][:-1]]) for k in ks])
    res = lp.solve(costs, _marginal_columns(shapes, np.arange(costs.size)), rhs)
    if res.status != 0:
        raise NumericalFailure(_failed(ks, res.message, costs.size, costs.size))
    x = np.clip(res.x, 0.0, None)
    sols, col, row = [], 0, 0
    for m, n in shapes:
        sols.append((x[col:col + m * n].reshape(m, n), res.duals[row:row + m]))
        col += m * n
        row += m + n - 1
    return sols


def _staircase(*weights):
    """Atoms ``idx`` and masses of the north-west-corner plan of N marginals.

    The cells are cut at the merged partial sums of all marginals and hold
    the mass between two consecutive cuts: the common refinement of their
    quantile functions, with sum n_k - N + 1 cells.  ``idx[k]`` is the atom
    of marginal k in each cell; it steps up by one at each cut of marginal k.
    """
    steps = np.concatenate([np.cumsum(w)[:-1] for w in weights])
    order = np.argsort(steps, kind="stable")
    owner = np.repeat(np.arange(len(weights)), [len(w) - 1 for w in weights])[order]
    idx = np.zeros((len(weights), order.size + 1), dtype=int)
    np.cumsum(owner == np.arange(len(weights))[:, None], axis=1, out=idx[:, 1:])
    cuts = np.concatenate([[0.0], steps[order], [weights[0].sum()]])
    return idx, np.clip(np.diff(cuts), 0.0, None)


def _is_monge(C: np.ndarray) -> bool:
    """Whether C[i,j] + C[i+1,j+1] <= C[i,j+1] + C[i+1,j] for all i, j.

    The slack 1e-12 (1 + max|C|) admits the cross differences of |x - y|
    on the line, which are zero in exact arithmetic but round either way.
    A matrix with an inf or NaN entry has no finite slack and is not
    Monge here, so it goes to the LP, which rejects it.  The rows are
    tested in blocks of 32, so a matrix that is not Monge, as in the plane
    or on a finite space, usually fails after the first block.
    """
    tol = 1e-12 * (1.0 + max(C.max(), -C.min()))  # NaN if C holds a NaN
    if not np.isfinite(tol):
        return False
    for i in range(0, C.shape[0] - 1, 32):
        B = C[i:i + 33]
        if np.any(B[:-1, :-1] + B[1:, 1:] > B[:-1, 1:] + B[1:, :-1] + tol):
            return False
    return True


def _northwest(C: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The north-west-corner plan and its row potentials, for a Monge C.

    The potentials satisfy u_i + v_j = C_ij on every cell of the staircase,
    so u changes by the cost difference of each down step.
    """
    (rows, cols), mass = _staircase(a, b)
    x = np.zeros(C.shape)
    x[rows, cols] = mass
    down = np.diff(rows) > 0
    return x, np.concatenate([[0.0], np.cumsum(np.diff(C[rows, cols])[down])])


def _shared_mass(C: np.ndarray, a: np.ndarray, b: np.ndarray):
    """A plan that keeps the shared mass in place, and its row potentials,
    for a metric C.

    Each zero-cost cell (i, j), a shared atom, keeps min(a_i, b_j).  The
    rows P and columns Q with mass left over form a surplus x deficit
    problem with no shared atom, solved by ``solve_lp_batch``; its plan is
    scattered into P x Q, where no mass was kept.  The row potentials are
    the c-transform u_i = min_q (C_iq - v_q) of its column potentials v.
    """
    rows, cols = np.nonzero(C == 0.0)  # at most one per row and column for a metric
    kept = np.minimum(a[rows], b[cols])
    x = np.zeros(C.shape)
    x[rows, cols] = kept
    left_a, left_b = a.copy(), b.copy()
    left_a[rows] -= kept
    left_b[cols] -= kept
    P, Q = np.flatnonzero(left_a > 0.0), np.flatnonzero(left_b > 0.0)
    if P.size == 0 or Q.size == 0:  # nothing to move, as when mu = nu
        return x, np.zeros(C.shape[0])
    [(y, _, _, v, _)] = solve_lp_batch([(C[np.ix_(P, Q)], left_a[P], left_b[Q])])
    x[np.ix_(P, Q)] = y
    return x, (C[:, Q] - v).min(axis=1)


def _solve_large(problems, k: int, metric: bool):
    """Certified solution of ``problems[k]``, a problem too large for a batch.

    On a Monge cost matrix the north-west-corner plan is optimal (Hoffman
    1963).  On a metric cost matrix with zero-cost cells, the shared atoms,
    some optimal plan keeps min(a_i, b_i) at each of them, since the cost
    is the Kantorovich-Rubinstein distance and depends on mu - nu alone
    (Villani 2003, Theorem 1.14), so only the surplus x deficit problem
    left over needs an LP.  Either plan is certified by its row and column
    sums, which no solver vouches for in full, and by potentials polished
    over the full C.  Otherwise, or when that certificate fails (with one
    warning), the shortlist solves the LP.
    """
    C, a, b = problems[k]
    route = None
    if _is_monge(C):
        route, what = _northwest, "north-west-corner plan on a Monge cost matrix"
    elif metric and (C == 0.0).any():
        route, what = _shared_mass, "shared-mass plan on a metric cost matrix"
    if route is not None:
        try:
            x, u = route(C, a, b)
            miss = max(np.abs(x.sum(axis=1) - a).max(), np.abs(x.sum(axis=0) - b).max())
            if miss > CHECK_TOL:
                raise NumericalFailure(f"transport LP block {k}: plan misses a marginal "
                                       f"by {miss:.3e}")
            return _certify(k, x, C, a, b, *_polish(C, u))
        except NumericalFailure as exc:
            log.warning("transport LP block %d: %s not certified (%s); solving the LP",
                        k, what, exc)
    x, u = _solve_shortlist(problems, k)
    return _certify(k, x, C, a, b, *_polish(C, u))


def _cheapest(M: np.ndarray) -> np.ndarray:
    """Mask of the ``SHORTLIST_K`` smallest entries of every row and every column of M."""
    m, n = M.shape
    keep = np.zeros((m, n), dtype=bool)
    k = min(SHORTLIST_K, n)
    np.put_along_axis(keep, np.argpartition(M, k - 1, axis=1)[:, :k], True, axis=1)
    k = min(SHORTLIST_K, m)
    np.put_along_axis(keep, np.argpartition(M, k - 1, axis=0)[:k], True, axis=0)
    return keep


def _solve_shortlist(problems, k: int):
    """Plan and row duals of ``problems[k]`` by shortlist column generation.

    The start columns are the cheapest of every row and every column and
    the north-west-corner staircase, which holds a feasible plan.  Every
    round runs one kept ``lp.Model`` and prices every column by its reduced
    cost C - u (+) v (v = 0 on the column whose row is dropped).  Of the
    columns below the solver's dual tolerance, the ``SHORTLIST_K`` most
    violated of every row and every column are appended to the model, and
    the next round starts warm from the last basis; the plan is scattered
    back by the order in which the columns were added.  A round that is not
    optimal after the kernel's cold re-run raises NumericalFailure.  When
    columns are still missing after ``SHORTLIST_MAX_ROUNDS`` rounds, one
    last round solves the full LP cold, with one warning.
    """
    C, a, b = problems[k]
    m, n = C.shape
    costs = C.ravel()
    keep = _cheapest(C)
    (rows, cols), _ = _staircase(a, b)
    keep[rows, cols] = True
    model, new = None, np.flatnonzero(keep)
    for _ in range(SHORTLIST_MAX_ROUNDS):
        block = _marginal_columns([(m, n)], new)
        if model is None:
            model, order = lp.Model(costs[new], block, np.concatenate([a, b[:-1]])), new
        else:
            model.add_columns(costs[new], block)
            order = np.concatenate([order, new])
        res = model.run()
        if res.status != 0:
            raise NumericalFailure(_failed([k], res.message, order.size, costs.size))
        u = res.duals[:m]
        reduced = C - u[:, None]
        reduced[:, :-1] -= res.duals[m:]
        missing = (reduced < -lp.FEASIBILITY_TOL) & ~keep
        if not missing.any():
            flat = np.zeros(m * n)
            flat[order] = np.clip(res.x, 0.0, None)
            return flat.reshape(m, n), u
        reduced[~missing] = np.inf
        added = missing & _cheapest(reduced)
        keep |= added
        new = np.flatnonzero(added)
    log.warning("transport LP block %d: shortlist still missing columns after %d "
                "rounds; solving the full LP", k, SHORTLIST_MAX_ROUNDS)
    model = None  # freed before the full LP's model is built
    [(x, u)] = _solve_columns(problems, [k])
    return x, u


def solve_lp_batch(problems, metric: bool = False) -> list:
    """Solve independent transportation LPs given as ``(C, a, b)`` triples.

    Returns one ``(coupling, objective, u, v, gap)`` tuple per problem, in
    order.  ``metric`` says that every cost matrix is a metric between the
    atoms (see ``CostSpec.is_metric``).  1xn and nx1 problems have a single
    feasible plan and skip the solver.  A problem of more than
    ``MAX_BATCH_VARS`` variables is solved alone: by its north-west-corner
    plan when its cost matrix is Monge; when the cost is a metric with
    zero-cost cells, by keeping the shared mass in place and solving the
    surplus x deficit problem left over by this function; else by shortlist
    column generation, or by its full LP when the shortlist hits its round
    cap.  The others are packed in order into block-diagonal HiGHS calls of
    at most ``MAX_BATCH_VARS`` variables.
    Every plan is polished by a c-transform over its full cost matrix and
    certified by a vertex check and its own duality gap.  Raises
    NumericalFailure, naming the block, when the solver does not terminate
    optimally, a plan is not a vertex or a gap stays open.
    """
    problems = [(np.asarray(C, dtype=float), np.asarray(a, dtype=float),
                 np.asarray(b, dtype=float)) for C, a, b in problems]
    out = [None] * len(problems)
    small = []
    for k, (C, a, b) in enumerate(problems):
        m, n = C.shape
        if m == 1:
            out[k] = _certify(k, b[None, :].copy(), C, a, b, np.zeros(1), C[0].copy())
        elif n == 1:
            out[k] = _certify(k, a[:, None].copy(), C, a, b, C[:, 0].copy(), np.zeros(1))
        elif m * n > MAX_BATCH_VARS:
            out[k] = _solve_large(problems, k, metric)
        else:
            small.append(k)

    for run in _pack([problems[k][0].size for k in small], MAX_BATCH_VARS):
        ks = [small[r] for r in run]
        for k, (x, u) in zip(ks, _solve_columns(problems, ks)):
            out[k] = _certify(k, x, *problems[k], *_polish(problems[k][0], u))
    return out


def solve_lp_matrix(C: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Solve one transportation LP: ``solve_lp_batch`` on a batch of one."""
    return solve_lp_batch([(C, a, b)])[0]


def solve_transport_batch(pairs, cost: CostSpec) -> list:
    """Optimal plans for independent ``(mu, nu)`` pairs, solved as one batch."""
    pairs = list(pairs)
    matrices = [cost.matrix(mu, nu) for mu, nu in pairs]
    sols = solve_lp_batch(
        [(C, mu.weights, nu.weights) for C, (mu, nu) in zip(matrices, pairs)], cost.is_metric
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
        C = cost.matrix(self.first, self.second)
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
    if not np.allclose(out.marginal_xz(), gamma1.coupling, atol=1e-9, rtol=0.0):
        raise MarginalMismatch("gluing failed to reproduce the first plan")
    if not np.allclose(out.marginal_yz(), gamma2.coupling, atol=1e-9, rtol=0.0):
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


def _plan_fields(plan: TransportPlan) -> dict:
    """Every field of ``plan_to_json`` but the coupling."""
    out = {"objective": plan.objective}
    if plan.duals is not None:
        u, v = plan.duals
        out["duals"] = {"u": u.tolist(), "v": v.tolist()}
    if plan.gap is not None:
        out["gap"] = plan.gap
    return out


def plan_to_json(plan: TransportPlan) -> dict:
    return {"coupling": plan.coupling.tolist(), **_plan_fields(plan)}
