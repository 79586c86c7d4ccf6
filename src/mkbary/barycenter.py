"""Frechet barycenter solvers for weighted families of discrete measures.

Three routes, one per constraint kind; each raises ValueError on another:

* ``barycenter_fixed_support`` (``simplex_over``): globally optimal on the
  simplex over a candidate atom set, by the smaller of two LPs with the
  same optimum.  The multi-marginal LP over the prod n_i tuples of input
  atoms, each priced at its cheapest candidate, solves when it has no more
  columns than the joint LP over the K sum n_i couplings of inputs and
  candidates; else the joint LP.  Either way the certificate is a duality
  gap against the joint LP, and the tie-break is deterministic: the
  optimal vertex of least graded weight sum_k k w_k over the candidates,
  found on the optimal face cut from the gap tolerance, unless the main
  LP's basis proves the face one vertex.
* ``barycenter_free_support`` (``free``): alternating minimization over
  atom locations and the fixed-support LP; local certificate only.
* ``barycenter_quantile_1d`` (``quantile_1d``): exact solution on the line
  for convex translation costs via the common refinement of quantile
  functions, the N-marginal north-west-corner plan ``transport._staircase``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lp
from .costs import CostSpec, cost_from_json
from .errors import (
    NotConvexCost,
    NotOneDimensional,
    NumericalFailure,
)
from .measures import (
    TRIANGLE_SLAB_BYTES,
    DiscreteMeasure,
    GroundSpace,
    _as_indices,
    _merge_plan,
    canonicalize,
    json_field,
    json_keys,
    measure_to_json,
    measures_from_json,
    merge_equal_measures,
)
from .transport import GAP_TOL, _marginal_columns, _staircase, transport_costs

log = logging.getLogger("mkbary")


def __getattr__(name):
    # scipy's LP front end, never called here: perfbench/tracer.py wraps it
    # under this name.  Importing it loads scipy.optimize, so only on demand.
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


# constraint kind -> the keys besides ``kind``
_CONSTRAINT_KEYS = {"simplex_over": ("atoms",), "grid": ("box", "shape"), "free": ("k",),
                    "quantile_1d": ()}


def constraint_from_json(obj: dict) -> Constraint:
    """Parse a constraint: ``simplex_over``, ``grid`` (a candidate simplex on
    a box mesh), ``free`` or ``quantile_1d``."""
    kind = obj.get("kind")
    if kind not in _CONSTRAINT_KEYS:
        raise ValueError(f"unknown constraint kind {kind!r}")
    json_keys(obj, ("kind", *_CONSTRAINT_KEYS[kind]), f"{kind} constraint")
    if kind == "simplex_over":
        return Constraint.simplex_over(json_field(obj, "atoms", "numbers", "constraint"))
    if kind == "grid":
        box = json_field(obj, "box", "numbers", "constraint")
        shape = json_field(obj, "shape", "integers", "constraint", least=1)
        if box.shape != (2, len(shape)):
            raise ValueError("grid constraint needs a 'shape' per axis and a 'box' [lo, hi] "
                             "with one bound per axis in each")
        lo, hi = box
        axes = [np.linspace(lo[i], hi[i], k) for i, k in enumerate(shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return Constraint.simplex_over(np.stack([m.ravel() for m in mesh], axis=-1))
    if kind == "free":
        return Constraint.free(json_field(obj, "k", "integer", "constraint"))
    return Constraint.quantile_1d()


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
    """What backs a barycenter result.

    ``lp_optimal``: the fixed-support LP's duality gap, value minus the
    objective of a feasible dual of the joint LP over couplings and
    candidate weights: that LP's own duals, or, when the tuple LP solved,
    the c-transform of its row duals (see ``_tuple_lp``).  ``local_stationary``:
    the free-support run's last objective decrease, no global claim.
    ``quantile_1d``: |objective - closed-form cost of the monotone coupling
    over the common quantile refinement|, the objective computed two
    independent ways.  The objective sums lambda_i J(mu_i, nu) over per-input
    transport plans, each certified by its marginals and its own potentials:
    north-west-corner plans for problems above ``transport.MAX_BATCH_VARS``
    variables (their cost matrices are Monge on the line), LP plans below.
    Both sides can come from the one builder ``transport._staircase``: the
    closed form from the N-marginal plan of all inputs, the large per-input
    plans from its two-marginal case.
    """

    kind: str  # lp_optimal | local_stationary | quantile_1d
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
# Fixed-support LPs: the joint LP and the multi-marginal tuple LP
# ---------------------------------------------------------------------------

@dataclass
class _System:
    """The constraint side of a fixed-support LP, and the last optimal basis of a model of it.

    ``n_gamma`` and ``K`` split a joint LP's columns into couplings and
    weights; ``atoms`` holds, per input, the atom each tuple of a tuple LP
    takes (``np.unravel_index`` over the tuple numbers).
    """

    A: lp.CSC
    rhs: np.ndarray
    n_gamma: int = 0
    K: int = 0
    atoms: tuple = ()
    basis: object = None


def _kept(systems: Optional[dict], key, build):
    """``systems[key]``, made by ``build()`` on its first use; with no ``systems``, ``build()``."""
    if systems is None:
        return build()
    found = systems.get(key)
    if found is None:
        found = systems[key] = build()
    return found


def _system_key(route: str, inputs, S: np.ndarray):
    """What fixes a fixed-support LP's rows: the inputs' atom counts and weights
    and the candidate set, in a key space of each route's own."""
    return route, tuple((m.n_atoms, m.weights.tobytes()) for m, _ in inputs), S.shape, S.tobytes()


def _joint_lp_rows(inputs, K: int) -> _System:
    """The constraint rows of the joint LP over (coupling blocks, candidate weights).

    Input i adds its n_i x K coupling and n_i + K rows: the row marginals
    sum_k gamma_jk = mu_j, then the ties sum_j gamma_jk - w_k = 0.  The last
    row sums the weights w to 1.  The matrix is CSC with int32 indices, each
    column's rows ascending: a coupling column holds 1 in its marginal row
    and in its tie row, w_k holds -1 in the k-th tie row of every input and
    1 in the last row.
    """
    n_gamma = K * sum(m.n_atoms for m, _ in inputs)
    gamma_rows, tie_rows, rhs = [], [], []
    r = 0
    for m, _ in inputs:
        sz = m.n_atoms
        gamma_rows.append(np.stack([r + np.repeat(np.arange(sz), K),
                                    r + sz + np.tile(np.arange(K), sz)], axis=1).ravel())
        tie_rows.append(r + sz + np.arange(K))
        rhs += [m.weights, np.zeros(K)]
        r += sz + K
    w_rows = np.stack(tie_rows + [np.full(K, r)], axis=1).ravel()
    n_ties = len(inputs)
    indices = np.concatenate(gamma_rows + [w_rows]).astype(np.int32)
    indptr = np.concatenate([np.arange(0, 2 * n_gamma, 2),
                             2 * n_gamma + (n_ties + 1) * np.arange(K + 1)]).astype(np.int32)
    data = np.concatenate([np.ones(2 * n_gamma),
                           np.tile(np.append(np.full(n_ties, -1.0), 1.0), K)])
    A = lp.CSC(data, indices, indptr, (r + 1, n_gamma + K))
    return _System(A, np.concatenate(rhs + [[1.0]]), n_gamma=n_gamma, K=K)


def _joint_lp_system(inputs, cost: CostSpec, S: np.ndarray, systems: Optional[dict] = None):
    """The joint LP's costs and its ``_System`` (see ``_joint_lp_rows``).

    The costs are lambda_i times input i's cost table on the candidates,
    then 0 for every weight.  ``systems`` holds what one experiment run
    keeps between its LPs: the ``_System`` of each constraint system of
    either route (see ``_tuple_lp_system``), keyed by ``_system_key``, and
    each candidate set's merge plan (see ``barycenter_fixed_support``).  A
    and rhs are assembled once, and the last optimal basis is kept, so that
    a later LP of the same system, which differs only in its costs, starts
    warm.  It keeps bases rather than models: a model takes about a
    kilobyte per column.  With no ``systems``, the system is assembled
    afresh.
    """
    K = len(S)
    system = _kept(systems, _system_key("joint", inputs, S), lambda: _joint_lp_rows(inputs, K))
    c = np.concatenate([lam * cost.table(m.space, m.atoms, S).ravel() for m, lam in inputs]
                       + [np.zeros(K)])
    return c, system


def _split_gammas(x: np.ndarray, inputs, K: int):
    blocks, off = [], 0
    for m, _ in inputs:
        blocks.append(np.clip(x[off : off + m.n_atoms * K], 0.0, None).reshape(m.n_atoms, K))
        off += m.n_atoms * K
    return blocks


# candidate weights below this share of the largest (or of 1) are LP dust
DUST_REL = 1e-12


def _clip_dust(w: np.ndarray) -> np.ndarray:
    w = w.copy()
    w[w < DUST_REL * max(1.0, w.max())] = 0.0
    return w


def _require_kind(problem: BarycenterProblem, kind: str, route: str) -> None:
    if problem.constraint.kind != kind:
        raise ValueError(f"{route} solver needs a {kind} constraint, "
                         f"not {problem.constraint.kind}")


def _face_tie_break(model: lp.Model, c_vec, off_face, h, value, tol):
    """The lo/hi graded-weight LPs (minimize, then maximize h.x) on the optimal face.

    ``off_face`` marks the columns cut from the face (see ``_joint_lp``):
    both LPs then run on the main LP's own model with those columns fixed to
    0, each from the last run's basis.  With ``off_face`` None the model
    holds the face alone (see ``_tuple_lp``).  Returns the two solutions,
    zero off the face, or None when a run fails or its c.x misses ``value``
    by more than ``tol``.
    """
    if off_face is not None:
        model.fix_to_zero(np.flatnonzero(off_face))
    out = []
    for sign in (1.0, -1.0):
        model.set_costs(sign * h)
        r = model.run()
        if r.status != 0:
            return None
        x = r.x
        if off_face is not None:
            x[off_face] = 0.0
        if abs(c_vec @ x - value) > tol:
            return None
        out.append(x)
    return out


def _joint_lp(inputs, cost: CostSpec, S: np.ndarray, tie_break: bool = True,
              systems: Optional[dict] = None):
    """``_fixed_support_lp`` by the joint LP over (coupling blocks, candidate weights).

    Raises NumericalFailure when the LP is not optimal, its duality gap is
    not closed, or its duals leave a reduced cost below minus the face cut.

    For a feasible x, c.x = rhs.y + d.x with the reduced costs
    d = c - A^T y, and x carries mass n_inputs + 1 (each coupling and the
    weights sum to 1).  So the face cut d <= GAP_TOL (1 + |value|) /
    (n_inputs + 1) keeps every point within the gap tolerance of the
    optimum, and complementary slackness says the optimal vertices live on
    it.  When every column on the face is basic, the face is the main
    vertex alone (basic columns are linearly independent), so it is
    returned with no alternative and no face LP.  Otherwise
    ``_face_tie_break`` solves both LPs on the main LP's model, with the
    columns off the face fixed to 0.

    ``systems`` (see ``_joint_lp_system``) supplies the assembled system and
    its start basis, and keeps this run's optimal basis for the next LP of
    the system.  A warm run that is not optimal is re-run cold by
    the kernel on the same model, so the basis kept and the model the
    tie-break runs on are those of the run whose answer is returned.
    """
    c_vec, system = _joint_lp_system(inputs, cost, S, systems)
    A, rhs, n_gamma, K = system.A, system.rhs, system.n_gamma, system.K
    model = lp.Model(c_vec, A, rhs, system.basis)
    res = model.run()
    if res.status != 0:
        raise NumericalFailure(f"barycenter LP failed: {res.message}")
    if systems is not None:
        system.basis = model.basis()
    value = float(res.fun)
    dual = float(rhs @ res.duals)
    gap = max(0.0, value - dual)
    tol = GAP_TOL * (1.0 + abs(value))
    if gap > tol:
        raise NumericalFailure(f"barycenter LP gap {gap:.3e} not closed")
    # rhs.y bounds the optimum from below only when y is dual feasible: a
    # feasible x, of mass n_inputs + 1, has c.x >= rhs.y + (n_inputs + 1) min d,
    # so reduced costs down to minus the face cut cost at most the gap tolerance
    d = c_vec - A.rmatvec(res.duals)
    cut = tol / (len(inputs) + 1)
    if d.min() < -cut:
        raise NumericalFailure(f"barycenter LP duals not feasible: reduced cost {d.min():.3e}")
    w = _clip_dust(np.clip(res.x[n_gamma:], 0.0, None))
    off_face = d > cut
    if tie_break:
        basic = np.zeros(len(d), dtype=bool)
        basic[model.basic_columns()] = True
        # every face column basic: the face is the main vertex alone
        tie_break = not (basic | off_face).all()
    if not tie_break:
        return w, value, gap, None, _split_gammas(res.x, inputs, K)

    h = np.zeros_like(c_vec)
    h[n_gamma:] = np.arange(1, K + 1, dtype=float)
    sols = _face_tie_break(model, c_vec, off_face, h, value, tol)
    return _tie_broken(sols, (w, _split_gammas(res.x, inputs, K)), value, gap,
                       lambda x: (_clip_dust(np.clip(x[n_gamma:], 0.0, None)),
                                  _split_gammas(x, inputs, K)))


def _tie_broken(sols, main, value: float, gap: float, split):
    """The answer (weights, value, gap, alt_weights, gammas) of a face tie-break.

    ``sols`` is what ``_face_tie_break`` returned, ``split(x)`` gives the
    weights and coupling blocks of one of its solutions, and ``main`` those
    of the main LP's vertex.  When ``sols`` is None the main vertex is
    returned untie-broken, with a warning on the ``mkbary`` logger.
    """
    if sols is None:
        log.warning("barycenter tie-break: face LP rejected; "
                    "returning the main LP vertex without tie-break")
        return main[0], value, gap, None, main[1]
    (w_lo, gammas), (w_hi, _) = split(sols[0]), split(sols[1])
    alt = w_hi if np.max(np.abs(w_lo - w_hi)) > 1e-7 else None
    return w_lo, value, gap, alt, gammas


def _tuple_slabs(tables, tuples: np.ndarray):
    """sum_i tables[i][t_i, k] over the inputs i, for each tuple t of ``tuples``.

    A tuple takes atom t_i of each input i; it is numbered in C order over
    the inputs' atom counts ``len(tables[i])``.  Yields ``(rows, sums)`` per
    slab of tuples, ``sums[r, k]`` the cost of tuple ``tuples[rows][r]``
    through candidate k, added in input order.  ``sums`` and the gather it
    adds are two buffers of TRIANGLE_SLAB_BYTES together, reused by every
    slab, so no (tuples x candidates) array is built; a caller that keeps
    a slab copies it.
    """
    sizes = [len(L) for L in tables]
    K = tables[0].shape[1]
    step = max(1, TRIANGLE_SLAB_BYTES // (16 * K))
    acc = np.empty((min(step, len(tuples)), K))
    buf = np.empty_like(acc)
    for start in range(0, len(tuples), step):
        atoms = np.unravel_index(tuples[start:start + step], sizes)
        sums, gather = acc[:len(atoms[0])], buf[:len(atoms[0])]
        np.take(tables[0], atoms[0], axis=0, out=sums, mode="clip")
        for L, a in zip(tables[1:], atoms[1:]):
            np.take(L, a, axis=0, out=gather, mode="clip")
            sums += gather
        yield slice(start, start + len(sums)), sums


def _tuple_lp_system(inputs, cost: CostSpec, S: np.ndarray, systems: Optional[dict] = None):
    """The tuple LP's cost tables, costs, cheapest candidates and ``_System``.

    The tables are lambda_i times input i's cost table on the candidates;
    tuple t costs c(t) = min_k sum_i of them, reached at best(t) = k*(t),
    computed in slabs (``_tuple_slabs``) for every LP.  The rows are
    ``transport._marginal_columns`` of all tuples, with the inputs' weights,
    less the last of each after the first, as rhs.  ``systems`` keeps the
    ``_System`` under ``_system_key("tuple", ...)``, as ``_joint_lp_system``
    keeps the joint LP's.
    """
    sizes = tuple(m.n_atoms for m, _ in inputs)
    T = math.prod(sizes)
    tables = [lam * cost.table(m.space, m.atoms, S) for m, lam in inputs]
    c, best = np.empty(T), np.empty(T, dtype=np.intp)
    for rows, sums in _tuple_slabs(tables, np.arange(T)):
        best[rows] = sums.argmin(axis=1)
        c[rows] = sums.min(axis=1)

    def rows():
        rhs = np.concatenate([inputs[0][0].weights] + [m.weights[:-1] for m, _ in inputs[1:]])
        return _System(_marginal_columns([sizes], np.arange(T)), rhs,
                       atoms=np.unravel_index(np.arange(T), sizes))

    return tables, c, best, _kept(systems, _system_key("tuple", inputs, S), rows)


def _tuple_lp(inputs, cost: CostSpec, S: np.ndarray, tie_break: bool = True,
              systems: Optional[dict] = None):
    """``_fixed_support_lp`` by the multi-marginal LP over tuples of input atoms.

    A tuple t takes one atom t_i of each input; its cost is
    c(t) = min_k sum_i lambda_i C_i(t_i, k), reached at the candidate k*(t).
    The LP min c.pi over plans pi of the inputs has the rows of
    ``transport._marginal_columns``, sum n_i - N + 1 of them, and the
    push-forward of its plan by k* is an optimal weight vector (Agueh &
    Carlier 2011; Anderes, Borgwardt & Miller 2016).  The costs and k* are
    computed in slabs of tuples (``_tuple_slabs``).  Raises NumericalFailure
    when the LP is not optimal, its plan has more positive tuples than a
    vertex, or its duality gap is not closed.

    The gap is measured against the joint LP: the row duals u_i (0 on a
    dropped row) give v_ik = min_j (lambda_i C_i(j, k) - u_i(j)) and
    y0 = min_k sum_i v_ik, a feasible dual of the joint LP by construction,
    and gap = value - (sum_i mu_i.u_i + y0).  The reduced cost of a pair
    (t, k) is d = sum_i lambda_i C_i(t_i, k) - sum_i u_i(t_i) - y0 >= 0, and
    a plan over pairs has mass 1, so the face d <= GAP_TOL (1 + |value|)
    keeps every plan on it within the gap tolerance of the optimum.  When
    every tuple on the face is basic and has one candidate there, the
    weights are unique and no face LP runs.  Otherwise one model over the
    face pairs runs ``_face_tie_break``.

    ``systems`` (see ``_tuple_lp_system``) supplies the assembled system and
    its start basis, and keeps this run's optimal basis, as in ``_joint_lp``.
    """
    sizes = tuple(m.n_atoms for m, _ in inputs)
    K, T = len(S), math.prod(sizes)
    tables, c, best, system = _tuple_lp_system(inputs, cost, S, systems)
    rhs, atoms = system.rhs, system.atoms
    model = lp.Model(c, system.A, rhs, system.basis)
    res = model.run()
    if res.status != 0:
        raise NumericalFailure(f"barycenter LP failed: {res.message}")
    if systems is not None:
        system.basis = model.basis()
    value = float(res.fun)
    support = int(np.count_nonzero(res.x > 1e-12))
    if support > len(rhs):
        raise NumericalFailure(f"barycenter LP plan has {support} positive tuples, "
                               f"more than the {len(rhs)} of a vertex")
    u, off = [res.duals[:sizes[0]]], sizes[0]
    for n in sizes[1:]:
        u.append(np.append(res.duals[off:off + n - 1], 0.0))
        off += n - 1
    y0 = float(np.sum([(L - ui[:, None]).min(axis=0) for L, ui in zip(tables, u)], axis=0).min())
    dual = math.fsum(m.weights @ ui for (m, _), ui in zip(inputs, u)) + y0
    gap = max(0.0, value - dual)
    tol = GAP_TOL * (1.0 + abs(value))
    if gap > tol:
        raise NumericalFailure(f"barycenter LP gap {gap:.3e} not closed")

    def split(t, k, x):
        x = np.clip(x, 0.0, None)
        return (_clip_dust(np.bincount(k, weights=x, minlength=K)),
                [np.bincount(a[t] * K + k, weights=x, minlength=n * K).reshape(n, K)
                 for a, n in zip(atoms, sizes)])

    main = split(np.arange(T), best, res.x)
    if not tie_break:
        return main[0], value, gap, None, main[1]
    U = np.sum([ui[a] for ui, a in zip(u, atoms)], axis=0)
    face = np.flatnonzero(c - U - y0 <= tol)
    pair_t, pair_k = [], []
    for rows, sums in _tuple_slabs(tables, face):
        sums -= U[face[rows], None]
        sums -= y0
        r, k = np.nonzero(sums <= tol)
        pair_t.append(face[rows][r])
        pair_k.append(k)
    pair_t, pair_k = np.concatenate(pair_t), np.concatenate(pair_k)
    if len(pair_t) == len(face) and np.isin(face, model.basic_columns()).all():
        return main[0], value, gap, None, main[1]  # the face is the main vertex alone

    pair_c = tables[0][atoms[0][pair_t], pair_k]  # added in input order, as the slabs are
    for L, a in zip(tables[1:], atoms[1:]):
        pair_c += L[a[pair_t], pair_k]
    h = pair_k + 1.0
    sols = _face_tie_break(lp.Model(h, _marginal_columns([sizes], pair_t), rhs),
                           pair_c, None, h, value, tol)
    return _tie_broken(sols, main, value, gap, lambda x: split(pair_t, pair_k, x))


def _fixed_support_lp(inputs, cost: CostSpec, S: np.ndarray, tie_break: bool = True,
                      systems: Optional[dict] = None):
    """Globally optimal candidate weights for a fixed atom set.

    Returns (weights, value, gap, alt_weights, gammas): alt_weights is a
    second optimal vertex when one exists (None otherwise) and gammas are
    the per-input coupling blocks of the reported solution.  With
    ``tie_break`` the reported vertex minimizes the graded weight
    sum_k k w_k over the optimal face, and alt_weights comes from maximizing
    it; if either face LP is rejected, the main LP's vertex is returned
    untie-broken and a warning goes to the ``mkbary`` logger.

    Two LPs have the same optimum.  The joint LP (``_joint_lp``) has a
    column per input atom and candidate, K sum n_i of them, plus the K
    weights; the tuple LP (``_tuple_lp``) has a column per tuple of input
    atoms, prod n_i of them.  The tuple LP solves when it has no more
    columns, prod n_i <= K sum n_i; else the joint LP.  Both keep their
    systems and bases in ``systems`` (see ``_joint_lp_system``), each
    route under keys of its own, and both report the gap against the joint
    LP's dual.
    """
    sizes = [m.n_atoms for m, _ in inputs]
    if math.prod(sizes) <= len(S) * sum(sizes):
        return _tuple_lp(inputs, cost, S, tie_break, systems)
    return _joint_lp(inputs, cost, S, tie_break, systems)


def barycenter_fixed_support(problem: BarycenterProblem, *,
                             _systems: Optional[dict] = None) -> BarycenterResult:
    """Solve the barycenter LP on the simplex over the candidate atoms.

    ``_systems`` holds what one experiment run keeps between its LPs (see
    ``_joint_lp_system``); it is not part of the public interface.  The
    weights are canonicalized on the candidates by one merge plan
    (``measures._merge_plan``), made once per candidate set and space kind
    and kept in ``_systems``.
    """
    _require_kind(problem, "simplex_over", "fixed-support")
    S, space = problem.constraint.atoms, problem.space
    if space.kind == "finite":
        S = _as_indices(space, S.reshape(-1))
    w, value, gap, w_alt, _ = _fixed_support_lp(problem.inputs, problem.cost, S,
                                                 systems=_systems)
    plan = _kept(_systems, ("merge", space.kind, S.shape, S.tobytes()),
                 lambda: _merge_plan(space, S))
    measure = canonicalize(S, w / w.sum(), space, plan=plan)
    alt = None if w_alt is None else canonicalize(S, w_alt / w_alt.sum(), space, plan=plan)
    if alt is not None and alt.same_as(measure):  # the two differ only on merged candidates
        alt = None
    return BarycenterResult(
        measure=measure,
        objective=value,
        trace=((0, value),),
        certificate=Certificate(kind="lp_optimal", gap=gap),
        multiple_optima=alt is not None,
        alt_measure=alt,
    )


# ---------------------------------------------------------------------------
# Atom placement for convex translation costs
# ---------------------------------------------------------------------------

def _convex_argmin(cost: CostSpec, points: np.ndarray, masses: np.ndarray,
                   start: Optional[np.ndarray] = None) -> np.ndarray:
    """argmin_z sum_i masses[t, i] g(points[t, i] - z) of each row t of (T, n, d)
    points and (T, n) masses, for a convex translation cost: (T, d).

    Entries of zero mass take no part.  The weighted mean for ``norm_power`` 2.
    On the line: for ``norm_power`` 1 the middle of the weighted-median
    interval between points of positive mass, else one ternary search of all
    rows on their [min, max] until each bracket is 1e-12 wide, or four float
    spacings of its largest point, below which it could stop shrinking.  In
    d >= 2: scipy's Powell minimizer from ``start[t]``, one row at a time.
    """
    if cost.kind == "norm_power" and cost.p == 2.0:
        return (masses[..., None] * points).sum(axis=1) / masses.sum(axis=1)[:, None]
    live = masses > 0
    if points.shape[2] > 1:
        from scipy.optimize import minimize  # loads scipy.optimize, so only on this branch

        return np.array([minimize(lambda z: float(w[on] @ cost.pair_matrix(pts[on], [z])[:, 0]),
                                  x0=x0, method="Powell", options={"xtol": 1e-10, "ftol": 1e-12}).x
                         for pts, w, on, x0 in zip(points, masses, live, start)])
    xs = points[..., 0]
    if cost.kind == "norm_power" and cost.p == 1.0:
        rows, last = np.arange(len(xs)), live.sum(axis=1) - 1
        order = np.lexsort((xs, ~live))  # the points of positive mass first, by x
        xs_s = np.take_along_axis(xs, order, 1)
        cum = np.cumsum(np.take_along_axis(masses, order, 1) / masses.sum(axis=1)[:, None], axis=1)
        idx = (cum < 0.5 - 1e-15).sum(axis=1)
        nxt = np.where(np.abs(cum[rows, idx] - 0.5) <= 1e-15, np.minimum(idx + 1, last), idx)
        return (xs_s[rows, idx] + xs_s[rows, nxt])[:, None] / 2.0
    lo, hi = np.where(live, xs, np.inf).min(axis=1), np.where(live, xs, -np.inf).max(axis=1)
    tol = np.maximum(1e-12, 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    with np.errstate(over="ignore", invalid="ignore"):  # an inf phi is caught by the caller
        while (t := np.flatnonzero(hi - lo > tol)).size:
            m1, m2 = lo[t] + (hi[t] - lo[t]) / 3.0, hi[t] - (hi[t] - lo[t]) / 3.0
            # phi at m1 and m2, summed by matmul as a one-row dot product would
            c = cost._pair_costs(points[t, None], np.stack([m1, m2], axis=1)[:, :, None, None])
            phi = (masses[t, None, None] @ np.where(live[t, None], c, 0.0)[..., None])[..., 0, 0]
            hi[t], lo[t] = np.where(phi[:, 0] <= phi[:, 1], [m2, lo[t]], [hi[t], m1])
    return ((lo + hi) / 2.0)[:, None]


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


# the free-support run stops after FREE_MAX_ITER LPs, or once an LP lowers
# the objective by at most FREE_REL_TOL (1 + |previous objective|)
FREE_MAX_ITER = 200
FREE_REL_TOL = 1e-8
# the default seed of the free-support run's farthest-point pick
FREE_INIT_SEED = 0


def barycenter_free_support(problem: BarycenterProblem,
                            init_seed: int = FREE_INIT_SEED) -> BarycenterResult:
    """Alternate between the fixed-support LP and per-atom convex updates.

    Places at most the ``free`` constraint's budget k of atoms, starting
    from a farthest-point pick seeded by ``init_seed``.  Needs a euclidean
    space and a convex translation cost; the trace of LP objectives is
    nonincreasing by construction and the run stops once the relative
    decrease drops below ``FREE_REL_TOL``.
    """
    _require_kind(problem, "free", "free-support")
    if problem.space.kind != "euclidean":
        raise NotConvexCost("free-support solver needs a euclidean space")
    if not problem.cost.is_convex_translation:
        raise NotConvexCost("free-support solver needs a convex translation cost")
    pool = np.concatenate([m.atoms for m, _ in problem.inputs])
    S = _farthest_point_init(pool, problem.constraint.k, problem.cost, init_seed)

    trace = []
    prev = None
    w = None
    S_solved = S
    last_decrease = float("inf")
    for it in range(FREE_MAX_ITER):
        w, value, _, _, gammas = _fixed_support_lp(
            problem.inputs, problem.cost, S, tie_break=False
        )
        S_solved = S
        trace.append((it, value))
        if prev is not None:
            last_decrease = prev - value
            if last_decrease <= FREE_REL_TOL * (1.0 + abs(prev)):
                break
        prev = value

        # move each candidate atom to the convex minimizer of the mass it
        # received; zero-mass atoms are dropped (cluster emptied)
        mass = np.concatenate([lam * g for (_, lam), g in zip(problem.inputs, gammas)]).T
        mass[mass <= 1e-15] = 0.0
        held = mass.any(axis=1)
        points = np.broadcast_to(pool, (int(held.sum()), *pool.shape))
        S = np.unique(_convex_argmin(problem.cost, points, mass[held], S[held]), axis=0)

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

def barycenter_quantile_1d(problem: BarycenterProblem) -> BarycenterResult:
    """Exact barycenter on the line via the common quantile refinement.

    The monotone coupling of all inputs is their N-marginal north-west-corner
    plan, ``transport._staircase`` of their weights.  On each of its cells
    wider than 1e-15 the pointwise argmin of sum_i lambda_i g(x_i - m) over
    the cell's input atoms x_i is one barycenter atom, with the cell's mass.
    One ``_convex_argmin`` call places the atoms of all cells, and one
    ``_pair_costs`` call scores all cells for the closed-form cost.
    """
    _require_kind(problem, "quantile_1d", "quantile")
    if problem.space.kind != "euclidean" or problem.space.dim != 1:
        raise NotOneDimensional("quantile solver needs measures on the line")
    if not problem.cost.is_convex_translation:
        raise NotConvexCost("quantile solver needs a convex translation cost")

    idx, mass = _staircase(*[m.weights for m, _ in problem.inputs])
    keep = mass > 1e-15
    widths = mass[keep]
    lams = np.array([lam for _, lam in problem.inputs])
    # row s holds each input's atom on cell s
    xs = np.stack([m.atoms[i[keep], 0] for (m, _), i in zip(problem.inputs, idx)], axis=1)
    atoms = _convex_argmin(problem.cost, xs[:, :, None], np.broadcast_to(lams, xs.shape))
    measure = canonicalize(atoms, widths, problem.space)
    value = objective(measure, problem)  # raises NonFinite on a cost that overflows
    closed_form = float(widths @ (problem.cost._pair_costs(xs[:, :, None], atoms[:, None, :])
                                  @ lams))
    return BarycenterResult(
        measure=measure,
        objective=value,
        trace=((0, value),),
        certificate=Certificate(kind="quantile_1d", gap=abs(value - closed_form)),
    )


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def _input_from_json(obj: dict):
    """An input's measure object, unloaded, and its lambda."""
    json_keys(obj, ("measure", "lambda"), "input")
    return (json_field(obj, "measure", "object", "input"),
            float(json_field(obj, "lambda", "number", "input")))


def problem_from_json(obj: dict) -> BarycenterProblem:
    """Inputs whose measures name the first one's space share its GroundSpace
    (``measures_from_json``); the inputs' fields are checked before their measures."""
    json_keys(obj, ("inputs", "constraint", "cost"), "problem")
    raw, lams = zip(*[_input_from_json(e)
                      for e in json_field(obj, "inputs", "objects", "problem")])
    return BarycenterProblem.make(
        list(zip(measures_from_json(raw), lams)),
        constraint_from_json(json_field(obj, "constraint", "object", "problem")),
        cost_from_json(json_field(obj, "cost", "object", "problem")))


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
