"""Distributions over measures, the lifted transport distance, and the
statistical experiment harnesses.

The lifted distance treats measures themselves as atoms: transporting a
finitely supported distribution P onto P' costs J between the atom
measures, minimized over outer couplings.  The law-of-large-numbers
harness draws i.i.d. atom measures, solves empirical barycenters on a
shared constraint set, and tracks their distance to the population
barycenter; the perturbation harness jitters the atom measures with a
fixed direction field scaled by delta so both tracks are deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
import numpy as np

from .barycenter import BarycenterProblem, Constraint, barycenter_fixed_support
from .costs import CostSpec
from .measures import (
    DiscreteMeasure,
    GroundSpace,
    canonicalize,
    measure_from_json,
    merge_equal_measures,
)
from .transport import solve_lp_batch, solve_lp_matrix, transport_costs


@dataclass(frozen=True)
class MetaDistribution:
    """Finitely supported probability distribution whose atoms are measures."""

    atoms: tuple  # of DiscreteMeasure
    probs: np.ndarray

    @staticmethod
    def make(measures, probs) -> "MetaDistribution":
        if len(measures) == 0:
            raise ValueError("need at least one atom measure")
        p = np.array(probs, dtype=float)
        if np.any(p <= 0):
            raise ValueError("probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {p.sum()!r}")
        ms, ps = zip(*merge_equal_measures(list(zip(measures, p))))
        ps = np.array(ps)
        return MetaDistribution(atoms=tuple(ms), probs=ps / ps.sum())

    @staticmethod
    def dirac(measure: DiscreteMeasure) -> "MetaDistribution":
        return MetaDistribution.make([measure], [1.0])

    @property
    def space(self) -> GroundSpace:
        return self.atoms[0].space


def _cost_table(rows, cols, cost: CostSpec) -> np.ndarray:
    """The matrix of J(a, b) over measures a in ``rows``, b in ``cols``, as one batch."""
    values = transport_costs([(a, b) for a in rows for b in cols], cost)
    return np.array(values).reshape(len(rows), len(cols))


def meta_distance(P: MetaDistribution, Q: MetaDistribution, cost: CostSpec) -> float:
    """Outer transport cost between distributions of measures, ground cost J."""
    if not P.space.same_as(Q.space):
        raise ValueError("meta-distributions live on different ground spaces")
    M = _cost_table(P.atoms, Q.atoms, cost)
    _, value, _, _, _ = solve_lp_matrix(M, P.probs, Q.probs)
    return value


def generate_random_measure(
    seed: int, box_lo, box_hi, max_atoms: int = 5
) -> DiscreteMeasure:
    """Deterministic random measure: atom count uniform in [1, max_atoms],
    atoms uniform in the box, weights a flat simplex draw."""
    rng = np.random.default_rng(seed)
    lo = np.atleast_1d(np.asarray(box_lo, dtype=float))
    hi = np.atleast_1d(np.asarray(box_hi, dtype=float))
    d = len(lo)
    n = int(rng.integers(1, max_atoms + 1))
    atoms = rng.uniform(lo, hi, size=(n, d))
    weights = rng.dirichlet(np.ones(n))
    return canonicalize(atoms, weights, GroundSpace.euclidean(d))


def random_population(
    count: int, seed: int, box_lo, box_hi, max_atoms: int = 5
) -> MetaDistribution:
    """Uniform meta-distribution over ``count`` generator draws."""
    measures = [
        generate_random_measure(seed * 1000 + i, box_lo, box_hi, max_atoms)
        for i in range(count)
    ]
    return MetaDistribution.make(measures, np.full(count, 1.0 / count))


# ---------------------------------------------------------------------------
# Experiment harnesses
# ---------------------------------------------------------------------------

# J to the base barycenter below which a perturbed barycenter counts as
# close in the perturbation harness's upper-semicontinuity surrogate
USC_EPS = 0.05


@dataclass
class ExperimentReport:
    records: list          # lln: (n, seed, j_to_bary, meta_j, runtime)
    summary: dict
    incomplete: bool = False
    errors: list = field(default_factory=list)


def _population_barycenter(population: MetaDistribution, constraint: Constraint,
                           cost: CostSpec):
    problem = BarycenterProblem.make(
        [(m, p) for m, p in zip(population.atoms, population.probs)], constraint, cost
    )
    result = barycenter_fixed_support(problem)
    reps = [result.measure]
    if result.alt_measure is not None:
        reps.append(result.alt_measure)
    return result, reps


def lln_experiment(
    population: MetaDistribution,
    n_grid,
    seeds,
    constraint: Constraint,
    cost: CostSpec,
) -> ExperimentReport:
    """Empirical barycenters of i.i.d. draws against the population barycenter.

    For every (seed, n): draw n atom measures from the population, solve
    the empirical barycenter on the same constraint set, and record the
    distance to the nearest population-barycenter representative together
    with the lifted distance between the empirical and true populations.
    Fixed seeds make the run bit-reproducible.
    """
    n_grid = sorted(int(n) for n in n_grid)
    seeds = list(seeds)
    pop_result, reps = _population_barycenter(population, constraint, cost)
    K = len(population.atoms)
    j_pop = _cost_table(population.atoms, population.atoms, cost)

    records, errors = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for n in n_grid:
            t0 = time.perf_counter()
            try:
                idx = rng.choice(K, size=n, p=population.probs)
                counts = np.bincount(idx, minlength=K)
                sel = counts > 0
                emp_inputs = [
                    (population.atoms[i], counts[i] / n) for i in range(K) if sel[i]
                ]
                problem = BarycenterProblem.make(emp_inputs, constraint, cost)
                emp = barycenter_fixed_support(problem)
                # the J(emp, rep) LPs and the lifted-distance LP as one batch
                C = cost.matrix
                sols = solve_lp_batch(
                    [(C(emp.measure, rep), emp.measure.weights, rep.weights) for rep in reps]
                    + [(j_pop[sel], counts[sel] / n, population.probs)]
                )
                j_bar = min(sol[1] for sol in sols[:-1])
                meta_j = sols[-1][1]
                records.append((n, seed, j_bar, meta_j, time.perf_counter() - t0))
            except Exception as exc:  # record the hole, keep the report partial
                errors.append((n, seed, repr(exc)))
    records.sort(key=lambda r: (r[0], r[1]))

    med_j = {n: float(np.median([r[2] for r in records if r[0] == n])) for n in n_grid}
    med_meta = {n: float(np.median([r[3] for r in records if r[0] == n])) for n in n_grid}
    first, last = n_grid[0], n_grid[-1]
    ratio = med_j[last] / med_j[first] if med_j[first] > 0 else 0.0
    summary = {
        "median_j": med_j,
        "median_meta_j": med_meta,
        "decay_ratio": ratio,
        "population_objective": pop_result.objective,
        "multiple_optima": pop_result.multiple_optima,
    }
    return ExperimentReport(records=records, summary=summary, incomplete=bool(errors),
                            errors=errors)


def perturbation_experiment(
    population: MetaDistribution,
    deltas,
    constraint: Constraint,
    cost: CostSpec,
    seed: int = 0,
) -> ExperimentReport:
    """Jitter atom measures by a fixed direction field scaled by delta.

    Tracks the lifted distance to the unperturbed population and the
    distance of the perturbed barycenter to the nearest unperturbed
    barycenter representative; with a shared direction field the lifted
    track is nondecreasing in delta on single-atom populations.
    """
    if population.space.kind != "euclidean":
        raise ValueError("perturbation harness needs a euclidean space")
    deltas = [float(d) for d in deltas]
    pop_result, reps = _population_barycenter(population, constraint, cost)
    rng = np.random.default_rng(seed)
    offsets = [rng.uniform(-1.0, 1.0, size=m.atoms.shape) for m in population.atoms]

    rows = []
    for delta in deltas:
        t0 = time.perf_counter()
        jittered = [
            canonicalize(m.atoms + delta * off, m.weights, m.space)
            for m, off in zip(population.atoms, offsets)
        ]
        P_delta = MetaDistribution.make(jittered, population.probs)
        meta_j = meta_distance(P_delta, population, cost)
        problem = BarycenterProblem.make(
            [(m, p) for m, p in zip(P_delta.atoms, P_delta.probs)], constraint, cost
        )
        emp = barycenter_fixed_support(problem)
        j_bar = min(transport_costs([(emp.measure, rep) for rep in reps], cost))
        rows.append((delta, meta_j, j_bar, time.perf_counter() - t0))

    # largest delta up to which the barycenter stays USC_EPS-close: recorded,
    # never claimed universal
    usc_threshold = 0.0
    for delta, _, j_bar, _ in sorted(rows):
        if j_bar <= USC_EPS:
            usc_threshold = delta
        else:
            break
    summary = {
        "deltas": deltas,
        "meta_j_track": [r[1] for r in rows],
        "j_track": [r[2] for r in rows],
        "usc_eps": USC_EPS,
        "usc_threshold": usc_threshold,
        "multiple_optima": pop_result.multiple_optima,
    }
    return ExperimentReport(records=rows, summary=summary)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def population_from_json(obj: dict) -> MetaDistribution:
    if "generator" in obj:
        g = obj["generator"]
        box = g["box"]
        return random_population(
            int(g["count"]), int(g.get("seed", 0)), box[0], box[1],
            int(g.get("max_atoms", 5)),
        )
    measures = [measure_from_json(m) for m in obj["measures"]]
    return MetaDistribution.make(measures, obj["probs"])
