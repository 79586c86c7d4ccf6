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

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .barycenter import BarycenterProblem, Constraint, barycenter_fixed_support
from .costs import CostSpec
from .measures import (
    DiscreteMeasure,
    GroundSpace,
    canonicalize,
    json_field,
    json_keys,
    measures_from_json,
    merge_equal_measures,
)
from .transport import solve_lp_batch, solve_lp_matrix, transport_costs

log = logging.getLogger("mkbary")


@dataclass(frozen=True)
class MetaDistribution:
    """Finitely supported probability distribution whose atoms are measures."""

    atoms: tuple  # of DiscreteMeasure
    probs: np.ndarray

    @staticmethod
    def make(measures, probs) -> "MetaDistribution":
        """One probability per measure, each finite and positive, summing to 1
        within 1e-9.  Measures that are ``same_as`` merge into the first of
        them, with the sum of their probabilities, renormalized."""
        if len(measures) == 0:
            raise ValueError("need at least one atom measure")
        p = np.array(probs, dtype=float)
        if p.ndim != 1:
            raise ValueError("probs must be a flat array of numbers")
        if len(p) != len(measures):
            raise ValueError(f"measures and probs differ in count: {len(measures)} measures, "
                             f"{len(p)} probs")
        for i, pi in enumerate(p.tolist()):
            if not math.isfinite(pi):
                raise ValueError(f"probs[{i}] must be finite, not {pi}")
        if np.any(p <= 0):
            raise ValueError("probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {float(p.sum())!r}")
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
    records: list  # lln: (n, seed, j_to_bary, meta_j); perturb: (delta, meta_j, j_to_bary)
    summary: dict
    errors: list = field(default_factory=list)  # lln: (n, seed, message) per hole


def _population_barycenter(population: MetaDistribution, constraint: Constraint,
                           cost: CostSpec, systems: dict):
    problem = BarycenterProblem.make(
        [(m, p) for m, p in zip(population.atoms, population.probs)], constraint, cost
    )
    result = barycenter_fixed_support(problem, _systems=systems)
    reps = [result.measure]
    if result.alt_measure is not None:
        reps.append(result.alt_measure)
    return result, reps


def _solve_draws(pending: dict) -> dict:
    """Each pending draw's transport LPs, all in one ``solve_lp_batch`` call.

    ``pending`` maps a draw to its list of ``(C, a, b)`` triples; the result
    maps it to their solutions, or to the repr of the exception that its
    own LPs raised.  When the shared call raises, each draw is solved again
    alone, with one warning, so a failing LP costs only its own draw.
    """
    try:
        sols = iter(solve_lp_batch([t for triples in pending.values() for t in triples]))
        return {key: [next(sols) for _ in triples] for key, triples in pending.items()}
    except Exception as exc:
        log.warning("lln: the shared transport batch of %d draws failed (%r); "
                    "solving each draw alone", len(pending), exc)
    out = {}
    for key, triples in pending.items():
        try:
            out[key] = solve_lp_batch(triples)
        except Exception as exc:
            out[key] = repr(exc)
    return out


def _distinct(suite: str, name: str, values: list) -> list:
    """``values``, checked to repeat no entry: a repeat would give a second
    row for the same setting.  Raises ValueError naming the repeats."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{suite} field {name!r} repeats {repeated}; "
                         "each entry must be distinct")
    return values


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
    Fixed seeds make the run bit-reproducible.  The population's measures
    were merged once, by ``MetaDistribution.make``, so a draw's inputs, the
    distinct measures it hit with their frequencies, go to
    ``BarycenterProblem.make`` as they are, with no merge.  A barycenter LP
    solves by the tuple LP when its draw has no more tuples than joint
    coupling columns (see ``barycenter._fixed_support_lp``), as every draw
    of the default config does, else by the joint LP.  Either way an LP on a subset of
    population measures met before starts from the last optimal basis of
    that subset, on a system assembled once, and the weights of every
    barycenter are canonicalized on the candidates by one merge plan (see
    ``barycenter._joint_lp_system``).  A draw depends only on its
    frequencies counts / n, so a draw with the frequencies of an earlier
    one reuses its barycenter.  The J(emp, rep)
    and lifted-distance LPs of every distinct draw are solved together,
    after the last barycenter, in one transport batch (see ``_solve_draws``).
    A draw whose barycenter or transport LPs raise is a hole in the report;
    the medians cover only the n that kept a record, and ``decay_ratio``
    (largest over smallest such n) is None when none did.
    A repeated entry of ``n_grid`` or ``seeds`` is a ValueError, before any
    solve: it would give a second row for the same (n, seed).
    """
    n_grid = _distinct("lln", "n_grid", sorted(int(n) for n in n_grid))
    seeds = _distinct("lln", "seeds", list(seeds))
    systems = {}
    pop_result, reps = _population_barycenter(population, constraint, cost, systems)
    K = len(population.atoms)
    j_pop = _cost_table(population.atoms, population.atoms, cost)

    draws = []  # (n, seed, the draw's frequencies as bytes, or the repr of what it raised)
    pending = {}  # frequencies as bytes -> the draw's J(emp, rep) and lifted-distance LPs
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for n in n_grid:
            try:
                idx = rng.choice(K, size=n, p=population.probs)
                freq = np.bincount(idx, minlength=K) / n
                key = freq.tobytes()
                if key not in pending:
                    sel = freq > 0
                    emp_inputs = [(population.atoms[i], freq[i]) for i in range(K) if sel[i]]
                    problem = BarycenterProblem.make(emp_inputs, constraint, cost)
                    emp = barycenter_fixed_support(problem, _systems=systems)
                    C = cost.matrix
                    pending[key] = ([(C(emp.measure, rep), emp.measure.weights, rep.weights)
                                     for rep in reps]
                                    + [(j_pop[sel], freq[sel], population.probs)])
                draws.append((n, seed, key))
            except Exception as exc:  # record the hole, keep the report partial
                draws.append((n, seed, repr(exc)))

    solved = _solve_draws(pending)
    records, errors = [], []
    for n, seed, drawn in draws:
        sols = solved[drawn] if isinstance(drawn, bytes) else drawn
        if isinstance(sols, str):
            errors.append((n, seed, sols))
        else:
            records.append((n, seed, min(sol[1] for sol in sols[:-1]), sols[-1][1]))
    records.sort(key=lambda r: (r[0], r[1]))

    ns = sorted({r[0] for r in records})
    med_j = {n: float(np.median([r[2] for r in records if r[0] == n])) for n in ns}
    med_meta = {n: float(np.median([r[3] for r in records if r[0] == n])) for n in ns}
    ratio = None
    if ns:
        ratio = med_j[ns[-1]] / med_j[ns[0]] if med_j[ns[0]] > 0 else 0.0
    summary = {
        "median_j": med_j,
        "median_meta_j": med_meta,
        "decay_ratio": ratio,
        "population_objective": pop_result.objective,
        "multiple_optima": pop_result.multiple_optima,
    }
    return ExperimentReport(records=records, summary=summary, errors=errors)


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
    track is nondecreasing in delta on single-atom populations.  The
    deltas are solved, judged and recorded in increasing order; a repeated
    delta is a ValueError, before any solve.  A barycenter LP, by either
    route, starts from the last optimal basis of the LPs with the same atom
    counts and weights, on a system assembled once, and the candidates'
    merge plan is made once (see ``barycenter._joint_lp_system``).
    """
    if population.space.kind != "euclidean":
        raise ValueError("perturbation harness needs a euclidean space")
    deltas = _distinct("perturb", "deltas", sorted(float(d) for d in deltas))
    systems = {}
    pop_result, reps = _population_barycenter(population, constraint, cost, systems)
    rng = np.random.default_rng(seed)
    offsets = [rng.uniform(-1.0, 1.0, size=m.atoms.shape) for m in population.atoms]

    rows = []
    for delta in deltas:
        jittered = [
            canonicalize(m.atoms + delta * off, m.weights, m.space)
            for m, off in zip(population.atoms, offsets)
        ]
        P_delta = MetaDistribution.make(jittered, population.probs)
        meta_j = meta_distance(P_delta, population, cost)
        problem = BarycenterProblem.make(
            [(m, p) for m, p in zip(P_delta.atoms, P_delta.probs)], constraint, cost
        )
        emp = barycenter_fixed_support(problem, _systems=systems)
        j_bar = min(transport_costs([(emp.measure, rep) for rep in reps], cost))
        rows.append((delta, meta_j, j_bar))

    # largest delta up to which the barycenter stays USC_EPS-close: recorded,
    # never claimed universal
    usc_threshold = 0.0
    for delta, _, j_bar in rows:
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
    """A ``generator`` (box [lo, hi], count, seed 0, max_atoms 5) or explicit
    ``measures`` with their ``probs``."""
    if "generator" in obj:
        json_keys(obj, ("generator",), "population")
        g = json_field(obj, "generator", "object", "population")
        json_keys(g, ("box", "count", "seed", "max_atoms"), "generator")
        g = {"seed": 0, "max_atoms": 5, **g}
        box = json_field(g, "box", "numbers", "generator")
        if len(box) != 2:
            raise ValueError("generator 'box' must be [lo, hi]")
        count, seed, max_atoms = (json_field(g, key, "integer", "generator", least=least)
                                  for key, least in (("count", 1), ("seed", 0), ("max_atoms", 1)))
        return random_population(count, seed, box[0], box[1], max_atoms)
    json_keys(obj, ("measures", "probs"), "population")
    measures = measures_from_json(json_field(obj, "measures", "objects", "population"))
    return MetaDistribution.make(measures, json_field(obj, "probs", "numbers", "population"))
