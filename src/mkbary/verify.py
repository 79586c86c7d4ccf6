"""Property suites behind ``mkbary verify``.

Each suite draws seeded random instances, checks one family of
inequalities or one experiment-level claim, and reports per-assertion
rows (with witnesses on failure) that the CLI writes to CSV.  All suites
are deterministic for a fixed config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barycenter import constraint_from_json
from .consistency import (
    generate_random_measure,
    lln_experiment,
    perturbation_experiment,
    population_from_json,
)
from .costs import CostSpec, cost_from_json, growth_constants
from .measures import GroundSpace, canonicalize, dirac, mixture, truncate_to_ball
from .topology import check_convergence
from .transport import glue, solve_transport_batch, transport_costs

SLACK = 1e-9


@dataclass
class SuiteResult:
    name: str
    passed: bool
    columns: list
    rows: list
    summary: dict


def _cost_from_config(config: dict, default: dict) -> CostSpec:
    return cost_from_json(config.get("cost", default))


def _measure_stream(seed: int, box_lo, box_hi, max_atoms: int):
    i = 0
    while True:
        yield generate_random_measure(seed * 100_003 + i, box_lo, box_hi, max_atoms)
        i += 1


# ---------------------------------------------------------------------------

def run_convexity(config: dict) -> SuiteResult:
    """J(mixture, mixture) <= mixture of J, over random quadruples and a t grid."""
    seed = int(config.get("seed", 0))
    count = int(config.get("count", 200))
    t_grid = config.get("t_grid", [0.0, 0.25, 0.5, 0.75, 1.0])
    cost = _cost_from_config(config, {"kind": "norm_power", "p": 2})
    gen = _measure_stream(seed, [-1, -1], [1, 1], int(config.get("max_atoms", 4)))

    quads = [tuple(next(gen) for _ in range(4)) for _ in range(count)]
    pairs = []
    for mu0, nu0, mu1, nu1 in quads:
        pairs += [(mu0, nu0), (mu1, nu1)]
        pairs += [(mixture(mu0, mu1, t), mixture(nu0, nu1, t)) for t in t_grid]
    costs = iter(transport_costs(pairs, cost))

    rows, ok = [], True
    for i in range(count):
        j00, j11 = next(costs), next(costs)
        for t in t_grid:
            lhs = next(costs)
            rhs = (1 - t) * j00 + t * j11
            passed = lhs <= rhs + SLACK
            ok &= passed
            rows.append([i, t, lhs, rhs, int(passed)])
    return SuiteResult(
        name="convexity", passed=ok,
        columns=["instance", "t", "j_mixture", "bound", "passed"],
        rows=rows, summary={"instances": count, "violations": sum(1 for r in rows if not r[-1])},
    )


def run_triangle(config: dict) -> SuiteResult:
    """Inherited weak triangle with analytic (A, B) plus the gluing upper bound."""
    seed = int(config.get("seed", 0))
    count = int(config.get("count", 200))
    cost = _cost_from_config(config, {"kind": "norm_power", "p": 2})
    gc = growth_constants(cost)
    A, B = gc.A, gc.B
    gen = _measure_stream(seed, [-1, -1], [1, 1], int(config.get("max_atoms", 4)))

    triples = [tuple(next(gen) for _ in range(3)) for _ in range(count)]
    plans = iter(solve_transport_batch(
        [pair for mu, nu, lam in triples
         for pair in ((mu, nu), (mu, lam), (nu, lam), (lam, mu), (lam, nu))],
        cost,
    ))

    rows, ok = [], True
    for i in range(count):
        p_mn, g1, g2, p_lm, p_ln = (next(plans) for _ in range(5))
        j_mn, j_ml, j_nl = p_mn.objective, g1.objective, g2.objective
        j_lm, j_ln = p_lm.objective, p_ln.objective
        bounds = [
            A + B * (j_ml + j_nl),
            A + B * (j_ml + j_ln),
            A + B * (j_lm + j_nl),
            A + B * (j_lm + j_ln),
        ]
        tri_ok = all(j_mn <= b + SLACK * (1 + abs(j_mn)) for b in bounds)
        sigma = glue(g1, g2)
        k_xy = sigma.projected_xy_cost(cost)
        glue_ok = k_xy >= j_mn - SLACK * (1 + abs(j_mn))
        passed = tri_ok and glue_ok
        ok &= passed
        rows.append([i, j_mn, min(bounds), k_xy, int(passed)])
    return SuiteResult(
        name="triangle", passed=ok,
        columns=["instance", "j_mu_nu", "min_bound", "glued_upper", "passed"],
        rows=rows, summary={"A": A, "B": B, "violations": sum(1 for r in rows if not r[-1])},
    )


def _triple_witness(mu, nu, lam) -> str:
    def short(m):
        return f"atoms={np.round(m.atoms, 6).tolist()} weights={np.round(m.weights, 6).tolist()}"

    return f"mu[{short(mu)}] nu[{short(nu)}] lam[{short(lam)}]"


def run_q_triangle(config: dict) -> SuiteResult:
    """J**(1/q) triangle inequality for norm-power costs."""
    seed = int(config.get("seed", 0))
    count = int(config.get("count", 200))
    ps = config.get("powers", [1.0, 2.0, 4.0])
    q_override = config.get("q")
    gen = _measure_stream(seed, [-1, -1], [1, 1], int(config.get("max_atoms", 4)))

    rows, ok = [], True
    for p in ps:
        cost = CostSpec.norm_power(float(p))
        q = float(q_override) if q_override is not None else growth_constants(cost).q
        triples = [tuple(next(gen) for _ in range(3)) for _ in range(count)]
        costs = iter(transport_costs(
            [pair for mu, nu, lam in triples for pair in ((mu, nu), (mu, lam), (lam, nu))],
            cost,
        ))
        for i, (mu, nu, lam) in enumerate(triples):
            j_mn, j_ml, j_ln = next(costs), next(costs), next(costs)
            lhs = j_mn ** (1.0 / q)
            rhs = j_ml ** (1.0 / q) + j_ln ** (1.0 / q)
            passed = lhs <= rhs + SLACK
            ok &= passed
            rows.append([p, q, i, lhs, rhs, int(passed),
                         "" if passed else _triple_witness(mu, nu, lam)])
    return SuiteResult(
        name="q-triangle", passed=ok,
        columns=["p", "q", "instance", "lhs_root", "rhs_root", "passed", "witness"],
        rows=rows, summary={"violations": sum(1 for r in rows if not r[-2])},
    )


def run_criterion(config: dict) -> SuiteResult:
    """Escaping-mass family is weak-only; truncation families converge."""
    cost = _cost_from_config(config, {"kind": "norm_power", "p": 2})
    line = GroundSpace.euclidean(1)
    escape_ns = config.get("escape_n", list(range(2, 14)))
    trunc_ns = config.get("trunc_n", list(range(1, 10)))
    seed = int(config.get("seed", 0))

    rows, ok = [], True
    origin = dirac(line, [0.0])
    escaping = [
        canonicalize([[0.0], [float(n)]], [1.0 - 1.0 / n, 1.0 / n], line) for n in escape_ns
    ]
    diag = check_convergence(escaping, origin, origin, cost)
    verdict_ok = diag.verdict == "weak_only"
    ok &= verdict_ok
    rows.append(["escaping_verdict", diag.verdict, "" , int(verdict_ok)])
    for n, ref in zip(escape_ns, diag.reference_J):
        track_ok = abs(ref - n) <= SLACK
        ok &= track_ok
        rows.append(["escaping_reference", n, ref, int(track_ok)])

    nu = generate_random_measure(seed + 7, [-2.0], [2.0], 4)
    family = [truncate_to_ball(nu, [0.0], float(n), cost) for n in trunc_ns]
    diag2 = check_convergence(family, nu, origin, cost)
    trunc_ok = diag2.verdict == "consistent_with_J_convergence"
    ok &= trunc_ok
    rows.append(["truncation_verdict", diag2.verdict, "", int(trunc_ok)])
    return SuiteResult(
        name="criterion", passed=ok,
        columns=["check", "value", "observed", "passed"],
        rows=rows,
        summary={"escaping_verdict": diag.verdict, "truncation_verdict": diag2.verdict},
    )


DEFAULT_LLN_CONFIG = {
    "population": {"generator": {"box": [[0.0, 0.0], [1.0, 1.0]], "count": 4,
                                 "max_atoms": 5, "seed": 1}},
    "constraint": {"kind": "grid", "shape": [9, 9], "box": [[0.0, 0.0], [1.0, 1.0]]},
    "n_grid": [4, 16, 64],
    "seeds": list(range(20)),
    "cost": {"kind": "norm_power", "p": 2},
}


def run_lln(config: dict) -> SuiteResult:
    """Empirical barycenters approach the population barycenter as n grows."""
    cfg = {**DEFAULT_LLN_CONFIG, **config}
    population = population_from_json(cfg["population"])
    constraint = constraint_from_json(cfg["constraint"])
    cost = cost_from_json(cfg["cost"])
    report = lln_experiment(population, cfg["n_grid"], cfg["seeds"], constraint, cost)
    med_j = report.summary["median_j"]
    med_meta = report.summary["median_meta_j"]
    n_lo, n_hi = min(med_j), max(med_j)
    decay_ok = med_j[n_hi] <= 0.5 * med_j[n_lo]
    ns = sorted(med_meta)
    meta_ok = all(med_meta[a] > med_meta[b] for a, b in zip(ns, ns[1:]))
    passed = decay_ok and meta_ok and not report.incomplete
    rows = [[n, s, jb, mj, 1] for n, s, jb, mj, _ in report.records]
    return SuiteResult(
        name="lln", passed=passed,
        columns=["n", "seed", "j_to_population_barycenter", "meta_j", "passed"],
        rows=rows,
        summary={**report.summary, "decay_ok": decay_ok, "meta_decreasing": meta_ok},
    )


DEFAULT_PERTURB_CONFIG = {
    "population": {"generator": {"box": [[0.0, 0.0], [1.0, 1.0]], "count": 1,
                                 "max_atoms": 4, "seed": 2}},
    "constraint": {"kind": "grid", "shape": [9, 9], "box": [[0.0, 0.0], [1.0, 1.0]]},
    "deltas": [0.0, 0.01, 0.05, 0.1],
    "cost": {"kind": "norm_power", "p": 2},
}


def run_perturb(config: dict) -> SuiteResult:
    """Zero at delta=0 and a nondecreasing lifted track on Dirac populations."""
    cfg = {**DEFAULT_PERTURB_CONFIG, **config}
    population = population_from_json(cfg["population"])
    constraint = constraint_from_json(cfg["constraint"])
    cost = cost_from_json(cfg["cost"])
    report = perturbation_experiment(
        population, cfg["deltas"], constraint, cost, seed=int(cfg.get("seed", 0))
    )
    meta_track = report.summary["meta_j_track"]
    j_track = report.summary["j_track"]
    deltas = report.summary["deltas"]
    zero_ok = True
    if deltas and deltas[0] == 0.0:
        zero_ok = meta_track[0] <= SLACK and j_track[0] <= SLACK
    dirac_pop = len(population.atoms) == 1
    mono_ok = True
    if dirac_pop:
        mono_ok = all(b >= a - 1e-12 for a, b in zip(meta_track, meta_track[1:]))
    passed = zero_ok and mono_ok
    rows = [[d, mj, jb, 1] for d, mj, jb, _ in report.records]
    return SuiteResult(
        name="perturb", passed=passed,
        columns=["delta", "meta_j", "j_to_base_barycenter", "passed"],
        rows=rows,
        summary={"zero_ok": zero_ok, "monotone_meta": mono_ok, "dirac_population": dirac_pop},
    )


SUITES = {
    "convexity": run_convexity,
    "triangle": run_triangle,
    "q-triangle": run_q_triangle,
    "criterion": run_criterion,
    "lln": run_lln,
    "perturb": run_perturb,
}


def run_suite(name: str, config: dict | None = None) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](config or {})


def run_interpolation(config: dict) -> SuiteResult:
    """Segment costs obey the (t'-t) J(mu0, mu1) bound (not CLI-exposed)."""
    from .transport import interpolation_cost

    seed = int(config.get("seed", 0))
    count = int(config.get("count", 100))
    cost = _cost_from_config(config, {"kind": "norm_power", "p": 2})
    pairs = config.get("t_pairs", [(0.0, 0.25), (0.0, 1.0), (0.25, 0.75), (0.5, 1.0)])
    gen = _measure_stream(seed, [-1, -1], [1, 1], int(config.get("max_atoms", 4)))
    rows, ok = [], True
    for i in range(count):
        mu0, mu1 = next(gen), next(gen)
        for t, tp in pairs:
            value, bound = interpolation_cost(mu0, mu1, t, tp, cost)
            passed = value <= bound + SLACK
            ok &= passed
            rows.append([i, t, tp, value, bound, int(passed)])
    return SuiteResult(
        name="interpolation", passed=ok,
        columns=["instance", "t", "t_prime", "j_segment", "bound", "passed"],
        rows=rows, summary={"violations": sum(1 for r in rows if not r[-1])},
    )
