"""Seeded inputs and job lists for the three benchmark workloads.

Every workload is a list of ``mkbary`` CLI jobs over files this module
writes.  The inputs depend only on the workload seed, so the same seed
gives byte-identical files.  Each job carries a ``check`` record: what the
output check needs to know (expected suite name, the cost matrix inputs,
the candidate grid, ...), taken from the generated data, never from the
program under test.

Argument strings may hold two placeholders that the pass fills in:
``{in}`` (the directory holding the generated inputs) and ``{out}`` (the
job's own output directory).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WHY = {
    "property-suites": (
        "thousands of LPs of at most 16 variables from the convexity, triangle, "
        "q-triangle and criterion suites, so per-call LP overhead dominates"
    ),
    "barycenter-grid": (
        "a few large sparse joint barycenter LPs (9x9 and 17x17 grids, free, quantile, "
        "lln, perturb), so the HiGHS core dominates"
    ),
    "large-transport": (
        "single transport LPs up to 256x256 in 2-D, 1-D and on a finite space, so dense "
        "LP assembly and the scipy wrapper dominate"
    ),
}

PREDICTIONS = [
    "Per-call LP overhead and repeated (C, a, b) solves show on property-suites and "
    "barely on barycenter-grid and large-transport.",
    "Dense constraint assembly shows on large-transport and barely on property-suites.",
    "Import time shows in setup_s equally on all three workloads.",
]

# Suite sizes for property-suites.  The shapes (atom counts, t grid, powers)
# are the suites' defaults; only the instance counts are cut, so that one
# pass over three seeds stays near two seconds.
SUITE_COUNTS = {"convexity": 25, "triangle": 25, "q-triangle": 12, "criterion": None}
SUITE_SEEDS_PER_RUN = 3

GRID_SHAPES = (9, 17)
TRANSPORT_2D_SIZES = (64, 128, 256)
TRANSPORT_LINE_SIZE = 256
TRANSPORT_FINITE_SIZE = 256

# Copies of the defaults of ``verify lln`` and ``verify perturb``.  They are
# written into the job's config file so that the workload stays the same
# when the program's defaults change.  They do not depend on the seed: the
# lln joint-LP sizes follow the population's random atom counts, and a
# seeded population would make the run time swing with the seed.
LLN_CONFIG = {
    "population": {"generator": {"box": [[0.0, 0.0], [1.0, 1.0]], "count": 4,
                                 "max_atoms": 5, "seed": 1}},
    "constraint": {"kind": "grid", "shape": [9, 9], "box": [[0.0, 0.0], [1.0, 1.0]]},
    "n_grid": [4, 16, 64],
    "seeds": list(range(20)),
    "cost": {"kind": "norm_power", "p": 2},
}
PERTURB_CONFIG = {
    "population": {"generator": {"box": [[0.0, 0.0], [1.0, 1.0]], "count": 1,
                                 "max_atoms": 4, "seed": 2}},
    "constraint": {"kind": "grid", "shape": [9, 9], "box": [[0.0, 0.0], [1.0, 1.0]]},
    "deltas": [0.0, 0.01, 0.05, 0.1],
    "cost": {"kind": "norm_power", "p": 2},
}

SQUARED = {"kind": "norm_power", "p": 2}


def _write(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def canonical_order(atoms: np.ndarray) -> np.ndarray:
    """Lexicographic order of the atom rows, the order ``mkbary`` stores them in."""
    return np.lexsort(atoms.T[::-1])


def _euclidean_measure(rng, n: int, dim: int, uniform: bool):
    """Random atoms in the unit cube, sorted the way mkbary sorts them."""
    atoms = rng.uniform(0.0, 1.0, size=(n, dim))
    weights = np.full(n, 1.0 / n) if uniform else rng.dirichlet(np.ones(n))
    order = canonical_order(atoms)
    atoms, weights = atoms[order], weights[order]
    if n > 1 and np.min(np.max(np.abs(np.diff(atoms, axis=0)), axis=1)) <= 1e-9:
        raise ValueError("generated atoms too close to stay distinct")
    return atoms, weights


def _measure_json(atoms, weights) -> dict:
    return {"space": {"kind": "euclidean", "dim": int(atoms.shape[1])},
            "atoms": atoms.tolist(), "weights": weights.tolist()}


def _grid(k: int) -> np.ndarray:
    axis = np.linspace(0.0, 1.0, k)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([xs.ravel(), ys.ravel()], axis=-1)


def _transport_job(job_id, mu, nu, cost_file, check) -> dict:
    return {"id": job_id,
            "argv": ["transport", "{in}/" + mu, "{in}/" + nu, "{in}/" + cost_file,
                     "--plan", "{out}/plan.json", "--out-dir", "{out}"],
            "check": check}


def _verify_job(job_id, suite, config_file) -> dict:
    return {"id": job_id,
            "argv": ["verify", suite, "--config", "{in}/" + config_file,
                     "--jobs", "1", "--out-dir", "{out}"],
            "check": {"kind": "verify", "suite": suite}}


def _warmup(rng, d: Path) -> list:
    """Inputs for the untimed warm-up call; no job reads them."""
    a, wa = _euclidean_measure(rng, 3, 2, uniform=False)
    b, wb = _euclidean_measure(rng, 2, 2, uniform=False)
    _write(d / "warm_mu.json", _measure_json(a, wa))
    _write(d / "warm_nu.json", _measure_json(b, wb))
    _write(d / "warm_cost.json", SQUARED)
    return ["transport", "{in}/warm_mu.json", "{in}/warm_nu.json", "{in}/warm_cost.json",
            "--out-dir", "{out}"]


def _property_suites(seed: int, d: Path) -> list:
    jobs = []
    for k in range(SUITE_SEEDS_PER_RUN):
        suite_seed = seed * 1000 + k
        for suite, count in SUITE_COUNTS.items():
            config = {"seed": suite_seed}
            if count is not None:
                config["count"] = count
            name = f"{suite}-{suite_seed}"
            _write(d / f"{name}.json", config)
            jobs.append(_verify_job(name, suite, f"{name}.json"))
    return jobs


def _barycenter_grid(rng, d: Path) -> list:
    inputs, lams = [], rng.dirichlet(np.full(4, 4.0))
    for lam in lams:
        atoms, weights = _euclidean_measure(rng, 6, 2, uniform=False)
        inputs.append({"measure": _measure_json(atoms, weights), "lambda": float(lam)})
    jobs = []
    for k in GRID_SHAPES:
        grid = _grid(k)
        _write(d / f"fixed{k}.json", {"inputs": inputs, "cost": SQUARED,
                                      "constraint": {"kind": "simplex_over",
                                                     "atoms": grid.tolist()}})
        jobs.append({"id": f"fixed-{k}x{k}",
                     "argv": ["barycenter", f"{{in}}/fixed{k}.json", "--method", "fixed",
                              "--out-dir", "{out}"],
                     "check": {"kind": "barycenter", "method": "fixed",
                               "grid": grid.tolist()}})
    _write(d / "free.json", {"inputs": inputs, "cost": SQUARED,
                             "constraint": {"kind": "free", "k": 8}})
    jobs.append({"id": "free", "argv": ["barycenter", "{in}/free.json", "--method", "free",
                                        "--out-dir", "{out}"],
                 "check": {"kind": "barycenter", "method": "free"}})

    line_inputs, line_lams = [], rng.dirichlet(np.full(5, 4.0))
    for lam in line_lams:
        atoms, weights = _euclidean_measure(rng, 24, 1, uniform=False)
        line_inputs.append({"measure": _measure_json(atoms, weights), "lambda": float(lam)})
    _write(d / "quantile.json", {"inputs": line_inputs, "cost": SQUARED,
                                 "constraint": {"kind": "quantile_1d"}})
    jobs.append({"id": "quantile1d",
                 "argv": ["barycenter", "{in}/quantile.json", "--method", "quantile1d",
                          "--out-dir", "{out}"],
                 "check": {"kind": "barycenter", "method": "quantile1d", "p": 2.0,
                           "inputs": [[m["measure"]["atoms"], m["measure"]["weights"],
                                       m["lambda"]] for m in line_inputs]}})

    _write(d / "lln.json", LLN_CONFIG)
    _write(d / "perturb.json", PERTURB_CONFIG)
    jobs.append(_verify_job("lln", "lln", "lln.json"))
    jobs.append(_verify_job("perturb", "perturb", "perturb.json"))
    return jobs


def _large_transport(rng, d: Path) -> list:
    _write(d / "squared.json", SQUARED)
    jobs = []
    for n in TRANSPORT_2D_SIZES:
        for side in ("mu", "nu"):
            atoms, weights = _euclidean_measure(rng, n, 2, uniform=True)
            _write(d / f"{side}{n}.json", _measure_json(atoms, weights))
        jobs.append(_transport_job(f"plane-{n}", f"mu{n}.json", f"nu{n}.json", "squared.json",
                                   {"kind": "transport", "space": "euclidean", "p": 2.0,
                                    "mu": f"mu{n}.json", "nu": f"nu{n}.json"}))

    # Uniform weights on grid points jittered by up to a tenth of a step.
    # With random atoms and weights this one job took 1.7 s to 4.9 s
    # depending on the seed; here HiGHS stays quick and steady, and the dense
    # assembly around the LP is what shows.
    n = TRANSPORT_LINE_SIZE
    for side in ("mu", "nu"):
        atoms = (np.arange(n) + 0.5 + rng.uniform(-0.1, 0.1, size=n)) / n
        _write(d / f"{side}line.json", _measure_json(atoms[:, None], np.full(n, 1.0 / n)))
    jobs.append(_transport_job(f"line-{n}", "muline.json", "nuline.json", "squared.json",
                               {"kind": "transport", "space": "euclidean", "p": 2.0,
                                "mu": "muline.json", "nu": "nuline.json", "line": True}))

    n = TRANSPORT_FINITE_SIZE
    points = rng.uniform(0.0, 1.0, size=(n, 2))
    rho = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))
    space = {"kind": "finite", "n": n, "rho": rho.tolist()}
    for side in ("mu", "nu"):
        _write(d / f"{side}finite.json", {"space": space, "atoms": list(range(n)),
                                          "weights": rng.dirichlet(np.ones(n)).tolist()})
    _write(d / "metric.json", {"kind": "metric_power", "p": 1})
    jobs.append(_transport_job(f"finite-{n}", "mufinite.json", "nufinite.json", "metric.json",
                               {"kind": "transport", "space": "finite", "p": 1.0,
                                "mu": "mufinite.json", "nu": "nufinite.json"}))
    return jobs


WORKLOADS = ("property-suites", "barycenter-grid", "large-transport")


def generate(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's inputs for ``seed`` into ``directory``.

    Returns the job spec: ``{"warmup": argv, "jobs": [...]}``, also written
    to ``directory / "jobs.json"``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if seed < 0:
        raise ValueError("the seed must be non-negative")
    directory.mkdir(parents=True, exist_ok=True)
    index = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, index])
    warmup = _warmup(rng, directory)
    if workload == "property-suites":
        jobs = _property_suites(seed, directory)
    elif workload == "barycenter-grid":
        jobs = _barycenter_grid(rng, directory)
    else:
        jobs = _large_transport(rng, directory)
    spec = {"warmup": warmup, "jobs": jobs}
    _write(directory / "jobs.json", spec)
    return spec
