"""Output checks that do not trust the code being timed.

They read only the generated inputs and the files and text the CLI wrote,
and recompute what they compare with numpy alone: cost matrices from the
generated atoms, transport certificates, north-west-corner couplings on the
line.  Each check returns ``None`` on success or a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

TOL = 1e-9


def _close(x: float, y: float, tol: float = TOL) -> bool:
    return abs(x - y) <= tol * (1.0 + abs(y))


def _load_measure(path: Path):
    with open(path) as fh:
        obj = json.load(fh)
    weights = np.asarray(obj["weights"], dtype=float)
    weights = weights / weights.sum()
    if obj["space"]["kind"] == "finite":
        return np.asarray(obj["atoms"], dtype=int), weights, np.asarray(obj["space"]["rho"])
    return np.asarray(obj["atoms"], dtype=float), weights, None


def cost_matrix(x: np.ndarray, y: np.ndarray, p: float, rho=None) -> np.ndarray:
    """|x - y|**p between euclidean atoms, or rho**p between finite indices."""
    if rho is not None:
        return rho[np.ix_(x, y)] ** p
    sq = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
    return sq ** (p / 2.0)


def northwest_cost(x, a, y, b, p: float) -> float:
    """Cost of the monotone coupling of two measures on the line.

    For a convex cost |x - y|**p the coupling that matches sorted atoms in
    order of cumulative mass is optimal.
    """
    x, a = np.asarray(x, float).ravel(), np.asarray(a, float)
    y, b = np.asarray(y, float).ravel(), np.asarray(b, float)
    ox, oy = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    x, a, y, b = x[ox], a[ox] / a.sum(), y[oy], b[oy] / b.sum()
    i = j = 0
    ra, rb = a[0], b[0]
    total = 0.0
    while True:
        mass = min(ra, rb)
        total += mass * abs(x[i] - y[j]) ** p
        ra -= mass
        rb -= mass
        if ra <= rb:
            i += 1
            if i == len(x):
                break
            ra = a[i]
        else:
            j += 1
            if j == len(y):
                break
            rb = b[j]
    return float(total)


def _printed_value(stdout: str) -> float:
    return float(stdout.strip().splitlines()[-1])


def csv_digest(out_dir: Path, suite: str) -> str:
    """SHA-256 of the suite CSV; the manifest holds wall time and stays out."""
    return hashlib.sha256((out_dir / f"{suite}.csv").read_bytes()).hexdigest()


def check_verify(check: dict, out_dir: Path, stdout: str):
    suite = check["suite"]
    if stdout.strip() != f"{suite}: PASS":
        return f"expected '{suite}: PASS', got {stdout.strip()[:80]!r}"
    if not (out_dir / f"{suite}.csv").is_file():
        return f"{suite}.csv missing"
    return None


def check_transport(check: dict, in_dir: Path, out_dir: Path, stdout: str):
    x_atoms, a, rho = _load_measure(in_dir / check["mu"])
    y_atoms, b, _ = _load_measure(in_dir / check["nu"])
    C = cost_matrix(x_atoms, y_atoms, check["p"], rho)
    with open(out_dir / "plan.json") as fh:
        plan = json.load(fh)
    x = np.asarray(plan["coupling"], dtype=float)
    if x.shape != C.shape:
        return f"coupling shape {x.shape}, expected {C.shape}"
    if x.min() < -TOL:
        return f"negative coupling entry {x.min():.3e}"
    row_err = np.abs(x.sum(axis=1) - a).max()
    col_err = np.abs(x.sum(axis=0) - b).max()
    if max(row_err, col_err) > TOL:
        return f"marginals off by {max(row_err, col_err):.3e}"
    u = np.asarray(plan["duals"]["u"], dtype=float)
    v = np.asarray(plan["duals"]["v"], dtype=float)
    slack = (u[:, None] + v[None, :] - C).max()
    if slack > TOL:
        return f"dual infeasible by {slack:.3e}"
    primal = float((C * x).sum())
    dual = float(a @ u + b @ v)
    if primal - dual > TOL * (1.0 + abs(primal)):
        return f"duality gap {primal - dual:.3e} open"
    if not _close(plan["objective"], primal) or not _close(_printed_value(stdout), primal):
        return f"reported objective {plan['objective']!r} != recomputed {primal!r}"
    if check.get("line"):
        nw = northwest_cost(x_atoms, a, y_atoms, b, check["p"])
        if not _close(primal, nw):
            return f"1-D objective {primal!r} != north-west-corner cost {nw!r}"
    return None


def _quantile_barycenter_value(inputs, p: float) -> float:
    """Optimal barycenter objective on the line for p = 2 from quantile functions."""
    if p != 2.0:
        raise ValueError("the quantile formula here covers p = 2 only")
    cums, atoms = [], []
    for x, w, _ in inputs:
        x, w = np.asarray(x, float).ravel(), np.asarray(w, float)
        order = np.argsort(x, kind="stable")
        atoms.append(x[order])
        cums.append(np.cumsum(w[order] / w.sum()))
    lams = np.array([lam for _, _, lam in inputs], dtype=float)
    lams = lams / lams.sum()
    breaks = np.unique(np.concatenate([[0.0, 1.0]] + cums))
    total = 0.0
    for t0, t1 in zip(breaks[:-1], breaks[1:]):
        tm = 0.5 * (t0 + t1)
        xs = np.array([xa[min(int(np.searchsorted(c, tm)), len(xa) - 1)]
                       for xa, c in zip(atoms, cums)])
        mean = float(lams @ xs)
        total += (t1 - t0) * float(lams @ (xs - mean) ** 2)
    return total


def check_barycenter(check: dict, out_dir: Path, stdout: str):
    with open(out_dir / "barycenter.json") as fh:
        result = json.load(fh)
    weights = np.asarray(result["measure"]["weights"], dtype=float)
    atoms = np.asarray(result["measure"]["atoms"], dtype=float)
    objective = float(result["objective"])
    if weights.min() <= 0.0 or abs(weights.sum() - 1.0) > TOL:
        return f"barycenter weights sum to {weights.sum()!r}"
    if not _close(_printed_value(stdout), objective):
        return "printed objective differs from barycenter.json"
    method = check["method"]
    if method == "fixed":
        grid = np.asarray(check["grid"], dtype=float)
        dist = np.abs(atoms[:, None, :] - grid[None, :, :]).max(axis=-1).min(axis=1)
        if dist.max() > 1e-12:
            return "barycenter atom outside the candidate grid"
        gap = result["certificate"]["gap"]
        if gap is None or gap > TOL * (1.0 + abs(objective)):
            return f"fixed-support gap {gap!r} not closed"
    elif method == "free":
        trace = [value for _, value in result["trace"]]
        if any(b > a + TOL * (1.0 + abs(a)) for a, b in zip(trace, trace[1:])):
            return "free-support trace increases"
    elif method == "quantile1d":
        nw = sum(lam * northwest_cost(x, w, atoms, weights, check["p"])
                 for x, w, lam in check["inputs"]) / sum(lam for _, _, lam in check["inputs"])
        if not _close(objective, nw):
            return f"quantile objective {objective!r} != north-west-corner cost {nw!r}"
        best = _quantile_barycenter_value(check["inputs"], check["p"])
        if not _close(objective, best):
            return f"quantile objective {objective!r} != quantile-formula optimum {best!r}"
    return None


def check_job(job: dict, in_dir: Path, out_dir: Path, stdout: str):
    """Run the job's output check; returns (reason or None, CSV digest or None)."""
    check = job["check"]
    kind = check["kind"]
    if kind == "verify":
        reason = check_verify(check, out_dir, stdout)
        digest = None if reason else csv_digest(out_dir, check["suite"])
        return reason, digest
    if kind == "transport":
        return check_transport(check, in_dir, out_dir, stdout), None
    if kind == "barycenter":
        return check_barycenter(check, out_dir, stdout), None
    raise ValueError(f"unknown check kind {kind!r}")
