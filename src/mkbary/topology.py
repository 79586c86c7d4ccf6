"""Diagnostics for the transport-induced topology.

Convergence of a sequence nu_n to nu* in the transport sense is
equivalent to weak convergence plus convergence of the cost to one
reference measure; ``check_convergence`` records all four tracks and
assigns a verdict.  Weak convergence is operationalized by transport
under the clamped ground metric min(rho, 1), which metrizes it on the
uniformly bounded families the harness generates.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .costs import CostSpec
from .measures import DiscreteMeasure, _as_point, _cutoff, _sort_and_merge, canonicalize, tail_cost
from .transport import TransportPlan, solve_lp_batch, solve_lp_matrix

VERDICT_TOL = 1e-6


@dataclass(frozen=True)
class SequenceDiagnostics:
    n_values: tuple
    J_forward: tuple   # J(nu*, nu_n)
    J_backward: tuple  # J(nu_n, nu*)
    weak_proxy: tuple
    reference_J: tuple  # J(mu, nu_n)
    reference_limit: float  # J(mu, nu*)
    verdict: str


def _weak_proxy_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """The bounded ground metric min(rho, 1) between the atoms of mu and nu."""
    return np.minimum(CostSpec.metric_power(1).matrix(mu, nu), 1.0)


def weak_proxy_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Transport cost under the bounded ground metric min(rho, 1)."""
    _, value, _, _, _ = solve_lp_matrix(_weak_proxy_matrix(mu, nu), mu.weights, nu.weights)
    return value


def _final_third(values):
    k = max(1, (len(values) + 2) // 3)
    return values[-k:]


def _strictly_small(track) -> bool:
    return max(_final_third(track)) <= VERDICT_TOL


def _decaying(track) -> bool:
    """Trend test: nonincreasing on the final third and at least halved."""
    tail = _final_third(track)
    if any(tail[i + 1] > tail[i] + 1e-12 for i in range(len(tail) - 1)):
        return False
    return track[-1] <= 0.5 * track[0] + 1e-15


def check_convergence(
    sequence: list,
    limit: DiscreteMeasure,
    reference: DiscreteMeasure,
    cost: CostSpec,
) -> SequenceDiagnostics:
    """Record transport and weak tracks for nu_n against nu* and classify.

    ``consistent_with_J_convergence`` needs both the weak proxy and
    |J(mu, nu_n) - J(mu, nu*)| below ``VERDICT_TOL`` on the final third;
    ``weak_only`` needs the proxy small or decaying while the reference
    track is not; anything else is ``divergent``.  Thresholds are
    reporting configuration, not truth claims: the raw tracks travel with
    the verdict.
    """
    if not sequence:
        raise ValueError("sequence must be nonempty")
    C = cost.matrix
    problems = [(C(reference, limit), reference.weights, limit.weights)]
    for nu_n in sequence:
        problems += [
            (C(limit, nu_n), limit.weights, nu_n.weights),
            (C(nu_n, limit), nu_n.weights, limit.weights),
            (_weak_proxy_matrix(nu_n, limit), nu_n.weights, limit.weights),
            (C(reference, nu_n), reference.weights, nu_n.weights),
        ]
    values = [sol[1] for sol in solve_lp_batch(problems)]
    ref_limit = values[0]
    fwd, bwd, proxy, ref = (values[1 + k::4] for k in range(4))
    ref_err = [abs(v - ref_limit) for v in ref]

    proxy_small = _strictly_small(proxy)
    ref_small = _strictly_small(ref_err)
    if proxy_small and ref_small:
        verdict = "consistent_with_J_convergence"
    elif proxy_small or _decaying(proxy):
        verdict = "weak_only"
    else:
        verdict = "divergent"
    return SequenceDiagnostics(
        n_values=tuple(range(1, len(sequence) + 1)),
        J_forward=tuple(fwd),
        J_backward=tuple(bwd),
        weak_proxy=tuple(proxy),
        reference_J=tuple(ref),
        reference_limit=ref_limit,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Plan truncation
# ---------------------------------------------------------------------------

def truncate_plan(gamma: TransportPlan, x0, R: float, cost: CostSpec):
    """Collapse far-field plan mass onto the target diagonal.

    With the two-argument cutoff f_R(x, y) = phi(x) phi(y), phi the
    clamped one-argument cutoff around x0, the surgery
    ``gamma - f_R|gamma + (pi_y x pi_y)_# (f_R|gamma)`` returns a plan
    from the modified source onto the original target whose cost is
    K(gamma) - K(f_R|gamma).  Returns (nu_tilde, plan, cost_drop).
    """
    mu, nu = gamma.source, gamma.target
    x0p = _as_point(mu.space, x0)
    phi_x = _cutoff(mu, x0p, R, cost)
    phi_y = _cutoff(nu, x0p, R, cost)
    lam = gamma.coupling * phi_x[:, None] * phi_y[None, :]
    C = cost.matrix(mu, nu)
    k_gamma = float((gamma.coupling * C).sum())
    k_lam = float((lam * C).sum())
    cost_drop = k_gamma - k_lam

    top = gamma.coupling - lam
    diag = np.diag(lam.sum(axis=0))
    if mu.space.kind == "euclidean":
        atoms = np.concatenate([mu.atoms, nu.atoms])
    else:
        atoms = np.concatenate([mu.atoms, nu.atoms]).astype(int)
    stacked = np.concatenate([top, diag], axis=0)
    atoms, rows = _sort_and_merge(mu.space, atoms, stacked)
    mass = rows.sum(axis=1)
    keep = mass > 0
    atoms, rows, mass = atoms[keep], rows[keep], mass[keep]
    nu_tilde = canonicalize(atoms, mass, mu.space)
    C_new = cost.matrix(nu_tilde, nu)
    plan = TransportPlan(
        source=nu_tilde,
        target=nu,
        coupling=rows,
        objective=float((rows * C_new).sum()),
        duals=None,
        gap=None,
    )
    return nu_tilde, plan, cost_drop


def uniform_tail_radius(family, x0, cost: CostSpec, eps: float) -> float:
    """Smallest doubling radius at which every member's tail cost is <= eps."""
    R = 1.0
    for _ in range(200):
        if max(tail_cost(nu, x0, R, cost) for nu in family) <= eps:
            return R
        R *= 2.0
    raise RuntimeError("tail cost did not fall below eps at any doubling radius")
