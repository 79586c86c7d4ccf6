"""Cost functions and their structural growth constants.

Built-in cost kinds:

* ``metric_power``: c(x, y) = rho(x, y)**p for the ground metric rho
  (euclidean norm on R^d, or the finite space's distance matrix).
* ``norm_power``: translation cost c(x, y) = |x - y|**p on R^d, p >= 1.
* ``translation``: c(x, y) = g(x - y) for a user-supplied g on R^d.
* ``finite_matrix``: an explicit (possibly asymmetric) cost table on a
  finite space.

The growth constants are the pair (A, B) making
``c(x, y) <= A + B (c(x, z) + c(y, z))`` (and its argument-order
variants) hold, the derived exponents q0 = ln(2B)/ln 2 and
q = max(3B, q0) making c**(1/q) triangle-like, and the epsilon-relaxed
pair (A_eps, C_eps) with ``c(x, y) <= A_eps + (1+eps) c(x, z) +
C_eps c(y, z)``.  On a finite table both are exact sups over all triples
(x, y, z), enumerated in slabs of x (``measures._triple_slabs``) so that
memory stays O(n**2) however large the space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConstructionFailed, SpaceMismatch, UnboundedRatio
from .measures import DiscreteMeasure, GroundSpace, _triple_slabs

DEFAULT_GRID_SIZE = 10_000
RATIO_CAP = 1e6


def _first_primes(d: int) -> list:
    primes: list = []
    k = 2
    while len(primes) < d:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def halton_sample(n: int, d: int, lo, hi) -> np.ndarray:
    """Deterministic low-discrepancy sample of n points in the box [lo, hi]^d.

    The unscrambled Halton sequence from index 0: coordinate j of point i is
    the radical inverse of i in the j-th prime base, with its digits summed
    from the most significant one (the order of scipy's
    ``qmc.Halton(scramble=False)``, whose points these equal bit for bit).
    """
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (d,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (d,))
    idx = np.arange(n)
    pts = np.zeros((n, d))
    for j, base in enumerate(_first_primes(d)):
        q, scale = idx.copy(), 1.0 / base
        while q.any():
            pts[:, j] += (q % base) * scale
            scale /= base
            q //= base
    return lo + pts * (hi - lo)


def _check_declared(declared: Optional[dict], b_floor: float = 1.0) -> Optional[dict]:
    if declared is None:
        return None
    if float(declared.get("A", 0.0)) < 0:
        raise ValueError("declared A must be nonnegative")
    if float(declared["B"]) < b_floor:
        raise ValueError(f"declared B must be >= {b_floor}")
    if "q" in declared and float(declared["q"]) < 1.0:
        raise ValueError("declared q must be >= 1")
    return dict(declared)


@dataclass(frozen=True)
class CostSpec:
    """Immutable cost function specification."""

    kind: str
    p: float = 0.0
    g: Optional[Callable] = None
    g_convex: bool = False
    g_dim: int = 1
    values: Optional[np.ndarray] = None
    declared: Optional[dict] = None

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def metric_power(p: float, declared: Optional[dict] = None) -> "CostSpec":
        if p <= 0:
            raise ValueError("metric power p must be positive")
        declared = _check_declared(declared, b_floor=0.5 if p < 1 else 1.0)
        return CostSpec(kind="metric_power", p=float(p), declared=declared)

    @staticmethod
    def norm_power(p: float, declared: Optional[dict] = None) -> "CostSpec":
        if p < 1:
            raise ValueError("norm power requires p >= 1")
        return CostSpec(kind="norm_power", p=float(p), declared=_check_declared(declared))

    @staticmethod
    def translation(
        g: Callable, convex: bool = True, dim: int = 1, declared: Optional[dict] = None
    ) -> "CostSpec":
        origin = np.zeros(dim)
        if abs(float(g(origin))) > 1e-12:
            raise ValueError("translation cost needs g(0) = 0")
        return CostSpec(kind="translation", g=g, g_convex=convex, g_dim=dim,
                        declared=_check_declared(declared))

    @staticmethod
    def finite_matrix(values, declared: Optional[dict] = None) -> "CostSpec":
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError("finite cost matrix must be square")
        if np.any(vals < 0):
            raise ValueError("finite cost matrix must be nonnegative")
        if np.any(np.abs(np.diag(vals)) > 1e-12):
            raise ValueError("finite cost matrix must have zero diagonal")
        return CostSpec(kind="finite_matrix", values=vals, declared=_check_declared(declared))

    # -- evaluation -----------------------------------------------------------
    @property
    def is_convex_translation(self) -> bool:
        if self.kind == "norm_power":
            return True
        if self.kind == "translation":
            return self.g_convex
        return False

    @property
    def is_symmetric(self) -> bool:
        if self.kind == "finite_matrix":
            return bool(np.allclose(self.values, self.values.T, atol=0.0))
        if self.kind == "translation":
            probes = halton_sample(16, self.g_dim, -1.0, 1.0)
            return all(abs(float(self.g(u)) - float(self.g(-u))) <= 1e-12 for u in probes)
        return True

    def evaluate(self, x, y) -> float:
        """c(x, y) for two euclidean points, or two indices of a finite_matrix table."""
        if self.kind == "finite_matrix":
            return float(self.values[int(x), int(y)])
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        yv = np.atleast_1d(np.asarray(y, dtype=float))
        if xv.shape != yv.shape:
            raise SpaceMismatch("points have different dimensions")
        if self.kind == "translation":
            return float(self.g(xv - yv))
        sq = float(np.sum((xv - yv) ** 2))
        return sq ** (self.p / 2.0)

    def table(self, space: GroundSpace, X, Y) -> np.ndarray:
        """c(x, y) for every point x of X and y of Y, both points of ``space``.

        Euclidean points are rows of (m, d) and (n, d) arrays, finite-space
        points are indices.  A cost kind that cannot score points of the
        space raises ``SpaceMismatch``.
        """
        if space.kind == "euclidean":
            X = np.atleast_2d(np.asarray(X, dtype=float))
            Y = np.atleast_2d(np.asarray(Y, dtype=float))
            if X.shape[1] != space.dim or Y.shape[1] != space.dim:
                raise SpaceMismatch(f"points do not fit R^{space.dim}")
            if self.kind == "translation":
                out = np.empty((X.shape[0], Y.shape[0]))
                for i in range(X.shape[0]):
                    for j in range(Y.shape[0]):
                        out[i, j] = float(self.g(X[i] - Y[j]))
                return out
            if self.kind in ("metric_power", "norm_power"):
                sq = np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=-1)
                return sq ** (self.p / 2.0)
            raise SpaceMismatch(f"{self.kind} cost cannot score euclidean points")
        ix = np.ix_(np.asarray(X).astype(int).ravel(), np.asarray(Y).astype(int).ravel())
        if self.kind == "finite_matrix":
            if self.values.shape[0] != space.n_points:
                raise SpaceMismatch("cost matrix size disagrees with the space")
            return self.values[ix]
        if self.kind == "metric_power":
            return space.rho[ix] ** self.p
        raise SpaceMismatch(f"{self.kind} cost needs a euclidean space")

    def pair_matrix(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """``table`` between two euclidean point arrays (m, d) x (n, d)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.table(GroundSpace.euclidean(X.shape[1]), X, Y)

    def matrix(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
        """Entrywise costs between the atoms of two measures."""
        if not mu.space.same_as(nu.space):
            raise SpaceMismatch("measures live on different ground spaces")
        return self.table(mu.space, mu.atoms, nu.atoms)


# ---------------------------------------------------------------------------
# Growth constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthConstants:
    A: float
    B: float
    q: float
    q0: float
    provenance: str  # analytic | declared | sampled_lower_bound


def _q_from_B(B: float) -> tuple[float, float]:
    q0 = math.log(2.0 * B) / math.log(2.0)
    q = max(3.0 * B, q0, 1.0)
    return q, q0


def _first_triple(mask: np.ndarray, x0: int) -> tuple:
    """The first (x, y, z) in lexicographic order where a slab mask holds."""
    i, j, k = np.argwhere(mask)[0]
    return x0 + int(i), int(j), int(k)


def _enumerate_B_finite(c: np.ndarray, cap: float) -> float:
    """Exact sup over all triples of c(x,y)/denominator, all four variants.

    The triples are enumerated in slabs of x, so memory stays at the table
    plus one slab.  A zero denominator under a positive c(x, y) raises
    ``UnboundedRatio`` naming the first such triple of the first variant
    that has one.
    """
    best = 1.0
    zero_den = [None] * 4
    for x0, cxy, cxz, czx, cyz, czy in _triple_slabs(c):
        pos = cxy > 1e-15
        num = np.where(pos, cxy, 0.0)  # c(x, y) where positive, else 0
        # denominators c(x,z)+c(y,z), c(x,z)+c(z,y), c(z,x)+c(y,z), c(z,x)+c(z,y)
        for v, (left, right) in enumerate(((cxz, cyz), (cxz, czy), (czx, cyz), (czx, czy))):
            denom = left + right
            bad = pos & (denom <= 1e-15)
            if zero_den[v] is None and bad.any():
                zero_den[v] = _first_triple(bad, x0)
            best = max(best, float((num / np.maximum(denom, 1e-300)).max()))
    for i, j, k in filter(None, zero_den):
        raise UnboundedRatio(f"c({i},{j}) > 0 but the triangle denominator through z={k} is 0")
    if best > cap:
        raise UnboundedRatio(f"growth ratio {best:.3g} exceeds cap {cap:.3g}")
    return best


def growth_constants(cost: CostSpec, cap: float = RATIO_CAP,
                     sample_size: int = DEFAULT_GRID_SIZE) -> GrowthConstants:
    """Structural constants for a cost, analytic where possible.

    Built-in powers get closed forms (A=0, B=2**(p-1) for p >= 1, B=1 for
    p < 1); finite tables are enumerated exactly, slab by slab; custom g is
    sampled on a deterministic grid and flagged ``sampled_lower_bound``.
    """
    if cost.declared is not None:
        A = float(cost.declared.get("A", 0.0))
        B = float(cost.declared["B"])
        if "q" in cost.declared:
            q = float(cost.declared["q"])
            q0 = float(cost.declared.get("q0", math.log(max(2.0 * B, 1e-300)) / math.log(2.0)))
        else:
            q, q0 = _q_from_B(B)
        return GrowthConstants(A=A, B=B, q=q, q0=q0, provenance="declared")

    if cost.kind in ("metric_power", "norm_power"):
        # powers of a metric: (r+s)^p <= 2^(p-1) (r^p + s^p) for p >= 1,
        # subadditive outright for p < 1
        B = 2.0 ** (cost.p - 1.0) if cost.p >= 1.0 else 1.0
        q, q0 = _q_from_B(B)
        return GrowthConstants(A=0.0, B=B, q=q, q0=q0, provenance="analytic")

    if cost.kind == "finite_matrix":
        B = _enumerate_B_finite(cost.values, cap)
        q, q0 = _q_from_B(B)
        return GrowthConstants(A=0.0, B=B, q=q, q0=q0, provenance="analytic")

    # custom translation cost: deterministic sampled lower bound
    d = cost.g_dim
    uv = halton_sample(sample_size, 2 * d, -1.0, 1.0)
    u, v = uv[:, :d], uv[:, d:]
    # include u = v pairs: ratios along rays often attain the sup
    u = np.concatenate([u, uv[:, :d]])
    v = np.concatenate([v, uv[:, :d]])
    best = 0.0
    for ui, vi in zip(u, v):
        den = float(cost.g(ui)) + float(cost.g(vi))
        if den <= 1e-15:
            continue
        r = float(cost.g(ui + vi)) / den
        if r > best:
            best = r
    if best > cap:
        raise UnboundedRatio(f"sampled growth ratio {best:.3g} exceeds cap {cap:.3g}")
    if best < 1.0:
        warnings.warn("sampled B < 1 clamped to 1 (convex g cannot have B < 1)")
        best = 1.0
    q, q0 = _q_from_B(best)
    return GrowthConstants(A=0.0, B=best, q=q, q0=q0, provenance="sampled_lower_bound")


# ---------------------------------------------------------------------------
# Relaxed constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelaxedConstants:
    eps: float
    A_eps: float
    C_eps: float


def _check_relaxed_on_triples(cost: CostSpec, eps, A_eps, C_eps, X, Y, Z):
    """Both argument-order variants of the relaxed inequality on point triples.

    A violation raises ``ConstructionFailed`` naming the first failing
    triple in input order.
    """
    origin = np.zeros((1, X.shape[1]))

    def c(P, Q):  # c(p_i, q_i) row by row; euclidean costs are translation invariant
        return cost.pair_matrix(P - Q, origin)[:, 0]

    cxy = c(X, Y)
    slack = 1e-9 * (1.0 + cxy)
    lhs1 = A_eps + (1.0 + eps) * c(X, Z) + C_eps * c(Y, Z)
    lhs2 = A_eps + (1.0 + eps) * c(Z, Y) + C_eps * c(Z, X)
    bad = np.flatnonzero((cxy > lhs1 + slack) | (cxy > lhs2 + slack))
    if bad.size:
        i = bad[0]
        raise ConstructionFailed(f"relaxed inequality fails at eps={eps}", (X[i], Y[i], Z[i]))


def relaxed_constants(
    cost: CostSpec,
    eps: float,
    box: Optional[tuple] = None,
    dim: int = 2,
    n_triples: int = DEFAULT_GRID_SIZE,
) -> RelaxedConstants:
    """Constants (A_eps, C_eps) for c(x,y) <= A_eps + (1+eps) c(x,z) + C_eps c(y,z).

    For subadditive costs the pair (0, 1) is returned; for convex
    translation costs the doubling construction C_eps = B**(k+1) with the
    smallest k making 2**(-k) B < eps; for finite_matrix tables the exact
    sup is enumerated in slabs of x (a metric power on a finite space
    enters as ``CostSpec.finite_matrix(space.rho ** p)``).  The result is always
    re-verified on the deterministic grid (or all triples of a finite
    space) and a violation raises ``ConstructionFailed`` with the witness
    triple.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")

    if cost.kind == "finite_matrix":
        # exact enumeration over all index triples (x, y, z), in slabs of x
        A_eps, C_eps, grow = 0.0, 1.0, 1.0 + eps
        dead = [None, None]
        for x0, cxy, cxz, czx, cyz, czy in _triple_slabs(cost.values):
            for v, (near, den) in enumerate(((cxz, cyz), (czy, czx))):
                need = cxy - grow * near
                stuck = (den <= 1e-15) & (need > 1e-12)
                if dead[v] is None and stuck.any():
                    dead[v] = _first_triple(stuck, x0)
                ratios = np.where(den > 1e-15, need / np.maximum(den, 1e-300), 0.0)
                C_eps = max(C_eps, float(ratios.max()))
        for witness in filter(None, dead):
            raise ConstructionFailed(
                "no finite C_eps: the multiplied cost vanishes where slack is needed", witness
            )
        # exhaustive recheck of both variants
        for x0, cxy, cxz, czx, cyz, czy in _triple_slabs(cost.values):
            slack = 1e-9 * (1.0 + cxy)
            viol = (cxy > A_eps + grow * cxz + C_eps * cyz + slack) | (
                cxy > A_eps + grow * czy + C_eps * czx + slack
            )
            if viol.any():
                raise ConstructionFailed(
                    f"relaxed inequality fails at eps={eps}", _first_triple(viol, x0)
                )
        return RelaxedConstants(eps=eps, A_eps=A_eps, C_eps=C_eps)

    gc = growth_constants(cost)
    if gc.B <= 1.0 + 1e-12 and gc.provenance != "sampled_lower_bound":
        A_eps, C_eps = 0.0, 1.0
    else:
        k = 0
        while 2.0 ** (-k) * gc.B >= eps:
            k += 1
        C_eps = gc.B ** (k + 1)
        A_eps = eps if gc.provenance == "sampled_lower_bound" else 0.0

    if box is None:
        lo, hi = -1.0, 1.0
    else:
        lo, hi = box
    if cost.kind == "translation":
        dim = cost.g_dim
    lo_v = np.broadcast_to(np.asarray(lo, dtype=float), (dim,))
    hi_v = np.broadcast_to(np.asarray(hi, dtype=float), (dim,))
    pts = halton_sample(n_triples, 3 * dim, np.tile(lo_v, 3), np.tile(hi_v, 3))
    X = pts[:, :dim]
    Y = pts[:, dim : 2 * dim]
    Z = pts[:, 2 * dim :]
    _check_relaxed_on_triples(cost, eps, A_eps, C_eps, X, Y, Z)
    return RelaxedConstants(eps=eps, A_eps=A_eps, C_eps=C_eps)


# ---------------------------------------------------------------------------
# Consistency diagnostics
# ---------------------------------------------------------------------------

@dataclass
class ConsistencyReport:
    passed: bool
    failures: list


def consistency_check(cost: CostSpec, sample: list) -> ConsistencyReport:
    """Diagnostic for c(x,y)=0 iff x=y and co-vanishing of c along shrinking steps.

    Integer sample points are finite-space indices; a metric power on a
    finite space enters as ``CostSpec.finite_matrix(space.rho ** p)``.
    """
    if not sample:
        raise ValueError("sample must be nonempty")
    failures = []
    finite_points = isinstance(sample[0], (int, np.integer))
    if finite_points and cost.kind == "metric_power":
        raise SpaceMismatch("metric_power cannot score finite-space indices; "
                            "pass finite_matrix(rho ** p)")

    for x in sample:
        for y in sample:
            c = cost.evaluate(x, y)
            if finite_points:
                same = int(x) == int(y)
            else:
                same = np.allclose(np.atleast_1d(x), np.atleast_1d(y), atol=1e-12)
            if same and abs(c) > 1e-12:
                failures.append(("nonzero_on_diagonal", x, y, c))
            if not same and c <= 1e-12:
                failures.append(("zero_off_diagonal", x, y, c))

    if not finite_points:
        d = np.atleast_1d(np.asarray(sample[0], dtype=float)).shape[0]
        dirs = list(np.eye(d))
        dirs.append(np.ones(d) / math.sqrt(d))
        hs = 2.0 ** -np.arange(0, 17)
        for x in sample:
            xv = np.atleast_1d(np.asarray(x, dtype=float))
            for u in dirs:
                fwd = [cost.evaluate(xv, xv + h * u) for h in hs]
                bwd = [cost.evaluate(xv + h * u, xv) for h in hs]
                for name, track in (("forward", fwd), ("backward", bwd)):
                    if any(track[i + 1] > track[i] + 1e-12 for i in range(len(track) - 1)):
                        failures.append(("not_monotone", name, tuple(xv), tuple(u)))
                    if track[-1] > 1e-9:
                        failures.append(("not_vanishing", name, tuple(xv), tuple(u)))
    return ConsistencyReport(passed=not failures, failures=failures)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def cost_to_json(cost: CostSpec) -> dict:
    if cost.kind == "metric_power":
        out = {"kind": "metric_power", "p": cost.p}
    elif cost.kind == "norm_power":
        out = {"kind": "norm_power", "p": cost.p}
    elif cost.kind == "finite_matrix":
        out = {"kind": "finite_matrix", "values": cost.values.tolist()}
    else:
        raise ValueError("custom translation costs have no file form")
    if cost.declared is not None:
        out["declared_constants"] = dict(cost.declared)
    return out


def cost_from_json(obj: dict) -> CostSpec:
    kind = obj.get("kind")
    declared = obj.get("declared_constants")
    if kind == "metric_power":
        return CostSpec.metric_power(float(obj["p"]), declared=declared)
    if kind == "norm_power":
        return CostSpec.norm_power(float(obj["p"]), declared=declared)
    if kind == "finite_matrix":
        return CostSpec.finite_matrix(obj["values"], declared=declared)
    raise ValueError(f"unknown cost kind {kind!r}")
