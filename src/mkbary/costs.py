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

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConstructionFailed, NonFinite, SpaceMismatch, UnboundedRatio
from .measures import DiscreteMeasure, GroundSpace, _triple_slabs, json_field, json_keys

log = logging.getLogger("mkbary")

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
    for key in ("A", "B", "q", "q0"):
        if key in declared and not math.isfinite(float(declared[key])):
            raise ValueError(f"declared {key} must be finite, not {declared[key]!r}")
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
        if not math.isfinite(p):  # json reads NaN, which fails no comparison, and Infinity
            raise ValueError(f"metric power p must be finite, not {p!r}")
        if p <= 0:
            raise ValueError("metric power p must be positive")
        declared = _check_declared(declared, b_floor=0.5 if p < 1 else 1.0)
        return CostSpec(kind="metric_power", p=float(p), declared=declared)

    @staticmethod
    def norm_power(p: float, declared: Optional[dict] = None) -> "CostSpec":
        if not math.isfinite(p):
            raise ValueError(f"norm power p must be finite, not {p!r}")
        if p < 1:
            raise ValueError("norm power requires p >= 1")
        return CostSpec(kind="norm_power", p=float(p), declared=_check_declared(declared))

    @staticmethod
    def translation(
        g: Callable, convex: bool = True, dim: int = 1, declared: Optional[dict] = None
    ) -> "CostSpec":
        probes = halton_sample(6, dim, -1.0, 1.0).reshape(2, 3, dim)
        try:
            shape = np.shape(g(probes))
        except (TypeError, ValueError, IndexError) as exc:
            raise ValueError(f"translation cost g failed on a stack of shape {probes.shape}: "
                             f"{exc}") from exc
        if shape != (2, 3):
            raise ValueError("translation cost g must map difference vectors of shape "
                             f"(..., {dim}) to costs of shape (...): a {probes.shape} stack "
                             f"gave {shape}, not (2, 3)")
        if abs(float(g(np.zeros(dim)))) > 1e-12:
            raise ValueError("translation cost needs g(0) = 0")
        return CostSpec(kind="translation", g=g, g_convex=convex, g_dim=dim,
                        declared=_check_declared(declared))

    @staticmethod
    def finite_matrix(values, declared: Optional[dict] = None) -> "CostSpec":
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError("finite cost matrix must be square")
        if not np.isfinite(vals).all():
            raise ValueError("finite cost matrix entries must be finite")
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
    def is_metric(self) -> bool:
        """Whether c is itself a metric: rho**p with p <= 1, or |x - y| on R^d.

        A power p <= 1 of a metric is a metric.  The other kinds may be
        metrics for some g or table, but that is not tested.
        """
        if self.kind == "metric_power":
            return self.p <= 1.0
        return self.kind == "norm_power" and self.p == 1.0

    @property
    def is_symmetric(self) -> bool:
        if self.kind == "finite_matrix":
            return bool(np.allclose(self.values, self.values.T, atol=0.0, rtol=0.0))
        if self.kind == "translation":
            probes = halton_sample(16, self.g_dim, -1.0, 1.0)
            return bool(np.all(np.abs(self.g(probes) - self.g(-probes)) <= 1e-12))
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
        space raises ``SpaceMismatch``, and a cost that is not finite, as
        |x - y|**2 overflows at |x - y| = 1e200, raises ``NonFinite`` naming
        the cost and the first such pair.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            if space.kind == "euclidean":
                X = np.atleast_2d(np.asarray(X, dtype=float))
                Y = np.atleast_2d(np.asarray(Y, dtype=float))
                if X.shape[1] != space.dim or Y.shape[1] != space.dim:
                    raise SpaceMismatch(f"points do not fit R^{space.dim}")
                T = self._pair_costs(X[:, None, :], Y[None, :, :])
            else:
                X = np.asarray(X).astype(int).ravel()
                Y = np.asarray(Y).astype(int).ravel()
                if self.kind == "finite_matrix":
                    if self.values.shape[0] != space.n_points:
                        raise SpaceMismatch("cost matrix size disagrees with the space")
                    T = self.values[np.ix_(X, Y)]
                elif self.kind == "metric_power":
                    T = space.rho[np.ix_(X, Y)] ** self.p
                else:
                    raise SpaceMismatch(f"{self.kind} cost needs a euclidean space")
            total = T.sum()  # one pass, no temporary: finite unless an entry is not
        if not math.isfinite(total):  # or unless only the sum overflowed
            bad = np.argwhere(~np.isfinite(T))
            if bad.size:
                i, j = bad[0]
                name = f"{self.kind} cost" + (f" with p = {self.p:g}" if self.p else "")
                raise NonFinite(f"{name} is {T[i, j]} between x = {X[i].tolist()} and "
                                f"y = {Y[j].tolist()}, not finite")
        return T

    def _pair_costs(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """c(p, q) for euclidean points P and Q of shape (..., d), broadcast against
        each other: one call of an array ``g``, or one array formula for a power."""
        D = P - Q
        if self.kind == "translation":
            return np.asarray(self.g(D), dtype=float)
        if self.kind in ("metric_power", "norm_power"):
            np.square(D, out=D)  # in place: D is this call's own temporary
            return np.sum(D, axis=-1) ** (self.p / 2.0)
        raise SpaceMismatch(f"{self.kind} cost cannot score euclidean points")

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


def _q_from_B(B: float, q0: Optional[float] = None) -> tuple[float, float]:
    """(q, q0): q0 = log2(2B) unless given, and q = max(3B, q0, 1)."""
    q0 = math.log(2.0 * B) / math.log(2.0) if q0 is None else float(q0)
    q = max(3.0 * B, q0, 1.0)
    return q, q0


def _first_triple(mask: np.ndarray, x0: int) -> tuple:
    """The first (x, y, z) in lexicographic order where a slab mask holds."""
    i, j, k = np.argwhere(mask)[0]
    return x0 + int(i), int(j), int(k)


def _zero_denominator(c: np.ndarray) -> tuple:
    """The first triple of the first denominator variant that is 0 under a positive c(x, y).

    The variants are c(x,z)+c(y,z), c(x,z)+c(z,y), c(z,x)+c(y,z) and
    c(z,x)+c(z,y); the caller has seen that one of them has such a triple.
    """
    found = [None] * 4
    for x0, cxy, cxz, czx, cyz, czy in _triple_slabs(c):
        pos = cxy > 1e-15
        for v, (left, right) in enumerate(((cxz, cyz), (cxz, czy), (czx, cyz), (czx, czy))):
            bad = pos & (left + right <= 1e-15)
            if found[v] is None and bad.any():
                found[v] = _first_triple(bad, x0)
    return next(filter(None, found))


def _enumerate_B_finite(c: np.ndarray, cap: float) -> float:
    """Exact sup over all triples of c(x,y)/denominator, all four variants.

    Addition and division round monotonically, so the largest of the four
    ratios is c(x,y) / (min(c(x,z), c(z,x)) + min(c(y,z), c(z,y))) bit for
    bit, and one scan of that denominator does.  The triples are enumerated
    in slabs of x, so memory stays at the table plus one slab.  A zero
    denominator under a positive c(x, y) raises ``UnboundedRatio`` naming
    the first such triple of the first variant that has one.
    """
    best, unbounded = 1.0, False
    for _, cxy, cxz, czx, cyz, czy in _triple_slabs(c):
        pos = cxy > 1e-15
        denom = np.minimum(cxz, czx) + np.minimum(cyz, czy)
        unbounded = unbounded or bool((pos & (denom <= 1e-15)).any())
        best = max(best, float((np.where(pos, cxy, 0.0) / np.maximum(denom, 1e-300)).max()))
    if unbounded:
        i, j, k = _zero_denominator(c)
        raise UnboundedRatio(f"c({i},{j}) > 0 but the triangle denominator through z={k} is 0")
    if best > cap:
        raise UnboundedRatio(f"growth ratio {best:.3g} exceeds cap {cap:.3g}")
    return best


def growth_constants(cost: CostSpec, cap: float = RATIO_CAP) -> GrowthConstants:
    """Structural constants for a cost, analytic where possible.

    Built-in powers get closed forms (A=0, B=2**(p-1) for p >= 1, B=1 for
    p < 1); finite tables are enumerated exactly, slab by slab; custom g is
    sampled on DEFAULT_GRID_SIZE Halton pairs (u, v) plus the pairs (u, u),
    as the largest g(u + v) / (g(u) + g(v)) over denominators above 1e-15,
    and flagged ``sampled_lower_bound``.  Declared constants come first:
    each declared one stands, an undeclared q0 is log2(2B), and an
    undeclared q is max(3B, q0, 1).
    """
    if cost.declared is not None:
        A = float(cost.declared.get("A", 0.0))
        B = float(cost.declared["B"])
        if "q" in cost.declared:
            q = float(cost.declared["q"])
            q0 = float(cost.declared.get("q0", math.log(max(2.0 * B, 1e-300)) / math.log(2.0)))
        else:  # a declared q0 stands, and q follows from it and B
            q, q0 = _q_from_B(B, cost.declared.get("q0"))
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
    uv = halton_sample(DEFAULT_GRID_SIZE, 2 * d, -1.0, 1.0)
    # include u = v pairs: ratios along rays often attain the sup
    u = np.concatenate([uv[:, :d], uv[:, :d]])
    v = np.concatenate([uv[:, d:], uv[:, :d]])

    def g(w):
        return np.asarray(cost.g(w), dtype=float)

    den = g(u) + g(v)
    keep = den > 1e-15
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = g(u + v)[keep] / den[keep]
    ratios = ratios[ratios > 0.0]  # a NaN ratio counts for nothing
    best = float(ratios.max()) if ratios.size else 0.0
    if best > cap:
        raise UnboundedRatio(f"sampled growth ratio {best:.3g} exceeds cap {cap:.3g}")
    if best < 1.0:
        log.warning("sampled B < 1 clamped to 1 (convex g cannot have B < 1)")
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
    c = cost._pair_costs  # c(p_i, q_i) row by row
    cxy = c(X, Y)
    slack = 1e-9 * (1.0 + cxy)
    lhs1 = A_eps + (1.0 + eps) * c(X, Z) + C_eps * c(Y, Z)
    lhs2 = A_eps + (1.0 + eps) * c(Z, Y) + C_eps * c(Z, X)
    bad = np.flatnonzero((cxy > lhs1 + slack) | (cxy > lhs2 + slack))
    if bad.size:
        i = bad[0]
        raise ConstructionFailed(f"relaxed inequality fails at eps={eps}", (X[i], Y[i], Z[i]))


# bounds of the cube whose Halton triples re-verify euclidean relaxed constants
RELAXED_BOX = (-1.0, 1.0)


def relaxed_constants(cost: CostSpec, eps: float, dim: int = 2) -> RelaxedConstants:
    """Constants (A_eps, C_eps) for c(x,y) <= A_eps + (1+eps) c(x,z) + C_eps c(y,z).

    For subadditive costs the pair (0, 1) is returned; for convex
    translation costs the doubling construction C_eps = B**(k+1) with the
    smallest k making 2**(-k) B < eps; for finite_matrix tables the exact
    sup is enumerated in slabs of x (a metric power on a finite space
    enters as ``CostSpec.finite_matrix(space.rho ** p)``).  The result is always
    re-verified on DEFAULT_GRID_SIZE Halton triples of the cube
    RELAXED_BOX**dim (or all triples of a finite space) and a violation
    raises ``ConstructionFailed`` with the witness triple.
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

    if cost.kind == "translation":
        dim = cost.g_dim
    pts = halton_sample(DEFAULT_GRID_SIZE, 3 * dim, *RELAXED_BOX)
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
    finite space enters as ``CostSpec.finite_matrix(space.rho ** p)``,
    which takes integer points only.  A norm or translation cost scores
    integer points as points of the line.  Pairs (x, y) of the sample are
    scored in one table.  Each euclidean x is then stepped by 2**-k u,
    k = 0..16, along every axis u and the diagonal, and c(x, x + h u) and
    c(x + h u, x), each scored for all x, u and h in one array, must fall
    to 0 without rising by more than 1e-12 a step.
    """
    if not sample:
        raise ValueError("sample must be nonempty")
    finite_points = isinstance(sample[0], (int, np.integer))
    if finite_points and cost.kind == "metric_power":
        raise SpaceMismatch("metric_power cannot score finite-space indices; "
                            "pass finite_matrix(rho ** p)")
    if finite_points:
        idx = np.array([int(x) for x in sample])
        same = idx[:, None] == idx[None, :]
    if cost.kind == "finite_matrix":
        if not finite_points:
            raise SpaceMismatch("finite_matrix scores finite-space indices; "
                                "pass integer sample points")
        table = cost.values[np.ix_(idx, idx)]
    else:
        pts = [np.atleast_1d(np.asarray(x, dtype=float)) for x in sample]
        if len({p.shape for p in pts}) > 1:
            raise SpaceMismatch("points have different dimensions")
        P = np.array(pts)
        table = cost.pair_matrix(P, P)
        if not finite_points:
            same = np.isclose(P[:, None, :], P[None, :, :], atol=1e-12).all(axis=-1)

    failures = []
    bad = (same & (np.abs(table) > 1e-12)) | (~same & (table <= 1e-12))
    for i, j in np.argwhere(bad):
        kind = "nonzero_on_diagonal" if same[i, j] else "zero_off_diagonal"
        failures.append((kind, sample[i], sample[j], float(table[i, j])))

    if not finite_points:
        d = P.shape[1]
        dirs = np.vstack([np.eye(d), np.ones(d) / math.sqrt(d)])
        hs = 2.0 ** -np.arange(0, 17)
        X = P[:, None, None, :]
        moved = X + hs[None, None, :, None] * dirs[None, :, None, :]  # (x, u, h, d)
        tracks = (("forward", cost._pair_costs(X, moved)),
                  ("backward", cost._pair_costs(moved, X)))
        rising = {name: (track[..., 1:] > track[..., :-1] + 1e-12).any(axis=-1)
                  for name, track in tracks}
        lingering = {name: track[..., -1] > 1e-9 for name, track in tracks}
        for i, xv in enumerate(P):
            for k, u in enumerate(dirs):
                for name, _ in tracks:
                    if rising[name][i, k]:
                        failures.append(("not_monotone", name, tuple(xv), tuple(u)))
                    if lingering[name][i, k]:
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


# cost kind -> the keys besides ``kind`` and ``declared_constants``
_COST_KEYS = {"metric_power": ("p",), "norm_power": ("p",), "finite_matrix": ("values",)}


def cost_from_json(obj: dict) -> CostSpec:
    kind = obj.get("kind")
    if kind not in _COST_KEYS:
        raise ValueError(f"unknown cost kind {kind!r}")
    json_keys(obj, ("kind", "declared_constants", *_COST_KEYS[kind]), f"{kind} cost")
    declared = obj.get("declared_constants")
    if declared is not None:
        json_field(obj, "declared_constants", "object", "cost")
        json_keys(declared, ("A", "B", "q", "q0"), "declared_constants")
        for key in ("A", "B", "q", "q0"):
            if key in declared or key == "B":  # B is required, the others optional
                json_field(declared, key, "number", "declared_constants")
    if kind == "metric_power":
        return CostSpec.metric_power(float(json_field(obj, "p", "number", "cost")),
                                     declared=declared)
    if kind == "norm_power":
        return CostSpec.norm_power(float(json_field(obj, "p", "number", "cost")),
                                   declared=declared)
    return CostSpec.finite_matrix(json_field(obj, "values", "numbers", "cost"),
                                  declared=declared)
