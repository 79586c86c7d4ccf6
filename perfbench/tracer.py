"""Outside-in tracing of the ``mkbary`` layers for the traced benchmark pass.

``Tracer.install`` wraps every public function of each ``mkbary`` module in
every module that holds a reference to it (``consistency`` and ``topology``
import ``solve_lp_matrix`` by name, ``verify.SUITES`` keeps the suite
functions in a dict), plus the cost-matrix methods of ``CostSpec`` and
``GroundSpace`` construction.  ``linprog`` is wrapped separately in
``mkbary.transport`` and ``mkbary.barycenter`` so that LP time is charged to
the module that called it, and scipy's private ``_highs_wrapper`` is wrapped
to split HiGHS from the rest of ``linprog``.  Nothing under ``src/`` changes.

A span covers one wrapped call.  A layer's self time is the sum of its spans'
durations minus the time their child spans cover; its inclusive time sums
only the outermost spans of that layer.  ``<layer>.calls`` counts calls into
the layer from outside it.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "verify", "consistency", "topology", "barycenter", "transport",
          "costs", "measures")

# (name, unit, kind): kind "count" must repeat exactly between traced passes
# of one seed; kind "time" is reported as the median over traced passes.
METRICS = [
    ("cli.calls", "count", "count"),
    ("cli.self_s", "s", "time"),
    ("cli.import_s", "s", "time"),
    ("costs.import_s", "s", "time"),
    ("costs.matrix_calls", "count", "count"),
    ("costs.matrix_s", "s", "time"),
    ("costs.growth_constants_calls", "count", "count"),
    ("costs.growth_constants_s", "s", "time"),
    ("measures.canonicalize_calls", "count", "count"),
    ("measures.s", "s", "time"),
    ("transport.solve_calls", "count", "count"),
    ("transport.lp_calls", "count", "count"),
    ("transport.linprog_calls", "count", "count"),
    ("transport.trivial_share", "ratio", "count"),
    ("transport.repeat_share", "ratio", "count"),
    ("transport.lp_vars", "count", "count"),
    ("transport.dense_bytes_peak", "bytes_computed", "count"),
    ("transport.self_s", "s", "time"),
    ("transport.linprog_wrapper_s", "s", "time"),
    ("transport.highs_s", "s", "time"),
    ("transport.highs_iterations", "count", "count"),
    ("transport.basic_ratio", "ratio", "count"),
    ("barycenter.calls", "count", "count"),
    ("barycenter.self_s", "s", "time"),
    ("barycenter.lp_calls", "count", "count"),
    ("barycenter.lp_useful_ratio", "ratio", "count"),
    ("barycenter.linprog_wrapper_s", "s", "time"),
    ("barycenter.highs_s", "s", "time"),
    ("barycenter.highs_iterations", "count", "count"),
    ("barycenter.pinned_lp_failures", "count", "count"),
    ("barycenter.free_iterations", "count", "count"),
    ("topology.calls", "count", "count"),
    ("topology.s", "s", "time"),
    ("consistency.calls", "count", "count"),
    ("consistency.self_s", "s", "time"),
    ("consistency.lln_holes", "count", "count"),
    ("verify.calls", "count", "count"),
    ("verify.self_s", "s", "time"),
    ("trace.overhead_s", "s", "time"),
    ("trace.wall_s", "s", "time"),
]

_METHODS = {"costs": ("CostSpec", ("matrix", "pair_matrix")),
            "measures": ("GroundSpace", ("__post_init__",))}


class Tracer:
    def __init__(self):
        self.has_highs = False
        self._stack = []
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (called after the warm-up)."""
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)
        self.outer_calls = defaultdict(int)
        self.calls = defaultdict(int)
        self.n = defaultdict(float)
        self._seen = set()

    # -- spans --------------------------------------------------------------
    def _enter(self, layer: str, name: str) -> list:
        outer = all(frame[0] != layer for frame in self._stack)
        frame = [layer, name, outer, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[4]
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span stack out of order")
        layer, name, outer, child = frame[:4]
        self.self_s[layer] += duration - child
        self.calls[layer, name] += 1
        if outer:
            self.outer_s[layer] += duration
            self.outer_s[layer, name] += duration
            self.outer_calls[layer] += 1
            self.outer_calls[layer, name] += 1
        if self._stack:
            self._stack[-1][3] += duration

    def wrap(self, layer: str, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = tracer._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _highs(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else ""
            owner = parent[: -len(".linprog")] if parent.endswith(".linprog") else "other"
            frame = tracer._enter(owner + ".highs", "_highs_wrapper")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    # -- counters at the layer boundaries -------------------------------------
    def _new_job(self, args, kwargs) -> None:
        self._seen = set()

    def _lp_before(self, args, kwargs) -> None:
        C, a, b = (np.ascontiguousarray(np.asarray(v, dtype=float)) for v in args[:3])
        m, n = C.shape
        key = hashlib.blake2b(repr(C.shape).encode() + C.tobytes() + a.tobytes()
                              + b.tobytes(), digest_size=16).digest()
        if key in self._seen:
            self.n["transport.repeats"] += 1
        self._seen.add(key)
        if m == 1 or n == 1:
            self.n["transport.trivial"] += 1
            return
        self.n["transport.lp_vars"] += m * n
        dense = (m + n - 1) * m * n * 8
        self.n["transport.dense_bytes_peak"] = max(self.n["transport.dense_bytes_peak"], dense)

    def _lp_after(self, args, kwargs, result) -> None:
        coupling = result[0]
        m, n = coupling.shape
        if m > 1 and n > 1:
            ratio = int(np.count_nonzero(coupling > 0.0)) / (m + n - 1)
            self.n["transport.basic_ratio"] = max(self.n["transport.basic_ratio"], ratio)

    def _linprog_after(self, owner: str):
        def after(args, kwargs, res) -> None:
            self.n[owner + ".highs_iterations"] += int(getattr(res, "nit", 0) or 0)
            if res.status != 0:
                self.n[owner + ".lp_failures"] += 1
        return after

    def _solver_after(self, args, kwargs, result) -> None:
        self.n["barycenter.useful_lps"] += 1 + (result.alt_measure is not None)

    def _free_after(self, args, kwargs, result) -> None:
        self._solver_after(args, kwargs, result)
        self.n["barycenter.free_iterations"] += len(result.trace)

    def _lln_after(self, args, kwargs, report) -> None:
        self.n["consistency.lln_holes"] += len(report.errors)

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        """Patch the loaded ``mkbary`` modules; call once, after ``import mkbary.cli``."""
        hooks = {
            ("cli", "main"): (self._new_job, None),
            ("transport", "solve_lp_matrix"): (self._lp_before, self._lp_after),
            ("barycenter", "barycenter_fixed_support"): (None, self._solver_after),
            ("barycenter", "barycenter_free_support"): (None, self._free_after),
            ("consistency", "lln_experiment"): (None, self._lln_after),
        }
        replace = {}
        for layer in LAYERS:
            module = sys.modules["mkbary." + layer]
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                before, after = hooks.get((layer, name), (None, None))
                replace[id(obj)] = self.wrap(layer, name, obj, before, after)
            if layer in _METHODS:
                cls_name, methods = _METHODS[layer]
                cls = getattr(module, cls_name)
                for method in methods:
                    setattr(cls, method, self.wrap(layer, method, getattr(cls, method)))

        modules = [m for key, m in sys.modules.items()
                   if key == "mkbary" or key.startswith("mkbary.")]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in replace:
                    setattr(module, name, replace[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in obj.items():
                        if id(v) in replace:
                            obj[k] = replace[id(v)]

        for owner in ("transport", "barycenter"):
            module = sys.modules["mkbary." + owner]
            module.linprog = self.wrap(owner + ".linprog", "linprog", module.linprog,
                                       after=self._linprog_after(owner))
        highs_module = sys.modules.get("scipy.optimize._linprog_highs")
        if highs_module is not None and hasattr(highs_module, "_highs_wrapper"):
            highs_module._highs_wrapper = self._highs(highs_module._highs_wrapper)
            self.has_highs = True

    # -- report ---------------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer values of this pass, keyed by metric name."""
        lp_calls = self.calls["transport", "solve_lp_matrix"]
        bary_lps = self.calls["barycenter.linprog", "linprog"]
        out = {
            "cli.calls": self.outer_calls["cli"],
            "cli.self_s": self.self_s["cli"],
            "costs.matrix_calls": (self.outer_calls["costs", "matrix"]
                                   + self.outer_calls["costs", "pair_matrix"]),
            "costs.matrix_s": (self.outer_s["costs", "matrix"]
                               + self.outer_s["costs", "pair_matrix"]),
            "costs.growth_constants_calls": self.outer_calls["costs", "growth_constants"],
            "costs.growth_constants_s": self.outer_s["costs", "growth_constants"],
            "measures.canonicalize_calls": self.calls["measures", "canonicalize"],
            "measures.s": self.outer_s["measures"],
            "transport.solve_calls": self.calls["transport", "solve_transport"],
            "transport.lp_calls": lp_calls,
            "transport.linprog_calls": self.calls["transport.linprog", "linprog"],
            "transport.trivial_share": self.n["transport.trivial"] / lp_calls if lp_calls else 0.0,
            "transport.repeat_share": self.n["transport.repeats"] / lp_calls if lp_calls else 0.0,
            "transport.lp_vars": int(self.n["transport.lp_vars"]),
            "transport.dense_bytes_peak": int(self.n["transport.dense_bytes_peak"]),
            "transport.self_s": self.self_s["transport"],
            "transport.highs_iterations": int(self.n["transport.highs_iterations"]),
            "transport.basic_ratio": self.n["transport.basic_ratio"],
            "barycenter.calls": self.outer_calls["barycenter"],
            "barycenter.self_s": self.self_s["barycenter"],
            "barycenter.lp_calls": bary_lps,
            "barycenter.lp_useful_ratio": (self.n["barycenter.useful_lps"] / bary_lps
                                           if bary_lps else 0.0),
            "barycenter.highs_iterations": int(self.n["barycenter.highs_iterations"]),
            "barycenter.pinned_lp_failures": int(self.n["barycenter.lp_failures"]),
            "barycenter.free_iterations": int(self.n["barycenter.free_iterations"]),
            "topology.calls": self.outer_calls["topology"],
            "topology.s": self.outer_s["topology"],
            "consistency.calls": self.outer_calls["consistency"],
            "consistency.self_s": self.self_s["consistency"],
            "consistency.lln_holes": int(self.n["consistency.lln_holes"]),
            "verify.calls": self.outer_calls["verify"],
            "verify.self_s": self.self_s["verify"],
        }
        if self.has_highs:
            for owner in ("transport", "barycenter"):
                out[owner + ".highs_s"] = self.self_s[owner + ".highs"]
                out[owner + ".linprog_wrapper_s"] = self.self_s[owner + ".linprog"]
        return out
