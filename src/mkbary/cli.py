"""Batch command-line entry point.

Subcommands: ``transport`` (cost between two measure files), ``barycenter``
(solve a problem file), ``verify`` (run a property suite), ``constants``
(print growth constants for a cost file).  Every run validates its inputs
before computing, writes primary outputs deterministically, and leaves one
``manifest.json`` next to them.

Exit codes: 0 success / suite pass, 1 suite fail, 2 parse error,
3 numerical error, 4 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .barycenter import (
    barycenter_fixed_support,
    barycenter_free_support,
    barycenter_quantile_1d,
    problem_from_json,
    result_to_json,
)
from .costs import cost_from_json, growth_constants
from .errors import MKError, NumericalFailure
from .measures import measure_from_json
from .transport import plan_to_json, solve_transport
from .verify import run_suite


class UsageError(Exception):
    pass


class ParseError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _write_manifest(out_dir: Path, subcommand: str, inputs: list, outputs: list,
                    config: dict, started: float) -> None:
    manifest = {
        "subcommand": subcommand,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "config": config,
        "versions": {
            "mkbary": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": time.time() - started,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def cmd_transport(args) -> int:
    started = time.time()
    mu = measure_from_json(_load_json(args.mu))
    nu = measure_from_json(_load_json(args.nu))
    cost = cost_from_json(_load_json(args.cost))
    plan = solve_transport(mu, nu, cost)
    outputs = []
    if args.plan:
        with open(args.plan, "w") as fh:
            json.dump(plan_to_json(plan), fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs.append(args.plan)
    print(_fmt(plan.objective))
    _write_manifest(Path(args.out_dir), "transport", [args.mu, args.nu, args.cost],
                    outputs, {"plan": args.plan}, started)
    return 0


def cmd_barycenter(args) -> int:
    started = time.time()
    problem = problem_from_json(_load_json(args.problem))
    method = args.method
    if method is None:
        method = {"simplex_over": "fixed", "fixed_support": "fixed",
                  "free": "free", "quantile_1d": "quantile1d"}[problem.constraint.kind]
    if method == "quantile1d":
        if problem.space.kind != "euclidean" or problem.space.dim != 1:
            raise UsageError("--method quantile1d needs one-dimensional measures")
        result = barycenter_quantile_1d(problem)
    elif method == "free":
        result = barycenter_free_support(problem, init_seed=args.seed)
    elif method == "fixed":
        if problem.constraint.kind not in ("simplex_over", "fixed_support"):
            raise UsageError("--method fixed needs a candidate atom set in the problem file")
        result = barycenter_fixed_support(problem)
    else:
        raise UsageError(f"unknown method {method!r}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "barycenter.json"
    with open(out_path, "w") as fh:
        json.dump(result_to_json(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(_fmt(result.objective))
    _write_manifest(out_dir, "barycenter", [args.problem], [out_path],
                    {"method": method, "seed": args.seed}, started)
    return 0


def cmd_verify(args) -> int:
    started = time.time()
    config = _load_json(args.config) if args.config else {}
    if args.seed is not None:
        config.setdefault("seed", args.seed)
    result = run_suite(args.suite, config, jobs=args.jobs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{result.name}.csv"
    with open(csv_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(result.columns)
        for row in result.rows:
            wr.writerow([repr(v) if isinstance(v, float) else v for v in row])
    summary_path = out_dir / f"{result.name}_summary.json"
    with open(summary_path, "w") as fh:
        json.dump({"suite": result.name, "passed": result.passed,
                   "summary": result.summary}, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    print(f"{result.name}: {'PASS' if result.passed else 'FAIL'}")
    _write_manifest(out_dir, "verify", [args.config] if args.config else [],
                    [csv_path, summary_path], config, started)
    return 0 if result.passed else 1


def cmd_constants(args) -> int:
    started = time.time()
    cost = cost_from_json(_load_json(args.cost))
    gc = growth_constants(cost)
    print(json.dumps(
        {"A": gc.A, "B": gc.B, "q": gc.q, "q0": gc.q0, "provenance": gc.provenance},
        indent=2, sort_keys=True,
    ))
    _write_manifest(Path(args.out_dir), "constants", [args.cost], [], {}, started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mkbary")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transport", help="transport cost between two measures")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("cost")
    p.add_argument("--plan", default=None, help="write the optimal plan JSON here")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("barycenter", help="solve a barycenter problem file")
    p.add_argument("problem")
    p.add_argument("--method", choices=["fixed", "free", "quantile1d"], default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_barycenter)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite", choices=["convexity", "triangle", "q-triangle",
                                     "criterion", "lln", "perturb"])
    p.add_argument("--config", default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: suites run in one thread")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("constants", help="print growth constants for a cost file")
    p.add_argument("cost")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_constants)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 4
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (MKError, ValueError, KeyError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
