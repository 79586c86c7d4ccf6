"""Batch command-line entry point.

Subcommands: ``transport`` (cost between two measure files), ``barycenter``
(solve a problem file), ``verify`` (run a property suite), ``constants``
(print growth constants for a cost file).  ``main`` checks that
``--out-dir`` can be written before any input is read; the subcommand
validates its inputs before computing and writes its primary outputs
deterministically; then ``main`` leaves one ``manifest.json`` next to them.
A run that raises writes no manifest.

Exit codes: 0 success / suite pass, 1 suite fail, 2 parse error (input
validation, including JSON of the wrong type), 3 numerical error (a
solver's certificate or marginal check failed, or a growth-constant
computation hit an unbounded ratio or a failed construction), 4 usage
error (an ``--out-dir`` or ``--plan`` that cannot be written among them).

``transport`` reads its two measure files member by member with the
scanner ``json.loads`` uses (``_walk``).  A second file whose "space" value
repeats the first file's text takes the first file's decoded object, so a
shared finite space is decoded once, and ``measures_from_json`` validates it
once.  A file that is not one well-formed JSON object is read by
``json.loads``, whose error the parse error quotes.

``barycenter`` runs the route of the problem file's constraint kind;
``--method``, when given, must name that route, and ``--seed`` (the
start of the ``free`` route's atom pick) is for that route alone.
``verify --seed`` sets the suite's ``seed``: it is a usage error for a
suite without one and next to a config that sets it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .barycenter import (
    FREE_INIT_SEED,
    barycenter_fixed_support,
    barycenter_free_support,
    barycenter_quantile_1d,
    problem_from_json,
    result_to_json,
)
from .costs import cost_from_json, growth_constants
from .errors import (
    CertificateViolation,
    ConstructionFailed,
    MarginalMismatch,
    MKError,
    NotConvexCost,
    NotOneDimensional,
    NumericalFailure,
    UnboundedRatio,
)
from .measures import json_name, measures_from_json
from .transport import _plan_fields, solve_transport
from .verify import DEFAULTS, SUITES, run_suite


class UsageError(Exception):
    pass


class ParseError(Exception):
    pass


# the ``--method`` name of the route for each constraint kind
METHODS = {"simplex_over": "fixed", "free": "free", "quantile_1d": "quantile1d"}


def _load_json(path: str) -> dict:
    """The JSON object in ``path``; any other file is a ParseError."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: the top level must be a JSON object, not {json_name(obj)}")
    return obj


_DECODER = json.JSONDecoder()
_WHITESPACE = json.decoder.WHITESPACE.match


def _walk(text: str, shared: tuple) -> Optional[tuple]:
    """``json.loads(text)`` of a top-level object, and the raw text of its "space" value.

    The members are read one at a time by the scanner ``json.loads`` uses, so
    the object is the same, duplicate keys and escapes included.  A "space"
    value whose text starts with ``shared[0]``, the raw text of an earlier
    file's "space" value, is taken as its decoded ``shared[1]`` instead of
    decoded again: a JSON value ends where its text does, and a number or
    literal that runs on fails the separator test below.  Returns None where
    ``text`` is not one well-formed object.
    """
    obj, raw = {}, ""
    try:
        i = _WHITESPACE(text, 0).end()
        if text[i:i + 1] != "{":
            return None
        i = _WHITESPACE(text, i + 1).end()
        while text[i:i + 1] != "}":
            if text[i:i + 1] != '"':
                return None
            key, i = _DECODER.scan_once(text, i)
            i = _WHITESPACE(text, i).end()
            if text[i:i + 1] != ":":
                return None
            i = _WHITESPACE(text, i + 1).end()
            if key == "space" and shared[0] and text.startswith(shared[0], i):
                obj[key], end = shared[1], i + len(shared[0])
            else:
                obj[key], end = _DECODER.scan_once(text, i)
            if key == "space":
                raw = text[i:end]
            i = _WHITESPACE(text, end).end()
            if text[i:i + 1] == ",":
                i = _WHITESPACE(text, i + 1).end()
                if text[i:i + 1] != '"':  # a trailing comma
                    return None
            elif text[i:i + 1] != "}":
                return None
    except (json.JSONDecodeError, StopIteration):  # scan_once raises StopIteration on no value
        return None
    if _WHITESPACE(text, i + 1).end() != len(text):
        return None
    return obj, raw


def _load_measure_files(paths) -> list:
    """The JSON objects in the measure files ``paths``, read in order as by ``_load_json``.

    A file that repeats the first file's "space" text is decoded once (``_walk``), and
    ``measures_from_json`` then finds the decoded spaces equal at once.
    """
    objs, shared = [], ("", None)
    for path in paths:
        try:
            with open(path) as fh:
                walked = _walk(fh.read(), shared)
        except OSError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        # a file that is not one well-formed object: _load_json reports it
        obj, raw = walked if walked is not None else (_load_json(path), "")
        if not objs:
            shared = (raw, obj.get("space"))
        objs.append(obj)
    return objs


def _write_json(path: Path, obj) -> None:
    """``obj`` as indented JSON with sorted keys and a newline; creates the directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _check_writable(flag: str, path: str, out_dir: str = ".") -> None:
    """Fail before any solve if ``path`` cannot be written; creates nothing.

    ``--out-dir`` may not exist yet: its nearest existing ancestor must be a
    writable directory.  ``--plan`` must lie in an existing directory or in
    ``out_dir``, which ``main`` has checked and the run makes.
    """
    target = Path(path)
    if flag == "--out-dir":
        # os.path.exists, unlike Path.exists, is False when a search is denied
        while not os.path.exists(target) and target != target.parent:
            target = target.parent
        if not (target.is_dir() and os.access(target, os.W_OK)):
            raise UsageError(f"cannot write {flag}: {str(target)!r} is not a writable directory")
    elif not target.parent.is_dir():
        if os.path.abspath(target.parent) != os.path.abspath(out_dir):
            raise UsageError(f"cannot write {flag}: directory {str(target.parent)!r} "
                             "does not exist")
    elif target.is_dir() or not os.access(target if target.exists() else target.parent, os.W_OK):
        raise UsageError(f"cannot write {flag}: {path!r} is not writable")


def _write_plan(fh, plan) -> None:
    """Write ``json.dumps(plan_to_json(plan), sort_keys=True)`` and a newline.

    The coupling is encoded one row at a time, so neither its m*n floats as
    Python objects nor their whole text are held at once.  "coupling" sorts
    first among the keys.  ``json`` writes a finite float by
    ``float.__repr__``; a plan is mostly +0.0, so those entries are written
    as "0.0" and only the rest (-0.0 included) go through ``float.__repr__``.
    """
    fields = json.dumps(_plan_fields(plan), sort_keys=True)
    fh.write('{"coupling": [')
    for i, row in enumerate(plan.coupling):
        if i:
            fh.write(", ")
        text = ["0.0"] * len(row)
        for j in np.flatnonzero((row != 0.0) | np.signbit(row)).tolist():
            text[j] = float.__repr__(row[j])
        fh.write("[" + ", ".join(text) + "]")
    fh.write("], " + fields[1:] + "\n")


def cmd_transport(args) -> tuple:
    mu, nu = measures_from_json(_load_measure_files([args.mu, args.nu]))
    cost = cost_from_json(_load_json(args.cost))
    if args.plan:
        _check_writable("--plan", args.plan, args.out_dir)
    plan = solve_transport(mu, nu, cost)
    outputs = []
    if args.plan:
        try:
            Path(args.out_dir).mkdir(parents=True, exist_ok=True)  # the plan may lie in it
            fh = open(args.plan, "w")
        except OSError as exc:
            raise UsageError(f"cannot write --plan: {exc}") from exc
        with fh:
            _write_plan(fh, plan)
        outputs.append(args.plan)
    print(_fmt(plan.objective))
    return 0, [args.mu, args.nu, args.cost], outputs, {"plan": args.plan}


def cmd_barycenter(args) -> tuple:
    if args.seed is not None and args.seed < 0:
        raise ParseError(f"--seed must be at least 0, not {args.seed}")
    problem = problem_from_json(_load_json(args.problem))
    kind = problem.constraint.kind
    method = METHODS[kind]
    if args.method not in (None, method):
        raise UsageError(f"--method {args.method} does not solve the problem file's "
                         f"{kind} constraint; its route is {method}")
    config = {"method": method}
    if kind == "free":
        config["seed"] = FREE_INIT_SEED if args.seed is None else args.seed
        result = barycenter_free_support(problem, init_seed=config["seed"])
    elif args.seed is not None:
        raise UsageError(f"--seed {args.seed}: the {method} route of the problem file's "
                         f"{kind} constraint draws nothing; only the free route takes a seed")
    elif kind == "quantile_1d":
        result = barycenter_quantile_1d(problem)
    else:
        result = barycenter_fixed_support(problem)
    out_path = Path(args.out_dir) / "barycenter.json"
    _write_json(out_path, result_to_json(result))
    print(_fmt(result.objective))
    return 0, [args.problem], [out_path], config


def cmd_verify(args) -> tuple:
    config = _load_json(args.config) if args.config else {}
    if args.seed is not None:
        if "seed" not in DEFAULTS[args.suite]:
            raise UsageError(f"--seed {args.seed}: {args.suite} reads no 'seed'; its keys are "
                             f"{', '.join(map(repr, sorted(DEFAULTS[args.suite])))}")
        if "seed" in config:
            raise UsageError(f"--seed {args.seed}: {args.config} already sets seed "
                             f"{config['seed']!r}; give the seed in one place")
        config["seed"] = args.seed
    result = run_suite(args.suite, config)
    out_dir = Path(args.out_dir)
    csv_path = out_dir / f"{result.name}.csv"
    summary_path = out_dir / f"{result.name}_summary.json"
    # the summary goes first: its writer makes the out dir
    _write_json(summary_path, {"suite": result.name, "passed": result.passed,
                               "summary": result.summary})
    with open(csv_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(result.columns)
        for row in result.rows:
            wr.writerow([repr(v) if isinstance(v, float) else v for v in row])
    print(f"{result.name}: {'PASS' if result.passed else 'FAIL'}")
    inputs = [args.config] if args.config else []
    return (0 if result.passed else 1), inputs, [csv_path, summary_path], config


def cmd_constants(args) -> tuple:
    gc = growth_constants(cost_from_json(_load_json(args.cost)))
    print(json.dumps(
        {"A": gc.A, "B": gc.B, "q": gc.q, "q0": gc.q0, "provenance": gc.provenance},
        indent=2, sort_keys=True,
    ))
    return 0, [args.cost], [], {}


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
    p.add_argument("--method", choices=list(METHODS.values()), default=None,
                   help="optional; must name the route of the file's constraint")
    p.add_argument("--seed", type=int, default=None,
                   help=f"the free route's start seed (default {FREE_INIT_SEED}); "
                        "no other route takes one")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_barycenter)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite", choices=list(SUITES))
    p.add_argument("--config", default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: suites run in one thread")
    p.add_argument("--seed", type=int, default=None,
                   help="the suite's seed, for a suite that has one and a config "
                        "that does not set it")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("constants", help="print growth constants for a cost file")
    p.add_argument("cost")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_constants)
    return parser


def main(argv=None) -> int:
    """Check ``--out-dir``, run the subcommand and, unless it raised, write its manifest."""
    started = time.time()
    args = build_parser().parse_args(argv)
    try:
        _check_writable("--out-dir", args.out_dir)
        code, inputs, outputs, config = args.func(args)
        _write_json(Path(args.out_dir) / "manifest.json", {
            "subcommand": args.command,
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
        })
        return code
    except (UsageError, NotConvexCost, NotOneDimensional) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 4
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, CertificateViolation, MarginalMismatch, UnboundedRatio,
            ConstructionFailed) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (MKError, ValueError, KeyError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
