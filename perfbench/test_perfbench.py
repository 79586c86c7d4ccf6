"""Tests of the benchmark itself (not part of the package test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

They check that inputs follow the seed, that the output checks reject a
tampered plan, that per-layer counts repeat exactly between two traced runs
of one seed, and that the benchmark fails without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _tree(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(tmp_path, workload):
    a = workloads.generate(workload, 3, tmp_path / "a")
    b = workloads.generate(workload, 3, tmp_path / "b")
    c = workloads.generate(workload, 4, tmp_path / "c")
    assert a == b
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


def test_northwest_cost_matches_brute_force_on_tiny_line():
    rng = np.random.default_rng(0)
    x, y = rng.uniform(size=3), rng.uniform(size=3)
    # with equal uniform weights the optimum is the best of the 3! matchings
    best = min(np.mean(np.abs(x - y[list(p)]) ** 2)
               for p in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
    w = np.full(3, 1.0 / 3.0)
    assert checks.northwest_cost(x, w, y, w, 2.0) == pytest.approx(best, rel=1e-12)


def test_transport_check_rejects_a_tampered_plan(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from mkbary.cli import main

    rng = np.random.default_rng(1)
    for side in ("mu", "nu"):
        atoms = rng.uniform(size=(4, 1))
        atoms = atoms[workloads.canonical_order(atoms)]
        weights = rng.dirichlet(np.ones(4))
        (tmp_path / f"{side}.json").write_text(json.dumps(
            {"space": {"kind": "euclidean", "dim": 1}, "atoms": atoms.tolist(),
             "weights": weights.tolist()}))
    (tmp_path / "cost.json").write_text(json.dumps({"kind": "norm_power", "p": 2}))
    out = tmp_path / "out"
    out.mkdir()
    job = {"check": {"kind": "transport", "space": "euclidean", "p": 2.0, "mu": "mu.json",
                     "nu": "nu.json", "line": True}}
    buf = StringIO()
    with redirect_stdout(buf):
        rc = main(["transport", str(tmp_path / "mu.json"), str(tmp_path / "nu.json"),
                   str(tmp_path / "cost.json"), "--plan", str(out / "plan.json"),
                   "--out-dir", str(out)])
    assert rc == 0
    assert checks.check_job(job, tmp_path, out, buf.getvalue()) == (None, None)

    plan = json.loads((out / "plan.json").read_text())
    x = np.asarray(plan["coupling"])
    i, j = np.argwhere(x > 1e-3)[0]
    x[i, j] -= 1e-3
    x[i, (j + 1) % 4] += 1e-3
    plan["coupling"] = x.tolist()
    (out / "plan.json").write_text(json.dumps(plan))
    reason, _ = checks.check_job(job, tmp_path, out, buf.getvalue())
    assert reason is not None


def _traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_between_traced_runs(workload, tmp_path):
    first, second = _traced_run(workload, 5), _traced_run(workload, 5)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    counts = [name for name, _, kind in tracer.METRICS if kind == "count"]
    assert set(counts) <= set(first["metrics"])
    mismatched = [name for name in counts
                  if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
    assert mismatched == []
    assert first["metrics"]["transport.lp_calls"]["value"] > 0
    jobs = workloads.generate(workload, 5, tmp_path)["jobs"]
    assert first["metrics"]["cli.calls"]["value"] == len(jobs)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "property-suites",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
