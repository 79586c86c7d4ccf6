"""End-to-end and per-layer benchmark of the ``mkbary`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run writes the workload's inputs for
the seed, then times passes one after another, each in a fresh child
interpreter (``pass_child.py``), until the next pass would end after
``--seconds``; it makes at least ``MIN_PASSES`` passes.  A fresh process
per pass means no program state survives from one pass to the next, as
for a user who pays a cold process on every CLI call.

With ``--trace 0`` it reports the end-to-end metrics as medians over the
passes (``peak_rss_mb`` as the largest).  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones; ``trace.overhead_s`` is the traced minus the untraced median wall
time, and every count must repeat exactly between traced passes.

The last line of standard output is the result object.  A fuller record
(provenance, rationale, per-pass figures, CSV digests) goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = {0: 3, 1: 4}
PASS_TIMEOUT_S = 150.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "max_job_s": "s"}


class PassFailed(Exception):
    """A pass died before it could report; this is not a failed job."""


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _run_pass(work: Path, index: int, traced: bool) -> dict:
    out_dir = work / f"pass-{index}"
    result_path = work / f"pass-{index}.json"
    stderr_path = work / f"pass-{index}.stderr"
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "pass_child.py"), "--root", str(ROOT), "--inputs", str(work / "inputs"),
            "--out", str(out_dir), "--result", str(result_path)]
    if traced:
        cmd.append("--trace")
    # a fixed hash seed keeps set and dict order the same in every pass
    env = dict(os.environ, PYTHONHASHSEED="0")
    with open(stderr_path, "w") as err:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=err, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise PassFailed(f"pass {index} did not end within {PASS_TIMEOUT_S} s") from exc
    stderr = stderr_path.read_text()
    if proc.returncode != 0 or not result_path.is_file():
        raise PassFailed(f"pass {index} exited with {proc.returncode}:\n{stderr[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready_monotonic"] - spawned
    result["traced"] = traced
    if traced:
        result["costs_import_s"] = _cumulative_import_s(stderr, "mkbary.costs")
    shutil.rmtree(out_dir)
    return result


def _cumulative_import_s(stderr: str, module: str):
    """Cumulative import time of ``module`` from ``-X importtime`` output."""
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == module:
            return int(line.split("|")[1]) / 1e6
    return None


def _check_digests(passes: list, key_prefix: str) -> None:
    """Mark a job failed when its CSV digest differs between passes or runs.

    Digests of earlier runs are kept per source tree, workload, seed and job
    in ``results/digests.json``.
    """
    store_path = HERE / "results" / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    for job_index, job in enumerate(passes[0]["jobs"]):
        key = f"{key_prefix}/{job['id']}"
        digests = [p["jobs"][job_index]["digest"] for p in passes]
        if any(d is None for d in digests) or job["failure"] is not None:
            continue
        expected = store.setdefault(key, digests[0])
        for p, digest in zip(passes, digests):
            if digest != expected:
                p["jobs"][job_index]["failure"] = (
                    f"CSV digest {digest[:12]} differs from {expected[:12]} of an earlier pass or run")
    store_path.parent.mkdir(exist_ok=True)
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, store_path)


def _end_to_end(passes: list) -> dict:
    values = {
        "setup_s": statistics.median([p["setup_s"] for p in passes]),
        "wall_s": statistics.median([p["wall_s"] for p in passes]),
        "cpu_s": statistics.median([p["cpu_s"] for p in passes]),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "max_job_s": statistics.median([max(j["seconds"] for j in p["jobs"]) for p in passes]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _per_layer(untraced: list, traced: list):
    """Per-layer metrics and the list of counts that did not repeat."""
    units = {name: unit for name, unit, _ in tracer.METRICS}
    kinds = {name: kind for name, _, kind in tracer.METRICS}
    layers = [p["layers"] for p in traced]
    values = {}
    mismatched = []
    for name in layers[0]:
        seen = [layer[name] for layer in layers]
        if kinds[name] == "count":
            if any(v != seen[0] for v in seen):
                mismatched.append(name)
            values[name] = seen[0]
        else:
            values[name] = statistics.median(seen)
    values["cli.import_s"] = statistics.median([p["import_s"] for p in untraced])
    imports = [p["costs_import_s"] for p in traced if p["costs_import_s"] is not None]
    if imports:
        values["costs.import_s"] = statistics.median(imports)
    traced_wall = statistics.median([p["wall_s"] for p in traced])
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median([p["wall_s"] for p in untraced])
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name, _, _ in tracer.METRICS if name in values}
    return metrics, mismatched


def run(workload: str, seed: int, seconds: float, trace: int):
    """Make the passes of one run; returns (result line, full record)."""
    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        workloads.generate(workload, seed, work / "inputs")
        passes = []
        started = time.monotonic()
        # a traced run makes untraced/traced pairs, so it looks a pair ahead
        step = 1 + trace
        while True:
            traced = trace == 1 and len(passes) % 2 == 1
            t = time.monotonic()
            passes.append(_run_pass(work, len(passes), traced))
            last = time.monotonic() - t
            if (len(passes) >= MIN_PASSES[trace] and len(passes) % step == 0
                    and time.monotonic() - started + step * last > seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    key_prefix = f"{_source_hash()}/{workload}/{seed}"
    _check_digests(passes, key_prefix)
    attempted = sum(len(p["jobs"]) for p in passes)
    failures = [(i, j["id"], j["failure"]) for i, p in enumerate(passes)
                for j in p["jobs"] if j["failure"] is not None]
    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    mismatched = []
    if trace:
        metrics, mismatched = _per_layer(untraced, traced_passes)
    else:
        metrics = _end_to_end(passes)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "why": workloads.WHY[workload], "predictions": workloads.PREDICTIONS,
        "provenance": passes[0]["provenance"], "source_hash": key_prefix.split("/")[0],
        "passes": [{k: p.get(k) for k in ("traced", "setup_s", "import_s", "wall_s", "cpu_s",
                                          "peak_rss_mb", "jobs", "layers", "has_highs")}
                   for p in passes],
        "failures": failures, "count_mismatches": mismatched,
    }
    result = {"correct": not failures and not mismatched, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record["result"] = result
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    with open(results_dir / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result, record = run(args.workload, args.seed, args.seconds, args.trace)
    except PassFailed as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1
    for i, job_id, reason in record["failures"]:
        print(f"failed job {job_id} in pass {i}: {reason}", file=sys.stderr)
    if record["count_mismatches"]:
        print(f"counts differ between traced passes: {record['count_mismatches']}",
              file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"], "why": record["why"],
                      "passes": len(record["passes"])}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
