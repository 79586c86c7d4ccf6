"""One timed pass of a workload, run in a fresh interpreter by ``run.py``.

Steps, in order: import ``mkbary.cli``; load the job list and read every
input file; make one untimed warm-up call on inputs no job uses; time the
job list once through ``mkbary.cli.main``; check every output.  The pass
writes what it measured to the ``--result`` file.

    python3 perfbench/pass_child.py --root ROOT --inputs DIR --out DIR --result FILE [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def _run_cli(main, argv):
    buf = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc, error = exc.code, f"SystemExit({exc.code!r})"
    except Exception as exc:  # a job that raises is a failed job, not a failed pass
        rc, error = None, repr(exc)
    return rc, buf.getvalue(), error


def _provenance(np, scipy) -> dict:
    """Library versions, CPU count and OpenBLAS thread count of this interpreter."""
    import ctypes
    import platform

    try:
        from scipy.optimize._highspy import _core
        highs = f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}.{_core.HIGHS_VERSION_PATCH}"
    except (ImportError, AttributeError):
        highs = None
    threads = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no /proc: the thread count stays unrecorded
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads[Path(lib).name] = int(getattr(handle, symbol)())
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "highs": highs, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "openblas_threads": threads,
            "machine": platform.machine()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    root, in_dir, out_dir = Path(args.root), Path(args.inputs), Path(args.out)

    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import mkbary.cli as cli
    import_s = time.perf_counter() - t0
    src = (root / "src" / "mkbary").resolve()
    if Path(cli.__file__).resolve().parent != src:
        raise SystemExit(f"imported mkbary from {cli.__file__}, expected {src}")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    with open(in_dir / "jobs.json") as fh:
        spec = json.load(fh)
    for path in sorted(in_dir.iterdir()):
        path.read_bytes()  # the timed jobs then read from the page cache

    def fill(argv, job_out):
        return [a.replace("{in}", str(in_dir)).replace("{out}", str(job_out)) for a in argv]

    warm_out = out_dir / "warmup"
    warm_out.mkdir(parents=True)
    rc, stdout, error = _run_cli(cli.main, fill(spec["warmup"], warm_out))
    if rc != 0:
        raise SystemExit(f"warm-up call failed: rc={rc} {error or stdout}")

    jobs = spec["jobs"]
    argvs = []
    for job in jobs:
        job_out = out_dir / job["id"]
        job_out.mkdir(parents=True)
        argvs.append(fill(job["argv"], job_out))
    if tracer is not None:
        tracer.reset()
    ready = time.monotonic()

    runs = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for argv in argvs:
        start = time.perf_counter()
        rc, stdout, error = _run_cli(cli.main, argv)
        runs.append((time.perf_counter() - start, rc, stdout, error))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from checks import check_job

    results = []
    for job, (seconds, rc, stdout, error) in zip(jobs, runs):
        digest = None
        if error is not None:
            reason = error
        elif rc != 0:
            reason = f"exit code {rc}"
        else:
            try:
                reason, digest = check_job(job, in_dir, out_dir / job["id"], stdout)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"output unreadable: {exc!r}"
        results.append({"id": job["id"], "seconds": seconds, "rc": rc,
                        "failure": reason, "digest": digest})

    import numpy
    import scipy

    out = {"import_s": import_s, "ready_monotonic": ready, "wall_s": wall, "cpu_s": cpu,
           "peak_rss_mb": peak_rss_mb, "jobs": results,
           "provenance": _provenance(numpy, scipy)}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["has_highs"] = tracer.has_highs
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
