"""One benchmark process for one workload.

Modes:
  setup    import irsim and set the workload up, then stop (a set-up sample)
  measure  set up, then run the workload back to back for --seconds,
           checking every output
  trace    set up, then run the workload once under the per-layer tracer

Set-up is timed from the start of main(), so it includes importing irsim
and numpy.  The last stdout line is one JSON object.  run.py starts
this file in a fresh process with PYTHONPATH, IRS_SIM_THREADS and the BLAS
thread count set.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

MIN_RUNS = 2      # two runs with one seed are needed for the determinism check


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):      # numpy before 1.26 has no dict form
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "IRS_SIM_THREADS": os.environ.get("IRS_SIM_THREADS"),
    }


def measure(workload, run, seconds: float) -> dict:
    """Run back to back until the next run would end past the deadline."""
    walls, failures = [], []
    attempted = failed = 0
    first, result_db = None, None
    verdicts = {}                      # CSV text -> output-check failures
    begin = time.perf_counter()
    deadline = begin + seconds
    while True:
        attempted += 1
        start = time.perf_counter()
        try:
            out = run()
        except Exception as exc:       # a raising run is a failed run; keep measuring
            failed += 1
            failures.append(f"run {attempted} raised {exc!r}")
        else:
            walls.append(time.perf_counter() - start)
            if first is None:
                first, result_db = out.csv, workload.result_db(out)
            if out.csv not in verdicts:
                verdicts[out.csv] = workload.check(out)
            problems = list(verdicts[out.csv])
            if out.csv != first:
                problems.append(f"run {attempted}: CSV differs from run 1 with the same seed")
            if problems:
                failed += 1
                failures.extend(problems)
            del out                    # free this run's output before the next run
        now = time.perf_counter()
        if attempted >= MIN_RUNS and now + (statistics.median(walls) if walls else 0) > deadline:
            break
    return {"walls": walls, "measured_s": time.perf_counter() - begin, "attempted": attempted,
            "failed": failed, "failures": failures, "result_db": result_db,
            "csv_sha256": _sha256(first) if first else None}


def trace(workload_name, workload, run) -> dict:
    """One untraced run (so the traced run is not the process's first, like
    most timed runs), then one traced run, which must give the same CSV."""
    from tracer import Tracer

    reference = run().csv
    tracer = Tracer()
    bindings = tracer.install()
    start = time.perf_counter()
    try:
        out = run()
    finally:
        wall = time.perf_counter() - start
        tracer.restore()
    failures = workload.check(out)
    if out.csv != reference:
        failures.append("the traced run's CSV differs from the untraced run's")
    failures += [f"traced run recorded no call to {name}"
                 for name in tracer.missing_calls(workload_name)]
    return {"wall_s": wall, "bindings": bindings, "failures": failures,
            "layers": {name: list(vu) for name, vu in tracer.metrics(wall).items()}}


def main() -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--src", required=True, help="the src/ directory irsim must load from")
    args = parser.parse_args()

    from workloads import WORKLOADS

    import irsim
    if not os.path.realpath(irsim.__file__).startswith(os.path.realpath(args.src) + os.sep):
        print(f"irsim loaded from {irsim.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = workload.setup(args.seed)
    report = {"setup_s": time.perf_counter() - start}
    if args.mode == "measure":
        report.update(measure(workload, run, args.seconds))
        report["env"] = environment()
    elif args.mode == "trace":
        report.update(trace(args.workload, workload, run))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
