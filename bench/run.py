"""irsim benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload fig6 --seed 0 --seconds 27 --trace 0

Run from anywhere inside a checkout of the repository; irsim is loaded from
the checkout's src/ directory.  Workloads: see bench/workloads.py and
BENCHMARK.json.

Every measurement runs in a fresh child process with IRS_SIM_THREADS=1 and
one BLAS thread.  The --seconds of timed runs are split over a few measuring
processes; each runs the workload back to back for its share and is preceded
by set-up-only processes, so that set-up samples (each process contributes
one) are spread over the whole run like the timed runs are.  With --trace 1
a further process runs the workload once untraced, then once under the
per-layer tracer.  Human-readable lines go first; the last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

ROUNDS = 3                # measuring processes per invocation
PROBES_PER_ROUND = 3      # set-up-only processes before each measuring process
TIME_LIMIT_S = 170.0      # the whole invocation, every child process included

# Threads pinned for every child: single-worker runs, and OpenBLAS threads
# otherwise spin on the second core and add noise (the CSV bytes are
# identical at 1 and 2 BLAS threads).
PINNED_ENV = {"IRS_SIM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def run_worker(mode: str, args, deadline: float, seconds: float = 0.0) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
           "--src", str(SRC)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} process timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} process exited {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of n={len(values)}, q1 {q1:.4f}, q3 {q3:.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "irsim" / "__init__.py").is_file():
        print(f"no irsim sources under {SRC}", file=sys.stderr)
        return 2
    setups, rounds = [], []
    budget = args.seconds
    try:
        for i in range(ROUNDS):
            setups += [run_worker("setup", args, deadline)["setup_s"]
                       for _ in range(PROBES_PER_ROUND)]
            rounds.append(run_worker("measure", args, deadline, budget / (ROUNDS - i)))
            budget -= rounds[-1]["measured_s"]
        traced = run_worker("trace", args, deadline) if args.trace else None
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    setups += [r["setup_s"] for r in rounds]
    walls = [w for r in rounds for w in r["walls"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    meas = rounds[0]
    if any(r["csv_sha256"] != meas["csv_sha256"] for r in rounds):
        failed += 1
        failures.append("the measuring processes' CSVs differ")
    print(f"workload {args.workload}, seed {args.seed}: {attempted} runs in {ROUNDS} "
          f"processes, {failed} failed")
    print("environment " + json.dumps(meas["env"], sort_keys=True))
    if not walls:
        failures.append("no run completed")
    wall_s = statistics.median(walls) if walls else 0.0

    if traced is None:
        metrics = {
            "wall_s": (wall_s, "s", quartiles(walls)),
            "setup_s": (statistics.median(setups), "s", quartiles(setups)),
            "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), "MB",
                            "high-water mark of the measuring processes"),
            "pass_frac": ((attempted - failed) / attempted, "ratio",
                          f"{attempted - failed} of {attempted} runs passed"),
            "result_db": (meas["result_db"] if meas["result_db"] is not None else 0.0, "dB",
                          "receive SNR of the optimized result"),
        }
    else:
        attempted += 1
        if traced["failures"]:
            failed += 1
            failures.extend(traced["failures"])
        print(f"trace: {traced['bindings']} bindings wrapped and restored; "
              f"traced wall {traced['wall_s']:.4f} s vs untraced median {wall_s:.4f} s")
        metrics = {name: (value, unit, "computed from returned objects"
                          if name in ("channels.gaussian_entries",
                                      "training.table_rows_kept_frac") else "")
                   for name, (value, unit) in traced["layers"].items()}
        metrics["trace.overhead_s"] = (traced["wall_s"] - wall_s, "s",
                                       "traced wall minus untraced median")

    for name, (value, unit, note) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for message in failures:
        print(f"FAILED: {message}")
    print(json.dumps({
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
