"""The benchmark's four workloads: set-up, the timed call, output checks and
the optimized result each one reports.

Every workload is a batch run: one caller in one process, closed loop.  The
seed is a benchmark argument; the program only sees the inputs made from it
(the CLI `--seed`, or the per-trial seeds `run_trials` derives from it).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Run sizes: one timed run takes 2-4 s on a 2-core machine, so that seven to
# ten runs fit in one benchmark run and their median rides out the machine's
# speed drift.  The work per run barely depends on the seed.
FIG6_TRIALS = 100
FIG13_TRIALS = 5
FIG9_11_TRIALS = 50
AO_HALL_TRIALS = 3
AO_HALL_M0 = 8
AO_HALL_KAPPA_DB = 20.0
AO_HALL_MAX_ITERS = 20
AO_HALL_USERS = (1, 2)


@dataclass
class Output:
    """What one timed run produced: its CSV and anything the checks need."""

    csv: str
    extra: object = None


@dataclass
class Workload:
    name: str
    setup: Callable[[int], Callable[[], Output]]   # seed -> timed call
    check: Callable[[Output], list]                # -> failure messages
    result_db: Callable[[Output], float]


def _parse_csv(text: str) -> dict:
    """(scenario, metric, sweep_value) -> mean, from the irsim CSV schema."""
    return {(r["scenario"], r["metric"], r["sweep_value"]): float(r["mean"])
            for r in csv.DictReader(io.StringIO(text))}


def _metric(rows: dict, scenario: str, metric: str) -> dict:
    return {v: mean for (s, m, v), mean in rows.items() if s == scenario and m == metric}


def _hall_snr_offset_db() -> float:
    """Transmit power over noise power of the indoor hall, in dB: added to a
    channel gain in dB it gives the receive SNR."""
    from irsim.scenarios import indoor_hall_config

    c = indoor_hall_config()["constants"]
    return c["tx_dbm"] - c["noise_dbm"]


# Workload code calls irsim through module attributes, never through names
# bound at set-up, so that the tracer's wrappers see every call.

def _cli_setup(scenario: str, trials: int):
    def setup(seed: int):
        from irsim import cli

        argv = ["run", "--scenario", scenario, "--seed", str(seed), "--trials", str(trials)]

        def run() -> Output:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"irsim {' '.join(argv)} exited {code}")
            return Output(csv=buf.getvalue())
        return run
    return setup


# ---------------------------------------------------------------------------
# fig6: element scaling, bound by the per-path phase optimizer
# ---------------------------------------------------------------------------

def _fig6_check(out: Output) -> list:
    rows = _parse_csv(out.csv)
    failures = []
    for metric, want in (("gain_double_los", 4.0), ("gain_single", 2.0)):
        gains = _metric(rows, "fig6", metric)
        m = np.array([float(total) / 2.0 for total in gains])
        slope = float(np.polyfit(np.log(m), np.log(list(gains.values())), 1)[0])
        if abs(slope - want) > 0.1:
            failures.append(f"fig6 {metric} slope {slope:.4f} not within {want} +- 0.1")
    return failures


def _fig6_result(out: Output) -> float:
    rates = _metric(_parse_csv(out.csv), "fig6", "rate_double_rayleigh")
    return float(np.mean([10.0 * math.log10(2.0 ** r - 1.0) for r in rates.values()]))


# ---------------------------------------------------------------------------
# fig13: table-driven distributed training vs sequential search
# ---------------------------------------------------------------------------

def _fig13_check(out: Output) -> list:
    gap_inf = _metric(_parse_csv(out.csv), "fig13", "gap_db")["inf"]
    rel = abs(10.0 ** (gap_inf / 10.0) - 1.0)
    return [] if rel < 1e-6 else [f"fig13 relative gap at kappa=inf is {rel:.3e} (>= 1e-6)"]


def _fig13_result(out: Output) -> float:
    rows = _parse_csv(out.csv)
    gains = [*_metric(rows, "fig13", "gain_sequential_db").values(),
             *_metric(rows, "fig13", "gain_distributed_db").values()]
    return float(np.mean(gains)) + _hall_snr_offset_db()


# ---------------------------------------------------------------------------
# ao_hall: alternating optimization over every surface of the indoor hall
# ---------------------------------------------------------------------------

def _ao_hall_setup(seed: int):
    from irsim import beams, channels, experiments
    from irsim.geometry import build_scene
    from irsim.scenarios import indoor_hall_config

    scene = build_scene(indoor_hall_config(m0=AO_HALL_M0, kappa_db=AO_HALL_KAPPA_DB))

    def trial(t, s):
        cs = channels.synthesize_channels(scene, s)
        return [beams.ao_joint_beamforming(cs, user=k, max_iters=AO_HALL_MAX_ITERS)
                .achieved_gains[k] for k in AO_HALL_USERS]

    def start_objectives(t, s):
        """The unit-phase objective AO starts from, for the check."""
        cs = channels.synthesize_channels(scene, s)
        ones = channels.unit_phases(scene)
        return [float(np.linalg.norm(channels.effective_channel(
                    cs, k, ones, include_direct=False, irs_subset=sorted(ones))) ** 2)
                for k in AO_HALL_USERS]

    def run() -> Output:
        gains = experiments.run_trials(trial, AO_HALL_TRIALS, seed)
        table = experiments.ResultTable()
        for idx, k in enumerate(AO_HALL_USERS):
            table.add("ao_hall", "user", k, "ao_gain_db",
                      [10.0 * math.log10(g[idx]) for g in gains], AO_HALL_TRIALS, seed)
        starts = lambda: experiments.run_trials(start_objectives, AO_HALL_TRIALS, seed)
        return Output(csv=table.to_csv(), extra=(gains, starts))
    return run


def _ao_hall_check(out: Output) -> list:
    """AO never ends below its unit-phase starting objective."""
    gains, starts = out.extra
    return [f"ao_hall trial {t} user {k}: AO objective {g:.6e} below its start {s:.6e}"
            for t, (trial_gains, trial_starts) in enumerate(zip(gains, starts()))
            for k, g, s in zip(AO_HALL_USERS, trial_gains, trial_starts) if g < s]


def _ao_hall_result(out: Output) -> float:
    gains = [g for trial_gains in out.extra[0] for g in trial_gains]
    return float(np.mean([10.0 * math.log10(g) for g in gains])) + _hall_snr_offset_db()


# ---------------------------------------------------------------------------
# fig9_11: route hop counts and separated two-user routing
# ---------------------------------------------------------------------------

def _fig9_11_check(out: Output) -> list:
    rows = _parse_csv(out.csv)
    get = lambda metric: _metric(rows, "fig11", metric)["24"]
    failures = []
    if get("constrained_min_gain_db") > get("unconstrained_min_gain_db"):
        failures.append("fig11 constrained min gain exceeds the unconstrained one")
    if get("unconstrained_separated") != 0.0:
        failures.append("fig11 unconstrained routes are separated")
    if get("user2_route_changed") != 1.0:
        failures.append("fig11 separation did not change user 2's route")
    return failures


def _fig9_11_result(out: Output) -> float:
    gain_db = _metric(_parse_csv(out.csv), "fig11", "constrained_min_gain_db")["24"]
    return gain_db + _hall_snr_offset_db()


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in [
    Workload("fig6", _cli_setup("fig6", FIG6_TRIALS), _fig6_check, _fig6_result),
    Workload("fig13", _cli_setup("fig13", FIG13_TRIALS), _fig13_check, _fig13_result),
    Workload("ao_hall", _ao_hall_setup, _ao_hall_check, _ao_hall_result),
    Workload("fig9_11", _cli_setup("fig11", FIG9_11_TRIALS), _fig9_11_check, _fig9_11_result),
]}
