"""Scenario runners reproducing the reference behaviors at desk scale,
with deterministic seeded Monte-Carlo aggregation and CSV output.

CSV schema: scenario,sweep_name,sweep_value,metric,mean,stderr,trials,seed.
Fixed seeds give byte-identical output regardless of the worker count
(workers only parallelize independent per-trial substreams; set
IRS_SIM_THREADS to cap them).
"""

from __future__ import annotations

import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import scenarios
from .beams import linear_receivers, multi_hop_phases, optimize_path_phases
from .channels import cascaded_path_channel, effective_channel, synthesize_channels
from .geometry import ConfigError, Scene, build_los_graph, build_scene, route_links
from .routing import (interference_audit, optimal_multi_route,
                      optimal_single_route, unconstrained_multi_route)
from .estimation import (overhead_benchmark_siso_general,
                         overhead_double_irs_single_user, overhead_multi_user_extra)
from .training import (assemble_global_btt, beams_from_choices, best_beams_for_path,
                       build_bs_btt, build_irs_btt, dft_codebook,
                       planar_passive_codebook, sequential_search)

DEFAULT_TRIALS = 100


@dataclass
class ExperimentConfig:
    scenario: str
    seed: int = 0
    trials: int = DEFAULT_TRIALS
    scene_config: dict | None = None


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)

    def add(self, scenario, sweep_name, sweep_value, metric, values, trials, seed):
        values = np.atleast_1d(np.asarray(values, dtype=float))
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
        self.rows.append((scenario, sweep_name, str(sweep_value), metric, mean, stderr,
                          trials, seed))

    def metric(self, name: str) -> dict:
        """sweep value (string) -> mean, for one metric."""
        return {r[2]: r[4] for r in self.rows if r[3] == name}

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("scenario,sweep_name,sweep_value,metric,mean,stderr,trials,seed\n")
        for row in sorted(self.rows, key=lambda r: (r[0], r[1], r[2], r[3])):
            scenario, sweep_name, sweep_value, metric, mean, stderr, trials, seed = row
            buf.write(f"{scenario},{sweep_name},{sweep_value},{metric},"
                      f"{mean:.12g},{stderr:.12g},{trials},{seed}\n")
        return buf.getvalue()


def worker_count() -> int:
    """Worker threads for run_trials: IRS_SIM_THREADS, a positive integer (default 1)."""
    raw = os.environ.get("IRS_SIM_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"IRS_SIM_THREADS must be a positive integer, got {raw!r}")
    return workers


def run_trials(fn, trials: int, seed: int):
    """Evaluate fn(trial_index, trial_seed) for every trial, in index order.

    Each trial derives its own seed substream, so results are identical
    for any worker count.
    """
    seeds = [int(np.random.SeedSequence(entropy=(seed, t)).generate_state(1)[0])
             for t in range(trials)]
    workers = worker_count()
    if workers == 1:
        return [fn(t, s) for t, s in enumerate(seeds)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials), seeds))


def shannon_rate(gain: float, scene: Scene) -> float:
    c = scene.constants
    return math.log2(1.0 + c.tx_power * gain / c.noise_power)


# ---------------------------------------------------------------------------
# Element-count scaling of double vs single reflection
# ---------------------------------------------------------------------------

def _single_links_gain(channels) -> float:
    """Coherently combined gain of the two single-reflection links (SISO)."""
    amp = 0.0
    for j in (1, 2):
        phases, _ = optimize_path_phases(channels, [j], user=1, max_sweeps=4)
        amp += abs(cascaded_path_channel(channels, [j], phases, user=1)[0])
    return amp ** 2


def run_fig6(config: ExperimentConfig) -> ResultTable:
    """Achievable rate vs total element count for the double-reflection
    link (LoS and Rayleigh inter-surface channel) and the combined
    single-reflection links."""
    table = ResultTable()
    rayleigh_trials = max(10, config.trials // 5)
    for shape in [(10, 10), (15, 10), (20, 10), (25, 10), (20, 15), (20, 20)]:
        m = shape[0] * shape[1]
        total = 2 * m
        los_cfg = scenarios.double_irs_config(n_bs=1, irs_shape=shape)
        scene = build_scene(los_cfg)
        channels = synthesize_channels(scene, config.seed)

        phases = multi_hop_phases(channels, [1, 2], user=1)
        h = cascaded_path_channel(channels, [1, 2], phases, user=1)
        gain_double = float(np.linalg.norm(h) ** 2)
        table.add("fig6", "total_elements", total, "rate_double_los",
                  shannon_rate(gain_double, scene), 1, config.seed)
        table.add("fig6", "total_elements", total, "gain_double_los",
                  gain_double, 1, config.seed)

        gain_single = _single_links_gain(channels)
        table.add("fig6", "total_elements", total, "rate_single",
                  shannon_rate(gain_single, scene), 1, config.seed)
        table.add("fig6", "total_elements", total, "gain_single",
                  gain_single, 1, config.seed)

        ray_cfg = scenarios.double_irs_config(n_bs=1, irs_shape=shape,
                                              inter_irs_alpha=2.5,
                                              inter_irs_kappa_db="-inf")
        ray_scene = build_scene(ray_cfg)

        def ray_trial(t, s, sc=ray_scene):
            ch = synthesize_channels(sc, s, links=route_links([1, 2], sc.n_irs + 1))
            _, gain = optimize_path_phases(ch, [1, 2], user=1, max_sweeps=6)
            return shannon_rate(gain, sc)

        rates = run_trials(ray_trial, rayleigh_trials, config.seed + 1)
        table.add("fig6", "total_elements", total, "rate_double_rayleigh",
                  rates, rayleigh_trials, config.seed)
    return table


# ---------------------------------------------------------------------------
# Multi-user max-min rate vs transmit power
# ---------------------------------------------------------------------------

FIG7_POWERS_DBM = [-10, 0, 10, 20, 30, 40]


def _fig7_channels(channels, irs_subset, phases, n_users):
    cols = [effective_channel(channels, k, phases, include_direct=False, irs_subset=irs_subset)
            for k in range(1, n_users + 1)]
    return np.stack(cols, axis=1)


def run_fig7(config: ExperimentConfig) -> ResultTable:
    """Uplink max-min rate vs per-user power: the two-surface system keeps
    its spatial degrees of freedom while the one-surface baseline is rank
    deficient and saturates."""
    n_users = 5
    base = scenarios.double_irs_config(n_bs=40, irs_shape=(20, 20), kappa_db="inf",
                                       bs_irs1_kappa_db=10.0)

    def trial(t, s):
        rng = np.random.default_rng(s)
        users = np.column_stack([
            rng.uniform(44.0, 52.0, n_users),
            rng.uniform(-9.0, -2.0, n_users),
            np.full(n_users, 1.5),
        ])
        cfg = scenarios.with_users(base, users.tolist())
        scene = build_scene(cfg)
        channels = synthesize_channels(scene, s)

        phases_d = multi_hop_phases(channels, [1, 2], user=1)
        phases_s = multi_hop_phases(channels, [2], user=1)
        h_double = _fig7_channels(channels, [1, 2], phases_d, n_users)
        h_single = _fig7_channels(channels, [2], phases_s, n_users)

        noise = scene.constants.noise_power
        powers = [10.0 ** ((p_dbm - 30.0) / 10.0) for p_dbm in FIG7_POWERS_DBM]
        worst = [linear_receivers(h, noise, powers, scheme).sinrs.min(axis=1)
                 for h, scheme in ((h_double, "zf"), (h_single, "zf"), (h_single, "mmse"))]
        return {p_dbm: tuple(math.log2(1 + w[idx]) for w in worst)
                for idx, p_dbm in enumerate(FIG7_POWERS_DBM)}

    results = run_trials(trial, config.trials, config.seed)
    table = ResultTable()
    for p_dbm in FIG7_POWERS_DBM:
        for idx, metric in enumerate(["minrate_double_zf", "minrate_single_zf",
                                      "minrate_single_mmse"]):
            table.add("fig7", "tx_power_dbm", p_dbm, metric,
                      [r[p_dbm][idx] for r in results], config.trials, config.seed)
    return table


# ---------------------------------------------------------------------------
# Channel-estimation training overhead
# ---------------------------------------------------------------------------

def run_fig8(config: ExperimentConfig) -> ResultTable:
    """Pilot overhead vs BS antenna count, against the flat benchmark."""
    m, k = 400, 5
    table = ResultTable()
    for n_bs in [10, 20, 40, 80, 160, 400, 800, 1600]:
        table.add("fig8", "n_bs", n_bs, "overhead_single_user",
                  overhead_double_irs_single_user(m, n_bs), 1, config.seed)
        table.add("fig8", "n_bs", n_bs, "overhead_benchmark",
                  overhead_benchmark_siso_general(m), 1, config.seed)
        table.add("fig8", "n_bs", n_bs, "overhead_multi_user_extra",
                  overhead_multi_user_extra(m, n_bs, k), 1, config.seed)
    return table


# ---------------------------------------------------------------------------
# Routing: hop-count trade-off and path separation
# ---------------------------------------------------------------------------

FIG9_M0_SWEEP = [12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32]


def routes_payload(scene: Scene) -> dict:
    """Optimal single-user routes of a scene (the `routes` CLI output)."""
    beta = scene.constants.beta
    out = {}
    for k in range(1, scene.n_users + 1):
        graph = build_los_graph(scene, k)
        m = {j: scene.irs[j - 1].size for j in range(1, scene.n_irs + 1)}
        path = optimal_single_route(graph, m, beta, scene.n_bs)
        out[str(k)] = {
            "irs": list(path.irs_sequence),
            "hops": path.hops,
            "gain_db": round(10.0 * math.log10(path.gain), 6),
        }
    return out


def run_fig9(config: ExperimentConfig) -> ResultTable:
    """Single-user hop counts vs element count."""
    table = ResultTable()
    for m0 in FIG9_M0_SWEEP:
        scene = build_scene(scenarios.indoor_hall_config(m0=m0))
        graph = build_los_graph(scene, 1)
        path = optimal_single_route(graph, m0 * m0, scene.constants.beta, scene.n_bs)
        table.add("fig9", "m0", m0, "user1_hops", path.hops, 1, config.seed)
        table.add("fig9", "m0", m0, "user1_gain_db", 10 * math.log10(path.gain),
                  1, config.seed)
    return table


def run_fig11(config: ExperimentConfig) -> ResultTable:
    """Two-user routing with and without path-separation constraints, with
    the interference audit of both pairings."""
    table = ResultTable()
    m0 = 24
    scene = build_scene(scenarios.indoor_hall_config(m0=m0))
    beta = scene.constants.beta
    graphs = {k: build_los_graph(scene, k) for k in (1, 2)}
    unconstrained = unconstrained_multi_route(scene, graphs, m0 * m0, beta, scene.n_bs)
    constrained = optimal_multi_route(scene, graphs, m0 * m0, beta, scene.n_bs)
    table.add("fig11", "m0", m0, "unconstrained_min_gain_db",
              10 * math.log10(unconstrained.objective), 1, config.seed)
    table.add("fig11", "m0", m0, "constrained_min_gain_db",
              10 * math.log10(constrained.objective), 1, config.seed)
    table.add("fig11", "m0", m0, "unconstrained_separated",
              float(unconstrained.separation_ok), 1, config.seed)
    table.add("fig11", "m0", m0, "user2_route_changed",
              float(unconstrained.paths[2].irs_sequence != constrained.paths[2].irs_sequence),
              1, config.seed)

    def audit_trial(t, s):
        return [max(r["interference_over_noise"] for r in report.values())
                for report in interference_audit(scene, s, [unconstrained, constrained])]

    trials = max(5, config.trials // 10)
    audits = run_trials(audit_trial, trials, config.seed)
    table.add("fig11", "m0", m0, "interference_over_noise_unconstrained",
              [a[0] for a in audits], trials, config.seed)
    table.add("fig11", "m0", m0, "interference_over_noise_constrained",
              [a[1] for a in audits], trials, config.seed)
    return table


# ---------------------------------------------------------------------------
# Beam training: sequential search vs distributed tables
# ---------------------------------------------------------------------------

FIG13_KAPPAS_DB = [0.0, 5.0, 10.0, 15.0, 20.0, "inf"]
FIG13_PATH = (3, 4, 5)


def _fig13_true_gain(channels, path, w, phases) -> float:
    h = cascaded_path_channel(channels, list(path), phases, user=1)
    return float(abs(h @ w) ** 2)


def run_fig13(config: ExperimentConfig) -> ResultTable:
    """Effective channel gain of the fixed three-reflection route under
    sequential search vs distributed table-driven training, vs the Rician
    factor.

    Trial-major: every kappa of a trial runs on the same seed substreams, so
    the trial's draw store draws each route link's unit Gaussian matrix once
    and every kappa mixes it with its own weights.  The tables' controller
    draws are drawn afresh for each kappa, the BS-fed sounding only as its
    projection onto the sounding beam.
    """
    m0 = 24
    path = FIG13_PATH
    bs_cb = dft_codebook(32, 32, kind="active")
    irs_cbs = {j: planar_passive_codebook(32, m0) for j in path}
    kappas = list(FIG13_KAPPAS_DB)
    scenes = [build_scene(scenarios.indoor_hall_config(m0=m0, kappa_db=kappa_db))
              for kappa_db in kappas]
    links = route_links(path, scenes[0].n_irs + 1)

    def gains(sc, kappa_db, s, draws):
        averages = 1 if kappa_db == "inf" else 10
        channels = synthesize_channels(sc, s, links=links, draws=draws)
        seq = sequential_search(channels, [1], bs_cb, irs_cbs, path=path)
        gain_seq = _fig13_true_gain(channels, path, seq.w, seq.phases)

        bs_table = build_bs_btt(sc, bs_cb, seed=s, averages=averages, next_nodes=[path[0]])
        irs_tables = [build_irs_btt(sc, j, irs_cbs[j], seed=s, averages=averages,
                                    prev_nodes=[links[i][0]], next_nodes=[links[i + 1][1]])
                      for i, j in enumerate(path)]
        gbtt = assemble_global_btt(bs_table, irs_tables)
        choices = best_beams_for_path(gbtt, path, sc.n_irs + 1)
        w, phases = beams_from_choices(bs_cb, irs_cbs, choices)
        gain_dist = _fig13_true_gain(channels, path, w, phases)
        return gain_seq, gain_dist

    def trial(t, s):
        draws = {}                     # this trial's unit draws, shared by every kappa
        return [gains(sc, kappa_db, s, draws) for sc, kappa_db in zip(scenes, kappas)]

    results = run_trials(trial, config.trials, config.seed)
    table = ResultTable()
    for idx, kappa_db in enumerate(kappas):
        seq_db = [10 * math.log10(r[idx][0]) for r in results]
        dist_db = [10 * math.log10(r[idx][1]) for r in results]
        table.add("fig13", "kappa_db", kappa_db, "gain_sequential_db",
                  seq_db, config.trials, config.seed)
        table.add("fig13", "kappa_db", kappa_db, "gain_distributed_db",
                  dist_db, config.trials, config.seed)
        table.add("fig13", "kappa_db", kappa_db, "gap_db",
                  [a - b for a, b in zip(seq_db, dist_db)], config.trials, config.seed)
    return table


def run_custom(config: ExperimentConfig) -> ResultTable:
    """Route report for a user-supplied scene."""
    if config.scene_config is None:
        raise ValueError("custom scenario requires a scene config")
    scene = build_scene(config.scene_config)
    table = ResultTable()
    payload = routes_payload(scene)
    for user, ent in payload.items():
        table.add("custom", "user", user, "hops", ent["hops"], 1, config.seed)
        table.add("custom", "user", user, "gain_db", ent["gain_db"], 1, config.seed)
    return table


RUNNERS = {
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig11": run_fig11,
    "fig13": run_fig13,
    "custom": run_custom,
}


def run_scenario(config: ExperimentConfig) -> ResultTable:
    try:
        runner = RUNNERS[config.scenario]
    except KeyError:
        raise KeyError(f"unknown scenario {config.scenario!r}") from None
    return runner(config)
