"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured values and runtime."""

import itertools
import math
import time

import numpy as np

import irsim.experiments as experiments
from irsim.beams import mrt_beam, closed_form_path_gain, multi_hop_phases
from irsim.channels import (cascaded_path_channel, synthesize_channels, unit_phases)
from irsim.cli import main
from irsim.estimation import (default_training_pairs, ls_estimate_cascaded_siso,
                              overhead_double_irs_single_user, overhead_multi_user_extra)
from irsim.experiments import ExperimentConfig, run_scenario
from irsim.geometry import build_los_graph, build_scene, los_indicator
from irsim.routing import (Infeasible, NoFeasiblePath, ReflectionPath,
                           check_path_separation, enumerate_routes,
                           interference_audit, optimal_multi_route,
                           optimal_single_route, path_gain,
                           unconstrained_multi_route)
from irsim.scenarios import indoor_hall_config
from irsim.training import (assemble_global_btt, beams_from_choices, build_bs_btt,
                            build_irs_btt, dft_codebook, exhaustive_search,
                            planar_passive_codebook, sequential_search,
                            best_beams_for_path)

from conftest import random_two_user_config, synthetic_graph, unit, zigzag_config


def _report(name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({time.time() - t0:.1f}s)")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. element-count scaling law
# ---------------------------------------------------------------------------

def test_criterion_1_scaling_law():
    t0 = time.time()
    table = run_scenario(ExperimentConfig(scenario="fig6", seed=1, trials=20))
    rate_d = table.metric("rate_double_los")
    rate_s = table.metric("rate_single")
    delta_d = rate_d["800"] - rate_d["400"]
    delta_s = rate_s["800"] - rate_s["400"]

    gains_d = table.metric("gain_double_los")
    gains_s = table.metric("gain_single")
    m_of_total = {"200": 100, "300": 150, "400": 200, "500": 250, "600": 300,
                  "800": 400}
    x = np.log([m_of_total[k] for k in gains_d])
    slope_d = float(np.polyfit(x, np.log(list(gains_d.values())), 1)[0])
    slope_s = float(np.polyfit(x, np.log(list(gains_s.values())), 1)[0])

    elapsed_ok = (time.time() - t0) < 60
    ok = (abs(delta_d - 4.0) <= 0.2 and abs(delta_s - 2.0) <= 0.2
          and abs(slope_d - 4.0) <= 0.1 and abs(slope_s - 2.0) <= 0.1
          and elapsed_ok)
    _report("criterion 1 (scaling law)", ok,
            f"Δdouble={delta_d:.3f}, Δsingle={delta_s:.3f}, "
            f"slopes={slope_d:.3f}/{slope_s:.3f}", t0)


# ---------------------------------------------------------------------------
# 2. closed-form equality over random geometries
# ---------------------------------------------------------------------------

def _random_chain_config(rng, n_hops, m0, n_bs):
    x, positions = 0.0, []
    for _ in range(n_hops):
        x += float(rng.uniform(6, 15))
        positions.append([x, float(rng.uniform(2, 8)) * (1 if len(positions) % 2 == 0 else -1), 2.0])
    user = [x + float(rng.uniform(5, 10)), float(rng.uniform(-3, 3)), 1.5]
    bs = np.array([0.0, 0.0, 2.0])
    nodes = [bs] + [np.array(p) for p in positions] + [np.array(user)]
    irs = []
    for i, p in enumerate(positions, start=1):
        to_prev = nodes[i - 1] - nodes[i]
        to_next = nodes[i + 1] - nodes[i]
        n = to_prev / np.linalg.norm(to_prev) + to_next / np.linalg.norm(to_next)
        irs.append({"position": p, "normal": unit(n), "m0": m0})
    return {
        "bs": {"position": [0, 0, 2], "normal": [1, 0, 0], "shape": [n_bs, 1],
               "n_elements": n_bs},
        "irs": irs, "users": [user],
        "constants": {"beta_db": -30, "kappa_db": "inf", "carrier_hz": 5e9},
    }


def test_criterion_2_closed_form_equality():
    t0 = time.time()
    rng = np.random.default_rng(2)
    checked, worst = 0, 0.0
    while checked < 100:
        n_hops = 1 + checked % 3
        m0 = int(rng.integers(2, 6))
        n_bs = int(rng.integers(1, 9))
        cfg = _random_chain_config(rng, n_hops, m0, n_bs)
        scene = build_scene(cfg)
        path = list(range(1, n_hops + 1))
        seq = [0, *path, scene.n_irs + 1]
        if not all(los_indicator(scene, a, b) for a, b in zip(seq[:-1], seq[1:])):
            continue
        channels = synthesize_channels(scene, 1000 + checked)
        phases = {**unit_phases(scene), **multi_hop_phases(channels, path, user=1)}
        h = cascaded_path_channel(channels, path, phases, user=1)
        w = mrt_beam(channels.get(0, path[0]).los_tx)
        got = float(abs(h @ w) ** 2)
        want = closed_form_path_gain(n_hops, m0 * m0, n_bs, scene.constants.beta,
                                     [scene.distance(a, b) for a, b in zip(seq[:-1], seq[1:])])
        worst = max(worst, abs(got - want) / want)
        checked += 1
    ok = worst < 1e-9 and (time.time() - t0) < 30
    _report("criterion 2 (closed-form equality)", ok,
            f"100 geometries, worst rel err {worst:.2e}", t0)


# ---------------------------------------------------------------------------
# 3. routing oracles
# ---------------------------------------------------------------------------

def test_criterion_3_routing_oracles():
    t0 = time.time()
    rng = np.random.default_rng(3)
    beta = 1e-3
    agree = 0
    for _ in range(200):
        graph = synthetic_graph(rng, int(rng.integers(2, 11)))
        m = int(rng.integers(4, 1200))
        routes = enumerate_routes(graph)
        if not routes:
            try:
                optimal_single_route(graph, m, beta)
                break
            except NoFeasiblePath:
                agree += 1
                continue
        best = max(path_gain(graph, seq, m, beta, 4) for seq in routes)
        got = optimal_single_route(graph, m, beta, 4)
        if abs(got.gain - best) <= 1e-9 * best:
            agree += 1

    joint_ok = 0
    for trial in range(50):
        scene = build_scene(random_two_user_config(rng, int(rng.integers(3, 9))))
        graphs = {k: build_los_graph(scene, k) for k in (1, 2)}
        combos = itertools.product(enumerate_routes(graphs[1]),
                                   enumerate_routes(graphs[2]))
        best = None
        for seq1, seq2 in combos:
            paths = {1: ReflectionPath(seq1, 1, path_gain(graphs[1], seq1, 4, beta, 4)),
                     2: ReflectionPath(seq2, 2, path_gain(graphs[2], seq2, 4, beta, 4))}
            if check_path_separation(scene, paths):
                obj = min(p.gain for p in paths.values())
                best = obj if best is None or obj > best else best
        try:
            got = optimal_multi_route(scene, graphs, 4, beta, 4)
            if best is not None and abs(got.objective - best) <= 1e-9 * best:
                joint_ok += 1
        except Infeasible:
            if best is None:
                joint_ok += 1
    ok = agree == 200 and joint_ok == 50 and (time.time() - t0) < 120
    _report("criterion 3 (routing oracles)", ok,
            f"single-route agreement {agree}/200, joint agreement {joint_ok}/50", t0)


# ---------------------------------------------------------------------------
# 4. hop-count trade-off on the shipped scene
# ---------------------------------------------------------------------------

def test_criterion_4_hop_count_tradeoff():
    t0 = time.time()
    hops = {}
    for m0 in range(12, 33, 2):
        scene = build_scene(indoor_hall_config(m0=m0))
        graph = build_los_graph(scene, 1)
        hops[m0] = optimal_single_route(graph, m0 * m0, scene.constants.beta,
                                        scene.n_bs).hops
    series = [hops[m0] for m0 in sorted(hops)]
    ok = (hops[24] >= hops[20] + 1 and series == sorted(series)
          and (time.time() - t0) < 60)
    _report("criterion 4 (hop-count trade-off)", ok,
            f"hops(20)={hops[20]}, hops(24)={hops[24]}, sweep={series}", t0)


# ---------------------------------------------------------------------------
# 5. path separation and interference
# ---------------------------------------------------------------------------

def test_criterion_5_path_separation():
    t0 = time.time()
    scene = build_scene(indoor_hall_config(m0=24, kappa_db=20))
    assert scene.n_bs == 32
    graphs = {k: build_los_graph(scene, k) for k in (1, 2)}
    m = scene.irs[0].size
    unc = unconstrained_multi_route(scene, graphs, m, scene.constants.beta, scene.n_bs)
    con = optimal_multi_route(scene, graphs, m, scene.constants.beta, scene.n_bs)
    worst_unc, worst_con = [], []
    for seed in range(10):
        ru, rc = interference_audit(scene, 500 + seed, [unc, con])
        worst_unc.append(max(r["interference_over_noise"] for r in ru.values()))
        worst_con.append(max(r["interference_over_noise"] for r in rc.values()))
    margin_db = 10 * math.log10(np.mean(worst_unc) / np.mean(worst_con))
    ok = (con.objective <= unc.objective and margin_db >= 10.0
          and (time.time() - t0) < 120)
    _report("criterion 5 (path separation)", ok,
            f"min-gain {10 * math.log10(con.objective):.1f} <= "
            f"{10 * math.log10(unc.objective):.1f} dB, "
            f"interference margin {margin_db:.1f} dB", t0)


# ---------------------------------------------------------------------------
# 6. multi-user saturation vs growth
# ---------------------------------------------------------------------------

def test_criterion_6_multi_user_saturation():
    t0 = time.time()
    table = run_scenario(ExperimentConfig(scenario="fig7", seed=6, trials=50))
    single = table.metric("minrate_single_zf")
    double = table.metric("minrate_double_zf")
    mmse = table.metric("minrate_single_mmse")
    top, prev = "40", "30"
    single_change = abs(single[top] - single[prev])
    double_growth = double[top] - double[prev]
    mmse_ok = all(mmse[k] >= single[k] - 1e-9 for k in single)
    ok = (single_change < 0.2 and double_growth > 2.5 and mmse_ok
          and (time.time() - t0) < 180)
    _report("criterion 6 (multi-user saturation)", ok,
            f"single ZF change {single_change:.4f} bps/Hz, "
            f"double ZF growth {double_growth:.2f} bps/Hz over top 10 dB", t0)


# ---------------------------------------------------------------------------
# 7. training-overhead formulas
# ---------------------------------------------------------------------------

def test_criterion_7_overhead_formulas():
    t0 = time.time()
    m = 400
    floor_ok = all(overhead_double_irs_single_user(m, n_bs) == 1200
                   for n_bs in (400, 401, 512, 1000, 4000))
    at_40 = overhead_double_irs_single_user(m, 40)
    extra_ok = all(overhead_multi_user_extra(m, n_bs, k) == k - 1
                   for n_bs in (800, 801, 1600) for k in (2, 5, 9))
    ok = floor_ok and at_40 == 4800 and extra_ok
    _report("criterion 7 (overhead formulas)", ok,
            f"floor 3M reached, overhead(400,40)={at_40}, multi-user floor K-1", t0)


# ---------------------------------------------------------------------------
# 8. estimation accuracy
# ---------------------------------------------------------------------------

def test_criterion_8_estimation():
    t0 = time.time()
    rng = np.random.default_rng(8)
    worst = 0.0
    for m in (2, 4, 8):
        s = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        phi1, phi2 = default_training_pairs(m)
        y = np.array([p1 @ s @ p2 for p1, p2 in zip(phi1, phi2)])
        est = ls_estimate_cascaded_siso(phi1, phi2, y)
        worst = max(worst, float(np.max(np.abs(est - s)) / np.max(np.abs(s))))

    m = 4
    s = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    phi1, phi2 = default_training_pairs(m)
    clean = np.array([p1 @ s @ p2 for p1, p2 in zip(phi1, phi2)])
    sigmas = np.logspace(-3, 0, 7)
    nmse = []
    for sigma2 in sigmas:
        acc = 0.0
        for _ in range(80):
            noise = math.sqrt(sigma2 / 2) * (rng.standard_normal(len(clean))
                                             + 1j * rng.standard_normal(len(clean)))
            est = ls_estimate_cascaded_siso(phi1, phi2, clean + noise)
            acc += float(np.linalg.norm(est - s) ** 2 / np.linalg.norm(s) ** 2)
        nmse.append(acc / 80)
    slope = float(np.polyfit(np.log10(sigmas), np.log10(nmse), 1)[0])
    ok = worst < 1e-10 and abs(slope - 1.0) <= 0.05 and (time.time() - t0) < 60
    _report("criterion 8 (estimation)", ok,
            f"noiseless err {worst:.1e}, NMSE slope {slope:.3f}", t0)


# ---------------------------------------------------------------------------
# 9. training hierarchy and the distributed gap
# ---------------------------------------------------------------------------

def test_criterion_9_training_hierarchy(monkeypatch):
    t0 = time.time()
    rng = np.random.default_rng(9)
    hierarchy_ok = 0
    for trial in range(100):
        kappa_db = float(rng.uniform(10, 30))
        scene = build_scene(zigzag_config(n_hops=2, m0=2, n_bs=2, kappa_db=kappa_db))
        channels = synthesize_channels(scene, 9000 + trial)
        path = (1, 2)
        bs_cb = dft_codebook(2, 2, kind="active")
        irs_cbs = {j: planar_passive_codebook(2, 2) for j in path}
        exh = exhaustive_search(channels, [1], bs_cb, irs_cbs, path=path)
        seq = sequential_search(channels, [1], bs_cb, irs_cbs, path=path)
        bs_table = build_bs_btt(scene, bs_cb, seed=9000 + trial, averages=10)
        tables = [build_irs_btt(scene, j, irs_cbs[j], seed=9000 + trial, averages=10)
                  for j in path]
        gbtt = assemble_global_btt(bs_table, tables)
        choices = best_beams_for_path(gbtt, path, scene.n_irs + 1)
        w, phases = beams_from_choices(bs_cb, irs_cbs, choices)
        h = cascaded_path_channel(channels, list(path), phases, user=1)
        c = scene.constants
        dist_true = float(c.tx_power * abs(h @ w) ** 2 / c.noise_power)
        if exh.objective >= seq.objective - 1e-12 and seq.objective >= dist_true - 1e-12:
            hierarchy_ok += 1

    monkeypatch.setattr(experiments, "FIG13_KAPPAS_DB", [5.0, 15.0, "inf"])
    table = run_scenario(ExperimentConfig(scenario="fig13", seed=9, trials=100))
    gap = table.metric("gap_db")
    seq_gain = table.metric("gain_sequential_db")
    dist_gain = table.metric("gain_distributed_db")
    rel_gap_inf = abs(10 ** (gap["inf"] / 10.0) - 1.0)
    ok = (hierarchy_ok == 100 and gap["15.0"] < gap["5.0"] and rel_gap_inf < 1e-6
          and (time.time() - t0) < 300)
    _report("criterion 9 (training hierarchy)", ok,
            f"hierarchy {hierarchy_ok}/100, gap(5)={gap['5.0']:.3f} dB, "
            f"gap(15)={gap['15.0']:.3f} dB, rel gap(inf)={rel_gap_inf:.1e}", t0)


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    t0 = time.time()
    import json
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps(indoor_hall_config(m0=12)))
    all_ok = True
    for scenario in ("fig6", "fig7", "fig8", "fig9", "fig11", "fig13", "custom"):
        outputs = []
        for run, workers in ((0, "1"), (1, "1"), (2, "8")):
            monkeypatch.setenv("IRS_SIM_THREADS", workers)
            out = tmp_path / f"{scenario}_{run}.csv"
            args = ["run", "--scenario", scenario, "--seed", "42",
                    "--trials", "3", "--out", str(out)]
            if scenario == "custom":
                args += ["--config", str(custom)]
            assert main(args) == 0
            outputs.append(out.read_bytes())
        all_ok &= outputs[0] == outputs[1] == outputs[2]
    ok = all_ok and (time.time() - t0) < 240
    _report("criterion 10 (CLI determinism)", ok,
            "byte-identical CSV for every scenario across reruns and 1 vs 8 workers",
            t0)
