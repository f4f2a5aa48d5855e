"""Closed-form beam alignment, AO, and linear receivers."""

import collections
import hashlib
import itertools
import math
import re
import warnings

import numpy as np
import pytest

import irsim.channels
from irsim import beams
from irsim.beams import (ao_joint_beamforming, closed_form_path_gain, linear_receivers,
                         mrt_beam, multi_hop_phases, numerical_rank, optimize_path_phases)
from irsim.channels import (cascaded_path_channel, effective_channel,
                            synthesize_channels, unit_phases)
from irsim.cli import main
from irsim.geometry import build_los_graph, build_scene, route_links
from irsim.scenarios import indoor_hall_config

from conftest import double_chain_config, double_only_config, zigzag_config


# ---------------------------------------------------------------------------
# double-reflection closed form
# ---------------------------------------------------------------------------

def _double_closed_form(scene):
    """Closed-form peak gain of the BS -> 1 -> 2 -> user-1 route."""
    d = [scene.distance(0, 1), scene.distance(1, 2), scene.distance(2, 3)]
    return closed_form_path_gain(2, scene.irs[0].size, scene.n_bs, scene.constants.beta, d)


def test_pure_los_gain_follows_beta3_m4_scaling(double_scene):
    channels = synthesize_channels(double_scene, 24)
    beta = double_scene.constants.beta
    m = double_scene.irs[0].size
    d = [double_scene.distance(0, 1), double_scene.distance(1, 2),
         double_scene.distance(2, 3)]
    trend = double_scene.n_bs * beta ** 3 * m ** 4 / (d[0] * d[1] * d[2]) ** 2
    assert _double_closed_form(double_scene) == pytest.approx(trend, rel=1e-9)
    assert _aligned_gain(channels, [1, 2]) == pytest.approx(trend, rel=1e-9)


# ---------------------------------------------------------------------------
# multi-hop closed forms
# ---------------------------------------------------------------------------

def _aligned_gain(channels, path, user=1):
    phases = {**unit_phases(channels.scene), **multi_hop_phases(channels, path, user)}
    h = cascaded_path_channel(channels, path, phases, user=user)
    w = mrt_beam(channels.get(0, path[0]).los_tx)
    return float(abs(h @ w) ** 2)


def test_single_hop_gain_formula(chain_scene):
    channels = synthesize_channels(chain_scene, 25)
    got = _aligned_gain(channels, [1])
    m = chain_scene.irs[0].size
    want = closed_form_path_gain(1, m, chain_scene.n_bs, chain_scene.constants.beta,
                                 [chain_scene.distance(0, 1), chain_scene.distance(1, 2)])
    assert got == pytest.approx(want, rel=1e-9)


def test_two_hop_matches_double_reflection_form():
    scene = build_scene(double_only_config(m0=3, n_bs=1))
    channels = synthesize_channels(scene, 26)
    got = _aligned_gain(channels, [1, 2])
    assert got == pytest.approx(_double_closed_form(scene), rel=1e-9)


def test_three_hop_beats_discrete_exhaustive():
    scene = build_scene(zigzag_config(n_hops=3, m0=1, n_bs=2))
    channels = synthesize_channels(scene, 27)
    got = _aligned_gain(channels, [1, 2, 3])
    # M = 1 allows exhaustive search over an 8-point grid per surface
    grid = np.exp(2j * np.pi * np.arange(8) / 8)
    w = mrt_beam(channels.get(0, 1).los_tx)
    best = 0.0
    for c1, c2, c3 in itertools.product(grid, repeat=3):
        phases = {1: np.array([c1]), 2: np.array([c2]), 3: np.array([c3])}
        h = cascaded_path_channel(channels, [1, 2, 3], phases)
        best = max(best, abs(h @ w) ** 2)
    assert got >= best - 1e-18
    assert got <= best / math.cos(math.pi / 8) ** 6 + 1e-18


@pytest.mark.parametrize("n_hops", [1, 2, 3])
def test_multi_hop_gain_equals_closed_form(n_hops):
    scene = build_scene(zigzag_config(n_hops=n_hops, m0=3, n_bs=4))
    channels = synthesize_channels(scene, 28 + n_hops)
    path = list(range(1, n_hops + 1))
    got = _aligned_gain(channels, path)
    seq = [0, *path, scene.n_irs + 1]
    dists = [scene.distance(a, b) for a, b in zip(seq[:-1], seq[1:])]
    want = closed_form_path_gain(n_hops, 9, 4, scene.constants.beta, dists)
    assert got == pytest.approx(want, rel=1e-9)


def test_multi_hop_requires_los():
    scene = build_scene(zigzag_config(n_hops=2, m0=2, kappa_db="-inf"))
    channels = synthesize_channels(scene, 31)
    with pytest.raises(ValueError, match="LoS"):
        # blocked direct channel has no LoS factorization
        multi_hop_phases(channels, [1, 2], user=1)
        raise ValueError("no LoS in NLoS-only composition")  # pragma: no cover


def test_mrt_normalization():
    resp = np.ones(4, dtype=complex)
    w = mrt_beam(resp)
    assert np.allclose(w, 0.5 * np.ones(4))
    rng = np.random.default_rng(32)
    resp = np.exp(1j * rng.uniform(0, 2 * np.pi, 7))
    assert np.linalg.norm(mrt_beam(resp)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mrt_beam(np.zeros(3, dtype=complex))


def test_closed_form_path_gain_arithmetic():
    assert closed_form_path_gain(1, 400, 1, 1e-3, [10, 10]) == pytest.approx(1.6e-5)
    # doubling M: factor 2^(2n)
    g2 = closed_form_path_gain(2, 20, 4, 1e-3, [5, 7, 9])
    g2_doubled = closed_form_path_gain(2, 40, 4, 1e-3, [5, 7, 9])
    assert g2_doubled / g2 == pytest.approx(16.0)
    assert math.log2(g2_doubled / g2) == pytest.approx(4.0)
    g1 = closed_form_path_gain(1, 20, 4, 1e-3, [5, 7])
    g1_doubled = closed_form_path_gain(1, 40, 4, 1e-3, [5, 7])
    assert math.log2(g1_doubled / g1) == pytest.approx(2.0)


@pytest.mark.parametrize("args, name", [
    ((1, 400, 1, 1e-3, [-10, 10]), "distances"),
    ((1, 400, 1, 1e-3, [0.0, 10]), "distances"),
    ((1, 0, 1, 1e-3, [10, 10]), "m_elements"),
    ((2, [400, -1], 1, 1e-3, [10, 10, 10]), "m_elements"),
    ((1, 400, 1, 0.0, [10, 10]), "beta"),
], ids=["negative_distance", "zero_distance", "zero_elements", "negative_elements", "zero_beta"])
def test_closed_form_path_gain_rejects_a_value_that_is_not_positive_and_finite(args, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            closed_form_path_gain(*args)


def test_loglog_gain_slopes_in_m():
    scene_tpl = lambda m0, hops: build_scene(zigzag_config(n_hops=hops, m0=m0, n_bs=2))
    for hops, slope in [(1, 2.0), (2, 4.0)]:
        logm, logg = [], []
        for m0 in (10, 14, 20, 28, 40):
            scene = scene_tpl(m0, hops)
            channels = synthesize_channels(scene, 33)
            g = _aligned_gain(channels, list(range(1, hops + 1)))
            logm.append(math.log(m0 * m0))
            logg.append(math.log(g))
        fit = np.polyfit(logm, logg, 1)[0]
        assert fit == pytest.approx(slope, abs=0.1)


# ---------------------------------------------------------------------------
# alternating optimization
# ---------------------------------------------------------------------------

def test_ao_reaches_closed_form_on_pure_los_double():
    scene = build_scene(double_chain_config())
    assert build_los_graph(scene, 1, False).edge_order == ((2, 3), (1, 2), (0, 1))
    channels = synthesize_channels(scene, 37)
    sol = ao_joint_beamforming(channels, user=1)
    assert sol.converged
    assert sol.achieved_gains[1] == pytest.approx(_double_closed_form(scene), rel=1e-6)


def test_ao_objective_monotone():
    cfg = double_only_config(m0=3, n_bs=2, kappa_db=3)
    scene = build_scene(cfg)
    channels = synthesize_channels(scene, 38)
    objectives = []

    # run AO step by step by capping iterations
    prev = None
    for iters in range(1, 8):
        sol = ao_joint_beamforming(channels, user=1, max_iters=iters)
        objectives.append(sol.achieved_gains[1])
        if prev is not None:
            assert sol.achieved_gains[1] >= prev - 1e-18
        prev = sol.achieved_gains[1]


def test_ao_beats_random_sampling():
    cfg = double_only_config(m0=2, n_bs=2, kappa_db=3)
    scene = build_scene(cfg)
    channels = synthesize_channels(scene, 39)
    sol = ao_joint_beamforming(channels, user=1)
    rng = np.random.default_rng(40)
    best = 0.0
    for _ in range(10_000):
        phases = {j: np.exp(1j * rng.uniform(0, 2 * np.pi, 4)) for j in (1, 2)}
        h = effective_channel(channels, 1, phases, include_direct=False)
        best = max(best, float(np.linalg.norm(h) ** 2))
    assert sol.achieved_gains[1] >= best


def test_ao_phases_stay_unit_modulus():
    channels = synthesize_channels(build_scene(double_chain_config()), 41)
    sol = ao_joint_beamforming(channels, user=1)
    for theta in sol.phases.values():
        assert np.allclose(np.abs(theta), 1.0, atol=1e-12)


def test_optimize_path_phases_matches_closed_form_on_los(chain_scene):
    channels = synthesize_channels(chain_scene, 42)
    _, gain = optimize_path_phases(channels, [1], user=1)
    want = _aligned_gain(channels, [1])
    assert gain == pytest.approx(want, rel=1e-9)


def _no_composition(*args, **kwargs):
    raise AssertionError("a channel was composed")


def test_ao_rejects_a_negative_round_cap_before_any_composition(double_scene, monkeypatch):
    channels = synthesize_channels(double_scene, 43)
    monkeypatch.setattr(beams, "effective_channel", _no_composition)
    monkeypatch.setattr(beams, "effective_channel_affine", _no_composition)
    with pytest.raises(ValueError, match="max_iters must be >= 0, got -2"):
        ao_joint_beamforming(channels, user=1, max_iters=-2)


def test_optimize_path_phases_rejects_a_negative_sweep_cap_before_any_composition(
        chain_scene, monkeypatch):
    channels = synthesize_channels(chain_scene, 44)
    monkeypatch.setattr(beams, "_compose", _no_composition)
    with pytest.raises(ValueError, match="max_sweeps must be >= 0, got -1"):
        optimize_path_phases(channels, [1], user=1, max_sweeps=-1)


@pytest.mark.parametrize("cap", [1.5, "2"])
def test_round_and_sweep_caps_must_be_integers_before_any_composition(double_scene, monkeypatch,
                                                                       cap):
    channels = synthesize_channels(double_scene, 43)
    for name in ("effective_channel", "effective_channel_affine", "_compose"):
        monkeypatch.setattr(beams, name, _no_composition)
    with pytest.raises(ValueError, match=f"max_iters must be an integer, got {cap!r}"):
        ao_joint_beamforming(channels, user=1, max_iters=cap)
    with pytest.raises(ValueError, match=f"max_sweeps must be an integer, got {cap!r}"):
        optimize_path_phases(channels, [1], user=1, max_sweeps=cap)


@pytest.mark.parametrize("path", [[], [1, 99], [1, 1]])
def test_optimize_path_phases_rejects_a_bad_path_before_any_composition(
        double_scene, monkeypatch, path):
    channels = synthesize_channels(double_scene, 47)
    monkeypatch.setattr(beams, "_compose", _no_composition)
    got = re.escape(str(path))
    with pytest.raises(ValueError, match=rf"path must list distinct IRS ids in 1\.\.2, got {got}"):
        optimize_path_phases(channels, path, user=1)
    with pytest.raises(ValueError, match=rf"path .*got {got}"):
        cascaded_path_channel(channels, path, unit_phases(double_scene))
    with pytest.raises(ValueError, match=rf"path .*got {got}"):
        multi_hop_phases(channels, path)


@pytest.mark.parametrize("user", [0, 3, 99])
def test_route_phases_and_channel_reject_an_unknown_user_before_any_composition(
        monkeypatch, user):
    channels = synthesize_channels(build_scene(indoor_hall_config(m0=4, kappa_db="inf")), 49)
    route, message = (3, 4, 5), rf"user must name distinct users in 1\.\.2, got {user}"
    monkeypatch.setattr(beams, "_compose", _no_composition)
    monkeypatch.setattr(irsim.channels, "_compose", _no_composition)
    for call in (lambda: cascaded_path_channel(channels, route, unit_phases(channels.scene),
                                               user=user),
                 lambda: multi_hop_phases(channels, route, user=user),
                 lambda: optimize_path_phases(channels, route, user=user)):
        with pytest.raises(ValueError, match=message):
            call()


def test_ao_round_is_one_sweep_and_one_closing_channel(monkeypatch):
    """Each AO round runs one surface sweep (one `effective_channel_affine`
    call) and one closing `effective_channel`, after the starting one."""
    channels = synthesize_channels(build_scene(zigzag_config(m0=2, n_bs=3, kappa_db=6)), 48)
    calls = collections.Counter()

    def counting(name, compose):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return compose(*args, **kwargs)
        return wrapped

    for name in ("effective_channel", "effective_channel_affine"):
        monkeypatch.setattr(beams, name, counting(name, getattr(beams, name)))
    for k in (0, 1, 4):
        calls.clear()
        sol = ao_joint_beamforming(channels, user=1, max_iters=k)
        assert sol.iterations == k and not (k and sol.converged)
        assert (calls["effective_channel"], calls["effective_channel_affine"]) == (k + 1, k)


def test_fig6_csv_matches_its_golden_digest(capsys, monkeypatch):
    """The CSV bytes of `irsim run --scenario fig6 --seed 0 --trials 10`, as
    computed when each surface of a path still took its own composition:
    the sweep keeps the path optimizer's BS-first update order.  They are
    the same whether the Rayleigh trials draw every link of the scene or, as
    they do, only the route's links."""
    calls = collections.Counter()
    real = irsim.channels._link_rng
    monkeypatch.setattr(irsim.channels, "_link_rng", lambda seed, i, j: (
        calls.update([(seed == 0, i, j)]) or real(seed, i, j)))
    assert main(["run", "--scenario", "fig6", "--seed", "0", "--trials", "10"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "db1019e49e3a10aff342f0552ee3b6af55e4cf0bc54e7d5092cf01ceacd7d8aa"
    # the LoS channel sets draw at the run's seed 0, each Rayleigh trial at its own
    rayleigh = {(i, j): n for (los, i, j), n in calls.items() if not los}
    assert rayleigh == {link: 6 * 10 for link in route_links([1, 2], 3)}     # 6 sizes, 10 trials


def test_uniform_channel_scaling_preserves_argmax():
    # scale the user-side links: every reflection path contains exactly one,
    # so the effective channel scales by a common positive constant
    cfg = double_only_config(m0=2, n_bs=3, kappa_db=6)
    scene = build_scene(cfg)
    channels = synthesize_channels(scene, 43)
    sol1 = ao_joint_beamforming(channels, user=1)
    scaled = synthesize_channels(scene, 43)
    user_node = scene.n_irs + 1
    for key in list(scaled.links):
        link = scaled.links[key]
        if key[1] != user_node:
            continue
        scaled.links[key] = type(link)(
            i=link.i, j=link.j, matrix=4.0 * link.matrix, distance_m=link.distance_m,
            path_loss_linear=link.path_loss_linear, los_gain=link.los_gain,
            los_rx=link.los_rx, los_tx=link.los_tx)
    sol2 = ao_joint_beamforming(scaled, user=1)
    align = abs(np.vdot(sol1.bs_beams[1], sol2.bs_beams[1]))
    assert align == pytest.approx(1.0, abs=1e-9)
    for j in (1, 2):
        assert np.allclose(sol1.phases[j], sol2.phases[j], atol=1e-9)
    assert sol2.achieved_gains[1] == pytest.approx(16.0 * sol1.achieved_gains[1], rel=1e-9)

    # receiver directions are invariant to scaling the multi-user matrix
    rng = np.random.default_rng(99)
    h = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    r1 = linear_receivers(h, 1e-3, 1.0, "zf").beams
    r2 = linear_receivers(5.0 * h, 1e-3, 1.0, "zf").beams
    for k in range(3):
        c1 = r1[:, k] / np.linalg.norm(r1[:, k])
        c2 = r2[:, k] / np.linalg.norm(r2[:, k])
        assert abs(np.vdot(c1, c2)) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# linear receivers
# ---------------------------------------------------------------------------

def test_zf_orthogonal_columns():
    h = np.eye(4, 2).astype(complex) * 3.0
    res = linear_receivers(h, noise_power=1e-2, tx_power=2.0, scheme="zf")
    assert not res.rank_deficient
    assert np.allclose(res.sinrs, 2.0 * 9.0 / 1e-2)


def test_single_user_all_schemes_align():
    rng = np.random.default_rng(44)
    h = (rng.standard_normal(5) + 1j * rng.standard_normal(5)).reshape(5, 1)
    dirs = []
    for scheme in ("zf", "mmse"):
        res = linear_receivers(h, 1e-3, 1.0, scheme)
        dirs.append(res.beams[:, 0] / np.linalg.norm(res.beams[:, 0]))
    for d in dirs[1:]:
        assert abs(np.vdot(dirs[0], d)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("scheme", ["zf", "mmse"])
def test_receivers_reject_a_user_with_an_all_zero_channel(scheme):
    h = np.eye(4, 2).astype(complex)
    h[:, 1] = 0.0
    with pytest.raises(ValueError, match="H has an all-zero column"):
        linear_receivers(h, 1e-3, 1.0, scheme)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["noise_power", "tx_power"])
def test_receivers_reject_a_power_that_is_not_positive_and_finite(name, value):
    powers = {"noise_power": 1e-3, "tx_power": 1.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be positive and finite, got {value}"):
        linear_receivers(np.eye(4, 2).astype(complex), scheme="zf", **powers)


@pytest.mark.parametrize("H", [np.ones(3), np.array(1.0), np.ones((4, 2, 1))],
                         ids=["vector", "scalar", "three_d"])
def test_receivers_reject_a_channel_that_is_not_a_matrix(H):
    message = rf"H must be a 2-D .* got shape {re.escape(str(H.shape))}"
    with pytest.raises(ValueError, match=message):
        linear_receivers(H, 1.0, 1.0)


def test_rank_deficient_zf_saturates():
    rng = np.random.default_rng(45)
    base = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    h = np.stack([base, 1.1 * base, 0.9 * base], axis=1)   # rank one, K = 3
    res_low = linear_receivers(h, 1e-9, 1.0, "zf")
    res_high = linear_receivers(h, 1e-9, 1e6, "zf")
    assert res_low.rank_deficient and res_high.rank_deficient
    # min SINR changes by less than 1% over 60 dB of power
    assert res_high.sinrs.min() == pytest.approx(res_low.sinrs.min(), rel=0.01)


def test_mmse_dominates_zf_on_deficient_channel():
    rng = np.random.default_rng(46)
    base = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    h = np.stack([base, base * (1 + 0.01j), rng.standard_normal(8) * 0.01 + base],
                 axis=1)
    for power in (1e-3, 1.0, 1e3):
        zf = linear_receivers(h, 1e-6, power, "zf")
        mmse = linear_receivers(h, 1e-6, power, "mmse")
        assert np.all(mmse.sinrs >= zf.sinrs - 1e-9)


def test_rank_gain_check_on_double_irs_instance():
    # the multi-user study layout: user-side surface alone is rank one
    from irsim.scenarios import double_irs_config, with_users
    cfg = with_users(double_irs_config(n_bs=8, irs_shape=(4, 4), kappa_db="inf",
                                       bs_irs1_kappa_db=10.0),
                     [[46 + k, -3 - k, 1.5] for k in range(3)])
    scene = build_scene(cfg)
    channels = synthesize_channels(scene, 48)
    phases = unit_phases(scene)
    cols_single, cols_double = [], []
    for k in (1, 2, 3):
        cols_single.append(effective_channel(channels, k, phases, include_direct=False,
                                             irs_subset=[2]))
        cols_double.append(effective_channel(channels, k, phases, include_direct=False,
                                             irs_subset=[1, 2]))
    h_s = np.stack(cols_single, axis=1)
    h_d = np.stack(cols_double, axis=1)
    g2 = np.stack([np.conj(channels.get(2, scene.n_irs + k).matrix[0]) for k in (1, 2, 3)],
                  axis=1)
    q02 = channels.get(0, 2).matrix
    assert numerical_rank(h_s) == 1          # pure LoS far link bottleneck
    assert numerical_rank(h_d) == 3          # all users separable again
    assert numerical_rank(h_d) - numerical_rank(h_s) >= min(numerical_rank(g2),
                                                            numerical_rank(q02))

