"""Randomized identities of the channel composition core.

Small random corridor scenes (surfaces alternating on both sides between the
BS and the users) with random unit-modulus phases: the dynamic program must
agree with the explicit path sum, and a path-restricted evaluator must
reproduce the cascaded path channel.  The sweep of affine forms projected
onto a BS beam must rebuild the full channel for every surface it yields,
yield the surfaces its paths cross BS first, and stay exact while the caller
moves each surface.  Sequential search along a route must make the choices
of a search that re-scores every beam by full recomposition.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from irsim.channels import (cascaded_path_channel, effective_channel,  # noqa: E402
                            effective_channel_affine, enumerate_graph_paths,
                            synthesize_channels)
from irsim.geometry import build_los_graph, build_scene  # noqa: E402
from irsim.training import (GainEvaluator, beams_from_choices, dft_codebook,  # noqa: E402
                            planar_passive_codebook, sequential_search)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def random_instances(draw, irs_counts=st.integers(2, 4)):
    """(channels, random phases, user, irs subset, rng) on a random scene of
    `irs_counts` surfaces."""
    n_irs = draw(irs_counts)
    irs = []
    for j in range(n_irs):
        side = 1.0 if j % 2 == 0 else -1.0
        irs.append({
            "position": [4.0 + 5.0 * j + draw(st.floats(-1.0, 1.0)),
                         side * draw(st.floats(2.0, 4.0)), 2.0],
            "normal": [draw(st.floats(-0.4, 0.4)), -side, 0.0],
            "m0": draw(st.integers(1, 2)),
        })
    n_users = draw(st.integers(1, 2))
    n_bs = draw(st.integers(1, 3))
    config = {
        "bs": {"position": [0, 0, 2], "normal": [1, 0, 0],
               "shape": [n_bs, 1], "n_elements": n_bs},
        "irs": irs,
        "users": [[30.0, draw(st.floats(-3.0, 3.0)), 1.5] for _ in range(n_users)],
        "obstacles": ([{"min": [14, -0.5, 0], "max": [15, 0.5, 3]}]
                      if draw(st.booleans()) else []),
        "constants": {"beta_db": -30, "kappa_db": draw(st.sampled_from([0.0, 10.0, "inf", "-inf"])),
                      "carrier_hz": 5e9, "noise_dbm": -90, "tx_dbm": 0},
    }
    scene = build_scene(config)
    channels = synthesize_channels(scene, draw(st.integers(0, 2 ** 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    phases = {j: np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, scene.irs[j - 1].size))
              for j in range(1, n_irs + 1)}
    subset = sorted(draw(st.sets(st.integers(1, n_irs), min_size=1)))
    return channels, phases, draw(st.integers(1, n_users)), subset, rng


def _assert_close(got, want, scale):
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * scale + 1e-300)


@PROPERTY_SETTINGS
@given(random_instances())
def test_dp_equals_explicit_path_sum(instance):
    channels, phases, user, subset, _ = instance
    graph = build_los_graph(channels.scene, user, require_los=False)
    terms = [cascaded_path_channel(channels, seq, phases, user=user)
             for seq in enumerate_graph_paths(graph) if set(seq) <= set(subset)]
    want = np.sum(terms, axis=0) if terms else np.zeros(channels.scene.n_bs, dtype=complex)
    h = effective_channel(channels, user, phases, include_direct=False, irs_subset=subset)
    _assert_close(h, want, sum(np.linalg.norm(t) for t in terms))
    h_direct = effective_channel(channels, user, phases, irs_subset=subset)
    _assert_close(h_direct - h, channels.direct(user), np.linalg.norm(h_direct))


def _unit_beam(rng, n):
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    return w / np.linalg.norm(w)


@PROPERTY_SETTINGS
@given(random_instances())
def test_affine_form_rebuilds_channel_for_every_surface(instance):
    channels, phases, user, _, rng = instance
    scene = channels.scene
    w = _unit_beam(rng, scene.n_bs)
    amp = effective_channel(channels, user, phases, include_direct=False) @ w
    every = range(1, scene.n_irs + 1)
    for j, base, coeff in effective_channel_affine(channels, user, phases, every, w):
        assert np.shape(base) == () and coeff.shape == (scene.irs[j - 1].size,)
        scale = abs(base) + np.abs(coeff).sum()
        _assert_close(base + phases[j] @ coeff, amp, scale)
        # the decomposition stays exact for any other phase vector of surface j
        other = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, coeff.shape[0]))
        moved = effective_channel(channels, user, {**phases, j: other}, include_direct=False) @ w
        _assert_close(base + other @ coeff, moved, scale)


@PROPERTY_SETTINGS
@given(random_instances())
def test_path_evaluator_matches_cascaded_path_channel(instance):
    channels, phases, user, _, _ = instance
    scene = channels.scene
    target = scene.n_irs + user
    for seq in enumerate_graph_paths(build_los_graph(scene, user, require_los=False)):
        h = cascaded_path_channel(channels, seq, phases, user=user)
        evaluator = GainEvaluator(channels, [user], seq, seq)
        np.testing.assert_array_equal(evaluator._channel(user, phases), h)
        # independent reference: H_last diag(theta_n) ... diag(theta_1) H_first
        hops = [0, *seq, target]
        ref = channels.get(0, seq[0]).matrix
        for a, b in zip(hops[1:-1], hops[2:]):
            ref = channels.get(a, b).matrix @ (phases[a][:, None] * ref)
        _assert_close(h, ref[0], np.linalg.norm(ref))


@PROPERTY_SETTINGS
@given(random_instances())
def test_sweep_yields_the_crossed_surfaces_bs_first(instance):
    channels, phases, user, subset, rng = instance
    graph = build_los_graph(channels.scene, user, require_los=False)
    paths = enumerate_graph_paths(graph)
    sweep = effective_channel_affine(channels, user, phases, subset[::-1],
                                     _unit_beam(rng, channels.scene.n_bs))
    order = [j for j, _, _ in sweep]
    assert sorted(order) == sorted({j for seq in paths for j in seq if j in subset})
    for seq in paths:                  # each path meets the named surfaces in yield order
        assert [j for j in order if j in seq] == [j for j in seq if j in subset]
    sources = list(dict.fromkeys(a for a, _ in graph.edge_order))
    assert order == [v for v in reversed(sources) if v in order]


@PROPERTY_SETTINGS
@given(random_instances())
def test_sweep_carries_each_update_into_the_total(instance):
    """Moving each yielded surface to random phases before resuming, every
    pair (a, b) still rebuilds the projected channel at the current phases."""
    channels, phases, user, subset, rng = instance
    w = _unit_beam(rng, channels.scene.n_bs)
    current = {j: theta.copy() for j, theta in phases.items()}
    scale = 0.0                        # bounds every path term met so far
    for j, base, coeff in effective_channel_affine(channels, user, current, subset, w):
        scale = max(scale, abs(base) + np.abs(coeff).sum())
        for move in (False, True):         # as yielded, then after the move
            if move:
                current[j][:] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, coeff.shape[0]))
            amp = effective_channel(channels, user, current, include_direct=False) @ w
            _assert_close(base + current[j] @ coeff, amp, scale)


def _codebooks(scene, ids):
    """A BS codebook of 2 N_B beams and a 16-beam planar codebook per surface."""
    return (dft_codebook(2 * scene.n_bs, scene.n_bs, kind="active"),
            {j: planar_passive_codebook(4, scene.irs[j - 1].shape[0]) for j in ids})


def _oracle_search(channels, users, bs_cb, irs_cbs, compose, order, max_sweeps=20):
    """Sequential search that scores every beam by a full recomposition
    `compose(user, phases)`, sweeping the BS and then the surfaces `order`;
    returns (choices, sweeps, evaluations, objective)."""
    consts = channels.scene.constants
    codebooks = {0: bs_cb, **irs_cbs}
    choices = dict.fromkeys(codebooks, 0)
    evaluations = 0

    def score(choice):
        w, phases = beams_from_choices(bs_cb, irs_cbs, choice)
        return min(consts.tx_power * abs(compose(k, phases) @ w) ** 2 / consts.noise_power
                   for k in users)

    for sweeps in range(1, max_sweeps + 1):
        changed = False
        for node in (0, *order):
            snrs = [score({**choices, node: d}) for d in range(codebooks[node].size)]
            evaluations += len(snrs)
            new = int(np.argmax(snrs))
            if snrs[new] > snrs[choices[node]]:
                choices[node], changed = new, True
            objective = snrs[choices[node]]
        if not changed:
            break
    return choices, sweeps, evaluations, objective


def _assert_same_search(result, oracle):
    choices, sweeps, evaluations, objective = oracle
    assert {0: result.bs_index, **result.irs_indices} == choices
    assert (result.sweeps, result.evaluations) == (sweeps, evaluations)
    assert abs(result.objective - objective) <= 1e-12 * objective


@pytest.mark.parametrize("n_users", [1, 2])
@PROPERTY_SETTINGS
@given(instance=random_instances(), data=st.data())
def test_sequential_search_on_a_path_matches_recomposition(n_users, instance, data):
    channels, _, _, _, _ = instance
    scene = channels.scene
    assume(scene.n_users >= n_users)
    users = list(range(1, n_users + 1))
    paths = [seq for seq in enumerate_graph_paths(build_los_graph(scene, 1, require_los=False))
             if all((seq[-1], scene.n_irs + k) in channels.links for k in users)]
    assume(paths)
    path = data.draw(st.sampled_from(sorted(paths, key=len, reverse=True)))   # long ones first
    bs_cb, irs_cbs = _codebooks(scene, path)
    result = sequential_search(channels, users, bs_cb, irs_cbs, path=path)
    _assert_same_search(result, _oracle_search(
        channels, users, bs_cb, irs_cbs,
        lambda k, phases: cascaded_path_channel(channels, path, phases, user=k), path))
