"""Randomized identities of the channel composition core.

Small random corridor scenes (surfaces alternating on both sides between the
BS and the users) with random unit-modulus phases: the dynamic program must
agree with the explicit path sum, the affine form must rebuild the full
channel for every surface, its projection onto a BS beam must equal the
matrix form times that beam, and a path-restricted evaluator must reproduce
the cascaded path channel.  The sweep form of the affine decomposition must
yield the surfaces its paths cross BS first, equal the single-surface form
when nothing moves, and stay exact while the caller moves each surface.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from irsim.channels import (_compose, _path_edges, cascaded_path_channel,  # noqa: E402
                            effective_channel, effective_channel_affine,
                            enumerate_graph_paths, synthesize_channels)
from irsim.geometry import build_los_graph, build_scene  # noqa: E402
from irsim.training import GainEvaluator  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def random_instances(draw):
    """(channels, random phases, user, irs subset, los_only) on a random scene."""
    n_irs = draw(st.integers(2, 4))
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
    return (channels, phases, draw(st.integers(1, n_users)), subset, draw(st.booleans()),
            rng)


def _assert_close(got, want, scale):
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * scale + 1e-300)


@PROPERTY_SETTINGS
@given(random_instances())
def test_dp_equals_explicit_path_sum(instance):
    channels, phases, user, subset, los_only, _ = instance
    graph = build_los_graph(channels.scene, user, require_los=los_only)
    terms = [cascaded_path_channel(channels, seq, phases, user=user)
             for seq in enumerate_graph_paths(graph) if set(seq) <= set(subset)]
    want = np.sum(terms, axis=0) if terms else np.zeros(channels.scene.n_bs, dtype=complex)
    h = effective_channel(channels, user, phases, los_only=los_only,
                          include_direct=False, irs_subset=subset)
    _assert_close(h, want, sum(np.linalg.norm(t) for t in terms))
    h_direct = effective_channel(channels, user, phases, los_only=los_only, irs_subset=subset)
    _assert_close(h_direct - h, channels.direct(user), np.linalg.norm(h_direct))


@PROPERTY_SETTINGS
@given(random_instances())
def test_affine_form_rebuilds_channel_for_every_surface(instance):
    channels, phases, user, subset, los_only, rng = instance
    used = {j: phases[j] for j in subset}          # surfaces outside get no phases
    compose = dict(los_only=los_only, irs_subset=subset)
    h = effective_channel(channels, user, used, **compose)
    for j in range(1, channels.scene.n_irs + 1):
        base, coeff = effective_channel_affine(channels, user, used, j, **compose)
        assert coeff.shape == (channels.scene.irs[j - 1].size, channels.scene.n_bs)
        if j not in subset:
            assert not coeff.any()
            _assert_close(base, h, np.linalg.norm(h))
            continue
        scale = np.linalg.norm(base) + np.abs(coeff).sum()
        _assert_close(base + phases[j] @ coeff, h, scale)
        # the decomposition stays exact for any other phase vector of surface j
        other = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, coeff.shape[0]))
        moved = effective_channel(channels, user, {**used, j: other}, **compose)
        _assert_close(base + other @ coeff, moved, scale)


def _assert_projection(projected, matrix_form, w):
    """(a_w, b_w) equals (a @ w, B @ w) within 1e-12 of the matrix form's
    scale (w is unit norm); a surface no path crosses projects to b_w = 0."""
    (a_w, b_w), (a, B) = projected, matrix_form
    assert np.shape(a_w) == () and b_w.shape == B.shape[:1]
    scale = np.linalg.norm(a) + np.linalg.norm(B) + 1e-300
    assert abs(a_w - a @ w) <= 1e-12 * scale
    assert np.all(np.abs(b_w - B @ w) <= 1e-12 * scale)
    if not B.any():
        assert not b_w.any()


@PROPERTY_SETTINGS
@given(random_instances())
def test_projected_affine_form_is_matrix_form_times_beam(instance):
    channels, phases, user, subset, los_only, rng = instance
    scene = channels.scene
    w = rng.normal(size=scene.n_bs) + 1j * rng.normal(size=scene.n_bs)
    w /= np.linalg.norm(w)
    for include_direct in (False, True):
        compose = dict(los_only=los_only, irs_subset=subset, include_direct=include_direct)
        for j in range(1, scene.n_irs + 1):
            _assert_projection(effective_channel_affine(channels, user, phases, j, w=w, **compose),
                               effective_channel_affine(channels, user, phases, j, **compose), w)
    target = scene.n_irs + user
    for seq in enumerate_graph_paths(build_los_graph(scene, user, require_los=los_only)):
        edges = _path_edges(seq, target)
        for j in range(1, scene.n_irs + 1):
            _assert_projection(_compose(channels, edges, phases, j, w),
                               _compose(channels, edges, phases, j), w)


@PROPERTY_SETTINGS
@given(random_instances())
def test_path_evaluator_matches_cascaded_path_channel(instance):
    channels, phases, user, _, los_only, _ = instance
    scene = channels.scene
    target = scene.n_irs + user
    for seq in enumerate_graph_paths(build_los_graph(scene, user, require_los=los_only)):
        h = cascaded_path_channel(channels, seq, phases, user=user)
        evaluator = GainEvaluator(channels, [user], path=seq)
        np.testing.assert_array_equal(evaluator._channel(user, phases), h)
        # independent reference: H_last diag(theta_n) ... diag(theta_1) H_first
        hops = [0, *seq, target]
        ref = channels.get(0, seq[0]).matrix
        for a, b in zip(hops[1:-1], hops[2:]):
            ref = channels.get(a, b).matrix @ (phases[a][:, None] * ref)
        _assert_close(h, ref[0], np.linalg.norm(ref))


def _unit_beam(rng, n):
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    return w / np.linalg.norm(w)


@PROPERTY_SETTINGS
@given(random_instances())
def test_sweep_yields_the_crossed_surfaces_bs_first(instance):
    channels, phases, user, subset, los_only, _ = instance
    graph = build_los_graph(channels.scene, user, require_los=los_only)
    paths = [seq for seq in enumerate_graph_paths(graph) if set(seq) <= set(subset)]
    sweep = effective_channel_affine(channels, user, phases, subset[::-1], los_only=los_only,
                                     irs_subset=subset)
    order = [j for j, _, _ in sweep]
    assert sorted(order) == sorted({j for seq in paths for j in seq})
    for seq in paths:                  # each path meets its surfaces in yield order
        assert [j for j in order if j in seq] == list(seq)
    sources = list(dict.fromkeys(a for a, _ in graph.edge_order))
    assert order == [v for v in reversed(sources) if v in order]


@PROPERTY_SETTINGS
@given(random_instances())
def test_sweep_without_updates_equals_each_single_surface_form(instance):
    channels, phases, user, subset, los_only, rng = instance
    for w in (_unit_beam(rng, channels.scene.n_bs), None):
        for include_direct in (False, True):
            compose = dict(los_only=los_only, irs_subset=subset, include_direct=include_direct,
                           w=w)
            for j, base, coeff in effective_channel_affine(channels, user, phases, subset,
                                                           **compose):
                want_base, want_coeff = effective_channel_affine(channels, user, phases, j,
                                                                 **compose)
                np.testing.assert_array_equal(coeff, want_coeff)
                _assert_close(base, want_base, np.linalg.norm(want_base) + np.abs(coeff).sum())


@PROPERTY_SETTINGS
@given(random_instances())
def test_sweep_carries_each_update_into_the_total(instance):
    """Moving each yielded surface to random phases before resuming, every
    pair (a, B) still rebuilds the full channel at the current phases."""
    channels, phases, user, subset, los_only, rng = instance
    compose = dict(los_only=los_only, irs_subset=subset)
    for w in (_unit_beam(rng, channels.scene.n_bs), None):
        current = {j: theta.copy() for j, theta in phases.items()}
        scale = 0.0                    # bounds every path term met so far
        for j, base, coeff in effective_channel_affine(channels, user, current, subset, w=w,
                                                       **compose):
            scale = max(scale, np.linalg.norm(base) + np.abs(coeff).sum())
            for move in (False, True):     # as yielded, then after the move
                if move:
                    current[j][:] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, coeff.shape[0]))
                h = effective_channel(channels, user, current, **compose)
                _assert_close(base + current[j] @ coeff, h if w is None else h @ w, scale)
