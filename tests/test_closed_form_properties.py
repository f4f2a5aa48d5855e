"""Randomized oracles of the closed forms that routing and training rely on.

On random pure-LoS corridor scenes (surfaces alternating on both sides
between the BS and the user, each with its own element count), every
reflection route of the LoS graph, aligned by `multi_hop_phases` with MRT at
the BS, must attain the closed-form peak gain that routing scores it by
(`routing.path_gain`), and the training tables' composed estimate must equal
the true gain of any beam choice.  On random reflection graphs, the edge
weights of a route must add up to the negative log of its closed-form gain.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from irsim.beams import multi_hop_phases  # noqa: E402
from irsim.channels import cascaded_path_channel, mrt_beam, synthesize_channels  # noqa: E402
from irsim.geometry import build_los_graph, build_scene, route_links  # noqa: E402
from irsim.routing import edge_weight, enumerate_routes, path_gain  # noqa: E402
from irsim.training import (assemble_global_btt, beams_from_choices,  # noqa: E402
                            build_bs_btt, build_irs_btt, dft_codebook,
                            planar_passive_codebook)

from conftest import synthetic_graph  # noqa: E402
from test_training import _estimate  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=500, deadline=None)


@st.composite
def pure_los_routes(draw):
    """(channels, user-1 LoS graph, route) on a random pure-LoS corridor."""
    n_irs = draw(st.integers(1, 5))
    irs = []
    for j in range(n_irs):
        side = 1.0 if j % 2 == 0 else -1.0
        irs.append({
            "position": [4.0 + 5.0 * j + draw(st.floats(-1.0, 1.0)),
                         side * draw(st.floats(2.0, 4.0)), draw(st.floats(1.0, 3.0))],
            "normal": [draw(st.floats(-0.4, 0.4)), -side, 0.0],
            "m0": draw(st.integers(1, 3)),
        })
    n_bs = draw(st.integers(1, 4))
    scene = build_scene({
        "bs": {"position": [0, 0, 2], "normal": [1, 0, 0],
               "shape": [n_bs, 1], "n_elements": n_bs},
        "irs": irs,
        "users": [[4.0 + 5.0 * n_irs + draw(st.floats(0.0, 6.0)),
                   draw(st.floats(-3.0, 3.0)), 1.5]],
        "constants": {"beta_db": draw(st.floats(-40.0, -20.0)), "kappa_db": "inf",
                      "carrier_hz": 5e9, "noise_dbm": -90, "tx_dbm": 0},
    })
    graph = build_los_graph(scene, 1)
    routes = enumerate_routes(graph)
    assume(routes)
    route = draw(st.sampled_from(routes))
    channels = synthesize_channels(scene, draw(st.integers(0, 2 ** 16)),
                                   links=route_links(route, graph.user_node))
    return channels, graph, route


@PROPERTY_SETTINGS
@given(pure_los_routes())
def test_aligned_route_attains_its_closed_form_gain(instance):
    channels, graph, route = instance
    scene = channels.scene
    sizes = {j: scene.irs[j - 1].size for j in route}
    peak = path_gain(graph, route, sizes, scene.constants.beta, scene.n_bs)
    h = cascaded_path_channel(channels, route, multi_hop_phases(channels, route))
    got = float(abs(h @ mrt_beam(h)) ** 2)
    assert abs(got - peak) <= 1e-10 * peak


@PROPERTY_SETTINGS
@given(pure_los_routes())
def test_table_estimate_is_the_true_gain_of_any_beams(instance):
    # about a quarter of random beam sets sit in exact nulls, where the DP
    # and the table product agree only to rounding: the tolerance is scaled
    # by the route's peak gain, not by the value
    channels, graph, route = instance
    scene = channels.scene
    links = route_links(route, graph.user_node)
    bs_cb = dft_codebook(scene.n_bs, scene.n_bs, kind="active")
    irs_cbs = {j: planar_passive_codebook(*scene.irs[j - 1].shape) for j in route}
    gbtt = assemble_global_btt(
        build_bs_btt(scene, bs_cb, threshold=0.0, averages=1, next_nodes=[route[0]]),
        [build_irs_btt(scene, j, irs_cbs[j], threshold=0.0, averages=1,
                       prev_nodes=[links[i][0]], next_nodes=[links[i + 1][1]])
         for i, j in enumerate(route)])
    rng = np.random.default_rng(channels.seed)       # the beam set follows the drawn seed
    choices = {0: int(rng.integers(bs_cb.size)),
               **{j: int(rng.integers(irs_cbs[j].size)) for j in route}}
    w, phases = beams_from_choices(bs_cb, irs_cbs, choices)
    true = float(abs(cascaded_path_channel(channels, route, phases) @ w) ** 2)
    peak = path_gain(graph, route, {j: scene.irs[j - 1].size for j in route},
                     scene.constants.beta, scene.n_bs)
    assert abs(_estimate(gbtt, route, graph.user_node, choices) - true) <= 1e-12 * peak


@PROPERTY_SETTINGS
@given(st.integers(0, 2 ** 32 - 1))
def test_edge_weights_add_up_to_the_log_path_gain(seed):
    rng = np.random.default_rng(seed)
    n_irs = int(rng.integers(2, 6))
    graph = synthetic_graph(rng, n_irs, edge_prob=0.8)
    routes = enumerate_routes(graph)
    assume(routes)
    sizes = {j: int(rng.integers(1, 65)) for j in range(1, n_irs + 1)}
    n_bs, beta = int(rng.integers(1, 65)), 10.0 ** (rng.uniform(-4.0, -2.0))
    for route in routes:
        weight = sum(edge_weight((a, b, b == graph.user_node), graph.distances[(a, b)], sizes, beta)
                     for a, b in route_links(route, graph.user_node))
        want = -math.log(path_gain(graph, route, sizes, beta, n_bs) / n_bs)
        assert abs(weight - want) <= 1e-12 * max(1.0, abs(want))
