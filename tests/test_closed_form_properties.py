"""Randomized oracle of the closed-form path gain.

On random pure-LoS corridor scenes (surfaces alternating on both sides
between the BS and the user, each with its own element count), every
reflection route of the LoS graph, aligned by `multi_hop_phases` with MRT at
the BS, must attain the closed-form peak gain that routing scores it by
(`routing.path_gain`).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from irsim.beams import multi_hop_phases  # noqa: E402
from irsim.channels import cascaded_path_channel, mrt_beam, synthesize_channels  # noqa: E402
from irsim.geometry import build_los_graph, build_scene  # noqa: E402
from irsim.routing import enumerate_routes, path_gain  # noqa: E402


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
    channels = synthesize_channels(scene, draw(st.integers(0, 2 ** 16)))
    return channels, graph, draw(st.sampled_from(routes))


@settings(max_examples=250, deadline=None)
@given(pure_los_routes())
def test_aligned_route_attains_its_closed_form_gain(instance):
    channels, graph, route = instance
    scene = channels.scene
    sizes = {j: scene.irs[j - 1].size for j in route}
    peak = path_gain(graph, route, sizes, scene.constants.beta, scene.n_bs)
    h = cascaded_path_channel(channels, route, multi_hop_phases(channels, route))
    got = float(abs(h @ mrt_beam(h)) ** 2)
    assert abs(got - peak) <= 1e-10 * peak
