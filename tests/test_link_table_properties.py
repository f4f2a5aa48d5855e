"""Randomized check of the per-scene link table against the link rule.

On small random corridor scenes (surfaces alternating on both sides between
the BS and the users) with random effective regions, the LoS graphs, channel
synthesis, the training neighbour sets and route separation must give what a
brute-force pass of the public rule (`is_admissible_link`, `los_indicator`)
over every node pair gives.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from irsim.channels import enumerate_graph_paths, synthesize_channels  # noqa: E402
from irsim.geometry import (build_los_graph, build_scene, is_admissible_link,  # noqa: E402
                            los_indicator)
from irsim.routing import ReflectionPath, check_path_separation  # noqa: E402
from irsim.training import irs_neighbor_sets  # noqa: E402


@st.composite
def corridor_scenes(draw):
    """Surfaces alternating on both sides between the BS and the users, with
    random effective regions."""
    n_irs = draw(st.integers(2, 4))
    irs = []
    for j in range(n_irs):
        side = 1.0 if j % 2 == 0 else -1.0
        irs.append({
            "position": [4.0 + 5.0 * j + draw(st.floats(-1.0, 1.0)),
                         side * draw(st.floats(2.0, 4.0)), 2.0],
            "normal": [draw(st.floats(-0.4, 0.4)), -side, 0.0],
            "m0": 1,
        })
    n_users = draw(st.integers(1, 3))
    regions = {str(k): sorted(draw(st.sets(st.integers(1, n_irs))))
               for k in range(1, n_users + 1) if draw(st.booleans())}
    return build_scene({
        "bs": {"position": [0, 0, 2], "normal": [1, 0, 0], "n_elements": 1},
        "irs": irs,
        "users": [[30.0, draw(st.floats(-3.0, 3.0)), 1.5] for _ in range(n_users)],
        "obstacles": ([{"min": [14, -0.5, 0], "max": [15, 0.5, 3]}]
                      if draw(st.booleans()) else []),
        "constants": {"kappa_db": "inf"},
        "effective_regions": regions,
    })


def _reference_synthesis_order(scene):
    """Link order of channel synthesis: target node ascending, then source
    ascending, each pair kept by the admissibility rule."""
    n_irs, n_users = scene.n_irs, scene.n_users
    pairs = []
    for j in range(1, n_irs + 1):
        pairs += [(i, j) for i in range(n_irs + 1) if i != j and is_admissible_link(scene, i, j)]
    for k in range(1, n_users + 1):
        target = n_irs + k
        pairs += [(0, target)] + [(j, target) for j in sorted(scene.effective_regions[k - 1])
                                  if is_admissible_link(scene, j, target)]
    return pairs


@settings(max_examples=60, deadline=None)
@given(corridor_scenes())
def test_table_readers_match_brute_force_rule(scene):
    nodes = range(scene.n_irs + scene.n_users + 1)
    for user in range(1, scene.n_users + 1):
        target = scene.n_irs + user
        graph_nodes = (0, *sorted(scene.effective_regions[user - 1]), target)
        for require_los in (True, False):
            rule = los_indicator if require_los else is_admissible_link
            want = {(i, j) for i in graph_nodes for j in graph_nodes
                    if (i, j) != (0, target) and rule(scene, i, j)}
            assert build_los_graph(scene, user, require_los).edges == want

    assert list(synthesize_channels(scene, 0).links) == _reference_synthesis_order(scene)

    for j in nodes:
        assert irs_neighbor_sets(scene, j) == (
            [i for i in nodes if los_indicator(scene, i, j)],
            [w for w in nodes if los_indicator(scene, j, w)])

    routes = [ReflectionPath(irs_sequence=seq, user=user, gain=1.0)
              for user in range(1, scene.n_users + 1)
              for seq in enumerate_graph_paths(build_los_graph(scene, user, require_los=False))]
    for pa, pb in itertools.combinations(routes, 2):
        if pa.user == pb.user:
            continue
        ends_a = (*pa.irs_sequence, scene.n_irs + pa.user)
        ends_b = (*pb.irs_sequence, scene.n_irs + pb.user)
        separated = not set(pa.irs_sequence) & set(pb.irs_sequence) and not any(
            los_indicator(scene, a, b) or los_indicator(scene, b, a)
            for a in ends_a for b in ends_b)
        assert check_path_separation(scene, {pa.user: pa, pb.user: pb}) == separated
