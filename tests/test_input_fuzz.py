"""Input fuzz of the shipped scenes.

One or two scalar leaves of a shipped scene (the indoor hall at m0 = 4, the
double-surface link at 4 x 4 elements) are set to values from a fixed palette
of wrong types, non-finite numbers, extremes and plain small values.  Scene
loading must then either reject the scene with ConfigError, or the scene must
route (NoFeasiblePath is a valid outcome) and synthesize with finite outputs,
no other exception and no warning.
"""

import copy
import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from irsim.channels import synthesize_channels  # noqa: E402
from irsim.experiments import routes_payload  # noqa: E402
from irsim.geometry import ConfigError, build_scene  # noqa: E402
from irsim.routing import NoFeasiblePath  # noqa: E402
from irsim.scenarios import double_irs_config, indoor_hall_config  # noqa: E402

SCENES = {"hall": indoor_hall_config(m0=4),
          "double_irs": double_irs_config(irs_shape=(4, 4), kappa_db=10.0)}

# No value here builds a panel that is both accepted and large: every count
# above 100 exceeds the element budget in any leaf that sets one.
PALETTE = [0, 1, -1, 0.5, 2, 7, 100, 4097, 1e6, -1e6, 1e300, -1e300, 1e-320, -0.0, 1e-3,
           2 ** 63, math.nan, math.inf, -math.inf, "abc", "", "inf", "-inf", None, True, False,
           [], {}, [1], [0, 0, 0], [1, 2, 3]]


def _leaves(node, path=()):
    """Key paths of every scalar leaf below a parsed JSON value."""
    if isinstance(node, dict):
        return [leaf for key, value in node.items() for leaf in _leaves(value, (*path, key))]
    if isinstance(node, list):
        return [leaf for i, value in enumerate(node) for leaf in _leaves(value, (*path, i))]
    return [path]


LEAVES = {name: _leaves(cfg) for name, cfg in SCENES.items()}


@st.composite
def mutated_scenes(draw):
    name = draw(st.sampled_from(sorted(SCENES)))
    cfg = copy.deepcopy(SCENES[name])
    edits = draw(st.lists(st.tuples(st.sampled_from(LEAVES[name]), st.sampled_from(PALETTE)),
                          min_size=1, max_size=2))
    for path, value in edits:
        owner = cfg
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = copy.deepcopy(value)
    return cfg


def test_palette_has_31_values_and_scenes_have_leaves():
    assert len(PALETTE) == 31
    assert len(LEAVES["hall"]) > 80 and len(LEAVES["double_irs"]) > 30


@settings(max_examples=500, deadline=None)
@given(mutated_scenes())
def test_mutated_scene_is_rejected_or_routes_and_synthesizes_finitely(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            scene = build_scene(cfg)
        except ConfigError:
            return
        try:
            routes = routes_payload(scene)
        except NoFeasiblePath:
            routes = {}
        for route in routes.values():
            assert math.isfinite(route["gain_db"])
        channels = synthesize_channels(scene, seed=0)
        for (i, j), link in channels.links.items():
            assert link.matrix.shape == (scene.node_size(j), scene.node_size(i))
            assert np.all(np.isfinite(link.matrix)), (i, j)
