"""Scene construction, blockage tests, LoS indicators and graph invariants."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from irsim.cli import main
from irsim.geometry import (Box, ConfigError, build_los_graph, build_scene,
                            half_space_ok, has_geometric_los, los_indicator)
from irsim.scenarios import indoor_hall_config

from conftest import chain_config, random_two_user_config, unit


# ---------------------------------------------------------------------------
# build_scene
# ---------------------------------------------------------------------------

def test_build_scene_distances():
    cfg = {
        "bs": {"position": [0, 0, 0], "normal": [1, 0, 0], "n_elements": 4},
        "irs": [{"position": [10, 0, 0], "normal": [-1, 0, 0], "m0": 2}],
        "users": [[20, 0, 0]],
        "constants": {},
    }
    scene = build_scene(cfg)
    assert scene.distance(0, 1) == pytest.approx(10.0)
    assert scene.distance(1, 2) == pytest.approx(10.0)


def test_build_scene_double_irs_layout_accepted():
    from irsim.scenarios import double_irs_config
    scene = build_scene(double_irs_config())
    assert scene.n_irs == 2 and scene.n_users == 1
    # BS-side surface near the BS, user-side surface near the user
    assert scene.distance(0, 1) < 5.0
    assert scene.distance(2, 3) < 5.0


def test_build_scene_missing_normal_rejected():
    cfg = chain_config()
    del cfg["irs"][0]["normal"]
    with pytest.raises(ConfigError):
        build_scene(cfg)


def test_build_scene_node_inside_obstacle_rejected():
    cfg = chain_config()
    cfg["obstacles"].append({"min": [9, -1, 0], "max": [11, 1, 3]})
    with pytest.raises(ConfigError, match="inside"):
        build_scene(cfg)


def test_build_scene_bad_region_rejected():
    cfg = chain_config()
    cfg["effective_regions"] = {"1": [1, 7]}
    with pytest.raises(ConfigError):
        build_scene(cfg)


# Bad edits of the indoor hall (surfaces 1-8, users 9-10): (id, key path into
# the config, new value, expected message).  Each must fail in build_scene.
BAD_NUMBERS = [
    ("nan_user", ("users", 0, 1), math.nan, "user 1 position is not finite"),
    ("string_bs", ("bs", "position", 1), "abc", "BS position is not numeric"),
    ("string_irs", ("irs", 2, "position", 0), "abc", "IRS 3 position is not numeric"),
    ("string_user", ("users", 1, 2), "abc", "user 2 position is not numeric"),
    ("inf_obstacle", ("obstacles", 0, "max", 2), math.inf,
     "obstacle 1 max corner is not finite"),
    ("short_user", ("users", 0), [36, 0], r"user 1 position must have shape \(3,\)"),
    ("zero_carrier", ("constants", "carrier_hz"), 0, "carrier_hz must be positive"),
    ("negative_carrier", ("constants", "carrier_hz"), -5e9, "carrier_hz must be positive"),
    ("nan_carrier", ("constants", "carrier_hz"), math.nan, "carrier_hz is not finite"),
    ("string_n_elements", ("bs", "n_elements"), "abc", "BS n_elements is not numeric"),
    ("string_bs_shape", ("bs", "shape", 0), "abc", "BS array shape entry is not numeric"),
    ("fractional_bs_shape", ("bs", "shape", 1), 1.5,
     "BS array shape entry must be a positive integer, got 1.5"),
    ("string_m0", ("irs", 4, "m0"), "abc", "IRS 5 m0 is not numeric"),
    ("fractional_m0", ("irs", 0, "m0"), 2.7, "IRS 1 m0 must be a positive integer, got 2.7"),
    ("string_irs_shape", ("irs", 0, "shape"), [4, "abc"], "IRS 1 element grid entry is not numeric"),
    ("string_bs_normal", ("bs", "normal", 0), "abc", "BS normal is not numeric"),
    ("string_irs_normal", ("irs", 1, "normal", 0), "abc", "IRS 2 normal is not numeric"),
    ("string_beta", ("constants", "beta_db"), "abc", "beta_db is not numeric"),
    ("nan_beta", ("constants", "beta_db"), math.nan, "beta_db is not finite"),
    ("string_tx", ("constants", "tx_dbm"), "abc", "tx_dbm is not numeric"),
    ("inf_noise", ("constants", "noise_dbm"), math.inf, "noise_dbm is not finite"),
    ("nan_kappa", ("constants", "kappa_db"), math.nan, "kappa_db is not a number"),
    ("string_alpha", ("constants", "alpha", "bs_user"), "abc", "alpha of bs_user is not numeric"),
    ("nan_alpha", ("constants", "alpha", "irs_irs"), math.nan, "alpha of irs_irs is not finite"),
    ("string_override_alpha", ("constants", "link_overrides"), {"0-1": {"alpha": "abc"}},
     r"link_overrides\['0-1'\] alpha is not numeric"),
    ("nan_override_alpha", ("constants", "link_overrides"), {"1-2": {"alpha": math.nan}},
     r"link_overrides\['1-2'\] alpha is not finite"),
    ("overflow_beta", ("constants", "beta_db"), 4000, "beta_db 4000.0 overflows or underflows"),
    ("underflow_beta", ("constants", "beta_db"), -5000, "beta_db -5000.0 overflows or underflows"),
    ("overflow_noise", ("constants", "noise_dbm"), 5000, "noise_dbm 5000.0 overflows or underflows"),
    ("underflow_noise", ("constants", "noise_dbm"), -5000,
     "noise_dbm -5000.0 overflows or underflows"),
    ("overflow_tx", ("constants", "tx_dbm"), 5000, "tx_dbm 5000.0 overflows or underflows"),
    ("underflow_tx", ("constants", "tx_dbm"), -5000, "tx_dbm -5000.0 overflows or underflows"),
    ("overflow_kappa", ("constants", "kappa_db"), 5000, "kappa_db 5000 overflows"),
    ("overflow_override_kappa", ("constants", "link_overrides"), {"0-1": {"kappa_db": 5000}},
     "kappa_db 5000 overflows"),
]
BAD_STRUCTURE = [
    ("user_at_bs", ("users", 0), [0, 0, 2], "nodes 0 and 9 are at the same position"),
    ("irs_on_irs", ("irs", 1, "position"), [10, 4, 2], "nodes 1 and 2 are at the same"),
    ("unknown_override_field", ("constants", "link_overrides"), {"0-1": {"kapa_db": 10}},
     r"unknown fields in link_overrides\['0-1'\]: \['kapa_db'\]"),
    ("override_key_unknown_node", ("constants", "link_overrides"), {"99-2": {"alpha": 2}},
     r"name no link 'i-j' between nodes 0..10: \['99-2'\]"),
    ("override_key_not_canonical", ("constants", "link_overrides"), {"01-2": {"alpha": 2}},
     r"name no link .*\['01-2'\]"),
    ("region_of_unknown_user", ("effective_regions",), {"7": [1]},
     r"effective_regions name unknown users: \['7'\]"),
    ("bs_not_object", ("bs",), [0, 0, 2], "bs must be a JSON object"),
    ("constants_not_object", ("constants",), [], "constants must be a JSON object"),
    ("users_not_list", ("users",), 5, "users must be a JSON list"),
    ("irs_entry_not_object", ("irs", 0), 5, "IRS 1 must be a JSON object"),
    ("obstacles_not_list", ("obstacles",), 5, "obstacles must be a JSON list"),
    ("obstacle_not_object", ("obstacles", 0), [17, -1, 0], "obstacle 1 must be a JSON object"),
    ("alpha_map_not_object", ("constants", "alpha"), 2.0, "alpha map must be a JSON object"),
    ("override_not_object", ("constants", "link_overrides"), {"0-1": 2.5},
     r"link_overrides\['0-1'\] must be a JSON object"),
    ("overrides_not_object", ("constants", "link_overrides"), [], "link_overrides must be a JSON object"),
    ("regions_not_object", ("effective_regions",), [[1]], "effective_regions must be a JSON object"),
    ("region_not_list", ("effective_regions",), {"1": 3}, "effective region of user 1 must be a JSON list"),
    ("region_entry_string", ("effective_regions",), {"2": ["a"]},
     "effective region of user 2 entry is not numeric"),
    ("region_entry_fractional", ("effective_regions",), {"1": [1.5]},
     "effective region of user 1 entry must be a positive integer, got 1.5"),
]


def _edited_hall(keys, value):
    cfg = indoor_hall_config(m0=4)
    owner = cfg
    for key in keys[:-1]:
        owner = owner[key]
    owner[keys[-1]] = value
    return cfg


@pytest.mark.parametrize("keys, value, message", [case[1:] for case in BAD_NUMBERS],
                         ids=[case[0] for case in BAD_NUMBERS])
def test_build_scene_rejects_bad_numbers(keys, value, message):
    with pytest.raises(ConfigError, match=message):
        build_scene(_edited_hall(keys, value))


@pytest.mark.parametrize("keys, value, message", [case[1:] for case in BAD_STRUCTURE],
                         ids=[case[0] for case in BAD_STRUCTURE])
def test_build_scene_rejects_structural_mistakes(keys, value, message):
    with pytest.raises(ConfigError, match=message):
        build_scene(_edited_hall(keys, value))


@pytest.mark.parametrize("kappa_db, kappa", [(-5000, 0.0), ("-inf", 0.0), (-math.inf, 0.0),
                                             ("inf", math.inf), (math.inf, math.inf)])
def test_build_scene_accepts_kappa_underflow_and_infinities(kappa_db, kappa):
    # an underflow to 0 is a Rayleigh link and +-inf are the two limits; only a
    # finite kappa_db whose linear value overflows is an error
    scene = build_scene(_edited_hall(("constants", "link_overrides"),
                                     {"0-1": {"kappa_db": kappa_db}}))
    assert scene.constants.link_params(0, 1, "bs_irs")[1] == kappa
    assert build_scene(_edited_hall(("constants", "kappa_db"), kappa_db)).constants.kappa == kappa


def test_build_scene_accepts_users_sharing_a_position():
    scene = build_scene(_edited_hall(("users", 1), [36, 0, 1.5]))
    assert scene.distance(9, 10) == 0.0


@pytest.mark.parametrize("command", ["validate", "routes"])
@pytest.mark.parametrize("keys, value", [case[1:3] for case in BAD_NUMBERS + BAD_STRUCTURE],
                         ids=[case[0] for case in BAD_NUMBERS + BAD_STRUCTURE])
def test_cli_bad_scene_exits_2_with_one_line(command, keys, value, tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_edited_hall(keys, value)))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


# ---------------------------------------------------------------------------
# geometric LoS against an exact rational oracle
# ---------------------------------------------------------------------------

def _segment_box_oracle(a, b, lo, hi):
    """Exact closed-box slab intersection in rational arithmetic."""
    a = [Fraction(x) for x in a]
    d = [Fraction(x) - y for x, y in zip(b, a)]
    t0, t1 = Fraction(0), Fraction(1)
    for ax in range(3):
        if d[ax] == 0:
            if a[ax] < Fraction(lo[ax]) or a[ax] > Fraction(hi[ax]):
                return False
            continue
        tn = (Fraction(lo[ax]) - a[ax]) / d[ax]
        tf = (Fraction(hi[ax]) - a[ax]) / d[ax]
        if tn > tf:
            tn, tf = tf, tn
        t0 = max(t0, tn)
        t1 = min(t1, tf)
        if t0 > t1:
            return False
    return True


def test_no_obstacles_always_clear():
    cfg = chain_config()
    cfg["obstacles"] = []
    scene = build_scene(cfg)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert has_geometric_los(scene, i, j)


def test_obstacle_on_midpoint_blocks(chain_scene):
    # the box straddles the BS - user segment
    assert not has_geometric_los(chain_scene, 0, 2)
    assert has_geometric_los(chain_scene, 0, 1)
    assert has_geometric_los(chain_scene, 1, 2)


def test_grazing_segment_counts_as_blocked():
    # segment running exactly along the box face plane y = 1
    cfg = chain_config()
    cfg["bs"]["position"] = [0, 1, 1]
    cfg["irs"][0]["position"] = [10, 1, 1]
    cfg["users"][0] = [10, -8, 1.5]
    cfg["obstacles"] = [{"min": [4, -2, 0], "max": [6, 1, 3]}]
    scene = build_scene(cfg)
    assert not has_geometric_los(scene, 0, 1)
    assert _segment_box_oracle([0, 1, 1], [10, 1, 1], [4, -2, 0], [6, 1, 3])


def test_segment_box_matches_rational_oracle():
    rng = np.random.default_rng(11)
    box = Box(lo=np.array([-1.0, -1.0, -1.0]), hi=np.array([1.0, 1.0, 1.0]))
    agreements = 0
    for _ in range(500):
        # rational endpoints so the oracle is exact
        a = [Fraction(int(rng.integers(-40, 40)), 8) for _ in range(3)]
        b = [Fraction(int(rng.integers(-40, 40)), 8) for _ in range(3)]
        got = box.intersects_segment([float(x) for x in a], [float(x) for x in b])
        want = _segment_box_oracle(a, b, [-1, -1, -1], [1, 1, 1])
        assert got == want
        agreements += 1
    assert agreements == 500


def test_segment_touching_box_corner_counts_as_blocked():
    # reaches the corner (-1, -2, 2) at t = 0.6, where a rounded reciprocal
    # of the direction used to put the entry just after the exit
    a, b, lo, hi = [2, 7, 5], [-3, -8, 0], [-4, -2, 1], [-1, -1, 2]
    box = Box(lo=np.array(lo, dtype=float), hi=np.array(hi, dtype=float))
    assert _segment_box_oracle(a, b, lo, hi)
    assert box.intersects_segment(np.array(a, dtype=float), np.array(b, dtype=float))


def test_removing_obstacle_never_removes_los():
    rng = np.random.default_rng(3)
    for trial in range(20):
        cfg = random_two_user_config(rng, n_irs=4)
        scene_with = build_scene(cfg)
        cfg2 = dict(cfg)
        cfg2["obstacles"] = []
        scene_without = build_scene(cfg2)
        n = scene_with.n_irs + scene_with.n_users
        for i in range(n + 1):
            for j in range(n + 1):
                if i != j and has_geometric_los(scene_with, i, j):
                    assert has_geometric_los(scene_without, i, j)


# ---------------------------------------------------------------------------
# half-space and indicator
# ---------------------------------------------------------------------------

def test_half_space_rules():
    cfg = chain_config()
    cfg["irs"][0]["normal"] = [0, -1, 0]        # exact axis-aligned normal
    scene = build_scene(cfg)
    panel = scene.irs[0]
    on_ray = panel.center + 3.0 * panel.normal
    in_plane = panel.center + np.array([1.0, 0.0, 0.0])
    behind = panel.center - 2.0 * panel.normal
    assert half_space_ok(scene, 1, on_ray)
    assert not half_space_ok(scene, 1, in_plane)   # dot exactly 0
    assert not half_space_ok(scene, 1, behind)


def test_los_indicator_basic(chain_scene):
    assert los_indicator(chain_scene, 0, 1) == 1
    assert los_indicator(chain_scene, 1, 2) == 1


def test_inward_hop_forbidden():
    # surface 2 is closer to the BS than surface 1: 1 -> 2 must be 0
    cfg = chain_config()
    cfg["irs"].append({"position": [5, 3, 2], "normal": unit([0, -1, 0]), "m0": 2})
    scene = build_scene(cfg)
    assert scene.distance(0, 2) < scene.distance(0, 1)
    assert los_indicator(scene, 1, 2) == 0


def test_back_to_back_surfaces_cannot_reflect():
    cfg = chain_config()
    cfg["irs"] = [
        {"position": [8, 0, 2], "normal": [-1, 0, 0], "m0": 2},
        {"position": [12, 0, 2], "normal": [1, 0, 0], "m0": 2},
    ]
    cfg["obstacles"] = []
    scene = build_scene(cfg)
    assert los_indicator(scene, 1, 2) == 0
    assert los_indicator(scene, 2, 1) == 0


def test_outside_effective_region_masks_user_edge():
    cfg = chain_config()
    cfg["effective_regions"] = {"1": []}
    scene = build_scene(cfg)
    assert los_indicator(scene, 1, 2, user=1) == 0


def test_los_indicator_deterministic(chain_scene):
    vals = {los_indicator(chain_scene, 0, 1) for _ in range(5)}
    assert vals == {1}


# ---------------------------------------------------------------------------
# LoS graph
# ---------------------------------------------------------------------------

def test_chain_graph_has_exactly_two_edges(chain_scene):
    graph = build_los_graph(chain_scene, 1)
    assert sorted(graph.edges) == [(0, 1), (1, 2)]


def test_fully_blocked_scene_has_no_edges():
    cfg = chain_config()
    cfg["obstacles"] = [{"min": [-50, -50, 2.2], "max": [50, 50, 2.4]},
                        {"min": [1.5, -50, 0], "max": [2.0, 50, 10]}]
    cfg["bs"]["position"] = [0, 0, 0]
    cfg["irs"][0]["position"] = [10, 0, 5]
    cfg["users"][0] = [10, -8, 0]
    scene = build_scene(cfg)
    graph = build_los_graph(scene, 1)
    assert not graph.edges


def _toposort_ok(graph):
    order = {n: i for i, n in enumerate(
        sorted(graph.nodes, key=lambda n: graph.bs_distance[n]))}
    return all(order[i] < order[j] for (i, j) in graph.edges
               if j != graph.user_node)


def test_graph_invariants_on_random_scenes():
    rng = np.random.default_rng(7)
    seen_edges = 0
    for _ in range(30):
        scene = build_scene(random_two_user_config(rng, n_irs=5))
        for k in (1, 2):
            graph = build_los_graph(scene, k)
            seen_edges += len(graph.edges)
            for (i, j) in graph.edges:
                assert i == 0 or not scene.is_user(i)
                assert j != 0
                if j != graph.user_node:
                    assert scene.distance(0, j) > graph.bs_distance[i]
            assert _toposort_ok(graph)
    assert seen_edges > 50   # the generator must actually produce links
