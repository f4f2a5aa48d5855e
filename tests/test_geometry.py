"""Scene construction, blockage tests, LoS indicators and graph invariants."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from irsim.cli import main
from irsim.geometry import (BETA_DB_RANGE, MAX_PANEL_ELEMENTS, MIN_SEPARATION_M, Box,
                            ConfigError, _unit, build_los_graph, build_scene, half_space_ok,
                            has_geometric_los, los_indicator, panel_axes)
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
# the config, new value or MISSING to delete the key, expected message).  Each
# must fail in build_scene.
MISSING = object()
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
    ("zero_irs_normal", ("irs", 1, "normal"), [0, 0, 0],
     "zero-length vector where a direction is required"),
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
    ("negative_alpha", ("constants", "alpha", "irs_irs"), -5000,
     r"alpha of irs_irs must lie in \(0, 10\], got -5000"),
    ("zero_alpha", ("constants", "alpha", "bs_user"), 0, r"alpha of bs_user must lie in \(0, 10\]"),
    ("huge_alpha", ("constants", "alpha", "bs_irs"), 10.5, r"alpha of bs_irs must lie in \(0, 10\]"),
    ("negative_override_alpha", ("constants", "link_overrides"), {"1-2": {"alpha": -5000}},
     r"link_overrides\['1-2'\] alpha must lie in \(0, 10\], got -5000"),
    ("huge_override_alpha", ("constants", "link_overrides"), {"0-1": {"alpha": 1e6}},
     r"link_overrides\['0-1'\] alpha must lie in \(0, 10\]"),
    ("tiny_carrier", ("constants", "carrier_hz"), 1e-320,
     r"carrier_hz must be positive and within \[1e\+06, 1e\+13\] Hz, got 1e-320"),
    ("low_carrier", ("constants", "carrier_hz"), 5e5, r"carrier_hz .* got 500000.0"),
    ("huge_carrier", ("constants", "carrier_hz"), 1e300, r"carrier_hz .* got 1e\+300"),
    ("far_irs", ("irs", 0, "position", 0), 1e300,
     r"IRS 1 position has a coordinate beyond \+-1e\+06 m"),
    ("far_bs", ("bs", "position", 2), -2e6, r"BS position has a coordinate beyond \+-1e\+06 m"),
    ("far_user", ("users", 1, 1), 1e7, r"user 2 position has a coordinate beyond \+-1e\+06 m"),
    ("far_obstacle_min", ("obstacles", 2, "min", 0), -1e300,
     r"obstacle 3 min corner has a coordinate beyond \+-1e\+06 m"),
    ("far_obstacle_max", ("obstacles", 0, "max", 2), 1.5e6,
     r"obstacle 1 max corner has a coordinate beyond \+-1e\+06 m"),
    ("huge_beta", ("constants", "beta_db"), 3000, r"beta_db must lie in \[-150, 50\] dB, got 3000"),
    ("tiny_beta", ("constants", "beta_db"), -3000, r"beta_db must lie in \[-150, 50\] dB, got -3000"),
    ("string_kappa", ("constants", "kappa_db"), "hot", "bad kappa_db value 'hot'"),
    ("list_kappa", ("constants", "kappa_db"), [1], r"kappa_db is not numeric: \[1\]"),
    ("huge_m0", ("irs", 0, "m0"), 1000000, "IRS 1 has 1000000000000 elements, more than 4096"),
    ("huge_irs_shape", ("irs", 2, "shape"), [4097, 1], "IRS 3 has 4097 elements, more than 4096"),
    ("huge_bs_shape", ("bs", "shape"), [65, 64], "BS array has 4160 elements, more than 4096"),
    ("bs_n_elements_off_shape", ("bs", "n_elements"), 7,
     r"BS n_elements 7 does not match shape \[32, 1\]"),
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
    ("user_near_bs", ("users", 0), [1e-100, 0, 2],
     "nodes 0 and 9 are at the same position or closer than 0.01 m"),
    ("irs_near_irs", ("irs", 1, "position"), [10.005, 4, 2],
     "nodes 1 and 2 are at the same position or closer than 0.01 m"),
    ("missing_bs", ("bs",), MISSING, "missing required field 'bs'"),
    ("obstacle_min_beyond_max", ("obstacles", 0, "min", 0), 20,
     "obstacle with min corner beyond max corner"),
    ("unknown_alpha_class", ("constants", "alpha", "irs_bs"), 2.0,
     r"unknown link classes in alpha map: \['irs_bs'\]"),
    ("irs_shape_three_entries", ("irs", 0, "shape"), [4, 4, 1],
     r"IRS 1 element grid must be two positive integers, got \[4, 4, 1\]"),
    ("irs_m0_off_shape", ("irs", 0, "shape"), [8, 8], r"IRS 1 m0 4 does not match shape \[8, 8\]"),
]


def _edited_hall(keys, value):
    cfg = indoor_hall_config(m0=4)
    owner = cfg
    for key in keys[:-1]:
        owner = owner[key]
    if value is MISSING:
        del owner[keys[-1]]
    else:
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


def test_build_scene_accepts_panels_at_the_element_limit():
    cfg = _edited_hall(("irs", 0, "m0"), 64)
    del cfg["irs"][1]["m0"]
    cfg["irs"][1]["shape"] = [MAX_PANEL_ELEMENTS, 1]
    cfg["bs"].update(shape=[1, MAX_PANEL_ELEMENTS], n_elements=MAX_PANEL_ELEMENTS)
    scene = build_scene(cfg)
    assert scene.n_bs == scene.irs[0].size == scene.irs[1].size == MAX_PANEL_ELEMENTS


def test_build_scene_accepts_nodes_at_the_minimum_separation():
    scene = build_scene(_edited_hall(("users", 0), [MIN_SEPARATION_M, 0, 2]))
    assert scene.distance(0, 9) == MIN_SEPARATION_M


@pytest.mark.parametrize("beta_db", BETA_DB_RANGE)
def test_routes_at_the_ends_of_the_beta_db_range(beta_db, tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_edited_hall(("constants", "beta_db"), beta_db)))
    assert main(["routes", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)


def test_vertical_normal_gets_orthonormal_in_plane_axes():
    # (0, 0, 1) is parallel to the global up direction, so up falls back to (0, 1, 0)
    normal = np.array([0.0, 0.0, 1.0])
    frame = np.array([*panel_axes(normal), normal])
    np.testing.assert_allclose(frame @ frame.T, np.eye(3), rtol=0, atol=1e-15)


@pytest.mark.parametrize("v", [[1e-160, 1e-160, 0], [1e-200, 0, 0], [3e300, -4e300, 1e300]])
def test_unit_vector_at_any_magnitude(v):
    # |v|^2 over- or underflows outside about 1e+-154; the direction must not care
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = _unit(v)
    w = np.asarray(v) / np.max(np.abs(v))
    np.testing.assert_allclose(u, w / math.hypot(*w), rtol=0, atol=1e-15)


def test_unit_vector_is_the_plain_quotient_at_ordinary_magnitudes():
    v = np.array([0.3, -0.954, 0.0])
    assert np.array_equal(_unit(v), v / np.linalg.norm(v))


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_scaled_normal_builds_the_unscaled_scene(scale, tmp_path, capsys):
    plain = indoor_hall_config(m0=4)
    scaled = _edited_hall(("irs", 1, "normal"), [x * scale for x in plain["irs"][1]["normal"]])
    routes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(build_scene(scaled).irs[1].normal,
                                   build_scene(plain).irs[1].normal, rtol=0, atol=1e-15)
        for cfg in (plain, scaled):
            path = tmp_path / "scene.json"
            path.write_text(json.dumps(cfg))
            assert main(["routes", "--config", str(path)]) == 0
            routes.append(capsys.readouterr().out)
    assert routes[0] == routes[1]


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
    assert los_indicator(scene, 1, 2) == 0


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
        sorted(graph.bs_distance, key=lambda n: graph.bs_distance[n]))}
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
