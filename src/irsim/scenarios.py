"""Shipped scenario descriptions.

Two base layouts: a two-surface link (BS-side and user-side surfaces on a
50 m hop, used by the element-scaling and multi-user studies) and an
8-surface indoor hall with two users (used by the routing, separation and
beam-training studies).  The indoor hall is constructed so that the
single-user route optimum climbs from one to three reflections as the
per-dimension element count grows, and so that the two users' separated
routes differ from their individually optimal ones.

Positions are meters; normals unit vectors.
"""

from __future__ import annotations

import copy
from importlib import resources

from . import geometry


def _unit(v) -> list:
    return geometry._unit(v).tolist()


def double_irs_config(n_bs: int = 1, irs_shape=(20, 20), kappa_db="inf",
                      inter_irs_alpha: float = 2.0, inter_irs_kappa_db="inf",
                      bs_irs1_kappa_db=None) -> dict:
    """Two-surface link: surface 1 by the BS, surface 2 by the user cluster.

    `irs_shape` sets the per-surface element grid (both surfaces alike);
    the inter-surface link's exponent/fading and the short BS-to-surface-1
    fading can be overridden for the scaling and rank studies.
    """
    overrides = {}
    if inter_irs_alpha != 2.0 or inter_irs_kappa_db != "inf":
        overrides["1-2"] = {"alpha": inter_irs_alpha, "kappa_db": inter_irs_kappa_db}
    if bs_irs1_kappa_db is not None:
        overrides["0-1"] = {"kappa_db": bs_irs1_kappa_db}
    return {
        "bs": {"position": [0, 0, 2], "normal": [1, 0, 0],
               "shape": [n_bs, 1], "n_elements": n_bs},
        "irs": [
            {"position": [2, 2, 2], "normal": _unit([0.37, -0.93, 0]),
             "m0": irs_shape[0], "shape": list(irs_shape)},
            {"position": [48, 1, 2], "normal": _unit([-0.34, -0.94, 0]),
             "m0": irs_shape[0], "shape": list(irs_shape)},
        ],
        "users": [[50.0, -2.0, 1.5]],
        "obstacles": [
            {"min": [24, -1.5, 0], "max": [26, -0.3, 3]},
        ],
        "constants": {
            "beta_db": -30.0,
            "alpha": {"bs_irs": 2.0, "irs_irs": 2.0, "irs_user": 2.0, "bs_user": 3.5},
            "kappa_db": kappa_db,
            "carrier_hz": 5e9,
            "noise_dbm": -90.0,
            "tx_dbm": 0.0,
            "link_overrides": overrides,
        },
    }


def indoor_hall_config(m0: int = 24, kappa_db=20.0) -> dict:
    """8-surface indoor hall with two users and blocked direct links.

    User 1 (corner user) has a short two-reflection ladder (surfaces 1-2)
    and a longer three-reflection ladder (surfaces 3-4-5) whose optimum
    switches between M0 = 22 and 24.  User 2 is served from the north
    ladder too; its separated fallback runs through the shielded south
    lane (surfaces 7-8).
    """
    return {
        "bs": {"position": [0, 0, 2], "normal": [1, 0, 0],
               "shape": [32, 1], "n_elements": 32},
        "irs": [
            {"position": [10, 4, 2], "normal": _unit([0.300, -0.954, 0]), "m0": m0},
            {"position": [31, 6, 2], "normal": _unit([-0.380, -0.925, 0]), "m0": m0},
            {"position": [6, 10, 2], "normal": _unit([0.606990, -0.794709, 0]), "m0": m0},
            {"position": [18, 17, 2], "normal": _unit([0.114576, -0.993415, 0]), "m0": m0},
            {"position": [33, 10, 2], "normal": _unit([-0.805671, -0.592364, 0]), "m0": m0},
            {"position": [27, 15, 2], "normal": _unit([-0.280, 0.960, 0]), "m0": m0},
            {"position": [2, -10, 2], "normal": _unit([0.622, 0.783, 0]), "m0": m0},
            {"position": [35, -9, 2], "normal": _unit([-0.797, 0.603, 0]), "m0": m0},
        ],
        "users": [[36, 0, 1.5], [28, 19, 1.5]],
        "obstacles": [
            {"min": [17, -1, 0], "max": [19, 1, 3]},        # pillar: BS/user-1 blockage
            {"min": [20, 10.5, 0], "max": [22, 12, 3]},     # blocks BS to surface 6
            {"min": [2.5, -3, 0], "max": [33, -2, 3]},      # wall isolating the south lane
            {"min": [21, 16.5, 0], "max": [26, 18, 3]},     # beam: BS/user-2 blockage
            {"min": [33.9, -2.5, 0], "max": [35.5, -1.5, 3]},  # decouples surfaces 8 and 5
            {"min": [34.6, -5, 0], "max": [36, -4, 3]},     # shields user 1 from surface 8
        ],
        "constants": {
            "beta_db": -30.0,
            "alpha": {"bs_irs": 2.0, "irs_irs": 2.0, "irs_user": 2.0, "bs_user": 3.5},
            "kappa_db": kappa_db,
            "carrier_hz": 5e9,
            "noise_dbm": -90.0,
            "tx_dbm": 0.0,
        },
    }


def packaged_scene_path(name: str):
    """Path of a shipped scene JSON (for the CLI and tests)."""
    return resources.files("irsim") / "scenes" / f"{name}.json"


def with_users(config: dict, users) -> dict:
    out = copy.deepcopy(config)
    out["users"] = [list(map(float, u)) for u in users]
    return out
