"""Shipped scenario descriptions.

The layouts live in `scenes/*.json`, one file each; a builder here reads its
file and sets only the leaves its parameters name.  Two layouts ship: a
two-surface link (BS-side and user-side surfaces on a 50 m hop, used by the
element-scaling and multi-user studies) and an 8-surface indoor hall with
two users (used by the routing, separation and beam-training studies).  The
indoor hall is constructed so that the single-user route optimum climbs from
one to three reflections as the per-dimension element count grows, and so
that the two users' separated routes differ from their individually optimal
ones.

Positions are meters; normals unit vectors.
"""

from __future__ import annotations

import copy
from importlib import resources

from .geometry import _read_config


def double_irs_config(n_bs: int = 1, irs_shape=(20, 20), kappa_db="inf",
                      inter_irs_alpha: float = 2.0, inter_irs_kappa_db="inf",
                      bs_irs1_kappa_db=None) -> dict:
    """Two-surface link (`scenes/double_irs.json`): surface 1 by the BS,
    surface 2 by the user cluster.

    `n_bs` sets the BS array (n_bs x 1) and `irs_shape` the per-surface
    element grid (both surfaces alike); the inter-surface link's
    exponent/fading and the short BS-to-surface-1 fading can be overridden
    for the scaling and rank studies.
    """
    cfg = _read_config(packaged_scene_path("double_irs"))
    cfg["bs"].update(shape=[n_bs, 1], n_elements=n_bs)
    for ent in cfg["irs"]:
        ent["shape"] = list(irs_shape)
    consts = cfg["constants"]
    consts["kappa_db"] = kappa_db
    if inter_irs_alpha != 2.0 or inter_irs_kappa_db != "inf":
        consts["link_overrides"]["1-2"] = {"alpha": inter_irs_alpha,
                                           "kappa_db": inter_irs_kappa_db}
    if bs_irs1_kappa_db is not None:
        consts["link_overrides"]["0-1"] = {"kappa_db": bs_irs1_kappa_db}
    return cfg


def indoor_hall_config(m0: int = 24, kappa_db=20.0) -> dict:
    """8-surface indoor hall (`scenes/indoor_hall.json`) with two users and
    blocked direct links; every surface is m0 x m0.

    User 1 (corner user) has a short two-reflection ladder (surfaces 1-2)
    and a longer three-reflection ladder (surfaces 3-4-5) whose optimum
    switches between M0 = 22 and 24.  User 2 is served from the north
    ladder too; its separated fallback runs through the shielded south
    lane (surfaces 7-8).  The obstacles, in file order: a pillar blocking
    BS to user 1; a block between the BS and surface 6; a wall isolating
    the south lane; a beam blocking BS to user 2; a block decoupling
    surfaces 8 and 5; and one shielding user 1 from surface 8.
    """
    cfg = _read_config(packaged_scene_path("indoor_hall"))
    for ent in cfg["irs"]:
        ent["m0"] = m0
    cfg["constants"]["kappa_db"] = kappa_db
    return cfg


def packaged_scene_path(name: str):
    """Path of a shipped scene JSON (for the builders, the CLI and tests)."""
    return resources.files("irsim") / "scenes" / f"{name}.json"


def with_users(config: dict, users) -> dict:
    out = copy.deepcopy(config)
    out["users"] = [list(map(float, u)) for u in users]
    return out
