import numpy as np
import pytest

from irsim.geometry import LosGraph, Scene, build_scene


def unit(v):
    v = np.asarray(v, dtype=float)
    return (v / np.linalg.norm(v)).tolist()


def chain_config(m0=3, n_bs=4, kappa_db="inf"):
    """BS -> one surface -> user, with the direct link blocked."""
    return {
        "bs": {"position": [0, 0, 2], "normal": [1, 0, 0], "shape": [n_bs, 1],
               "n_elements": n_bs},
        "irs": [{"position": [10, 0, 2], "normal": unit([-1, -1, 0]), "m0": m0}],
        "users": [[10, -8, 1.5]],
        "obstacles": [{"min": [4, -6, 0], "max": [6, -4, 3]}],
        "constants": {"beta_db": -30, "kappa_db": kappa_db, "carrier_hz": 5e9,
                      "noise_dbm": -90, "tx_dbm": 0},
    }


def double_only_config(m0=3, n_bs=1, kappa_db="inf", link_overrides=None):
    """Two surfaces; every link except BS->1->2->user is blocked."""
    consts = {"beta_db": -30, "kappa_db": kappa_db, "carrier_hz": 5e9,
              "noise_dbm": -90, "tx_dbm": 0}
    if link_overrides:
        consts["link_overrides"] = link_overrides
    return {
        "bs": {"position": [0, 0, 2], "normal": [1, 0, 0], "shape": [n_bs, 1],
               "n_elements": n_bs},
        "irs": [
            {"position": [3, 2, 2], "normal": unit([0.24, -0.97, 0]), "m0": m0},
            {"position": [40, -2, 2], "normal": unit([-0.33, 0.94, 0]), "m0": m0},
        ],
        "users": [[43, 1, 1.5]],
        "obstacles": [
            {"min": [19, -1.5, 0], "max": [21, -0.5, 3]},   # blocks BS - surface 2
            {"min": [29, 0.6, 0], "max": [31, 1.6, 3]},     # blocks surface 1 - user, BS - user
        ],
        "constants": consts,
    }


def zigzag_config(n_hops=3, m0=2, n_bs=4, kappa_db="inf"):
    """Chain of n_hops surfaces zigzagging toward the user; no obstacles."""
    positions = {1: [6, 3, 2], 2: [13, -3, 2], 3: [20, 3, 2]}
    normals = {1: [0.2, -0.9, 0], 2: [0.1, 0.99, 0], 3: [-0.2, -0.9, 0]}
    return {
        "bs": {"position": [0, 0, 2], "normal": [1, 0, 0], "shape": [n_bs, 1],
               "n_elements": n_bs},
        "irs": [{"position": positions[i], "normal": unit(normals[i]), "m0": m0}
                for i in range(1, n_hops + 1)],
        "users": [[24, -2, 1.5]],
        "constants": {"beta_db": -30, "kappa_db": kappa_db, "carrier_hz": 5e9,
                      "noise_dbm": -90, "tx_dbm": 0},
    }


@pytest.fixture
def chain_scene() -> Scene:
    return build_scene(chain_config())


@pytest.fixture
def double_scene() -> Scene:
    return build_scene(double_only_config())


def synthetic_graph(rng: np.random.Generator, n_irs: int, edge_prob=0.6) -> LosGraph:
    """Random DAG shaped like a reflection graph (BS 0, user n_irs + 1)."""
    user = n_irs + 1
    d0 = {0: 0.0}
    for j in range(1, n_irs + 1):
        d0[j] = float(rng.uniform(5.0, 50.0))
    d0[user] = float(rng.uniform(20.0, 60.0))
    edges = set()
    dist = {}
    for j in range(1, n_irs + 1):
        if rng.random() < edge_prob:
            edges.add((0, j))
            dist[(0, j)] = d0[j]
        if rng.random() < edge_prob:
            edges.add((j, user))
            dist[(j, user)] = float(rng.uniform(2.0, 40.0))
        for i in range(1, n_irs + 1):
            if i != j and d0[i] < d0[j] and rng.random() < edge_prob:
                edges.add((i, j))
                dist[(i, j)] = float(rng.uniform(2.0, 40.0))
    return LosGraph(user=1, user_node=user, edges=frozenset(edges), distances=dist,
                    bs_distance=d0)


def random_two_user_config(rng: np.random.Generator, n_irs: int, m0=2):
    """Random two-lane layout with two users for multi-route oracles.

    A dividing wall keeps the lanes mostly decoupled so that separated
    assignments are regularly feasible, while randomized normals still
    produce plenty of infeasible or cross-coupled draws.
    """
    irs = []
    for idx in range(n_irs):
        side = 1.0 if idx % 2 == 0 else -1.0
        pos = [float(rng.uniform(4, 42)), float(side * rng.uniform(2.0, 17.0)), 2.0]
        ang = rng.uniform(0, 2 * np.pi)
        irs.append({"position": pos,
                    "normal": [float(np.cos(ang)), float(np.sin(ang)), 0.0],
                    "m0": m0})
    users = [[float(rng.uniform(30, 46)), float(rng.uniform(6, 16)), 1.5],
             [float(rng.uniform(30, 46)), float(rng.uniform(-16, -6)), 1.5]]
    return {
        "bs": {"position": [0, 0, 2], "normal": [1, 0, 0], "shape": [4, 1],
               "n_elements": 4},
        "irs": irs,
        "users": users,
        "obstacles": [{"min": [8, -0.5, 0], "max": [48, 0.5, 3]}],
        "constants": {"beta_db": -30, "kappa_db": 20, "carrier_hz": 5e9,
                      "noise_dbm": -90, "tx_dbm": 0},
    }
