"""The per-scene link table and LoS graphs: the link rule is evaluated once
per scene and pair, each graph is built once per scene, and concurrent first
readers all get the same table and the same AO results."""

import sys
import threading

import pytest

from irsim import geometry
from irsim.beams import ao_joint_beamforming
from irsim.channels import _graph_edges, synthesize_channels
from irsim.experiments import run_trials
from irsim.geometry import build_los_graph, build_scene
from irsim.routing import ReflectionPath, check_path_separation
from irsim.scenarios import indoor_hall_config
from irsim.training import irs_neighbor_sets


def test_link_rule_evaluated_once_per_scene(monkeypatch):
    scene = build_scene(indoor_hall_config(m0=2))
    rule = geometry.is_admissible_link
    calls = []

    def counted(scene, i, j):
        calls.append((i, j))
        return rule(scene, i, j)

    monkeypatch.setattr(geometry, "is_admissible_link", counted)
    build_los_graph(scene, 1)
    synthesize_channels(scene, 0)
    irs_neighbor_sets(scene, 1)
    assert calls and len(calls) == len(set(calls))      # each pair judged once
    first = len(calls)

    build_los_graph(scene, 1)
    build_los_graph(scene, 2, require_los=False)
    synthesize_channels(scene, 1)
    irs_neighbor_sets(scene, 3)
    irs_neighbor_sets(scene, 0)
    paths = {1: ReflectionPath((1,), 1, 1.0), 2: ReflectionPath((2,), 2, 1.0)}
    check_path_separation(scene, paths)
    assert len(calls) == first


def test_link_table_built_once_under_concurrent_readers():
    scene = build_scene(indoor_hall_config(m0=2))
    reads, errors = [], []

    def read():
        try:
            reads.append(scene._links)
        except Exception as exc:               # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    fresh = build_scene(indoor_hall_config(m0=2))._links
    assert len(reads) == 16 and all(r == fresh for r in reads)
    assert scene._links is scene._links


def test_los_graph_built_once_per_scene_user_and_flag():
    scene = build_scene(indoor_hall_config(m0=2))
    fresh = build_scene(indoor_hall_config(m0=2))
    for user in (1, 2):
        for require_los in (True, False):
            graph = build_los_graph(scene, user, require_los)
            assert build_los_graph(scene, user, require_los) is graph
            assert build_los_graph(scene, user, int(require_los)) is graph
            assert _graph_edges(synthesize_channels(scene, 0), user, require_los) \
                is graph.edge_order
            other = build_los_graph(fresh, user, require_los)
            assert other is not graph and other == graph
    assert build_los_graph(scene, 1, True) is not build_los_graph(scene, 1, False)
    for user in (0, 3):
        with pytest.raises(ValueError, match=f"no user {user} in scene"):
            build_los_graph(scene, user)


def _hall_ao_gains():
    """AO gains (as float.hex) of 8 trials on one fresh shared hall scene."""
    scene = build_scene(indoor_hall_config(m0=4, kappa_db=10.0))

    def trial(t, seed):
        channels = synthesize_channels(scene, seed)
        return [ao_joint_beamforming(channels, user=k, max_iters=5).achieved_gains[k].hex()
                for k in (1, 2)]

    return run_trials(trial, 8, 0)


def test_ao_on_a_shared_scene_is_identical_at_one_and_two_workers(monkeypatch):
    monkeypatch.setenv("IRS_SIM_THREADS", "1")
    one = _hall_ao_gains()
    monkeypatch.setenv("IRS_SIM_THREADS", "2")
    assert _hall_ao_gains() == one
