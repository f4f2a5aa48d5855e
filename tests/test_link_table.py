"""The per-scene link table: the link rule is evaluated once per scene and
pair, and concurrent first readers all get the same table."""

import sys
import threading

from irsim import geometry
from irsim.channels import synthesize_channels
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
