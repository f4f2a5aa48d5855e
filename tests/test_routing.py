"""Routing: log-weight identity, one-pass routing vs Bellman-Ford and
exhaustive oracles, separation constraints, and the interference audit."""

import collections
import itertools
import math
import re

import numpy as np
import pytest

import irsim.channels
from irsim.beams import closed_form_path_gain, linear_receivers, multi_hop_phases
from irsim.geometry import LosGraph, build_los_graph, build_scene, los_indicator
from irsim import routing
from irsim.routing import (Infeasible, NoFeasiblePath, ReflectionPath, RoutingSolution,
                           check_path_separation, edge_weight, enumerate_routes,
                           interference_audit, optimal_multi_route,
                           optimal_single_route, path_distances, path_gain,
                           unconstrained_multi_route)
from irsim.channels import effective_channel, mrt_beam, synthesize_channels, unit_phases
from irsim.scenarios import indoor_hall_config
from irsim.training import dft_codebook

from conftest import random_two_user_config, synthetic_graph, zigzag_config

BETA = 1e-3


# ---------------------------------------------------------------------------
# edge weights
# ---------------------------------------------------------------------------

def test_weight_sum_reproduces_closed_form_gain():
    rng = np.random.default_rng(50)
    for _ in range(50):
        graph = synthetic_graph(rng, 6)
        for seq in enumerate_routes(graph):
            total = 0.0
            nodes = [0, *seq, graph.user_node]
            for a, b in zip(nodes[:-1], nodes[1:]):
                total += edge_weight((a, b, b == graph.user_node),
                                     graph.distances[(a, b)], 16, BETA)
            n_bs = 4
            want = closed_form_path_gain(len(seq), 16, n_bs, BETA,
                                         path_distances(graph, seq))
            assert math.exp(-total) * n_bs == pytest.approx(want, rel=1e-12)


def test_equal_hop_weight_difference_is_distance_ratio():
    wa = edge_weight((0, 1, False), 10.0, 16, BETA)
    wb = edge_weight((0, 1, False), 25.0, 16, BETA)
    assert wb - wa == pytest.approx(2.0 * math.log(2.5))


def test_extra_hop_term_accounting():
    w_irs = edge_weight((1, 2, False), 7.0, 16, BETA)
    assert w_irs == pytest.approx(2 * math.log(7.0) - math.log(BETA) - 2 * math.log(16))
    w_user = edge_weight((2, 3, True), 7.0, 16, BETA)
    assert w_user == pytest.approx(2 * math.log(7.0) - math.log(BETA))


# ---------------------------------------------------------------------------
# single-user routing vs brute force
# ---------------------------------------------------------------------------

def _brute_force_best(graph, m, beta, n_bs):
    routes = enumerate_routes(graph)
    if not routes:
        raise NoFeasiblePath("empty")
    scored = [(path_gain(graph, seq, m, beta, n_bs), -len(seq), seq) for seq in routes]
    scored.sort(key=lambda t: (-t[0], -t[1], t[2]))
    return scored[0]


def test_bellman_ford_matches_exhaustive_on_200_random_graphs():
    rng = np.random.default_rng(51)
    hits = 0
    for _ in range(200):
        n_irs = int(rng.integers(2, 11))
        m = int(rng.integers(4, 600))
        graph = synthetic_graph(rng, n_irs)
        try:
            got = optimal_single_route(graph, m, BETA, 4)
        except NoFeasiblePath:
            with pytest.raises(NoFeasiblePath):
                _brute_force_best(graph, m, BETA, 4)
            continue
        want_gain, _, want_seq = _brute_force_best(graph, m, BETA, 4)
        assert got.gain == pytest.approx(want_gain, rel=1e-9)
        hits += 1
    assert hits > 120


def _multi_round_bellman_ford(graph, m, beta):
    """The user's label (weight, hops, sequence) from Bellman-Ford rounds over
    the sorted edges until no label changes, or None when no route exists:
    the algorithm the one-pass topological walk replaced."""
    best = {0: (0.0, 0, ())}
    for _ in range(len(graph.bs_distance) - 1):
        changed = False
        for (i, j) in sorted(graph.edges):
            if i not in best:
                continue
            w0, hops, seq = best[i]
            cand = (w0 + edge_weight((i, j, j == graph.user_node), graph.distances[(i, j)],
                                     m, beta),
                    hops + 1,
                    seq if j == graph.user_node else seq + (j,))
            if j not in best or cand < best[j]:
                best[j] = cand
                changed = True
        if not changed:
            break
    return best.get(graph.user_node)


def test_one_pass_route_matches_multi_round_bellman_ford_on_2000_graphs():
    rng = np.random.default_rng(59)
    routed = 0
    for trial in range(2000):
        graph = synthetic_graph(rng, int(rng.integers(2, 11)),
                                edge_prob=float(rng.uniform(0.2, 0.9)))
        if trial % 2:            # whole-meter hops give exactly tied route weights
            graph = LosGraph(user=graph.user, user_node=graph.user_node, edges=graph.edges,
                             bs_distance=graph.bs_distance,
                             distances={e: float(round(d)) for e, d in graph.distances.items()})
        m = int(rng.integers(4, 600))
        want = _multi_round_bellman_ford(graph, m, BETA)
        if want is None:
            with pytest.raises(NoFeasiblePath):
                optimal_single_route(graph, m, BETA, 4)
            continue
        got = optimal_single_route(graph, m, BETA, 4)
        assert got.irs_sequence == want[2]
        assert got.gain == path_gain(graph, want[2], m, BETA, 4)
        routed += 1
    assert routed > 1000


def _hand_built_graph(edges):
    """Two surfaces at 10 m and 20 m from the BS, user node 3."""
    return LosGraph(user=1, user_node=3, edges=frozenset(edges),
                    distances={e: 5.0 for e in edges},
                    bs_distance={0: 0.0, 1: 10.0, 2: 20.0, 3: 30.0})


@pytest.mark.parametrize("bad_edge", [(2, 1), (3, 2), (1, 0)],
                         ids=["toward_the_bs", "out_of_the_user", "into_the_bs"])
def test_edge_order_rejects_an_edge_that_does_not_lead_away_from_the_bs(bad_edge):
    graph = _hand_built_graph({(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), bad_edge})
    with pytest.raises(ValueError, match=rf"edge \({bad_edge[0]}, {bad_edge[1]}\) does not lead"):
        graph.edge_order
    with pytest.raises(ValueError, match="does not lead away from the BS"):
        optimal_single_route(graph, 16, BETA)
    with pytest.raises(ValueError, match="does not lead away from the BS"):
        enumerate_routes(graph)


@pytest.mark.parametrize("path", [(99,), ()], ids=["unknown_surface", "empty"])
def test_path_gain_rejects_a_path_that_is_not_a_route_of_the_graph(path):
    graph = _hand_built_graph({(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)})
    message = rf"path must be a route of user 1's graph, got {re.escape(str(path))}"
    with pytest.raises(ValueError, match=message):
        path_gain(graph, path, 16, BETA)


@pytest.mark.parametrize("m, beta, name", [
    (0, BETA, "m_elements"), ({1: 16, 2: -4}, BETA, "m_elements"),
    (16, 0.0, "beta"), (16, math.nan, "beta")])
def test_single_route_rejects_a_value_that_is_not_positive_and_finite(m, beta, name):
    graph = _hand_built_graph({(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)})
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        optimal_single_route(graph, m, beta)


@pytest.mark.parametrize("call, name", [
    (lambda graph: closed_form_path_gain(1, "x", 1, 1e-3, [10, 10]), "m_elements"),
    (lambda graph: linear_receivers(np.ones((2, 2)), "x", 1.0), "noise_power"),
    (lambda graph: dft_codebook(4, "x"), "dim"),
    (lambda graph: optimal_single_route(graph, 16, {}), "beta"),
    (lambda graph: optimal_single_route(graph, "x", BETA), "m_elements"),
], ids=["path_gain", "receivers", "codebook", "route_beta", "route_m_elements"])
def test_a_value_that_is_not_a_number_names_its_argument(call, name):
    graph = _hand_built_graph({(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)})
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        call(graph)


@pytest.mark.parametrize("n_bs", [-2, 0, math.nan], ids=["negative", "zero", "nan"])
def test_every_router_rejects_an_n_bs_that_is_not_positive_and_finite(n_bs):
    scene = build_scene(indoor_hall_config(m0=4))
    graph, beta = build_los_graph(scene, 1), scene.constants.beta
    message = "n_bs must be positive and finite"
    with pytest.raises(ValueError, match=message):
        closed_form_path_gain(1, 16, n_bs, 1e-3, [10, 10])
    with pytest.raises(ValueError, match=message):
        path_gain(graph, (2,), 16, beta, n_bs)
    with pytest.raises(ValueError, match=message):
        optimal_single_route(graph, 16, beta, n_bs)
    for router in (optimal_multi_route, unconstrained_multi_route):
        with pytest.raises(ValueError, match=message):
            router(scene, {1: graph}, 16, beta, n_bs=n_bs)


@pytest.mark.parametrize("m", [{1: 16}, [16] * 3], ids=["dict", "list"])
def test_element_counts_lacking_a_routed_surface_name_m_elements_and_the_surface(m):
    scene = build_scene(indoor_hall_config(m0=4))
    with pytest.raises(ValueError, match=r"m_elements has no entry for IRS \d+"):
        optimal_single_route(build_los_graph(scene, 1), m, scene.constants.beta)


def test_a_sequence_of_element_counts_is_read_in_surface_order():
    scene = build_scene(indoor_hall_config(m0=4))
    graph, beta = build_los_graph(scene, 1), scene.constants.beta
    counts = [16] * 8
    counts[1] = 1                                  # surface 2's entry
    gain = path_gain(graph, (2,), counts, beta)
    assert gain == path_gain(graph, (2,), {2: 1}, beta)
    assert gain != path_gain(graph, (2,), 16, beta)


def _recursive_routes(graph):
    """BS-to-user routes by depth-first recursion over each vertex's sorted
    successors: the walk the one pass over the edge order replaced."""
    routes = []

    def visit(node, seq):
        succ = sorted(j for (i, j) in graph.edges if i == node)
        if graph.user_node in succ:
            routes.append(tuple(seq))
        for nxt in succ:
            if nxt != graph.user_node:
                visit(nxt, seq + [nxt])

    for j in sorted(j for (i, j) in graph.edges if i == 0):
        visit(j, [j])
    return routes


def test_enumeration_matches_the_recursive_walk_on_2000_graphs():
    rng = np.random.default_rng(60)
    found = 0
    for _ in range(2000):
        graph = synthetic_graph(rng, int(rng.integers(2, 11)),
                                edge_prob=float(rng.uniform(0.1, 0.95)))
        want = _recursive_routes(graph)
        assert enumerate_routes(graph) == want
        found += bool(want)
    assert found > 1000


def test_enumeration_of_a_long_chain_needs_no_recursion():
    hops = 1200
    user = hops + 1
    edges = [(i, i + 1) for i in range(hops + 1)]
    graph = LosGraph(user=1, user_node=user, edges=frozenset(edges),
                     distances={e: 2.0 for e in edges},
                     bs_distance={n: 2.0 * n for n in range(user + 1)})
    assert enumerate_routes(graph) == [tuple(range(1, user))]


def test_disconnected_graph_raises():
    rng = np.random.default_rng(52)
    graph = synthetic_graph(rng, 3, edge_prob=0.0)
    with pytest.raises(NoFeasiblePath):
        optimal_single_route(graph, 16, BETA)


def test_chain_graph_single_route():
    scene = build_scene(zigzag_config(n_hops=2, m0=2))
    graph = build_los_graph(scene, 1)
    routes = enumerate_routes(graph)
    assert (1, 2) in routes
    got = optimal_single_route(graph, 4, scene.constants.beta, scene.n_bs)
    assert got.irs_sequence in routes


def test_enumerate_routes_empty_and_capped():
    rng = np.random.default_rng(53)
    graph = synthetic_graph(rng, 5, edge_prob=0.0)
    assert enumerate_routes(graph) == []
    dense = synthetic_graph(rng, 7, edge_prob=0.9)
    routes = enumerate_routes(dense)
    assert routes == sorted(routes)


def test_hop_count_nondecreasing_in_m():
    rng = np.random.default_rng(54)
    for _ in range(30):
        graph = synthetic_graph(rng, 7)
        if not enumerate_routes(graph):
            continue
        hops = []
        for m in (4, 16, 64, 256, 1024, 4096):
            hops.append(optimal_single_route(graph, m, BETA).hops)
        assert hops == sorted(hops)


def test_adding_edge_never_hurts_and_m_monotone():
    rng = np.random.default_rng(55)
    for _ in range(20):
        graph = synthetic_graph(rng, 6, edge_prob=0.5)
        routes = enumerate_routes(graph)
        if not routes:
            continue
        base = optimal_single_route(graph, 64, BETA).gain
        assert optimal_single_route(graph, 100, BETA).gain >= base
        # add one admissible edge
        from irsim.geometry import LosGraph
        irs = [n for n in graph.bs_distance if n not in (0, graph.user_node)]
        missing = [(i, j) for i in irs for j in irs
                   if i != j and graph.bs_distance[i] < graph.bs_distance[j]
                   and (i, j) not in graph.edges]
        if not missing:
            continue
        i, j = missing[0]
        g2 = LosGraph(user=graph.user, user_node=graph.user_node,
                      edges=frozenset(graph.edges | {(i, j)}),
                      distances={**graph.distances, (i, j): 5.0},
                      bs_distance=graph.bs_distance)
        assert optimal_single_route(g2, 64, BETA).gain >= base - 1e-18


# ---------------------------------------------------------------------------
# path separation
# ---------------------------------------------------------------------------

def _hall_scene(m0=24):
    return build_scene(indoor_hall_config(m0=m0))


def test_identical_paths_not_separated():
    scene = _hall_scene()
    p1 = ReflectionPath(irs_sequence=(3, 4, 5), user=1, gain=1.0)
    p2 = ReflectionPath(irs_sequence=(3, 4, 5), user=2, gain=1.0)
    assert not check_path_separation(scene, {1: p1, 2: p2})


def test_coupled_pair_rejected_and_clean_pair_accepted():
    scene = _hall_scene()
    # unconstrained optimum: shares surfaces and cross-LoS
    bad = {1: ReflectionPath((3, 4, 5), 1, 1.0), 2: ReflectionPath((3, 4, 6), 2, 1.0)}
    assert not check_path_separation(scene, bad)
    good = {1: ReflectionPath((3, 4, 5), 1, 1.0), 2: ReflectionPath((7, 8), 2, 1.0)}
    assert check_path_separation(scene, good)
    # cross-LoS without sharing: surface 4 sees user 1
    assert los_indicator(scene, 4, 9) == 1
    crossed = {1: ReflectionPath((1, 2), 1, 1.0), 2: ReflectionPath((4, 6), 2, 1.0)}
    assert not check_path_separation(scene, crossed)


def test_separation_symmetric_in_user_order():
    scene = _hall_scene()
    a = {1: ReflectionPath((1, 2), 1, 1.0), 2: ReflectionPath((7, 8), 2, 1.0)}
    b = {2: ReflectionPath((7, 8), 2, 1.0), 1: ReflectionPath((1, 2), 1, 1.0)}
    assert check_path_separation(scene, a) == check_path_separation(scene, b)


# ---------------------------------------------------------------------------
# multi-user routing vs joint brute force
# ---------------------------------------------------------------------------

def _joint_brute_force(scene, graphs, m, beta, n_bs):
    routes = {k: enumerate_routes(g) for k, g in graphs.items()}
    users = sorted(graphs)
    best = None
    for combo in itertools.product(*(routes[k] for k in users)):
        paths = {k: ReflectionPath(seq, k, path_gain(graphs[k], seq, m, beta, n_bs))
                 for k, seq in zip(users, combo)}
        if not check_path_separation(scene, paths):
            continue
        objective = min(p.gain for p in paths.values())
        if best is None or objective > best[0]:
            best = (objective, paths)
    if best is None:
        raise Infeasible("brute force found nothing")
    return best


def test_single_user_multi_route_equals_single_route():
    scene = _hall_scene()
    graph = build_los_graph(scene, 1)
    m = scene.irs[0].size
    single = optimal_single_route(graph, m, scene.constants.beta, scene.n_bs)
    multi = optimal_multi_route(scene, {1: graph}, m, scene.constants.beta, scene.n_bs)
    assert multi.paths[1].irs_sequence == single.irs_sequence
    assert multi.objective == pytest.approx(single.gain, rel=1e-12)


def test_multi_route_matches_joint_brute_force_on_50_instances():
    rng = np.random.default_rng(59)
    feasible = 0
    for _ in range(50):
        n_irs = int(rng.integers(3, 9))
        scene = build_scene(random_two_user_config(rng, n_irs))
        graphs = {k: build_los_graph(scene, k) for k in (1, 2)}
        m = 4
        try:
            want_obj, _ = _joint_brute_force(scene, graphs, m, scene.constants.beta,
                                             scene.n_bs)
        except (Infeasible, NoFeasiblePath):
            with pytest.raises(Infeasible):
                optimal_multi_route(scene, graphs, m, scene.constants.beta, scene.n_bs)
            continue
        got = optimal_multi_route(scene, graphs, m, scene.constants.beta, scene.n_bs)
        assert got.separation_ok
        assert got.objective == pytest.approx(want_obj, rel=1e-9)
        feasible += 1
    assert feasible >= 5


def test_objective_nonincreasing_in_added_user():
    scene = _hall_scene()
    graphs = {1: build_los_graph(scene, 1)}
    m = scene.irs[0].size
    one = optimal_multi_route(scene, graphs, m, scene.constants.beta, scene.n_bs)
    graphs[2] = build_los_graph(scene, 2)
    two = optimal_multi_route(scene, graphs, m, scene.constants.beta, scene.n_bs)
    assert two.objective <= one.objective + 1e-18


def test_constrained_objective_not_above_unconstrained():
    scene = _hall_scene()
    graphs = {k: build_los_graph(scene, k) for k in (1, 2)}
    m = scene.irs[0].size
    unc = unconstrained_multi_route(scene, graphs, m, scene.constants.beta, scene.n_bs)
    con = optimal_multi_route(scene, graphs, m, scene.constants.beta, scene.n_bs)
    assert con.objective <= unc.objective + 1e-18
    assert not unc.separation_ok
    assert unc.paths[2].irs_sequence != con.paths[2].irs_sequence


def test_infeasible_reports_diagnostics():
    scene = _hall_scene()
    # both users share the identical tiny region: separation impossible
    cfg = indoor_hall_config(m0=24)
    cfg["effective_regions"] = {"1": [3], "2": [3]}
    scene = build_scene(cfg)
    graphs = {k: build_los_graph(scene, k) for k in (1, 2)}
    with pytest.raises(Infeasible) as err:
        optimal_multi_route(scene, graphs, 576, scene.constants.beta, scene.n_bs)
    assert isinstance(err.value.diagnostics, dict)


def _no_routing(*args, **kwargs):
    raise AssertionError("a route was searched")


@pytest.mark.parametrize("router", [optimal_multi_route, unconstrained_multi_route])
def test_multi_routers_reject_empty_graphs_before_any_work(router, monkeypatch):
    scene = _hall_scene()
    monkeypatch.setattr(routing, "enumerate_routes", _no_routing)
    monkeypatch.setattr(routing, "optimal_single_route", _no_routing)
    with pytest.raises(ValueError, match="graphs must map at least one user"):
        router(scene, {}, 576, scene.constants.beta, scene.n_bs)


@pytest.mark.parametrize("router", [optimal_multi_route, unconstrained_multi_route])
def test_multi_routers_reject_a_graph_filed_under_another_user(router, monkeypatch):
    scene = _hall_scene()
    graphs = {1: build_los_graph(scene, 1), 2: build_los_graph(scene, 1)}
    monkeypatch.setattr(routing, "enumerate_routes", _no_routing)
    monkeypatch.setattr(routing, "optimal_single_route", _no_routing)
    with pytest.raises(ValueError, match=r"graphs\[2\] is the LoS graph of user 1"):
        router(scene, graphs, 576, scene.constants.beta, scene.n_bs)


# ---------------------------------------------------------------------------
# interference audit
# ---------------------------------------------------------------------------

def test_single_user_audit_has_zero_interference():
    scene = _hall_scene()
    graph = build_los_graph(scene, 1)
    path = optimal_single_route(graph, 576, scene.constants.beta, scene.n_bs)
    from irsim.routing import RoutingSolution
    sol = RoutingSolution(paths={1: path}, objective=path.gain, separation_ok=True)
    report, = interference_audit(scene, 60, [sol])
    assert report[1]["interference"] == 0.0
    assert report[1]["desired"] > 0


def test_separated_pairing_has_less_interference():
    scene = _hall_scene()
    graphs = {k: build_los_graph(scene, k) for k in (1, 2)}
    m = scene.irs[0].size
    unc = unconstrained_multi_route(scene, graphs, m, scene.constants.beta, scene.n_bs)
    con = optimal_multi_route(scene, graphs, m, scene.constants.beta, scene.n_bs)
    worst_unc, worst_con = [], []
    for seed in range(5):
        ru, rc = interference_audit(scene, 61 + seed, [unc, con])
        worst_unc.append(max(r["interference_over_noise"] for r in ru.values()))
        worst_con.append(max(r["interference_over_noise"] for r in rc.values()))
    assert np.mean(worst_con) < np.mean(worst_unc)


def test_clean_los_separated_interference_below_noise():
    # small arrays, pure LoS, well-separated beams: scattered leakage is
    # below the noise power
    rng = np.random.default_rng(62)
    for attempt in range(40):
        cfg = random_two_user_config(rng, n_irs=6, m0=3)
        cfg["constants"]["kappa_db"] = "inf"
        scene = build_scene(cfg)
        graphs = {k: build_los_graph(scene, k) for k in (1, 2)}
        try:
            sol = optimal_multi_route(scene, graphs, 9, scene.constants.beta, scene.n_bs)
        except (Infeasible, NoFeasiblePath):
            continue
        report, = interference_audit(scene, 63, [sol])
        for r in report.values():
            assert r["interference_over_noise"] < 1.0
        return
    pytest.skip("no feasible separated instance drawn")


@pytest.mark.parametrize("solutions", [[], [RoutingSolution({}, 0.0, True)]],
                         ids=["no_solution", "no_user"])
def test_audit_rejects_solutions_that_route_nobody(solutions):
    with pytest.raises(ValueError, match="solutions must route at least one user"):
        interference_audit(_hall_scene(), 0, solutions)


def _reference_audit(scene, seed, solutions):
    """The audit on fully drawn link matrices, from the public functions."""
    channels = synthesize_channels(scene, seed)
    consts = scene.constants
    reports = []
    for sol in solutions:
        phases = unit_phases(scene)
        for k, path in sorted(sol.paths.items()):
            phases.update(multi_hop_phases(channels, path.irs_sequence, user=k))
        beams = {k: mrt_beam(channels.get(0, path.irs_sequence[0]).los_tx)
                 for k, path in sol.paths.items()}
        report = {}
        for k in sorted(sol.paths):
            h = effective_channel(channels, k, phases)
            power = {kp: consts.tx_power * abs(h @ w) ** 2 for kp, w in beams.items()}
            interference = sum(p for kp, p in power.items() if kp != k)
            report[k] = {"desired": power[k], "interference": interference,
                         "interference_over_noise": interference / consts.noise_power}
        reports.append(report)
    return reports


def _both_routings(scene):
    """The unconstrained and the separated routing of users 1 and 2."""
    graphs = {k: build_los_graph(scene, k) for k in (1, 2)}
    m, beta = scene.irs[0].size, scene.constants.beta
    return [unconstrained_multi_route(scene, graphs, m, beta, scene.n_bs),
            optimal_multi_route(scene, graphs, m, beta, scene.n_bs)]


def _audit_cases():
    """The hall at m0 = 3, and six two-user scenes whose users have distinct
    effective regions (three of the hall, three random), each with both of
    its routings."""
    hall = build_scene(indoor_hall_config(m0=3, kappa_db=0))
    cases = [(hall, _both_routings(hall))]
    rng = np.random.default_rng(64)
    for from_hall in (True, False):
        found = 0
        for _ in range(300):
            cfg = (indoor_hall_config(m0=3) if from_hall
                   else random_two_user_config(rng, n_irs=6))
            cfg["constants"]["kappa_db"] = float(rng.choice([0.0, 10.0, 20.0]))
            n = len(cfg["irs"])
            regions = [sorted(int(j) + 1 for j in rng.permutation(n)[:n - 1 - from_hall])
                       for _ in (1, 2)]
            cfg["effective_regions"] = {"1": regions[0], "2": regions[1]}
            try:
                scene = build_scene(cfg)
                solutions = _both_routings(scene)
            except (Infeasible, NoFeasiblePath):
                continue
            if regions[0] != regions[1]:
                cases.append((scene, solutions))
                found += 1
            if found == 3:
                break
    assert len(cases) == 7
    return cases


def test_audit_equals_the_full_matrix_audit_with_the_draws_zeroed(monkeypatch):
    """With every Gaussian draw zero both audits see the LoS parts alone, so
    they agree to rounding; where the users' regions differ, the rows' zero
    phases off each user's graph keep the other user's paths out."""
    monkeypatch.setattr(irsim.channels, "_cn",
                        lambda rng, n_rx, n_tx: np.zeros((n_rx, n_tx), dtype=complex))
    for scene, solutions in _audit_cases():
        got = interference_audit(scene, 65, solutions)
        want = _reference_audit(scene, 65, solutions)
        for g, w in zip(got, want, strict=True):
            assert g.keys() == w.keys()
            for k in w:
                for key in ("desired", "interference"):
                    assert g[k][key] == pytest.approx(w[k][key], rel=1e-12, abs=1e-300)


def test_audit_has_the_law_of_the_full_matrix_audit():
    """Over 300 seeds, each desired and interference power and each
    solution's max over users has the full-matrix audit's mean, within 4
    standard errors of the paired difference (the links into users are
    shared, the links into surfaces drawn apart).  The direct links, the
    same draws on both sides, are faded out so that the reflected paths
    carry the powers."""
    cfg = indoor_hall_config(m0=3, kappa_db=0)
    cfg["constants"]["alpha"] = {"bs_user": 10.0}
    scene = build_scene(cfg)
    solutions = _both_routings(scene)
    diffs = collections.defaultdict(list)
    for seed in range(300):
        got = interference_audit(scene, seed, solutions)
        want = _reference_audit(scene, seed, solutions)
        for s, (g, w) in enumerate(zip(got, want)):
            for k in w:
                for key in ("desired", "interference"):
                    diffs[s, k, key].append(g[k][key] - w[k][key])
            diffs[s, "max"].append(max(r["interference"] for r in g.values())
                                   - max(r["interference"] for r in w.values()))
    assert len(diffs) == 2 * 5
    for name, d in diffs.items():
        d = np.asarray(d)
        assert abs(d.mean()) <= 4 * d.std(ddof=1) / math.sqrt(len(d)), name
