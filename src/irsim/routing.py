"""Beam routing on the LoS graph: single-user shortest path, the
direct-link variant, and multi-user max-min routing under path separation.

The log transform of the closed-form path gain makes the single-user
problem additive, so Bellman-Ford applies; ties are broken toward fewer
hops and then the lexicographically smallest IRS sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beams import (bs_mrt_to_first_irs, closed_form_path_gain, multi_hop_phases,
                    path_gain_with_direct)
from .channels import effective_channel, enumerate_graph_paths, unit_phases
from .geometry import LosGraph, Scene, route_links

enumerate_routes = enumerate_graph_paths     # public name of the route enumeration


class NoFeasiblePath(RuntimeError):
    """No reflection route exists between the BS and the user."""


class Infeasible(RuntimeError):
    """No separated multi-user route assignment exists."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class ReflectionPath:
    """An ordered surface sequence carrying one user's beam."""

    irs_sequence: tuple[int, ...]
    user: int
    gain: float

    @property
    def hops(self) -> int:
        return len(self.irs_sequence)


@dataclass
class RoutingSolution:
    paths: dict                      # user -> ReflectionPath
    objective: float                 # min over users of the path gain
    separation_ok: bool


def _irs_elements(j: int, m_elements) -> float:
    """Element count of surface j: the common scalar, or its own entry."""
    return float(m_elements if np.isscalar(m_elements) else m_elements[j])


def edge_weight(edge, distance: float, m_elements, beta: float) -> float:
    """Additive weight of one LoS edge: the negative log of its gain
    contribution.  Hops into a surface earn the squared aperture factor of
    that surface; the final hop into the user only pays propagation."""
    i, j, into_user = edge
    w = 2.0 * math.log(distance) - math.log(beta)
    if not into_user:
        w -= 2.0 * math.log(_irs_elements(j, m_elements))
    return w


def _graph_edge_weight(graph: LosGraph, i: int, j: int, m_elements, beta: float) -> float:
    into_user = j == graph.user_node
    return edge_weight((i, j, into_user), graph.distances[(i, j)], m_elements, beta)


def path_distances(graph: LosGraph, path) -> list[float]:
    return [graph.distances[link] for link in route_links(path, graph.user_node)]


def path_gain(graph: LosGraph, path, m_elements, beta: float, n_bs: int = 1) -> float:
    """Closed-form LoS gain of a route in the graph."""
    return closed_form_path_gain(len(path), [_irs_elements(j, m_elements) for j in path],
                                 n_bs, beta, path_distances(graph, path))


def optimal_single_route(graph: LosGraph, m_elements, beta: float, n_bs: int = 1) -> ReflectionPath:
    """Bellman-Ford solution of the single-user routing problem.

    Maximizes the closed-form LoS path gain (the direct link is ignored as
    the worst-case assumption).  Ties prefer fewer hops, then the smallest
    IRS sequence.
    """
    best = {0: (0.0, 0, ())}           # node -> (weight, hops, sequence)
    for _ in range(len(graph.nodes) - 1):
        changed = False
        for (i, j) in sorted(graph.edges):
            if i not in best:
                continue
            w0, hops, seq = best[i]
            cand = (w0 + _graph_edge_weight(graph, i, j, m_elements, beta),
                    hops + 1,
                    seq if j == graph.user_node else seq + (j,))
            if j not in best or cand < best[j]:
                best[j] = cand
                changed = True
        if not changed:
            break
    if graph.user_node not in best:
        raise NoFeasiblePath(f"user node {graph.user_node} is unreachable")
    _, _, seq = best[graph.user_node]
    return ReflectionPath(irs_sequence=seq, user=graph.user,
                          gain=path_gain(graph, seq, m_elements, beta, n_bs))


def optimal_single_route_with_direct(graph: LosGraph, m_elements, beta: float, n_bs: int,
                                     f_direct: np.ndarray, bs_responses: dict) -> ReflectionPath:
    """Route maximizing the coherently combined reflection + direct gain.

    `bs_responses` maps each first-hop IRS to the BS array response of
    that link.  Falls back to the empty path (direct only) when the graph
    is disconnected but the direct channel is nonzero.
    """
    def gain(_, seq):
        return path_gain_with_direct(len(seq), [_irs_elements(j, m_elements) for j in seq],
                                     n_bs, beta, path_distances(graph, seq), f_direct,
                                     bs_responses[seq[0]])

    best = _candidate_routes(graph, graph.user, m_elements, beta, n_bs, 1, gain)
    if best:
        return best[0]
    f_norm = float(np.linalg.norm(f_direct))
    if f_norm == 0.0:
        raise NoFeasiblePath("no route and no direct channel")
    return ReflectionPath(irs_sequence=(), user=graph.user, gain=f_norm ** 2)


# ---------------------------------------------------------------------------
# Multi-user routing
# ---------------------------------------------------------------------------

def _path_node_set(scene: Scene, path: ReflectionPath):
    return tuple(path.irs_sequence) + (scene.n_irs + path.user,)


def _nodes_coupled(scene: Scene, a: int, b: int) -> bool:
    """LoS coupling between two non-BS nodes, in either direction."""
    _, los = scene._links
    return (a, b) in los or (b, a) in los


def check_path_separation(scene: Scene, paths: dict) -> bool:
    """True iff every pair of user routes is separated: disjoint surfaces
    and no LoS coupling between any two non-BS nodes of different routes."""
    users = sorted(paths)
    return all(_routes_separated(scene, paths[k], paths[kp])
               for idx, k in enumerate(users) for kp in users[idx + 1:])


def _candidate_routes(graph: LosGraph, user: int, m_elements, beta: float, n_bs: int,
                      budget, gain_fn):
    """The `budget` best routes of a graph (all when None), ranked by gain,
    then fewer hops, then the smaller surface sequence."""
    cands = []
    for seq in enumerate_routes(graph):
        if gain_fn is not None:
            g = gain_fn(user, seq)
            if g is None:
                continue
        else:
            g = path_gain(graph, seq, m_elements, beta, n_bs)
        cands.append(ReflectionPath(irs_sequence=seq, user=user, gain=g))
    cands.sort(key=lambda p: (-p.gain, p.hops, p.irs_sequence))
    return cands if budget is None else cands[:budget]


def optimal_multi_route(scene: Scene, graphs: dict, m_elements, beta: float,
                        n_bs: int = 1, budget: int | None = None,
                        gain_fn=None) -> RoutingSolution:
    """Max-min multi-user routing under the path-separation constraints.

    Recursive partial enumeration: users are ordered by their best
    single-route gain, each keeps its `budget` strongest candidate routes
    (all of them when budget is None, which is exact), and assignments are
    searched depth-first with min-gain pruning.  `gain_fn(user, seq)` may
    replace the closed-form gain (e.g. trained approximate gains);
    returning None drops a candidate.
    """
    users = sorted(graphs)
    cands = {}
    diagnostics = {}
    for k in users:
        cands[k] = _candidate_routes(graphs[k], k, m_elements, beta, n_bs, budget, gain_fn)
        diagnostics[k] = len(cands[k])
        if not cands[k]:
            raise Infeasible(f"user {k} has no feasible route", diagnostics)
    order = sorted(users, key=lambda k: -cands[k][0].gain)

    best: dict = {"objective": -math.inf, "paths": None}

    def assign(idx: int, chosen: dict, current_min: float):
        if current_min <= best["objective"]:
            return
        if idx == len(order):
            best["objective"] = current_min
            best["paths"] = dict(chosen)
            return
        k = order[idx]
        for cand in cands[k]:
            if cand.gain <= best["objective"]:
                break                     # candidates sorted by gain
            ok = all(_routes_separated(scene, cand, prev) for prev in chosen.values())
            if not ok:
                continue
            chosen[k] = cand
            assign(idx + 1, chosen, min(current_min, cand.gain))
            del chosen[k]

    assign(0, {}, math.inf)
    if best["paths"] is None:
        raise Infeasible("no separated route assignment exists", diagnostics)
    return RoutingSolution(paths=best["paths"], objective=best["objective"],
                           separation_ok=True)


def _routes_separated(scene: Scene, pa: ReflectionPath, pb: ReflectionPath) -> bool:
    if set(pa.irs_sequence) & set(pb.irs_sequence):
        return False
    for a in _path_node_set(scene, pa):
        for b in _path_node_set(scene, pb):
            if _nodes_coupled(scene, a, b):
                return False
    return True


def unconstrained_multi_route(scene: Scene, graphs: dict, m_elements, beta: float,
                              n_bs: int = 1) -> RoutingSolution:
    """Independent per-user optima, ignoring separation (for comparison)."""
    paths = {}
    for k, graph in sorted(graphs.items()):
        paths[k] = optimal_single_route(graph, m_elements, beta, n_bs)
    objective = min(p.gain for p in paths.values())
    return RoutingSolution(paths=paths, objective=objective,
                           separation_ok=check_path_separation(scene, paths))


# ---------------------------------------------------------------------------
# Interference audit
# ---------------------------------------------------------------------------

def interference_audit(channels, solution: RoutingSolution) -> dict:
    """Received interference per user under the full scattered channel.

    Beamforming follows the routed solution: each surface on a route gets
    the closed-form phases of that route, surfaces serving nobody stay at
    zero phase (conflicting assignments resolve in user order, the later
    user winning), and the BS applies per-user MRT toward the first
    surface of each route.  Interference is evaluated on the complete
    multi-path channel including the scattered (non-LoS-path) reflections.
    """
    scene = channels.scene
    consts = scene.constants
    phases = unit_phases(scene)
    beams = {}
    for k, path in sorted(solution.paths.items()):
        phases.update(multi_hop_phases(channels, path.irs_sequence, user=k))
        beams[k] = bs_mrt_to_first_irs(channels.get(0, path.irs_sequence[0]).los_tx)

    users = sorted(solution.paths)
    h = {k: effective_channel(channels, k, phases, los_only=False, include_direct=True)
         for k in users}
    report = {}
    for k in users:
        desired = consts.tx_power * abs(h[k] @ beams[k]) ** 2
        interference = sum(consts.tx_power * abs(h[k] @ beams[kp]) ** 2
                           for kp in users if kp != k)
        report[k] = {
            "desired": desired,
            "interference": interference,
            "interference_over_noise": interference / consts.noise_power,
        }
    return report
