"""Beam routing on the LoS graph: single-user shortest path and multi-user
max-min routing under path separation.

The log transform of the closed-form path gain makes the single-user
problem additive: a shortest path over the acyclic graph.  Ties are broken
toward fewer hops, then the lexicographically smallest IRS sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beams import closed_form_path_gain, multi_hop_phases
from .channels import (_link_rng, _los_terms, _positive, _rician_rows, _tail_pass,
                       enumerate_graph_paths, mrt_beam, synthesize_channels, unit_phases)
from .geometry import LosGraph, Scene, _edge_order, build_los_graph, route_links

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
    """Element count of surface j: the common scalar, or its own entry (a
    ValueError naming `m_elements` when it has none)."""
    try:
        m = m_elements if np.isscalar(m_elements) else m_elements[j]
    except (KeyError, IndexError):
        raise ValueError(f"m_elements has no entry for IRS {j}") from None
    return _positive(float(m), "m_elements")


def edge_weight(edge, distance: float, m_elements, beta: float) -> float:
    """Additive weight of one LoS edge: the negative log of its gain
    contribution.  Hops into a surface earn the squared aperture factor of
    that surface; the final hop into the user only pays propagation."""
    i, j, into_user = edge
    w = 2.0 * math.log(distance) - math.log(beta)
    if not into_user:
        w -= 2.0 * math.log(_irs_elements(j, m_elements))
    return w


def path_distances(graph: LosGraph, path) -> list[float]:
    links = route_links(path, graph.user_node)
    if not all(link in graph.distances for link in links):     # () is the direct link
        raise ValueError(f"path must be a route of user {graph.user}'s graph, got {path}")
    return [graph.distances[link] for link in links]


def path_gain(graph: LosGraph, path, m_elements, beta: float, n_bs: int = 1) -> float:
    """Closed-form LoS gain of a route in the graph."""
    return closed_form_path_gain(len(path), [_irs_elements(j, m_elements) for j in path],
                                 n_bs, beta, path_distances(graph, path))


def optimal_single_route(graph: LosGraph, m_elements, beta: float, n_bs: int = 1) -> ReflectionPath:
    """Log-weight shortest path solution of the single-user routing problem.

    Maximizes the closed-form LoS path gain (the direct link is ignored as
    the worst-case assumption).  Each edge is relaxed once, in topological
    order (the reverse of `graph.edge_order`), so a node's label is final
    before its edges are walked.  Ties prefer fewer hops, then the smallest
    IRS sequence.  ValueError unless `beta` and the element counts are positive and finite.
    """
    _positive(beta, "beta")
    best = {0: (0.0, 0, ())}           # node -> (weight, hops, sequence)
    for i, j in reversed(graph.edge_order):
        if i in best:
            w0, hops, seq = best[i]
            cand = (w0 + edge_weight((i, j, j == graph.user_node), graph.distances[(i, j)],
                                     m_elements, beta),
                    hops + 1, seq if j == graph.user_node else seq + (j,))
            best[j] = min(best.get(j, cand), cand)
    if graph.user_node not in best:
        raise NoFeasiblePath(f"user node {graph.user_node} is unreachable")
    _, _, seq = best[graph.user_node]
    return ReflectionPath(irs_sequence=seq, user=graph.user,
                          gain=path_gain(graph, seq, m_elements, beta, n_bs))


# ---------------------------------------------------------------------------
# Multi-user routing
# ---------------------------------------------------------------------------

def _check_graphs(graphs: dict) -> None:
    """ValueError unless `graphs` maps at least one user to that user's graph."""
    if not graphs:
        raise ValueError("graphs must map at least one user to its LoS graph")
    for k, graph in graphs.items():
        if graph.user != k:
            raise ValueError(f"graphs[{k}] is the LoS graph of user {graph.user}")


def check_path_separation(scene: Scene, paths: dict) -> bool:
    """True iff every pair of user routes is separated: disjoint surfaces
    and no LoS coupling between any two non-BS nodes of different routes."""
    users = sorted(paths)
    return all(_routes_separated(scene, paths[k], paths[kp])
               for idx, k in enumerate(users) for kp in users[idx + 1:])


def optimal_multi_route(scene: Scene, graphs: dict, m_elements, beta: float,
                        n_bs: int = 1) -> RoutingSolution:
    """Max-min multi-user routing under the path-separation constraints.

    Exact recursive enumeration: users are ordered by their best
    single-route gain, each keeps all its routes (ranked by closed-form
    gain, then fewer hops, then the smaller surface sequence), and
    assignments are searched depth-first with min-gain pruning.  ValueError
    when `graphs` is empty or files a graph under another user.
    """
    _check_graphs(graphs)
    users = sorted(graphs)
    cands = {}
    diagnostics = {}
    for k in users:
        routes = (ReflectionPath(seq, k, path_gain(graphs[k], seq, m_elements, beta, n_bs))
                  for seq in enumerate_routes(graphs[k]))
        cands[k] = sorted(routes, key=lambda p: (-p.gain, p.hops, p.irs_sequence))
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
            if not all(_routes_separated(scene, cand, prev) for prev in chosen.values()):
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
    """Disjoint surfaces, and no LoS coupling in either direction between the
    non-BS nodes (surfaces and user) of one route and those of the other."""
    _, los = scene._links
    nodes_a, nodes_b = ((*p.irs_sequence, scene.n_irs + p.user) for p in (pa, pb))
    return set(pa.irs_sequence).isdisjoint(pb.irs_sequence) and not any(
        (a, b) in los or (b, a) in los for a in nodes_a for b in nodes_b)


def unconstrained_multi_route(scene: Scene, graphs: dict, m_elements, beta: float,
                              n_bs: int = 1) -> RoutingSolution:
    """Independent per-user optima, ignoring separation (for comparison).
    ValueError when `graphs` is empty or files a graph under another user."""
    _check_graphs(graphs)
    paths = {k: optimal_single_route(graph, m_elements, beta, n_bs)
             for k, graph in sorted(graphs.items())}
    objective = min(p.gain for p in paths.values())
    return RoutingSolution(paths=paths, objective=objective,
                           separation_ok=check_path_separation(scene, paths))


# ---------------------------------------------------------------------------
# Interference audit
# ---------------------------------------------------------------------------

def interference_audit(scene: Scene, seed: int, solutions) -> list[dict]:
    """Received interference per user of each routed solution, all under one
    draw of the full scattered channel at `seed`: one {user: report} each.

    Each surface on a route gets that route's closed-form phases, others stay
    at zero phase (the later user wins a conflict), and the BS applies MRT
    toward each route's first surface.  One tail pass over the users' graphs
    carries a row per (solution, user), zero-phased off that user's graph.
    Links into users, the direct ones included, are drawn in full; links into
    surfaces only as their product with those rows (the same law)."""
    consts = scene.constants
    rows = [(s, k) for s, sol in enumerate(solutions) for k in sorted(sol.paths)]
    if not rows:
        raise ValueError("solutions must route at least one user")
    owner = np.array([scene.n_irs + k for _, k in rows])
    channels = synthesize_channels(scene, seed, [ij for ij in scene._links[0] if ij[1] in owner])
    configs, beams = [], []
    for sol in solutions:
        configs.append(unit_phases(scene))
        for k, path in sorted(sol.paths.items()):
            configs[-1].update(multi_hop_phases(channels, path.irs_sequence, user=k))
        beams.append({k: mrt_beam(_los_terms(scene, 0, path.irs_sequence[0])[4])
                      for k, path in sol.paths.items()})
    stacked = {j: np.array([configs[s][j] * (j in scene.effective_regions[k - 1])
                            for s, k in rows]) for j in configs[0]}

    def link(a, b, x):
        if x is None:
            return (owner == b)[:, None] * channels.get(a, b).matrix
        return _rician_rows(scene, a, b, x, _link_rng(seed, a, b))[0]

    graphs = [build_los_graph(scene, k, False) for k in {k for _, k in rows}]
    h = _tail_pass(scene, [*_edge_order(graphs), *((0, g.user_node) for g in graphs)],
                   stacked, link)[0]
    reports = [{} for _ in solutions]
    for r, (s, k) in enumerate(rows):
        power = {kp: consts.tx_power * abs(h[r] @ w) ** 2 for kp, w in beams[s].items()}
        interference = sum(p for kp, p in power.items() if kp != k)
        reports[s][k] = {"desired": power[k], "interference": interference,
                         "interference_over_noise": interference / consts.noise_power}
    return reports
