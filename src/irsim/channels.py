"""Link channel synthesis and multi-reflection channel composition.

Every directed link (i, j) is stored as an (rx x tx) complex matrix in the
downlink propagation direction, so a reflection chain composes as

    amplitude at user = H_last @ Phi_n @ ... @ Phi_1 @ H_first @ w.

`effective_channel` returns the vector h with received amplitude h @ w for
a BS weight vector w; the matched (MRT) beam is conj(h)/norm(h).

LoS components are far-field rank-one: H_los = rho * outer(a_rx, a_tx)
with unit-modulus array responses and rho carrying the path gain and the
carrier phase of the nominal distance.  Rician mixing adds an i.i.d.
circularly-symmetric Gaussian part; that law is written once (`_rician_draws`)
and also serves the reference-point controller links of beam training.

Every path or graph composition (one explicit path, the full path sum and
its affine form in one surface's phases) goes through one dynamic program
over an ordered edge list, `_compose`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (LosGraph, PanelArray, Scene, build_los_graph, has_geometric_los,
                       route_links)


def array_response(panel: PanelArray, direction, wavelength: float) -> np.ndarray:
    """Unit-modulus panel response for a unit propagation direction."""
    d = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(d) - 1.0) > 1e-9:
        raise ValueError("array_response requires a unit direction vector")
    phase = (2.0 * np.pi / wavelength) * (panel.element_offsets @ d)
    return np.exp(1j * phase)


def path_loss(distance_m: float, alpha: float, beta: float) -> float:
    """Linear power gain beta * d**(-alpha); beta is the 1 m reference."""
    if distance_m <= 0.0:
        raise ValueError(f"path loss needs a positive distance, got {distance_m}")
    return beta * distance_m ** (-alpha)


@dataclass(frozen=True)
class LinkChannel:
    """One directed link channel with its LoS decomposition when present."""

    i: int
    j: int
    matrix: np.ndarray          # (n_j, n_i)
    distance_m: float
    path_loss_linear: float
    los_gain: complex | None    # rho; None when geometrically blocked
    los_rx: np.ndarray | None   # response at node j
    los_tx: np.ndarray | None   # response at node i

    @property
    def los_component(self) -> np.ndarray | None:
        if self.los_gain is None:
            return None
        return self.los_gain * np.outer(self.los_rx, self.los_tx)


def _node_response(scene: Scene, node: int, direction, lam: float) -> np.ndarray:
    if node == 0:
        return array_response(scene.bs, direction, lam)
    if scene.is_user(node):
        return np.ones(1, dtype=complex)
    return array_response(scene.irs[node - 1], direction, lam)


def synth_link(scene: Scene, i: int, j: int, rng: np.random.Generator) -> LinkChannel:
    """Draw one Rician link channel between nodes i and j.

    kappa = inf gives the pure LoS rank-one channel; a geometrically
    blocked link is pure NLoS regardless of kappa.
    """
    return next(_rician_draws(scene, i, j, rng))


def _rician_draws(scene: Scene, i: int, j: int, rng: np.random.Generator, count: int = 1,
                  rx_panel: bool = True, tx_panel: bool = True):
    """Yield `count` Rician realizations of link i -> j drawn from one stream.

    With `rx_panel`/`tx_panel` false that end is the node's single
    reference-point (controller) antenna instead of its element panel.
    """
    consts = scene.constants
    lam = consts.wavelength
    d = scene.distance(i, j)
    alpha, kappa = consts.link_params(i, j, scene.link_class(i, j))
    pl = path_loss(d, alpha, consts.beta)
    n_rx = scene.node_size(j) if rx_panel else 1
    n_tx = scene.node_size(i) if tx_panel else 1

    rho = a_rx = a_tx = los_part = None
    if has_geometric_los(scene, i, j):
        u = (scene.node_position(j) - scene.node_position(i)) / d
        a_tx = _node_response(scene, i, u, lam) if tx_panel else np.ones(1, dtype=complex)
        a_rx = _node_response(scene, j, -u, lam) if rx_panel else np.ones(1, dtype=complex)
        rho = math.sqrt(pl) * np.exp(-2j * np.pi * d / lam)
        los_part = rho * np.outer(a_rx, a_tx)

    for _ in range(count):
        if los_part is not None and math.isinf(kappa):
            matrix = los_part
        else:
            nlos_part = math.sqrt(pl) * _cn(rng, n_rx, n_tx)
            matrix = nlos_part if los_part is None else (
                math.sqrt(kappa / (1 + kappa)) * los_part + math.sqrt(1 / (1 + kappa)) * nlos_part)
        yield LinkChannel(i=i, j=j, matrix=matrix, distance_m=d, path_loss_linear=pl,
                          los_gain=rho, los_rx=a_rx, los_tx=a_tx)


def _cn(rng: np.random.Generator, n_rx: int, n_tx: int) -> np.ndarray:
    """i.i.d. unit-variance circularly-symmetric complex Gaussian matrix."""
    return (rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))) / math.sqrt(2.0)


@dataclass
class ChannelSet:
    """All link channels of a scene, reproducible from one seed.

    Contains every admissible reflection link plus the direct BS-user
    channels.  Each link uses its own seed substream, so adding or removing
    other links never perturbs a given draw.
    """

    scene: Scene
    seed: int
    links: dict = field(default_factory=dict)
    # (user, los_only) -> ordered edge list of that reflection graph; threads
    # that race to fill an entry compute the same list, so no lock is needed
    _edge_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def get(self, i: int, j: int) -> LinkChannel:
        try:
            return self.links[(i, j)]
        except KeyError:
            raise KeyError(f"no link channel ({i}, {j}) in this set") from None

    def direct(self, user: int) -> np.ndarray:
        """Direct BS-to-user channel as a length-N_B row (flow form)."""
        return self.get(0, self.scene.n_irs + user).matrix[0]


def _link_rng(seed: int, i: int, j: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, i, j)))


def synthesize_channels(scene: Scene, seed: int, links=None) -> ChannelSet:
    """Synthesize every admissible link, the direct BS-user links included.

    `links` restricts synthesis to the named (i, j) pairs; thanks to the
    per-link seed substreams the drawn channels are identical either way.
    """
    cs = ChannelSet(scene=scene, seed=seed)
    for (i, j) in (scene._links[0] if links is None else links):
        cs.links[(i, j)] = synth_link(scene, i, j, _link_rng(seed, i, j))
    return cs


def unit_phases(scene: Scene) -> dict:
    """All-zero phase configuration (every coefficient 1)."""
    return {j + 1: np.ones(scene.irs[j].size, dtype=complex) for j in range(scene.n_irs)}


def check_unit_modulus(phases: dict) -> None:
    for j, theta in phases.items():
        err = np.max(np.abs(np.abs(theta) - 1.0))
        if err > 1e-9:
            raise ValueError(f"phase vector of IRS {j} is not unit modulus (max dev {err:.2e})")


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def _compose(channels: ChannelSet, edges, phases: dict, irs: int | None = None):
    """Sum over every BS-to-user path of an ordered reflection edge list.

    `edges` holds directed (a, b) node pairs grouped by source, the sources
    in reverse topological order (the BS last) and each source's
    successors in ascending order.  One tail pass builds down[v], the row
    mapping the signal incident on v's elements to the user amplitude, so
    h = down[0].  Given `irs`, one head pass also aggregates the BS-to-irs
    channel (M, N_B) and the result is the pair (a, B) with
    h = a + phases[irs] @ B; a surface no path crosses gets B = 0, a = h.
    """
    scene = channels.scene
    down: dict[int, np.ndarray] = {}
    for a, b in edges:
        if scene.is_user(b):
            term = channels.get(a, b).matrix
        elif b in down:
            term = (down[b] * phases[b][None, :]) @ channels.get(a, b).matrix
        else:
            continue                               # b reaches no user
        down[a] = down[a] + term if a in down else term
    h = down[0][0] if 0 in down else np.zeros(scene.n_bs, dtype=complex)
    if irs is None:
        return h

    head: dict[int, np.ndarray] = {}
    if irs in down:
        for v in reversed(list(dict.fromkeys(a for a, _ in edges))):   # BS first
            for p in sorted(a for a, b in edges if b == v):
                if p == 0:
                    term = channels.get(0, v).matrix
                elif p in head:
                    term = channels.get(p, v).matrix @ (head[p] * phases[p][:, None])
                else:
                    continue                       # p is out of the BS's reach
                head[v] = head[v] + term if v in head else term
            if v == irs:
                break
    if irs not in head:
        return h, np.zeros((scene.node_size(irs), scene.n_bs), dtype=complex)
    coeff = down[irs].ravel()[:, None] * head[irs]
    return h - phases[irs] @ coeff, coeff


def _path_edges(path, target: int) -> list:
    """Edge list of one explicit reflection path (a chain graph), last hop
    first as `_compose` expects."""
    return route_links(path, target)[::-1]


def _graph_edges(channels: ChannelSet, user: int, los_only: bool, irs_subset=None) -> list:
    """Edge list of a user's reflection graph restricted to `irs_subset`.

    The graph's edges are derived once per channel set and cached on it.
    """
    key = (user, bool(los_only))
    edges = channels._edge_cache.get(key)
    if edges is None:
        graph = build_los_graph(channels.scene, user, require_los=los_only)
        order = sorted(graph.irs_nodes, key=lambda n: -graph.bs_distance[n]) + [0]
        edges = channels._edge_cache[key] = [(v, w) for v in order
                                             for w in graph.successors(v)]
    if irs_subset is None:
        return edges
    keep = {0, *irs_subset}      # an excluded surface then never enters the DP
    return [(a, b) for a, b in edges if a in keep]


def cascaded_path_channel(channels: ChannelSet, path, phases: dict, user: int | None = None) -> np.ndarray:
    """Effective BS-side channel vector of one reflection path.

    `path` is the ordered IRS index list; the terminal hop goes to the
    given user (default user 1).  Returns h with received amplitude h @ w.
    """
    if not path:
        raise ValueError("a reflection path needs at least one IRS")
    target = channels.scene.n_irs + (user if user is not None else 1)
    return _compose(channels, _path_edges(path, target), phases)


def enumerate_graph_paths(graph: LosGraph, max_paths: int | None = None):
    """All BS-to-user IRS sequences of a reflection graph, in lexicographic
    order of the IRS index sequence."""
    paths = []

    def visit(node, seq):
        if max_paths is not None and len(paths) >= max_paths:
            return
        succ = sorted(graph.successors(node))
        if graph.user_node in succ:
            paths.append(tuple(seq))
        for nxt in succ:
            if nxt != graph.user_node:
                visit(nxt, seq + [nxt])

    for j in sorted(graph.successors(0)):
        visit(j, [j])
    return paths[:max_paths] if max_paths is not None else paths


def effective_channel(channels: ChannelSet, user: int, phases: dict,
                      los_only: bool = False, include_direct: bool = True,
                      irs_subset=None) -> np.ndarray:
    """Superposed effective channel of one user over all reflection paths.

    The path sum runs over the user's reflection graph (every admissible
    path, or only the LoS paths with `los_only`); `irs_subset` restricts
    the graph to the named IRSs.  Computed by dynamic programming over the
    acyclic graph, which is equivalent to the explicit path sum.
    """
    h = _compose(channels, _graph_edges(channels, user, los_only, irs_subset), phases)
    if include_direct:
        h = h + channels.direct(user)
    return h


def effective_channel_affine(channels: ChannelSet, user: int, phases: dict, irs: int,
                             los_only: bool = False, include_direct: bool = True,
                             irs_subset=None):
    """Decompose h = a + B^T theta_irs holding all other phases fixed.

    Returns (a, B) with a of shape (N_B,) and B of shape (M, N_B), so the
    received amplitude for BS weights w is a @ w + theta @ (B @ w).
    """
    base, coeff = _compose(channels, _graph_edges(channels, user, los_only, irs_subset),
                           phases, irs)
    if include_direct:
        base = base + channels.direct(user)
    return base, coeff


def mrt_beam(h: np.ndarray) -> np.ndarray:
    """Unit-norm BS weights maximizing |h @ w|."""
    n = np.linalg.norm(h)
    if n == 0.0:
        raise ValueError("cannot form an MRT beam for a zero channel")
    return np.conj(h) / n


# ---------------------------------------------------------------------------
# Fixture serialization
# ---------------------------------------------------------------------------

def dump_channels(channels: ChannelSet, path) -> None:
    """Write the raw link matrices as nested JSON arrays of [re, im] pairs."""
    payload = {"seed": channels.seed, "links": {}}
    for (i, j), link in sorted(channels.links.items()):
        stacked = np.stack([link.matrix.real, link.matrix.imag], axis=-1)
        payload["links"][f"{i}-{j}"] = stacked.tolist()
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_channel_matrices(path) -> dict:
    """Read back the matrices written by dump_channels."""
    with open(path) as fh:
        payload = json.load(fh)
    out = {}
    for key, ent in payload["links"].items():
        i, j = (int(x) for x in key.split("-"))
        arr = np.asarray(ent)
        out[(i, j)] = arr[..., 0] + 1j * arr[..., 1]
    return out
