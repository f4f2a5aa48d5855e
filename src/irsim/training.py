"""Codebook-based beam training: exhaustive and sequential search plus the
distributed table-driven protocol with offline/online phases.

Beam training never touches explicit CSI: the searches probe the realized
channels one node's codebook sweep at a time, while the distributed protocol
builds per-node tables of received signal strengths (RSS) measured at the IRS
controllers and composes them into end-to-end gain estimates.  Controller
measurements average over a configurable number of fading realizations;
with a pure-LoS channel they are deterministic and the composed estimate
is exact for any beam choice.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelSet, _compose, _graph_edges, _path_edges, _rician_draws
from .geometry import Scene, build_los_graph, route_links
from .routing import optimal_multi_route


class NotTrainable(RuntimeError):
    """A path/beam combination has no surviving table rows."""


@dataclass(frozen=True)
class Codebook:
    """A finite set of beams: unit-modulus rows (passive) or unit-norm
    rows (active)."""

    kind: str                  # "active" | "passive"
    beams: np.ndarray          # (D, dim)

    @property
    def size(self) -> int:
        return self.beams.shape[0]


def dft_codebook(n_points: int, dim: int, kind: str = "passive") -> Codebook:
    """DFT steering grid with n_points beams over `dim` elements."""
    if n_points < dim:
        raise ValueError(f"codebook needs at least as many points ({n_points}) as elements ({dim})")
    m = np.arange(dim)
    d = np.arange(n_points)[:, None]
    beams = np.exp(-2j * np.pi * m[None, :] * d / n_points)
    if kind == "active":
        beams = beams / math.sqrt(dim)
    elif kind != "passive":
        raise ValueError(f"unknown codebook kind {kind!r}")
    return Codebook(kind=kind, beams=beams)


def planar_passive_codebook(n_points: int, m0: int) -> Codebook:
    """3D passive codebook: horizontal x vertical per-dimension DFT beams.

    Joint beam index d = d_h * n_points + d_v; each beam has m0^2 entries.
    """
    line = dft_codebook(n_points, m0, kind="passive").beams
    beams = np.einsum("ah,bv->abhv", line, line).reshape(n_points ** 2, m0 ** 2)
    return Codebook(kind="passive", beams=beams)


# ---------------------------------------------------------------------------
# Search over realized channels
# ---------------------------------------------------------------------------

class GainEvaluator:
    """Scores codebook beams by their min-user SNR on realized channels.

    `path` restricts the composition to one reflection route; otherwise the
    path sum runs over the LoS reflection graph of the surfaces `irs_ids`.
    The direct link is never included.  `sweep` scores one node's whole
    codebook with every other node held fixed, which serves both searches.
    """

    def __init__(self, channels: ChannelSet, users, irs_ids=None, path=None):
        self.channels = channels
        self.users = list(users)
        scene = channels.scene
        self.irs_ids = (list(path) if path is not None else
                        sorted(irs_ids if irs_ids is not None else range(1, scene.n_irs + 1)))
        self._edges = {k: (_path_edges(path, scene.n_irs + k) if path is not None
                           else _graph_edges(channels, k, True, self.irs_ids))
                       for k in self.users}
        self.evaluations = 0

    def _channel(self, user: int, phases: dict) -> np.ndarray:
        return _compose(self.channels, self._edges[user], phases)

    def sweep(self, node: int, codebook: Codebook, w: np.ndarray, phases: dict) -> np.ndarray:
        """Min-user SNR of every beam in the codebook of `node` (0 for the BS,
        whose sweep ignores `w`), the other nodes held at `w` and `phases`;
        counts one evaluation per beam."""
        consts = self.channels.scene.constants
        snrs = np.full(codebook.size, np.inf)
        for k in self.users:
            if node == 0:
                amps = codebook.beams @ self._channel(k, phases)
            else:
                base, coeff = _compose(self.channels, self._edges[k], phases, node)
                amps = codebook.beams @ (coeff @ w) + base @ w
            snrs = np.minimum(snrs, consts.tx_power * np.abs(amps) ** 2 / consts.noise_power)
        self.evaluations += codebook.size
        return snrs


@dataclass
class TrainedBeams:
    """Outcome of a codebook search."""

    bs_index: int
    irs_indices: dict              # irs id -> joint beam index
    w: np.ndarray
    phases: dict
    objective: float               # min-user SNR (linear)
    evaluations: int
    combinations: int = 0
    sweeps: int = 0


def exhaustive_search(channels: ChannelSet, users, bs_codebook: Codebook,
                      irs_codebooks: dict, path=None,
                      max_combinations: int = 10_000_000) -> TrainedBeams:
    """Global search over every active/passive beam combination.

    Sweeps the whole BS codebook once per surface-beam combination, so it
    counts one evaluation per combination.  The highest min-user SNR wins,
    ties going to the lowest BS index, then the lowest surface indices.
    Refuses when the combination count D_B * prod(D_I) exceeds
    max_combinations.
    """
    evaluator = GainEvaluator(channels, users, irs_ids=sorted(irs_codebooks), path=path)
    ids = evaluator.irs_ids
    combos = bs_codebook.size * int(np.prod([irs_codebooks[j].size for j in ids]))
    if combos > max_combinations:
        raise ValueError(f"exhaustive search would need {combos} combinations "
                         f"(cap {max_combinations})")
    best = None
    for choice in itertools.product(*(range(irs_codebooks[j].size) for j in ids)):
        irs_idx = dict(zip(ids, choice))
        _, phases = beams_from_choices(channels.scene, bs_codebook, irs_codebooks,
                                       {0: 0, **irs_idx})
        snrs = evaluator.sweep(0, bs_codebook, None, phases)
        bs_idx = int(np.argmax(snrs))                # the lowest BS index among ties
        key = (float(snrs[bs_idx]), -bs_idx)
        if best is None or key > best[0]:            # strict: earlier surface indices win ties
            best = (key, bs_idx, irs_idx)
    (obj, _), bs_idx, irs_idx = best
    w, phases = beams_from_choices(channels.scene, bs_codebook, irs_codebooks,
                                   {0: bs_idx, **irs_idx})
    return TrainedBeams(bs_index=bs_idx, irs_indices=irs_idx, w=w, phases=phases,
                        objective=obj, evaluations=evaluator.evaluations,
                        combinations=combos)


def sequential_search(channels: ChannelSet, users, bs_codebook: Codebook,
                      irs_codebooks: dict, path=None, max_sweeps: int = 20) -> TrainedBeams:
    """Cyclic per-node beam updates until a full sweep changes nothing.

    Each sweep costs D_B + sum_j D_I(j) evaluations; the min-user SNR is
    nondecreasing across updates.
    """
    evaluator = GainEvaluator(channels, users, irs_ids=sorted(irs_codebooks), path=path)
    ids = evaluator.irs_ids
    codebooks = {0: bs_codebook, **{j: irs_codebooks[j] for j in ids}}
    choices = dict.fromkeys(codebooks, 0)          # node -> beam index, the BS first
    sweeps = 0
    objective = 0.0
    for sweeps in range(1, max_sweeps + 1):
        changed = False
        for node, codebook in codebooks.items():
            w, phases = beams_from_choices(channels.scene, bs_codebook, irs_codebooks, choices)
            snrs = evaluator.sweep(node, codebook, w, phases)
            new = int(np.argmax(snrs))
            if snrs[new] > snrs[choices[node]]:
                choices[node], changed = new, True
            objective = float(snrs[choices[node]])
        if not changed:
            break
    w, phases = beams_from_choices(channels.scene, bs_codebook, irs_codebooks, choices)
    return TrainedBeams(bs_index=choices[0], irs_indices={j: choices[j] for j in ids},
                        w=w, phases=phases, objective=objective,
                        evaluations=evaluator.evaluations, sweeps=sweeps)


# ---------------------------------------------------------------------------
# Distributed training tables
# ---------------------------------------------------------------------------

@dataclass
class BeamTrainingTable:
    """Per-node table of thresholded RSS measurements.

    Rows are keyed (previous node, beam index, next node); the BS table
    uses previous node None.  `reference_rss` stores the unreflected
    controller-to-controller strength of each incoming link, used to
    normalize composed gain estimates.  Rows with a user as next node are
    the online part of the protocol.
    """

    owner: int
    threshold: float
    rows: dict = field(default_factory=dict)
    reference_rss: dict = field(default_factory=dict)

    def add(self, prev, beam: int, nxt: int, rss: float) -> None:
        if rss >= self.threshold:
            self.rows[(prev, beam, nxt)] = rss

    def online_rows(self, scene: Scene) -> dict:
        return {key: v for key, v in self.rows.items() if scene.is_user(key[2])}


def _controller_rng(seed: int, owner: int, prev, nxt: int, kind: int = 0) -> np.random.Generator:
    prev_id = 999_983 if prev is None else prev
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(seed, 7, owner, prev_id, nxt, kind)))


def irs_neighbor_sets(scene: Scene, j: int):
    """(previous, next) node sets of node j (0 for the BS) per the LoS
    indicators."""
    scene.node_position(j)               # a ValueError for a node the scene lacks
    _, los = scene._links
    return (sorted(i for i, w in los if w == j),
            sorted(w for i, w in los if i == j))


def _bs_neighbors(scene: Scene) -> list[int]:
    return irs_neighbor_sets(scene, 0)[1]


def _sound(table: BeamTrainingTable, scene: Scene, prev, incident, codebook: Codebook,
           next_nodes, seed: int, averages: int) -> None:
    """Add the time-averaged RSS of every beam of `table.owner` at each next
    node's controller; `incident[t]` scales the owner's elements in
    realization t (1.0 for the BS, which transmits itself)."""
    for nxt in next_nodes:
        draws = _rician_draws(scene, table.owner, nxt,
                              _controller_rng(seed, table.owner, prev, nxt), averages,
                              rx_panel=False)
        rss = np.zeros(codebook.size)
        for t, out in enumerate(draws):
            rss += np.abs(codebook.beams @ (out.matrix[0] * incident[t])) ** 2
        rss /= averages
        for beam, value in enumerate(rss):
            table.add(prev, beam, nxt, float(value))


def build_bs_btt(scene: Scene, codebook: Codebook, threshold: float | None = None,
                 seed: int = 0, averages: int = 10, next_nodes=None) -> BeamTrainingTable:
    """Offline BS table: time-averaged RSS at every next node's controller
    for each active beam, kept when it clears the threshold.

    `next_nodes` restricts the sounded neighbors (default: every LoS one).
    """
    thr = scene.constants.noise_power if threshold is None else threshold
    table = BeamTrainingTable(owner=0, threshold=thr)
    _sound(table, scene, None, [1.0] * averages, codebook,
           _bs_neighbors(scene) if next_nodes is None else next_nodes, seed, averages)
    return table


def build_irs_btt(scene: Scene, irs: int, codebook: Codebook, threshold: float | None = None,
                  seed: int = 0, averages: int = 10,
                  prev_nodes=None, next_nodes=None) -> BeamTrainingTable:
    """Table of surface `irs`: RSS at each next node for every (previous
    node, passive beam) pair, plus the unreflected reference RSS of each
    incoming link.  Rows toward another controller are the offline phase;
    rows toward a user are measured online.

    `prev_nodes`/`next_nodes` restrict the sounded neighbor sets (default:
    every LoS neighbor).
    """
    thr = scene.constants.noise_power if threshold is None else threshold
    table = BeamTrainingTable(owner=irs, threshold=thr)
    if prev_nodes is None or next_nodes is None:
        default_prev, default_next = irs_neighbor_sets(scene, irs)
        prev_nodes = default_prev if prev_nodes is None else prev_nodes
        next_nodes = default_next if next_nodes is None else next_nodes
    next_nodes = list(next_nodes)
    for prev in prev_nodes:
        # the BS sounds with its element panel, a surface with its controller
        w = (np.ones(scene.n_bs, dtype=complex) / math.sqrt(scene.n_bs) if prev == 0
             else np.ones(1, dtype=complex))
        incident = [c.matrix @ w for c in _rician_draws(
            scene, prev, irs, _controller_rng(seed, irs, prev, irs), averages, tx_panel=prev == 0)]
        ref_draws = [c.matrix[0] @ w for c in _rician_draws(
            scene, prev, irs, _controller_rng(seed, irs, prev, irs, kind=1), averages,
            rx_panel=False, tx_panel=prev == 0)]
        table.reference_rss[prev] = float(np.mean([abs(r) ** 2 for r in ref_draws]))
        _sound(table, scene, prev, incident, codebook, next_nodes, seed, averages)
    return table


@dataclass
class GlobalBtt:
    """All tables merged at the BS."""

    bs_table: BeamTrainingTable
    irs_tables: dict               # irs id -> BeamTrainingTable

    def row_count(self) -> int:
        return len(self.bs_table.rows) + sum(len(t.rows) for t in self.irs_tables.values())

    def online_row_count(self, scene: Scene) -> int:
        return sum(len(t.online_rows(scene)) for t in self.irs_tables.values())


def assemble_global_btt(bs_table: BeamTrainingTable, irs_tables) -> GlobalBtt:
    merged = {}
    for table in irs_tables:
        if table.owner in merged:
            raise ValueError(f"duplicate table for surface {table.owner}")
        merged[table.owner] = table
    return GlobalBtt(bs_table=bs_table, irs_tables=merged)


def _route_walk(gbtt: GlobalBtt, path, user_node: int):
    """Yield (node, table, previous node, next node) along a route: the BS
    (previous node None), then each surface in order."""
    links = route_links(path, user_node)
    yield 0, gbtt.bs_table, None, links[0][1]
    for (prev, node), (_, nxt) in zip(links, links[1:]):
        table = gbtt.irs_tables.get(node)
        if table is None:
            raise NotTrainable(f"no table for surface {node}")
        yield node, table, prev, nxt


def approx_gain(gbtt: GlobalBtt, path, user_node: int, beam_choices: dict) -> float:
    """Composed end-to-end gain estimate of a route under given beams.

    Multiplies the BS RSS toward the first surface with each hop's RSS
    divided by the unreflected incoming reference; exact under pure LoS.
    `beam_choices` maps node id (0 for the BS) to the beam index used.
    """
    estimate = 1.0
    for node, table, prev, nxt in _route_walk(gbtt, path, user_node):
        row = (prev, beam_choices[node], nxt)
        reference = 1.0 if prev is None else table.reference_rss.get(prev)
        if row not in table.rows or reference is None:
            raise NotTrainable(f"node {node} has no trained row {row}")
        estimate *= table.rows[row] / reference
    return float(estimate)


def best_beams_for_path(gbtt: GlobalBtt, path, user_node: int):
    """Per-hop argmax beam choices; the estimate factorizes per hop."""
    choices = {}
    for node, table, prev, nxt in _route_walk(gbtt, path, user_node):
        rows = [(rss, beam) for (p, beam, n), rss in table.rows.items()
                if p == prev and n == nxt]
        if not rows:
            raise NotTrainable(f"node {node} never trained hop ({prev} -> {nxt})")
        choices[node] = max(rows, key=lambda t: (t[0], -t[1]))[1]
    return choices


def distributed_route_and_beams(scene: Scene, gbtt: GlobalBtt, bs_codebook: Codebook,
                                irs_codebooks: dict, users=None):
    """Joint route and beam selection from the global table alone.

    Picks per-hop beams maximizing the composed estimate for every
    candidate route, then routes the users by separated max-min on the
    estimates (for one user: the best estimate, ties to fewer hops, then
    the smaller surface sequence).  Returns the routing solution plus the
    chosen beam indices per user.
    """
    users = list(users) if users is not None else list(range(1, scene.n_users + 1))
    graphs = {k: build_los_graph(scene, k) for k in users}

    def trained_gain(user, seq):
        target = scene.n_irs + user
        try:
            choices = best_beams_for_path(gbtt, seq, target)
            return approx_gain(gbtt, seq, target, choices)
        except NotTrainable:
            return None

    solution = optimal_multi_route(scene, graphs, m_elements=0, beta=scene.constants.beta,
                                   gain_fn=trained_gain)
    return solution, {k: best_beams_for_path(gbtt, refl.irs_sequence, scene.n_irs + k)
                      for k, refl in solution.paths.items()}


def beams_from_choices(scene: Scene, bs_codebook: Codebook, irs_codebooks: dict,
                       choices: dict):
    """Materialize (w, phases) from one user's chosen beam indices."""
    w = bs_codebook.beams[choices[0]]
    phases = {j: irs_codebooks[j].beams[idx] for j, idx in choices.items() if j != 0}
    return w, phases


def dump_btt(table: BeamTrainingTable, path) -> None:
    """Serialize a table (the simulated controller feedback wire format)."""
    payload = {
        "owner": table.owner,
        "threshold": table.threshold,
        "reference_rss": {str(k): v for k, v in table.reference_rss.items()},
        "rows": [{"prev": prev, "beam": beam, "next": nxt, "rss": rss}
                 for (prev, beam, nxt), rss in sorted(table.rows.items(),
                                                      key=lambda kv: (str(kv[0][0]), kv[0][1], kv[0][2]))],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_btt(path) -> BeamTrainingTable:
    with open(path) as fh:
        payload = json.load(fh)
    table = BeamTrainingTable(owner=payload["owner"], threshold=payload["threshold"])
    table.reference_rss = {int(k): v for k, v in payload["reference_rss"].items()}
    for row in payload["rows"]:
        table.rows[(row["prev"], row["beam"], row["next"])] = row["rss"]
    return table
