"""Codebook-based beam training: exhaustive and sequential search plus the
distributed table-driven protocol with offline/online phases.

Beam training never touches explicit CSI: the searches probe the realized
channels one node's codebook sweep at a time, while the distributed protocol
builds per-node tables of received signal strengths (RSS) measured at the IRS
controllers, whose per-hop product (each hop's RSS over its unreflected
incoming reference) is a composed end-to-end gain estimate.  Controller
measurements average over a configurable number of fading realizations;
with a pure-LoS channel they are deterministic and the composed estimate
is exact for any beam choice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .channels import (ChannelSet, _compose, _integer, _irs_ids, _path_edges, _positive,
                       _rician_rows, _user_ids)
from .geometry import Scene, route_links


class NotTrainable(RuntimeError):
    """A path/beam combination has no surviving table rows."""


@dataclass(frozen=True)
class Codebook:
    """A finite set of beams: unit-modulus rows (passive) or unit-norm rows
    (active).  A planar codebook keeps only its 1-D DFT factor `line`: beam
    d = d_h * n + d_v is the Kronecker product of rows d_h and d_v, applied
    in separable form and built one row at a time."""

    beams: np.ndarray | None = None    # (D, dim); None for a planar codebook
    line: np.ndarray | None = None     # (n, m0) factor of a planar codebook

    @property
    def size(self) -> int:
        return self.beams.shape[0] if self.line is None else self.line.shape[0] ** 2

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Every beam's inner product with x, i.e. the rows @ x."""
        if self.line is None:
            return self.beams @ x
        m0 = self.line.shape[1]
        return (self.line @ x.reshape(m0, m0) @ self.line.T).ravel()

    def row(self, d: int) -> np.ndarray:
        """Beam d."""
        if self.line is None:
            return self.beams[d]
        n = self.line.shape[0]
        return np.einsum("h,v->hv", self.line[d // n], self.line[d % n]).ravel()


def dft_codebook(n_points: int, dim: int, kind: str = "passive") -> Codebook:
    """DFT steering grid with n_points beams over `dim` elements (both integers)."""
    if _integer(_positive(dim, "dim"), "dim") > _integer(n_points, "n_points"):
        raise ValueError(f"codebook needs at least as many points ({n_points}) as elements ({dim})")
    m = np.arange(dim)
    d = np.arange(n_points)[:, None]
    beams = np.exp(-2j * np.pi * m[None, :] * d / n_points)
    if kind == "active":
        beams = beams / math.sqrt(dim)
    elif kind != "passive":
        raise ValueError(f"unknown codebook kind {kind!r}")
    return Codebook(beams=beams)


def planar_passive_codebook(n_points: int, m0: int) -> Codebook:
    """3D passive codebook: horizontal x vertical per-dimension DFT beams.

    Joint beam index d = d_h * n_points + d_v; each beam has m0^2 entries.
    """
    return Codebook(line=dft_codebook(n_points, _integer(_positive(m0, "m0"), "m0")).beams)


def _codebook_for(scene: Scene, node: int, codebook: Codebook, name: str) -> Codebook:
    """`codebook`; a ValueError naming `name` unless its beams have node `node`'s dimension."""
    dim = codebook.beams.shape[1] if codebook.line is None else codebook.line.shape[1] ** 2
    if dim != (want := scene.node_size(node)):
        raise ValueError(f"{name} beams must have node {node}'s {want} entries, got {dim}")
    return codebook


# ---------------------------------------------------------------------------
# Search over realized channels
# ---------------------------------------------------------------------------

class GainEvaluator:
    """Scores codebook beams by their min-user SNR on realized channels,
    composed along one reflection route `path`, the direct link excluded.

    ValueError unless `users` names distinct users, `path` distinct surfaces,
    and `irs_codebooks` (keyed by surface id) a codebook of each surface of `path`.
    """

    def __init__(self, channels: ChannelSet, users, path, irs_codebooks):
        scene = channels.scene
        self.channels = channels
        self.users = _user_ids(scene, users, "users")
        self.irs_ids = _irs_ids(scene, path, "path")
        if not set(self.irs_ids) <= set(_irs_ids(scene, irs_codebooks, "irs_codebooks")):
            raise ValueError(f"irs_codebooks lacks a surface of path {self.irs_ids}")
        for j in self.irs_ids:
            _codebook_for(scene, j, irs_codebooks[j], f"irs_codebooks[{j}]")
        self._edges = {k: _path_edges(path, scene.n_irs + k) for k in self.users}
        self.evaluations = 0

    def _channel(self, user: int, phases: dict) -> np.ndarray:
        return _compose(self.channels, self._edges[user], phases)

    def _snrs(self, codebook: Codebook, amps) -> np.ndarray:
        consts = self.channels.scene.constants
        self.evaluations += codebook.size
        return np.min([consts.tx_power * np.abs(a) ** 2 / consts.noise_power for a in amps], axis=0)

    def sweep(self, codebook: Codebook, phases: dict) -> np.ndarray:
        """Min-user SNR of every BS beam in `codebook`, the surfaces held at
        `phases`; like `search_sweep`, counts one evaluation per beam."""
        return self._snrs(codebook, [codebook.apply(self._channel(k, phases)) for k in self.users])

    def search_sweep(self, codebooks: dict, choices: dict):
        """Yield (node, snrs) for the BS and then, BS first, each surface of
        the path, the other nodes at their beams in `choices` (which the
        caller may move before resuming): one composition sweep per user,
        opened with the chosen BS beam, run in lockstep over the same surfaces."""
        _, phases = beams_from_choices(codebooks[0], codebooks, choices)
        yield 0, self.sweep(codebooks[0], phases)
        w = codebooks[0].row(choices[0])
        for forms in zip(*(_compose(self.channels, self._edges[k], phases, self.irs_ids, w)
                           for k in self.users)):
            node, codebook = forms[0][0], codebooks[forms[0][0]]
            yield node, self._snrs(codebook, [codebook.apply(coeff) + base
                                              for _, base, coeff in forms])
            phases[node] = codebook.row(choices[node])


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
                      irs_codebooks: dict, path,
                      max_combinations: int = 10_000_000) -> TrainedBeams:
    """Global search over every active/passive beam combination along the
    reflection route `path`.

    Sweeps the whole BS codebook once per surface-beam combination, so it
    counts one evaluation per combination.  The highest min-user SNR wins,
    ties going to the lowest BS index, then the lowest surface indices (in
    path order).  Refuses when the combination count D_B * prod(D_I)
    exceeds max_combinations.
    """
    _codebook_for(channels.scene, 0, bs_codebook, "bs_codebook")
    evaluator = GainEvaluator(channels, users, path, irs_codebooks)
    ids = evaluator.irs_ids
    combos = bs_codebook.size * math.prod(irs_codebooks[j].size for j in ids)   # no int64 wrap
    if combos > max_combinations:
        raise ValueError(f"exhaustive search would need {combos} combinations "
                         f"(cap {max_combinations})")
    best = None
    for choice in itertools.product(*(range(irs_codebooks[j].size) for j in ids)):
        irs_idx = dict(zip(ids, choice))
        _, phases = beams_from_choices(bs_codebook, irs_codebooks, {0: 0, **irs_idx})
        snrs = evaluator.sweep(bs_codebook, phases)
        bs_idx = int(np.argmax(snrs))                # the lowest BS index among ties
        key = (float(snrs[bs_idx]), -bs_idx)
        if best is None or key > best[0]:            # strict: earlier surface indices win ties
            best = (key, bs_idx, irs_idx)
    (obj, _), bs_idx, irs_idx = best
    w, phases = beams_from_choices(bs_codebook, irs_codebooks, {0: bs_idx, **irs_idx})
    return TrainedBeams(bs_index=bs_idx, irs_indices=irs_idx, w=w, phases=phases,
                        objective=obj, evaluations=evaluator.evaluations,
                        combinations=combos)


def sequential_search(channels: ChannelSet, users, bs_codebook: Codebook,
                      irs_codebooks: dict, path, max_sweeps: int = 20) -> TrainedBeams:
    """Cyclic per-node beam updates along the reflection route `path` until
    a full sweep changes nothing.

    Each sweep updates the BS and then each surface of the path in order,
    at D_B + sum_j D_I(j) evaluations over the path's surfaces; the
    min-user SNR is nondecreasing across updates.  ValueError unless max_sweeps is an
    integer >= 1.
    """
    _integer(max_sweeps, "max_sweeps")
    _codebook_for(channels.scene, 0, bs_codebook, "bs_codebook")
    evaluator = GainEvaluator(channels, users, path, irs_codebooks)
    ids = evaluator.irs_ids
    codebooks = {0: bs_codebook, **{j: irs_codebooks[j] for j in ids}}
    choices = dict.fromkeys(codebooks, 0)          # node -> beam index, the BS first
    for sweeps in range(1, max_sweeps + 1):
        changed = False
        for node, snrs in evaluator.search_sweep(codebooks, choices):
            new = int(np.argmax(snrs))
            if snrs[new] > snrs[choices[node]]:
                choices[node], changed = new, True
            objective = float(snrs[choices[node]])
        if not changed:
            break
    w, phases = beams_from_choices(bs_codebook, irs_codebooks, choices)
    return TrainedBeams(bs_index=choices[0], irs_indices={j: choices[j] for j in ids},
                        w=w, phases=phases, objective=objective,
                        evaluations=evaluator.evaluations, sweeps=sweeps)


# ---------------------------------------------------------------------------
# Distributed training tables
# ---------------------------------------------------------------------------

@dataclass
class BeamTrainingTable:
    """Per-node table of thresholded RSS measurements.

    `rss` maps each sounded hop (previous node, next node) to its RSS per
    beam, -inf below the threshold; the BS table uses previous node None.
    `reference_rss` stores the unreflected controller-to-controller strength
    of each incoming link, used to normalize composed gain estimates (1.0
    under None: the BS transmits itself).  Hops toward a user are the online
    part of the protocol.
    """

    owner: int
    threshold: float
    rss: dict = field(default_factory=dict)
    reference_rss: dict = field(default_factory=dict)

    @property
    def rows(self) -> MappingProxyType:
        """A read-only (previous node, beam, next node) -> RSS view of the kept entries."""
        return MappingProxyType({(p, int(b), n): float(v[b]) for (p, n), v in self.rss.items()
                                 for b in np.flatnonzero(v > -np.inf)})


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
           next_nodes, seed: int) -> None:
    """Store the time-averaged RSS of every beam of `table.owner` at each next
    node's controller; `incident[t]` scales the owner's elements in
    realization t (1.0 for the BS, which transmits itself)."""
    for nxt in next_nodes:
        rows = _rician_rows(scene, table.owner, nxt, np.ones((1, 1), dtype=complex),
                            _controller_rng(seed, table.owner, prev, nxt), len(incident),
                            rx_panel=False)[:, 0]
        rss = sum(np.abs(codebook.apply(row * scale)) ** 2
                  for row, scale in zip(rows, incident)) / len(incident)
        table.rss[(prev, nxt)] = np.where(rss >= table.threshold, rss, -np.inf)


def _check_sounding(scene: Scene, owner: int, codebook: Codebook, averages: int) -> None:
    _integer(averages, "averages")
    _codebook_for(scene, owner, codebook, "codebook")


def build_bs_btt(scene: Scene, codebook: Codebook, threshold: float | None = None,
                 seed: int = 0, averages: int = 10, next_nodes=None) -> BeamTrainingTable:
    """Offline BS table: time-averaged RSS at every next node's controller
    for each active beam, kept when it clears the threshold.

    `next_nodes` restricts the sounded neighbors (default: every LoS one).
    """
    _check_sounding(scene, 0, codebook, averages)
    thr = scene.constants.noise_power if threshold is None else threshold
    table = BeamTrainingTable(owner=0, threshold=thr, reference_rss={None: 1.0})
    _sound(table, scene, None, [1.0] * averages, codebook,
           _bs_neighbors(scene) if next_nodes is None else next_nodes, seed)
    return table


def build_irs_btt(scene: Scene, irs: int, codebook: Codebook, threshold: float | None = None,
                  seed: int = 0, averages: int = 10,
                  prev_nodes=None, next_nodes=None) -> BeamTrainingTable:
    """Table of surface `irs`: RSS at each next node for every (previous
    node, passive beam) pair, plus the unreflected reference RSS of each
    incoming link.  Rows toward another controller are the offline phase;
    rows toward a user are measured online.

    `prev_nodes`/`next_nodes` restrict the sounded neighbor sets (default:
    every LoS neighbor).  ValueError for `irs` not a surface.
    """
    if not 1 <= _integer(irs, "irs") <= scene.n_irs:
        raise ValueError(f"irs must name a surface (1..{scene.n_irs}), got {irs}")
    _check_sounding(scene, irs, codebook, averages)
    thr = scene.constants.noise_power if threshold is None else threshold
    table = BeamTrainingTable(owner=irs, threshold=thr)
    if prev_nodes is None or next_nodes is None:
        default_prev, default_next = irs_neighbor_sets(scene, irs)
        prev_nodes = default_prev if prev_nodes is None else prev_nodes
        next_nodes = default_next if next_nodes is None else next_nodes
    next_nodes = list(next_nodes)
    for prev in prev_nodes:
        n = scene.n_bs if prev == 0 else 1   # sounding from the BS panel or a surface controller
        w = np.full((1, n), 1 / math.sqrt(n), dtype=complex)
        incident, reference = (_rician_rows(   # H @ w at the surface's panel, and at its controller
            scene, prev, irs, w, _controller_rng(seed, irs, prev, irs, kind=kind), averages,
            rx_panel=kind == 0, tx_panel=prev == 0, tx_side=True) for kind in (0, 1))
        table.reference_rss[prev] = float(np.mean(np.abs(reference[:, 0, 0]) ** 2))
        _sound(table, scene, prev, incident[:, 0], codebook, next_nodes, seed)
    return table


def assemble_global_btt(bs_table: BeamTrainingTable, irs_tables) -> dict:
    """All tables merged at the BS: node id -> table, the BS as node 0."""
    merged = {0: bs_table}
    for table in irs_tables:
        if table.owner in merged:
            raise ValueError(f"duplicate table for node {table.owner}")
        merged[table.owner] = table
    return merged


def best_beams_for_path(gbtt: dict, path, user_node: int):
    """Per-hop argmax beam choices along a route, the BS (previous node None)
    first; the composed estimate factorizes per hop."""
    links = [(None, 0), *route_links(path, user_node)]
    choices = {}
    for (prev, node), (_, nxt) in zip(links, links[1:]):
        table = gbtt.get(node)
        if table is None:
            raise NotTrainable(f"no table for node {node}")
        rss = table.rss.get((prev, nxt))
        if rss is None or not np.any(rss > -np.inf):
            raise NotTrainable(f"node {node} never trained hop ({prev} -> {nxt})")
        choices[node] = int(rss.argmax())          # the lowest beam among ties
    return choices


def beams_from_choices(bs_codebook: Codebook, irs_codebooks: dict, choices: dict):
    """Materialize (w, phases) from one user's chosen beam indices."""
    w = bs_codebook.row(choices[0])
    phases = {j: irs_codebooks[j].row(idx) for j, idx in choices.items() if j != 0}
    return w, phases

