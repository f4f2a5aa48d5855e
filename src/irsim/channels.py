"""Link channel synthesis and multi-reflection channel composition.

Every directed link (i, j) is stored as an (rx x tx) complex matrix in the
downlink propagation direction, so a reflection chain composes as

    amplitude at user = H_last @ Phi_n @ ... @ Phi_1 @ H_first @ w.

`effective_channel` returns the vector h with received amplitude h @ w for
a BS weight vector w; the matched (MRT) beam is conj(h)/norm(h).

LoS components are far-field rank-one: H_los = rho * outer(a_rx, a_tx)
with unit-modulus array responses and rho carrying the path gain and the
carrier phase of the nominal distance.  Rician mixing adds an i.i.d.
circularly-symmetric Gaussian part.  `synth_link` draws one whole link
matrix, and `_rician_rows` draws x @ H (or H @ w) alone, with H's law, for
a consumer of fixed rows x (or a fixed beam w): the interference audit and
the beam-training controller links.  Both draw a link whose LoS part has no
weight (blocked, or kappa = 0) as the scaled Gaussian part alone, with no
outer product.  Both read a link's scalar terms from `Scene._link_terms` (see
`geometry`); the array responses are built for each caller.

Every path or graph composition (one explicit path, the full path sum, and
the sweep of its affine forms in each surface's phases projected onto a BS
beam) goes through one dynamic program over an ordered edge list, `_compose`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry import LosGraph, PanelArray, Scene, build_los_graph, path_loss, route_links


def array_response(panel: PanelArray, direction, wavelength: float) -> np.ndarray:
    """Unit-modulus panel response for a unit propagation direction."""
    d = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(d) - 1.0) > 1e-9:
        raise ValueError("array_response requires a unit direction vector")
    phase = (2.0 * np.pi / wavelength) * (panel.element_offsets @ d)
    return np.exp(1j * phase)


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


def _node_response(scene: Scene, node: int, direction, lam: float, panel: bool) -> np.ndarray:
    if not panel or scene.is_user(node):         # a user, or a reference-point antenna
        return np.ones(1, dtype=complex)
    return array_response(scene.bs if node == 0 else scene.irs[node - 1], direction, lam)


def synth_link(scene: Scene, i: int, j: int, rng: np.random.Generator,
               draws: dict | None = None) -> LinkChannel:
    """Draw one Rician link channel between nodes i and j.

    kappa = inf gives the pure LoS rank-one channel; a geometrically
    blocked link is pure NLoS regardless of kappa.  `draws` is a draw
    store (see `synthesize_channels` and `_unit_draw`).
    """
    d, pl, kappa, rho, a_rx, a_tx = _los_terms(scene, i, j)
    # L before z, so the outer product's temporaries never meet z
    matrix = None if kappa == 0 else _los_matrix(rho, a_rx, a_tx)
    if not math.isinf(kappa):
        z = _unit_draw(rng, scene.node_size(j), scene.node_size(i), draws)
        if matrix is None:        # z alone: a fresh z is scaled in place, a stored one copied
            matrix = np.multiply(z, math.sqrt(pl), out=z) if draws is None else z * math.sqrt(pl)
        else:
            np.multiply(math.sqrt(kappa / (1 + kappa)), matrix, out=matrix)
            _add_gaussian(matrix, z, math.sqrt(pl), math.sqrt(1 / (1 + kappa)))
    return LinkChannel(i=i, j=j, matrix=matrix, distance_m=d, path_loss_linear=pl,
                       los_gain=rho, los_rx=a_rx, los_tx=a_tx)


def _los_terms(scene: Scene, i: int, j: int, rx_panel: bool = True, tx_panel: bool = True):
    """(distance, path loss, kappa, rho, a_rx, a_tx) of link i -> j, the last three
    None and kappa 0 when it is geometrically blocked (pure NLoS); with
    `rx_panel`/`tx_panel` false that end is the node's single reference-point
    (controller) antenna.  The scalars are `scene._link_terms(i, j)`."""
    d, pl, kappa, rho = scene._link_terms(i, j)
    if rho is None:
        return d, pl, kappa, None, None, None
    lam = scene.constants.wavelength
    u = (scene.node_position(j) - scene.node_position(i)) / d
    return (d, pl, kappa, rho,
            _node_response(scene, j, -u, lam, rx_panel), _node_response(scene, i, u, lam, tx_panel))


def _rician_rows(scene: Scene, i: int, j: int, x: np.ndarray, rng: np.random.Generator,
                 count: int = 1, rx_panel=True, tx_panel=True, tx_side=False):
    """`count` draws of x @ H (of x @ H.T with `tx_side`: H @ w is the draw for x = w.T,
    transposed) as one (count, len(x), n) array, H link i -> j's matrix from `rng` with
    its ends as in `_los_terms`, each drawn as that product alone, with H's law: the
    Gaussian parts of every draw come from one `_cn_rows` call."""
    _, pl, kappa, rho, a_rx, a_tx = _los_terms(scene, i, j, rx_panel, tx_panel)
    out, panel, a_x, a_out = (j, rx_panel, a_tx, a_rx) if tx_side else (i, tx_panel, a_rx, a_tx)
    n = scene.node_size(out) if panel else 1       # the entries of each row drawn
    z = (None if math.isinf(kappa) else
         _cn_rows(rng, x, n * count).reshape(len(x), count, n).swapaxes(0, 1))
    if kappa == 0:                                 # no LoS part to weigh
        return math.sqrt(pl) * z
    los = np.multiply.outer(rho * (x @ a_x), a_out)
    if z is None:
        return np.broadcast_to(los, (count, *los.shape))
    return math.sqrt(kappa / (1 + kappa)) * los + math.sqrt(pl / (1 + kappa)) * z


def _los_matrix(rho: complex, a_rx: np.ndarray, a_tx: np.ndarray) -> np.ndarray:
    """rho * outer(a_rx, a_tx), built in place (rho on the left: the product's
    last bits depend on the operand order)."""
    los = np.multiply.outer(a_rx, a_tx)
    return np.multiply(rho, los, out=los)


def _add_gaussian(out: np.ndarray, z: np.ndarray, amp: float, weight: float) -> None:
    """out += (z * amp) * weight, row block by row block, with the rounding of
    that in-place sequence on a copy of z; z is left as is, and no
    full-size temporary is made."""
    for rows in _row_blocks(*z.shape):
        part = z[rows] * amp
        part *= weight
        np.add(part, out[rows], out=out[rows])


_BLOCK_ENTRIES = 1 << 15       # entries per row block of a draw or a mix


def _row_blocks(n_rx: int, n_tx: int) -> list:
    rows = max(1, _BLOCK_ENTRIES // n_tx)
    return [np.s_[r:r + rows] for r in range(0, n_rx, rows)]


def _unit_draw(rng: np.random.Generator, n_rx: int, n_tx: int, draws: dict | None):
    """The unit Gaussian matrix of one stream: drawn afresh without a store, or
    drawn into `draws` once, keyed by the entropy `rng` was freshly seeded with."""
    if draws is None:
        return _cn(rng, n_rx, n_tx)
    key = (rng.bit_generator.seed_seq.entropy, n_rx, n_tx)
    if key not in draws:
        draws[key] = _cn(rng, n_rx, n_tx)
    return draws[key]


def _cn(rng: np.random.Generator, n_rx: int, n_tx: int) -> np.ndarray:
    """i.i.d. unit-variance circularly-symmetric complex Gaussian matrix: every
    real part, then every imaginary part, drawn row block by row block (the
    same sequence as one call per part, without its full-size temporary) and
    scaled by 1/sqrt(2) as it is copied in (the bits of dividing the complex
    matrix by sqrt(2): numpy divides by c + 0j as (a + b*0) * (1/c))."""
    z = np.empty((n_rx, n_tx), dtype=complex)
    for part in (z.real, z.imag):
        for rows in _row_blocks(n_rx, n_tx):
            np.multiply(rng.standard_normal(part[rows].shape), 1 / math.sqrt(2.0), out=part[rows])
    return z


def _cn_rows(rng: np.random.Generator, x: np.ndarray, n: int) -> np.ndarray:
    """x @ Z for Z an (x.shape[1] x n) `_cn` matrix, from min(x.shape) Gaussian rows:
    for the reduced QR x^H = Q T, Q^H Z is unit Gaussian too, so T^H Q^H Z has
    Z's law at any rank of x.  Z @ w is the transpose case, _cn_rows(rng, w.T, n).T."""
    t = np.linalg.qr(x.conj().T, mode="r")
    return t.conj().T @ _cn(rng, t.shape[0], n)


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


def synthesize_channels(scene: Scene, seed: int, links=None,
                        draws: dict | None = None) -> ChannelSet:
    """Synthesize every admissible link, the direct BS-user links included.

    `links` restricts synthesis to the named (i, j) pairs; thanks to the
    per-link seed substreams the drawn channels are identical either way.
    `draws` is a draw store: a dict the caller makes empty for one trial and
    passes to every synthesis of that trial.  Each link's unit Gaussian
    matrix is drawn into it on first use, and later calls on scenes that
    differ only in their Rician factors mix that one instead of drawing it
    again.  The channels are identical either way.
    """
    cs = ChannelSet(scene=scene, seed=seed)
    for (i, j) in (scene._links[0] if links is None else links):
        cs.links[(i, j)] = synth_link(scene, i, j, _link_rng(seed, i, j), draws)
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

def _tail_pass(scene: Scene, edges, phases: dict, link) -> dict:
    """`_compose`'s tail pass: down[v] for each source v that reaches a user.
    `link(a, b, x)` is x @ (link a -> b's matrix), or that matrix for x None (a
    link into a user); a phase vector may also hold one row per row of down."""
    down: dict[int, np.ndarray] = {}
    for a, b in edges:
        if scene.is_user(b):
            term = link(a, b, None)
        elif b in down:
            term = link(a, b, down[b] * phases[b])
        else:
            continue                               # b reaches no user
        down[a] = down[a] + term if a in down else term
    return down


def _compose(channels: ChannelSet, edges, phases: dict, irs=None, w: np.ndarray | None = None):
    """Sum over every BS-to-user path of an ordered reflection edge list.

    `edges` holds directed (a, b) node pairs grouped by source, the sources
    in reverse topological order (the BS last) and each source's
    successors in ascending order.  One tail pass builds down[v], the row
    mapping the signal incident on v's elements to the user amplitude, and
    returns h = down[0].  Given surfaces `irs` and a BS beam `w`, a generator
    instead runs one head pass BS first, carrying the BS-to-v channel times w
    (O(M^2) per hop), and yields (j, a, b) at each surface of `irs` a path
    crosses: h @ w = a + phases[j] @ b, exact for the phases the caller has
    moved so far (one Gauss-Seidel sweep; down[j] needs only the surfaces
    after j, which the sweep has not reached)."""
    down = _tail_pass(channels.scene, edges, phases, lambda a, b, x: (
        channels.get(a, b).matrix if x is None else x @ channels.get(a, b).matrix))
    h = down[0][0] if 0 in down else np.zeros(channels.scene.n_bs, dtype=complex)
    if irs is None:
        return h

    def sweep(named):
        total, head = h @ w, {}
        for v in reversed(down):       # the sources that reach a user, BS first
            for p in sorted(a for a, b in edges if b == v):
                if p == 0:
                    term = channels.get(0, v).matrix @ w
                elif p in head:
                    term = channels.get(p, v).matrix @ (head[p] * phases[p])
                else:
                    continue                       # p is out of the BS's reach
                head[v] = head[v] + term if v in head else term
            if v in named and v in head:
                coeff = down[v][0] * head[v]
                base = total - phases[v] @ coeff
                yield v, base, coeff
                total = base + phases[v] @ coeff   # with the caller's new phases[v]

    return sweep(set(irs))


def _irs_ids(scene: Scene, ids, name: str) -> list:
    """`ids` as a list; a ValueError naming `name` unless it lists distinct surfaces."""
    if not 0 < len(ids) == len(set(ids) & set(range(1, scene.n_irs + 1))):
        raise ValueError(f"{name} must list distinct IRS ids in 1..{scene.n_irs}, got {list(ids)}")
    return list(ids)


def _user_ids(scene: Scene, users, name: str) -> list:
    """`users` (one id, or several) as a list; a ValueError naming `name`
    unless it names distinct users."""
    ids = list(users) if np.iterable(users) else [users]
    if not 0 < len(ids) == len(set(ids) & set(range(1, scene.n_users + 1))):
        raise ValueError(f"{name} must name distinct users in 1..{scene.n_users}, got {users!r}")
    return ids


def _integer(value, name: str, least: int = 1):
    """`value`; a ValueError naming `name` unless it is an integer >= `least`."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _check_phases(scene: Scene, phases: dict, ids, where: str) -> None:
    """A ValueError naming `phases` unless it holds a full-length vector per surface of `ids`."""
    if missing := sorted(set(ids) - set(phases)):
        raise ValueError(f"phases lacks IRS {missing} of {where}")
    for j in sorted(ids):
        if (shape := np.shape(phases[j])) != (n := scene.irs[j - 1].size,):
            raise ValueError(f"phases of IRS {j} must have {n} entries, got shape {shape}")


def _positive(value, name: str):
    """`value`; a ValueError naming `name` unless its entries are positive and finite."""
    if not np.all((0 < (arr := np.asarray(value, dtype=float))) & (arr < np.inf)):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _path_edges(path, target: int) -> list:
    """Edge list of one explicit reflection path (a chain graph), last hop
    first as `_compose` expects."""
    return route_links(path, target)[::-1]


def _graph_edges(channels: ChannelSet, user: int, irs_subset=None) -> tuple | list:
    """Edge order of a user's reflection graph (every admissible link),
    restricted to `irs_subset` (a ValueError unless it lists distinct surfaces)."""
    edges = build_los_graph(channels.scene, user, False).edge_order
    if irs_subset is None:
        return edges
    keep = {0, *_irs_ids(channels.scene, irs_subset, "irs_subset")}
    return [(a, b) for a, b in edges if a in keep]   # an excluded surface never enters the DP


def cascaded_path_channel(channels: ChannelSet, path, phases: dict, user: int = 1) -> np.ndarray:
    """Effective BS-side channel vector of one reflection path.

    `path` is the ordered IRS index list; the terminal hop goes to `user`.
    Returns h with received amplitude h @ w.  ValueError if `phases` lacks a
    surface of the path or holds one of the wrong length.
    """
    _irs_ids(channels.scene, path, "path")
    target = channels.scene.n_irs + _user_ids(channels.scene, user, "user")[0]
    _check_phases(channels.scene, phases, path, f"path {list(path)}")
    return _compose(channels, _path_edges(path, target), phases)


def enumerate_graph_paths(graph: LosGraph):
    """All BS-to-user IRS sequences of a reflection graph, in lexicographic
    order of the IRS index sequence: one pass over the reversed edge order
    extends the routes to each edge's source by its target."""
    routes = {0: [()]}
    for a, b in reversed(graph.edge_order):
        hop = () if b == graph.user_node else (b,)
        routes.setdefault(b, []).extend(seq + hop for seq in routes.get(a, ()))
    return sorted(routes.get(graph.user_node, []))


def effective_channel(channels: ChannelSet, user: int, phases: dict,
                      include_direct: bool = True, irs_subset=None) -> np.ndarray:
    """Superposed effective channel of one user over all reflection paths.

    The path sum runs over every admissible path of the user's reflection
    graph; `irs_subset` restricts the graph to the named IRSs.  Computed by
    dynamic programming over the acyclic graph, which is equivalent to the
    explicit path sum.  ValueError if `phases` lacks a surface of the graph or
    holds one of the wrong length.
    """
    edges = _graph_edges(channels, user, irs_subset)
    _check_phases(channels.scene, phases, {a for a, _ in edges if a}, f"user {user}'s graph")
    h = _compose(channels, edges, phases)
    if include_direct:
        h = h + channels.direct(user)
    return h


def effective_channel_affine(channels: ChannelSet, user: int, phases: dict, irs, w: np.ndarray):
    """`_compose`'s sweep over the user's reflection graph, the direct link
    excluded: (j, a, b) BS first at each surface of `irs` a path crosses, with
    h @ w = a + phases[j] @ b exact for the phases the caller has updated so far."""
    return _compose(channels, _graph_edges(channels, user), phases, irs, w)


def mrt_beam(h: np.ndarray) -> np.ndarray:
    """Unit-norm BS weights maximizing |h @ w|."""
    n = np.linalg.norm(h)
    if n == 0.0:
        raise ValueError("cannot form an MRT beam for a zero channel")
    return np.conj(h) / n

