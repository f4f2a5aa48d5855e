"""Network geometry: node layout, blockage tests and the LoS graph.

Node indexing follows one global convention: node 0 is the base station,
nodes 1..J are the reflecting surfaces, and node J+k is user k (k = 1..K).
A directed link (i, j) is *admissible* when a surface can physically relay
power along it: the signal must travel outward from the BS (strictly
increasing BS distance, except into a user) and every surface endpoint must
see the other node inside its front half-space.  The LoS indicator adds the
blockage test on top of admissibility.

Scenes and graphs are immutable after construction and safe to share across
threads.  A scene states each link's scalar terms once (`Scene._link_terms`,
the obstacle test included) and keeps each user's LoS graph once built;
threads that race to build one entry build equal ones and `setdefault` keeps
the first, so neither memo needs a lock.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

# Limits on scene input that keep every distance, wavelength, element spacing
# and path loss finite: coordinates and node separation in meters, the carrier
# in Hz, the 1 m reference path loss in dB (free space gives about -112 to
# +28 dB over the carrier range).
MAX_COORDINATE_M = 1e6
MIN_SEPARATION_M = 0.01
CARRIER_HZ_RANGE = (1e6, 1e13)
MAX_ALPHA = 10.0
BETA_DB_RANGE = (-150.0, 50.0)
MAX_PANEL_ELEMENTS = 4096     # per BS or IRS panel, so a link matrix has at most 4096^2 entries


class ConfigError(ValueError):
    """Raised when a scenario description is malformed or inconsistent."""


def _finite(value, what: str, shape: tuple) -> np.ndarray:
    """`value` as a float array of the given shape with finite entries."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} is not numeric: {value!r}") from None
    if arr.shape != shape:
        raise ConfigError(f"{what} must have shape {shape}, got {value!r}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what} is not finite: {value!r}")
    return arr


def _number(value, what: str) -> float:
    return float(_finite(value, what, ()))


def _point(value, what: str) -> np.ndarray:
    """A position in meters with every coordinate within +-MAX_COORDINATE_M."""
    arr = _finite(value, what, (3,))
    if np.max(np.abs(arr)) > MAX_COORDINATE_M:
        raise ConfigError(f"{what} has a coordinate beyond +-{MAX_COORDINATE_M:g} m: {value!r}")
    return arr


def _exponent(value, what: str) -> float:
    """A path-loss exponent in (0, MAX_ALPHA]."""
    alpha = _number(value, what)
    if not 0.0 < alpha <= MAX_ALPHA:
        raise ConfigError(f"{what} must lie in (0, {MAX_ALPHA:g}], got {value!r}")
    return alpha


def _count(value, what: str) -> int:
    """`value` as a positive integer; 4 and 4.0 pass, 2.7 and 0 do not."""
    n = _number(value, what)
    if n < 1 or not n.is_integer():
        raise ConfigError(f"{what} must be a positive integer, got {value!r}")
    return int(n)


def _grid(value, what: str) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{what} must be two positive integers, got {value!r}")
    return tuple(_count(n, f"{what} entry") for n in value)


def _check_panel(shape: tuple[int, int], what: str) -> None:
    if shape[0] * shape[1] > MAX_PANEL_ELEMENTS:
        raise ConfigError(f"{what} has {shape[0] * shape[1]} elements, "
                          f"more than {MAX_PANEL_ELEMENTS}")


def _expect(value, kind: type, what: str):
    """`value` when it is a JSON object (kind dict) or list (kind list)."""
    if not isinstance(value, (list, tuple) if kind is list else kind):
        raise ConfigError(f"{what} must be a JSON {'object' if kind is dict else 'list'}, "
                          f"got {value!r}")
    return value


def _unit(v):
    """v / |v|, first scaled by its largest entry when squaring would over- or underflow."""
    v = np.asarray(v, dtype=float)
    scale = np.max(np.abs(v))
    if scale == 0.0:
        raise ConfigError("zero-length vector where a direction is required")
    if not 1e-150 < scale < 1e150:
        v = v / scale
    return v / np.linalg.norm(v)


def _cross(u, v) -> np.ndarray:
    """u x v of two 3-vectors: np.cross's arithmetic, without its overhead."""
    (a, b, c), (d, e, f) = u, v
    return np.array([b * f - c * e, c * d - a * f, a * e - b * d])


def panel_axes(normal):
    """Return the in-plane (horizontal, vertical) axes of a panel.

    The horizontal axis is chosen perpendicular to the global up direction
    (0,0,1); a near-vertical normal falls back to (0,1,0) as up.
    """
    n = _unit(normal)
    up = np.array([0.0, 0.0, 1.0])
    if np.linalg.norm(_cross(up, n)) < 1e-9:
        up = np.array([0.0, 1.0, 0.0])
    ax_h = _unit(_cross(up, n))
    ax_v = _cross(n, ax_h)
    return ax_h, ax_v


@dataclass(frozen=True)
class PanelArray:
    """A planar antenna/element panel with a regular rectangular grid.

    `shape` is (rows along the horizontal axis, columns along the vertical
    axis); element index m = i_h * shape[1] + i_v.  `spacing_m` is the
    element pitch in meters.
    """

    center: np.ndarray
    normal: np.ndarray
    shape: tuple[int, int]
    spacing_m: float

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @functools.cached_property
    def element_offsets(self) -> np.ndarray:
        """(size, 3) element positions relative to the panel center, built
        once per panel (read-only)."""
        n1, n2 = self.shape
        ax_h, ax_v = panel_axes(self.normal)
        ih = np.arange(n1) - (n1 - 1) / 2.0
        iv = np.arange(n2) - (n2 - 1) / 2.0
        grid = ih[:, None, None] * ax_h[None, None, :] + iv[None, :, None] * ax_v[None, None, :]
        offsets = (grid * self.spacing_m).reshape(n1 * n2, 3)
        offsets.flags.writeable = False
        return offsets


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box; grazing contact counts as intersection."""

    lo: np.ndarray
    hi: np.ndarray

    def contains(self, p) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.all(p >= self.lo) and np.all(p <= self.hi))

    def intersects_segment(self, a, b) -> bool:
        """Slab test of the closed box against segment [a, b].

        Each slab bound is one correctly rounded division.  That is not
        exact arithmetic: an edge or corner contact can still be missed, or
        a near miss counted, by one rounding.
        """
        a = np.asarray(a, dtype=float)
        d = np.asarray(b, dtype=float) - a
        t0, t1 = 0.0, 1.0
        for ax in range(3):
            if d[ax] == 0.0:
                if a[ax] < self.lo[ax] or a[ax] > self.hi[ax]:
                    return False
                continue
            # Python floats: a subnormal d gives +-inf, not a numpy overflow
            tn = float(self.lo[ax] - a[ax]) / float(d[ax])
            tf = float(self.hi[ax] - a[ax]) / float(d[ax])
            if tn > tf:
                tn, tf = tf, tn
            t0 = max(t0, tn)
            t1 = min(t1, tf)
            if t0 > t1:
                return False
        return True


_LINK_CLASSES = ("bs_irs", "irs_irs", "irs_user", "bs_user")


@dataclass(frozen=True)
class Constants:
    """Propagation constants of a scene.

    kappa is the Rician factor in linear scale (math.inf means pure LoS,
    0 means Rayleigh).  `alpha` maps a link class to its path-loss
    exponent; `link_overrides` may override alpha/kappa per directed link
    keyed "i-j".
    """

    beta_db: float = -30.0
    alpha: dict = field(default_factory=lambda: {
        "bs_irs": 2.0, "irs_irs": 2.0, "irs_user": 2.0, "bs_user": 3.5,
    })
    kappa: float = math.inf
    carrier_hz: float = 5e9
    noise_dbm: float = -90.0
    tx_dbm: float = 0.0
    link_overrides: dict = field(default_factory=dict)

    @property
    def beta(self) -> float:
        return 10.0 ** (self.beta_db / 10.0)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def noise_power(self) -> float:
        return 10.0 ** ((self.noise_dbm - 30.0) / 10.0)

    @property
    def tx_power(self) -> float:
        return 10.0 ** ((self.tx_dbm - 30.0) / 10.0)

    def link_params(self, i: int, j: int, link_class: str) -> tuple[float, float]:
        """(alpha, kappa) for directed link (i, j)."""
        alpha = self.alpha[link_class]
        kappa = self.kappa
        ov = self.link_overrides.get(f"{i}-{j}")
        if ov:
            alpha = ov.get("alpha", alpha)
            kappa = ov.get("kappa", kappa)
        return alpha, kappa


@dataclass(frozen=True)
class Scene:
    """Immutable network layout: BS, reflecting surfaces, users, obstacles."""

    bs: PanelArray
    irs: tuple[PanelArray, ...]
    users: np.ndarray              # (K, 3)
    obstacles: tuple[Box, ...]
    constants: Constants
    effective_regions: tuple[frozenset, ...]  # per user, subset of 1..J
    _graphs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _terms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_bs(self) -> int:
        return self.bs.size

    @property
    def n_irs(self) -> int:
        return len(self.irs)

    @property
    def n_users(self) -> int:
        return len(self.users)

    def is_user(self, i: int) -> bool:
        return i > self.n_irs

    def user_index(self, i: int) -> int:
        """1-based user number of a user node id."""
        if not self.is_user(i):
            raise ValueError(f"node {i} is not a user")
        return i - self.n_irs

    def node_position(self, i: int) -> np.ndarray:
        if i == 0:
            return self.bs.center
        if 1 <= i <= self.n_irs:
            return self.irs[i - 1].center
        k = i - self.n_irs
        if 1 <= k <= self.n_users:
            return self.users[k - 1]
        raise ValueError(f"unknown node id {i}")

    def node_size(self, i: int) -> int:
        if i == 0:
            return self.n_bs
        if 1 <= i <= self.n_irs:
            return self.irs[i - 1].size
        return 1

    def distance(self, i: int, j: int) -> float:
        return float(np.linalg.norm(self.node_position(i) - self.node_position(j)))

    def link_class(self, i: int, j: int) -> str:
        if i == 0:
            return "bs_user" if self.is_user(j) else "bs_irs"
        return "irs_user" if self.is_user(j) else "irs_irs"

    def _link_terms(self, i: int, j: int) -> tuple:
        """(distance, path loss, kappa, rho) of link i -> j, rho its LoS gain, or
        None with kappa 0 (pure NLoS) when the link is geometrically blocked.
        Built once per scene and link and kept in `_terms`."""
        if (key := (i, j)) in self._terms:
            return self._terms[key]
        consts = self.constants
        d = self.distance(i, j)
        alpha, kappa = consts.link_params(i, j, self.link_class(i, j))
        pl = path_loss(d, alpha, consts.beta)
        if not has_geometric_los(self, i, j):
            return self._terms.setdefault(key, (d, pl, 0.0, None))
        rho = math.sqrt(pl) * np.exp(-2j * np.pi * d / consts.wavelength)
        return self._terms.setdefault(key, (d, pl, kappa, rho))

    @functools.cached_property
    def _links(self) -> tuple[tuple, frozenset]:
        """(admissible, los): every admissible directed link, direct BS-user
        links included, by target node then source node, and the set of
        those with geometric LoS.  Built once per scene (read-only)."""
        nodes = range(self.n_irs + self.n_users + 1)
        admissible = tuple((i, j) for j in nodes for i in nodes if is_admissible_link(self, i, j))
        los = frozenset(ij for ij in admissible if self._link_terms(*ij)[3] is not None)
        return admissible, los


def build_scene(config: dict) -> Scene:
    """Validate a scenario description (parsed JSON) and build a Scene.

    Expected keys: bs, irs, users, obstacles, constants, effective_regions.
    Distances are meters, powers dBm, path loss dB; directions are unit
    vectors.  BS elements are half-wavelength spaced, IRS elements
    quarter-wavelength.  Raises ConfigError for a missing field, a field of
    the wrong JSON type, a non-numeric or non-finite number, a grid size that
    is not a positive integer, a BS n_elements or an IRS m0 that disagrees
    with that panel's shape, a BS or IRS panel of more than
    MAX_PANEL_ELEMENTS elements, two nodes closer than MIN_SEPARATION_M (two
    users excepted), a reference to a node or override field that does not
    exist, or a number outside its limit: a position or obstacle coordinate
    beyond +-MAX_COORDINATE_M, a carrier outside CARRIER_HZ_RANGE, a beta_db
    outside BETA_DB_RANGE, or a path-loss exponent (alpha map or link
    override) outside (0, MAX_ALPHA].
    """
    _expect(config, dict, "a scene description")
    try:
        consts = _parse_constants(config.get("constants", {}))
        lam = consts.wavelength

        bs_cfg = _expect(config["bs"], dict, "bs")
        n_elements = _count(bs_cfg["n_elements"], "BS n_elements")
        shape = _grid(bs_cfg["shape"], "BS array shape") if "shape" in bs_cfg else (1, n_elements)
        _check_panel(shape, "BS array")
        if shape[0] * shape[1] != n_elements:
            raise ConfigError(f"BS n_elements {n_elements} does not match shape {list(shape)}")
        bs = PanelArray(
            center=_point(bs_cfg["position"], "BS position"),
            normal=_unit(_finite(bs_cfg.get("normal", (1.0, 0.0, 0.0)), "BS normal", (3,))),
            shape=shape,
            spacing_m=lam / 2.0,
        )

        irs = []
        for idx, ent in enumerate(_expect(config.get("irs", []), list, "irs"), start=1):
            if "normal" not in _expect(ent, dict, f"IRS {idx}"):
                raise ConfigError("IRS entry missing pointing normal")
            if "shape" in ent:
                shape = _grid(ent["shape"], f"IRS {idx} element grid")
            else:
                m0 = _count(ent["m0"], f"IRS {idx} m0")
                shape = (m0, m0)
            _check_panel(shape, f"IRS {idx}")
            if "m0" in ent and (m0 := _count(ent["m0"], f"IRS {idx} m0"), m0) != shape:
                raise ConfigError(f"IRS {idx} m0 {m0} does not match shape {list(shape)}")
            irs.append(PanelArray(
                center=_point(ent["position"], f"IRS {idx} position"),
                normal=_unit(_finite(ent["normal"], f"IRS {idx} normal", (3,))),
                shape=shape,
                spacing_m=lam / 4.0,
            ))

        user_cfg = _expect(config.get("users", []), list, "users")
        users = np.array([_point(u, f"user {k} position")
                          for k, u in enumerate(user_cfg, start=1)]).reshape(-1, 3)
        obstacles = []
        for n, o in enumerate(_expect(config.get("obstacles", []), list, "obstacles"), start=1):
            _expect(o, dict, f"obstacle {n}")
            obstacles.append(Box(lo=_point(o["min"], f"obstacle {n} min corner"),
                                 hi=_point(o["max"], f"obstacle {n} max corner")))
        for box in obstacles:
            if np.any(box.lo > box.hi):
                raise ConfigError("obstacle with min corner beyond max corner")

        regions = _parse_regions(config.get("effective_regions"), len(irs), len(users))
    except KeyError as exc:
        raise ConfigError(f"missing required field {exc}") from exc

    scene = Scene(bs=bs, irs=tuple(irs), users=users, obstacles=tuple(obstacles),
                  constants=consts, effective_regions=regions)

    n_nodes = scene.n_irs + scene.n_users + 1
    for i in range(n_nodes):
        p = scene.node_position(i)
        for box in obstacles:
            if box.contains(p):
                raise ConfigError(f"node {i} lies inside an obstacle")
        if not scene.is_user(i):           # two users may share a spot: no link joins them
            for j in range(i + 1, n_nodes):
                if scene.distance(i, j) < MIN_SEPARATION_M:
                    raise ConfigError(f"nodes {i} and {j} are at the same position or "
                                      f"closer than {MIN_SEPARATION_M:g} m")
    links = {f"{i}-{j}" for i in range(n_nodes) for j in range(n_nodes) if i != j}
    bad = sorted(set(consts.link_overrides) - links)
    if bad:
        raise ConfigError(f"link_overrides keys name no link 'i-j' between nodes "
                          f"0..{n_nodes - 1}: {bad}")
    return scene


def _read_config(path) -> dict:
    """Parsed JSON of a scene file; malformed or non-UTF-8 JSON, or nesting
    too deep to parse, is a ConfigError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        except RecursionError:
            raise ConfigError(f"invalid JSON in {path}: nested too deeply") from None


def load_scene(path) -> Scene:
    return build_scene(_read_config(path))


def _parse_constants(cfg: dict) -> Constants:
    _expect(cfg, dict, "constants")
    kappa = _parse_kappa(cfg.get("kappa_db", "inf"))
    alpha = dict(Constants().alpha)
    alpha.update(_expect(cfg.get("alpha", {}), dict, "alpha map"))
    bad = set(alpha) - set(_LINK_CLASSES)
    if bad:
        raise ConfigError(f"unknown link classes in alpha map: {sorted(bad)}")
    alpha = {cls: _exponent(a, f"alpha of {cls}") for cls, a in alpha.items()}
    overrides = {}
    for key, ov in _expect(cfg.get("link_overrides", {}), dict, "link_overrides").items():
        unknown = set(_expect(ov, dict, f"link_overrides[{key!r}]")) - {"alpha", "kappa_db"}
        if unknown:
            raise ConfigError(f"unknown fields in link_overrides[{key!r}]: {sorted(unknown)}")
        ent = {}
        if "alpha" in ov:
            ent["alpha"] = _exponent(ov["alpha"], f"link_overrides[{key!r}] alpha")
        if "kappa_db" in ov:
            ent["kappa"] = _parse_kappa(ov["kappa_db"])
        overrides[key] = ent
    carrier_hz = _number(cfg.get("carrier_hz", 5e9), "carrier_hz")
    lo, hi = CARRIER_HZ_RANGE
    if not lo <= carrier_hz <= hi:
        raise ConfigError(f"carrier_hz must be positive and within [{lo:g}, {hi:g}] Hz, "
                          f"got {carrier_hz!r}")
    consts = Constants(
        beta_db=_number(cfg.get("beta_db", -30.0), "beta_db"),
        alpha=alpha,
        kappa=kappa,
        carrier_hz=carrier_hz,
        noise_dbm=_number(cfg.get("noise_dbm", -90.0), "noise_dbm"),
        tx_dbm=_number(cfg.get("tx_dbm", 0.0), "tx_dbm"),
        link_overrides=overrides,
    )
    for name, power in (("beta_db", "beta"), ("noise_dbm", "noise_power"),
                        ("tx_dbm", "tx_power")):
        try:
            linear = getattr(consts, power)
        except OverflowError:
            linear = math.inf
        if linear == 0.0 or math.isinf(linear):
            raise ConfigError(f"{name} {getattr(consts, name)!r} overflows or underflows "
                              f"in linear scale")
    lo, hi = BETA_DB_RANGE
    if not lo <= consts.beta_db <= hi:
        raise ConfigError(f"beta_db must lie in [{lo:g}, {hi:g}] dB, got {consts.beta_db!r}")
    return consts


def _parse_kappa(value) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "+inf", "infinity"):
            return math.inf
        if value.lower() == "-inf":
            return 0.0
        raise ConfigError(f"bad kappa_db value {value!r}")
    try:
        db = float(value)               # +-inf allowed, as with the strings
    except (TypeError, ValueError):
        raise ConfigError(f"kappa_db is not numeric: {value!r}") from None
    if math.isnan(db):
        raise ConfigError(f"kappa_db is not a number: {value!r}")
    try:
        return 10.0 ** (db / 10.0)      # +-inf give inf and 0; an underflow to 0 is Rayleigh
    except OverflowError:
        raise ConfigError(f"kappa_db {value!r} overflows in linear scale") from None


def _parse_regions(cfg, n_irs: int, n_users: int):
    full = frozenset(range(1, n_irs + 1))
    if cfg is None:
        return tuple(full for _ in range(n_users))
    unknown = set(_expect(cfg, dict, "effective_regions")) - {str(k) for k in range(1, n_users + 1)}
    if unknown:
        raise ConfigError(f"effective_regions name unknown users: {sorted(unknown, key=str)}")
    regions = []
    for k in range(1, n_users + 1):
        ids = _expect(cfg.get(str(k), sorted(full)), list, f"effective region of user {k}")
        reg = frozenset(_count(j, f"effective region of user {k} entry") for j in ids)
        if not reg <= full:
            raise ConfigError(f"effective region of user {k} names unknown IRSs: {sorted(reg - full)}")
        regions.append(reg)
    return tuple(regions)


def path_loss(distance_m: float, alpha: float, beta: float) -> float:
    """Linear power gain beta * d**(-alpha); beta is the 1 m reference."""
    if distance_m <= 0.0:
        raise ValueError(f"path loss needs a positive distance, got {distance_m}")
    return beta * distance_m ** (-alpha)


def route_links(path, target: int) -> list[tuple[int, int]]:
    """Directed links of a route in propagation order: BS to the first
    surface, surface to surface, and the last surface to `target`."""
    nodes = [0, *path, target]
    return list(zip(nodes[:-1], nodes[1:]))


# ---------------------------------------------------------------------------
# LoS tests
# ---------------------------------------------------------------------------

def has_geometric_los(scene: Scene, i: int, j: int) -> bool:
    """True iff the segment between reference points of i and j is unblocked.

    Boxes are closed: a segment grazing a face or corner counts as blocked.
    """
    if i == j:
        raise ValueError("LoS test needs two distinct nodes")
    a = scene.node_position(i)
    b = scene.node_position(j)
    return not any(box.intersects_segment(a, b) for box in scene.obstacles)


def half_space_ok(scene: Scene, j: int, point) -> bool:
    """True iff `point` is strictly inside the front half-space of IRS j."""
    panel = scene.irs[j - 1]
    return float(np.dot(panel.normal, np.asarray(point, dtype=float) - panel.center)) > 0.0


def is_admissible_link(scene: Scene, i: int, j: int) -> bool:
    """Reflection-geometry admissibility of directed link (i, j).

    Checks everything except blockage: outward distance ordering (unless j
    is a user), front half-space at each IRS endpoint, and membership of
    IRS i in the effective region of the destination user.
    """
    if i == j or scene.is_user(i) or j == 0:
        return False
    if scene.is_user(j):
        if i != 0 and i not in scene.effective_regions[scene.user_index(j) - 1]:
            return False
    elif scene.distance(0, j) <= (0.0 if i == 0 else scene.distance(0, i)):
        return False
    if i != 0 and not half_space_ok(scene, i, scene.node_position(j)):
        return False
    if not scene.is_user(j) and not half_space_ok(scene, j, scene.node_position(i)):
        return False
    return True


def los_indicator(scene: Scene, i: int, j: int) -> int:
    """Binary effective-LoS indicator of directed link (i, j)."""
    if not is_admissible_link(scene, i, j):
        return 0
    return 1 if has_geometric_los(scene, i, j) else 0


@dataclass(frozen=True)
class LosGraph:
    """Directed acyclic graph of effective links toward one user.

    Vertices are the BS (0), the IRSs in the user's effective region, and
    the user vertex; there is no direct BS-to-user edge (the direct channel
    is handled separately).  It is acyclic: every admissible link moves
    strictly away from the BS or ends at the user.
    """

    user: int                  # 1-based user number
    user_node: int             # vertex id J + user
    edges: frozenset
    distances: dict
    bs_distance: dict          # vertex -> distance from the BS; its keys are the vertices

    @functools.cached_property
    def edge_order(self) -> tuple[tuple[int, int], ...]:
        """`_edge_order` of this graph alone."""
        return _edge_order([self])


def _edge_order(graphs) -> tuple[tuple[int, int], ...]:
    """The edges of every graph, by source in decreasing BS distance (the BS
    last), then by successor: a reverse topological order.  ValueError for an
    edge out of a user, or into the BS or a surface no farther from the BS."""
    rank = {n: d for g in graphs for n, d in g.bs_distance.items()}
    rank.update((g.user_node, math.inf) for g in graphs)
    edges = set().union(*(g.edges for g in graphs))
    if bad := [e for e in edges if not rank[e[0]] < rank[e[1]]]:
        raise ValueError(f"edge {min(bad)} does not lead away from the BS")
    return tuple(sorted(edges, key=lambda e: (e[0] == 0, -rank[e[0]], e)))


def build_los_graph(scene: Scene, user: int, require_los: bool = True) -> LosGraph:
    """Reflection graph for user k (1-based).

    With require_los the edges are the LoS-indicator links; without it they
    are all admissible links (blocked links then carry scattered power
    only).  Built once per (user, require_los) and kept in `scene._graphs`.
    """
    if not 1 <= user <= scene.n_users:
        raise ValueError(f"no user {user} in scene")
    if (key := (user, bool(require_los))) in scene._graphs:
        return scene._graphs[key]
    target = scene.n_irs + user
    nodes = (0, *sorted(scene.effective_regions[user - 1]), target)
    admissible, los = scene._links
    edges = frozenset((i, j) for (i, j) in (los if require_los else admissible)
                      if i in nodes and j in nodes and (i, j) != (0, target))
    distances = {(i, j): scene.distance(i, j) for (i, j) in edges}
    bs_distance = {n: (0.0 if n == 0 else scene.distance(0, n)) for n in nodes}
    return scene._graphs.setdefault(key, LosGraph(user=user, user_node=target, edges=edges,
                                                  distances=distances, bs_distance=bs_distance))
