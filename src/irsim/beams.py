"""Passive and active beamforming: closed forms, alternating optimization,
and linear multi-user receivers.

Alternating optimization (AO) gives each surface in turn its exact closed-form
phases; one alternation loop serves AO and the single-path phase optimizer.

All closed forms assume the far-field rank-one LoS decompositions stored on
the link channels.  Phase vectors are unit modulus throughout; BS weight
vectors are unit norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .channels import (ChannelSet, _compose, _integer, _irs_ids, _los_terms, _path_edges,
                       _positive, _user_ids, check_unit_modulus, effective_channel,
                       effective_channel_affine, mrt_beam, unit_phases)
from .geometry import route_links


@dataclass
class BeamSolution:
    """Joint passive/active beam design and the gains it achieves."""

    phases: dict                      # irs id -> unit-modulus vector
    bs_beams: dict                    # user -> unit-norm weight vector
    achieved_gains: dict = field(default_factory=dict)   # user -> |h @ w|^2
    converged: bool = True
    iterations: int = 0


def multi_hop_phases(channels: ChannelSet, path, user: int = 1) -> dict:
    """Closed-form per-IRS phases aligning a pure-LoS reflection path.

    Each surface conjugates the product of its incoming receive response
    and outgoing transmit response, which turns every reflection bracket
    into its element count M.  The responses come from the scene geometry,
    so the route's links need not be drawn.  ValueError if any hop lacks an
    LoS component, or for a bad `path` or `user`.
    """
    scene = channels.scene
    path = _irs_ids(scene, path, "path")
    hops = route_links(path, scene.n_irs + _user_ids(scene, user, "user")[0])
    terms = [_los_terms(scene, *hop) for hop in hops]       # (.., rho, a_rx, a_tx)
    if blocked := [hop for hop, t in zip(hops, terms) if t[3] is None]:
        raise ValueError(f"hop {blocked[0]} has no LoS decomposition; "
                         "use AO or beam training instead")
    return {irs: np.conj(terms[idx][4] * terms[idx + 1][5]) for idx, irs in enumerate(path)}


def closed_form_path_gain(n: int, m_elements, n_bs: int, beta: float, distances) -> float:
    """Peak power gain of an n-reflection LoS path (active gain included).

    `m_elements` is the per-surface element count, either a scalar shared
    by the whole path or one value per hop.  ValueError unless the counts,
    `beta` and the distances are positive and finite.
    """
    distances = np.asarray(_positive(distances, "distances"), dtype=float)
    if n < 1 or len(distances) != n + 1:
        raise ValueError("need n >= 1 and n + 1 link distances")
    m = np.broadcast_to(np.asarray(_positive(m_elements, "m_elements"), dtype=float), (n,))
    hops = _positive(beta, "beta") * distances ** -2.0   # hop by hop: a long route cannot overflow
    return float(n_bs * hops[0] * np.prod(m ** 2 * hops[1:]))


def _align_phases(base: complex, coeff: np.ndarray, theta: np.ndarray) -> None:
    """Set theta in place to the exact maximizer of |base + theta @ coeff|,
    which attains |base| + sum|coeff| (Wu & Zhang, IEEE TWC 2019); entries
    with a zero coefficient keep their phase."""
    live = coeff != 0
    theta[live] = np.exp(1j * (np.angle(base) - np.angle(coeff[live])))


def _alternate(compose, phases: dict, irs_ids, max_iters: int, tol: float, cap="max_iters"):
    """Alternate MRT at the BS with the exact update of each surface in turn.

    `compose(phases, irs=None, w=None)` follows `channels._compose`: h, or
    the sweep over `irs_ids` projected onto the current beam w, yielding
    (j, a, b) with h @ w = a + phases[j] @ b.  Each step is exact, so
    |h @ w|^2 never decreases.  Updates `phases` in place until a round
    gains at most tol (relative), for at most max_iters rounds (a ValueError,
    naming it `cap`, unless an integer >= 0); returns (w, objective, converged, iterations).
    """
    _integer(max_iters, cap, 0)
    h = compose(phases)
    w = mrt_beam(h)
    objective = float(np.linalg.norm(h) ** 2)
    for it in range(1, max_iters + 1):
        for j, base, coeff in compose(phases, irs_ids, w):
            _align_phases(complex(base), coeff, phases[j])
        h = compose(phases)
        w = mrt_beam(h)
        new_obj = float(np.linalg.norm(h) ** 2)
        if new_obj - objective <= tol * max(objective, 1e-300):
            return w, max(new_obj, objective), True, it
        objective = new_obj
    return w, objective, False, max_iters


def ao_joint_beamforming(channels: ChannelSet, user: int = 1, max_iters: int = 200) -> BeamSolution:
    """Alternating optimization of BS weights and all surface phases.

    Alternates MRT at the BS with the exact closed-form phases of each
    surface in turn, BS first (the loop `optimize_path_phases` shares), so
    |h @ w|^2 never decreases; stops when a round's relative gain falls
    below 1e-12.  The channel is the sum over every reflection path of the
    user's graph, the direct link excluded.  Every surface starts at zero phase.
    """
    phases = unit_phases(channels.scene)

    def compose(phases, irs=None, w=None):
        return (effective_channel(channels, user, phases, include_direct=False) if irs is None
                else effective_channel_affine(channels, user, phases, irs, w))

    w, objective, converged, it = _alternate(compose, phases, sorted(phases), max_iters, 1e-12)
    check_unit_modulus(phases)
    return BeamSolution(phases=phases, bs_beams={user: w},
                        achieved_gains={user: objective},
                        converged=converged, iterations=it)


def optimize_path_phases(channels: ChannelSet, path, user: int = 1, max_sweeps: int = 30):
    """Phases maximizing one path's channel norm, by the AO loop.

    Works on arbitrary (e.g. faded) link matrices where the closed-form
    alignment does not apply; stops when a sweep gains at most 1e-10
    (relative).  Returns (phases, gain) with the gain under MRT at the BS.
    """
    path = _irs_ids(channels.scene, path, "path")
    edges = _path_edges(path, channels.scene.n_irs + _user_ids(channels.scene, user, "user")[0])
    phases = {j: np.ones(channels.scene.irs[j - 1].size, dtype=complex) for j in path}
    _, gain, _, _ = _alternate(partial(_compose, channels, edges), phases, path, max_sweeps, 1e-10,
                               "max_sweeps")
    return phases, gain


# ---------------------------------------------------------------------------
# Multi-user linear receivers
# ---------------------------------------------------------------------------

RANK_TOLERANCE = 1e-9


def numerical_rank(matrix: np.ndarray) -> int:
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOLERANCE * s[0]))


@dataclass
class ReceiverResult:
    beams: np.ndarray            # (N_B, K), column k serves user k
    sinrs: np.ndarray            # (K,) linear uplink SINR
    scheme: str
    rank_deficient: bool = False


def _uplink_sinrs(H: np.ndarray, R: np.ndarray, power: float, noise: float) -> np.ndarray:
    K = H.shape[1]
    cross = np.abs(R.conj().T @ H) ** 2        # (K users') power into beam k
    sinrs = np.empty(K)
    for k in range(K):
        desired = power * cross[k, k]
        interference = power * (cross[k].sum() - cross[k, k])
        sinrs[k] = desired / (interference + noise * np.linalg.norm(R[:, k]) ** 2)
    return sinrs


def linear_receivers(H: np.ndarray, noise_power: float, tx_power: float,
                     scheme: str = "zf") -> ReceiverResult:
    """Uplink receive beams and per-user SINRs for a (N_B x K) channel.

    zf uses the pseudo-inverse; when the channel is rank deficient the
    regularized inverse leaves residual interference and the SINRs
    saturate with power.  mmse solves (P H H^H + sigma^2 I)^{-1} h_k.
    ValueError unless H is 2-D, for a user (column of H) with an all-zero
    channel, or for a power that is not positive and finite.
    """
    H = np.asarray(H)
    if H.ndim != 2:
        raise ValueError(f"H must be a 2-D (N_B x K) channel matrix, got shape {H.shape}")
    if not np.all(np.any(H != 0, axis=0)):
        raise ValueError("H has an all-zero column: a user with no channel has no SINR")
    _positive(noise_power, "noise_power")
    _positive(tx_power, "tx_power")
    deficient = numerical_rank(H) < H.shape[1]
    if scheme == "mmse":
        gram = tx_power * (H @ H.conj().T) + noise_power * np.eye(H.shape[0])
        R = np.linalg.solve(gram, H)
    elif scheme == "zf":
        R = np.linalg.pinv(H, rcond=RANK_TOLERANCE).conj().T
    else:
        raise ValueError(f"unknown receiver scheme {scheme!r}")
    sinrs = _uplink_sinrs(H, R, tx_power, noise_power)
    return ReceiverResult(beams=R, sinrs=sinrs, scheme=scheme,
                          rank_deficient=deficient and scheme == "zf")
