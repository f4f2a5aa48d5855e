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

import numpy as np

from .channels import (ChannelSet, _compose, _path_edges, check_unit_modulus,
                       effective_channel, effective_channel_affine, mrt_beam, unit_phases)
from .geometry import route_links


@dataclass
class BeamSolution:
    """Joint passive/active beam design and the gains it achieves."""

    phases: dict                      # irs id -> unit-modulus vector
    bs_beams: dict                    # user -> unit-norm weight vector
    achieved_gains: dict = field(default_factory=dict)   # user -> |h @ w|^2
    sinrs: dict = field(default_factory=dict)
    converged: bool = True
    iterations: int = 0

    def as_dict(self) -> dict:
        """JSON-serializable fixture form ([re, im] pairs for vectors)."""
        pack = lambda v: [[float(x.real), float(x.imag)] for x in np.asarray(v)]
        return {
            "phases": {str(j): pack(v) for j, v in self.phases.items()},
            "bs_beams": {str(k): pack(v) for k, v in self.bs_beams.items()},
            "achieved_gains": {str(k): float(v) for k, v in self.achieved_gains.items()},
            "sinrs": {str(k): float(v) for k, v in self.sinrs.items()},
            "converged": self.converged,
            "iterations": self.iterations,
        }


def optimal_double_reflection_phases(v1: np.ndarray, v2: np.ndarray):
    """Phase pair maximizing |(v1 @ phi1) * (v2 @ phi2)|.

    Entries of v with zero magnitude get phase 0.  The attained squared
    gain is (l1-norm of v1)**2 * (l1-norm of v2)**2 times |rho|^2 for the
    factored channel rho * (v1 @ phi1) * (v2 @ phi2).
    """
    return np.exp(-1j * np.angle(v1)), np.exp(-1j * np.angle(v2))


def double_reflection_factors(channels: ChannelSet):
    """(rho, v1, v2) of the factored pure-LoS double-reflection channel.

    Uses the SISO reduction of the BS->IRS1->IRS2->user-1 link: the scalar
    channel is rho * (v1 @ phi1) * (v2 @ phi2) for a single-antenna BS.
    """
    q = channels.get(0, 1)
    s = channels.get(1, 2)
    g = channels.get(2, channels.scene.n_irs + 1)
    for link in (q, s, g):
        if link.los_gain is None:
            raise ValueError(f"link ({link.i}, {link.j}) has no LoS decomposition")
    if channels.scene.n_bs != 1:
        raise ValueError("the factored double-reflection form is the SISO reduction")
    rho = q.los_gain * s.los_gain * g.los_gain
    v1 = q.los_rx * q.los_tx[0] * s.los_tx
    v2 = s.los_rx * g.los_rx[0] * g.los_tx
    return rho, v1, v2


def multi_hop_phases(channels: ChannelSet, path, user: int = 1) -> dict:
    """Closed-form per-IRS phases aligning a pure-LoS reflection path.

    Each surface conjugates the product of its incoming receive response
    and outgoing transmit response, which turns every reflection bracket
    into its element count M.  Raises if any hop lacks an LoS component.
    """
    hops = route_links(path, channels.scene.n_irs + user)
    phases = {}
    for idx, irs in enumerate(path):
        incoming = channels.get(*hops[idx])
        outgoing = channels.get(*hops[idx + 1])
        if incoming.los_gain is None or outgoing.los_gain is None:
            raise ValueError(
                f"hop ({hops[idx]} or {hops[idx + 1]}) has no LoS decomposition; "
                "use AO or beam training instead")
        phases[irs] = np.conj(incoming.los_rx * outgoing.los_tx)
    return phases


def bs_mrt_to_first_irs(bs_response: np.ndarray) -> np.ndarray:
    """Unit-norm MRT weights matched to the BS response of the first hop."""
    return mrt_beam(bs_response)


def closed_form_path_gain(n: int, m_elements, n_bs: int, beta: float, distances) -> float:
    """Peak power gain of an n-reflection LoS path (active gain included).

    `m_elements` is the per-surface element count, either a scalar shared
    by the whole path or one value per hop.
    """
    distances = np.asarray(distances, dtype=float)
    if n < 1 or len(distances) != n + 1:
        raise ValueError("need n >= 1 and n + 1 link distances")
    m = np.broadcast_to(np.asarray(m_elements, dtype=float), (n,))
    return float(np.prod(m ** 2) * n_bs * beta ** (n + 1) * np.prod(distances ** -2.0))


def path_gain_with_direct(n: int, m_elements, n_bs: int, beta: float, distances,
                          f_direct: np.ndarray, bs_response: np.ndarray) -> float:
    """Peak gain of a reflection path coherently combined with the direct
    channel (MRT at the BS plus a common phase shift on one surface)."""
    reflect = closed_form_path_gain(n, m_elements, n_bs, beta, distances)
    m = np.broadcast_to(np.asarray(m_elements, dtype=float), (n,))
    amp = float(np.prod(m)) * beta ** ((n + 1) / 2.0) * float(np.prod(np.asarray(distances, dtype=float) ** -1.0))
    cross = 2.0 * amp * abs(np.vdot(bs_response, f_direct))
    return float(np.linalg.norm(f_direct) ** 2 + reflect + cross)


def common_phase_combine(a_s: complex, a_d: complex) -> float:
    """Common phase aligning e^{j t} a_s with e^{j 2t} a_d.

    The combined power |e^{j t} a_s + e^{j 2t} a_d|^2 then reaches
    (|a_s| + |a_d|)^2.  Returns 0 for a vanishing double term.
    """
    if a_d == 0:
        return 0.0
    return float(np.angle(a_s / a_d))


def _align_phases(base: complex, coeff: np.ndarray, theta: np.ndarray) -> None:
    """Set theta in place to the exact maximizer of |base + theta @ coeff|,
    which attains |base| + sum|coeff| (Wu & Zhang, IEEE TWC 2019); entries
    with a zero coefficient keep their phase."""
    live = coeff != 0
    theta[live] = np.exp(1j * (np.angle(base) - np.angle(coeff[live])))


def _alternate(compose, phases: dict, irs_ids, max_iters: int, tol: float):
    """Alternate MRT at the BS with the exact update of each surface in turn.

    `compose(phases, irs=None)` follows `channels._compose`: h, or (a, B)
    with h = a + phases[irs] @ B.  Each step is exact, so |h @ w|^2 never
    decreases.  Updates `phases` in place until a round gains at most tol
    (relative); returns (w, objective, converged, iterations).
    """
    h = compose(phases)
    w = mrt_beam(h)
    objective = float(np.linalg.norm(h) ** 2)
    for it in range(1, max_iters + 1):
        for j in irs_ids:
            base, coeff = compose(phases, j)
            _align_phases(complex(base @ w), coeff @ w, phases[j])
        h = compose(phases)
        w = mrt_beam(h)
        new_obj = float(np.linalg.norm(h) ** 2)
        if new_obj - objective <= tol * max(objective, 1e-300):
            return w, max(new_obj, objective), True, it
        objective = new_obj
    return w, objective, False, max_iters


def ao_joint_beamforming(channels: ChannelSet, user: int = 1, tol: float = 1e-12,
                         max_iters: int = 200, include_direct: bool = False,
                         los_only: bool = False, irs_subset=None) -> BeamSolution:
    """Alternating optimization of BS weights and all surface phases.

    Alternates MRT at the BS with the exact closed-form phases of each
    surface in turn (the loop `optimize_path_phases` shares), so |h @ w|^2
    never decreases; stops when a round's relative gain falls below tol.
    Every surface starts at zero phase.
    """
    phases = unit_phases(channels.scene)
    irs_ids = sorted(phases) if irs_subset is None else sorted(irs_subset)
    options = dict(los_only=los_only, include_direct=include_direct, irs_subset=irs_ids)

    def compose(phases, irs=None):
        return (effective_channel(channels, user, phases, **options) if irs is None
                else effective_channel_affine(channels, user, phases, irs, **options))

    w, objective, converged, it = _alternate(compose, phases, irs_ids, max_iters, tol)
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
    edges = _path_edges(path, channels.scene.n_irs + user)
    phases = {j: np.ones(channels.scene.irs[j - 1].size, dtype=complex) for j in path}
    _, gain, _, _ = _alternate(lambda phases, irs=None: _compose(channels, edges, phases, irs),
                               phases, path, max_sweeps, 1e-10)
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
    saturate with power.  mmse solves (P H H^H + sigma^2 I)^{-1} h_k; mrt
    is the matched filter.
    """
    H = np.asarray(H)
    K = H.shape[1]
    deficient = numerical_rank(H) < K
    if scheme == "mrt":
        R = H / np.linalg.norm(H, axis=0, keepdims=True)
    elif scheme == "mmse":
        gram = tx_power * (H @ H.conj().T) + noise_power * np.eye(H.shape[0])
        R = np.linalg.solve(gram, H)
    elif scheme == "zf":
        R = np.linalg.pinv(H, rcond=RANK_TOLERANCE).conj().T
    else:
        raise ValueError(f"unknown receiver scheme {scheme!r}")
    sinrs = _uplink_sinrs(H, R, tx_power, noise_power)
    return ReceiverResult(beams=R, sinrs=sinrs, scheme=scheme,
                          rank_deficient=deficient and scheme == "zf")


@dataclass
class RankGainReport:
    rank_single: int
    rank_double: int
    bound: int
    satisfied: bool


def channel_rank_gain_check(g2: np.ndarray, q02: np.ndarray,
                            h_single: np.ndarray, h_double: np.ndarray) -> RankGainReport:
    """Check the spatial-multiplexing rank gain of the two-surface system.

    Asserts rank(H_double) - rank(H_single) >= min(rank(G2), rank(Q02))
    with tolerance-thresholded numerical ranks; valid on instances with a
    blocked direct link.
    """
    r_s = numerical_rank(h_single)
    r_d = numerical_rank(h_double)
    bound = min(numerical_rank(g2), numerical_rank(q02))
    return RankGainReport(rank_single=r_s, rank_double=r_d, bound=bound,
                          satisfied=(r_d - r_s) >= bound)
