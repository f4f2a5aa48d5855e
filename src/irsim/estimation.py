"""Training-overhead formulas and reference least-squares estimators for
the cascaded two-surface channel.

The SISO cascade through both surfaces is the bilinear form
h = phi1 @ S @ phi2 with an M x M coefficient matrix S; the general
estimator identifies all M^2 coefficients, while the rank-one (LoS
inter-surface) shortcut identifies the two length-M factors from 2M
pilots up to a shared scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .training import dft_codebook


class RankDeficientTraining(ValueError):
    """The training patterns do not span the coefficient space."""


class RankOneMismatch(ValueError):
    """The decoupled estimator's rank-one model does not fit the channel."""


def overhead_double_irs_single_user(m_elements: int, n_bs: int) -> int:
    """Minimum pilots for the joint single-user estimator: 2M plus the
    larger of M and ceil(M^2 / N_B); floors at 3M once N_B >= M."""
    m = int(m_elements)
    return 2 * m + max(m, math.ceil(m * m / int(n_bs)))


def overhead_multi_user_extra(m_elements: int, n_bs: int, n_users: int) -> int:
    """Extra pilots for users beyond the first: max(K-1, ceil(2(K-1)M/N_B))."""
    k = int(n_users)
    if k <= 1:
        return 0
    return max(k - 1, math.ceil(2 * (k - 1) * int(m_elements) / int(n_bs)))


def overhead_benchmark_siso_general(m_elements: int) -> int:
    """Pilots for the unstructured SISO benchmark: one per coefficient."""
    return int(m_elements) ** 2


def default_training_pairs(m_elements: int) -> tuple[np.ndarray, np.ndarray]:
    """M^2 orthogonal pattern pairs (phi1^(t), phi2^(t)) from the DFT grid."""
    m = int(m_elements)
    base = dft_codebook(m, m).beams
    phi1 = np.repeat(base, m, axis=0)
    phi2 = np.tile(base, (m, 1))
    return phi1, phi2


def ls_estimate_cascaded_siso(phi1: np.ndarray, phi2: np.ndarray, observations: np.ndarray) -> np.ndarray:
    """Least-squares recovery of the full M x M cascade matrix.

    Observations follow y_t = phi1_t @ S @ phi2_t + noise.  Requires the
    Kronecker-structured regressor to have full column rank (at least M^2
    informative pattern pairs); noiseless observations give exact
    recovery.
    """
    phi1 = np.asarray(phi1)
    phi2 = np.asarray(phi2)
    y = np.asarray(observations)
    t, m = phi1.shape
    regressor = (phi2[:, :, None] * phi1[:, None, :]).reshape(t, m * m)
    if t < m * m:
        raise RankDeficientTraining(
            f"{t} pattern pairs cannot identify {m * m} coefficients")
    vec, _, rank, _ = np.linalg.lstsq(regressor, y, rcond=None)
    if rank < m * m:
        raise RankDeficientTraining(
            f"training regressor has rank {rank} < {m * m}; patterns are not diverse enough")
    return vec.reshape(m, m, order="F")


@dataclass
class DecoupledEstimate:
    """Factor estimates of a rank-one cascade, up to one shared scale.

    The product channel reconstruct(phi1, phi2) is ambiguity free; c1/c2
    are the scaled factors with the anchor normalization applied.
    """

    c1: np.ndarray
    c2: np.ndarray
    anchor: complex
    residual: float

    def reconstruct(self, phi1: np.ndarray, phi2: np.ndarray) -> complex:
        return complex((self.c1 @ phi1) * (self.c2 @ phi2) / self.anchor)

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(v1, v2) with the first entry of v1 normalized to phase 0."""
        rot = np.exp(-1j * np.angle(self.c1[0])) if self.c1[0] != 0 else 1.0
        return self.c1 * rot, self.c2 / (self.anchor * rot)


def ls_estimate_los_decoupled(channel_probe, m_elements: int, n_validation: int = 4,
                              residual_tol: float = 1e-6) -> DecoupledEstimate:
    """Identify the two factors of a rank-one cascade from 2M pilots.

    `channel_probe(phi1, phi2)` returns the (noisy) scalar observation.
    One surface holds the anchor pattern while the other sweeps M DFT
    patterns, then the roles swap; extra held-out probe pairs validate the
    rank-one model and a relative residual above `residual_tol` raises.
    """
    m = int(m_elements)
    patterns = dft_codebook(m, m).beams
    anchor1, anchor2 = patterns[0], patterns[0]

    y_sweep1 = np.array([channel_probe(p, anchor2) for p in patterns])
    y_sweep2 = np.array([channel_probe(anchor1, p) for p in patterns])
    # patterns is an invertible (scaled-unitary) system: solve for the factors
    c1 = np.linalg.solve(patterns, y_sweep1)
    c2 = np.linalg.solve(patterns, y_sweep2)
    anchor = complex(y_sweep1[0])
    if anchor == 0:
        raise RankOneMismatch("anchor observation is zero; factors unidentifiable")
    est = DecoupledEstimate(c1=c1, c2=c2, anchor=anchor, residual=0.0)

    errs, scale = [], []
    for r in range(1, n_validation + 1):
        p1 = patterns[r % m]
        p2 = patterns[(r * 2 + 1) % m] if m > 1 else patterns[0]
        observed = channel_probe(p1, p2)
        errs.append(abs(observed - est.reconstruct(p1, p2)))
        scale.append(abs(observed))
    residual = max(errs) / max(max(scale), abs(anchor), 1e-300)
    est.residual = residual
    if residual > residual_tol:
        raise RankOneMismatch(
            f"held-out residual {residual:.3e} exceeds {residual_tol:.1e}; "
            "the inter-surface channel is not rank one")
    return est


# ---------------------------------------------------------------------------
# Cascaded-form identities
# ---------------------------------------------------------------------------

def siso_cascade_matrix(q01: np.ndarray, s12: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """M x M cascade S with h = phi1 @ S @ phi2 for the SISO chain.

    q01 is the (M,) BS-to-surface-1 column, s12 the (M x M) inter-surface
    matrix in rx-by-tx orientation, r2 the (M,) surface-2-to-user row.
    """
    return (q01[:, None] * s12.T) * r2[None, :]


@dataclass
class MisoCascadeForms:
    """Cascaded single-/double-reflection forms sharing the BS-side link."""

    r1: np.ndarray           # (N_B, M) single-reflection cascade via surface 1
    s_bar: np.ndarray        # (M, M) columns s_bar_m
    s_tilde: np.ndarray      # (M, N_B, M) stack of per-element cascades
    a: np.ndarray            # (M, M) columns a_m = s_bar_m / r1-diag source

    def reconstruction_error(self) -> float:
        """Max relative error of s_tilde_m == r1 @ diag(a_m)."""
        worst = 0.0
        for m in range(self.s_bar.shape[1]):
            direct = self.s_tilde[m]
            rebuilt = self.r1 * self.a[:, m][None, :]
            denom = np.linalg.norm(direct)
            worst = max(worst, np.linalg.norm(direct - rebuilt) / max(denom, 1e-300))
        return worst


def miso_cascade_forms(h01: np.ndarray, r1_row: np.ndarray, s12: np.ndarray,
                       r2_row: np.ndarray) -> MisoCascadeForms:
    """Build the scaled cascade representations from raw link matrices.

    h01 is the (M x N_B) BS-to-surface-1 matrix, r1_row/r2_row the (M,)
    surface-to-user rows, s12 the (M x M) inter-surface matrix; all in the
    rx-by-tx downlink orientation.  Entries of r1_row at exact zero are
    rejected (the scaling vectors divide by them).
    """
    if np.any(r1_row == 0):
        raise ValueError("surface-1/user channel has an exactly zero entry; "
                         "scaling vectors are undefined")
    r1 = h01.T * r1_row[None, :]
    s_bar = s12.T * r2_row[None, :]
    s_tilde = np.stack([h01.T * s_bar[:, m][None, :] for m in range(s_bar.shape[1])])
    a = s_bar / r1_row[:, None]
    return MisoCascadeForms(r1=r1, s_bar=s_bar, s_tilde=s_tilde, a=a)
