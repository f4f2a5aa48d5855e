"""Training-overhead formulas and the reference least-squares estimator for
the cascaded two-surface channel.

The SISO cascade through both surfaces is the bilinear form
h = phi1 @ S @ phi2 with an M x M coefficient matrix S; the estimator
identifies all M^2 coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from .training import dft_codebook


class RankDeficientTraining(ValueError):
    """The training patterns do not span the coefficient space."""


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

