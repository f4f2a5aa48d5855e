"""Overhead formulas and the cascaded-channel least-squares estimator."""

import math

import numpy as np
import pytest

from irsim.estimation import (RankDeficientTraining, default_training_pairs,
                              ls_estimate_cascaded_siso, overhead_benchmark_siso_general,
                              overhead_double_irs_single_user, overhead_multi_user_extra)


# ---------------------------------------------------------------------------
# overhead formulas
# ---------------------------------------------------------------------------

def test_single_user_overhead_values():
    assert overhead_double_irs_single_user(400, 400) == 1200
    assert overhead_double_irs_single_user(400, 40) == 4800
    assert overhead_double_irs_single_user(1, 1) == 3


def test_single_user_overhead_floor_and_monotonicity():
    m = 64
    values = [overhead_double_irs_single_user(m, n) for n in range(1, 4 * m)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v == 3 * m for v in values[m - 1:])
    assert values[m - 2] > 3 * m


def test_multi_user_overhead_values():
    assert overhead_multi_user_extra(400, 40, 1) == 0
    assert overhead_multi_user_extra(400, 40, 5) == 80
    assert overhead_multi_user_extra(400, 800, 5) == 4
    m, k = 32, 7
    values = [overhead_multi_user_extra(m, n, k) for n in range(1, 4 * m)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v == k - 1 for n, v in enumerate(values, start=1) if n >= 2 * m)


def test_benchmark_overhead():
    assert overhead_benchmark_siso_general(4) == 16
    assert overhead_benchmark_siso_general(1) == 1


def test_benchmark_matches_identifiability():
    # fewer than M^2 pattern pairs leave the regressor rank deficient
    m = 3
    phi1, phi2 = default_training_pairs(m)
    regressor = (phi2[:, :, None] * phi1[:, None, :]).reshape(m * m, m * m)
    assert np.linalg.matrix_rank(regressor) == m * m
    short = regressor[: m * m - 1]
    assert np.linalg.matrix_rank(short) < m * m


# ---------------------------------------------------------------------------
# full LS estimator
# ---------------------------------------------------------------------------

def _random_cascade(rng, m):
    return (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2)


def test_noiseless_recovery_exact():
    rng = np.random.default_rng(80)
    for m in (2, 4):
        s = _random_cascade(rng, m)
        phi1, phi2 = default_training_pairs(m)
        y = np.array([p1 @ s @ p2 for p1, p2 in zip(phi1, phi2)])
        est = ls_estimate_cascaded_siso(phi1, phi2, y)
        assert np.max(np.abs(est - s)) < 1e-12


def test_recovery_reproduces_held_out_observations():
    rng = np.random.default_rng(81)
    m = 3
    s = _random_cascade(rng, m)
    phi1, phi2 = default_training_pairs(m)
    y = np.array([p1 @ s @ p2 for p1, p2 in zip(phi1, phi2)])
    est = ls_estimate_cascaded_siso(phi1, phi2, y)
    for _ in range(20):
        q1 = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        q2 = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        assert (q1 @ est @ q2) == pytest.approx(q1 @ s @ q2, rel=1e-10)


def test_underdetermined_training_rejected():
    rng = np.random.default_rng(82)
    m = 3
    s = _random_cascade(rng, m)
    phi1, phi2 = default_training_pairs(m)
    phi1, phi2 = phi1[: m * m - 1], phi2[: m * m - 1]
    y = np.array([p1 @ s @ p2 for p1, p2 in zip(phi1, phi2)])
    with pytest.raises(RankDeficientTraining):
        ls_estimate_cascaded_siso(phi1, phi2, y)


def test_repeated_patterns_rejected_by_rank_check():
    rng = np.random.default_rng(83)
    m = 2
    s = _random_cascade(rng, m)
    phi1 = np.ones((m * m, m), dtype=complex)
    phi2 = np.ones((m * m, m), dtype=complex)
    y = np.array([p1 @ s @ p2 for p1, p2 in zip(phi1, phi2)])
    with pytest.raises(RankDeficientTraining, match="rank"):
        ls_estimate_cascaded_siso(phi1, phi2, y)


def test_nmse_scales_linearly_with_noise_power():
    rng = np.random.default_rng(84)
    m = 4
    s = _random_cascade(rng, m)
    phi1, phi2 = default_training_pairs(m)
    clean = np.array([p1 @ s @ p2 for p1, p2 in zip(phi1, phi2)])
    sigmas = [1e-3, 1e-2, 1e-1, 1.0]
    nmse = []
    for sigma2 in sigmas:
        acc = 0.0
        for _ in range(60):
            noise = math.sqrt(sigma2 / 2) * (rng.standard_normal(len(clean))
                                             + 1j * rng.standard_normal(len(clean)))
            est = ls_estimate_cascaded_siso(phi1, phi2, clean + noise)
            acc += float(np.linalg.norm(est - s) ** 2 / np.linalg.norm(s) ** 2)
        nmse.append(acc / 60)
    slope = np.polyfit(np.log10(sigmas), np.log10(nmse), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)
    assert nmse[0] == pytest.approx(nmse[1] / 10.0, rel=0.3)
