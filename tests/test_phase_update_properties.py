"""Randomized properties of the exact per-surface phase update and of AO.

The update sets theta to the maximizer of |b + theta @ c| over unit-modulus
theta.  It must reach the bound |b| + sum|c_m|, leave zero-coefficient
entries alone, and never fall below the per-element coordinate pass it
replaced.  AO built on it must never lower its objective from one round to
the next, and with one BS antenna and one surface its first round is
already globally optimal.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from irsim.beams import _align_phases, ao_joint_beamforming  # noqa: E402
from irsim.channels import (effective_channel, effective_channel_affine,  # noqa: E402
                            unit_phases)

from test_composition_properties import random_instances  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def _coordinate_phase_pass(base: complex, coeff: np.ndarray, theta: np.ndarray) -> complex:
    """In-place per-element phase ascent of |base + theta @ coeff|."""
    total = base + theta @ coeff
    for m in range(len(theta)):
        rest = total - theta[m] * coeff[m]
        if coeff[m] != 0:
            theta[m] = np.exp(1j * (np.angle(rest) - np.angle(coeff[m])))
        total = rest + theta[m] * coeff[m]
    return total


@st.composite
def update_problems(draw):
    """(b, c, theta): c has some exact zeros, b is sometimes exactly zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(1, 64))
    scale = 10.0 ** draw(st.integers(-12, 3))
    c = scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    c[rng.random(m) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    b = 0j if draw(st.booleans()) else scale * complex(*rng.standard_normal(2))
    theta = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))
    return b, c, theta


@settings(max_examples=200, deadline=None)
@given(update_problems())
def test_update_attains_the_block_maximum(problem):
    b, c, theta = problem
    before = theta.copy()
    _align_phases(b, c, theta)
    bound = abs(b) + np.abs(c).sum()
    assert abs(b + theta @ c) == pytest.approx(bound, rel=1e-12, abs=1e-300)
    np.testing.assert_allclose(np.abs(theta), 1.0, atol=1e-12)
    np.testing.assert_array_equal(theta[c == 0], before[c == 0])


@settings(max_examples=200, deadline=None)
@given(update_problems())
def test_update_never_below_per_element_pass(problem):
    b, c, theta = problem
    reference = theta.copy()
    ascent = abs(_coordinate_phase_pass(b, c, reference))
    _align_phases(b, c, theta)
    assert abs(b + theta @ c) >= ascent * (1.0 - 1e-12)


@PROPERTY_SETTINGS
@given(random_instances(), st.booleans())
def test_ao_objective_nondecreasing_in_rounds(instance, include_direct):
    channels, _, user, subset, los_only, _ = instance
    options = dict(los_only=los_only, include_direct=include_direct, irs_subset=subset)
    start = effective_channel(channels, user, unit_phases(channels.scene), **options)
    assume(np.linalg.norm(start) > 0.0)            # MRT needs a nonzero channel
    previous = 0.0
    for k in range(6):
        sol = ao_joint_beamforming(channels, user, max_iters=k, tol=0.0, **options)
        # the objective the returned phases really attain, not only the reported one
        attained = float(np.linalg.norm(effective_channel(channels, user, sol.phases,
                                                          **options)) ** 2)
        assert sol.achieved_gains[user] == pytest.approx(attained, rel=1e-12)
        assert attained >= previous * (1.0 - 1e-12)
        previous = attained


@PROPERTY_SETTINGS
@given(random_instances(), st.booleans())
def test_one_round_reaches_single_surface_optimum(instance, include_direct):
    # one BS antenna and one surface: the first exact update is globally optimal
    channels, _, user, subset, los_only, _ = instance
    assume(channels.scene.n_bs == 1)
    options = dict(los_only=los_only, include_direct=include_direct, irs_subset=subset[:1])
    phases = unit_phases(channels.scene)
    optimum = abs(effective_channel(channels, user, phases, **options)[0]) ** 2
    for _, base, coeff in effective_channel_affine(channels, user, phases, subset[:1],
                                                   np.ones(1), **options):
        optimum = (abs(base) + np.abs(coeff).sum()) ** 2
    assume(optimum > 0.0)
    sol = ao_joint_beamforming(channels, user, max_iters=1, **options)
    assert sol.achieved_gains[user] == pytest.approx(optimum, rel=1e-12)
