"""Randomized check of the planar codebook's separable form.

A planar codebook stores only its 1-D DFT factor.  Its apply, its rows and
its size must match the explicit (n^2 x m0^2) Kronecker matrix, which only
this file builds.
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from irsim.training import dft_codebook, planar_passive_codebook  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def grids(draw):
    """(n, m0) with m0 in 1..8 and at least as many points as elements."""
    m0 = draw(st.integers(1, 8))
    return draw(st.integers(m0, 40)), m0


def _kron_matrix(n, m0):
    line = dft_codebook(n, m0).beams
    return np.einsum("ah,bv->abhv", line, line).reshape(n * n, m0 * m0)


@PROPERTY_SETTINGS
@given(grids(), st.integers(0, 2 ** 32 - 1))
def test_apply_equals_the_explicit_kronecker_product(grid, seed):
    n, m0 = grid
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(m0 * m0) + 1j * rng.standard_normal(m0 * m0)
    want = _kron_matrix(n, m0) @ x
    got = planar_passive_codebook(n, m0).apply(x)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@PROPERTY_SETTINGS
@given(grids())
def test_rows_equal_the_explicit_kronecker_rows_bit_for_bit(grid):
    n, m0 = grid
    cb = planar_passive_codebook(n, m0)
    full = _kron_matrix(n, m0)
    assert cb.size == n * n == full.shape[0]
    for d in range(cb.size):
        assert np.array_equal(cb.row(d), full[d]), d


def test_one_dimensional_codebook_applies_and_indexes_its_matrix():
    cb = dft_codebook(8, 5, kind="active")
    x = np.arange(5) + 1j
    assert np.array_equal(cb.apply(x), cb.beams @ x)
    assert cb.size == 8 and all(np.array_equal(cb.row(d), cb.beams[d]) for d in range(8))


def test_planar_codebook_holds_no_array_larger_than_its_factor():
    cb = planar_passive_codebook(32, 24)
    arrays = [v for v in (getattr(cb, f.name) for f in dataclasses.fields(cb))
              if isinstance(v, np.ndarray)]
    assert arrays
    for arr in arrays:
        assert arr.size <= 32 * 24
        assert arr.base is None or arr.base.size <= 32 * 24
