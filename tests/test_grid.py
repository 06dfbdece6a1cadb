"""Periodic grid: spectral calculus, shifts, norms, and validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiaflow.grid import GridField, PeriodicGrid, zero_field


def _smooth_noise(grid, seed, width=4.0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(grid.n)
    window = np.exp(-((grid.wavenumbers / width) ** 2))
    return np.fft.irfft(np.fft.rfft(raw) * window, grid.n)


def test_points_and_spacing(grid):
    assert grid.n == 1024
    assert grid.spacing == pytest.approx(40.0 / 1024, rel=1e-15)
    assert grid.x[0] == -20.0
    assert grid.x[-1] == pytest.approx(20.0 - grid.spacing, rel=1e-15)
    assert np.all(np.diff(grid.x) > 0)


def test_wavenumbers_match_half_spectrum_layout(grid):
    k = grid.wavenumbers
    assert len(k) == grid.n // 2 + 1
    assert k[0] == 0.0
    assert k[1] == pytest.approx(2.0 * np.pi / 40.0, rel=1e-14)
    assert k[-1] == pytest.approx(np.pi * grid.n / 40.0, rel=1e-14)


def test_first_derivative_exact_on_a_mode(grid):
    k = 2.0 * np.pi * 3.0 / 40.0
    v = np.sin(k * grid.x)
    dv = grid.first_derivative_values(v)
    assert np.max(np.abs(dv - k * np.cos(k * grid.x))) <= 1e-12


def test_second_derivative_exact_on_a_mode(grid):
    k = 2.0 * np.pi * 5.0 / 40.0
    v = np.cos(k * grid.x)
    d2v = grid.second_derivative_values(v)
    assert np.max(np.abs(d2v + k**2 * v)) <= 5e-12


def test_shift_translates_a_mode(grid):
    k = 2.0 * np.pi * 2.0 / 40.0
    v = np.sin(k * grid.x)
    shifted = grid.shift_values(v, 0.37)
    assert np.max(np.abs(shifted - np.sin(k * (grid.x - 0.37)))) <= 1e-12


def test_zero_shift_is_the_identity(grid):
    v = _smooth_noise(grid, 0)
    assert np.array_equal(grid.shift_values(v, 0.0), v)


def test_shift_roundtrip(grid):
    v = _smooth_noise(grid, 1)
    back = grid.shift_values(grid.shift_values(v, 1.3), -1.3)
    assert np.max(np.abs(back - v)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       a=st.floats(min_value=-5.0, max_value=5.0),
       b=st.floats(min_value=-5.0, max_value=5.0))
def test_shifts_compose_by_adding_their_offsets(grid, seed, a, b):
    v = _smooth_noise(grid, seed)
    twice = grid.shift_values(grid.shift_values(v, a), b)
    assert np.max(np.abs(twice - grid.shift_values(v, a + b))) <= 1e-12
    assert np.array_equal(grid.shift_values(v, 0.0), v)


def test_shift_accepts_a_vector_of_offsets(grid):
    v = _smooth_noise(grid, 2)
    offsets = np.array([0.0, 0.4, -1.1])
    block = grid.shift_values(v, offsets)
    assert block.shape == (3, grid.n)
    for row, s in zip(block, offsets):
        assert np.max(np.abs(row - grid.shift_values(v, float(s)))) <= 1e-13


def test_each_row_of_a_batched_shift_is_bitwise_its_scalar_shift(grid):
    # A nonzero offset: a zero scalar shift is the identity, not a round trip.
    v = _smooth_noise(grid, 3)
    offsets = np.concatenate(([0.4, -1.1, 1e-3],
                              np.random.default_rng(3).uniform(-5.0, 5.0, 13)))
    block = grid.shift_values(v, offsets)
    for row, s in zip(block, offsets):
        assert np.array_equal(row, grid.shift_values(v, float(s)))


def test_norms_of_the_constant_field(grid):
    v = np.ones(grid.n)
    assert grid.weak_norm_values(v) == pytest.approx(np.sqrt(40.0), rel=1e-14)
    assert grid.strong_norm_values(v) == pytest.approx(np.sqrt(40.0), rel=1e-14)


def test_strong_norm_adds_derivative_energy(grid):
    k = 2.0 * np.pi * 4.0 / 40.0
    v = np.sin(k * grid.x)
    assert grid.weak_norm_values(v) == pytest.approx(np.sqrt(20.0), rel=1e-13)
    assert grid.strong_norm_values(v) == pytest.approx(
        np.sqrt(20.0 * (1.0 + k**2)), rel=1e-13
    )


def test_distinct_modes_are_orthogonal(grid):
    k1 = 2.0 * np.pi * 3.0 / 40.0
    k2 = 2.0 * np.pi * 7.0 / 40.0
    inner = grid.inner_values(np.sin(k1 * grid.x), np.sin(k2 * grid.x))
    assert abs(inner) <= 1e-12


def test_batched_norms_match_per_row_norms(grid):
    rng = np.random.default_rng(3)
    block = rng.standard_normal((5, grid.n))
    weak = grid.weak_norm_values(block)
    strong = grid.strong_norm_values(block)
    assert weak.shape == (5,)
    for j in range(5):
        assert weak[j] == pytest.approx(grid.weak_norm_values(block[j]), rel=1e-14)
        assert strong[j] == pytest.approx(grid.strong_norm_values(block[j]), rel=1e-14)


def test_dense_second_derivative_symmetric_cached_consistent(grid):
    matrix = grid.dense_second_derivative()
    assert np.array_equal(matrix, matrix.T)
    assert grid.dense_second_derivative() is matrix
    v = _smooth_noise(grid, 4)
    assert np.max(np.abs(matrix @ v - grid.second_derivative_values(v))) <= 1e-10


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(14)
    with pytest.raises(ValueError):
        PeriodicGrid(129)


def test_field_validation(grid):
    with pytest.raises(ValueError):
        GridField(np.ones(10), grid)
    with pytest.raises(ValueError):
        GridField(np.full(grid.n, np.nan), grid)


def test_field_helpers(grid):
    k = 2.0 * np.pi * 2.0 / 40.0
    f = GridField(np.sin(k * grid.x), grid)
    assert f.n == grid.n
    assert f.weak_norm() == pytest.approx(np.sqrt(20.0), rel=1e-13)
    df = grid.first_derivative_values(f.values)
    assert np.max(np.abs(df - k * np.cos(k * grid.x))) <= 1e-12
    shifted = grid.shift_values(f.values, 0.6)
    assert np.max(np.abs(shifted - np.sin(k * (grid.x - 0.6)))) <= 1e-12
    clone = f.copy()
    clone.values[0] += 1.0
    assert f.values[0] != clone.values[0]


def test_field_inner_is_symmetric(grid):
    f = GridField(_smooth_noise(grid, 5), grid)
    g = GridField(_smooth_noise(grid, 6), grid)
    assert f.inner(g) == pytest.approx(g.inner(f), rel=1e-14)


def test_zero_field(grid):
    z = zero_field(grid)
    assert not np.any(z.values)
    assert z.weak_norm() == 0.0
