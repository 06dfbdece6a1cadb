"""Periodic grid: spectral calculus, shifts, norms, and validation."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adiaflow.config import ModelSection
from adiaflow.grid import GridField, PeriodicGrid, zero_field
from adiaflow.model import PulseModel
from adiaflow.spectral import assemble_operator


def _smooth_noise(grid, seed, width=4.0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(grid.n)
    window = np.exp(-((grid.wavenumbers / width) ** 2))
    return np.fft.irfft(np.fft.rfft(raw) * window, grid.n)


def _band_limited_noise(grid, seed):
    """``_smooth_noise`` without its Nyquist coefficient: a field that
    ``shift_values`` translates exactly."""
    vhat = np.fft.rfft(_smooth_noise(grid, seed))
    vhat[-1] = 0.0
    return np.fft.irfft(vhat, grid.n)


def test_points_and_spacing(grid):
    assert grid.spacing == pytest.approx(40.0 / grid.n, rel=1e-15)
    assert grid.x[0] == -20.0
    assert grid.x[-1] == pytest.approx(20.0 - grid.spacing, rel=1e-15)
    assert np.all(np.diff(grid.x) > 0)


def test_the_default_points_are_minus_l_plus_h_j(grid):
    assert np.array_equal(grid.x.view(np.uint64),
                          (-20.0 + 0.15625 * np.arange(256)).view(np.uint64))


EVEN_SIZES = st.integers(8, 2048).map(lambda half: 2 * half)
HALF_LENGTHS = st.sampled_from([1.0, 5.0, 12.5, 20.0, 31.7, 64.0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=EVEN_SIZES, half_length=HALF_LENGTHS)
def test_the_points_are_centred_on_the_origin(n, half_length):
    # The reflection x -> -x is the index map j -> -j mod n.  Bitwise but
    # for x_0 = -L, which x_L would mirror, and the origin, whose negation
    # is -0.0.
    x = PeriodicGrid(n, half_length).x
    mirror = -np.arange(n) % n
    off = np.arange(n) % (n // 2) != 0
    assert np.array_equal(x[mirror][off].view(np.uint64),
                          (-x[off]).view(np.uint64))
    assert x[n // 2].view(np.uint64) == 0


@settings(max_examples=12, deadline=None, derandomize=True)
@given(n=EVEN_SIZES, half_length=HALF_LENGTHS)
@example(n=4096, half_length=20.0)
@example(n=192, half_length=20.0)
@example(n=240, half_length=20.0)
def test_the_operator_at_the_origin_is_even(n, half_length):
    # The pulse at sigma = 0 is even on the centred grid, so the operator
    # equals its reflection R A R, bitwise: A flipped in both axes and
    # rolled by one point, as j -> -j mod n is n - 1 - j shifted by one.
    matrix = assemble_operator(PulseModel(PeriodicGrid(n, half_length)), 0.0)
    mirrored = np.roll(matrix[::-1, ::-1], 1, (0, 1))
    assert np.array_equal(mirrored.view(np.uint64), matrix.view(np.uint64))


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
    v = _band_limited_noise(grid, seed)
    twice = grid.shift_values(grid.shift_values(v, a), b)
    assert np.max(np.abs(twice - grid.shift_values(v, a + b))) <= 1e-12
    assert np.array_equal(grid.shift_values(v, 0.0), v)


def test_shifts_of_nyquist_content_compose_as_the_cosine_convention_says(
        grid):
    # Each shift scales the Nyquist coefficient c by cos(k_N s), so two
    # shifts leave c cos(k_N a) cos(k_N b) where one leaves c cos(k_N (a+b)):
    # the composition is off by (c / n) sin(k_N a) sin(k_N b) (-1)^j.
    alternating = np.cos(np.pi * np.arange(grid.n))
    v = _smooth_noise(grid, 9) + 0.5 * alternating
    c = np.fft.rfft(v)[-1].real
    k = grid.wavenumbers[-1]
    offsets = [(0.37, 0.37), (-1.3, 2.2), (0.0, 1.1),
               *np.random.default_rng(9).uniform(-5.0, 5.0, (16, 2))]
    errors = []
    for a, b in offsets:
        error = (grid.shift_values(grid.shift_values(v, a), b)
                 - grid.shift_values(v, a + b))
        predicted = c / grid.n * np.sin(k * a) * np.sin(k * b) * alternating
        assert np.max(np.abs(error - predicted)) <= 1e-12
        errors.append(np.max(np.abs(error)))
    assert errors[0] > 0.1 and errors[2] == 0.0


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


@pytest.mark.parametrize("n", [16, 192, 512, 1024, 1536])
def test_parseval_strong_norm_matches_the_derivative_formula(
        n, derivative_strong_norm):
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(n)
    smooth = np.stack([_smooth_noise(grid, seed) for seed in range(276)])
    rough = rng.standard_normal((276, n))
    for stack in (smooth, rough, smooth + rough[::-1]):
        norms = grid.strong_norm_values(stack)
        assert norms.shape == (276,)
        assert np.max(np.abs(norms / derivative_strong_norm(grid, stack) - 1.0)) \
            <= 1e-14
        for row in stack[::55]:
            assert grid.strong_norm_values(row) == pytest.approx(
                derivative_strong_norm(grid, row), rel=1e-14, abs=0.0)
    # The Nyquist mode carries no derivative: its strong norm is its weak one.
    nyquist = np.cos(np.pi * np.arange(n))
    assert grid.strong_norm_values(nyquist) == pytest.approx(
        grid.weak_norm_values(nyquist), rel=1e-14, abs=0.0)
    assert grid.strong_norm_values(nyquist) == pytest.approx(
        derivative_strong_norm(grid, nyquist), rel=1e-14, abs=0.0)
    constant = np.full(n, 0.3)
    assert grid.strong_norm_values(constant) == pytest.approx(
        derivative_strong_norm(grid, constant), rel=1e-14, abs=0.0)
    assert grid.strong_norm_values(np.zeros(n)) == 0.0


def test_parseval_weights_are_the_grids_own_and_read_only(grid):
    weak, strong = grid.parseval_weights()
    assert grid.parseval_weights()[0] is weak
    assert weak.shape == strong.shape == (grid.n + 2,)
    assert not weak.flags.writeable and not strong.flags.writeable
    v = _smooth_noise(grid, 8)
    parts = np.fft.rfft(v).view(np.float64)
    assert np.sqrt(parts @ (weak * parts)) == pytest.approx(
        grid.weak_norm_values(v), rel=1e-14)


def _exp_phases(grid, s):
    """The phase table as the complex exponential, Nyquist column cos(k s)."""
    s_arr = np.asarray(s, dtype=float)
    phase = np.exp(-1j * grid.wavenumbers * s_arr[..., None])
    phase[..., -1] = np.cos(grid.wavenumbers[-1] * s_arr)
    return phase


def test_phase_table_is_bitwise_the_complex_exponential(grid):
    radius = ModelSection().chart_radius
    rng = np.random.default_rng(11)
    path = np.cumsum(rng.normal(0.0, 1e-3, 276))
    for s in (0.0, -0.0, 0.37, -1.3, 1e-3, 5e-324, radius, -radius,
              np.nextafter(radius, 0.0), path, rng.uniform(-radius, radius, 276)):
        table = grid.shift_phases(s)
        assert table.shape == np.shape(s) + (grid.n // 2 + 1,)
        assert np.array_equal(table.view(np.uint64),
                              _exp_phases(grid, s).view(np.uint64))


def test_a_phase_table_formed_in_buffers_is_bitwise_the_table(grid):
    # One set of buffers serves shift after shift, as the chart solve uses
    # it; each table it returns is the allocated table of its shift.
    radius = ModelSection().chart_radius
    buffers = grid.phase_buffers()
    shifts = (0.0, -0.0, 0.37, -1.3, 1e-3, 5e-324, radius, -radius,
              *np.random.default_rng(12).uniform(-radius, radius, 20))
    for s in shifts:
        table = grid.shift_phases(s, buffers)
        assert table is buffers[1]
        assert np.array_equal(table.view(np.uint64),
                              grid.shift_phases(s).view(np.uint64))


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


@pytest.mark.parametrize("n", [16, 512, 1024])
def test_dense_second_derivative_is_bitwise_scipys_circulant(n):
    grid = PeriodicGrid(n)
    e0 = np.zeros(n)
    e0[0] = 1.0
    col = grid.second_derivative_values(e0)
    col = 0.5 * (col + col[(n - np.arange(n)) % n])
    assert np.array_equal(grid.dense_second_derivative(),
                          scipy.linalg.circulant(col))


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
