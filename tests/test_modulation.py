"""Modulation system: exact vanishing, formulas, Lipschitz bounds, decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiaflow.errors import BallViolationError, ConvergenceError
from adiaflow.grid import GridField, smooth_noise, zero_field
from adiaflow.model import PulseModel
from adiaflow.modulation import (
    decompose_state,
    frame_coefficient,
    solve_modulation,
)


def _closed_form(grid, w, tangent, second):
    """<w^2, d f> / (1 - <w, d^2 f>) for one field, by explicit sums."""
    h = grid.spacing
    return h * np.sum(w * w * tangent) / (1.0 - h * np.sum(w * second))


def _remainder_rows(model, grid, seed, sizes):
    """Frame fields at random chart points and smooth remainders of the
    given strong sizes, one row each."""
    rng = np.random.default_rng(seed)
    sigmas = rng.uniform(-1.0, 1.0, len(sizes))
    rows = []
    for size in sizes:
        sm = smooth_noise(grid, rng, 3.0)
        rows.append(size * sm / grid.strong_norm_values(sm))
    tangent = np.array([model.family_tangent(s).values for s in sigmas])
    second = np.array([model.family_second(s).values for s in sigmas])
    return sigmas, np.array(rows), tangent, second


def test_coefficients_vanish_exactly_at_zero_remainder(model, grid):
    for sigma in (-1.5, 0.0, 0.4, 2.0):
        coeffs = solve_modulation(model, sigma, zero_field(grid))
        assert coeffs.a == 0.0
        assert coeffs.residual == 0.0


def test_frame_coefficient_matches_the_closed_form(model, grid):
    sigmas, w, tangent, second = _remainder_rows(
        model, grid, 6, [0.01, 0.05, 0.1, 0.3])
    expected = np.array([
        _closed_form(grid, w[j], tangent[j], second[j]) for j in range(len(w))
    ])
    batched = frame_coefficient(grid, w, tangent, second)
    assert batched.shape == (len(w),)
    assert np.allclose(batched, expected, rtol=1e-12, atol=0.0)
    for j in range(len(w)):
        single = frame_coefficient(grid, w[j], tangent[j], second[j])
        assert np.ndim(single) == 0
        assert single == batched[j]
        coeffs = solve_modulation(model, sigmas[j], GridField(w[j], grid))
        assert coeffs.a == single


def test_frame_coefficient_agrees_with_the_gradient_remainder_drive(model,
                                                                    grid):
    # The modulation drive is -<N(sigma, w), d f> with N the gradient
    # remainder, which is -w^2 up to the cancellation of order-one G' terms.
    sizes = [1e-2, 3e-2, 0.1, 0.3]
    sigmas, w, tangent, second = _remainder_rows(model, grid, 8, sizes)
    a = frame_coefficient(grid, w, tangent, second)
    for j, s in enumerate(sigmas):
        remainder = model.nonlinearity(s, GridField(w[j], grid))
        drive = -grid.inner_values(remainder.values, tangent[j])
        old = drive / (1.0 - grid.inner_values(w[j], second[j]))
        assert a[j] == pytest.approx(old, rel=1e-10)


def test_solve_satisfies_the_affine_system(model, grid):
    rng = np.random.default_rng(7)
    sm = smooth_noise(grid, rng, 3.0)
    w = GridField(0.08 * sm / grid.strong_norm_values(sm), grid)
    sigma = -0.6
    coeffs = solve_modulation(model, sigma, w)
    coupling = grid.inner_values(w.values, model.family_second(sigma).values)
    drive = grid.inner_values(w.values**2, model.family_tangent(sigma).values)
    assert (1.0 - coupling) * coeffs.a - drive == pytest.approx(0.0, abs=1e-14)
    assert coeffs.residual <= 1e-14


def test_solve_rejects_a_remainder_outside_the_ball(model, grid):
    rng = np.random.default_rng(13)
    sm = smooth_noise(grid, rng, 3.0)
    unit = sm / grid.strong_norm_values(sm)
    inside = GridField(0.99 * model.delta_ball * unit, grid)
    solve_modulation(model, 0.0, inside)
    outside = GridField(1.01 * model.delta_ball * unit, grid)
    with pytest.raises(BallViolationError):
        solve_modulation(model, 0.0, outside)


def test_near_singular_coupling_raises(grid):
    loose = PulseModel(grid, 5.0, 10.0)
    second = loose.family_second(0.0)
    scale = 0.95 / grid.inner_values(second.values, second.values)
    with pytest.raises(ConvergenceError):
        solve_modulation(loose, 0.0, GridField(scale * second.values, grid))


def test_coefficient_is_small_on_the_remainder_ball(model, grid):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        sm = smooth_noise(grid, rng, 3.0)
        size = rng.uniform(0.05, 0.4)
        w_vals = size * sm / grid.strong_norm_values(sm)
        coeffs = solve_modulation(model, 0.0, GridField(w_vals, grid))
        worst = max(worst, abs(coeffs.a) / grid.strong_norm_values(w_vals))
    assert worst <= 0.01


def test_nonlinearity_difference_is_lipschitz_on_the_ball(model, grid):
    rng = np.random.default_rng(9)
    delta = 0.05
    worst = 0.0
    for _ in range(20):
        s_a, s_b = rng.uniform(-0.5, 0.5, 2)
        pair = []
        for _ in range(2):
            sm = smooth_noise(grid, rng, 3.0)
            size = rng.uniform(0.2, 1.0) * delta
            pair.append(size * sm / grid.strong_norm_values(sm))
        n_a = model.nonlinearity(s_a, GridField(pair[0], grid))
        n_b = model.nonlinearity(s_b, GridField(pair[1], grid))
        gap = grid.weak_norm_values(n_a.values - n_b.values)
        budget = delta * (abs(s_a - s_b) + grid.strong_norm_values(pair[0] - pair[1]))
        worst = max(worst, gap / budget)
    assert worst <= 0.5


def test_decompose_recovers_a_family_point(model, grid):
    state = GridField(model.family(0.3).values.copy(), grid)
    sigma, w = decompose_state(model, state, 0.1)
    assert sigma == pytest.approx(0.3, abs=1e-9)
    assert w.weak_norm() <= 1e-9


def test_decompose_output_is_orthogonal_and_exact(model, grid):
    rng = np.random.default_rng(12)
    sm = smooth_noise(grid, rng, 3.0)
    state_vals = (
        model.family(0.42).values
        + 0.03 * sm / grid.strong_norm_values(sm)
    )
    sigma, w = decompose_state(model, GridField(state_vals.copy(), grid), 0.3)
    tangent = model.family_tangent(sigma)
    assert abs(w.inner(tangent)) <= 1e-12
    # Reassembly is exact to one rounding of the subtraction that defined w.
    assert np.max(np.abs(
        state_vals - (model.family(sigma).values + w.values)
    )) <= 1e-15
    assert abs(sigma - 0.42) <= 0.05


@settings(max_examples=15, deadline=None)
@given(sigma=st.floats(min_value=-1.0, max_value=1.0),
       guess_offset=st.floats(min_value=-0.2, max_value=0.2),
       size=st.floats(min_value=0.0, max_value=0.05),
       seed=st.integers(0, 2**32 - 1))
def test_decompose_inverts_a_family_point_plus_an_orthogonal_remainder(
        model, grid, sigma, guess_offset, size, seed):
    tangent = model.family_tangent(sigma).values
    sm = smooth_noise(grid, np.random.default_rng(seed), 3.0)
    sm -= grid.inner_values(sm, tangent) * tangent
    w = size * sm / grid.strong_norm_values(sm)
    state = GridField(model.family(sigma).values + w, grid)
    found, remainder = decompose_state(model, state, sigma + guess_offset)
    assert abs(found - sigma) <= 1e-11
    assert np.max(np.abs(remainder.values - w)) <= 1e-11


def test_decompose_of_an_even_perturbation_keeps_the_chart_point(model, grid,
                                                                 spectrum):
    e_s = spectrum.eigenvectors[:, spectrum.stable_indices[0]]
    state = GridField(model.profile.values + 1e-3 * e_s, grid)
    sigma, w = decompose_state(model, state, 0.0)
    assert sigma == 0.0
    tangent = model.family_tangent(sigma)
    assert abs(w.inner(tangent)) <= 1e-12


def test_leaving_the_chart_is_a_convergence_error(model, grid):
    # From the chart origin, the first damped Newton trial step for this
    # state lands at sigma = -6.26, outside the chart of radius 5.
    far = model.profile.values + 5.0 * np.exp(-(grid.x - 3.0) ** 2)
    with pytest.raises(ConvergenceError, match="leaves the chart"):
        decompose_state(model, GridField(far, grid), 0.0)
    for guess in (7.0, float("nan")):
        with pytest.raises(ConvergenceError, match="leaves the chart"):
            decompose_state(model, model.profile, guess)


def test_decompose_without_budget_raises(model, grid):
    state = GridField(model.family(2.0).values.copy(), grid)
    with pytest.raises(ConvergenceError):
        decompose_state(model, state, 0.0, max_iter=0)
