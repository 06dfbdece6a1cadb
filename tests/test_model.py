"""Equilibrium pulse, energy, linearization, and the family frame."""

import numpy as np
import pytest

from adiaflow.errors import BallViolationError
from adiaflow.grid import GridField, PeriodicGrid, smooth_noise
from adiaflow.model import PulseModel


def _smooth_noise(grid, seed):
    return smooth_noise(grid, np.random.default_rng(seed), 3.0)


def test_profile_closed_form(grid, model):
    expected = 1.5 / np.cosh(grid.x / 2.0) ** 2
    assert np.max(np.abs(model.profile.values - expected)) <= 1e-14


def test_profile_solves_the_stationary_equation(grid, model):
    # The residual is dominated by the exponential tail wrapping at the
    # domain seam (~ sech^2(L/2) curvature), not by the differentiation.
    phi = model.profile.values
    second = grid.second_derivative_values(phi)
    assert np.max(np.abs(second - (phi - phi**2))) <= 2e-6


def test_stationarity_defect(model):
    defect = model.gradient(model.profile).weak_norm()
    assert defect <= 1e-6
    assert defect == pytest.approx(9.041317062765391e-08, rel=1e-6)


def test_energy_at_the_pulse(model):
    assert model.energy(model.profile) == pytest.approx(1.2, abs=1e-12)


def test_energy_stable_under_grid_refinement():
    fine = PulseModel(PeriodicGrid(2048))
    assert fine.energy(fine.profile) == pytest.approx(1.2, abs=1e-12)


def test_potential_closed_values():
    u = np.array([2.0])
    assert PulseModel.potential(u)[0] == pytest.approx(-2.0 / 3.0, rel=1e-14)
    assert PulseModel.potential_derivative(u)[0] == pytest.approx(-2.0, rel=1e-14)
    assert PulseModel.potential_second_derivative(u)[0] == pytest.approx(-3.0, rel=1e-14)


def test_potential_derivatives_consistent():
    u = np.linspace(-1.0, 2.0, 7)
    h = 1e-6
    first = (PulseModel.potential(u + h) - PulseModel.potential(u - h)) / (2 * h)
    assert np.max(np.abs(first - PulseModel.potential_derivative(u))) <= 1e-8
    second = (
        PulseModel.potential_derivative(u + h)
        - PulseModel.potential_derivative(u - h)
    ) / (2 * h)
    assert np.max(np.abs(second - PulseModel.potential_second_derivative(u))) <= 1e-8


def test_gradient_formula(grid, model):
    u_vals = _smooth_noise(grid, 4)
    expected = -grid.second_derivative_values(u_vals) + u_vals - u_vals**2
    out = model.gradient(GridField(u_vals.copy(), grid)).values
    assert np.max(np.abs(out - expected)) <= 1e-10


def test_linearized_apply_formula(grid, model):
    v_vals = _smooth_noise(grid, 5)
    out = model.linearized_apply(0.0, GridField(v_vals.copy(), grid)).values
    well = 1.0 - 2.0 * model.profile.values
    expected = -grid.second_derivative_values(v_vals) + well * v_vals
    assert np.max(np.abs(out - expected)) <= 1e-10


def test_linearized_apply_follows_the_base_point(grid, model):
    sigma = 1.1
    v_vals = np.exp(-0.5 * (grid.x - 1.1) ** 2)
    out = model.linearized_apply(sigma, GridField(v_vals.copy(), grid)).values
    well = 1.0 - 2.0 * model.family(sigma).values
    expected = -grid.second_derivative_values(v_vals) + well * v_vals
    assert np.max(np.abs(out - expected)) <= 1e-10


def test_nonlinearity_is_exactly_minus_w_squared(grid, model):
    sm = _smooth_noise(grid, 6)
    w_vals = 0.05 * sm / grid.strong_norm_values(sm)
    out = model.nonlinearity(0.8, GridField(w_vals, grid))
    assert np.max(np.abs(out.values + w_vals**2)) <= 1e-12


def test_nonlinearity_enforces_the_remainder_ball(grid, model):
    v = np.ones(grid.n)
    big = GridField(0.6 * v / grid.strong_norm_values(v), grid)
    with pytest.raises(BallViolationError):
        model.nonlinearity(0.0, big)


def test_family_is_the_shifted_profile(grid, model):
    sigma = 0.7
    shifted = grid.shift_values(model.profile.values, 0.7)
    assert np.array_equal(model.family(sigma).values, shifted)
    naked = 1.5 / np.cosh((grid.x - 0.7) / 2.0) ** 2
    assert np.max(np.abs(model.family(sigma).values - naked)) <= 1e-7


def test_frame_at_the_origin_is_the_exact_base_fields(grid, model):
    sech2 = 1.0 / np.cosh(grid.x / 2.0) ** 2
    pulse = 1.5 * sech2
    expected = np.stack([
        pulse,
        -model.xi * (-1.5 * sech2 * np.tanh(grid.x / 2.0)),
        (model.xi**2) * (pulse - pulse**2),
    ])
    assert np.array_equal(model.frame(0.0), expected)
    assert np.array_equal(model.frame(0.0)[0], model.profile.values)


@pytest.mark.parametrize("sigma", [0.7, -1.3, 4.9, 1e-9])
def test_frame_rows_are_the_shifted_base_fields(grid, model, sigma):
    for row, base in zip(model.frame(sigma), model.frame(0.0)):
        assert np.array_equal(row, grid.shift_values(base, sigma))
    assert np.array_equal(model.family(sigma).values, model.frame(sigma)[0])


def test_family_tangent_is_the_unit_chart_derivative(grid, model):
    h = 1e-5
    s = 0.4
    numerical = (model.family(s + h).values - model.family(s - h).values) \
        / (2 * h)
    tangent = model.frame(s)[1]
    assert np.max(np.abs(model.xi * numerical - tangent)) <= 1e-7
    for sigma in (0.0, -1.3, 2.1):
        unit = model.frame(sigma)[1]
        assert grid.weak_norm_values(unit) == pytest.approx(1.0, abs=1e-12)


def test_family_second_matches_the_constraint_slope(grid, model):
    # d/ds <u - f(s), tangent(s)> must equal (<w, second(s)> - 1) / xi,
    # the slope the state decomposition's Newton iteration relies on.
    s = 0.3
    sm = _smooth_noise(grid, 7)
    u_vals = model.family(s).values + 0.03 * sm / grid.strong_norm_values(sm)

    def constraint(sigma):
        return grid.inner_values(
            u_vals - model.family(sigma).values,
            model.frame(sigma)[1],
        )

    h = 1e-5
    numerical = (constraint(s + h) - constraint(s - h)) / (2 * h)
    w_vals = u_vals - model.family(s).values
    overlap = grid.inner_values(w_vals, model.frame(s)[2])
    assert numerical == pytest.approx((overlap - 1.0) / model.xi, rel=1e-6)


def test_trivialized_velocity_scales_by_xi(model):
    assert model.c_h == model.xi


def test_xi_closed_form(model):
    assert model.xi == pytest.approx(np.sqrt(5.0 / 6.0), abs=1e-14)
    grid = model.grid
    slope = grid.first_derivative_values(model.profile.values)
    assert model.xi == pytest.approx(1.0 / grid.weak_norm_values(slope),
                                     rel=1e-10)


def test_family_bound(model):
    assert model.family_bound() == pytest.approx(5.187817523750103, rel=1e-9)
    assert model.family_bound([0.0]) >= 1.0


def test_max_profile_slope(model):
    assert model.max_profile_slope() == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-4)


def test_the_translated_profile_reaches_the_max_slope_between_samples(model):
    # The samples under-read sup |phi'|; the family's Fourier translates of
    # the profile, here on 65 shifts across one grid spacing, reach it.
    grid = model.grid
    sampled = np.max(np.abs(
        grid.first_derivative_values(model.profile.values)))
    shifts = np.linspace(0.0, grid.spacing, 65)
    reached = max(np.max(np.abs(model.frame(s)[1])) for s in shifts) / model.xi
    assert sampled < model.max_profile_slope()
    assert reached == pytest.approx(model.max_profile_slope(), abs=1e-6)
    assert reached <= model.max_profile_slope() + 1e-12
