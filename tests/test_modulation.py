"""Modulation system: exact vanishing, formulas, Lipschitz bounds, decomposition."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adiaflow import modulation
from adiaflow.errors import BallViolationError, ConvergenceError
from adiaflow.grid import GridField, PeriodicGrid, smooth_noise, zero_field
from adiaflow.model import PulseModel
from adiaflow.modulation import (
    decompose_state,
    decompose_states,
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
    tangent = np.array([model.frame(s)[1] for s in sigmas])
    second = np.array([model.frame(s)[2] for s in sigmas])
    return sigmas, np.array(rows), tangent, second


def test_coefficients_vanish_exactly_at_zero_remainder(model, grid):
    for sigma in (-1.5, 0.0, 0.4, 2.0):
        assert solve_modulation(model, sigma, zero_field(grid)) == 0.0


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
        assert solve_modulation(model, sigmas[j],
                                GridField(w[j], grid)) == single


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
    a = solve_modulation(model, sigma, w)
    coupling = grid.inner_values(w.values, model.frame(sigma)[2])
    drive = grid.inner_values(w.values**2, model.frame(sigma)[1])
    assert (1.0 - coupling) * a - drive == pytest.approx(0.0, abs=1e-14)


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
    second = loose.frame(0.0)[2]
    scale = 0.95 / grid.inner_values(second, second)
    with pytest.raises(ConvergenceError):
        solve_modulation(loose, 0.0, GridField(scale * second, grid))


def test_coefficient_is_small_on_the_remainder_ball(model, grid):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        sm = smooth_noise(grid, rng, 3.0)
        size = rng.uniform(0.05, 0.4)
        w_vals = size * sm / grid.strong_norm_values(sm)
        a = solve_modulation(model, 0.0, GridField(w_vals, grid))
        worst = max(worst, abs(a) / grid.strong_norm_values(w_vals))
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
    assert abs(w.inner(model.frame(sigma)[1])) <= 1e-12
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
    tangent = model.frame(sigma)[1]
    sm = smooth_noise(grid, np.random.default_rng(seed), 3.0)
    sm -= grid.inner_values(sm, tangent) * tangent
    w = size * sm / grid.strong_norm_values(sm)
    state = GridField(model.family(sigma).values + w, grid)
    found, remainder = decompose_state(model, state, sigma + guess_offset)
    assert abs(found - sigma) <= 1e-11
    assert np.max(np.abs(remainder.values - w)) <= 1e-11


def assert_the_grid_space_solve(model, grid, states, sigmas, remainders,
                                guess, oracle):
    """Each (sigma, w) of a chain of chart solves is the grid-space
    solve's from the same guess to 1e-14 in sigma, and its remainder is
    orthogonal to the tangent in grid space to 1e-12."""
    for values, sigma, w in zip(states, sigmas, remainders):
        theirs, _ = oracle(model, values, guess)
        assert abs(sigma - theirs) <= 1e-14
        assert abs(grid.inner_values(w, model.frame(sigma)[1])) <= 1e-12
        guess = sigma


@pytest.mark.parametrize("offset", [1e-3, -1e-3])
def test_the_chart_solve_is_the_grid_space_solve_on_witness_solves(
        model, grid, point_bump, witness_solves, grid_space_decompose,
        offset):
    from adiaflow.reference import extract_modulated

    traj = witness_solves[offset]
    extracted = extract_modulated(model, traj, point_bump.sigma0)
    assert extracted.n_samples == traj.n_samples
    assert_the_grid_space_solve(model, grid, traj.u_samples, extracted.sigma,
                                extracted.w, point_bump.sigma0,
                                grid_space_decompose)


def test_the_chart_solve_is_the_grid_space_solve_on_the_comparison_solve(
        model, grid, point_bump, traj_bump, extracted_bump,
        grid_space_decompose):
    assert extracted_bump.n_samples == traj_bump.n_samples
    assert_the_grid_space_solve(model, grid, traj_bump.u_samples,
                                extracted_bump.sigma, extracted_bump.w,
                                point_bump.sigma0, grid_space_decompose)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(sigma=st.floats(min_value=-4.0, max_value=4.0),
       guess_offset=st.floats(min_value=-0.3, max_value=0.3),
       size=st.floats(min_value=0.0, max_value=0.2),
       cutoff=st.floats(min_value=1.0, max_value=6.0),
       seed=st.integers(0, 2**32 - 1))
@example(sigma=0.0, guess_offset=0.0, size=0.0, cutoff=3.0, seed=0)
def test_the_chart_solve_is_the_grid_space_solve_on_drawn_states(
        model, grid, grid_space_decompose, sigma, guess_offset, size, cutoff,
        seed):
    # A translated pulse plus smooth noise of strong norm up to 0.2, with
    # no part of it removed along the tangent.  The pulse itself at the
    # chart origin gives sigma = 0 and w = 0 exactly.
    noise = smooth_noise(grid, np.random.default_rng(seed), cutoff)
    values = model.family(sigma).values \
        + size * noise / grid.strong_norm_values(noise)
    found, w = decompose_state(model, GridField(values, grid),
                               sigma + guess_offset)
    assert_the_grid_space_solve(model, grid, [values], [found], [w.values],
                                sigma + guess_offset, grid_space_decompose)
    assert np.array_equal(w.values, values - model.family(found).values)


def test_decompose_translates_the_frame_once_per_constraint_evaluation(
        model, grid, count_transforms, monkeypatch):
    rng = np.random.default_rng(12)
    sm = smooth_noise(grid, rng, 3.0)
    state = GridField(model.family(0.42).values
                      + 0.03 * sm / grid.strong_norm_values(sm), grid)
    expected = decompose_state(model, state, 0.3)

    transforms = count_transforms()
    points = []
    constraint = modulation._constraint

    def recorded(model, weighted, s, trials):
        points.append(s)
        return constraint(model, weighted, s, trials)

    monkeypatch.setattr(modulation, "_constraint", recorded)
    shifts = []
    shift_phases = PeriodicGrid.shift_phases

    def translated(self, s, *out):
        shifts.append(s)
        return shift_phases(self, s, *out)

    monkeypatch.setattr(PeriodicGrid, "shift_phases", translated)
    sigma, w = decompose_state(model, state, 0.3)
    assert sigma == expected[0]
    assert np.array_equal(w.values, expected[1].values)
    assert len(points) >= 3
    # Each constraint evaluation translates the frame's spectrum by one
    # phase table, and the family point takes the table of the last, the
    # accepted chart point's; the state's rfft and the family point's
    # irfft are the only transforms.
    assert shifts == points
    assert transforms == {"r2c": 1, "c2r": 1}


def test_a_table_held_at_plus_zero_serves_a_trial_at_minus_zero(model, grid):
    # k (-0.0) is -0.0 on every mode, and cos and 0.0 - sin of it give
    # the table of +0.0 bit for bit, so a trial at -0.0 may reuse it.
    assert np.array_equal(grid.shift_phases(-0.0).view(np.uint64),
                          grid.shift_phases(0.0).view(np.uint64))
    noise = smooth_noise(grid, np.random.default_rng(3), 3.0)
    weighted = grid.rfft(model.family(0.2).values + 0.01 * noise).view(
        np.float64) * grid.parseval_weights()[0]
    held = modulation._trial_buffers(model)
    modulation._constraint(model, weighted, 0.0, held)
    table = held[0][1].copy()
    reused = modulation._constraint(model, weighted, -0.0, held)
    assert np.copysign(1.0, held[-1]) == 1.0
    fresh = modulation._trial_buffers(model)
    assert reused == modulation._constraint(model, weighted, -0.0, fresh)
    assert np.array_equal(held[0][1].view(np.uint64), table.view(np.uint64))
    assert np.array_equal(held[2].view(np.uint64), fresh[2].view(np.uint64))
    # Chained from a root at +0.0, a state from a guess of -0.0 gives the
    # bits of a solve that formed its own first table.
    even = model.profile.values + 1e-3 * np.cos(grid.x) * model.profile.values
    later = model.family(0.3).values + 0.01 * noise
    (zero, _), (from_zero, w) = decompose_states(model, [even, later], 0.0)
    assert zero == 0.0
    alone, w_alone = decompose_state(model, GridField(later, grid), -0.0)
    assert from_zero == alone and np.array_equal(w, w_alone.values)


def test_an_extraction_forms_one_table_per_new_chart_point(
        model, point_bump, witness_solves, monkeypatch):
    # E constraint evaluations over m samples: every sample's warm start
    # after the first reuses the table its predecessor ended on, and the
    # family points take those tables, so E - (m - 1) one-point tables and
    # no m-row table.
    states = witness_solves[1e-3].u_samples
    points = []
    constraint = modulation._constraint

    def recorded(model, weighted, s, trials):
        points.append(s)
        return constraint(model, weighted, s, trials)

    monkeypatch.setattr(modulation, "_constraint", recorded)
    shapes = []
    shift_phases = PeriodicGrid.shift_phases

    def translated(self, s, *out):
        shapes.append(np.shape(s))
        return shift_phases(self, s, *out)

    monkeypatch.setattr(PeriodicGrid, "shift_phases", translated)
    m = len(list(decompose_states(model, states, point_bump.sigma0)))
    assert m == len(states) > 100
    assert len(points) > m
    assert shapes == [()] * (len(points) - (m - 1))


def test_decompose_of_an_even_perturbation_keeps_the_chart_point(model, grid,
                                                                 spectrum):
    e_s = spectrum.eigenvectors[:, spectrum.stable_indices[0]]
    state = GridField(model.profile.values + 1e-3 * e_s, grid)
    sigma, w = decompose_state(model, state, 0.0)
    assert sigma == 0.0
    assert abs(w.inner(model.frame(sigma)[1])) <= 1e-12


def test_leaving_the_chart_is_a_convergence_error(model, grid):
    # From the chart origin, the first damped Newton trial step for this
    # state lands at sigma = -6.26, outside the chart of radius 5.
    far = model.profile.values + 5.0 * np.exp(-(grid.x - 3.0) ** 2)
    with pytest.raises(ConvergenceError, match="leaves the chart"):
        decompose_state(model, GridField(far, grid), 0.0)
    for guess in (7.0, float("nan")):
        with pytest.raises(ConvergenceError, match="leaves the chart"):
            decompose_state(model, model.profile, guess)


def test_decompose_without_budget_raises(model, grid, monkeypatch):
    monkeypatch.setattr(modulation, "_DECOMPOSE_MAX_ITER", 0)
    state = GridField(model.family(2.0).values.copy(), grid)
    with pytest.raises(ConvergenceError):
        decompose_state(model, state, 0.0)
