"""Solution map: seed checks, backward correction, fixed points, scaling."""

import numpy as np
import pytest

from adiaflow import manifold
from adiaflow.errors import BallViolationError
from adiaflow.grid import GridField, PeriodicGrid, zero_field
from adiaflow.manifold import (
    ORTHOGONALITY_TOL,
    SolutionMapWorkspace,
    check_input_field,
    construct_manifold_point,
    correction_scan,
    default_speed_constant,
    forward_unstable_coefficient,
    measure_contraction,
    random_admissible_path,
    seed_path,
)
from adiaflow.paths import TrajectoryPath, path_distance
from adiaflow.presets import preset_field
from adiaflow.spectral import propagate_stable_batch

DELTA = 0.05
ALPHA = 1.0


def _orthogonality_along(model, grid, path, stride=1):
    worst = 0.0
    for j in range(0, path.n_samples, stride):
        tangent = model.frame(path.sigma[j])[1]
        worst = max(worst, abs(grid.inner_values(path.w[j], tangent)))
    return worst


def test_default_speed_constant(model):
    assert default_speed_constant(model) == model.c_h + 1.0


def test_input_field_screening(workspace, eta_bump, grid):
    check_input_field(workspace, eta_bump)
    assert ORTHOGONALITY_TOL == 1e-10
    contaminated = GridField(
        eta_bump.values + 1e-3 * workspace.unstable_mode, grid
    )
    with pytest.raises(ValueError):
        check_input_field(workspace, contaminated)
    tangent = workspace.model.frame(0.0)[1]
    tilted = GridField(eta_bump.values + 1e-3 * tangent, grid)
    with pytest.raises(ValueError):
        check_input_field(workspace, tilted)
    with pytest.raises(ValueError):
        construct_manifold_point(workspace, contaminated, delta=DELTA, alpha=ALPHA)


def test_the_seed_is_checked_once_before_the_first_round(
        workspace, eta_bump, grid, monkeypatch):
    checks = []
    screen = manifold.check_input_field
    monkeypatch.setattr(manifold, "check_input_field",
                        lambda *args: checks.append(screen(*args)))
    point = construct_manifold_point(workspace, eta_bump, delta=DELTA,
                                     alpha=ALPHA)
    assert point.iterations >= 3 and len(checks) == 1
    monkeypatch.setattr(SolutionMapWorkspace, "apply_raw",
                        lambda *args: pytest.fail("a Picard round ran"))
    with pytest.raises(BallViolationError, match="admissible seed size"):
        construct_manifold_point(workspace,
                                 GridField(2.0 * eta_bump.values, grid),
                                 delta=DELTA, alpha=ALPHA)


def test_seed_path_is_the_stable_semigroup(workspace, eta_bump, grid):
    path = seed_path(workspace, eta_bump)
    expected = propagate_stable_batch(workspace.spectrum, eta_bump, workspace.times)
    assert np.max(np.abs(path.w - expected)) <= 1e-12
    assert np.all(path.sigma == workspace.sigma0)


def test_map_on_the_trivial_path_is_the_semigroup(workspace, eta_bump, grid, model):
    m = workspace.n_samples
    result = workspace.apply_raw(eta_bump.values, np.zeros(m),
                                 np.zeros((m, grid.n)))
    expected = propagate_stable_batch(workspace.spectrum, eta_bump, workspace.times)
    assert np.max(grid.strong_norm_values(result.path.w - expected)) <= 1e-12
    assert result.correction == 0.0
    assert _orthogonality_along(model, grid, result.path, stride=10) <= 1e-12


def test_backward_integral_of_nothing_is_zero(workspace, grid):
    zero = zero_field(grid)
    seed = seed_path(workspace, zero)
    assert workspace.apply_raw(zero.values, seed.sigma, seed.w).correction == 0.0
    m = workspace.n_samples
    trivial = workspace.apply_raw(zero.values, np.zeros(m), np.zeros((m, grid.n)))
    assert trivial.correction == 0.0


def test_backward_integral_closed_form(workspace, spectrum, grid):
    # Trial remainder eps * exp(-t) * e_s with e_s the first stable mode: the
    # quadratic source is separable, so the correction integral evaluates to
    # -eps^2 <e_s^2, e_u> / (2 - lambda_u) up to quadrature error.
    eps = 0.01
    times = workspace.times
    e_s = spectrum.eigenvectors[:, spectrum.stable_indices[0]]
    trial = TrajectoryPath(
        times=times.copy(),
        sigma=np.zeros(len(times)),
        w=(eps * np.exp(-times))[:, None] * e_s[None, :],
        grid=grid,
    )
    value = workspace.apply_raw(np.zeros(grid.n), trial.sigma,
                                trial.w).correction
    closed = (
        -eps**2
        * grid.inner_values(e_s**2, spectrum.unstable_mode)
        / (2.0 - spectrum.unstable_eigenvalue)
    )
    assert value == pytest.approx(closed, rel=1e-3)
    assert value == pytest.approx(-4.1701284730854355e-06, rel=1e-9)


def test_fixed_point_of_the_solution_map(workspace, eta_bump, point_bump, model,
                                         grid):
    assert point_bump.iterations <= 6
    distances = np.asarray(point_bump.distances)
    assert np.all(np.diff(distances) < 0)
    assert distances[-1] <= 1e-10
    ratios = np.asarray(point_bump.contraction_ratios)
    assert np.all((ratios > 0) & (ratios <= 0.6))
    assert point_bump.correction == pytest.approx(-4.308404660403006e-05, rel=1e-6)
    assert point_bump.tail_bound >= 0.0

    speed = default_speed_constant(model)
    replay = workspace.apply_raw(eta_bump.values, point_bump.path.sigma,
                                 point_bump.path.w)
    replay.path.check_admissible(DELTA, ALPHA, speed)
    assert path_distance(replay.path, point_bump.path, ALPHA, speed) <= 1e-12
    assert replay.correction == pytest.approx(point_bump.correction, abs=1e-12)
    assert _orthogonality_along(model, grid, point_bump.path, stride=10) <= 1e-12


def test_initial_state_decomposition(workspace, point_bump, model, grid):
    base = model.family(workspace.spectrum.base_point).values
    remainder = point_bump.initial_state.values - base
    unstable_part = grid.inner_values(remainder, workspace.unstable_mode)
    assert unstable_part == pytest.approx(point_bump.correction, abs=1e-12)
    tangent = model.frame(workspace.spectrum.base_point)[1]
    assert abs(grid.inner_values(remainder, tangent)) <= 1e-12
    assert grid.strong_norm_values(point_bump.path.w[0]) <= DELTA


def test_fixed_point_independent_of_the_starting_trial(workspace, eta_bump,
                                                       point_bump, model):
    speed = default_speed_constant(model)
    alternative = random_admissible_path(workspace, delta=DELTA, alpha=ALPHA,
                                         speed_constant=speed, seed=3)
    other = construct_manifold_point(
        workspace, eta_bump, delta=DELTA, alpha=ALPHA,
        fixed_point_tol=1e-10, max_iter=30, initial_path=alternative,
    )
    assert path_distance(other.path, point_bump.path, ALPHA, speed) <= 1e-12
    assert abs(other.correction - point_bump.correction) <= 1e-12


def test_zero_seed_gives_the_trivial_point(workspace, grid):
    point = construct_manifold_point(workspace, zero_field(grid),
                                     delta=DELTA, alpha=ALPHA,
                                     fixed_point_tol=1e-10, max_iter=30)
    assert point.correction == 0.0
    assert point.iterations == 1
    assert not np.any(point.path.w)
    assert np.all(point.path.sigma == workspace.sigma0)


def test_random_admissible_path_sits_inside_the_tube(workspace, model):
    speed = default_speed_constant(model)
    path = random_admissible_path(workspace, delta=DELTA, alpha=ALPHA,
                                  speed_constant=speed, seed=21)
    margins = path.admissibility_margins(DELTA, ALPHA, speed)
    assert margins["w_margin"] == pytest.approx(0.9, rel=1e-9)
    assert margins["sigma_dot_margin"] <= 0.9 + 1e-9
    path.check_admissible(DELTA, ALPHA, speed)


def test_contraction_on_random_pairs(workspace):
    result = measure_contraction(
        workspace, delta=DELTA, alpha=ALPHA,
        speed_constant=default_speed_constant(workspace.model),
        n_pairs=2, seed=5)
    factors = result["factors"]
    assert factors.shape == (2,)
    assert np.all((factors > 0) & (factors <= 0.5))
    assert result["max"] == pytest.approx(np.max(factors), rel=1e-15)
    assert result["mean"] == pytest.approx(np.mean(factors), rel=1e-15)


def test_correction_scan_shrinks_quadratically(workspace, eta_bump, point_bump):
    scan = correction_scan(workspace, eta_bump, [0.04, 0.02], delta=DELTA)
    assert np.all(np.diff(scan["ratios"]) < 0)
    assert scan["corrections"][0] == pytest.approx(point_bump.correction, rel=1e-6)
    assert scan["loglog_slope"] == pytest.approx(2.0, abs=0.3)


def quadratic_coefficient(spectrum, unstable_mode, eta):
    """Closed-form beta_2 in beta(eps eta) = beta_2 eps^2 + O(eps^3).

    To second order the remainder is the stable flow sum_k c_k
    exp(-lambda_k t) e_k with c_k = <eta, e_k>, and the bounded unstable
    coefficient it drives through the quadratic term is
    beta_2 = -sum c_k c_l <e_k e_l, e_u> / (lambda_k + lambda_l + 5/4).
    """
    grid = spectrum.grid
    modes = spectrum.eigenvectors[:, spectrum.stable_indices]
    rates = spectrum.eigenvalues[spectrum.stable_indices]
    c = grid.inner_values(modes.T, eta.values)
    products = grid.spacing * (modes.T @ (unstable_mode[:, None] * modes))
    return -float(np.sum(np.outer(c, c) * products
                         / (rates[:, None] + rates[None, :] + 1.25)))


def test_correction_has_the_closed_form_quadratic_coefficient(
        workspace, spectrum, eta_bump):
    unit = GridField(eta_bump.values / eta_bump.strong_norm(), eta_bump.grid)
    beta2 = quadratic_coefficient(spectrum, workspace.unstable_mode, unit)
    scan = correction_scan(workspace, unit, [0.04, 0.02, 0.01], delta=DELTA)
    g = scan["corrections"] / scan["scales"] ** 2 - beta2
    # The remainder is cubic: g is linear in eps, so its differences halve
    # with eps (measured ratio 2.0086) ...
    assert (g[0] - g[1]) / (g[1] - g[2]) == pytest.approx(2.0, abs=0.1)
    # ... and g extrapolates to 0 at eps = 0, so beta / eps^2 tends to
    # beta_2 itself (measured -1.1e-5, 4.2e-4 of beta_2).
    assert abs(2.0 * g[2] - g[1]) <= 1e-3 * abs(beta2)


def test_correction_scan_needs_two_distinct_scales(workspace, eta_bump):
    for scales in ([0.02], [0.02, 0.02]):
        with pytest.raises(ValueError, match="two distinct scales"):
            correction_scan(workspace, eta_bump, scales, delta=DELTA)


def _count_phase_tables(monkeypatch):
    # Patched on the class: an instance attribute, which undoing a patch of
    # the session's shared grid would leave behind, shadows later patches.
    built = []
    shift_phases = PeriodicGrid.shift_phases

    def counting(self, s):
        built.append(s)
        return shift_phases(self, s)

    monkeypatch.setattr(PeriodicGrid, "shift_phases", counting)
    return built


def _assert_same_application(a, b):
    assert np.array_equal(a.path.sigma, b.path.sigma)
    assert np.array_equal(a.path.w, b.path.w)
    assert a.correction == b.correction
    assert np.array_equal(a.modulation, b.modulation)
    assert np.array_equal(a.unstable_source, b.unstable_source)


def test_carried_frame_reproduces_a_fresh_application(spectrum, eta_bump,
                                                      point_bump, monkeypatch):
    # The last Picard round leaves its output frame on the workspace, so
    # applying the map to the point's own path reuses it.
    carrying = SolutionMapWorkspace(spectrum)
    point = construct_manifold_point(carrying, eta_bump, delta=DELTA,
                                     initial_path=point_bump.path)
    built = _count_phase_tables(monkeypatch)
    hit = carrying.apply_raw(eta_bump.values, point.path.sigma, point.path.w)
    assert len(built) == 1
    missed = SolutionMapWorkspace(spectrum).apply_raw(
        eta_bump.values, point.path.sigma, point.path.w)
    _assert_same_application(hit, missed)


def test_a_path_changed_in_place_does_not_reuse_the_carried_frame(
        spectrum, eta_bump, point_bump, monkeypatch):
    carrying = SolutionMapWorkspace(spectrum)
    first = carrying.apply_raw(eta_bump.values, point_bump.path.sigma,
                               point_bump.path.w)
    sigma, w = first.path.sigma, first.path.w
    sigma += 0.05
    built = _count_phase_tables(monkeypatch)
    again = carrying.apply_raw(eta_bump.values, sigma, w)
    assert len(built) == 2
    fresh = SolutionMapWorkspace(spectrum).apply_raw(eta_bump.values, sigma, w)
    _assert_same_application(again, fresh)


def test_a_frozen_chart_translates_one_row_for_the_whole_mesh(
        spectrum, eta_bump, monkeypatch):
    # Picard's first round: the seed path holds the chart at the base
    # point, so its frame comes from one one-row table, which broadcasts
    # over the mesh; the output frame still takes one row per sample.
    seed = seed_path(SolutionMapWorkspace(spectrum), eta_bump)
    m = len(seed.sigma)
    built = _count_phase_tables(monkeypatch)
    one_row = SolutionMapWorkspace(spectrum).apply_raw(
        eta_bump.values, seed.sigma, seed.w)
    assert [np.shape(s) for s in built] == [(1,), (m,)]
    # A chart of +0.0 and -0.0 is frozen too: both tables are the same
    # bits.
    signed = np.where(np.arange(m) % 2 == 0, 0.0, -0.0)
    assert np.array_equal(seed.sigma, signed)
    built.clear()
    mixed = SolutionMapWorkspace(spectrum).apply_raw(eta_bump.values,
                                                     signed, seed.w)
    assert [np.shape(s) for s in built] == [(1,), (m,)]
    _assert_same_application(mixed, one_row)
    # A chart that starts at the base point and then moves is not frozen.
    moving = random_admissible_path(
        SolutionMapWorkspace(spectrum), delta=DELTA,
        speed_constant=default_speed_constant(spectrum.model))
    assert moving.sigma[0] == seed.sigma[0] != moving.sigma[1]
    built.clear()
    SolutionMapWorkspace(spectrum).apply_raw(eta_bump.values, moving.sigma,
                                             moving.w)
    assert [np.shape(s) for s in built] == [(m,), (m,)]
    # The same application from the full m-row table of the seed's chart,
    # m copies of that row.
    widen = PeriodicGrid.shift_phases
    monkeypatch.setattr(PeriodicGrid, "shift_phases", lambda self, s: widen(
        self, np.full(m, s[0]) if np.shape(s) == (1,) else s))
    built.clear()
    full = SolutionMapWorkspace(spectrum).apply_raw(
        eta_bump.values, seed.sigma, seed.w)
    assert [np.shape(s) for s in built] == [(m,), (m,)]
    _assert_same_application(one_row, full)


def test_a_frozen_output_chart_translates_one_row_too(spectrum,
                                                      monkeypatch):
    # From the zero seed the frame coefficient vanishes, so the output
    # chart stays at the base point: the one Picard round forms a one-row
    # table for its trial frame and another for its output frame.
    eta = preset_field("zero", spectrum)
    built = _count_phase_tables(monkeypatch)
    point = construct_manifold_point(SolutionMapWorkspace(spectrum), eta,
                                     delta=DELTA, alpha=ALPHA)
    assert point.iterations == 1
    assert [np.shape(s) for s in built] == [(1,), (1,)]
    assert np.all(point.path.sigma == spectrum.base_point)
    # The carried one-row output frame serves the next application.
    seed = seed_path(SolutionMapWorkspace(spectrum), eta)
    m = len(seed.sigma)
    carrying = SolutionMapWorkspace(spectrum)
    built.clear()
    one_row = carrying.apply_raw(eta.values, seed.sigma, seed.w)
    again = carrying.apply_raw(eta.values, one_row.path.sigma,
                               one_row.path.w)
    assert [np.shape(s) for s in built] == [(1,), (1,), (1,)]
    # The same applications from full m-row tables of the same chart.
    widen = PeriodicGrid.shift_phases
    monkeypatch.setattr(PeriodicGrid, "shift_phases", lambda self, s: widen(
        self, np.full(m, s[0]) if np.shape(s) == (1,) else s))
    built.clear()
    full = SolutionMapWorkspace(spectrum)
    _assert_same_application(one_row, full.apply_raw(eta.values, seed.sigma,
                                                     seed.w))
    _assert_same_application(again, full.apply_raw(
        eta.values, one_row.path.sigma, one_row.path.w))
    assert [np.shape(s) for s in built] == [(m,), (m,), (m,)]


def test_forward_replay_reproduces_the_bounded_branch(workspace, point_bump):
    branch = workspace.grid.inner_values(point_bump.path.w,
                                         workspace.unstable_mode)
    assert branch[0] == pytest.approx(point_bump.correction, abs=1e-12)
    replay = forward_unstable_coefficient(
        workspace, point_bump.unstable_source, point_bump.correction
    )
    # exp(1.25 t) amplifies round-off in the start value, so the match is
    # tight over [0, 20] and only order-of-magnitude at the mesh horizon.
    early = workspace.times <= 20.0
    assert np.max(np.abs((replay - branch)[early])) <= 1e-6
    assert np.max(np.abs(replay)) <= 1e-2
    offset = forward_unstable_coefficient(
        workspace, point_bump.unstable_source, point_bump.correction + 1e-3
    )
    assert np.max(np.abs(offset)) >= 1e6


def test_the_norm_formula_never_changes_picard_values(
        spectrum, eta_bump, point_bump, derivative_strong_norm, monkeypatch):
    # Norms only measure and gate the rounds: with the strong norm formed
    # from the derivative instead of by Parseval, the rounds are the same.
    monkeypatch.setattr(PeriodicGrid, "strong_norm_values",
                        derivative_strong_norm)
    point = construct_manifold_point(
        SolutionMapWorkspace(spectrum), eta_bump, delta=DELTA, alpha=ALPHA,
        fixed_point_tol=1e-10, max_iter=30,
    )
    assert point.iterations == point_bump.iterations
    assert point.correction == point_bump.correction
    assert np.array_equal(point.path.sigma, point_bump.path.sigma)
    assert np.array_equal(point.path.w, point_bump.path.w)
    assert np.array_equal(point.initial_state.values,
                          point_bump.initial_state.values)
    assert point.distances == pytest.approx(point_bump.distances,
                                            rel=1e-14, abs=0.0)


def test_backward_channel_is_the_array_recursion(workspace, point_bump):
    # The unstable channel runs on Python floats; the same recursion on
    # numpy scalars gives the same correction, bit for bit.
    source, dt = point_bump.unstable_source, workspace._dt
    rate, decay = workspace.unstable_eigenvalue, workspace._unstable_decay
    value = source[-1] / rate
    for j in range(len(dt) - 1, -1, -1):
        value = decay[j] * value - 0.5 * dt[j] * (
            source[j] + decay[j] * source[j + 1])
    assert value == point_bump.correction
