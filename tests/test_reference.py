"""Full integrator versus the reduced picture: decay, shooting, witnesses."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from adiaflow import reference
from adiaflow.errors import ConvergenceError
from adiaflow.grid import GridField, PeriodicGrid
from adiaflow.manifold import construct_manifold_point
from adiaflow.modulation import decompose_state
from adiaflow.paths import TrajectoryPath, mesh_prefix
from adiaflow.reference import (
    FullTrajectory,
    compare_effective,
    corrected_initial_state,
    evolve_full,
    evolve_lanes,
    extract_modulated,
    instability_witness,
    instability_witnesses,
    refine_correction,
    unstable_coefficient,
    witness_report,
)

def frame_coefficients(workspace, extracted):
    """Moving-frame unstable coefficients of an extraction."""
    return unstable_coefficient(workspace.grid, workspace.unstable_mode,
                                workspace.sigma0, extracted.sigma,
                                extracted.w)


#: Decay envelope for a seed of strong size 0.01 followed to t = 10 with
#: spectral-gap rate: 3 * 0.01 * exp(-0.7 * 10).
DECAY_BOUND = 3.0 * 0.01 * np.exp(-7.0)


@pytest.fixture(scope="module")
def stable_direction(spectrum):
    return spectrum.eigenvectors[:, spectrum.stable_indices[0]]


def recording_steps(sizes):
    """A ``_SplitStepper.step`` that logs the size of each step it takes."""
    step = reference._SplitStepper.step

    def recording(self, uh, dt, out=None):
        sizes.append(dt)
        return step(self, uh, dt, out)
    return recording


@pytest.fixture(scope="module")
def adaptive_steps():
    """Step sizes, trial steps included, of each adaptive fixture solve."""
    return {}


@pytest.fixture(scope="module")
def equilibrium_deviation(model, grid, adaptive_steps):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference._SplitStepper, "step", recording_steps(
            adaptive_steps.setdefault("equilibrium", [])))
        traj = evolve_full(model, model.profile, 2.0, tol=1e-13,
                           sample_times=np.linspace(0.0, 2.0, 81))
    return grid.weak_norm_values(
        traj.u_samples - model.profile.values[None, :]
    ), traj.stats


@pytest.fixture(scope="module")
def uncorrected_run(model, grid, stable_direction, adaptive_steps):
    u0 = GridField(model.profile.values + 0.01 * stable_direction, grid)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference._SplitStepper, "step", recording_steps(
            adaptive_steps.setdefault("uncorrected", [])))
        traj = evolve_full(model, u0, 10.0,
                           sample_times=np.linspace(0.0, 10.0, 51))
    return traj


def recording_lanes(log, alter=None):
    """An ``evolve_lanes`` that logs (initial state bytes, final sample
    time) for each lane, then solves them; ``alter(index, trajectory)`` may
    change the trajectory of the lane with that index in the log."""
    def recording(model, starts, **kwargs):
        first = len(log)
        t_final = float(kwargs["sample_times"][-1])
        log.extend((np.asarray(u0).tobytes(), t_final) for u0 in starts)
        trajectories = evolve_lanes(model, starts, **kwargs)
        if alter is not None:
            for index, traj in enumerate(trajectories, start=first):
                alter(index, traj)
        return trajectories
    return recording


@pytest.fixture(scope="module")
def refine_solves():
    """(initial state bytes, final time) of each lane that the
    ``corrected_run`` refinement solves."""
    return []


@pytest.fixture(scope="module")
def corrected_run(workspace, model, grid, stable_direction, refine_solves):
    eta = GridField(0.01 * stable_direction.copy(), grid)
    point = construct_manifold_point(workspace, eta, delta=0.05, alpha=1.0,
                                     fixed_point_tol=1e-10, max_iter=30)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference, "evolve_lanes",
                      recording_lanes(refine_solves))
        refined = refine_correction(workspace, point, dt=1e-3,
                                    probe_time=12.0)
    u0 = corrected_initial_state(workspace, point, refined.beta)
    samples = mesh_prefix(workspace.times, 10.0)
    traj = evolve_lanes(model, [u0.values], dt=1e-3,
                        sample_times=samples)[0]
    return point, refined, traj


@pytest.mark.xfail(
    strict=True,
    reason="the split-step flow has its own nearby equilibrium, so the "
    "deviation floor at machine-tight tolerance sits at ~1.2e-8, above "
    "this target",
)
def test_equilibrium_persists_at_target_tolerance(equilibrium_deviation):
    dev, _ = equilibrium_deviation
    assert np.max(dev) <= 1e-8


def test_equilibrium_persists_at_the_discrete_floor(equilibrium_deviation):
    dev, stats = equilibrium_deviation
    assert np.max(dev) <= 2.5e-8
    assert dev[20] <= 1e-8  # t = 0.5, before the discrete offset accumulates
    assert stats["steps"] > 5000
    assert stats["escape_sign"] == 0


@pytest.mark.xfail(
    strict=True,
    reason="a raw stable seed still carries an O(size^2) unstable component, "
    "which exp(1.25 t) amplifies past the tube long before t = 10",
)
def test_uncorrected_seed_decays_to_the_pulse(uncorrected_run, model, grid):
    gap = grid.strong_norm_values(
        uncorrected_run.u_samples[-1] - model.profile.values
    )
    assert gap <= DECAY_BOUND


def test_uncorrected_seed_actually_escapes(uncorrected_run, model, grid):
    gap = grid.strong_norm_values(
        uncorrected_run.u_samples[-1] - model.profile.values
    )
    assert gap > 1000.0 * DECAY_BOUND


def test_refinement_contract(corrected_run, workspace):
    point, refined, _ = corrected_run
    assert refined.picard_beta == point.correction
    assert refined.dt == 1e-3
    assert refined.probe_time <= 12.0 + 1e-12
    assert refined.probe_time in workspace.times
    assert refined.evaluations <= 60
    assert refined.bracket > 0.0
    assert refined.beta == pytest.approx(-4.831976073093844e-06, rel=1e-6)
    assert abs(refined.beta - refined.picard_beta) <= 5e-7


def test_refinement_solves_no_coefficient_twice(corrected_run, refine_solves):
    _, refined, _ = corrected_run
    assert len(refine_solves) == refined.evaluations
    initial_states = [u0 for u0, _ in refine_solves]
    assert len(set(initial_states)) == len(initial_states)
    assert refined.evaluations <= 16
    # Short-probe solves come first and end well before the probe.
    finals = [t_final for _, t_final in refine_solves]
    assert finals == sorted(finals)
    assert finals[0] <= 0.25 * refined.probe_time < finals[-1]
    assert finals[-1] == refined.probe_time


@pytest.mark.parametrize("stage, before, spare", [
    pytest.param("short-probe bracketing", "none", 0,
                 id="short-probe bracketing"),
    pytest.param("short-probe bracketing", "none", 3,
                 id="short-probe bracketing, lanes short"),
    pytest.param("full-probe bracketing", "escaped first round", 0,
                 id="full-probe bracketing"),
    pytest.param("full-probe polish", "short", 0, id="full-probe polish"),
])
def test_refinement_budget_binds_in_every_stage(
        corrected_run, refine_solves, workspace, monkeypatch, stage, before,
        spare):
    point, refined, _ = corrected_run
    short_solves = sum(t_final < refined.probe_time
                       for _, t_final in refine_solves)
    # Lane solves made before the solve that the budget stops; ``spare``
    # lanes more do not hold all lanes of that solve, so it is not started.
    made = {
        "none": 0,
        "short": short_solves,
        "escaped first round": short_solves + 2,
    }[before]
    budget = made + spare

    def escaping_first_round(index, traj):
        # The predictor and its partner escape, so the march starts.
        if before == "escaped first round" and index >= short_solves:
            traj.stats["escape_sign"] = 1
            traj.stats["escape_time"] = float(traj.times[-1])

    calls = []
    monkeypatch.setattr(reference, "evolve_lanes",
                        recording_lanes(calls, escaping_first_round))
    with pytest.raises(ConvergenceError, match=stage):
        refine_correction(workspace, point, dt=1e-3, probe_time=12.0,
                          max_evaluations=budget)
    assert len(calls) == made
    if spare == 0:
        assert len(calls) == budget


def test_escaping_polish_iterate_is_a_convergence_error(
        corrected_run, refine_solves, workspace, monkeypatch):
    point, refined, _ = corrected_run
    # Every lane after the first two full-probe rounds escapes; the third
    # round's iterate lies between the surviving, opposite-sign second
    # iterate and its partner.
    survivors = sum(t_final < refined.probe_time
                    for _, t_final in refine_solves) + 4
    assert refined.evaluations == survivors + 2

    def escaping(index, traj):
        if index >= survivors:
            traj.stats["escape_sign"] = 1
            traj.stats["escape_time"] = float(traj.times[-1])

    calls = []
    monkeypatch.setattr(reference, "evolve_lanes",
                        recording_lanes(calls, escaping))
    with pytest.raises(ConvergenceError, match="full-probe polish"):
        refine_correction(workspace, point, dt=1e-3, probe_time=12.0)
    assert len(calls) == survivors + 2


def test_corrected_seed_meets_the_decay_bound(corrected_run, model, grid):
    _, _, traj = corrected_run
    assert not traj.escaped
    gap = grid.strong_norm_values(traj.u_samples[-1] - model.profile.values)
    assert gap <= DECAY_BOUND
    energies = traj.energies(model)
    assert np.all(np.diff(energies) <= 1e-12)
    assert energies[-1] < energies[0]


def test_corrected_initial_state_formula(corrected_run, workspace):
    point, refined, _ = corrected_run
    shifted = corrected_initial_state(workspace, point, refined.beta,
                                      offset=2e-4)
    expected = point.initial_state.values + (
        refined.beta + 2e-4 - point.correction
    ) * workspace.unstable_mode
    assert np.array_equal(shifted.values, expected)


def test_step_halving_budget(model, grid, stable_direction):
    u0 = GridField(model.profile.values + 0.01 * stable_direction, grid)
    ends = np.array([0.0, 1.0])
    coarse = evolve_full(model, u0, 1.0, tol=1e-8, sample_times=ends)
    fine = evolve_full(model, u0, 1.0, tol=5e-9, sample_times=ends)
    gap = grid.weak_norm_values(coarse.u_samples[-1] - fine.u_samples[-1])
    est = coarse.stats["max_error_estimate"]
    assert est <= 1e-8
    assert gap <= coarse.stats["steps"] * est
    assert gap <= 1e-6


def test_translation_equivariance(model, grid, stable_direction):
    u0 = GridField(model.profile.values + 0.01 * stable_direction, grid)
    shift = 1.3
    u0s = GridField(grid.shift_values(u0.values, shift), grid)
    ends = np.array([0.0, 1.0])
    plain = evolve_lanes(model, [u0.values], dt=1e-3,
                         sample_times=ends)[0]
    moved = evolve_lanes(model, [u0s.values], dt=1e-3,
                         sample_times=ends)[0]
    gap = grid.weak_norm_values(
        grid.shift_values(plain.u_samples[-1], shift) - moved.u_samples[-1]
    )
    assert gap <= 1e-10


def physical_split_solve(model, u0, samples, dt, collapse_floor=None,
                         ceiling=10.0):
    """The split step in physical space, four FFTs a step, as a reference.

    The step plan (whole steps, then one clamped onto each sample), escape
    checks and escape times follow ``evolve_lanes``; norms come from the
    grid.  Returns (times, samples, escape sign, escape time).
    """
    grid = model.grid

    def step(u, h):
        mult = np.exp(-0.5 * h * (grid.wavenumbers**2 + 1.0))
        v = np.fft.irfft(np.fft.rfft(u) * mult, grid.n)
        denom = 1.0 - h * v
        if np.min(denom) <= reference._DENOM_FLOOR:
            return None
        return np.fft.irfft(np.fft.rfft(v / denom) * mult, grid.n)

    def escape_sign(u):
        weak = grid.weak_norm_values(u)
        if not np.isfinite(weak) or weak >= ceiling or (
                weak >= 0.4 * ceiling
                and grid.strong_norm_values(u) >= ceiling):
            return 1
        if collapse_floor is not None and weak <= collapse_floor:
            return -1
        return 0

    u, t = u0.values.copy(), 0.0
    times, states = [0.0], [u.copy()]

    def solved(sign, escape_time):
        return np.array(times), np.array(states), sign, escape_time

    for target in samples[1:]:
        # The whole steps the interval holds, up to round-off, then one
        # clamped step onto the sample.
        start = t
        whole = math.ceil((target - start) / dt * (1.0 - 1e-9)) - 1
        for j in range(1, whole + 2):
            clamped = j > whole
            u = step(u, target - t if clamped else dt)
            if u is None:
                return solved(1, t)
            t = target if clamped else start + j * dt
            if clamped:
                times.append(t)
                states.append(u.copy())
            sign = escape_sign(u)
            if sign:
                return solved(sign, t)
    return solved(0, None)


def test_parseval_norms_match_the_grid_norms(grid):
    rng = np.random.default_rng(7)
    stepper = reference._SplitStepper(grid)
    nyquist = np.cos(np.pi * np.arange(grid.n))
    for _ in range(5):
        vhat = np.zeros(grid.n // 2 + 1, dtype=complex)
        vhat[:64] = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) \
            * np.exp(-0.1 * np.arange(64))
        values = np.fft.irfft(vhat, grid.n) + rng.uniform(0.1, 1.0) * nyquist
        values_hat = np.fft.rfft(values)
        assert values_hat[-1] != 0.0
        assert stepper.weak_norm(values_hat) == pytest.approx(
            float(grid.weak_norm_values(values)), rel=1e-13)
        assert stepper.strong_norm(values_hat) == pytest.approx(
            float(grid.strong_norm_values(values)), rel=1e-13)


@pytest.mark.parametrize("offset, t_end", [
    (0.0, 2.5), (1e-2, 10.0), (-1e-2, 10.0),
])
def test_fourier_state_solve_matches_the_physical_split_step(
        corrected_run, workspace, model, grid, offset, t_end):
    point, refined, _ = corrected_run
    u0 = corrected_initial_state(workspace, point, refined.beta, offset)
    samples = mesh_prefix(workspace.times, t_end)
    floor = reference.collapse_floor(model)
    traj = evolve_lanes(model, [u0.values], dt=1e-3,
                        sample_times=samples, collapse_floor=floor)[0]
    times, states, sign, escape_time = physical_split_solve(
        model, u0, samples, 1e-3, collapse_floor=floor)
    assert traj.stats["escape_sign"] == sign == np.sign(offset)
    assert traj.stats["escape_time"] == escape_time
    assert np.array_equal(traj.times, times)
    if sign == 0:
        # Approaching a blow-up amplifies round-off faster, so the state
        # bound is kept to the surviving run.
        assert traj.stats["steps"] >= 2000
        gaps = grid.weak_norm_values(traj.u_samples - states)
        assert np.max(gaps / grid.weak_norm_values(states)) <= 1e-11


def _nyquist_stack(n, rows, seed):
    """A (rows, n) stack of smooth states plus Nyquist content."""
    rng = np.random.default_rng(seed)
    x = np.arange(n) / n
    smooth = np.array([np.sin(2.0 * np.pi * rng.integers(1, n // 4) * x
                              + rng.uniform(0.0, 6.0))
                       for _ in range(rows)])
    nyquist = np.cos(np.pi * np.arange(n))
    return 0.3 * smooth + rng.uniform(0.1, 0.4, (rows, 1)) * nyquist


@pytest.mark.parametrize("n", [16, 1024])
@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_the_solver_transforms_are_numpys_fft(n, rows):
    stepper = reference._SplitStepper(PeriodicGrid(n))
    values = _nyquist_stack(n, rows, seed=10 * n + rows)
    values_hat = stepper.spectrum(values)
    assert np.array_equal(values_hat, np.fft.rfft(values))
    assert np.all(values_hat[:, -1] != 0.0)
    assert np.array_equal(stepper.values(values_hat),
                          np.fft.irfft(values_hat, n))
    # A step is the split step written with np.fft.
    dt = 1e-2
    mult = np.exp(-0.5 * dt * (PeriodicGrid(n).wavenumbers**2 + 1.0))
    v = np.fft.irfft(values_hat * mult, n)
    expected = np.fft.rfft(v / (1.0 - dt * v)) * mult
    stepped, blown = stepper.step(values_hat.copy(), dt)
    assert blown is None
    assert np.array_equal(stepped, expected)
    # In place over the stack, as the fixed-step solve steps it.
    stack = values_hat.copy()
    stepped, _ = stepper.step(stack, dt, out=stack)
    assert stepped is stack and np.array_equal(stack, expected)


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_escape_checks_read_each_rows_own_weak_norm(grid, rows):
    stepper = reference._SplitStepper(grid)
    for seed in range(8):
        uh = stepper.spectrum(_nyquist_stack(grid.n, rows, seed=seed))
        norms = [stepper.weak_norm(row) for row in uh]
        assert stepper.escape_signs(uh, 10.0, 0.5 * min(norms)) is None
        for row, norm in enumerate(norms):
            # At the row's own norm it collapses, one float below it does
            # not.
            signs = stepper.escape_signs(uh, 10.0, norm)
            assert signs[row] == -1
            assert signs.count(-1) == sum(other <= norm for other in norms)
            below = stepper.escape_signs(uh, 10.0, np.nextafter(norm, 0.0))
            assert below is None or below[row] == 0
            assert stepper.escape_signs(uh, norm, None)[row] == 1


def test_fixed_step_solve_makes_two_ffts_per_step(model, grid, monkeypatch):
    calls = {"_rfft": 0, "_irfft": 0}

    def counted(name):
        transform = getattr(reference, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(reference, name, counted(name))
    samples = np.linspace(0.0, 0.2, 5)
    traj = evolve_lanes(model, [model.profile.values], dt=1e-3,
                        sample_times=samples)[0]
    steps = traj.stats["steps"]
    assert steps >= 200 and traj.n_samples == len(samples)
    # One forward transform of the initial state; the sample at t = 0 is
    # the initial state itself.
    assert calls == {"_rfft": steps + 1, "_irfft": steps + len(samples) - 1}


def test_a_state_past_the_watch_line_that_stays_below_the_ceiling_runs_on(
        model):
    # The pulse's weak norm, 2.45, is past 0.4 of a ceiling of 5, so every
    # step reads its strong norm, 2.68, which stays below the ceiling.
    samples = np.linspace(0.0, 0.2, 5)
    fixed = evolve_lanes(model, [model.profile.values], dt=1e-3,
                         sample_times=samples, ceiling=5.0)[0]
    adaptive = evolve_full(model, model.profile, 0.2, sample_times=samples,
                           ceiling=5.0)
    for traj in (fixed, adaptive):
        assert traj.stats["escape_sign"] == 0
        assert traj.stats["escape_time"] is None
        assert np.array_equal(traj.times, samples)


def test_a_lane_that_blows_up_leaves_the_stack(workspace, model, monkeypatch):
    # With a ceiling this high only the quadratic substep's denominator can
    # end the second lane; the first survives beside it.
    samples = mesh_prefix(workspace.times, 5.0)
    starts = [model.profile.values,
              model.profile.values + 3e-2 * workspace.unstable_mode]
    blown = []
    step = reference._SplitStepper.step

    def spied(self, uh, dt, out=None):
        uh_new, mask = step(self, uh, dt, out)
        if mask is not None:
            blown.append(mask.tolist())
        return uh_new, mask

    monkeypatch.setattr(reference._SplitStepper, "step", spied)
    solved = evolve_lanes(model, starts, dt=1e-3,
                          sample_times=samples, ceiling=1e6)
    assert blown == [[False, True]]
    singles = [evolve_lanes(model, [u0], dt=1e-3,
                            sample_times=samples, ceiling=1e6)[0]
               for u0 in starts]
    assert blown == [[False, True], [True]]
    assert [traj.stats["escape_sign"] for traj in solved] == [0, 1]
    assert 3.0 < solved[1].stats["escape_time"] < 4.0
    for mine, theirs in zip(solved, singles):
        assert_same_solve(mine, theirs)


@pytest.mark.parametrize("eps", [1e-3, 1e-4])
def test_even_perturbations_keep_the_chart_at_zero(model, grid,
                                                   stable_direction, eps):
    state = GridField(model.profile.values + eps * stable_direction, grid)
    sigma, w = decompose_state(model, state, 0.0)
    assert sigma == 0.0
    assert abs(w.inner(model.frame(sigma)[1])) <= 1e-12


def test_drift_of_the_corrected_bump(workspace, model, grid, point_bump,
                                     refined_bump, traj_bump,
                                     extracted_bump):
    assert refined_bump.beta == pytest.approx(-4.2961748663815815e-05,
                                              rel=1e-6)
    assert refined_bump.evaluations <= 60
    assert not traj_bump.escaped
    extracted = extracted_bump
    assert extracted.n_samples == traj_bump.n_samples
    # The quadratic chart drive has a definite sign while the remainder is
    # coherent, so early increments share it; the total stays tiny.
    increments = np.diff(extracted.sigma)
    early = increments[: len(increments) // 2]
    assert np.mean(np.sign(early) == np.sign(np.sum(early))) >= 0.9
    assert 0.0 < abs(extracted.sigma[-1]) < 2e-4
    worst = max(
        abs(grid.inner_values(
            extracted.w[j],
            model.frame(extracted.sigma[j])[1],
        ))
        for j in range(0, extracted.n_samples, 10)
    )
    assert worst <= 1e-10


def test_witness_report_of_the_comparison_trajectory(workspace, point_bump,
                                                     refined_bump, traj_bump,
                                                     extracted_bump):
    # traj_bump is the zero-offset witness solve: same state, step and mesh.
    analysed = witness_report(traj_bump, extracted_bump,
                              frame_coefficients(workspace, extracted_bump),
                              0.0, delta=0.05)
    solved = instability_witness(workspace, point_bump, refined_bump.beta,
                                 0.0, delta=0.05)
    for item in dataclasses.fields(reference.WitnessReport):
        mine = getattr(analysed, item.name)
        theirs = getattr(solved, item.name)
        if isinstance(mine, np.ndarray):
            assert np.array_equal(mine, theirs), item.name
        else:
            assert mine == theirs, item.name


def test_the_witness_stops_at_its_ceiling(workspace, point_bump):
    # The pulse's weak norm is 2.45, so a ceiling of 2 stops the solve at its
    # first step, and one of 4 stops it on the way to the blow-up.
    reports = [instability_witness(workspace, point_bump,
                                   point_bump.correction, 1e-3, delta=0.05,
                                   ceiling=ceiling)
               for ceiling in (2.0, 4.0, 10.0)]
    assert [report.escape_sign for report in reports] == [1, 1, 1]
    times = [report.escape_time for report in reports]
    assert times[0] == 1e-3
    assert times[0] < times[1] < times[2]


def test_comparison_requires_the_shared_mesh(workspace, point_bump, grid):
    stray = FullTrajectory(
        times=np.array([0.0, 0.013]),
        u_samples=np.zeros((2, grid.n)),
        stats={},
    )
    with pytest.raises(ValueError):
        compare_effective(workspace, point_bump, stray, point_bump.path,
                          delta=0.05)


def test_comparison_needs_two_samples_in_the_envelope_fit_window(
        workspace, point_bump, grid):
    path = point_bump.path
    m = len(mesh_prefix(path.times, 0.5))
    short = FullTrajectory(times=path.times[:m],
                           u_samples=np.zeros((m, grid.n)), stats={})
    extracted = TrajectoryPath(path.times[:m], path.sigma[:m], path.w[:m],
                               grid)
    with pytest.raises(ConvergenceError, match="holds 0 comparison samples"):
        compare_effective(workspace, point_bump, short, extracted,
                          delta=0.05)


def _failing_after(monkeypatch, n_good: int) -> None:
    """Make every decomposition after the first n_good fail."""
    calls = []

    def decompose(*args, **kwargs):
        calls.append(None)
        if len(calls) > n_good:
            raise ConvergenceError("left the tubular neighborhood")
        return decompose_state(*args, **kwargs)

    monkeypatch.setattr(reference, "decompose_state", decompose)


def test_extraction_returns_the_decomposable_prefix(model, traj_bump,
                                                    extracted_bump,
                                                    monkeypatch):
    _failing_after(monkeypatch, 7)
    prefix = extract_modulated(model, traj_bump, sigma_guess=0.0)
    assert prefix.n_samples == 7
    assert np.array_equal(prefix.times, traj_bump.times[:7])
    assert np.array_equal(prefix.sigma, extracted_bump.sigma[:7])
    assert np.array_equal(prefix.w, extracted_bump.w[:7])


def test_extraction_failing_at_the_first_sample_names_t_0(model, traj_bump,
                                                          monkeypatch):
    _failing_after(monkeypatch, 0)
    with pytest.raises(ConvergenceError, match=r"t = 0 \(sample 0\)"):
        extract_modulated(model, traj_bump, sigma_guess=0.0)


def test_extraction_ends_its_prefix_where_the_chart_is_left(model, grid):
    # The second state's first damped Newton trial step lands at
    # sigma = -6.26, outside the chart of radius 5.
    far = model.profile.values + 5.0 * np.exp(-(grid.x - 3.0) ** 2)
    traj = FullTrajectory(times=np.array([0.0, 0.02]),
                          u_samples=np.array([model.profile.values, far]))
    prefix = extract_modulated(model, traj, sigma_guess=0.0)
    assert prefix.n_samples == 1
    assert prefix.sigma[0] == 0.0


def test_comparison_refuses_a_short_extraction(workspace, point_bump,
                                               traj_bump, extracted_bump):
    short = dataclasses.replace(
        extracted_bump, times=extracted_bump.times[:40],
        sigma=extracted_bump.sigma[:40], w=extracted_bump.w[:40],
    )
    first_missing = f"t = {traj_bump.times[40]:.6g} \\(sample 40\\)"
    with pytest.raises(ConvergenceError, match=first_missing):
        compare_effective(workspace, point_bump, traj_bump, short,
                          delta=0.05)


def test_readouts_take_the_extraction_and_never_extract(
        workspace, point_bump, traj_bump, extracted_bump, model,
        monkeypatch):
    from adiaflow import harness

    def refuse(*args, **kwargs):
        raise AssertionError("the readout extracted the trajectory again")

    monkeypatch.setattr(reference, "extract_modulated", refuse)
    monkeypatch.setattr(harness, "extract_modulated", refuse)
    monkeypatch.setattr(reference, "decompose_state", refuse)
    coefficients = frame_coefficients(workspace, extracted_bump)
    header, rows = harness.trajectory_rows(
        traj_bump, extracted_bump, traj_bump.energies(model), coefficients)
    assert len(rows) == traj_bump.n_samples
    comparison = compare_effective(workspace, point_bump, traj_bump,
                                   extracted_bump, delta=0.05)
    assert comparison["n_samples"] == traj_bump.n_samples
    quiet = witness_report(traj_bump, extracted_bump, coefficients, 0.0,
                           delta=0.05)
    # The CSV column and the witness read the one coefficient array.
    assert np.array_equal([row[3] for row in rows], quiet.coefficients)


def assert_same_solve(mine, theirs):
    assert np.array_equal(mine.times, theirs.times)
    assert np.array_equal(mine.u_samples, theirs.u_samples)
    assert mine.stats == theirs.stats


#: Offsets along the unstable mode: one lane that survives, one that blows
#: up early, one that collapses and one that blows up late.
LANE_OFFSETS = (0.0, 3e-2, -1e-2, 1e-2)


@pytest.fixture(scope="module")
def single_solves(workspace, model):
    samples = mesh_prefix(workspace.times, 5.0)
    floor = reference.collapse_floor(model)
    starts = [model.profile.values + offset * workspace.unstable_mode
              for offset in LANE_OFFSETS]
    singles = [evolve_lanes(model, [u0], dt=1e-3,
                            sample_times=samples, collapse_floor=floor)[0]
               for u0 in starts]
    assert [traj.stats["escape_sign"] for traj in singles] == [0, 1, -1, 1]
    return starts, samples, floor, singles


@pytest.mark.parametrize("lanes", [1, 2, 3, 4])
def test_lanes_are_bitwise_their_single_solves(model, single_solves, lanes):
    starts, samples, floor, singles = single_solves
    solved = evolve_lanes(model, starts[:lanes], dt=1e-3,
                          sample_times=samples, collapse_floor=floor)
    assert len(solved) == lanes
    for mine, theirs in zip(solved, singles):
        assert_same_solve(mine, theirs)
        assert mine.stats["escape_time"] == theirs.stats["escape_time"]
        assert (mine.end is None) == mine.escaped


def test_continued_solves_equal_solves_from_zero(workspace, model,
                                                single_solves):
    starts, samples, floor, singles = single_solves
    early = mesh_prefix(workspace.times, 3.0)
    # Both lanes survive to t = 3; the second escapes after it.
    begun = evolve_lanes(model, [starts[0], starts[3]],
                         dt=1e-3, sample_times=early, collapse_floor=floor)
    assert not any(traj.escaped for traj in begun)
    continued = evolve_lanes(model, begun, dt=1e-3,
                             sample_times=samples, collapse_floor=floor)
    for mine, theirs in zip(continued, (singles[0], singles[3])):
        assert_same_solve(mine, theirs)
        assert list(mine.stats) == list(theirs.stats)


def test_the_comparison_solve_continues_the_probe_solve(refined_bump,
                                                        traj_bump):
    probe = refined_bump.trajectory
    assert probe.times[-1] == refined_bump.probe_time
    assert probe.stats["steps"] < traj_bump.stats["steps"]
    assert np.array_equal(traj_bump.times[:probe.n_samples], probe.times)
    assert np.array_equal(traj_bump.u_samples[:probe.n_samples],
                          probe.u_samples)


def test_whole_steps_absorb_round_off_in_the_gap():
    dt = 1e-3
    # Mesh intervals of 0.02 hold 20 steps up to round-off on either side.
    over, under = 0.14 - 0.12, 0.06 - 0.04
    assert under / dt < 20.0 < over / dt
    assert reference._whole_steps(over, dt) == 19
    assert reference._whole_steps(under, dt) == 19
    assert reference._whole_steps(20.5 * dt, dt) == 20
    assert reference._whole_steps(0.5 * dt, dt) == 0
    assert reference._whole_steps(dt, dt) == 0


@pytest.mark.parametrize("t_end, steps", [(0.5, 500), (1.0, 1000)])
def test_a_short_solve_records_every_sample_in_whole_steps(workspace, model,
                                                           t_end, steps):
    samples = mesh_prefix(workspace.times, t_end)
    traj = evolve_lanes(model, [model.profile.values],
                        dt=1e-3, sample_times=samples)[0]
    assert traj.times[-1] == t_end
    assert np.array_equal(traj.times, samples)
    assert traj.stats["steps"] == steps


def test_every_interval_takes_its_whole_steps_then_one_clamped_step(
        workspace, model, monkeypatch):
    dt = 1e-3
    samples = mesh_prefix(workspace.times, 6.0)
    sizes = []
    monkeypatch.setattr(reference._SplitStepper, "step",
                        recording_steps(sizes))
    evolve_lanes(model, [model.profile.values], dt=dt, sample_times=samples)
    gaps = np.diff(samples) / dt
    assert np.any(gaps % 1.0 > 0.01)  # the mesh has partial steps past 4
    assert len(sizes) == int(np.sum(np.ceil(np.round(gaps, 6))))
    assert min(sizes) > 0.005 * dt
    assert max(sizes) <= dt * (1.0 + 1e-9)


def test_adaptive_solves_take_no_step_of_round_off_length(
        equilibrium_deviation, uncorrected_run, adaptive_steps):
    # Trial steps included: each is taken whole and as two halves.
    dev, _ = equilibrium_deviation
    assert len(dev) == 81 and uncorrected_run.n_samples == 51
    for sizes in adaptive_steps.values():
        assert sum(size < 1e-9 for size in sizes) == 0


@settings(max_examples=300, deadline=None)
@given(dt=st.one_of(st.integers(-30, 5).map(lambda k: 1e-3 * 2.0**k),
                    st.floats(reference._DT_FLOOR, reference._DT_MAX)),
       steps=st.one_of(
           st.floats(1e-6, 64.0),
           st.floats(1e-200, 1e-9),
           st.tuples(st.integers(1, 64), st.floats(-1e-7, 1e-7)).map(sum)),
       factors=st.lists(st.sampled_from((0.5, 1.0, 2.0)), max_size=4))
@example(dt=1e-3, steps=1.0 + 1.5e-9, factors=[2.0])
@example(dt=1e-3, steps=5e-10, factors=[])
def test_the_step_plan_clamps_one_step_onto_each_sample(dt, steps, factors):
    gap, slack = steps * dt, reference._STEP_SLACK
    # The adaptive solve takes its current step while the time left holds a
    # whole one; its controller may halve or double the step after each.
    left, dt_now, factors = gap, dt, iter(factors)
    while reference._whole_steps(left, dt_now) != 0:
        assert left > dt_now
        left -= dt_now
        dt_now *= next(factors, 1.0)
    assert 0.0 < left <= dt_now * (1.0 + 2.0 * slack)
    # The fixed-step solve counts the whole steps once per interval.
    rest = gap - reference._whole_steps(gap, dt) * dt
    assert 0.0 < rest <= dt * (1.0 + 2.0 * slack)


def test_samples_within_round_off_of_a_step_are_recorded(model):
    # A decaying state, so that a solve which steps past a sample collapses
    # instead of running on.
    values = 1e-3 * model.profile.values
    floor = 0.5 * float(model.grid.weak_norm_values(values))
    # The first step of 1e-3 leaves 1.5e-12 to the sample, and the
    # controller then doubles the step.
    near = 1e-3 * (1.0 + 1.5e-9)
    traj = evolve_full(model, GridField(values, model.grid), near, tol=1e-6,
                       sample_times=[0.0, near], collapse_floor=floor)
    assert traj.stats["final_dt"] == 2e-3
    assert not traj.escaped and list(traj.times) == [0.0, near]
    traj = evolve_lanes(model, [values], dt=1e-3, sample_times=[0.0, 5e-13],
                        collapse_floor=floor)[0]
    assert not traj.escaped and list(traj.times) == [0.0, 5e-13]


def test_the_probe_and_comparison_solves_take_whole_steps(refined_bump,
                                                          traj_bump):
    # Each mesh interval's whole steps plus one clamped step, none of zero
    # size, on the default mesh at dt 1e-3.
    assert refined_bump.trajectory.stats["steps"] == 15331
    assert traj_bump.stats["steps"] == 19275


def test_only_a_surviving_fixed_step_solve_on_the_same_samples_continues(
        model, single_solves):
    starts, samples, floor, singles = single_solves
    survived, escaped = singles[0], singles[1]
    longer = np.append(samples, samples[-1] + 0.02)
    with pytest.raises(ValueError):
        evolve_lanes(model, [escaped], dt=1e-3,
                     sample_times=longer)
    with pytest.raises(ValueError):
        evolve_lanes(model, [survived], dt=5e-4,
                     sample_times=longer)
    with pytest.raises(ValueError):
        evolve_lanes(model, [survived], dt=1e-3,
                     sample_times=longer[::2])
    with pytest.raises(ValueError):
        evolve_lanes(model, [survived, starts[0]],
                     dt=1e-3, sample_times=longer)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(offsets=st.lists(
    st.tuples(st.sampled_from((-1.0, 0.0, 1.0)),
              st.floats(min_value=-2.0, max_value=-0.7)),
    min_size=1, max_size=4))
def test_every_lane_is_its_single_solve(workspace, model, offsets):
    samples = mesh_prefix(workspace.times, 3.0)
    floor = reference.collapse_floor(model)
    starts = [model.profile.values + sign * 10.0**power
              * workspace.unstable_mode for sign, power in offsets]
    solved = evolve_lanes(model, starts, dt=2e-3,
                          sample_times=samples, collapse_floor=floor)
    for u0, mine in zip(starts, solved):
        single = evolve_lanes(model, [u0], dt=2e-3,
                              sample_times=samples, collapse_floor=floor)[0]
        assert_same_solve(mine, single)
