"""Full integrator versus the reduced picture: decay, shooting, witnesses."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adiaflow import reference
from adiaflow.errors import ConvergenceError
from adiaflow.grid import GridField
from adiaflow.manifold import construct_manifold_point
from adiaflow.modulation import decompose_state
from adiaflow.paths import mesh_prefix
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


@pytest.fixture(scope="module")
def equilibrium_deviation(model, grid):
    traj = evolve_full(model, model.profile, 2.0, tol=1e-13,
                       sample_times=np.linspace(0.0, 2.0, 81))
    return grid.weak_norm_values(
        traj.u_samples - model.profile.values[None, :]
    ), traj.stats


@pytest.fixture(scope="module")
def uncorrected_run(model, grid, stable_direction):
    u0 = GridField(model.profile.values + 0.01 * stable_direction, grid)
    traj = evolve_full(model, u0, 10.0, sample_times=np.linspace(0.0, 10.0, 51))
    return traj


def recording_lanes(log, alter=None):
    """An ``evolve_lanes`` that logs (initial state bytes, final time) for
    each lane, then solves them; ``alter(index, trajectory)`` may change the
    trajectory of the lane with that index in the log."""
    def recording(model, starts, t_final, **kwargs):
        first = len(log)
        log.extend((np.asarray(u0).tobytes(), float(t_final))
                   for u0 in starts)
        trajectories = evolve_lanes(model, starts, t_final, **kwargs)
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
    traj = evolve_lanes(model, [u0.values], float(samples[-1]), dt=1e-3,
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
    plain = evolve_lanes(model, [u0.values], 1.0, dt=1e-3,
                         sample_times=ends)[0]
    moved = evolve_lanes(model, [u0s.values], 1.0, dt=1e-3,
                         sample_times=ends)[0]
    gap = grid.weak_norm_values(
        grid.shift_values(plain.u_samples[-1], shift) - moved.u_samples[-1]
    )
    assert gap <= 1e-10


def physical_split_solve(model, u0, samples, dt, collapse_floor=None,
                         ceiling=10.0):
    """The split step in physical space, four FFTs a step, as a reference.

    Steps and sample clamps, escape checks and escape times follow
    ``evolve_lanes``; norms come from the grid.  Returns
    (times, samples, escape sign, escape time).
    """
    grid = model.grid

    def step(u, h):
        mult = np.exp(-0.5 * h * (grid.wavenumbers**2 + 1.0))
        v = np.fft.irfft(np.fft.rfft(u) * mult, grid.n)
        denom = 1.0 - h * v
        if np.min(denom) <= reference._DENOM_FLOOR:
            return None
        return np.fft.irfft(np.fft.rfft(v / denom) * mult, grid.n)

    u, t = u0.values.copy(), 0.0
    times, states = [0.0], [u.copy()]
    sign, escape_time, next_sample = 0, None, 1
    while t < samples[-1] and next_sample < len(samples):
        target = samples[next_sample]
        clamped = dt >= target - t
        h = target - t if clamped else dt
        u = step(u, h)
        if u is None:
            sign, escape_time = 1, t
            break
        t = target if clamped else t + h
        if clamped:
            times.append(t)
            states.append(u.copy())
            next_sample += 1
        weak = grid.weak_norm_values(u)
        if not np.isfinite(weak) or weak >= ceiling or (
                weak >= 0.4 * ceiling
                and grid.strong_norm_values(u) >= ceiling):
            sign, escape_time = 1, t
            break
        if collapse_floor is not None and weak <= collapse_floor:
            sign, escape_time = -1, t
            break
    return np.array(times), np.array(states), sign, escape_time


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
    floor = reference._collapse_floor(model)
    traj = evolve_lanes(model, [u0.values], float(samples[-1]), dt=1e-3,
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


def test_fixed_step_solve_makes_two_ffts_per_step(model, grid, monkeypatch):
    calls = {"rfft": 0, "irfft": 0}

    def counted(name):
        transform = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.fft, name, counted(name))
    samples = np.linspace(0.0, 0.2, 5)
    traj = evolve_lanes(model, [model.profile.values], 0.2, dt=1e-3,
                        sample_times=samples)[0]
    steps = traj.stats["steps"]
    assert steps >= 200 and traj.n_samples == len(samples)
    # One forward transform of the initial state; the sample at t = 0 is
    # the initial state itself.
    assert calls == {"rfft": steps + 1, "irfft": steps + len(samples) - 1}


@pytest.mark.parametrize("eps", [1e-3, 1e-4])
def test_even_perturbations_keep_the_chart_at_zero(model, grid,
                                                   stable_direction, eps):
    state = GridField(model.profile.values + eps * stable_direction, grid)
    sigma, w = decompose_state(model, state, 0.0)
    assert sigma == 0.0
    tangent = model.family_tangent(sigma)
    assert abs(w.inner(tangent)) <= 1e-12


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
            model.family_tangent(extracted.sigma[j]).values,
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
    floor = reference._collapse_floor(model)
    starts = [model.profile.values + offset * workspace.unstable_mode
              for offset in LANE_OFFSETS]
    singles = [evolve_lanes(model, [u0], float(samples[-1]), dt=1e-3,
                            sample_times=samples, collapse_floor=floor)[0]
               for u0 in starts]
    assert [traj.stats["escape_sign"] for traj in singles] == [0, 1, -1, 1]
    return starts, samples, floor, singles


@pytest.mark.parametrize("lanes", [1, 2, 3, 4])
def test_lanes_are_bitwise_their_single_solves(model, single_solves, lanes):
    starts, samples, floor, singles = single_solves
    solved = evolve_lanes(model, starts[:lanes], float(samples[-1]), dt=1e-3,
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
    begun = evolve_lanes(model, [starts[0], starts[3]], float(early[-1]),
                         dt=1e-3, sample_times=early, collapse_floor=floor)
    assert not any(traj.escaped for traj in begun)
    continued = evolve_lanes(model, begun, float(samples[-1]), dt=1e-3,
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


def test_only_a_surviving_fixed_step_solve_on_the_same_samples_continues(
        model, single_solves):
    starts, samples, floor, singles = single_solves
    survived, escaped = singles[0], singles[1]
    longer = np.append(samples, samples[-1] + 0.02)
    with pytest.raises(ValueError):
        evolve_lanes(model, [escaped], float(longer[-1]), dt=1e-3,
                     sample_times=longer)
    with pytest.raises(ValueError):
        evolve_lanes(model, [survived], float(longer[-1]), dt=5e-4,
                     sample_times=longer)
    with pytest.raises(ValueError):
        evolve_lanes(model, [survived], float(longer[-1]), dt=1e-3,
                     sample_times=longer[::2])
    with pytest.raises(ValueError):
        evolve_lanes(model, [survived, starts[0]], float(longer[-1]),
                     dt=1e-3, sample_times=longer)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(offsets=st.lists(
    st.tuples(st.sampled_from((-1.0, 0.0, 1.0)),
              st.floats(min_value=-2.0, max_value=-0.7)),
    min_size=1, max_size=4))
def test_every_lane_is_its_single_solve(workspace, model, offsets):
    samples = mesh_prefix(workspace.times, 3.0)
    floor = reference._collapse_floor(model)
    starts = [model.profile.values + sign * 10.0**power
              * workspace.unstable_mode for sign, power in offsets]
    solved = evolve_lanes(model, starts, float(samples[-1]), dt=2e-3,
                          sample_times=samples, collapse_floor=floor)
    for u0, mine in zip(starts, solved):
        single = evolve_lanes(model, [u0], float(samples[-1]), dt=2e-3,
                              sample_times=samples, collapse_floor=floor)[0]
        assert_same_solve(mine, single)
