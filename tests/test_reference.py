"""Full integrator versus the reduced picture: decay, shooting, witnesses."""

import numpy as np
import pytest

from adiaflow import reference
from adiaflow.errors import ConvergenceError
from adiaflow.grid import GridField
from adiaflow.manifold import construct_manifold_point
from adiaflow.modulation import decompose_state
from adiaflow.reference import (
    FullTrajectory,
    compare_effective,
    corrected_initial_state,
    evolve_full,
    extract_modulated,
    refine_correction,
)

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


@pytest.fixture(scope="module")
def refine_solves():
    """(initial state bytes, final time) of each full solve that the
    ``corrected_run`` refinement makes."""
    return []


@pytest.fixture(scope="module")
def corrected_run(workspace, model, grid, stable_direction, refine_solves):
    eta = GridField(0.01 * stable_direction.copy(), grid)
    point = construct_manifold_point(workspace, eta, delta=0.05, alpha=1.0,
                                     fixed_point_tol=1e-10, max_iter=30)

    def recording(model, u0, t_final, **kwargs):
        refine_solves.append((u0.values.tobytes(), float(t_final)))
        return evolve_full(model, u0, t_final, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference, "evolve_full", recording)
        refined = refine_correction(workspace, point, dt=1e-3,
                                    probe_time=12.0)
    u0 = corrected_initial_state(workspace, point, refined.beta)
    samples = workspace.times[workspace.times <= 10.0 + 1e-12]
    traj = evolve_full(model, u0, float(samples[-1]), fixed_dt=1e-3,
                       sample_times=samples)
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


@pytest.mark.parametrize("stage", [
    "short-probe bracketing", "short-probe polish", "full-probe bracketing",
])
def test_refinement_budget_binds_in_every_stage(
        corrected_run, refine_solves, workspace, monkeypatch, stage):
    point, refined, _ = corrected_run
    short_solves = sum(t_final < refined.probe_time
                       for _, t_final in refine_solves)
    budget = {
        "short-probe bracketing": 1,
        "short-probe polish": short_solves - 1,
        "full-probe bracketing": short_solves + 1,
    }[stage]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return evolve_full(*args, **kwargs)

    monkeypatch.setattr(reference, "evolve_full", counting)
    with pytest.raises(ConvergenceError, match=stage):
        refine_correction(workspace, point, dt=1e-3, probe_time=12.0,
                          max_evaluations=budget)
    assert len(calls) == budget


def test_escaping_polish_iterate_is_a_convergence_error(
        corrected_run, workspace, monkeypatch):
    point, _, _ = corrected_run
    calls = []

    def escaping_after_bracket(*args, **kwargs):
        traj = evolve_full(*args, **kwargs)
        calls.append(args[2])
        if len(calls) > 2:  # the two bracket ends survive, polish escapes
            traj.stats["escape_sign"] = 1
            traj.stats["escape_time"] = float(traj.times[-1])
        return traj

    monkeypatch.setattr(reference, "evolve_full", escaping_after_bracket)
    with pytest.raises(ConvergenceError, match="short-probe polish"):
        refine_correction(workspace, point, dt=1e-3, probe_time=12.0)
    assert len(calls) == 3


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
    plain = evolve_full(model, u0, 1.0, fixed_dt=1e-3, sample_times=ends)
    moved = evolve_full(model, u0s, 1.0, fixed_dt=1e-3, sample_times=ends)
    gap = grid.weak_norm_values(
        grid.shift_values(plain.u_samples[-1], shift) - moved.u_samples[-1]
    )
    assert gap <= 1e-10


@pytest.mark.parametrize("eps", [1e-3, 1e-4])
def test_even_perturbations_keep_the_chart_at_zero(model, grid,
                                                   stable_direction, eps):
    state = GridField(model.profile.values + eps * stable_direction, grid)
    point, w = decompose_state(model, state, model.origin)
    assert point.scalar == 0.0
    tangent = model.family_tangent(point)
    assert abs(w.inner(tangent)) <= 1e-12


def test_drift_of_the_corrected_bump(workspace, model, grid, point_bump,
                                     refined_bump, traj_bump):
    assert refined_bump.beta == pytest.approx(-4.2961748663815815e-05,
                                              rel=1e-6)
    assert refined_bump.evaluations <= 60
    assert not traj_bump.escaped
    extracted = extract_modulated(model, traj_bump, sigma_guess=0.0)
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
            model.family_tangent(model.symmetry_point(extracted.sigma[j])).values,
        ))
        for j in range(0, extracted.n_samples, 10)
    )
    assert worst <= 1e-10


def test_comparison_requires_the_shared_mesh(workspace, point_bump, grid):
    stray = FullTrajectory(
        times=np.array([0.0, 0.013]),
        u_samples=np.zeros((2, grid.n)),
        stats={},
    )
    with pytest.raises(ValueError):
        compare_effective(workspace, point_bump, stray, delta=0.05)
