"""Full integrator versus the reduced picture: decay, shooting, witnesses."""

import csv
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, note, settings
from hypothesis import strategies as st

from adiaflow import modulation, reference
from adiaflow.errors import AdiaflowError, ConvergenceError
from adiaflow.grid import GridField, PeriodicGrid
from adiaflow.manifold import construct_manifold_point
from adiaflow.modulation import decompose_state
from adiaflow.paths import TrajectoryPath, mesh_prefix
from adiaflow.presets import preset_field
from adiaflow.reference import (
    FullTrajectory,
    compare_effective,
    corrected_initial_state,
    evolve_lanes,
    extract_modulated,
    instability_witness,
    instability_witnesses,
    refine_correction,
    unstable_coefficient,
    witness_report,
)
from adiaflow.spectral import project_stable

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


def recording_steps(sizes, dt):
    """A ``_SplitStepper.step`` of a solve with whole steps of dt that logs
    the size of each step it takes, one entry per whole step of a call and
    one for its clamped step, the length its interval's plan gives."""
    step = reference._SplitStepper.step

    def recording(self, uh, count, interval, sample):
        stepped = step(self, uh, count, interval, sample)
        sizes.extend([dt] * min(stepped[3], count))
        if stepped[3] > count:
            sizes.append(self._lengths[interval])
        return stepped
    return recording


def new_stepper(grid, dt=1e-3, escape=(10.0, None), targets=()):
    """The stepper of a solve from t = 0 to the sample times ``targets``
    with whole steps of dt and the escape rule (ceiling, collapse floor)."""
    return reference._SplitStepper(grid, dt, escape, 0.0, list(targets))


@pytest.fixture(scope="module")
def equilibrium_deviation(model, grid):
    """The weak deviation from the pulse of a solve from the pulse itself,
    at dt 1e-3 / 16 on 81 samples to t = 2, and that solve."""
    traj = evolve_lanes(model, [model.profile.values], dt=6.25e-5,
                        sample_times=np.linspace(0.0, 2.0, 81))[0]
    return grid.weak_norm_values(
        traj.u_samples - model.profile.values[None, :]
    ), traj


@pytest.fixture(scope="module")
def uncorrected_run(model, stable_direction):
    u0 = model.profile.values + 0.01 * stable_direction
    return evolve_lanes(model, [u0], dt=1e-3,
                        sample_times=np.linspace(0.0, 10.0, 51))[0]


def recording_lanes(log, alter=None):
    """An ``evolve_lanes`` that logs (initial state bytes, final sample
    time, log index of the call's first lane) for each lane, then solves
    them; ``alter(index, trajectory)`` may change the trajectory of the lane
    with that index in the log."""
    def recording(model, starts, **kwargs):
        first = len(log)
        t_final = float(kwargs["sample_times"][-1])
        log.extend((np.asarray(u0).tobytes(), t_final, first)
                   for u0 in starts)
        trajectories = evolve_lanes(model, starts, **kwargs)
        if alter is not None:
            for index, traj in enumerate(trajectories, start=first):
                alter(index, traj)
        return trajectories
    return recording


@pytest.fixture(scope="module")
def refine_solves():
    """(initial state bytes, final time, first lane of its call) of each
    lane that the ``corrected_run`` refinement solves."""
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
    reason="at dt 6.25e-5 the deviation floor sits at ~1.2e-8, above this "
    "target, in two parts: the split-step equilibrium's Strang offset along "
    "e_u, c dt^2 expm1(2.5) ~ 4.6e-9 at t = 2, and the grid's stationarity "
    "defect relaxed on the stable range, 1.14e-8 at t = 2",
)
def test_equilibrium_persists_at_target_tolerance(equilibrium_deviation):
    dev, _ = equilibrium_deviation
    assert np.max(dev) <= 1e-8


def test_equilibrium_persists_at_the_discrete_floor(equilibrium_deviation):
    dev, traj = equilibrium_deviation
    assert np.max(dev) <= 2.5e-8
    assert dev[20] <= 1e-8  # t = 0.5, before the discrete offset accumulates
    assert traj.stats["steps"] > 5000
    assert traj.stats["escape_sign"] == 0


def test_the_equilibrium_floor_is_the_relaxed_stationarity_defect(
        equilibrium_deviation, model, grid, spectrum):
    # The grid's pulse is stationary only up to its defect g = E'(phi), and
    # the flow relaxes g linearly: on the stable range u(t) - phi is
    # -sum_k (1 - exp(-lambda_k t)) / lambda_k <g, e_k> e_k.  What is left
    # is the split step's own error, about 4 times smaller per halving of dt.
    _, traj = equilibrium_deviation
    lam, basis = spectrum.stable_basis
    phi = model.profile.values
    defect = grid.inner_values(model.gradient(model.profile).values, basis.T)
    t = traj.times[:, None]
    relaxed = -(1.0 - np.exp(-lam * t)) / lam * defect
    stable = grid.inner_values((traj.u_samples - phi)[:, None, :], basis.T)
    # The basis is weak-orthonormal, so the weak norm of a stable field is
    # the root sum of squares of its coefficients.
    residual = np.sqrt(np.sum((stable - relaxed)**2, axis=1))
    assert np.max(residual) <= 5e-10
    assert np.sqrt(np.sum(relaxed[-1]**2)) == pytest.approx(1.14e-8, rel=0.01)


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
    initial_states = [u0 for u0, _, _ in refine_solves]
    assert len(set(initial_states)) == len(initial_states)
    assert refined.evaluations <= 16
    # Short-probe solves come first and end well before the probe.
    finals = [t_final for _, t_final, _ in refine_solves]
    assert finals == sorted(finals)
    assert finals[0] <= 0.25 * refined.probe_time < finals[-1]
    assert finals[-1] == refined.probe_time


def test_the_short_probe_is_one_solve_of_the_bracket_ends_and_the_center(
        corrected_run, refine_solves, workspace):
    point, refined, _ = corrected_run
    short = [(np.frombuffer(u0), first) for u0, t_final, first
             in refine_solves if t_final <= 0.25 * refined.probe_time]
    assert [first for _, first in short] == [0, 0, 0]
    (lo, _), (hi, _), (center, _) = short
    base, mode = point.initial_state.values, workspace.unstable_mode
    assert np.array_equal(center, base)
    # The ends step from the fixed-point value along the unstable mode by
    # the same size in opposite directions, around the refined value.
    steps = [np.dot(end - base, mode) / np.dot(mode, mode)
             for end in (lo, hi)]
    for end, step in zip((lo, hi), steps):
        # Up to the rounding of adding the step to the base state.
        np.testing.assert_allclose(end - base, step * mode, rtol=0.0,
                                   atol=1e-15)
    assert steps[0] == pytest.approx(-steps[1], rel=1e-9)
    assert steps[0] < refined.beta - point.correction < steps[1]


def test_the_mid_probe_is_one_solve_that_starts_the_polish_near_the_root(
        corrected_run, refine_solves, workspace):
    _, refined, _ = corrected_run
    # The fourth lane is a call of its own, at the mesh time at or below
    # 0.7 of the probe time, between the short and the full probe.
    (_, t_mid, first), = [solve for solve in refine_solves
                          if 0.25 * refined.probe_time < solve[1]
                          < refined.probe_time]
    assert first == 3
    assert t_mid <= 0.7 * refined.probe_time
    assert t_mid in workspace.times
    times = [record[0] for record in refined.history]
    assert times.index(t_mid) == 3 and times.count(t_mid) == 1
    # Its Newton step starts the polish at least a hundred times nearer
    # beta* than the predictor it solved.
    _, predictor, _, value, _ = refined.history[3]
    start = refined.history[4][1]
    assert value is not None
    assert abs(start - refined.beta) * 100.0 < abs(predictor - refined.beta)


def test_the_history_records_every_lane_solve_in_order(
        corrected_run, refine_solves, workspace):
    point, refined, _ = corrected_run
    assert len(refined.history) == refined.evaluations == len(refine_solves)
    base, mode = point.initial_state.values, workspace.unstable_mode
    for (t, beta, sign, value, escape_time), (u0, t_final, _) in zip(
            refined.history, refine_solves):
        assert t == t_final
        assert np.array_equal(np.frombuffer(u0),
                              base + (beta - point.correction) * mode)
        assert sign in (-1.0, 1.0)
        assert value is None or sign == (1.0 if value > 0.0 else -1.0)
        assert (escape_time is None) == (value is not None)
    # beta* is the full-probe solve closest to zero, and the bracket reaches
    # the nearest surviving full-probe solve of the other sign.
    full = [(beta, sign, value) for t, beta, sign, value, _
            in refined.history
            if t == refined.probe_time and value is not None]
    beta, sign, _ = min(full, key=lambda solve: abs(solve[2]))
    assert beta == refined.beta
    assert refined.bracket == min(abs(other - beta)
                                  for other, other_sign, _ in full
                                  if other_sign != sign)
    assert "history" not in refined.payload()


@pytest.mark.parametrize("stage, before, spare", [
    pytest.param("short-probe bracketing", "none", 0,
                 id="short-probe bracketing"),
    pytest.param("short-probe bracketing", "none", 2,
                 id="short-probe bracketing, lanes short"),
    pytest.param("mid-probe", "short", 0, id="mid-probe"),
    pytest.param("full-probe bracketing", "escaped first round", 0,
                 id="full-probe bracketing"),
    pytest.param("full-probe polish", "mid", 0, id="full-probe polish"),
    pytest.param("full-probe polish", "mid", 1,
                 id="full-probe polish, lanes short"),
    pytest.param("full-probe polish", "first round", 0,
                 id="full-probe polish, lone iterate"),
])
def test_refinement_budget_binds_in_every_stage(
        corrected_run, refine_solves, workspace, monkeypatch, stage, before,
        spare):
    point, refined, _ = corrected_run
    short_solves = sum(t_final <= 0.25 * refined.probe_time
                       for _, t_final, _ in refine_solves)
    before_full = sum(t_final < refined.probe_time
                      for _, t_final, _ in refine_solves)
    assert before_full == short_solves + 1
    # Lane solves made before the solve that the budget stops; ``spare``
    # lanes more do not hold all lanes of that solve, so it is not started.
    made = {
        "none": 0,
        "short": short_solves,
        "mid": before_full,
        "escaped first round": before_full + 2,
        "first round": before_full + 2,
    }[before]
    budget = made + spare

    def escaping_first_round(index, traj):
        # The polish start and its partner escape, so the march starts.
        if before == "escaped first round" and index >= before_full:
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
    # Every lane after the first full-probe round, a pair, escapes; the
    # first lone iterate lies between the surviving, opposite-sign first
    # iterate and its partner.
    pair = [first for _, t_final, first in refine_solves
            if t_final == refined.probe_time][:2]
    assert pair[0] == pair[1]
    survivors = pair[0] + 2
    assert refined.evaluations > survivors

    def escaping(index, traj):
        if index >= survivors:
            traj.stats["escape_sign"] = 1
            traj.stats["escape_time"] = float(traj.times[-1])

    calls = []
    monkeypatch.setattr(reference, "evolve_lanes",
                        recording_lanes(calls, escaping))
    with pytest.raises(ConvergenceError, match="full-probe polish") as error:
        refine_correction(workspace, point, dt=1e-3, probe_time=12.0)
    assert len(calls) == survivors + 1
    assert "np.float64" not in str(error.value)


def test_an_escaping_mid_probe_solve_keeps_the_predictor(
        corrected_run, refine_solves, workspace, monkeypatch):
    point, refined, _ = corrected_run
    mid = sum(t_final <= 0.25 * refined.probe_time
              for _, t_final, _ in refine_solves)

    def escaping_mid(index, traj):
        if index == mid:
            traj.stats["escape_sign"] = 1
            traj.stats["escape_time"] = float(traj.times[-1])

    calls = []
    monkeypatch.setattr(reference, "evolve_lanes",
                        recording_lanes(calls, escaping_mid))
    kept = refine_correction(workspace, point, dt=1e-3, probe_time=12.0)
    # The polish starts at the predictor that the mid probe solved, and
    # still brackets the same root.
    assert calls[mid + 1][1] == refined.probe_time
    assert calls[mid + 1][0] == calls[mid][0]
    assert kept.history[mid][2:] == (1.0, None, calls[mid][1])
    assert abs(kept.beta - refined.beta) <= kept.bracket + refined.bracket


def test_a_collapsed_short_probe_end_takes_false_position_on_the_survivors(
        workspace, point_bump, monkeypatch):
    refined = refine_correction(workspace, point_bump, dt=1e-3,
                                probe_time=12.0)

    def collapsing_low_end(index, traj):
        if index == 0:
            traj.stats["escape_sign"] = -1
            traj.stats["escape_time"] = float(traj.times[-1])

    calls = []
    monkeypatch.setattr(reference, "evolve_lanes",
                        recording_lanes(calls, collapsing_low_end))
    kept = refine_correction(workspace, point_bump, dt=1e-3, probe_time=12.0)
    (_, _, sign_lo, value_lo, _), (_, hi, _, value_hi, _), \
        (t_short, center, _, value_c, _), \
        (t_mid, predictor, _, value_mid, _) = kept.history[:4]
    assert (sign_lo, value_lo) == (-1.0, None)
    # With no quadratic through three solves, the predictor is false
    # position on the surviving pair of opposite signs, the center and the
    # high end, and the mid-probe step takes that pair's secant slope,
    # grown by the unstable mode between the probes.
    assert predictor == center - value_c * (hi - center) / (value_hi - value_c)
    slope = (value_hi - value_c) / (hi - center) * np.exp(
        -workspace.unstable_eigenvalue * (t_mid - t_short))
    assert kept.history[4][1] == pytest.approx(predictor - value_mid / slope,
                                               rel=1e-12)
    # The collapsed end moved the mid-probe step to 1,500 round-off floors
    # above beta*, so it and its partner 1e-11 above it hold one sign, and
    # a second full-probe pair round runs.  That
    # round's iterate lands 1.17 floors from beta*, just outside the
    # one-floor stop, so a lone round follows: 9 lane solves in 5 calls.
    # Whether that lone round runs is round-off: under two BLAS threads,
    # whose eigenvector bits differ, the iterate landed on beta* and 8 ran.
    assert refined.evaluations == 7
    assert len(calls) == kept.evaluations == 9
    assert len({first for _, _, first in calls}) == 5
    assert abs(kept.beta - refined.beta) <= min(kept.bracket, refined.bracket)


def test_the_history_records_each_escaped_solves_escape_time(
        corrected_run, workspace, monkeypatch):
    point, refined, _ = corrected_run
    solves = []

    def low_ceiling_mid(model, starts, **kwargs):
        # The mid probe runs under a ceiling below the strong norm of its
        # state, 2.68, so its lane escapes at its first step.
        if 0.25 * refined.probe_time < kwargs["sample_times"][-1] \
                < refined.probe_time:
            kwargs = dict(kwargs, ceiling=2.0)
        trajectories = evolve_lanes(model, starts, **kwargs)
        solves.extend(trajectories)
        return trajectories

    monkeypatch.setattr(reference, "evolve_lanes", low_ceiling_mid)
    kept = refine_correction(workspace, point, dt=1e-3, probe_time=12.0)
    assert len(kept.history) == len(solves)
    assert any(traj.escaped for traj in solves)
    for (_, _, sign, value, escape_time), traj in zip(kept.history, solves):
        if traj.escaped:
            assert value is None and sign == traj.stats["escape_sign"]
            assert escape_time == traj.stats["escape_time"] > 0.0
        else:
            assert value is not None and escape_time is None
    assert "history" not in kept.payload()


def test_the_shooting_counts_are_pinned(refined_bump, corrected_run,
                                       refine_solves):
    # A change that adds a shooting round fails here, not only on the bench.
    assert refined_bump.evaluations == 7
    # This seed's first lone full-probe iterate lands on beta*, inside the
    # one-floor stop, so shooting ends there: 7 lane solves in 4 calls.
    # Whether a second lone round runs is round-off: under two BLAS
    # threads, whose eigenvector bits differ, that iterate landed 1.004
    # floors from beta*, just outside the stop, and one more solve ran.
    _, refined, _ = corrected_run
    assert refined.evaluations == len(refine_solves) == 7
    assert len({first for _, _, first in refine_solves}) == 4


def test_probe_20_shoots_in_at_most_8_lane_solves(workspace, point_bump):
    # The short-probe predictor escapes at this full probe, so without the
    # mid-probe step the polish would start with a serial march.
    refined = refine_correction(workspace, point_bump, dt=1e-3,
                                probe_time=20.0)
    assert refined.evaluations <= 8


@pytest.fixture(scope="module")
def strang_offset(workspace, model, grid):
    """c in beta*(0) = c dt^2 + O(dt^4): the unstable coefficient, per dt^2,
    of the split-step equilibrium's offset from the pulse.

    The Strang step exp(dt A/2) exp(dt B) exp(dt A/2) of A(u) = u_xx - u
    and B(u) = u^2 follows the modified field A + B + dt^2 R + O(dt^4),
    R = -[A,[A,B]]/24 + [B,[B,A]]/12 with [X,Y](u) = Y'(u)X(u) - X'(u)Y(u)
    (symmetric BCH formula; Hairer, Lubich and Wanner, Geometric Numerical
    Integration, 2nd ed., 2006).  Its equilibrium is the pulse plus
    -dt^2 L^-1 R(phi), where L = A'(phi) + B'(phi) is -lambda_u on e_u.
    """
    phi = model.profile.values

    def a(v):
        return grid.second_derivative_values(v) - v

    aab = (2.0 * a(phi)**2 + 2.0 * phi * a(a(phi)) - 4.0 * a(phi * a(phi))
           + a(a(phi**2)))
    bba = 2.0 * a(phi**3) + 2.0 * phi**2 * a(phi) - 4.0 * phi * a(phi**2)
    r = -aab / 24.0 + bba / 12.0
    return float(grid.inner_values(r, workspace.unstable_mode)
                 / workspace.unstable_eigenvalue)


def test_the_zero_seed_shoots_to_the_strang_offset(workspace, spectrum,
                                                  strang_offset):
    assert strang_offset == pytest.approx(0.104604, rel=1e-5)
    point = construct_manifold_point(
        workspace, preset_field("zero", spectrum), delta=0.05, alpha=1.0,
        fixed_point_tol=1e-10, max_iter=30)
    assert point.correction == 0.0
    refined = refine_correction(workspace, point, dt=1e-3)
    assert refined.beta == pytest.approx(strang_offset * 1e-6, rel=1e-4)


def test_the_zero_seed_at_a_coarse_step_widens_marches_and_bisects(
        workspace, spectrum, strang_offset):
    point = construct_manifold_point(
        workspace, preset_field("zero", spectrum), delta=0.05, alpha=1.0,
        fixed_point_tol=1e-10, max_iter=30)
    refined = refine_correction(workspace, point, dt=2e-2)
    history = refined.history
    # beta*(0), c dt^2 = 4.18e-5, lies outside the first short-probe
    # bracket, +-2e-5, so its ends give one sign and it widens: two more
    # ends, the center cached.
    short = [record for record in history if record[0] == history[0][0]]
    assert len(short) == 5
    assert short[0][2] == short[1][2]
    assert short[3][1] == 4.0 * short[0][1] and short[3][2] < 0 < short[4][2]
    # The first full-probe pair collapses, the march escapes on both sides,
    # and escape bisection solves between two escaped solves.
    full = [record for record in history if record[0] == refined.probe_time]
    assert [record[2:4] for record in full[:2]] == [(-1.0, None)] * 2
    assert {sign for _, _, sign, value, _ in full if value is None} \
        == {-1.0, 1.0}
    assert any(a < beta < b
               for k, (_, beta, _, _, _) in enumerate(full)
               for a in [r[1] for r in full[:k] if r[3] is None]
               for b in [r[1] for r in full[:k] if r[3] is None])
    # beta* is the surviving full-probe solve closest to zero, and the
    # bracket reaches the nearest survivor of the other sign.
    survived = [(beta, sign, value) for _, beta, sign, value, _ in full
                if value is not None]
    beta, sign, _ = min(survived, key=lambda solve: abs(solve[2]))
    assert beta == refined.beta
    assert refined.bracket == min(abs(other - beta)
                                  for other, other_sign, _ in survived
                                  if other_sign != sign)
    assert refined.beta == pytest.approx(strang_offset * 2e-2**2, rel=1e-2)


#: One Gaussian bump of a two-bump seed: sign, centre, width.
BUMP = st.tuples(st.sampled_from((-1.0, 1.0)),
                 st.floats(min_value=-6.0, max_value=6.0),
                 st.floats(min_value=0.4, max_value=3.0))


@settings(max_examples=4, deadline=None, derandomize=True)
@given(bumps=st.tuples(BUMP, BUMP),
       size=st.floats(min_value=0.005, max_value=0.045))
def test_two_bump_seeds_shoot_in_one_lane_pair_then_lone_iterates(
        workspace, spectrum, grid, strang_offset, bumps, size):
    raw = sum(sign * np.exp(-0.5 * ((grid.x - centre) / width)**2)
              for sign, centre, width in bumps)
    projected = project_stable(spectrum, GridField(raw, grid))
    assume(projected.strong_norm() > 1e-3)
    eta = GridField(size / projected.strong_norm() * projected.values, grid)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference, "evolve_lanes", recording_lanes(calls))
        try:
            point = construct_manifold_point(
                workspace, eta, delta=0.05, alpha=1.0,
                fixed_point_tol=1e-10, max_iter=30)
            refined = refine_correction(workspace, point, dt=2e-3)
        except AdiaflowError as error:
            note(f"typed failure: {error!r}")
            return
    # Full-probe rounds: the first solves a lane pair, every later one its
    # iterate alone, and round-off decides between one and three of them.
    firsts = [first for _, t_final, first in calls
              if t_final == refined.probe_time]
    lanes = [firsts.count(first) for first in dict.fromkeys(firsts)]
    note(f"full-probe rounds: {lanes}")
    assert lanes[0] == 2 and set(lanes[1:]) <= {1} and len(lanes) <= 3
    # beta* has a surviving full-probe neighbour of the other sign within
    # the first pair.
    full = [(beta, sign) for t, beta, sign, value, _ in refined.history
            if t == refined.probe_time and value is not None]
    sign = dict(full)[refined.beta]
    assert any(other_sign != sign
               and abs(other - refined.beta) == refined.bracket
               for other, other_sign in full)
    assert 0.0 < refined.bracket <= reference._FULL_PARTNER
    # beta* - beta is the split-step offset plus the Picard mesh error,
    # a few 1e-9 on these seeds.
    assert abs(refined.beta - point.correction - strang_offset * 4e-6) \
        <= 5e-8


@pytest.mark.parametrize("probe_time, snapped", [(28.6, "28.5073"),
                                                 (30.0, "30")])
def test_a_probe_time_past_the_round_off_limit_is_refused_before_any_solve(
        workspace, point_bump, monkeypatch, probe_time, snapped):
    # Round-off alone, 6.62e-15 in beta, grows by exp(1.25 t) to the
    # ceiling 10 near t = 28.
    calls = []
    monkeypatch.setattr(reference, "evolve_lanes", recording_lanes(calls))
    with pytest.raises(ConvergenceError,
                       match=f"at the probe time t = {snapped}:"):
        refine_correction(workspace, point_bump, dt=1e-3,
                          probe_time=probe_time)
    assert calls == []


def test_the_last_probe_time_below_the_round_off_limit_is_solved(
        workspace, point_bump, monkeypatch):
    class Solving(Exception):
        pass

    def solving(*args, **kwargs):
        raise Solving

    monkeypatch.setattr(reference, "evolve_lanes", solving)
    with pytest.raises(Solving):  # the mesh time 27.10
        refine_correction(workspace, point_bump, dt=1e-3, probe_time=27.2)


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


def test_parseval_norms_match_the_grid_norms(grid, stepper_norms):
    rng = np.random.default_rng(7)
    # The grid owns the weights; the stepper reads them, it keeps no copy.
    plain = new_stepper(grid)._plain
    assert plain is grid.parseval_weights()
    nyquist = np.cos(np.pi * np.arange(grid.n))
    for _ in range(5):
        vhat = np.zeros(grid.n // 2 + 1, dtype=complex)
        vhat[:64] = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) \
            * np.exp(-0.1 * np.arange(64))
        values = np.fft.irfft(vhat, grid.n) + rng.uniform(0.1, 1.0) * nyquist
        values_hat = np.fft.rfft(values)
        assert values_hat[-1] != 0.0
        assert stepper_norms.weak(plain, values_hat) == pytest.approx(
            float(grid.weak_norm_values(values)), rel=1e-13)
        assert stepper_norms.strong(plain, values_hat) == pytest.approx(
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


@pytest.mark.parametrize("dt", [0.5, 1.0, 2.0])
def test_a_step_that_damps_modes_below_the_float_range_reads_them_as_zero(
        model, grid, dt):
    # At a step of 0.5 the top modes' (m dt)^2 underflows, at 1 and 2 m dt
    # itself: the primed weights and the un-priming read them as zero, not
    # as zero times infinity, and the solve runs on as the textbook one.
    u0 = GridField(1e-3 * model.profile.values, grid)
    samples = [0.0, 4.0, 8.0]
    traj = evolve_lanes(model, [u0.values], dt=dt, sample_times=samples,
                        collapse_floor=1e-9)[0]
    times, states, sign, _ = physical_split_solve(model, u0, samples, dt,
                                                  collapse_floor=1e-9)
    assert traj.stats["escape_sign"] == sign == 0
    assert np.array_equal(traj.times, times)
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


def _stride_order(array):
    return np.argsort(array.strides, kind="stable").tolist()


# The study sizes and non-powers of two, where the inverse scale 1/n is not
# exact, up to eight lanes.
@pytest.mark.parametrize("n", [16, 192, 256, 512, 768, 1024, 1536])
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 6, 7, 8])
def test_the_solver_transforms_are_numpys_fft(n, rows):
    grid = PeriodicGrid(n)
    values = _nyquist_stack(n, rows, seed=10 * n + rows)
    values_hat = grid.rfft(values)
    assert np.all(values_hat[:, -1] != 0.0)
    # The grid's transforms are numpy's in bits and in the layout of their
    # output, which sets the order of the sums taken over it later (over a
    # transposed stack of eigenvectors, say): on 1-D, C- and F-ordered and
    # strided inputs.
    wide = _nyquist_stack(2 * n, rows, seed=10 * n + rows + 1)
    for given in (values[0], values, np.asfortranarray(values), wide[:, ::2],
                  np.asfortranarray(wide)[:, ::2]):
        mine, theirs = grid.rfft(given), np.fft.rfft(given)
        assert np.array_equal(mine, theirs)
        assert _stride_order(mine) == _stride_order(theirs)
        for spectrum in (theirs, np.asfortranarray(theirs),
                         theirs[..., ::-1]):
            mine, back = grid.irfft(spectrum), np.fft.irfft(spectrum, n)
            assert np.array_equal(mine, back)
            assert _stride_order(mine) == _stride_order(back)
    # The wavenumbers are 2 pi np.fft.rfftfreq, bitwise.
    assert np.array_equal(
        grid.wavenumbers.view(np.uint64),
        (2.0 * np.pi * np.fft.rfftfreq(n, d=grid.spacing)).view(np.uint64))
    # Priming, a whole step on the primed stack and the clamped step that
    # un-primes it, then the clamped step of an interval with no whole step
    # on the rfft, are the split step written with np.fft.
    dt, targets = 1e-2, [1.5e-2, 1.75e-2]
    rate = grid.wavenumbers**2 + 1.0
    half = np.exp(-0.5 * dt * rate)
    primed = values_hat * (half * dt).astype(complex)
    y = np.fft.irfft(primed, n)
    whole = np.fft.rfft(y / (1.0 - y)) * np.exp(-dt * rate).astype(complex)
    clamp = targets[0] - (0.0 + dt)
    after = np.exp(-0.5 * clamp * rate)
    v = np.fft.irfft(whole * (after * (1.0 / (half * dt))).astype(complex), n)
    clamped = np.fft.rfft(v / (1.0 - clamp * v)) * after.astype(complex)
    clamp = targets[1] - targets[0]
    after = np.exp(-0.5 * clamp * rate).astype(complex)
    v = np.fft.irfft(clamped * after, n)
    plain = np.fft.rfft(v / (1.0 - clamp * v)) * after

    def bits(array):
        return array.view(np.uint64)
    # In place over the stack, as the fixed-step solve steps it, one call
    # an interval, each writing its sample.
    kernel = new_stepper(grid, dt, targets=targets)
    assert kernel.whole == [1, 0]
    stack = kernel.bind(kernel.prime(values_hat.copy()))
    assert np.array_equal(bits(stack), bits(primed))
    for interval, expected in enumerate([clamped, plain]):
        sample = np.empty((rows, 2, n))[:, 1]
        stepped, blown, signs, taken = kernel.step(
            stack, kernel.whole[interval], interval, sample)
        assert blown is None and signs is None
        assert stepped is stack and taken == kernel.whole[interval] + 1
        assert np.array_equal(bits(stack), bits(expected))
        assert np.array_equal(bits(sample), bits(np.fft.irfft(expected, n)))


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_escape_checks_read_each_rows_own_weak_norm(grid, stepper_norms,
                                                    rows):
    plain = new_stepper(grid)._plain

    def escape_signs(*args):
        return stepper_norms.escape_signs(plain, *args)
    for seed in range(8):
        uh = grid.rfft(_nyquist_stack(grid.n, rows, seed=seed))
        norms = [stepper_norms.weak(plain, row) for row in uh]
        assert escape_signs(uh, 10.0, 0.5 * min(norms)) is None
        for row, norm in enumerate(norms):
            # At the row's own norm it collapses, one float below it does
            # not.
            signs = escape_signs(uh, 10.0, norm)
            assert signs[row] == -1
            assert signs.count(-1) == sum(other <= norm for other in norms)
            below = escape_signs(uh, 10.0, np.nextafter(norm, 0.0))
            assert below is None or below[row] == 0
            assert escape_signs(uh, norm, None)[row] == 1


def test_fixed_step_solve_makes_two_ffts_per_step(model, count_transforms):
    calls = count_transforms()
    samples = np.linspace(0.0, 0.2, 5)
    traj = evolve_lanes(model, [model.profile.values], dt=1e-3,
                        sample_times=samples)[0]
    steps = traj.stats["steps"]
    assert steps >= 200 and traj.n_samples == len(samples)
    # One forward transform of the initial state; the sample at t = 0 is
    # the initial state itself.
    assert calls == {"r2c": steps + 1, "c2r": steps + len(samples) - 1}


@pytest.fixture
def no_steps(monkeypatch):
    """Fails a test that reaches ``_SplitStepper.step``, the one step
    kernel, with any count, or that makes the inverse transform every step
    makes."""
    def refused(self, uh, count, *args):
        raise AssertionError(f"a call of {count} whole step(s) was made")

    def no_transform(*args):
        raise AssertionError("a step's inverse transform was made")
    monkeypatch.setattr(reference._SplitStepper, "step", refused)
    monkeypatch.setattr(PeriodicGrid, "c2r", no_transform)


# Below the floor, 1e-12, a dt plans more steps than a solve can take
# (1e-300: about 1e299 a sample interval) or overflows the plan (1e-320).
@pytest.mark.parametrize("dt", [0.0, -1e-3, math.inf, math.nan,
                                1e-320, 1e-300, 5e-13])
def test_a_bad_fixed_step_is_refused_before_any_step(model, no_steps, dt):
    with pytest.raises(ValueError, match="dt must be a positive finite"):
        evolve_lanes(model, [model.profile.values], dt=dt,
                     sample_times=np.linspace(0.0, 0.2, 5))


def test_the_smallest_fixed_step_is_taken(model):
    floor = reference.DT_FLOOR
    traj = evolve_lanes(model, [model.profile.values], dt=floor,
                        sample_times=[0.0, 3.5 * floor])[0]
    assert traj.stats["steps"] == 4 and traj.stats["final_dt"] == floor
    assert list(traj.times) == [0.0, 3.5 * floor]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_a_sample_time_that_is_not_finite_is_refused_before_any_step(
        model, no_steps, bad, where):
    samples = np.linspace(0.0, 0.2, 5)
    samples[where] = bad
    with pytest.raises(ValueError, match="sample times must be finite"):
        evolve_lanes(model, [model.profile.values], dt=1e-3,
                     sample_times=samples)


@pytest.mark.parametrize("ceiling", [0.0, -1.0, math.nan, math.inf])
def test_a_bad_ceiling_is_refused_before_any_step(model, no_steps, ceiling):
    samples = np.linspace(0.0, 0.2, 5)
    with pytest.raises(ValueError, match="ceiling must be a positive finite"):
        evolve_lanes(model, [model.profile.values], dt=1e-3,
                     sample_times=samples, ceiling=ceiling)


@pytest.mark.parametrize("floor", [-1.0, -math.inf, math.nan, math.inf])
def test_a_bad_collapse_floor_is_refused_before_any_step(model, no_steps,
                                                         floor):
    samples = np.linspace(0.0, 0.2, 5)
    with pytest.raises(ValueError, match="collapse_floor must be a finite"):
        evolve_lanes(model, [model.profile.values], dt=1e-3,
                     sample_times=samples, collapse_floor=floor)


def test_no_lanes_give_no_solves(workspace, model, point_bump, no_steps):
    assert evolve_lanes(model, [], dt=1e-3,
                        sample_times=np.linspace(0.0, 0.2, 5)) == []
    assert instability_witnesses(workspace, point_bump,
                                 point_bump.correction, [], delta=0.05) == []


@pytest.mark.parametrize("shape", [(100,), (1, 256), (257,), ()])
def test_a_start_that_is_not_one_value_per_grid_point_is_refused(
        model, no_steps, shape):
    starts = [model.profile.values, np.zeros(shape)]
    with pytest.raises(ValueError, match=rf"lane 1 starts from values of "
                       rf"shape {re.escape(str(shape))}, not one per grid "
                       rf"point \(n = 256\)"):
        evolve_lanes(model, starts, dt=1e-3,
                     sample_times=np.linspace(0.0, 0.2, 5))


def test_a_solve_whose_samples_start_after_zero_records_only_them(
        workspace, model, exact_solve):
    samples = np.array([0.1, 0.15, 0.2])
    starts = [model.profile.values,
              model.profile.values + 1e-2 * workspace.unstable_mode]
    for mine, u0 in zip(evolve_lanes(model, starts, dt=1e-3,
                                     sample_times=samples), starts):
        assert np.array_equal(mine.times, samples)
        assert_same_solve(mine, exact_solve(model, u0, 1e-3, samples))


def test_a_collapse_floor_of_zero_is_taken(model):
    samples = np.linspace(0.0, 0.2, 5)
    traj = evolve_lanes(model, [model.profile.values], dt=1e-3,
                        sample_times=samples, collapse_floor=0.0)[0]
    assert traj.stats["escape_sign"] == 0
    assert np.array_equal(traj.times, samples)


def counted_calls(monkeypatch):
    """Patches the step kernel to log, for each call, whether it took its
    clamped step and whether it returned an escape or blow-up."""
    calls = []
    step = reference._SplitStepper.step

    def counted(self, uh, count, *args):
        stepped = step(self, uh, count, *args)
        calls.append((stepped[3] > count,
                      stepped[1] is not None or stepped[2] is not None))
        return stepped

    monkeypatch.setattr(reference._SplitStepper, "step", counted)
    return calls


def test_a_state_past_the_watch_line_that_stays_below_the_ceiling_runs_on(
        model, monkeypatch):
    # The pulse's weak norm, 2.45, is past 0.4 of a ceiling of 5, so every
    # step reads its strong norm, 2.68, which stays below the ceiling, and
    # the kernel runs each interval in one call.
    samples = np.linspace(0.0, 0.2, 5)
    calls = counted_calls(monkeypatch)
    traj = evolve_lanes(model, [model.profile.values], dt=1e-3,
                        sample_times=samples, ceiling=5.0)[0]
    assert traj.stats["escape_sign"] == 0
    assert traj.stats["escape_time"] is None
    assert np.array_equal(traj.times, samples)
    assert calls == [(True, False)] * (len(samples) - 1)


@pytest.mark.parametrize("offsets", [[1e-2], [1e-3, -1e-3]])
def test_a_solve_makes_one_kernel_call_per_interval_plus_one_per_escape(
        workspace, model, point_bump, monkeypatch, offsets):
    # A blow-up witness, and a witness pair whose first escape leaves the
    # other lane to finish its interval in a second call.
    samples = mesh_prefix(workspace.times, 20.0)
    starts = [corrected_initial_state(workspace, point_bump,
                                      point_bump.correction, offset).values
              for offset in offsets]
    calls = counted_calls(monkeypatch)
    solved = evolve_lanes(model, starts, dt=1e-3, sample_times=samples,
                          collapse_floor=reference.collapse_floor(model))
    assert [traj.stats["escape_sign"] for traj in solved] \
        == list(np.sign(offsets))
    ends = sorted(traj.stats["escape_time"] for traj in solved)
    # An escape after a step at t lies in the interval that ends at the
    # first sample at or after t; the stack enters intervals up to the one
    # its last lane escapes in, and a lane that escapes before it between
    # samples leaves the others one more call.
    entered = int(np.searchsorted(samples, ends[-1]))
    between = sum(t not in samples for t in ends[:-1])
    assert len(calls) == entered + between
    assert between == len(offsets) - 1
    # Every call takes its interval's clamped step or returns an escape.
    assert all(clamped or event for clamped, event in calls)
    assert sum(event for _, event in calls) == len(offsets)


def test_a_lane_that_blows_up_leaves_the_stack(workspace, model, monkeypatch):
    # With a ceiling this high only the quadratic substep's denominator can
    # end the second lane; the first survives beside it.
    samples = mesh_prefix(workspace.times, 5.0)
    starts = [model.profile.values,
              model.profile.values + 3e-2 * workspace.unstable_mode]
    blown = []
    step = reference._SplitStepper.step

    def spied(self, *args):
        stepped = step(self, *args)
        if stepped[1] is not None:
            blown.append(stepped[1].tolist())
        return stepped

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


def test_a_lane_that_blows_up_in_a_clamped_step_leaves_the_sample_to_the_rest(
        workspace, model, exact_solve):
    # Samples closer than a step apart: every step is the clamped step onto
    # a sample, so the second lane blows up in one, and the first records
    # that step's sample without it.
    samples = np.arange(0.0, 5.0, 5e-3)
    starts = [model.profile.values,
              model.profile.values + 3e-2 * workspace.unstable_mode]
    assert reference._whole_steps(samples[1], 1e-2) == 0
    solved = evolve_lanes(model, starts, dt=1e-2, sample_times=samples,
                          ceiling=1e6)
    assert [traj.stats["escape_sign"] for traj in solved] == [0, 1]
    assert solved[0].n_samples == len(samples) > solved[1].n_samples
    for mine, u0 in zip(solved, starts):
        assert_same_solve(mine, evolve_lanes(model, [u0], dt=1e-2,
                                             sample_times=samples,
                                             ceiling=1e6)[0])
        assert_same_solve(mine, exact_solve(model, u0, 1e-2, samples, 1e6))


#: Lanes for the counted step kernel: offsets along the unstable mode and
#: the ceiling, with the escape sign of each lane.
KERNEL_CASES = {
    "quiet": ([0.0], 10.0, [0]),
    # The pulse's weak norm, 2.45, is past 0.4 of a ceiling of 5, so every
    # step leaves the quiet band.
    "past-the-watch-line": ([0.0], 5.0, [0]),
    "blow-up-beside-a-survivor": ([0.0, 3e-2], 1e6, [0, 1]),
    "collapse": ([-1e-2], 10.0, [-1]),
    "reaches-the-ceiling": ([1e-2], 10.0, [1]),
}


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_the_counted_step_kernel_is_bitwise_single_steps(
        workspace, model, monkeypatch, exact_solve, case):
    # Kernel calls of many steps, against the plain solve that takes one
    # step at a time and applies the escape rule after each.
    offsets, ceiling, signs = KERNEL_CASES[case]
    samples = mesh_prefix(workspace.times, 5.0)
    floor = reference.collapse_floor(model)
    starts = [model.profile.values + offset * workspace.unstable_mode
              for offset in offsets]
    step = reference._SplitStepper.step
    counts = []

    def counted(self, uh, count, *args):
        counts.append(count)
        return step(self, uh, count, *args)

    monkeypatch.setattr(reference._SplitStepper, "step", counted)
    kernel = evolve_lanes(model, starts, dt=1e-3, sample_times=samples,
                          ceiling=ceiling, collapse_floor=floor)
    assert max(counts) > 1
    assert [traj.stats["escape_sign"] for traj in kernel] == signs
    for mine, u0 in zip(kernel, starts):
        theirs = exact_solve(model, u0, 1e-3, samples, ceiling, floor)
        assert_same_solve(mine, theirs)
        assert mine.stats["escape_time"] == theirs.stats["escape_time"]
        assert (mine.end is None) == (theirs.end is None)
        if mine.end is not None:
            assert mine.end[0] == theirs.end[0]
            assert np.array_equal(mine.end[1], theirs.end[1])


def same_call(mine, theirs):
    """Whether two step-kernel results are the same: stack bits, blown
    mask, escape signs and steps taken."""
    (uh, blown, signs, taken), (uh_, blown_, signs_, taken_) = mine, theirs
    return (taken == taken_
            and np.array_equal(uh.view(np.uint64), uh_.view(np.uint64))
            and (blown is None) == (blown_ is None)
            and (blown is None or np.array_equal(blown, blown_))
            and signs == signs_)


#: An offset along e_u of size 1e-6 to 5e-2, either sign.
OFFSET = st.tuples(st.sampled_from((-1.0, 1.0)),
                   st.floats(min_value=-6.0, max_value=math.log10(5e-2)),
                   ).map(lambda drawn: drawn[0] * 10.0**drawn[1])


def kernel_call(exact_step, grid, dt, escape, kernel, uh, count, interval):
    """One call of the step kernel, the stepper of a solve with whole steps
    of dt and the escape rule ``escape``, on its bound stack uh, with
    ``count`` whole steps left in sample interval ``interval``, checked
    against the exact tests; its result and its sample, NaN where the call
    wrote none."""
    theirs = exact_step(grid, uh, dt, count, *escape,
                        kernel._lengths[interval], kernel.whole[interval] > 0)
    sample = np.full((len(uh), grid.n), np.nan)
    mine = kernel.step(uh, count, interval, sample)
    assert same_call(mine, theirs)
    if mine[3] > count:
        kept = slice(None) if mine[1] is None else ~mine[1]
        assert np.array_equal(sample[kept], np.fft.irfft(mine[0], grid.n))
    return mine, sample


@settings(max_examples=10, deadline=None, derandomize=True)
@given(offsets=st.lists(OFFSET, min_size=1, max_size=3),
       zero_lane=st.booleans(),
       dt=st.floats(min_value=2.5e-4, max_value=4e-3),
       ceiling=st.sampled_from((5.0, 10.0, 1e6)),
       with_floor=st.booleans(),
       count=st.integers(min_value=1, max_value=64))
@example(offsets=[0.0, 3e-2], zero_lane=False, dt=1e-3, ceiling=1e6,
         with_floor=True, count=20)  # a blow-up beside a survivor
@example(offsets=[-1e-2], zero_lane=True, dt=1e-3, ceiling=10.0,
         with_floor=True, count=20)  # a collapse
@example(offsets=[1e-2, 1e-6], zero_lane=False, dt=1e-3, ceiling=10.0,
         with_floor=True, count=20)  # through the band's top to the ceiling
@example(offsets=[-1e-2], zero_lane=True, dt=1e-3, ceiling=10.0,
         with_floor=True, count=1)  # each clamped step reads its entry
def test_the_step_kernel_stops_where_the_exact_tests_stop(
        workspace, model, exact_step, offsets, zero_lane, dt, ceiling,
        with_floor, count):
    starts = [model.profile.values + offset * workspace.unstable_mode
              for offset in offsets]
    if zero_lane:
        starts.append(np.zeros(model.grid.n))
    floor = reference.collapse_floor(model) if with_floor else None
    # Sample intervals of count whole steps and a clamped step of about
    # half a step to t = 5, stepped in place as a solve steps them: one
    # call an interval, and one more after each escape, when the escaped
    # rows leave and the stepper binds the rest.
    gap = (count + 0.5) * dt
    targets = gap * np.arange(1, math.ceil(5.0 / gap) + 1)
    escape = ceiling, floor
    kernel = new_stepper(model.grid, dt, escape, targets)
    assert set(kernel.whole) == {count}
    uh = kernel.bind(model.grid.rfft(np.array(starts)))
    for interval in range(len(targets)):
        kernel.prime(uh)
        taken = 0
        while len(uh) and taken <= count:
            (uh, blown, signs, done), _ = kernel_call(
                exact_step, model.grid, dt, escape, kernel, uh,
                count - taken, interval)
            taken += done
            if signs is not None:
                uh = uh[[not sign for sign in signs]]
            if blown is not None or signs is not None:
                kernel.bind(uh)
        if not len(uh):
            break


@pytest.mark.parametrize("edge", ["low", "high"])
def test_the_kernels_bounds_leave_round_off_to_the_exact_tests(
        grid, exact_step, stepper_norms, edge):
    # A step of 1e-20 damps no mode and moves no value (m and 1 - y round
    # to 1), so a state's sum of squares gives its weak norm, and that
    # after the step, up to round-off alone.  With the quiet band's edge at
    # the weak norm after one step, the exact tests stop there: at the
    # bottom the collapse floor is that norm; at the top the watch line,
    # 0.4 of the ceiling, is the largest at or below it, and a ripple of
    # 32 to 63 periods has a strong norm past the ceiling.  A primed sum of
    # squares scales by dt^2, so a step of 1e-300 would underflow it.
    dt = 1e-20
    probe = new_stepper(grid, dt)
    x = np.arange(grid.n) / grid.n
    for seed in range(16):
        if edge == "low":
            state = _nyquist_stack(grid.n, 1, seed=seed)
        else:
            rng = np.random.default_rng(seed)
            state = 0.3 * np.sin(2.0 * np.pi * rng.integers(
                grid.n // 8, grid.n // 4) * x + rng.uniform(0.0, 6.0))[None]
        uh = probe.prime(grid.rfft(state))
        after = exact_step(grid, uh, dt)[0][0]
        norm = stepper_norms.weak(probe._primed, after)
        if edge == "low":
            ceiling, floor = 5.0 * norm, norm
        else:
            ceiling, floor = norm / 0.4, None
            while 0.4 * ceiling > norm:
                ceiling = np.nextafter(ceiling, 0.0)
            assert stepper_norms.strong(probe._primed, after) >= ceiling
        # An interval of two whole steps and a clamped half step.
        kernel = new_stepper(grid, dt, (ceiling, floor), [2.5 * dt])
        (_, _, signs, taken), sample = kernel_call(
            exact_step, grid, dt, (ceiling, floor), kernel, kernel.bind(uh),
            2, 0)
        assert signs == [-1 if edge == "low" else 1] and taken == 1, seed
        assert np.isnan(sample).all()


def test_the_clamped_step_reads_a_state_its_whole_steps_left_unread(
        grid, exact_step, stepper_norms):
    # As above at the band's bottom, but the one whole step's bound leaves
    # its result unread, and the clamped step's bound on its unscaled
    # half-stepped values has to stop the call at the collapse before it.
    dt = 1e-20
    probe = new_stepper(grid, dt)
    for seed in range(16):
        uh = probe.prime(grid.rfft(_nyquist_stack(grid.n, 1, seed=seed)))
        norm = stepper_norms.weak(probe._primed,
                                  exact_step(grid, uh, dt)[0][0])
        escape = 5.0 * norm, norm
        kernel = new_stepper(grid, dt, escape, [1.5 * dt])
        assert kernel.whole == [1]
        (_, _, signs, taken), sample = kernel_call(
            exact_step, grid, dt, escape, kernel, kernel.bind(uh), 1, 0)
        assert signs == [-1] and taken == 1, seed
        assert np.isnan(sample).all()


@pytest.mark.parametrize("reach", [0.35, 0.399, 0.45, 0.5, 0.55])
def test_the_kernels_bounds_hold_at_a_spike(grid, exact_step, reach):
    # A primed state whose values y = irfft(z), dt times the half-stepped
    # values, are one spike of height reach has sum(y^2) = reach^2, where
    # |y_i| <= sqrt(sum(y^2)) is tight: at reach 0.5 its denominator sits
    # on the floor.  An interval of two whole steps and a clamped half
    # step.
    dt = 1e-3
    spike = np.zeros((1, grid.n))
    spike[0, grid.n // 2] = reach
    kernel = new_stepper(grid, dt, (1e6, None), [2.5 * dt])
    (_, blown, _, taken), sample = kernel_call(
        exact_step, grid, dt, (1e6, None), kernel,
        kernel.bind(grid.rfft(spike)), 2, 0)
    # It blows up in the first step exactly when reach >= 0.5; the sample
    # is written when the call takes the clamped step.
    assert (blown is not None and taken == 1) == (reach >= 0.5)
    assert (taken == 3) == (not np.isnan(sample).any())


@pytest.mark.parametrize("dt", [1e-3, 5e-4, 2.5e-4])
def test_a_solve_from_the_pulse_drifts_by_the_strang_offset(
        workspace, model, grid, strang_offset, dt):
    # The split-step equilibrium sits c dt^2 along e_u from the pulse (see
    # strang_offset), so the pulse is -c dt^2 e_u off it, and the unstable
    # mode grows that by exp(growth t) while the equilibrium stays.
    traj = evolve_lanes(model, [model.profile.values], dt=dt,
                        sample_times=[0.0, 2.0])[0]
    assert traj.stats["steps"] == round(2.0 / dt)
    coefficient = grid.inner_values(traj.u_samples[-1] - model.profile.values,
                                    workspace.unstable_mode)
    growth = -workspace.unstable_eigenvalue
    expected = -strang_offset * dt**2 * math.expm1(growth * 2.0)
    assert coefficient == pytest.approx(expected, rel=1e-4)


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
    """Make every decomposition of an extraction after the first n_good
    fail."""
    def decompose(*args, **kwargs):
        for calls, decomposed in enumerate(
                modulation.decompose_states(*args, **kwargs), start=1):
            if calls > n_good:
                raise ConvergenceError("left the tubular neighborhood")
            yield decomposed

    monkeypatch.setattr(reference, "decompose_states", decompose)


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


def test_an_extraction_transforms_all_samples_at_once(
        model, point_bump, witness_solves, count_transforms, monkeypatch):
    traj = witness_solves[1e-3]
    transforms = count_transforms()
    trials = []
    constraint = modulation._constraint

    def recorded(model, weighted, s, buffers):
        trials.append(s)
        return constraint(model, weighted, s, buffers)

    monkeypatch.setattr(modulation, "_constraint", recorded)
    extracted = extract_modulated(model, traj, point_bump.sigma0)
    assert extracted.n_samples > 100
    # Hundreds of Newton trials beside each sample's first constraint
    # evaluation, and none transforms: one batched rfft of the samples,
    # one batched irfft of the family points.
    assert len(trials) - extracted.n_samples > 100
    assert transforms == {"r2c": 1, "c2r": 1}


def test_extraction_carries_each_samples_frame_to_the_next(
        model, grid, point_bump, witness_solves):
    # Each sample's chart solve starts from the chart point, and so the
    # frame, that the sample before accepted: decompose_state chained state
    # by state from the same guess gives the extraction's bits, and fails
    # where its prefix ends.
    traj = witness_solves[1e-3]
    assert traj.escaped
    extracted = extract_modulated(model, traj, point_bump.sigma0)
    sigma, sigmas, remainders = point_bump.sigma0, [], []
    for values in traj.u_samples[:extracted.n_samples]:
        sigma, w = decompose_state(model, GridField(values, grid), sigma)
        sigmas.append(sigma)
        remainders.append(w.values)
    if extracted.n_samples < traj.n_samples:
        with pytest.raises(ConvergenceError):
            decompose_state(model, GridField(
                traj.u_samples[extracted.n_samples], grid), sigma)
    assert extracted.n_samples > 100
    assert np.array_equal(extracted.sigma, sigmas)
    assert np.array_equal(extracted.w, remainders)


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
        monkeypatch, tmp_path):
    from adiaflow import harness

    def refuse(*args, **kwargs):
        raise AssertionError("the readout extracted the trajectory again")

    monkeypatch.setattr(reference, "extract_modulated", refuse)
    monkeypatch.setattr(harness, "extract_modulated", refuse)
    monkeypatch.setattr(reference, "decompose_states", refuse)
    coefficients = frame_coefficients(workspace, extracted_bump)
    path = tmp_path / "traj.csv"
    harness.write_trajectory_csv(str(path), traj_bump, extracted_bump,
                                 traj_bump.energies(model), coefficients)
    with open(path, encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert len(rows) == traj_bump.n_samples
    comparison = compare_effective(workspace, point_bump, traj_bump,
                                   extracted_bump, delta=0.05)
    assert comparison["n_samples"] == traj_bump.n_samples
    quiet = witness_report(traj_bump, extracted_bump, coefficients, 0.0,
                           delta=0.05)
    # The CSV column and the witness read the one coefficient array.
    assert header[3] == "unstable_coefficient"
    assert np.array_equal([float(row[3]) for row in rows], quiet.coefficients)


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
                        recording_steps(sizes, dt))
    evolve_lanes(model, [model.profile.values], dt=dt, sample_times=samples)
    gaps = np.diff(samples) / dt
    assert np.any(gaps % 1.0 > 0.01)  # the mesh has partial steps past 4
    assert len(sizes) == int(np.sum(np.ceil(np.round(gaps, 6))))
    assert min(sizes) > 0.005 * dt
    assert max(sizes) <= dt * (1.0 + 1e-9)


@settings(max_examples=300, deadline=None)
@given(dt=st.one_of(st.integers(-30, 5).map(lambda k: 1e-3 * 2.0**k),
                    st.floats(reference.DT_FLOOR, 5e-2)),
       steps=st.one_of(
           st.floats(1e-6, 64.0),
           st.floats(1e-200, 1e-9),
           st.tuples(st.integers(1, 64), st.floats(-1e-7, 1e-7)).map(sum)))
@example(dt=1e-3, steps=1.0 + 1.5e-9)
@example(dt=1e-3, steps=5e-10)
def test_the_step_plan_clamps_one_step_onto_each_sample(dt, steps):
    gap, slack = steps * dt, reference._STEP_SLACK
    # A solve counts the whole steps once per interval.
    rest = gap - reference._whole_steps(gap, dt) * dt
    assert 0.0 < rest <= dt * (1.0 + 2.0 * slack)


def test_samples_within_round_off_of_a_step_are_recorded(model):
    # A decaying state, so that a solve which steps past a sample collapses
    # instead of running on.
    values = 1e-3 * model.profile.values
    floor = 0.5 * float(model.grid.weak_norm_values(values))
    # The whole step of 1e-3 leaves 1.5e-12 to the sample, the clamped step.
    near = 1e-3 * (1.0 + 1.5e-9)
    traj = evolve_lanes(model, [values], dt=1e-3, sample_times=[0.0, near],
                        collapse_floor=floor)[0]
    assert traj.stats["steps"] == 2
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


@pytest.fixture(scope="module")
def exact_solves(model, single_solves, exact_solve):
    """The plain per-step solve of each of the LANE_OFFSETS starts."""
    starts, samples, floor, _ = single_solves
    return [exact_solve(model, u0, 1e-3, samples, collapse_floor=floor)
            for u0 in starts]


def assert_same_end(mine, theirs):
    assert (mine.end is None) == (theirs.end is None)
    if mine.end is not None:
        assert mine.end[0] == theirs.end[0]
        assert np.array_equal(mine.end[1].view(np.uint64),
                              theirs.end[1].view(np.uint64))


@pytest.mark.parametrize("lanes", [1, 4])
def test_lanes_are_bitwise_the_plain_per_step_solve(model, single_solves,
                                                     exact_solves, lanes):
    starts, samples, floor, _ = single_solves
    if lanes == 1:
        solved = [evolve_lanes(model, [u0], dt=1e-3, sample_times=samples,
                               collapse_floor=floor)[0] for u0 in starts]
    else:
        solved = evolve_lanes(model, starts, dt=1e-3, sample_times=samples,
                              collapse_floor=floor)
    assert [traj.stats["escape_sign"] for traj in exact_solves] \
        == [0, 1, -1, 1]
    for mine, theirs in zip(solved, exact_solves):
        assert_same_solve(mine, theirs)
        assert mine.stats["escape_time"] == theirs.stats["escape_time"]
        assert_same_end(mine, theirs)


def test_a_continued_solve_is_bitwise_the_plain_per_step_solve(
        workspace, model, single_solves, exact_solves):
    starts, samples, floor, _ = single_solves
    begun = evolve_lanes(model, [starts[0], starts[3]], dt=1e-3,
                         sample_times=mesh_prefix(workspace.times, 3.0),
                         collapse_floor=floor)
    continued = evolve_lanes(model, begun, dt=1e-3, sample_times=samples,
                             collapse_floor=floor)
    for mine, theirs in zip(continued, (exact_solves[0], exact_solves[3])):
        assert_same_solve(mine, theirs)
        assert list(mine.stats) == list(theirs.stats)
        assert_same_end(mine, theirs)


def test_the_clamped_steps_take_each_intervals_own_multipliers(workspace,
                                                               grid):
    # A solve plans every interval once: its whole steps, the length of
    # its clamped step, the sample time less the interval's start plus
    # those whole steps, and that step's half-step multiplier, each row of
    # one exp over all the lengths bitwise the exp of its own.
    dt, targets = 1e-3, mesh_prefix(workspace.times, 20.0)[1:].tolist()
    kernel = new_stepper(grid, dt, targets=targets)
    lengths = kernel._lengths
    assert len(lengths) == len(kernel.whole) == len(kernel._halves) \
        == len(targets)
    assert len(set(lengths)) > 10
    rate = grid.wavenumbers**2 + 1.0
    for begin, target, whole, length, half in zip(
            [0.0] + targets, targets, kernel.whole, lengths, kernel._halves):
        assert whole == reference._whole_steps(target - begin, dt)
        assert length == target - (begin + whole * dt)
        assert np.array_equal(half.view(np.uint64),
                              np.exp(-0.5 * length * rate).view(np.uint64))


def test_energies_are_bitwise_the_per_sample_energies(model, grid,
                                                      traj_bump):
    one = FullTrajectory(traj_bump.times[:1], traj_bump.u_samples[:1])
    for traj in (traj_bump, one):
        each = np.array([model.energy(GridField(u, grid))
                         for u in traj.u_samples])
        assert np.array_equal(traj.energies(model).view(np.uint64),
                              each.view(np.uint64))
    stray = traj_bump.u_samples[:3].copy()
    stray[1, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        FullTrajectory(traj_bump.times[:3], stray).energies(model)


def test_a_solve_frees_its_stepper_without_the_garbage_collector(
        model, monkeypatch):
    # The stepper keeps the row views of the stack it binds and its plan's
    # multiplier table; a reference from them back to the stepper would be
    # a cycle that keeps every solve's stepper alive until a full
    # collection.
    import gc
    import weakref

    steppers = []
    init = reference._SplitStepper.__init__

    def recorded(self, *args):
        init(self, *args)
        steppers.append(weakref.ref(self))

    monkeypatch.setattr(reference._SplitStepper, "__init__", recorded)
    enabled = gc.isenabled()
    gc.disable()
    try:
        pulse = model.profile.values
        evolve_lanes(model, [pulse, 1.01 * pulse], dt=1e-3,
                     sample_times=np.linspace(0.0, 0.5, 6), collapse_floor=0.1)
        assert len(steppers) == 1 and steppers[0]() is None
    finally:
        if enabled:
            gc.enable()
