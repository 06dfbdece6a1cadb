"""Grid convergence: the correction, the shooting root and the bound states
across grid sizes, at the fixed time mesh and step of the default run.

The sizes are those of the grid study: 192, 256, 384, 512, 768, 1024 and
1536.  The default grid is 256 points, the smallest power of two that also
resolves the narrowest fields the program draws (tested below).  The pulse
is smooth and exponentially localized, so every discretization error in n
is far below round-off from 192 points on:

* the Picard correction beta agrees across all sizes to 4.2e-17 (2.8e-17
  over the powers of two);
* the three Poschl-Teller bound states -5/4, 0 and 3/4 come out at every
  size, the third with the same wrap error of the domain, -2.47e-8, to
  7e-13;
* the shooting root, read off a line through seven probe solves 1e-12
  apart, sits within 4.3 round-off floors at 256, 512 and 1024 points.

Where the root does move with n, the transforms move it: sizes with a factor
3 sit 48 to 55 floors from the powers of two, and writing the real
transforms as complex FFTs, the same transform up to round-off, moves the
root by 8 to 37 floors at a fixed size (14.8 at 512, whether the solver's
transforms alone or all of them are swapped).  A one-ulp change of
the initial state moves it by at most 0.23 floors.  So the root's spread
over n is the transforms' round-off, and 512 or 1024 points buy no
accuracy.
"""

import numpy as np
import pytest

from adiaflow import reference
from adiaflow.config import ExperimentConfig
from adiaflow.grid import (DEFAULT_N_POINTS, GridField, PeriodicGrid,
                           smooth_noise)
from adiaflow.harness import build_runtime
from adiaflow.manifold import construct_manifold_point
from adiaflow.modulation import decompose_state
from adiaflow.paths import mesh_prefix
from adiaflow.presets import preset_field

SIZES = (192, 256, 384, 512, 768, 1024, 1536)
POWERS_OF_TWO = (256, 512, 1024)

#: Spacing of the seven probe lanes around the shooting root, about 150
#: round-off floors: wide enough that the line fit sees the slope, narrow
#: enough that the probe coefficient is linear across the lanes.
LANE_SPACING = 1e-12


@pytest.fixture(scope="module")
def points(grid, workspace, point_bump):
    """(workspace, bump point) per size; the session's at the default."""
    built = {grid.n: (workspace, point_bump)}
    for n in SIZES:
        if n not in built:
            cfg = ExperimentConfig()
            cfg.model.n_points = n
            ws = build_runtime(cfg).workspace
            eta = preset_field("stable-bump", ws.spectrum)
            built[n] = ws, construct_manifold_point(
                ws, eta, delta=0.05, alpha=1.0, fixed_point_tol=1e-10,
                max_iter=30)
    return built


def _probe_root(workspace, point, center, probe_time):
    """(root, largest fit residual in beta) of the line through the probe
    coefficients of seven fixed-step solves spaced LANE_SPACING around
    center, each read as ``refine_correction`` reads its probe solves."""
    model, grid, mode = workspace.model, workspace.grid, workspace.unstable_mode
    offsets = LANE_SPACING * np.arange(-3, 4)
    base = point.initial_state.values
    trajectories = reference.evolve_lanes(
        model, [base + (center + d - point.correction) * mode
                for d in offsets],
        dt=1e-3, sample_times=mesh_prefix(workspace.times, probe_time),
        collapse_floor=reference.collapse_floor(model))
    values = []
    for traj in trajectories:
        assert not traj.escaped
        sigma, w = decompose_state(
            model, GridField(traj.u_samples[-1].copy(), grid), point.sigma0)
        values.append(float(reference.unstable_coefficient(
            grid, mode, workspace.sigma0, sigma, w.values)))
    slope, intercept = np.polyfit(offsets, values, 1)
    residual = np.max(np.abs(values - (slope * offsets + intercept)))
    return center - intercept / slope, residual / slope


def _nyquist_share(values):
    """The share of a field's rfft coefficient norm in the Nyquist mode."""
    vhat = np.abs(np.fft.rfft(values))
    return vhat[-1] / np.sqrt(np.sum(vhat**2))


@pytest.mark.parametrize("n, resolved", [
    (DEFAULT_N_POINTS, True), (DEFAULT_N_POINTS // 2, False)])
def test_the_default_grid_resolves_the_narrowest_fields_drawn(n, resolved):
    # The narrowest fields the program draws are cutoff-4 smooth noise (the
    # ledger's probes) and, in the benchmark's seeds, a Gaussian of width
    # 0.5.  The default grid leaves their Nyquist modes below 1e-10 of
    # their size; half of it does not: there the noise filter
    # exp(-(k/4)^2) still passes 1.8e-3 at k_N = 10.05.
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(3)
    shares = [_nyquist_share(smooth_noise(grid, rng, 4.0)) for _ in range(8)]
    shares.append(_nyquist_share(np.exp(-0.5 * (grid.x / 0.5) ** 2)))
    assert (max(shares) < 1e-10) == resolved
    assert (min(shares) < 1e-10) == resolved


def test_the_correction_is_converged_in_the_grid(points):
    betas = [points[n][1].correction for n in SIZES]
    assert max(betas) - min(betas) <= 5e-17


def test_the_bound_states_are_poschl_teller_at_every_size(points):
    # LAPACK's symmetric eigensolver is backward stable: each computed
    # eigenvalue is exact for A + E with ||E||_2 <= p(n) eps ||A||_2, so by
    # Weyl's inequality it lies within p(n) eps max|lambda| of the exact
    # one (Higham, Accuracy and Stability of Numerical Algorithms; LAPACK
    # Users' Guide 4.7 takes p(n) = 1 for its error estimate).  max|lambda|
    # grows like n^2, from 228 at 192 points to 14,554 at 1536, where that
    # scale is 3.23e-12: a fixed bound such as 2e-12 sits below it there,
    # and is loose by a factor 40 at 192 points.  The first two states sit
    # at most 1.6 scales from -5/4 and 0 at every size under 1, 2, 3 and 4
    # BLAS threads (whose bits differ), so the bound is 4 scales.
    eps = np.finfo(float).eps
    thirds = []
    for n in SIZES:
        ev = points[n][0].spectrum.eigenvalues
        bound = 4.0 * eps * float(np.max(np.abs(ev)))
        assert abs(ev[0] + 1.25) <= bound
        assert abs(ev[1]) <= bound
        # The third state's wrap error of order exp(-L), about -2.5e-8 on
        # L = 20, is the domain's: it is the same at every size.
        assert -3e-8 <= ev[2] - 0.75 <= -2e-8
        thirds.append(ev[2])
    assert max(thirds) - min(thirds) <= 2e-12


@pytest.fixture(scope="module")
def floor(points):
    """The round-off floor of the root at 512 points, 6.62e-15."""
    workspace, point = points[512]
    return reference._roundoff_floor(point.initial_state.values,
                                     -workspace.unstable_eigenvalue, 1e-3)


@pytest.fixture(scope="module")
def roots(points, refined_bump):
    """(root, fit residual) at each power of two, around the session's
    shooting root."""
    return {n: _probe_root(*points[n], refined_bump.beta,
                           refined_bump.probe_time)
            for n in POWERS_OF_TWO}


def test_the_shooting_root_agrees_over_the_powers_of_two(roots, floor,
                                                        refined_bump):
    for root, residual in roots.values():
        # A line through the lanes, to round-off.
        assert abs(residual) <= 1.5 * floor
        # The refinement's own root lies within its bracket of each.
        assert abs(root - refined_bump.beta) <= refined_bump.bracket
    values = [root for root, _ in roots.values()]
    assert max(values) - min(values) <= 6.0 * floor


def _complex_rfft(values, axes, forward, scale, out, threads):
    """The forward transform written as a complex FFT."""
    out[...] = np.fft.fft(values.astype(complex))[..., :out.shape[-1]]
    return out


def _complex_irfft(uh, axes, n, forward, scale, out, threads):
    """The inverse transform written as a complex FFT of the
    Hermitian extension; the mean and Nyquist entries count as real."""
    full = np.empty(uh.shape[:-1] + (n,), complex)
    full[..., :n // 2 + 1] = uh
    full[..., n // 2 + 1:] = np.conj(uh[..., n // 2 - 1:0:-1])
    full[..., 0] = uh[..., 0].real
    full[..., n // 2] = uh[..., n // 2].real
    out[...] = np.fft.ifft(full).real
    return out


def test_the_transforms_move_the_root_more_than_the_grid_does(
        points, roots, floor, refined_bump, monkeypatch):
    monkeypatch.setattr(PeriodicGrid, "r2c", _complex_rfft)
    monkeypatch.setattr(PeriodicGrid, "c2r", _complex_irfft)
    swapped, residual = _probe_root(*points[512], refined_bump.beta,
                                    refined_bump.probe_time)
    assert abs(residual) <= 1.5 * floor
    values = [root for root, _ in roots.values()]
    assert abs(swapped - roots[512][0]) >= 2.0 * (max(values) - min(values))
