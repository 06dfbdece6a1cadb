"""Shared fixtures: one grid/model/spectrum per session, plus slow builds."""

import numpy as np
import pytest

from adiaflow.config import ExperimentConfig
from adiaflow.grid import PeriodicGrid
from adiaflow.manifold import SolutionMapWorkspace, construct_manifold_point
from adiaflow.model import PulseModel
from adiaflow.presets import preset_field
from adiaflow.spectral import decompose


def pytest_configure(config):
    config._criterion_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def derivative_strong_norm():
    """The strong norm formed from the spectral derivative, as an oracle
    for the grid's Parseval norm: sqrt(h * (sum v^2 + sum (Dv)^2))."""
    def norm(grid, values):
        dv = grid.first_derivative_values(values)
        return np.sqrt(grid.spacing * (np.sum(values**2, axis=-1)
                                       + np.sum(dv**2, axis=-1)))
    return norm


@pytest.fixture(scope="session")
def exact_step():
    """The whole split step with the exact escape tests after every step,
    as an oracle for the step kernel's bounds: ``_SplitStepper.step(z, dt,
    count, band=band)`` on a grid, on a stack z primed for dt (rows uh m
    dt), written with ``np.fft``.  Each step is y = irfft(z), y / (1 - y),
    z = rfft(.) m^2; it tests every denominator against the floor and,
    with a band, every row's weak norm after the step, read on z with the
    Parseval weights divided by (m dt)^2."""
    from adiaflow.reference import _DENOM_FLOOR

    def step(grid, z, dt, count=1, band=None):
        rate = grid.wavenumbers**2 + 1.0
        half = np.exp(-0.5 * dt * rate)
        square = np.exp(-dt * rate).astype(complex)
        weak = grid.parseval_weights()[0] * np.repeat(
            (1.0 / (half * dt))**2, 2)
        for taken in range(1, count + 1):
            y = np.fft.irfft(z, grid.n)
            denom = 1.0 - y
            blown = denom.min(axis=1) <= _DENOM_FLOOR
            if blown.any():
                y, denom = y[~blown], denom[~blown]
            z = np.fft.rfft(y / denom) * square
            if blown.any():
                return z, blown, taken
            if band is not None and not all(
                    band[0] < np.sqrt(row.dot(row * weak)) < band[1]
                    for row in z.view(np.float64)):
                return z, None, taken
        return z, None, count
    return step


@pytest.fixture(scope="session")
def grid():
    return PeriodicGrid()


@pytest.fixture(scope="session")
def model(grid):
    return PulseModel(grid)


@pytest.fixture(scope="session")
def spectrum(model):
    return decompose(model, 0.0)


@pytest.fixture(scope="session")
def workspace(spectrum):
    return SolutionMapWorkspace(spectrum)


@pytest.fixture(scope="session")
def eta_bump(spectrum):
    return preset_field("stable-bump", spectrum)


@pytest.fixture(scope="session")
def point_bump(workspace, eta_bump):
    return construct_manifold_point(
        workspace, eta_bump, delta=0.05, alpha=1.0,
        fixed_point_tol=1e-10, max_iter=30,
    )


@pytest.fixture(scope="session")
def refined_bump(workspace, point_bump):
    from adiaflow.reference import refine_correction

    return refine_correction(workspace, point_bump, dt=1e-3, probe_time=16.0)


@pytest.fixture(scope="session")
def traj_bump(workspace, model, refined_bump):
    """The comparison solve to t = 20 from beta*, continuing the
    refinement's probe solve, with the pipeline's escape checks."""
    from adiaflow.paths import mesh_prefix
    from adiaflow.reference import collapse_floor, evolve_lanes

    samples = mesh_prefix(workspace.times, 20.0)
    return evolve_lanes(model, [refined_bump.trajectory],
                        dt=1e-3, sample_times=samples,
                        collapse_floor=collapse_floor(model))[0]


@pytest.fixture(scope="session")
def extracted_bump(model, point_bump, traj_bump):
    from adiaflow.reference import extract_modulated

    return extract_modulated(model, traj_bump, sigma_guess=point_bump.sigma0)


@pytest.fixture(scope="session")
def cfg():
    return ExperimentConfig()
