"""Shared fixtures: one grid/model/spectrum per session, plus slow builds."""

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
