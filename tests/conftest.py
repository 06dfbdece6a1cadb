"""Shared fixtures: one grid/model/spectrum per session, plus slow builds."""

import math
import os
import types

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


@pytest.fixture
def count_transforms(monkeypatch):
    """``count_transforms()`` starts counting the calls of the binding that
    every transform in the program calls, ``PeriodicGrid.r2c`` and ``c2r``
    (patched on the class), and returns the counts by name."""
    def start():
        counts = {"r2c": 0, "c2r": 0}
        for name in counts:
            def counted(*args, _name=name,
                        _binding=getattr(PeriodicGrid, name)):
                counts[_name] += 1
                return _binding(*args)
            monkeypatch.setattr(PeriodicGrid, name, counted)
        return counts
    return start


@pytest.fixture(scope="session")
def no_child_process():
    """``no_child_process()`` asserts that this process has no child,
    running or unreaped, as after every pipeline run, whose workers are
    reaped before it returns."""
    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return check


@pytest.fixture(scope="session")
def stepper_norms():
    """What a ``_SplitStepper`` carries, read as its step kernel reads it:
    the norms through ``reference._norm`` and the escape rule through
    ``reference._signs``, with the Parseval weights of the form the stack
    is in (plain on an rfft, primed inside a sample interval).
    ``weak(stepper, uh)`` and ``strong(stepper, uh)`` are
    ``grid.weak_norm_values`` and ``strong_norm_values`` of the state that
    the row uh holds; ``escape_signs(stepper, uh, ceiling,
    collapse_floor)`` gives each row of the stack uh +1 (not finite or at
    the ceiling), -1 (weak norm at or below the collapse floor) or 0, or
    None when every row is 0, reading a strong norm only past the quiet
    band's top of ``reference._quiet_band``, 0.4 ceiling."""
    from adiaflow import reference

    def weak(stepper, uh):
        return reference._norm(uh.view(np.float64), stepper._norms[0],
                               stepper._product)

    def strong(stepper, uh):
        return reference._norm(uh.view(np.float64), stepper._norms[1],
                               stepper._product)

    def escape_signs(stepper, uh, ceiling, collapse_floor):
        return reference._signs(
            list(uh.view(np.float64)), stepper._norms, stepper._product,
            (ceiling, *reference._quiet_band(ceiling, collapse_floor)))

    return types.SimpleNamespace(weak=weak, strong=strong,
                                 escape_signs=escape_signs)


def _escape_sign(parts, weights, ceiling, collapse_floor):
    """The escape rule on the interleaved parts of one state's rfft, its
    weak and strong norms read by Parseval with ``weights`` (weak, strong):
    +1 when the weak norm is not finite or reaches the ceiling, or is past
    0.4 of it with the strong norm at the ceiling; -1 when the weak norm is
    at or below the collapse floor (when given); else 0."""
    weak, strong = (np.sqrt(parts.dot(parts * w)) for w in weights)
    if not np.isfinite(weak) or weak >= ceiling or (
            weak >= 0.4 * ceiling and strong >= ceiling):
        return 1
    return -1 if collapse_floor is not None and weak <= collapse_floor else 0


@pytest.fixture(scope="session")
def exact_step():
    """The whole split step with the exact escape tests after every step,
    as an oracle for the step kernel's bounds: ``_SplitStepper.step(z, dt,
    count, (ceiling, collapse_floor))`` on a grid, on a stack z primed for
    dt (rows uh m dt), written with ``np.fft``.  Each step is y = irfft(z),
    y / (1 - y), z = rfft(.) m^2; it tests every denominator against the
    floor and, with a ceiling, applies the escape rule to every row after
    the step, its norms read on z with the Parseval weights divided by
    (m dt)^2.  It stops after the first step where a row blows up or the
    rule gives a row a nonzero sign, and returns (z, blown mask or None,
    the signs of the rows of z or None when all are 0, steps taken)."""
    from adiaflow.reference import _DENOM_FLOOR

    def step(grid, z, dt, count=1, ceiling=None, collapse_floor=None):
        rate = grid.wavenumbers**2 + 1.0
        half = np.exp(-0.5 * dt * rate)
        square = np.exp(-dt * rate).astype(complex)
        scale = np.repeat((1.0 / (half * dt))**2, 2)
        weights = [w * scale for w in grid.parseval_weights()]
        for taken in range(1, count + 1):
            y = np.fft.irfft(z, grid.n)
            denom = 1.0 - y
            blown = denom.min(axis=1) <= _DENOM_FLOOR
            if blown.any():
                y, denom = y[~blown], denom[~blown]
            z = np.fft.rfft(y / denom) * square
            signs = None
            if ceiling is not None:
                signs = [_escape_sign(row, weights, ceiling, collapse_floor)
                         for row in z.view(np.float64)]
                if not any(signs):
                    signs = None
            if blown.any():
                return z, blown, signs, taken
            if signs is not None:
                return z, None, signs, taken
        return z, None, None, count
    return step


@pytest.fixture(scope="session")
def exact_solve(exact_step):
    """A plain fixed-step solve of one state from t = 0, as an oracle for
    ``evolve_lanes``: ``exact_solve(model, u0, dt, samples, ceiling,
    collapse_floor)``, a ``FullTrajectory``.

    Each sample interval primes the state's rfft for dt when it holds
    whole steps, takes them one ``exact_step`` at a time, and ends with
    the textbook clamped step onto the sample, with its own np.exp: a
    product with the half-step multiplier (times 1 / (m dt), which
    un-primes) before the inverse transform and after the forward one.
    After every step it applies the escape rule, to the weak and strong
    norms read by Parseval on the state as carried (primed weights inside
    an interval), and a denominator at or below the floor ends the solve
    as a blow-up at the time the step started from.  The whole steps of an
    interval are ceil(gap / dt - 1e-9) - 1, at least 0."""
    from adiaflow.reference import _DENOM_FLOOR, FullTrajectory

    def solve(model, u0, dt, samples, ceiling=10.0, collapse_floor=None):
        grid = model.grid
        rate = grid.wavenumbers**2 + 1.0
        half = np.exp(-0.5 * dt * rate)
        unprime = 1.0 / (half * dt)
        plain = grid.parseval_weights()
        primed = [weights * np.repeat(unprime**2, 2) for weights in plain]

        def escape(uh, weights):
            return _escape_sign(uh[0].view(np.float64), weights, ceiling,
                                collapse_floor)

        first = samples[0] == 0.0
        times, states = ([0.0], [u0.copy()]) if first else ([], [])
        stats = dict(steps=0, escape_sign=0, escape_time=None, final_dt=dt)

        def ended(sign, t, end=None):
            stats["escape_sign"], stats["escape_time"] = sign, t
            return FullTrajectory(np.array(times), np.array(states), stats,
                                  end)

        uh, t = np.fft.rfft(u0)[None], 0.0
        for target in samples[1:] if first else samples:
            start = t
            whole = max(0, math.ceil((target - start) / dt - 1e-9) - 1)
            if whole:
                uh = uh * (half * dt).astype(complex)
            for j in range(1, whole + 1):
                uh, blown, _, _ = exact_step(grid, uh, dt)
                if blown is not None:
                    return ended(1, t)
                stats["steps"] += 1
                t = start + j * dt
                sign = escape(uh, primed)
                if sign:
                    return ended(sign, t)
            length = target - t
            after = np.exp(-0.5 * length * rate)
            before = after * unprime if whole else after
            v = np.fft.irfft(uh * before.astype(complex), grid.n)
            denom = 1.0 - v * length
            if denom.min() <= _DENOM_FLOOR:
                return ended(1, t)
            uh = np.fft.rfft(v / denom) * after.astype(complex)
            stats["steps"] += 1
            t = target
            times.append(t)
            states.append(np.fft.irfft(uh[0], grid.n))
            sign = escape(uh, plain)
            if sign:
                return ended(sign, t)
        return ended(0, None, (t, uh[0].copy()))
    return solve


@pytest.fixture(scope="session")
def grid_space_decompose():
    """The chart solve in grid space, as an oracle for the Parseval chart
    solve of ``decompose_states``: ``grid_space_decompose(model, values,
    sigma_guess)`` is (sigma, w).  The same damped Newton iteration on
    g(s) = <u - f(s), d f(s)> and the same tolerance, but each constraint
    evaluation translates the frame (f, d f, d^2 f) with ``model.frame``
    and forms its inner products on the grid, the slope's from the frame
    of the accepted trial; w is u minus that frame's f."""
    from adiaflow.errors import ConvergenceError
    from adiaflow.modulation import _DECOMPOSE_TOL

    def decompose(model, values, s, max_iter=50):
        grid = model.grid

        def constraint(s):
            if not abs(s) <= model.chart_radius:
                raise ConvergenceError(f"chart coordinate {s} leaves the "
                                       f"chart")
            frame = model.frame(s)
            return grid.inner_values(values - frame[0], frame[1]), frame

        g, frame = constraint(s)
        for _ in range(max_iter):
            if abs(g) <= _DECOMPOSE_TOL:
                break
            overlap = grid.inner_values(values - frame[0], frame[2])
            step = -g / ((overlap - 1.0) / model.xi)
            for _ in range(40):
                g_new, frame_new = constraint(s + step)
                if abs(g_new) < abs(g):
                    break
                step *= 0.5
            else:
                raise ConvergenceError("damped Newton stalled")
            s += step
            g, frame = g_new, frame_new
        else:
            raise ConvergenceError("no convergence")
        return float(s), values - frame[0]
    return decompose


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
def witness_solves(workspace, model, point_bump):
    """Escaping witness solves at offsets +1e-3 and -1e-3 from the bump
    point's Picard beta, as the witness workload solves them, one lane
    each, keyed by offset."""
    from adiaflow.paths import mesh_prefix
    from adiaflow.reference import (collapse_floor, corrected_initial_state,
                                    evolve_lanes)

    samples = mesh_prefix(workspace.times, 20.0)
    solves = {}
    for offset in (1e-3, -1e-3):
        u0 = corrected_initial_state(workspace, point_bump,
                                     point_bump.correction, offset)
        solves[offset] = evolve_lanes(
            model, [u0.values], dt=1e-3, sample_times=samples,
            collapse_floor=collapse_floor(model))[0]
        assert solves[offset].stats["escape_sign"] == np.sign(offset)
    return solves


@pytest.fixture(scope="session")
def extracted_bump(model, point_bump, traj_bump):
    from adiaflow.reference import extract_modulated

    return extract_modulated(model, traj_bump, sigma_guess=point_bump.sigma0)


@pytest.fixture(scope="session")
def cfg():
    return ExperimentConfig()
