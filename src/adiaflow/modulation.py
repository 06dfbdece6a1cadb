"""Modulation: the frame coefficient and the state decomposition.

Writing a state near the equilibrium family as u = f(sigma) + w with w
orthogonal to the family tangent turns the flow into a coupled system: the
chart point sigma(t) moves with velocity a * xi, where the frame coefficient
a is determined algebraically by w, and the remainder w evolves under the
linearized operator plus the quadratic remainder -w^2.  Differentiating the
orthogonality constraint in time gives, in the flat one-dimensional chart,
the scalar equation

    (1 - <w, d^2 f>) a = <w^2, d f>,

where d f and d^2 f are the family's tangent and second derivative along
the unit frame, rows 1 and 2 of ``PulseModel.frame``.  ``frame_coefficient``
is the one place this quotient is formed; a damped Newton iteration is only
needed to *find* sigma when decomposing an arbitrary state.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .grid import GridField, PeriodicGrid
from .model import PulseModel


@dataclass
class ModulationCoefficients:
    """The frame coefficient at one (sigma, w).

    ``residual`` is the defect |(1 - <w, d^2 f>) a - <w^2, d f>| of the
    scalar equation the coefficient solves.
    """

    a: float
    residual: float


def _overlaps(grid: PeriodicGrid, w, tangent, second):
    """(coupling, drive) = (<w, d^2 f>, <w^2, d f>) along the last axis."""
    return grid.inner_values(w, second), grid.inner_values(w**2, tangent)


def frame_coefficient(grid: PeriodicGrid, w, tangent, second):
    """a = <w^2, d f> / (1 - <w, d^2 f>); the chart moves at a * xi.

    ``w`` is the remainder and ``tangent``, ``second`` the family's unit
    tangent and second derivative at the chart point: one field each, or
    one row per sample.  Returns one coefficient per field.

    Raises
    ------
    ConvergenceError
        If |1 - <w, d^2 f>| < 0.1 for any field, which signals that the
        remainder left the perturbative regime.
    """
    coupling, drive = _overlaps(grid, w, tangent, second)
    denom = 1.0 - coupling
    if np.min(np.abs(denom)) < 0.1:
        raise ConvergenceError(
            "modulation system is near-singular: the remainder has left the "
            "perturbative regime"
        )
    return drive / denom


def solve_modulation(model: PulseModel, sigma: float,
                     w: GridField) -> ModulationCoefficients:
    """The frame coefficient at (sigma, w), with the defect of its equation.

    Raises
    ------
    BallViolationError
        If the strong norm of w exceeds the model's small-ball radius.
    ConvergenceError
        If the modulation equation is near-singular (see
        ``frame_coefficient``).
    """
    model.check_ball(w)
    grid = model.grid
    _, tangent, second = model.frame(sigma)
    a = float(frame_coefficient(grid, w.values, tangent, second))
    coupling, drive = _overlaps(grid, w.values, tangent, second)
    return ModulationCoefficients(
        a=a, residual=float(abs((1.0 - coupling) * a - drive))
    )


#: The decomposition stops once the constraint residual |g| is this small.
_DECOMPOSE_TOL = 1e-12


def _constraint(model: PulseModel, u_values: np.ndarray,
                s: float) -> tuple[float, np.ndarray]:
    """g(s) = <u - f(s), tangent(s)> and the frame ``model.frame(s)``.

    Raises ConvergenceError if s is not finite or leaves the model's chart.
    """
    if not abs(s) <= model.chart_radius:
        raise ConvergenceError(
            f"chart coordinate {s} leaves the chart of radius "
            f"{model.chart_radius}"
        )
    return _residual(model.grid, u_values, model.frame(s))


def _residual(grid: PeriodicGrid, u_values: np.ndarray,
              frame: np.ndarray) -> tuple[float, np.ndarray]:
    """g = <u - f, tangent> at the chart point of ``frame``, and the frame."""
    return float(grid.inner_values(u_values - frame[0], frame[1])), frame


def decompose_state(model: PulseModel, u: GridField, sigma_guess: float,
                    max_iter: int = 50) -> tuple[float, GridField]:
    """Split u into f(sigma) + w with w orthogonal to the family tangent.

    Finds the chart point by a damped Newton iteration on the scalar
    constraint g(sigma) = <u - f(sigma), tangent(sigma)>; the derivative is
    g'(sigma) = (<w, d^2 f(sigma)> - 1) / xi with w the current remainder.
    Steps that increase |g| are halved.  The accepted trial's frame serves
    the next slope and the remainder.  Returns (sigma, w).

    Raises
    ------
    ConvergenceError
        After max_iter iterations without reaching |g| <= 1e-12, or when the
        guess or a trial step leaves the chart of radius
        ``model.chart_radius``; both signal that u left the tubular
        neighborhood of the family.
    """
    sigma, w, _ = _decompose(model, u, float(sigma_guess), None, max_iter)
    return sigma, w


def decompose_states(model: PulseModel, states: np.ndarray,
                     sigma_guess: float) -> Iterator[tuple[float, GridField]]:
    """``decompose_state`` of each row of grid values in ``states`` in turn,
    yielded as (sigma, w).

    Each solve starts from the chart point found for the state before (the
    first from sigma_guess), so slow drifts are followed without chart
    jumps.  It also takes over the frame that the solve before accepted at
    that point, the frame its remainder was taken from, so its first
    constraint evaluation builds no frame; the results are bitwise those of
    calling ``decompose_state`` state by state.  A state that cannot be
    decomposed raises ConvergenceError and ends the iteration.
    """
    s, frame = float(sigma_guess), None
    for values in states:
        s, w, frame = _decompose(model, GridField(values, model.grid), s,
                                 frame)
        yield s, w


def _decompose(model: PulseModel, u: GridField, s: float,
               frame: np.ndarray | None,
               max_iter: int = 50) -> tuple[float, GridField, np.ndarray]:
    """``decompose_state`` from the chart point s, plus the frame at the
    result.  ``frame`` is ``model.frame(s)`` when the caller has it, and
    None to build it (and check that s lies in the chart)."""
    grid = model.grid
    g, frame = _constraint(model, u.values, s) if frame is None \
        else _residual(grid, u.values, frame)
    for _ in range(max_iter):
        if abs(g) <= _DECOMPOSE_TOL:
            break
        overlap = grid.inner_values(u.values - frame[0], frame[2])
        slope = (overlap - 1.0) / model.xi
        if slope == 0.0:
            raise ConvergenceError("degenerate constraint slope in decomposition")
        step = -g / slope
        # damping: halve the step while the residual grows
        for _ in range(40):
            g_new, frame_new = _constraint(model, u.values, s + step)
            if abs(g_new) < abs(g):
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                "damped Newton stalled while decomposing the state"
            )
        s += step
        g, frame = g_new, frame_new
    else:
        raise ConvergenceError(
            f"state decomposition did not reach |g| <= {_DECOMPOSE_TOL:.1e} "
            f"in {max_iter} iterations (last residual {abs(g):.3e}); the "
            "state may have left the tubular neighborhood"
        )
    return float(s), GridField(u.values - frame[0], grid), frame
