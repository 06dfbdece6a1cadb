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

import numpy as np

from .errors import ConvergenceError
from .grid import GridField, PeriodicGrid
from .model import PulseModel


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
    denom = 1.0 - grid.inner_values(w, second)
    if np.min(np.abs(denom)) < 0.1:
        raise ConvergenceError(
            "modulation system is near-singular: the remainder has left the "
            "perturbative regime"
        )
    return grid.inner_values(w**2, tangent) / denom


def solve_modulation(model: PulseModel, sigma: float, w: GridField) -> float:
    """The frame coefficient a at (sigma, w), for a remainder in the ball.

    Raises
    ------
    BallViolationError
        If the strong norm of w exceeds the model's small-ball radius.
    ConvergenceError
        If the modulation equation is near-singular (see
        ``frame_coefficient``).
    """
    model.check_ball(w)
    _, tangent, second = model.frame(sigma)
    return float(frame_coefficient(model.grid, w.values, tangent, second))


#: The decomposition stops once the constraint residual |g| is this small,
#: and fails after this many Newton iterations without getting there.
_DECOMPOSE_TOL = 1e-12
_DECOMPOSE_MAX_ITER = 50


def decompose_state(model: PulseModel, u: GridField,
                    sigma_guess: float) -> tuple[float, GridField]:
    """Split u into f(sigma) + w with w orthogonal to the family tangent.

    Finds the chart point by a damped Newton iteration on the scalar
    constraint g(sigma) = <u - f(sigma), tangent(sigma)>; the derivative is
    g'(sigma) = (<w, d^2 f(sigma)> - 1) / xi with w the current remainder.
    Steps that increase |g| are halved.  Both inner products are read from
    the rfft of u by Parseval (see ``_constraint``).  Returns (sigma, w):
    the one-state case of ``decompose_states``.

    Raises
    ------
    ConvergenceError
        After ``_DECOMPOSE_MAX_ITER`` iterations without reaching
        |g| <= ``_DECOMPOSE_TOL``, or when the guess or a trial step leaves
        the chart of radius ``model.chart_radius``; both signal that u left
        the tubular neighborhood of the family.
    """
    (sigma, w), = decompose_states(model, u.values[None], sigma_guess)
    return sigma, GridField(w, model.grid)


def decompose_states(model: PulseModel, states: np.ndarray,
                     sigma_guess: float) -> Iterator[tuple[float, np.ndarray]]:
    """``decompose_state`` of each row of grid values in ``states`` in turn,
    yielded as (sigma, grid values of w).

    Each solve starts from the chart point found for the state before (the
    first from sigma_guess), so slow drifts are followed without chart
    jumps, and its first constraint evaluation reuses the phase table that
    the solve before ended on (see ``_trial_buffers``).  The rffts of all
    states come from one batched transform, and once the chart points are
    found, the family points f(sigma) of all remainders from one batched
    inverse transform of ``model.frame_hat[0]`` times those tables, kept
    one row per state; a Newton trial makes none.  A state that cannot be
    decomposed raises ConvergenceError after the states before it are
    yielded, and ends the iteration.
    """
    states = np.asarray(states, dtype=float)
    if not np.all(np.isfinite(states)):
        raise ValueError("field contains non-finite samples")
    weighted = model.grid.rfft(states).view(np.float64)
    weighted *= model.grid.parseval_weights()[0]
    sigmas, failure = [], None
    s = float(sigma_guess)
    trials = _trial_buffers(model)
    phase = trials[0][1]
    tables = np.empty((len(states), len(phase)), complex)
    try:
        for parts in weighted:
            s = _chart_point(model, parts, s, trials)
            tables[len(sigmas)] = phase
            sigmas.append(s)
    except ConvergenceError as err:
        failure = err
    family = model.grid.apply_phases(model.frame_hat[0],
                                     tables[:len(sigmas)])
    # sigma = 0 is the profile itself, as in ``model.frame``.
    family[np.equal(sigmas, 0.0)] = model.frame(0.0)[0]
    yield from zip(sigmas, states[:len(sigmas)] - family)
    if failure is not None:
        raise failure


def _trial_buffers(model: PulseModel) -> list:
    """What the chart solves of one ``decompose_states`` call reuse: the
    phase-table buffers of ``grid.phase_buffers``, the rows of
    ``model.frame_hat`` that a trial translates, the buffer the translated
    rows go into, with its interleaved parts, and the chart point whose
    table and translated rows the buffers hold (None before the first
    trial).  ``_constraint`` at that point forms neither again: every
    solve's chart point is its last trial's, and the next solve starts
    there.  Tables of +0.0 and -0.0 are bitwise equal, so the held point
    is compared by value."""
    translated = np.empty((2, model.grid.n // 2 + 1), complex)
    return [model.grid.phase_buffers(), model.frame_hat[1:], translated,
            translated.view(np.float64), None]


def _constraint(model: PulseModel, weighted: np.ndarray, s: float,
                trials: list) -> tuple[float, float]:
    """g(s) = <u - f(s), d f(s)> and <u - f(s), d^2 f(s)>, by Parseval.

    ``weighted`` holds the interleaved parts of the rfft of u times the
    weak Parseval weights, so an inner product with u is a dot product
    with the parts of the other field's rfft: those of d f(s) and
    d^2 f(s) are ``model.frame_hat`` rows times one phase table, formed in
    the buffers ``trials`` of ``_trial_buffers`` unless they hold s
    already, and the overlaps of f(s) with them are
    ``model.frame_overlaps``.

    Raises ConvergenceError if s is not finite or leaves the model's chart.
    """
    if not abs(s) <= model.chart_radius:
        raise ConvergenceError(
            f"chart coordinate {s} leaves the chart of radius "
            f"{model.chart_radius}"
        )
    phases, frame, translated, parts, held = trials
    if s != held:
        np.multiply(frame, model.grid.shift_phases(s, phases), translated)
        trials[-1] = s
    g, overlap = (parts @ weighted - model.frame_overlaps).tolist()
    return g, overlap


def _chart_point(model: PulseModel, weighted: np.ndarray, s: float,
                 trials: list) -> float:
    """The chart point of the state that ``weighted`` holds (see
    ``_constraint``), by the damped Newton iteration of ``decompose_state``
    from s, its trials formed in the buffers ``trials``."""
    g, overlap = _constraint(model, weighted, s, trials)
    for _ in range(_DECOMPOSE_MAX_ITER):
        if abs(g) <= _DECOMPOSE_TOL:
            break
        slope = (overlap - 1.0) / model.xi
        if slope == 0.0:
            raise ConvergenceError("degenerate constraint slope in decomposition")
        step = -g / slope
        # damping: halve the step while the residual grows
        for _ in range(40):
            g_new, overlap_new = _constraint(model, weighted, s + step,
                                             trials)
            if abs(g_new) < abs(g):
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                "damped Newton stalled while decomposing the state"
            )
        s += step
        g, overlap = g_new, overlap_new
    else:
        raise ConvergenceError(
            f"state decomposition did not reach |g| <= {_DECOMPOSE_TOL:.1e} "
            f"in {_DECOMPOSE_MAX_ITER} iterations (last residual {abs(g):.3e}); "
            "the state may have left the tubular neighborhood"
        )
    return s
