"""Full nonlinear solver for the gradient flow and manifold cross-checks.

The solver is the brute-force oracle the reduced objects are judged against:
it integrates the flow with a stiff-aware splitting — the constant-coefficient
linear part (second derivative minus identity) advanced exactly in Fourier
space, the pointwise quadratic part advanced exactly by its closed-form
solution — composed symmetrically for second-order accuracy.  The state
lives in Fourier space between steps, so a step costs two FFTs, and the
error estimate and escape checks read its norms by Parseval; it returns to
physical space only where a sample is recorded.  There are two entry
points, with one step plan (``_whole_steps``):

* ``evolve_lanes`` takes fixed steps, so that shooting and comparison runs
  traverse the identical, bitwise reproducible discrete flow.  Several
  states run as lanes: the rows of one array, two FFTs per step for all of
  them, each lane bitwise equal to its own solve and dropped when it
  escapes.  A solve that did not escape can be continued to a later time,
  and the continued trajectory equals one solve from t = 0;
* ``evolve_full`` adapts its step by halving against a Richardson error
  estimate, the one error-controlled solve.

On top of the solver:

* ``extract_modulated`` turns a full trajectory into a chart path plus
  orthogonal remainder, warm-starting each decomposition at the previous
  chart point.  It runs once per solve: the readouts below take its
  ``TrajectoryPath`` instead of decomposing the states again;
* ``refine_correction`` shoots for the initial unstable coefficient whose
  discrete trajectory neither blows up nor collapses — the solver-level
  counterpart of the fixed-point correction.  One four-lane solve to a
  quarter of the probe time gives a Newton predictor, a safeguarded Newton
  iteration on lane pairs at the full probe stops at the round-off floor of
  the root, every solve is cached so none is repeated, and the probe solve
  of the result is handed on to be continued;
* ``compare_effective`` measures how far the reduced dynamics (fixed-point
  path and chart velocity field) sit from the extracted full solution;
* ``instability_witnesses`` perturbs the corrected initial state along the
  unstable mode by several offsets and solves them as lanes;
  ``witness_report`` fits the resulting growth rate, also on a trajectory
  already solved for another purpose.
"""

from __future__ import annotations

import math
from itertools import compress
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.fft._pocketfft_umath import irfft as _irfft
from numpy.fft._pocketfft_umath import rfft_n_even as _rfft

from .errors import ConvergenceError
from .grid import GridField, PeriodicGrid
from .manifold import ManifoldPoint, SolutionMapWorkspace
from .model import PulseModel
from .modulation import decompose_state, frame_coefficient
from .paths import TrajectoryPath, mesh_prefix, time_weight

#: Smallest acceptable nonlinear-substep denominator; below this the step is
#: considered to have crossed a blow-up.
_DENOM_FLOOR = 0.5

#: Hard floor on the adaptive step before the run is declared escaped.
_DT_FLOOR = 1e-12

#: First and largest adaptive step.
_DT_INIT = 1e-3
_DT_MAX = 5e-2


@dataclass
class FullTrajectory:
    """Sampled full solve with integrator statistics.

    ``stats`` records steps, rejected steps, the largest accepted per-step
    error estimate, and — when the run terminated early — the escape time
    and direction (+1 for blow-up, -1 for collapse toward zero).  ``end``
    is where a fixed-step solve stopped without escaping: the time and the
    rfft of the state there, from which ``evolve_lanes`` can continue it.
    """

    times: np.ndarray
    u_samples: np.ndarray = field(repr=False)
    stats: dict = field(default_factory=dict)
    end: tuple[float, np.ndarray] | None = field(default=None, repr=False)

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def escaped(self) -> bool:
        return self.stats.get("escape_sign", 0) != 0

    def continues_to(self, sample_times: np.ndarray) -> bool:
        """Whether a fixed-step solve recorded at ``sample_times`` can
        continue this one: it stopped without escaping, and its samples are
        exactly those of the times up to its end."""
        return self.end is not None and np.array_equal(
            self.times, sample_times[:np.searchsorted(
                sample_times, self.end[0], side="right")])

    def energies(self, model: PulseModel) -> np.ndarray:
        return np.array([
            model.energy(GridField(u, model.grid)) for u in self.u_samples
        ])


class _SplitStepper:
    """Symmetric splitting steps on the rffts of a stack of states.

    The states live in Fourier space between steps, one per row, so a step
    costs one inverse and one forward FFT for the whole stack: the first
    linear half step is a product with the half-step multiplier, the
    quadratic substep runs on the physical values, and the second linear
    half step is a product again.  Rows never mix, and the FFTs transform
    each row exactly as they would transform it alone, so every row evolves
    bitwise as it would in a stack of one.  Norms of a state come from its
    |rfft|^2 by Parseval, with no FFT.  Half-step multipliers are cached
    per dt.

    The transforms call the pocketfft loops that ``np.fft.rfft`` and
    ``np.fft.irfft`` wrap, with the scales those pass (1 forward, 1/n
    inverse), so they give the same bits.  At the solver's sizes a numpy
    FFT call spends much of its time in Python argument handling before
    its loop starts, and a step makes two of them.  The half-stepped
    spectrum, the physical values and the denominators of a step go into
    buffers kept for the current stack height.
    """

    def __init__(self, grid: PeriodicGrid):
        self.n = grid.n
        self._scale = 1.0 / grid.n
        self._rate = grid.wavenumbers**2 + 1.0
        # Weights on the interleaved real and imaginary parts of a state.
        weak, strong = grid.parseval_weights()
        self._weak = np.repeat(weak, 2)
        self._strong = np.repeat(strong, 2)
        self._cache: dict[float, np.ndarray] = {}
        self._height = 0

    def _half(self, dt: float) -> np.ndarray:
        mult = self._cache.get(dt)
        if mult is None:
            # Complex, as a product with the rfft would cast it.
            mult = np.exp(-0.5 * dt * self._rate).astype(complex)
            self._cache[dt] = mult
        return mult

    def _buffers(self, height: int) -> None:
        """Size the step and norm buffers for a stack of ``height`` rows."""
        if height != self._height:
            self._height = height
            self._spectrum = np.empty((height, self.n // 2 + 1), complex)
            self._values = np.empty((height, self.n))
            self._denom = np.empty((height, self.n))
            self._weighted = np.empty((height, self.n + 2))

    def spectrum(self, values: np.ndarray) -> np.ndarray:
        """``np.fft.rfft`` of each row of values."""
        out = np.empty(values.shape[:-1] + (self.n // 2 + 1,), complex)
        return _rfft(values, 1.0, out=out)

    def values(self, uh: np.ndarray) -> np.ndarray:
        """``np.fft.irfft`` of each row of the rfft stack uh, to n points."""
        return _irfft(uh, self._scale, out=np.empty(uh.shape[:-1] + (self.n,)))

    def step(self, uh: np.ndarray, dt: float, out: np.ndarray | None = None):
        """Advance each row of the rfft stack uh by dt.

        Returns the advanced rows, written into ``out`` when every row
        advances, and the mask of the rows left out because their quadratic
        subflow blows up (None when there are none).
        """
        mult = self._half(dt)
        self._buffers(len(uh))
        v, denom = self._values, self._denom
        _irfft(np.multiply(uh, mult, out=self._spectrum), self._scale, out=v)
        np.subtract(1.0, np.multiply(v, dt, out=denom), out=denom)
        blown = None
        if denom.min() <= _DENOM_FLOOR:
            blown = denom.min(axis=1) <= _DENOM_FLOOR
            v, denom, out = v[~blown], denom[~blown], None
        v /= denom
        if out is None:
            out = np.empty((len(v), self.n // 2 + 1), complex)
        uh_new = _rfft(v, 1.0, out=out)
        uh_new *= mult
        return uh_new, blown

    def weak_norm(self, uh: np.ndarray) -> float:
        """``grid.weak_norm_values`` of the state whose rfft is uh."""
        parts = uh.view(np.float64)
        return math.sqrt(parts.dot(parts * self._weak))

    def strong_norm(self, uh: np.ndarray) -> float:
        """``grid.strong_norm_values`` of the state whose rfft is uh."""
        parts = uh.view(np.float64)
        return math.sqrt(parts.dot(parts * self._strong))

    def escape_signs(self, uh: np.ndarray, ceiling: float,
                     collapse_floor: float | None) -> list[int] | None:
        """For each row of the rfft stack uh: +1 when its state is not
        finite or has reached the ceiling, -1 when its weak norm is at or
        below the collapse floor, else 0; None when every row is 0.

        One ``np.vecdot`` gives every squared weak norm, bitwise the per-row
        dot; a row's strong norm is read only from 0.4 ceiling up.
        """
        self._buffers(len(uh))
        parts = uh.view(np.float64)
        squares = np.vecdot(parts, np.multiply(parts, self._weak,
                                               out=self._weighted))
        low = -math.inf if collapse_floor is None else collapse_floor
        watch = 0.4 * ceiling
        signs = None
        for row, square in enumerate(squares.tolist()):
            weak = math.sqrt(square)
            if low < weak < watch:
                continue
            if not math.isfinite(weak) or weak >= ceiling or (
                weak >= watch and self.strong_norm(uh[row]) >= ceiling
            ):
                sign = 1
            elif weak <= low:
                sign = -1
            else:
                continue
            if signs is None:
                signs = [0] * len(uh)
            signs[row] = sign
        return signs


def _checked_samples(sample_times, t_final: float = math.inf) -> np.ndarray:
    sample_times = np.asarray(sample_times, dtype=float)
    if len(sample_times) == 0 or sample_times[0] < 0.0:
        raise ValueError("sample times must be nonnegative and nonempty")
    if np.any(np.diff(sample_times) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    if sample_times[-1] > t_final + 1e-12:
        raise ValueError("sample times must not exceed the final time")
    return sample_times


#: Slack, in steps, on the number of whole steps in a sample interval, so
#: that a gap of 20 steps plus round-off is 20 steps and never 20 steps
#: plus one of round-off length.
_STEP_SLACK = 1e-9


def _whole_steps(gap: float, dt: float) -> int:
    """Whole steps of size dt before the clamped step that ends a sample
    interval of length gap > 0; that step is then longer than 0, at most
    dt (1 + _STEP_SLACK), and shorter than _STEP_SLACK dt only if gap is."""
    return max(0, math.ceil(gap / dt - _STEP_SLACK) - 1)


def _new_lane(values: np.ndarray, sample_times: np.ndarray, mode: str,
              tol: float | None, dt: float) -> tuple[list, list, dict]:
    """Recorded times, recorded states and stats of a solve from values at
    t = 0; a sample at t = 0 is the initial state itself."""
    first = sample_times[0] == 0.0
    return [0.0] if first else [], [values.copy()] if first else [], dict(
        steps=0, rejected=0, max_error_estimate=0.0, escape_sign=0,
        escape_time=None, mode=mode, tol=tol, final_dt=dt)


def _end_lane(times: list, states: list, stats: dict, steps: int, sign: int,
              t, end=None) -> FullTrajectory:
    """The trajectory of a lane (recorded times and states, stats) that ends
    after ``steps`` steps of its solve, with escape sign and time."""
    stats["steps"] += steps
    stats["escape_sign"], stats["escape_time"] = sign, t
    return FullTrajectory(np.array(times), np.array(states), stats, end)


def evolve_lanes(model: PulseModel, starts, *, dt: float,
                 sample_times: np.ndarray, ceiling: float = 10.0,
                 collapse_floor: float | None = None) -> list[FullTrajectory]:
    """Fixed-step solves of several states stepped together as lanes.

    ``starts`` holds one entry per lane: the initial values at t = 0, or a
    ``FullTrajectory`` to continue from its ``end``.  All lanes must start
    at one time.  Their rffts are stepped as one ``(K, n // 2 + 1)`` stack,
    one inverse and one forward FFT per step for all of them, and each lane
    comes out bitwise equal to solving it alone: same samples, same escape,
    same ``stats``.  A continued lane's trajectory and ``stats`` equal
    those of one solve from t = 0 with the same step, samples and escape
    checks.

    Each interval up to the next of ``sample_times``, where the states are
    recorded, takes the whole steps of size dt that it holds and then one
    clamped step that ends on the sample (``_whole_steps``, the step plan
    of ``evolve_full`` too), so no step has zero length, and none has
    round-off length unless the interval has.  A lane escapes with
    direction +1 when its quadratic substep passes through infinity or its
    strong norm reaches ``ceiling``, and with direction -1 when its weak
    norm falls to ``collapse_floor`` (when given); it is then dropped from
    the stack, keeping the samples recorded so far.
    """
    sample_times = _checked_samples(sample_times)
    dt = float(dt)
    stepper = _SplitStepper(model.grid)
    lanes, rows, origins = [], [], set()
    for start in starts:
        if isinstance(start, FullTrajectory):
            if not (start.continues_to(sample_times)
                    and start.stats.get("final_dt") == dt):
                raise ValueError("only a surviving fixed-step solve with the "
                                 "same step and samples can be continued")
            t0, uh0 = start.end
            lanes.append((list(start.times), list(start.u_samples),
                          dict(start.stats)))
        else:
            values = np.asarray(start, dtype=float)
            t0, uh0 = 0.0, stepper.spectrum(values)
            lanes.append(_new_lane(values, sample_times, "fixed", None, dt))
        origins.add(t0)
        rows.append(uh0)
    if len(origins) != 1:
        raise ValueError("all lanes must start at one time")
    t = origins.pop()
    next_sample = int(np.searchsorted(sample_times, t, side="right"))

    uh = np.array(rows)
    active = list(range(len(lanes)))
    steps = 0
    taken = 0  # whole steps taken in the current sample interval
    while active and next_sample < len(sample_times):
        target = sample_times[next_sample]
        if taken == 0:
            t_begin, whole = t, _whole_steps(target - t, dt)
        clamped = taken == whole
        uh, blown = stepper.step(uh, target - t if clamped else dt, out=uh)
        if blown is not None:
            for lane in compress(active, blown):
                lanes[lane] = _end_lane(*lanes[lane], steps, 1, t)
            active = list(compress(active, ~blown))
            if not active:
                break
        steps += 1
        if clamped:
            t, taken = target, 0
            for lane, values in zip(active, stepper.values(uh)):
                lanes[lane][0].append(t)
                lanes[lane][1].append(values)
            next_sample += 1
        else:
            taken += 1
            t = t_begin + taken * dt
        signs = stepper.escape_signs(uh, ceiling, collapse_floor)
        if signs is not None:
            for lane, sign in zip(active, signs):
                if sign:
                    lanes[lane] = _end_lane(*lanes[lane], steps, sign, t)
            keep = [not sign for sign in signs]
            uh, active = uh[keep], list(compress(active, keep))

    for row, lane in enumerate(active):
        lanes[lane] = _end_lane(*lanes[lane], steps, 0, None,
                                (t, uh[row].copy()))
    return lanes


def evolve_full(model: PulseModel, u0: GridField, t_final: float,
                tol: float = 1e-9, *,
                sample_times: np.ndarray | None = None,
                ceiling: float = 10.0,
                collapse_floor: float | None = None) -> FullTrajectory:
    """Integrate the gradient flow up to t_final with adaptive steps.

    Each step is taken twice (once whole, twice halved) and accepted when
    the Richardson estimate of the halved result meets ``tol`` in the weak
    norm; rejected steps halve the step size and comfortable ones double
    it, from ``_DT_INIT`` up to ``_DT_MAX``.  Fixed steps, which shooting
    and comparison runs need so that re-runs traverse the identical discrete
    flow, are ``evolve_lanes``; a one-state solve is its one-lane call.

    Between steps the state is kept as its rfft (see ``_SplitStepper``):
    the error estimate and the escape checks read its norms by Parseval,
    and it returns to physical space only at the recorded samples.

    Samples are recorded exactly at ``sample_times`` (default: 401 uniform
    times) by the step plan of ``evolve_lanes`` with the current step as dt
    (see ``_whole_steps``).  A strong norm at or above ``ceiling`` — or a
    quadratic substep passing through infinity — ends the run with escape
    direction +1; a weak norm at or below ``collapse_floor`` (when given)
    ends it with escape direction -1.  The returned trajectory is truncated
    at the recorded samples in either case.
    """
    if sample_times is None:
        sample_times = np.linspace(0.0, t_final, 401)
    sample_times = _checked_samples(sample_times, t_final)
    stepper = _SplitStepper(model.grid)
    uh = stepper.spectrum(u0.values[None])
    dt = _DT_INIT
    times, states, stats = _new_lane(u0.values, sample_times, "adaptive",
                                     float(tol), dt)
    next_sample = len(times)
    t, steps, sign = 0.0, 0, 0
    left = None  # time from t to the next sample
    while next_sample < len(sample_times):
        target = sample_times[next_sample]
        left = target - t if left is None else left
        clamped = _whole_steps(left, dt) == 0
        dt_step = left if clamped else dt

        uh_big, blown_big = stepper.step(uh, dt_step)
        uh_half, blown_half = stepper.step(uh, 0.5 * dt_step)
        uh_new, blown_new = (uh_half, blown_half) if blown_half is not None \
            else stepper.step(uh_half, 0.5 * dt_step)
        estimate = np.inf if blown_big is not None or blown_new is not None \
            else stepper.weak_norm(uh_big[0] - uh_new[0]) / 3.0
        if not estimate <= tol:
            stats["rejected"] += 1
            dt = 0.5 * dt_step
            if dt < _DT_FLOOR:
                sign = 1
                break
            continue
        stats["max_error_estimate"] = max(stats["max_error_estimate"],
                                          float(estimate))
        if estimate < 0.1 * tol and not clamped:
            dt = min(2.0 * dt, _DT_MAX)

        steps += 1
        uh = uh_new
        if clamped:
            t, left = target, None
            times.append(t)
            states.append(stepper.values(uh[0]))
            next_sample += 1
        else:
            t, left = t + dt_step, left - dt_step

        signs = stepper.escape_signs(uh, ceiling, collapse_floor)
        if signs is not None:
            sign = signs[0]
            break

    stats["final_dt"] = dt
    return _end_lane(times, states, stats, steps, sign, t if sign else None)


def extract_modulated(model: PulseModel, traj: FullTrajectory,
                      sigma_guess: float) -> TrajectoryPath:
    """Decompose the samples into chart point plus orthogonal remainder.

    Each chart solve starts from the previous sample's chart point (the
    first from sigma_guess), so slow drifts are followed without chart
    jumps.  The result is the decomposable prefix, which ends before the
    first sample that left the tubular neighborhood; a first sample that
    cannot be decomposed raises ConvergenceError.
    """
    grid = model.grid
    guess = float(sigma_guess)
    sigmas: list[float] = []
    fields: list[np.ndarray] = []
    for j in range(traj.n_samples):
        state = GridField(traj.u_samples[j].copy(), grid)
        try:
            guess, w = decompose_state(model, state, guess)
        except ConvergenceError as err:
            if j > 0:
                break
            raise ConvergenceError(
                f"state decomposition failed at t = {traj.times[0]:.6g} "
                f"(sample 0): {err}"
            ) from err
        sigmas.append(guess)
        fields.append(w.values)
    m = len(sigmas)
    return TrajectoryPath(
        times=traj.times[:m].copy(),
        sigma=np.array(sigmas),
        w=np.array(fields),
        grid=grid,
    )


def unstable_coefficient(grid: PeriodicGrid, unstable_mode: np.ndarray,
                         sigma0: float, sigma, w: np.ndarray):
    """Moving-frame unstable coefficient <w, e_u shifted by sigma - sigma0>
    of a remainder w at chart point sigma (one sample, or rows), where
    ``unstable_mode`` is e_u at sigma0."""
    return grid.inner_values(w, grid.shift_values(unstable_mode,
                                                  sigma - sigma0))


@dataclass
class RefineResult:
    """Shooting-refined initial unstable coefficient.

    ``beta`` is the refined coefficient, the full-probe solve whose probe
    coefficient is closest to zero, and ``picard_beta`` the fixed-point
    value the search started from.  ``evaluations`` counts the lane solves
    made, at every probe time; a solve of K lanes counts K.  ``bracket`` is
    the width of the narrowest pair of full-probe solves that has ``beta``
    at one end, survives to ``probe_time`` and gives the extracted
    coefficient opposite signs, so it contains ``beta`` and the root that
    ``beta`` estimates.  ``dt`` is the fixed step of the probe solves.
    ``trajectory`` is the full-probe solve of ``beta``, which a longer
    fixed-step solve from the same state can continue; it is left out of
    the payload.
    """

    beta: float
    picard_beta: float
    evaluations: int
    bracket: float
    probe_time: float
    dt: float
    trajectory: FullTrajectory | None = field(default=None, repr=False,
                                              compare=False)

    def payload(self) -> dict:
        """The fields but the trajectory as a plain dict, in declaration
        order, for artifacts."""
        return {item.name: getattr(self, item.name) for item in fields(self)
                if item.name != "trajectory"}


#: The short probe sits at the mesh time at or below this fraction of the
#: full probe time.  Its solves cost that fraction of a full one, and a
#: bracket wide enough to hold the fixed-point error survives to it.
_SHORT_PROBE_FRACTION = 0.25

#: Finite-difference partners of the Newton steps, in units of beta.  The
#: one short-probe step from the fixed-point value spans about 1e-7, so its
#: partner sits 1e4 round-off floors of the root (see ``_roundoff_floor``,
#: about 7e-15) away, where probe noise leaves the slope good to about
#: 1e-4.  Full-probe steps shrink to the floor; a partner of about 150
#: floors keeps their slope good to a few parts in 1e3.
_SHORT_PARTNER = 1e-10
_FULL_PARTNER = 1e-11

#: The first short-probe bracket is the fixed-point value plus or minus
#: this factor times its size, or at least the absolute width; it widens
#: fourfold until its ends give opposite signs.
_BRACKET_FACTOR = 4.0
_BRACKET_MIN = 2e-5

#: Overshoot of the march from an escaped full-probe solve, so that the
#: march crosses the root even when the predicted slope is off by up to
#: this factor.
_MARCH_OVERSHOOT = 2.0


def collapse_floor(model: PulseModel) -> float:
    """Half the pulse's weak norm: at or below it a solve has collapsed."""
    return 0.5 * model.profile.weak_norm()


def _roundoff_floor(u0: np.ndarray, growth: float, dt: float) -> float:
    """Width to which round-off lets the probe define the shooting root.

    Each step rounds the state at about ``eps * max|u|``, and the unstable
    mode amplifies what is rounded at time s by exp(growth (T - s)) before
    the probe at T.  Added as a random walk over steps of size dt, that is
    exp(growth T) * eps * max|u| / sqrt(2 growth dt) at the probe; divided
    by the slope of the probe coefficient in beta, exp(growth T) per unit,
    it leaves a root uncertainty that no longer depends on T.
    """
    eps = np.finfo(float).eps
    return float(eps * np.max(np.abs(u0)) / np.sqrt(2.0 * growth * dt))


def _newton_step(value: float, slope: float, curvature: float) -> float:
    """Step to the root of value + slope * d * (1 + curvature * d), the
    nearer one; to its vertex where it has none."""
    newton = -value / slope
    return 2.0 * newton / (1.0 + math.sqrt(max(1.0 + 4.0 * curvature * newton,
                                               0.0)))


def refine_correction(workspace: SolutionMapWorkspace, point: ManifoldPoint,
                      *, dt: float = 1e-3, probe_time: float | None = None,
                      max_evaluations: int = 60,
                      ceiling: float = 10.0) -> RefineResult:
    """Tune the initial unstable coefficient against the discrete full solver.

    The fixed-point correction carries quadrature error, and the splitting
    solver has its own slightly shifted invariant structures; both are
    amplified exponentially over long comparisons.  This routine shoots for
    the coefficient whose fixed-step trajectory keeps the extracted unstable
    coefficient at zero at the probe time, in two stages:

    1. *Predictor.*  At a short probe (the mesh time at or below a quarter
       of the probe time) one four-lane solve takes both ends of a bracket
       around the fixed-point value, the value itself and a
       finite-difference partner of it; the bracket widens until its ends
       give opposite signs.  The predictor is the Newton step from the
       fixed-point value.  Where that step leaves the bracket, or the
       fixed-point value escapes, false position on the bracket, narrowed
       until both ends survive, takes its place.
    2. *Polish.*  At the full probe, a safeguarded Newton iteration starts
       at the predictor.  Each round solves the iterate and a
       finite-difference partner, on the side the last step moved to, as
       two lanes.  A step that leaves the narrowest opposite-sign pair of
       solves made so far is replaced by false position on that pair, and
       an iterate that escapes starts a march against its escape sign, by
       the short-probe slope grown by the unstable mode between the probes,
       until the sign flips.

    The polish stops once the Newton step is below the round-off floor of
    the root (see ``_roundoff_floor``) and the solve closest to zero has a
    surviving neighbour of opposite sign.  Inside that floor the probe
    coefficient is noise, so the result is the solved coefficient whose
    probe coefficient is closest to zero.  Wherever a bracket end escapes
    (blows up or collapses), sign bisection narrows the bracket until both
    ends survive, and an escape between two surviving solves of opposite
    sign is a ConvergenceError.  Every solve is cached by probe and
    coefficient, so none is repeated, and every stage draws on the one
    budget of ``max_evaluations`` lane solves; a solve whose lanes do not
    all fit in it is not started.  The probe trajectories use the same step
    size, sample clamping and escape checks as later comparison runs, so
    the refined value belongs to the exact discrete flow being compared,
    and such a run can continue the returned ``trajectory``.
    """
    model = workspace.model
    grid = workspace.grid
    mesh = workspace.times
    if probe_time is None:
        probe_time = float(mesh[np.searchsorted(mesh, 16.0, side="right") - 1])
    full_samples = mesh_prefix(mesh, probe_time)
    # Snap onto the mesh so the recorded probe time is the one actually used.
    probe_time = float(full_samples[-1])
    short_samples = mesh_prefix(
        mesh, _SHORT_PROBE_FRACTION * probe_time
    )
    floor = collapse_floor(model)
    base = point.initial_state.values
    mode = workspace.unstable_mode
    growth = -workspace.unstable_eigenvalue
    xtol = _roundoff_floor(base, growth, dt)
    solved: dict[tuple[int, float], tuple[float, float | None]] = {}
    best = None  # (|value|, beta, trajectory) of the full-probe solve
    #              closest to zero; no other trajectory is kept

    def solves_at(samples):
        return [(beta, end) for (n, beta), end in solved.items()
                if n == len(samples)]

    def probe(samples, betas, stage):
        """(sign, value-or-None) of the unstable coefficient at the probe,
        for each beta; those not solved before are solved as lanes.

        An escaped run gives its escape direction and no value; a zero value
        counts as negative, so every sign is +1 or -1.
        """
        nonlocal best
        n = len(samples)
        new = [beta for beta in dict.fromkeys(betas) if (n, beta) not in solved]
        if len(solved) + len(new) > max_evaluations:
            raise ConvergenceError(
                f"shooting refinement exhausted its budget of "
                f"{max_evaluations} solves during the {stage}"
            )
        trajectories = evolve_lanes(
            model, [base + (beta - point.correction) * mode for beta in new],
            dt=dt, sample_times=samples, ceiling=ceiling, collapse_floor=floor,
        ) if new else []
        for beta, traj in zip(new, trajectories):
            if traj.escaped:
                solved[(n, beta)] = float(traj.stats["escape_sign"]), None
                continue
            state = GridField(traj.u_samples[-1].copy(), grid)
            sigma, w = decompose_state(model, state, point.sigma0)
            value = float(unstable_coefficient(
                grid, mode, workspace.sigma0, sigma, w.values
            ))
            solved[(n, beta)] = (1.0 if value > 0.0 else -1.0), value
            if n == len(full_samples) and (
                    best is None or (abs(value), beta) < best[:2]):
                best = abs(value), beta, traj
        survivors = [(b, end[0]) for b, end in solves_at(samples)
                     if end[1] is not None]
        for beta in new:
            if solved[(n, beta)][1] is None and any(
                    b < beta and sign < 0 for b, sign in survivors) and any(
                    b > beta and sign > 0 for b, sign in survivors):
                raise ConvergenceError(
                    f"the {stage} iterate {beta!r} escaped before "
                    f"t = {samples[-1]:.6g} inside a surviving bracket"
                )
        return [solved[(n, beta)] for beta in betas]

    def settle(samples, lo, end_lo, hi, end_hi, stage):
        """Sign bisection until both ends of [lo, hi] survive the probe."""
        while end_lo[1] is None or end_hi[1] is None:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                raise ConvergenceError(
                    f"no surviving coefficient between {lo!r} and {hi!r} "
                    f"at t = {samples[-1]:.6g}: the {stage} reached "
                    f"adjacent floats"
                )
            end_mid, = probe(samples, [mid], stage)
            if end_mid[0] < 0:
                lo, end_lo = mid, end_mid
            else:
                hi, end_hi = mid, end_mid
        return lo, end_lo[1], hi, end_hi[1]

    def false_position(lo, v_lo, hi, v_hi):
        return lo - v_lo * (hi - lo) / (v_hi - v_lo)

    # Predictor: a Newton step from the fixed-point value at the short
    # probe, inside a bracket whose ends give opposite signs.
    stage = "short-probe bracketing"
    center = point.correction
    partner = center + _SHORT_PARTNER
    radius = max(_BRACKET_FACTOR * abs(center), _BRACKET_MIN)
    for _ in range(5):
        lo, hi = center - radius, center + radius
        end_lo, end_hi, end_c, end_p = probe(short_samples,
                                             [lo, hi, center, partner], stage)
        if end_lo[0] < 0 < end_hi[0]:
            break
        radius *= 4.0
    else:
        raise ConvergenceError(
            "could not bracket the refined correction: the unstable "
            "coefficient does not change sign around the fixed-point value"
        )
    slope = predictor = math.nan
    curvature = 0.0
    if end_c[1] is not None and end_p[1] is not None:
        slope = (end_p[1] - end_c[1]) / (partner - center)
        if end_lo[1] is not None and end_hi[1] is not None:
            curvature = ((end_hi[1] - end_c[1]) / (hi - center)
                         - (end_c[1] - end_lo[1]) / (center - lo)) \
                / (hi - lo) / slope
        predictor = center + _newton_step(end_c[1], slope, curvature)
    if not (slope > 0.0 and lo < predictor < hi):
        lo, v_lo, hi, v_hi = settle(short_samples, lo, end_lo, hi, end_hi,
                                    "short-probe escape bisection")
        slope, curvature = (v_hi - v_lo) / (hi - lo), 0.0
        predictor = false_position(lo, v_lo, hi, v_hi)
    # The full-probe coefficient per unit beta and its relative curvature:
    # the unstable mode grows the first by exp(growth * dT) between the
    # probes, and the second, which comes from the quadratic term acting on
    # the growing mode, by the same factor.
    grown = np.exp(growth * (probe_time - float(short_samples[-1])))
    full_slope, curvature = slope * grown, curvature * grown

    # Polish: safeguarded Newton at the full probe.
    def opposite_to_best():
        """Surviving full-probe solves of the other sign than the one
        closest to zero."""
        best_sign = solved[(len(full_samples), best[1])][0]
        return [beta for beta, end in solves_at(full_samples)
                if end[1] is not None and end[0] != best_sign]

    def narrowest_sign_pair():
        """The narrowest pair of neighbouring full-probe solves with the
        negative one below, as (lo, end_lo, hi, end_hi), or None."""
        ordered = sorted(solves_at(full_samples), key=lambda item: item[0])
        pairs = [(a, end_a, b, end_b) for (a, end_a), (b, end_b)
                 in zip(ordered, ordered[1:]) if end_a[0] < 0 < end_b[0]]
        return min(pairs, key=lambda pair: pair[2] - pair[0], default=None)

    x, side = predictor, (1.0 if predictor >= center else -1.0)
    for _ in range(max_evaluations):
        (sign, value), (_, partner_value) = probe(
            full_samples, [x, x + side * _FULL_PARTNER], "full-probe polish")
        step = math.nan
        if value is not None:
            # On the quadratic model, the secant to the partner is the slope
            # at x times (1 + curvature * offset).
            offset = side * _FULL_PARTNER
            newton_slope = math.nan if partner_value is None else \
                (partner_value - value) / offset / (1.0 + curvature * offset)
            step = _newton_step(value, newton_slope if newton_slope > 0.0
                                else full_slope, curvature)
            if abs(step) <= xtol and opposite_to_best():
                break
        ends = narrowest_sign_pair()
        if ends is None and value is None:
            # March from the escaped iterate against its escape sign until
            # the sign flips.
            stride = _MARCH_OVERSHOOT / full_slope
            while True:
                far = x - sign * stride
                (sign_far, _), = probe(full_samples, [far],
                                       "full-probe bracketing")
                if sign_far != sign:
                    break
                x, stride = far, 4.0 * stride
            ends = narrowest_sign_pair()
        if ends is not None:
            lo, v_lo, hi, v_hi = settle(full_samples, *ends,
                                        "full-probe escape bisection")
            if not lo < x + step < hi:
                step = false_position(lo, v_lo, hi, v_hi) - x
        side = 1.0 if step > 0.0 else -1.0
        x += step
    else:
        raise ConvergenceError(
            f"the full-probe polish did not settle within "
            f"{max_evaluations} rounds"
        )
    _, beta_star, trajectory = best
    bracket = min(abs(beta - beta_star) for beta in opposite_to_best())

    return RefineResult(
        beta=float(beta_star),
        picard_beta=point.correction,
        evaluations=len(solved),
        bracket=float(bracket),
        probe_time=probe_time,
        dt=float(dt),
        trajectory=trajectory,
    )


def corrected_initial_state(workspace: SolutionMapWorkspace,
                            point: ManifoldPoint, beta: float,
                            offset: float = 0.0) -> GridField:
    """Initial state with the unstable coefficient replaced by beta + offset."""
    values = point.initial_state.values + (
        beta + offset - point.correction
    ) * workspace.unstable_mode
    return GridField(values, workspace.grid)


def compare_effective(workspace: SolutionMapWorkspace, point: ManifoldPoint,
                      traj: FullTrajectory, extracted: TrajectoryPath, *,
                      delta: float, alpha: float = 1.0) -> dict:
    """Reduced dynamics versus the extracted full solution.

    Returns the sup differences between (a) the chart path integrated from
    the effective velocity field driven by the extracted remainder and the
    extracted chart path, (b) the fixed-point chart path and the extracted
    one, and (c) the fixed-point remainder and the extracted remainder in
    the strong norm — together with the weighted decay margins and fitted
    envelope rate of the extracted remainder (``extracted`` of ``traj``).

    The trajectory must be sampled on a prefix of the fixed point's mesh so
    every comparison is pointwise in time, never interpolated; an
    extraction that lacks samples, or fewer than two samples in the
    envelope fit window t in [1, 10], raises ConvergenceError.
    """
    model = workspace.model
    grid = workspace.grid
    mesh = point.path.times
    m = traj.n_samples
    if m > len(mesh) or not np.array_equal(traj.times, mesh[:m]):
        raise ValueError(
            "trajectory samples must coincide with the fixed point's mesh"
        )
    if extracted.n_samples < m:
        j = extracted.n_samples
        raise ConvergenceError(f"state decomposition failed at t = "
                               f"{traj.times[j]:.6g} (sample {j})")
    fit_mask = (extracted.times >= 1.0) & (extracted.times <= 10.0)
    if np.count_nonzero(fit_mask) < 2:
        raise ConvergenceError(
            f"the envelope fit window t in [1, 10] holds "
            f"{np.count_nonzero(fit_mask)} comparison samples, fewer than two"
        )

    # Effective chart dynamics driven by the extracted remainder (Heun on
    # the shared mesh).
    sigma_eff = np.empty(m)
    sigma_eff[0] = extracted.sigma[0]

    def velocity(s: float, w_values: np.ndarray) -> float:
        _, tangent, second = model.frame(s)
        return float(frame_coefficient(grid, w_values, tangent,
                                       second)) * model.xi

    for j in range(m - 1):
        h_t = extracted.times[j + 1] - extracted.times[j]
        v0 = velocity(sigma_eff[j], extracted.w[j])
        pred = sigma_eff[j] + h_t * v0
        v1 = velocity(pred, extracted.w[j + 1])
        sigma_eff[j + 1] = sigma_eff[j] + 0.5 * h_t * (v0 + v1)

    w_gap = grid.strong_norm_values(point.path.w[:m] - extracted.w)
    extracted_strong = extracted.w_strong_norms()
    envelope = delta / time_weight(extracted.times, alpha)

    envelope_rate = float(np.polyfit(
        extracted.times[fit_mask],
        np.log(extracted_strong[fit_mask]),
        1,
    )[0])

    return {
        "sup_sigma_effective": float(np.max(np.abs(sigma_eff - extracted.sigma))),
        "sup_sigma_fixed_point": float(
            np.max(np.abs(point.path.sigma[:m] - extracted.sigma))
        ),
        "sup_w_strong": float(np.max(w_gap)),
        "decay_margin": float(np.max(extracted_strong / envelope)),
        "envelope_rate": envelope_rate,
        "compare_horizon": float(extracted.times[-1]),
        "n_samples": int(m),
    }


@dataclass
class WitnessReport:
    """Growth of the unstable coefficient after an initial offset."""

    offset: float
    rate: float | None
    escape_sign: int
    escape_time: float | None
    times: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)
    max_coefficient: float
    max_remainder_margin: float


#: A witness fits the growth of its unstable coefficient over the samples
#: whose magnitude lies in this window.
_FIT_WINDOW = (1e-3, 1e-1)


def instability_witness(workspace: SolutionMapWorkspace, point: ManifoldPoint,
                        beta: float, offset: float, *, delta: float,
                        alpha: float = 1.0, dt: float = 1e-3,
                        t_max: float = 20.0,
                        ceiling: float = 10.0) -> WitnessReport:
    """Evolve the corrected state with an unstable-mode offset and fit growth.

    With a zero offset the trajectory should stay decaying for the whole
    horizon; any nonzero offset seeds the unstable channel, whose growth
    ``witness_report`` fits.  A strong norm at ``ceiling`` ends the run as a
    blow-up, and a weak norm at or below ``collapse_floor`` as a collapse
    toward zero.

    Samples sit on the workspace mesh so the stepping — step size plus the
    clamps onto sample times — reproduces the discrete flow the refined
    coefficient was shot for; a different sampling pattern perturbs the
    discrete unstable channel at round-off size, which the flow amplifies
    exponentially into a spurious signal.
    """
    return instability_witnesses(workspace, point, beta, [offset],
                                 delta=delta, alpha=alpha, dt=dt, t_max=t_max,
                                 ceiling=ceiling)[0]


def instability_witnesses(workspace: SolutionMapWorkspace,
                          point: ManifoldPoint, beta: float, offsets, *,
                          delta: float, alpha: float = 1.0, dt: float = 1e-3,
                          t_max: float = 20.0, ceiling: float = 10.0) -> list:
    """``instability_witness`` for each of ``offsets``, solved together as
    lanes of one ``evolve_lanes`` call; one report per offset."""
    model = workspace.model
    samples = mesh_prefix(workspace.times, t_max)
    trajectories = evolve_lanes(
        model, [corrected_initial_state(workspace, point, beta, offset).values
                for offset in offsets], dt=dt, sample_times=samples,
        ceiling=ceiling, collapse_floor=collapse_floor(model))
    reports = []
    for offset, traj in zip(offsets, trajectories):
        extracted = extract_modulated(model, traj, sigma_guess=point.sigma0)
        coefficients = unstable_coefficient(
            workspace.grid, workspace.unstable_mode, workspace.sigma0,
            extracted.sigma, extracted.w)
        reports.append(witness_report(traj, extracted, coefficients, offset,
                                      delta=delta, alpha=alpha))
    return reports


def witness_report(traj: FullTrajectory, extracted: TrajectoryPath,
                   coefficients: np.ndarray, offset: float, *, delta: float,
                   alpha: float = 1.0) -> WitnessReport:
    """Fit the growth of the unstable coefficient along a witness trajectory.

    ``traj`` is the solve from the corrected state plus ``offset`` along the
    unstable mode, ``extracted`` its extraction and ``coefficients`` the
    moving-frame unstable coefficients of that extraction
    (``unstable_coefficient``).  They are fitted with an exponential over the
    samples where their magnitude lies inside ``_FIT_WINDOW``; the escape
    direction distinguishes blow-up (+1) from collapse toward zero (-1).
    """
    magnitude = np.abs(coefficients)
    mask = (magnitude >= _FIT_WINDOW[0]) & (magnitude <= _FIT_WINDOW[1])
    rate = None
    if np.count_nonzero(mask) >= 5:
        rate = float(np.polyfit(
            extracted.times[mask], np.log(magnitude[mask]), 1
        )[0])

    margins = extracted.w_strong_norms() * time_weight(extracted.times, alpha)
    return WitnessReport(
        offset=float(offset),
        rate=rate,
        escape_sign=int(traj.stats["escape_sign"]),
        escape_time=traj.stats["escape_time"],
        times=extracted.times,
        coefficients=coefficients,
        max_coefficient=float(np.max(magnitude)),
        max_remainder_margin=float(np.max(margins) / delta),
    )
