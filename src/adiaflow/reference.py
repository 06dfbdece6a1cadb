"""Full nonlinear solver for the gradient flow and manifold cross-checks.

The solver is the brute-force oracle the reduced objects are judged against:
it integrates the flow with a stiff-aware splitting — the constant-coefficient
linear part (second derivative minus identity) advanced exactly in Fourier
space, the pointwise quadratic part advanced exactly by its closed-form
solution — composed symmetrically for second-order accuracy.  The state
lives in Fourier space between steps, so a step costs two FFTs (the grid's
transforms), and the escape checks read its norms by Parseval; it returns
to physical space only where a sample is recorded.

The one solver, ``evolve_lanes``, takes fixed steps, so that shooting,
comparison and witness runs traverse the identical, bitwise reproducible
discrete flow.  Each solve builds one step kernel, ``_SplitStepper``, from
what the solve never changes: its step, its escape rule and the plan of its
sample intervals, each interval's whole steps and the clamped step that
ends on its sample (``_whole_steps``).  One kernel call runs an interval,
with the escape rule after every step, and returns early only where a
state escapes or blows up.  Several states run as lanes: the rows of one
array, two FFTs per step for all of them, each lane bitwise equal to its
own solve; a lane that escapes leaves the stack, and the kernel binds the
rest (``bind``).  A solve that did not escape can be continued to a later
time, and the continued trajectory equals one solve from t = 0.

On top of the solver:

* ``extract_modulated`` turns a full trajectory into a chart path plus
  orthogonal remainder, warm-starting each decomposition at the previous
  chart point.  It runs once per solve: the readouts below take its
  ``TrajectoryPath`` instead of decomposing the states again;
* ``refine_correction`` shoots for the initial unstable coefficient whose
  discrete trajectory neither blows up nor collapses — the solver-level
  counterpart of the fixed-point correction.  One three-lane solve to a
  quarter of the probe time gives a quadratic predictor, a one-lane solve
  at 0.7 of the probe time moves it by one Newton step, and at the full
  probe one lane pair and then lone iterates run a safeguarded Newton
  iteration to the round-off floor of the root.  Every lane solve is
  recorded once, in solve order; that record is the cache that keeps any
  solve from being repeated, the bracket rule's input and the result's
  ``history``, and the probe solve of the result is handed on to be
  continued;
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

from .errors import ConvergenceError
from .grid import GridField, PeriodicGrid
from .manifold import ManifoldPoint, SolutionMapWorkspace
from .model import PulseModel
from .modulation import decompose_states, frame_coefficient
from .paths import TrajectoryPath, mesh_prefix, time_weight


#: Smallest acceptable nonlinear-substep denominator; below this the step is
#: considered to have crossed a blow-up.
_DENOM_FLOOR = 0.5

#: Relative slack that the step kernel's bounds on a sum of squares give
#: up to round-off (see ``_sum_bounds``): the weak norm read
#: by Parseval and the transforms differ from the exact sums by a few
#: parts in 1e16.
_SUM_SLACK = 1e-9

#: The smallest step a solve accepts.
DT_FLOOR = 1e-12


@dataclass
class FullTrajectory:
    """Sampled full solve with integrator statistics.

    ``stats`` records the steps, the step size and — when the run
    terminated early — the escape time and direction (+1 for blow-up, -1
    for collapse toward zero).  ``end`` is where a solve stopped without
    escaping: the time and the rfft of the state there, from which
    ``evolve_lanes`` can continue it.
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
        """Whether a solve recorded at ``sample_times`` can continue this
        one: it stopped without escaping, and its samples are exactly those
        of the times up to its end."""
        return self.end is not None and np.array_equal(
            self.times, sample_times[:np.searchsorted(
                sample_times, self.end[0], side="right")])

    def energies(self, model: PulseModel) -> np.ndarray:
        """``model.energy`` of each sample, in one batch.  A sample that
        is not finite raises ValueError, as it does as a ``GridField``."""
        samples = self.u_samples.reshape(self.n_samples, model.grid.n)
        if not np.all(np.isfinite(samples)):
            raise ValueError("field contains non-finite samples")
        return model.energy_values(samples)


class _SplitStepper:
    """Strang splitting steps on the rffts of a stack of states, for one
    solve.

    A Strang step of dt is a linear half step, a product of the rfft with
    m = exp(-dt (k^2 + 1) / 2); the quadratic substep v / (1 - dt v) on the
    physical values v; and a second linear half step.  Two adjacent half
    steps are one exact linear step, the product with m^2.  So inside a
    sample interval the stack is carried *primed* for its whole-step dt:
    each row holds z = uh m dt, where uh is the rfft of the state, and
    irfft(z) is dt times the values after the first half step.  A whole
    step is then y = irfft(z), y /= 1 - y, z = rfft(y) m^2: one inverse and
    one forward FFT and three ufuncs for the whole stack.  ``prime`` primes
    a stack at the start of an interval that holds whole steps, and the
    clamped step onto the sample un-primes it; samples, ``end`` and the
    stack between intervals are plain rffts.  So where a step call returns
    inside an interval changes no bit of z.

    Rows never mix, and the FFTs transform each row exactly as they would
    transform it alone, so every row evolves bitwise as it would in a stack
    of one.  Norms of a state come from the interleaved parts of its rfft
    by Parseval, with no FFT; on a primed stack the weights are divided by
    (m dt)^2, which reads the norms of uh from z.

    A stepper is built once per solve from what the solve never changes:
    its whole-step dt, its escape rule (ceiling, collapse floor) and the
    plan of its sample intervals from its start time to each of
    ``targets``.  The plan gives each interval its whole steps, ``whole``
    (see ``_whole_steps``), and the length of its clamped step, the sample
    time less the interval's start plus those whole steps; the half-step
    multipliers of all the clamped steps come from one exp, one row per
    interval.  ``bind`` sizes the step buffers and row views for the stack
    that the kernel steps in place, at the start of a solve and after each
    lane drop.

    ``step`` is the one step kernel: one call runs what is left of a sample
    interval, its whole steps and the clamped step onto the sample, and
    writes the sample.  It returns early only after a step in which a row
    escapes or blows up, so a solve makes one call per interval plus one
    per such event, and each step is the same operations on the same
    operands wherever a call returns.  The kernel calls the grid's binding,
    ``PeriodicGrid.c2r`` and ``r2c``, itself, so its transforms add no
    Python frame; they and the ufuncs take their arguments by position.
    """

    def __init__(self, grid: PeriodicGrid, dt: float,
                 escape: tuple[float, float | None], start: float,
                 targets: list[float]):
        self.n = grid.n
        rate = grid.wavenumbers**2 + 1.0
        # Weights on the interleaved real and imaginary parts of a state:
        # plain on an rfft, primed for dt inside a sample interval.
        self._plain = weak, strong = grid.parseval_weights()
        self._product = np.empty_like(weak)
        half = np.exp(-0.5 * dt * rate)
        with np.errstate(divide="ignore", over="ignore"):
            unprime = 1.0 / (half * dt)
            scale = np.repeat(unprime * unprime, 2)
        # A mode that a step damps below the floating-point range carries
        # nothing.
        unprime[np.isinf(unprime)] = 0.0
        scale[np.isinf(scale)] = 0.0
        # Complex, as a product with the rfft would cast them.
        self._prime = (half * dt).astype(complex)
        self._square = np.exp(-dt * rate).astype(complex)
        self._unprime = unprime
        self._primed = weak * scale, strong * scale
        self.whole, self._lengths = [], []
        for target in targets:
            whole = _whole_steps(target - start, dt)
            self.whole.append(whole)
            self._lengths.append(target - (start + whole * dt))
            start = target
        self._halves = np.exp(np.multiply.outer(
            -0.5 * np.array(self._lengths, dtype=float), rate))
        # The complex multipliers a clamped step's products take, with the
        # zero imaginary parts that casting the real ones would give.
        self._before = np.zeros(grid.n // 2 + 1, complex)
        self._after = np.zeros(grid.n // 2 + 1, complex)
        self._real_parts = self._before.real, self._after.real
        # The rule (ceiling, low, watch), the whole steps' bounds of
        # ``_sum_bounds`` and the clamped step's bound on the band's bottom.
        low, watch = _quiet_band(*escape)
        self._rule = escape[0], low, watch
        self._bounds = _sum_bounds(grid.spacing, dt, low, watch)
        self._edge = _sum_bounds(grid.spacing, 1.0, low, watch)[0]

    def bind(self, uh: np.ndarray) -> np.ndarray:
        """Size the step buffers for the rfft stack uh, which the kernel
        then steps in place, and take the row views of its values, the
        buffer of physical values, and its interleaved parts, the rule's
        reading.  Returns uh."""
        self._height = height = len(uh)
        self._spectrum = np.empty((height, self.n // 2 + 1), complex)
        self._values = np.empty((height, self.n))
        self._denom = np.empty((height, self.n))
        self._physical = list(self._values)
        self._rows = list(uh.view(np.float64))
        return uh

    def prime(self, uh: np.ndarray) -> np.ndarray:
        """Prime the rfft stack uh in place for whole steps of dt: each row
        becomes z = uh m dt.  Returns uh."""
        uh *= self._prime
        return uh

    def step(self, uh: np.ndarray, count: int, interval: int,
             sample: np.ndarray):
        """Advance each row of the stack uh, the one ``bind`` took, by
        ``count`` >= 0 whole steps of dt and then the clamped step that
        ends sample interval ``interval`` of the plan, in place.

        The whole steps take uh primed for dt (``prime``) and leave it
        primed.  The clamped step takes uh, primed when the interval holds
        whole steps and an rfft when it does not, back to an rfft: it is
        the textbook step, a product with m before the inverse transform
        and after the forward one, the first times 1 / (m dt) on a primed
        stack.  After it, ``PeriodicGrid.c2r`` writes the grid values of
        each row into the rows of ``sample``.

        After every step the escape rule of ``_signs`` reads the rows, and
        a row whose quadratic subflow blows up (a denominator at or below
        ``_DENOM_FLOOR``) leaves the stack; the call stops after the first
        step where either happens.  Returns the advanced rows, uh itself
        unless a row blew up, when the other rows are a new stack; the mask
        of the rows that blew up in the last step taken (None when none
        did); the escape signs of the returned rows after that step, +1, -1
        or 0 each (None when every one is 0); and the number of steps
        taken, the clamped one included.

        The rule's norms are read only where a bound cannot rule an escape
        out.  Each whole step reads s = sum(y^2) of each row's values
        y = irfft(z), one dot product (see ``_sum_bounds``): s below its
        upper bound rules out a blow-up in this step and an exit past the
        quiet band's top after it, and s above its lower bound shows that
        the state entering the step is above the band's bottom.  Where the
        first fails, the step runs the denominator test and then the rule
        on its result; where the second fails and the entering state, the
        result of a step before in this call, was not read, the rule reads
        it before anything is written, and the call returns that state with
        one step fewer.  The clamped step bounds its entering state the
        same way, on its unscaled half-stepped values, and always runs the
        denominator test and the rule.  So the call stops after the step
        where reading every step would, with the same bits.

        A stack of another height than the one ``bind`` sized the buffers
        for is refused with a ValueError before any step: the transforms
        would write past those buffers.
        """
        if len(uh) != self._height:
            raise ValueError(f"a stack of {len(uh)} rows cannot be stepped "
                             f"in buffers bound for {self._height}")
        v, denom, product = self._values, self._denom, self._product
        n, r2c, c2r = self.n, PeriodicGrid.r2c, PeriodicGrid.c2r
        physical, rows, rule = self._physical, self._rows, self._rule
        weights, square = self._primed, self._square
        s_low, s_high = self._bounds
        taken, checked = 0, True  # checked: the rule has read uh
        for taken in range(1, count + 1):
            c2r(uh, (-1,), n, False, 2, v, 1)
            exact = edge = False
            for row in physical:
                s = row.dot(row)
                exact = exact or not s < s_high
                edge = edge or not s > s_low
            if edge and not checked:
                signs = _signs(rows, weights, product, rule)
                if signs is not None:
                    return uh, None, signs, taken - 1
            np.subtract(1.0, v, denom)
            if exact and np.minimum.reduce(denom, None) <= _DENOM_FLOOR:
                return (*_blown(v, denom, square, weights, product, rule),
                        taken)
            v /= denom
            r2c(v, (-1,), True, 0, uh, 1)
            uh *= square
            checked = exact
            if exact:
                signs = _signs(rows, weights, product, rule)
                if signs is not None:
                    return uh, None, signs, taken
        clamp, half = self._lengths[interval], self._halves[interval]
        after, (before_real, after_real) = self._after, self._real_parts
        np.copyto(after_real, half)
        if self.whole[interval]:
            before = self._before
            np.multiply(half, self._unprime, before_real)
        else:
            before = after
        c2r(np.multiply(uh, before, self._spectrum), (-1,), n, False, 2, v, 1)
        if not checked:
            for row in physical:
                if not row.dot(row) > self._edge:
                    signs = _signs(rows, weights, product, rule)
                    if signs is not None:
                        return uh, None, signs, taken
                    break
        np.subtract(1.0, np.multiply(v, clamp, denom), denom)
        if np.minimum.reduce(denom, None) <= _DENOM_FLOOR:
            uh, blown, signs = _blown(v, denom, after, self._plain, product,
                                      rule)
            sample[~blown] = c2r(uh, (-1,), n, False, 2, None, 1)
            return uh, blown, signs, taken + 1
        v /= denom
        r2c(v, (-1,), True, 0, uh, 1)
        uh *= after
        c2r(uh, (-1,), n, False, 2, sample, 1)
        return uh, None, _signs(rows, self._plain, product, rule), taken + 1


def _sum_bounds(h: float, dt: float, low: float,
                high: float) -> tuple[float, float]:
    """Bounds (s_low, s_high) on s = sum(y^2), where y = dt v and v are
    the values of a state u after a linear half step of dt (y = irfft(z)
    on a stack primed for dt) on a grid of spacing h, for a band
    (low, high) with high > 0.

    The half step damps every mode by m <= 1, so sqrt(h s) <= dt |u|,
    with |u| the weak norm: s > s_low = (low dt)^2 / h shows |u| > low.
    Each |y_i| <= sqrt(s), so sqrt(s) <= 0.4 keeps every denominator
    1 - y_i at 0.6 or more, above ``_DENOM_FLOOR``, and the quadratic
    substep gives |y_i / (1 - y_i)| <= |y_i| / (1 - sqrt(s)); with the
    second half step, the state after the step has a weak norm of at
    most sqrt(h s) / (dt (1 - sqrt(s))), which is below high for
    sqrt(s) < high dt / (sqrt(h) + high dt).  s < s_high shows both.
    Each bound gives up ``_SUM_SLACK`` of itself to round-off.  With
    dt = 1, s_low bounds the unscaled values v of a half step of any
    length, as the clamped step forms them.
    """
    s_low = low * abs(low) * dt * dt / h * (1.0 + _SUM_SLACK)  # -inf: none
    root = min(high * dt / (math.sqrt(h) + high * dt), 0.4)
    return s_low, root * root * (1.0 - _SUM_SLACK)


def _norm(parts: np.ndarray, weights: np.ndarray,
          product: np.ndarray) -> float:
    """sqrt(parts . (weights parts)) for the interleaved parts of one row
    of a stack, the weighted parts formed in the buffer ``product``: the
    one way the stepper reads a norm."""
    return math.sqrt(parts.dot(np.multiply(parts, weights, product)))


def _signs(rows: list, weights: tuple, product: np.ndarray,
           rule: tuple[float, float, float]) -> list[int] | None:
    """The escape rule, for the interleaved parts of each of ``rows``, with
    the (weak, strong) ``weights`` their form takes (plain on an rfft,
    primed inside a sample interval) and ``rule`` = (ceiling, low, watch),
    the quiet band (low, watch) of ``_quiet_band``: +1 when a row's state
    is not finite or has reached the ceiling, -1 when its weak norm is at
    or below the collapse floor low, else 0; None when every sign is 0.
    A row's strong norm is read only past the band's top, watch."""
    ceiling, low, watch = rule
    weak_weights, strong_weights = weights
    signs = None
    for index, parts in enumerate(rows):
        weak = _norm(parts, weak_weights, product)
        if low < weak < watch:
            continue
        if not math.isfinite(weak) or weak >= ceiling or (
            weak >= watch and _norm(parts, strong_weights, product)
            >= ceiling
        ):
            sign = 1
        elif weak <= low:
            sign = -1
        else:
            continue
        if signs is None:
            signs = [0] * len(rows)
        signs[index] = sign
    return signs


def _blown(v: np.ndarray, denom: np.ndarray, after: np.ndarray,
           weights: tuple, product: np.ndarray, rule: tuple) -> tuple:
    """The end of a step in which some row's denominator reached
    ``_DENOM_FLOOR``: the other rows finish it into a new stack, times the
    multiplier ``after``, and the rule reads them with ``weights``.  Returns
    that stack, the mask of the rows that blew up and the rule's signs."""
    blown = denom.min(axis=1) <= _DENOM_FLOOR
    v, denom = v[~blown], denom[~blown]
    v /= denom
    uh = PeriodicGrid.r2c(v, (-1,), True, 0,
                          np.empty((len(v), after.shape[-1]), complex), 1)
    uh *= after
    return uh, blown, _signs(list(uh.view(np.float64)), weights, product,
                             rule)


def _quiet_band(ceiling: float,
                collapse_floor: float | None) -> tuple[float, float]:
    """The open interval of weak norms in which a state can neither escape
    nor need its strong norm read: above the collapse floor (when given)
    and below 0.4 ceiling, where the strong norm could reach the ceiling."""
    low = -math.inf if collapse_floor is None else collapse_floor
    return low, 0.4 * ceiling


def _positive(name: str, value: float, floor: float = 0.0) -> float:
    """value as a float, or a ValueError naming it when it is not a
    positive finite number of at least floor."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0 and value >= floor):
        least = f" of at least {floor:g}" if floor else ""
        raise ValueError(f"{name} must be a positive finite number{least}, "
                         f"got {value!r}")
    return value


def _checked_escapes(ceiling: float,
                     collapse_floor: float | None) -> tuple[float, float | None]:
    """The ceiling and collapse floor as floats, or a ValueError naming the
    one that is not a positive finite number, or (the floor) a finite
    number of at least 0; a floor of None stays None."""
    ceiling = _positive("ceiling", ceiling)
    if collapse_floor is not None:
        collapse_floor = float(collapse_floor)
        if not (math.isfinite(collapse_floor) and collapse_floor >= 0.0):
            raise ValueError(f"collapse_floor must be a finite number of at "
                             f"least 0, got {collapse_floor!r}")
    return ceiling, collapse_floor


def _checked_samples(sample_times) -> np.ndarray:
    sample_times = np.asarray(sample_times, dtype=float)
    if len(sample_times) == 0 or sample_times[0] < 0.0:
        raise ValueError("sample times must be nonnegative and nonempty")
    if not np.all(np.isfinite(sample_times)):
        raise ValueError("sample times must be finite")
    if np.any(np.diff(sample_times) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
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


def _new_lane(values: np.ndarray, sample_times: np.ndarray,
              dt: float) -> tuple[list, np.ndarray, dict]:
    """Recorded times, recorded states and stats of a solve from values at
    t = 0; a sample at t = 0 is the initial state itself."""
    first = int(sample_times[0] == 0.0)
    return [0.0][:first], values[None][:first], dict(
        steps=0, escape_sign=0, escape_time=None, final_dt=dt)


def _kept(record: np.ndarray, keep, recorded: int) -> np.ndarray:
    """The rows of ``record`` that ``keep`` marks, with their first
    ``recorded`` samples; the rest is left to be written."""
    kept = np.empty((np.count_nonzero(keep), *record.shape[1:]))
    kept[:, :recorded] = record[keep, :recorded]
    return kept


def evolve_lanes(model: PulseModel, starts, *, dt: float,
                 sample_times: np.ndarray, ceiling: float = 10.0,
                 collapse_floor: float | None = None) -> list[FullTrajectory]:
    """Fixed-step solves of several states stepped together as lanes.

    ``starts`` holds one entry per lane: the initial values at t = 0, or a
    ``FullTrajectory`` to continue from its ``end``; no entry gives no
    solve.  All lanes must start at one time.  Their rffts are stepped as
    one ``(K, n // 2 + 1)`` stack, one inverse and one forward FFT per step
    for all of them, and each lane comes out bitwise equal to solving it
    alone: same samples, same escape, same ``stats``.  A continued lane's
    trajectory and ``stats`` equal those of one solve from t = 0 with the
    same step, samples and escape checks.

    Each interval up to the next of ``sample_times``, where the states are
    recorded, takes the whole steps of size dt that it holds and then one
    clamped step that ends on the sample (``_whole_steps``), so no step has
    zero length, and none has round-off length unless the interval has.
    The solve's one ``_SplitStepper`` plans every interval once from the
    start time, and one step-kernel call runs an interval and writes its
    sample into each lane's row of one array allocated for all samples; a
    lane that escapes ends the call, and the other lanes finish the
    interval in the next.  A lane escapes with direction +1 when its
    quadratic substep passes through infinity or its strong norm reaches
    ``ceiling``, and with direction -1 when its weak norm falls to
    ``collapse_floor`` (when given); it is then dropped from the stack,
    keeping the samples recorded so far, and the stepper binds the stack
    that is left.  A dt that is not a positive finite number of at least
    ``DT_FLOOR`` (a smaller one plans more steps than a solve can take),
    sample times that are not finite, a ceiling that is not a positive
    finite number, a collapse floor that is not a finite number of at least
    0 and initial values that are not one value per grid point are refused
    with ``ValueError`` before any step.
    """
    dt = _positive("dt", dt, DT_FLOOR)
    sample_times = _checked_samples(sample_times)
    ceiling, collapse_floor = _checked_escapes(ceiling, collapse_floor)
    n = model.grid.n
    lanes, rows, origins = [], [], set()
    for index, start in enumerate(starts):
        if isinstance(start, FullTrajectory):
            if not (start.continues_to(sample_times)
                    and start.stats.get("final_dt") == dt):
                raise ValueError("only a surviving fixed-step solve with the "
                                 "same step and samples can be continued")
            t0, uh0 = start.end
            lanes.append((list(start.times), start.u_samples,
                          dict(start.stats)))
        else:
            values = np.asarray(start, dtype=float)
            if values.shape != (n,):
                raise ValueError(f"lane {index} starts from values of shape "
                                 f"{values.shape}, not one per grid point "
                                 f"(n = {n})")
            t0, uh0 = 0.0, model.grid.rfft(values)
            lanes.append(_new_lane(values, sample_times, dt))
        origins.add(t0)
        rows.append(uh0)
    if not lanes:
        return []
    if len(origins) != 1:
        raise ValueError("all lanes must start at one time")
    t = origins.pop()
    next_sample = int(np.searchsorted(sample_times, t, side="right"))
    sample_times = sample_times.tolist()
    stepper = _SplitStepper(model.grid, dt, (ceiling, collapse_floor), t,
                            sample_times[next_sample:])
    # Row r of the stack records its samples into row r of ``record``.
    record = np.empty((len(lanes), len(sample_times), n))
    for row, (_, states, _) in enumerate(lanes):
        record[row, :next_sample] = states

    def end(lane, row, recorded, steps, sign, t, last=None):
        """Lane ``lane``, in row ``row`` of the stack, ends after ``steps``
        steps of this solve with ``recorded`` samples."""
        times, _, stats = lanes[lane]
        stats["steps"] += steps
        stats["escape_sign"], stats["escape_time"] = sign, t
        lanes[lane] = FullTrajectory(
            np.array(times + sample_times[len(times):recorded]),
            record[row, :recorded], stats, last)

    uh = stepper.bind(np.array(rows))
    active = list(range(len(lanes)))
    steps = 0
    for interval, whole in enumerate(stepper.whole):
        if not active:
            break
        target = sample_times[next_sample]
        begin, taken = t, 0
        if whole:
            stepper.prime(uh)
        while active and taken <= whole:
            uh, blown, signs, done = stepper.step(
                uh, whole - taken, interval, record[:, next_sample])
            taken += done
            steps += done
            recorded = next_sample + (taken > whole)
            t = target if taken > whole else begin + taken * dt
            if blown is None and signs is None:
                continue
            if blown is not None:
                # The rows blew up in the last step taken, from the time
                # that step started at.
                for row in np.flatnonzero(blown):
                    end(active[row], row, next_sample, steps - 1, 1,
                        begin + (taken - 1) * dt)
                active = list(compress(active, ~blown))
                record = _kept(record, ~blown, recorded)
            if signs is not None:
                for row, sign in enumerate(signs):
                    if sign:
                        end(active[row], row, recorded, steps, sign, t)
                keep = [not sign for sign in signs]
                uh, active = uh[keep], list(compress(active, keep))
                record = _kept(record, keep, recorded)
            stepper.bind(uh)
        next_sample += 1

    for row, lane in enumerate(active):
        end(lane, row, next_sample, steps, 0, None, (t, uh[row].copy()))
    return lanes


def extract_modulated(model: PulseModel, traj: FullTrajectory,
                      sigma_guess: float) -> TrajectoryPath:
    """The samples decomposed into chart point plus orthogonal remainder by
    ``decompose_states`` from sigma_guess, up to the first sample that left
    the tubular neighborhood; a first sample that cannot be decomposed
    raises ConvergenceError."""
    sigmas: list[float] = []
    fields: list[np.ndarray] = []
    try:
        for sigma, w in decompose_states(model, traj.u_samples, sigma_guess):
            sigmas.append(sigma)
            fields.append(w)
    except ConvergenceError as err:
        if not sigmas:
            raise ConvergenceError(
                f"state decomposition failed at t = {traj.times[0]:.6g} "
                f"(sample 0): {err}"
            ) from err
    m = len(sigmas)
    return TrajectoryPath(
        times=traj.times[:m].copy(),
        sigma=np.array(sigmas),
        w=np.array(fields),
        grid=model.grid,
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
    fixed-step solve from the same state can continue.  ``history`` is
    shooting's record of its lane solves, one entry (probe time,
    coefficient, sign, probe coefficient or None if the solve escaped,
    escape time or None if it survived) per lane solve, in solve order,
    from which ``beta`` and ``bracket`` are read.  ``roundoff_floor`` is the
    round-off floor of the root (``_roundoff_floor``), below which a Newton
    step ends the polish.  These three are left out of the payload.
    """

    beta: float
    picard_beta: float
    evaluations: int
    bracket: float
    probe_time: float
    dt: float
    trajectory: FullTrajectory = field(repr=False, compare=False)
    history: tuple[tuple[float, float, float, float | None, float | None],
                   ...] = field(default=(), repr=False)
    roundoff_floor: float = field(default=math.nan, repr=False)

    def payload(self) -> dict:
        """The fields but the trajectory, history and round-off floor as a
        plain dict, in declaration order, for artifacts."""
        return {item.name: getattr(self, item.name) for item in fields(self)
                if item.name not in ("trajectory", "history",
                                     "roundoff_floor")}


#: The short probe sits at the mesh time at or below this fraction of the
#: full probe time.  Its solves cost that fraction of a full one, and a
#: bracket wide enough to hold the fixed-point error survives to it.
_SHORT_PROBE_FRACTION = 0.25

#: The mid probe sits at the mesh time at or below this fraction of the
#: full probe time.  The root at a probe time drifts toward the full-probe
#: root as that time grows, so one Newton step there starts the polish
#: close enough for two full-probe rounds; at half the probe time, probes
#: 12 and 14 on the default pipeline took 9 and 8 lane solves, not 7.
_MID_PROBE_FRACTION = 0.7

#: Finite-difference partner of the full-probe Newton steps, in units of
#: beta.  The steps shrink to the round-off floor of the root (see
#: ``_roundoff_floor``, 6.62e-15 on the default pipeline); a partner of
#: about 1,500 floors keeps their slope good to a few parts in 1e3.
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
    coefficient at zero at the probe time, in three stages:

    1. *Predictor.*  At a short probe (the mesh time at or below a quarter
       of the probe time) one three-lane solve takes both ends of a
       bracket around the fixed-point value and the value itself; the
       bracket widens until its ends give opposite signs.  The predictor is
       the root nearest the fixed-point value of the quadratic through the
       three solves.
    2. *Mid probe.*  One solve of the predictor to the mesh time at or below
       0.7 of the probe time, and one Newton step there on the short-probe
       slope and curvature, grown by the unstable mode between the two
       probes.  The polish starts where that step lands, or at the
       predictor if the solve escaped.
    3. *Polish.*  At the full probe, a safeguarded Newton iteration.  A
       round solves the iterate and a finite-difference partner, on the
       side the last step moved to (at first, the side the predictor moved
       to from the fixed-point value), as two lanes.  Once a
       finite-difference slope has been measured and surviving solves of
       both signs are held, a round solves the iterate alone.  Each step
       takes the last measured slope, and until there is one the
       short-probe slope grown by the unstable mode between the probes.  An
       escaped iterate with no pair of opposite-sign solves yet marches
       against its escape sign, one solve at a time, by that grown slope,
       until the sign flips.

    One bracket rule serves the short and the full probe (the mid probe's
    one solve forms no pair): a predictor or step that is not
    inside the narrowest neighbouring pair of solves with sign -1 below and
    +1 above (or is missing, because a solve escaped) is replaced by false
    position on that pair, once sign bisection has narrowed the pair until
    both ends survive.  An escape between two surviving solves of opposite
    sign is a ConvergenceError.  The polish stops once the Newton step is
    below the round-off floor of the root (see ``_roundoff_floor``) and the
    solve closest to zero has a surviving neighbour of opposite sign.
    Inside that floor the probe coefficient is noise, so the result is the
    solved coefficient whose probe coefficient is closest to zero; a probe
    time at which that floor, grown by the unstable mode, reaches the
    ``ceiling`` is refused before any solve, since round-off alone would
    drive every coefficient there to escape.  Every lane solve is recorded
    once, by probe and coefficient, in solve order: the record is the cache
    that keeps any solve from being repeated, the bracket rule reads it,
    and it is the result's ``history``, from which ``beta`` and ``bracket``
    are read.  Every stage draws on the one budget of ``max_evaluations``
    lane solves; a solve whose lanes do not all fit in it is not started.
    The probe trajectories use the same step size, sample clamping and
    escape checks as later comparison runs, so the refined value belongs to
    the exact discrete flow being compared, and such a run can continue the
    returned ``trajectory``.
    """
    model = workspace.model
    grid = workspace.grid
    mesh = workspace.times
    if probe_time is None:
        probe_time = float(mesh[np.searchsorted(mesh, 16.0, side="right") - 1])
    full_samples = mesh_prefix(mesh, probe_time)
    # Snap onto the mesh so the recorded probe time is the one actually used.
    probe_time = float(full_samples[-1])
    short_samples = mesh_prefix(mesh, _SHORT_PROBE_FRACTION * probe_time)
    mid_samples = mesh_prefix(mesh, _MID_PROBE_FRACTION * probe_time)
    floor = collapse_floor(model)
    mode = workspace.unstable_mode
    growth = -workspace.unstable_eigenvalue
    xtol = _roundoff_floor(point.initial_state.values, growth, dt)
    if xtol * np.exp(growth * probe_time) >= ceiling:
        raise ConvergenceError(
            f"no coefficient can be refined at the probe time t = "
            f"{probe_time:.6g}: round-off alone grows past the ceiling "
            f"{ceiling:g} there"
        )
    # Every lane solve, keyed by (probe time, beta), in solve order: its
    # sign, its probe coefficient (None if it escaped) and its escape time
    # (None if it survived).
    solved: dict[tuple[float, float],
                 tuple[float, float | None, float | None]] = {}
    best = None  # the probe trajectory of the full-probe solve closest to
    #              zero; no other trajectory is kept

    def ordered(samples):
        """(beta, sign, value, escape time) of the solves at this probe,
        by beta."""
        return sorted((beta, *end) for (t, beta), end in solved.items()
                      if t == samples[-1])

    def closest():
        """The beta of the surviving full-probe solve closest to zero, and
        its distances to the surviving full-probe solves of the other
        sign."""
        held = [row for row in ordered(full_samples) if row[2] is not None]
        beta, sign, _, _ = min(held, key=lambda row: (abs(row[2]), row[0]))
        return beta, [abs(b - beta) for b, s, _, _ in held if s != sign]

    def probe(samples, betas, stage):
        """(sign, value-or-None, escape time-or-None) of the unstable
        coefficient at the probe, for each beta; those not solved before
        are solved as lanes.

        An escaped run gives its escape direction and time and no value; a
        zero value counts as negative, so every sign is +1 or -1.
        """
        nonlocal best
        t = float(samples[-1])
        new = [beta for beta in dict.fromkeys(betas) if (t, beta) not in solved]
        if len(solved) + len(new) > max_evaluations:
            raise ConvergenceError(
                f"shooting refinement exhausted its budget of "
                f"{max_evaluations} solves during the {stage}"
            )
        trajectories = evolve_lanes(
            model, [corrected_initial_state(workspace, point, beta).values
                    for beta in new],
            dt=dt, sample_times=samples, ceiling=ceiling, collapse_floor=floor,
        ) if new else []
        for beta, traj in zip(new, trajectories):
            if traj.escaped:
                solved[(t, beta)] = (float(traj.stats["escape_sign"]), None,
                                     float(traj.stats["escape_time"]))
                continue
            (sigma, w), = decompose_states(model, traj.u_samples[-1:],
                                           point.sigma0)
            value = float(unstable_coefficient(grid, mode, workspace.sigma0,
                                               sigma, w))
            solved[(t, beta)] = (1.0 if value > 0.0 else -1.0), value, None
            if t == probe_time and closest()[0] == beta:
                best = traj
        held = [(beta, sign) for beta, sign, value, _ in ordered(samples)
                if value is not None]
        for beta in new:
            if solved[(t, beta)][1] is None and any(
                    b < beta and sign < 0 for b, sign in held) and any(
                    b > beta and sign > 0 for b, sign in held):
                raise ConvergenceError(
                    f"the {stage} iterate {float(beta)!r} escaped before "
                    f"t = {t:.6g} inside a surviving bracket"
                )
        return [solved[(t, beta)] for beta in betas]

    def bracketed(samples, x, name):
        """x, or false position on the narrowest neighbouring pair of solves
        at this probe with sign -1 below and +1 above when x lies outside
        it, and that pair as (lo, v_lo, hi, v_hi) once sign bisection has
        narrowed it until both ends survive; the pair is None when the probe
        has none, and then x is returned as it is."""
        while True:
            rows = ordered(samples)
            pairs = [(a, b) for a, b in zip(rows, rows[1:]) if a[1] < 0 < b[1]]
            if not pairs:
                return x, None
            (lo, _, v_lo, _), (hi, _, v_hi, _) = min(
                pairs, key=lambda pair: pair[1][0] - pair[0][0])
            if None not in (v_lo, v_hi):
                break
            # Its bisected half is the next narrowest pair.
            mid = 0.5 * (lo + hi)
            stage = f"{name} escape bisection"
            if not lo < mid < hi:
                raise ConvergenceError(
                    f"no surviving coefficient between {float(lo)!r} and "
                    f"{float(hi)!r} at t = {samples[-1]:.6g}: the {stage} "
                    f"reached adjacent floats"
                )
            probe(samples, [mid], stage)
        if not lo < x < hi:
            x = lo - v_lo * (hi - lo) / (v_hi - v_lo)
        return x, (lo, v_lo, hi, v_hi)

    # Predictor: at the short probe, a bracket around the fixed-point value
    # whose ends give opposite signs.
    stage = "short-probe bracketing"
    center = point.correction
    radius = max(_BRACKET_FACTOR * abs(center), _BRACKET_MIN)
    for _ in range(5):
        lo, hi = center - radius, center + radius
        end_lo, end_hi, end_c = probe(short_samples, [lo, hi, center], stage)
        if end_lo[0] < 0 < end_hi[0]:
            break
        radius *= 4.0
    else:
        raise ConvergenceError(
            "could not bracket the refined correction: the unstable "
            "coefficient does not change sign around the fixed-point value"
        )
    root = math.nan
    if None not in (end_lo[1], end_hi[1], end_c[1]):
        # The root of the quadratic through the three solves: the ends sit
        # symmetric about the center, so their secant is its slope there.
        slope = (end_hi[1] - end_lo[1]) / (hi - lo)
        curvature = ((end_hi[1] - end_c[1]) / (hi - center)
                     - (end_c[1] - end_lo[1]) / (center - lo)) \
            / (hi - lo) / slope
        root = center + _newton_step(end_c[1], slope, curvature)
    predictor, (lo, v_lo, hi, v_hi) = bracketed(short_samples, root,
                                                "short-probe")
    if predictor != root:
        slope, curvature = (v_hi - v_lo) / (hi - lo), 0.0
    # The probe coefficient per unit beta and its relative curvature at a
    # later probe: the unstable mode grows the first by exp(growth * dT)
    # between the probes, and the second, which comes from the quadratic
    # term acting on the growing mode, by the same factor.
    def grown(samples):
        return np.exp(growth * (float(samples[-1] - short_samples[-1])))

    # Mid probe: one Newton step from the predictor on the grown model.
    start = predictor
    (_, mid_value, _), = probe(mid_samples, [predictor], "mid-probe")
    if mid_value is not None:
        factor = grown(mid_samples)
        start = predictor + _newton_step(mid_value, slope * factor,
                                         curvature * factor)
    factor = grown(full_samples)
    full_slope, curvature = slope * factor, curvature * factor

    # Polish: safeguarded Newton at the full probe.  ``stride`` is nonzero
    # while marching from an escaped iterate; ``measured`` is the last
    # positive finite-difference slope.  On every seed measured, the roots
    # at shorter probes lay on the fixed-point value's side of the
    # full-probe root, so the first partner goes the way the predictor
    # moved from that value.
    x, side, stride = start, (1.0 if predictor >= center else -1.0), 0.0
    measured = math.nan
    for _ in range(max_evaluations):
        lone = stride or measured > 0.0 and len(
            {sign for _, sign, value, _ in ordered(full_samples)
             if value is not None}) == 2
        (sign, value, _), *partner = probe(
            full_samples, [x] if lone else [x, x + side * _FULL_PARTNER],
            "full-probe bracketing" if stride else "full-probe polish")
        partner_value = partner[0][1] if partner else None
        if value is not None and partner_value is not None:
            # On the quadratic model, the secant to the partner is the
            # slope at x times (1 + curvature * offset).
            offset = side * _FULL_PARTNER
            secant = (partner_value - value) / offset \
                / (1.0 + curvature * offset)
            if secant > 0.0:
                measured = secant
        step = math.nan
        if value is not None and not stride:
            step = _newton_step(value, measured if measured > 0.0
                                else full_slope, curvature)
            if abs(step) <= xtol and closest()[1]:
                break
        target, _ = bracketed(full_samples, x + step, "full-probe")
        if math.isnan(target):
            # No step and no pair: march against the escape sign, by the
            # short-probe slope grown between the probes, until it flips.
            stride = 4.0 * stride if stride else _MARCH_OVERSHOOT / full_slope
            target = x - sign * stride
        else:
            stride = 0.0
        side = 1.0 if target > x else -1.0
        x = target
    else:
        raise ConvergenceError(
            f"the full-probe polish did not settle within "
            f"{max_evaluations} rounds"
        )
    beta_star, widths = closest()

    return RefineResult(
        beta=float(beta_star),
        picard_beta=point.correction,
        evaluations=len(solved),
        bracket=float(min(widths)),
        probe_time=probe_time,
        dt=float(dt),
        trajectory=best,
        history=tuple((t, float(beta), *end)
                      for (t, beta), end in solved.items()),
        roundoff_floor=xtol,
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
