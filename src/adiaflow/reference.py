"""Full nonlinear solver for the gradient flow and manifold cross-checks.

The solver is the brute-force oracle the reduced objects are judged against:
it integrates the flow with a stiff-aware splitting — the constant-coefficient
linear part (second derivative minus identity) advanced exactly in Fourier
space, the pointwise quadratic part advanced exactly by its closed-form
solution — composed symmetrically for second-order accuracy.  Step sizes
adapt by halving against a Richardson error estimate; a fixed-step mode keeps
the discrete flow bitwise reproducible for shooting.

On top of the solver:

* ``extract_modulated`` turns a full trajectory into a chart path plus
  orthogonal remainder, warm-starting each decomposition at the previous
  chart point;
* ``refine_correction`` shoots for the initial unstable coefficient whose
  discrete trajectory neither blows up nor collapses — the solver-level
  counterpart of the fixed-point correction.  A cheap solve to a quarter of
  the probe time predicts the root, a false-position polish at the full
  probe stops at the round-off floor of the root, and every solve is cached
  so none is repeated;
* ``compare_effective`` measures how far the reduced dynamics (fixed-point
  path and chart velocity field) sit from the extracted full solution;
* ``instability_witness`` perturbs the corrected initial state along the
  unstable mode and fits the resulting growth rate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConvergenceError
from .grid import GridField, PeriodicGrid
from .manifold import ManifoldPoint, SolutionMapWorkspace
from .model import PulseModel
from .modulation import decompose_state, solve_modulation
from .paths import TrajectoryPath, time_weight

#: Smallest acceptable nonlinear-substep denominator; below this the step is
#: considered to have crossed a blow-up.
_DENOM_FLOOR = 0.5

#: Hard floor on the adaptive step before the run is declared escaped.
_DT_FLOOR = 1e-12


@dataclass
class FullTrajectory:
    """Sampled full solve with integrator statistics.

    ``stats`` records steps, rejected steps, the largest accepted per-step
    error estimate, and — when the run terminated early — the escape time
    and direction (+1 for blow-up, -1 for collapse toward zero).
    """

    times: np.ndarray
    u_samples: np.ndarray = field(repr=False)
    stats: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def escaped(self) -> bool:
        return self.stats.get("escape_sign", 0) != 0

    def sample(self, j: int, grid: PeriodicGrid) -> GridField:
        return GridField(self.u_samples[j].copy(), grid)

    def energies(self, model: PulseModel) -> np.ndarray:
        return np.array([
            model.energy(GridField(u, model.grid)) for u in self.u_samples
        ])


class _SplitStepper:
    """One symmetric splitting step; half-step multipliers cached per dt."""

    def __init__(self, grid: PeriodicGrid):
        self.grid = grid
        self._cache: dict[float, np.ndarray] = {}

    def _half(self, dt: float) -> np.ndarray:
        mult = self._cache.get(dt)
        if mult is None:
            mult = np.exp(-0.5 * dt * (self.grid.wavenumbers**2 + 1.0))
            self._cache[dt] = mult
        return mult

    def step(self, u: np.ndarray, dt: float) -> np.ndarray | None:
        """Advance by dt, or None when the quadratic subflow blows up."""
        n = self.grid.n
        mult = self._half(dt)
        v = np.fft.irfft(np.fft.rfft(u) * mult, n)
        denom = 1.0 - dt * v
        if np.min(denom) <= _DENOM_FLOOR:
            return None
        v = v / denom
        return np.fft.irfft(np.fft.rfft(v) * mult, n)


def evolve_full(model: PulseModel, u0: GridField, t_final: float,
                tol: float = 1e-9, *, dt_init: float = 1e-3,
                fixed_dt: float | None = None,
                sample_times: np.ndarray | None = None,
                ceiling: float = 10.0,
                collapse_floor: float | None = None,
                dt_max: float = 5e-2) -> FullTrajectory:
    """Integrate the gradient flow up to t_final.

    In the default adaptive mode each step is taken twice (once whole, twice
    halved) and accepted when the Richardson estimate of the halved result
    meets ``tol`` in the weak norm; rejected steps halve the step size and
    comfortable ones double it.  Passing ``fixed_dt`` disables the estimate
    and steps deterministically, which shooting and comparison runs need so
    that re-runs traverse the identical discrete flow.

    Samples are recorded exactly at ``sample_times`` (default: 401 uniform
    times) by clamping the step onto each sample.  A strong norm at or above
    ``ceiling`` — or a quadratic substep passing through infinity — ends the
    run with escape direction +1; a weak norm at or below ``collapse_floor``
    (when given) ends it with escape direction -1.  The returned trajectory
    is truncated at the recorded samples in either case.
    """
    grid = model.grid
    if sample_times is None:
        sample_times = np.linspace(0.0, t_final, 401)
    sample_times = np.asarray(sample_times, dtype=float)
    if len(sample_times) == 0 or sample_times[0] < 0.0:
        raise ValueError("sample times must be nonnegative and nonempty")
    if np.any(np.diff(sample_times) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    if sample_times[-1] > t_final + 1e-12:
        raise ValueError("sample times must not exceed the final time")

    stepper = _SplitStepper(grid)
    u = u0.values.copy()
    t = 0.0
    dt = float(fixed_dt) if fixed_dt is not None else float(dt_init)

    recorded_t: list[float] = []
    recorded_u: list[np.ndarray] = []
    next_sample = 0
    if sample_times[0] == 0.0:
        recorded_t.append(0.0)
        recorded_u.append(u.copy())
        next_sample = 1

    stats = {
        "steps": 0, "rejected": 0, "max_error_estimate": 0.0,
        "escape_sign": 0, "escape_time": None,
        "mode": "fixed" if fixed_dt is not None else "adaptive",
        "tol": float(tol), "final_dt": dt,
    }

    def escape(sign: int, now: float):
        stats["escape_sign"] = sign
        stats["escape_time"] = now

    horizon = min(t_final, sample_times[-1])
    while t < horizon and next_sample < len(sample_times):
        target = sample_times[next_sample]
        clamped = dt >= target - t
        dt_step = target - t if clamped else dt

        if fixed_dt is not None:
            u_new = stepper.step(u, dt_step)
            if u_new is None:
                escape(+1, t)
                break
        else:
            u_big = stepper.step(u, dt_step)
            u_half = stepper.step(u, 0.5 * dt_step)
            u_new = None if u_half is None else stepper.step(u_half, 0.5 * dt_step)
            if u_big is None or u_new is None:
                estimate = np.inf
            else:
                estimate = grid.weak_norm_values(u_big - u_new) / 3.0
            if not estimate <= tol:
                stats["rejected"] += 1
                dt = 0.5 * dt_step
                if dt < _DT_FLOOR:
                    escape(+1, t)
                    break
                continue
            stats["max_error_estimate"] = max(
                stats["max_error_estimate"], float(estimate)
            )
            if estimate < 0.1 * tol and not clamped:
                dt = min(2.0 * dt, dt_max)

        stats["steps"] += 1
        u = u_new
        t = target if clamped else t + dt_step
        if clamped:
            recorded_t.append(t)
            recorded_u.append(u.copy())
            next_sample += 1

        weak = grid.weak_norm_values(u)
        if not np.isfinite(weak):
            escape(+1, t)
            break
        if weak >= ceiling or (
            weak >= 0.4 * ceiling
            and grid.strong_norm_values(u) >= ceiling
        ):
            escape(+1, t)
            break
        if collapse_floor is not None and weak <= collapse_floor:
            escape(-1, t)
            break

    stats["final_dt"] = dt
    return FullTrajectory(
        times=np.array(recorded_t),
        u_samples=np.array(recorded_u),
        stats=stats,
    )


def extract_modulated(model: PulseModel, traj: FullTrajectory,
                      sigma_guess: float | None = None, *,
                      stop_on_failure: bool = False,
                      tol: float = 1e-12) -> TrajectoryPath:
    """Decompose every sample into chart point plus orthogonal remainder.

    The chart solve at each sample starts from the previous sample's chart
    point, so slow drifts are followed without chart jumps.  When a sample
    cannot be decomposed — the state left the tubular neighborhood — the
    error names the first bad time, or with ``stop_on_failure`` the valid
    prefix is returned instead.
    """
    grid = model.grid
    guess = 0.0 if sigma_guess is None else float(sigma_guess)
    sigmas: list[float] = []
    fields: list[np.ndarray] = []
    for j, t in enumerate(traj.times):
        state = GridField(traj.u_samples[j].copy(), grid)
        try:
            pt, w = decompose_state(
                model, state, model.symmetry_point(guess), tol=tol
            )
        except ConvergenceError as err:
            if stop_on_failure and j > 0:
                break
            raise ConvergenceError(
                f"state decomposition failed at t = {t:.6g} "
                f"(sample {j}): {err}"
            ) from err
        sigmas.append(pt.scalar)
        fields.append(w.values)
        guess = pt.scalar
    m = len(sigmas)
    return TrajectoryPath(
        times=traj.times[:m].copy(),
        sigma=np.array(sigmas),
        w=np.array(fields),
        grid=grid,
    )


@dataclass
class RefineResult:
    """Shooting-refined initial unstable coefficient.

    ``beta`` is the refined coefficient, the full-probe solve whose probe
    coefficient is closest to zero, and ``picard_beta`` the fixed-point
    value the search started from.  ``evaluations`` counts the full solves
    made, at every probe time.  ``bracket`` is the width of the bracket the
    final polish started from: both of its ends survive to ``probe_time`` and
    give the extracted coefficient opposite signs, so ``beta`` lies inside
    it.  ``dt`` is the fixed step of the probe solves.
    """

    beta: float
    picard_beta: float
    evaluations: int
    bracket: float
    probe_time: float
    dt: float

    def payload(self) -> dict:
        """The fields as a plain dict, in declaration order, for artifacts."""
        return asdict(self)


#: The short probe sits at the mesh time at or below this fraction of the
#: full probe time.  Its solves cost that fraction of a full one, and a
#: bracket wide enough to hold the fixed-point error survives to it.
_SHORT_PROBE_FRACTION = 0.25

#: Overshoot of the first step towards the root at the full probe, so that
#: the step crosses the root even when the predicted slope is off by up to
#: this factor.
_MARCH_OVERSHOOT = 2.0


def _collapse_floor(model: PulseModel) -> float:
    return 0.5 * model.profile.weak_norm()


def _mesh_samples_upto(times: np.ndarray, t_end: float) -> np.ndarray:
    out = times[times <= t_end + 1e-12]
    if len(out) == 0 or out[0] != 0.0:
        raise ValueError("sample mesh must start at 0")
    return out


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


def refine_correction(workspace: SolutionMapWorkspace, point: ManifoldPoint,
                      *, dt: float = 1e-3, probe_time: float | None = None,
                      bracket_factor: float = 4.0, bracket_min: float = 2e-5,
                      max_evaluations: int = 60) -> RefineResult:
    """Tune the initial unstable coefficient against the discrete full solver.

    The fixed-point correction carries quadrature error, and the splitting
    solver has its own slightly shifted invariant structures; both are
    amplified exponentially over long comparisons.  This routine shoots for
    the coefficient whose fixed-step trajectory keeps the extracted unstable
    coefficient at zero at the probe time, in two stages:

    1. *Predictor.*  At a short probe (the mesh time at or below a quarter
       of the probe time) a bracket around the fixed-point value survives,
       so false position finds that probe's root in a few cheap solves.
    2. *Polish.*  At the full probe, the search steps from the predictor
       against the sign of its coefficient, by the Newton step of the
       short-probe slope scaled by the unstable growth between the probes,
       overshot so that the step crosses the root.  False position then
       polishes the surviving bracket.

    Both polishes stop once the next iterate moves less than the round-off
    floor of the root (see ``_roundoff_floor``).  Inside that floor the
    probe coefficient is noise, so the result is the solved coefficient
    whose probe coefficient is closest to zero.  Wherever a bracket end
    escapes (blows up or collapses), sign bisection narrows the bracket
    until both ends survive.  Every solve is cached by probe and
    coefficient, so no solve is repeated, and every stage draws on the one
    budget of ``max_evaluations`` solves.  The probe trajectories use the
    same step size and the same sample clamping as later comparison runs,
    so the refined value belongs to the exact discrete flow being compared.
    """
    model = workspace.model
    grid = workspace.grid
    mesh = workspace.times
    if probe_time is None:
        probe_time = float(mesh[np.searchsorted(mesh, 16.0, side="right") - 1])
    full_samples = _mesh_samples_upto(mesh, probe_time)
    # Snap onto the mesh so the recorded probe time is the one actually used.
    probe_time = float(full_samples[-1])
    short_samples = _mesh_samples_upto(
        mesh, _SHORT_PROBE_FRACTION * probe_time
    )
    floor = _collapse_floor(model)
    base = point.initial_state.values
    mode = workspace.unstable_mode
    growth = -workspace.unstable_eigenvalue
    xtol = _roundoff_floor(base, growth, dt)
    solved: dict[tuple[int, float], tuple[float, float | None]] = {}

    def coefficient_at_probe(samples: np.ndarray, beta: float, stage: str):
        """(sign, value-or-None) of the unstable coefficient at the probe.

        An escaped run gives its escape direction and no value; a zero value
        counts as negative, so every sign is +1 or -1.
        """
        key = (len(samples), beta)
        if key in solved:
            return solved[key]
        if len(solved) >= max_evaluations:
            raise ConvergenceError(
                f"shooting refinement exhausted its budget of "
                f"{max_evaluations} solves during the {stage}"
            )
        u0 = GridField(base + (beta - point.correction) * mode, grid)
        traj = evolve_full(
            model, u0, float(samples[-1]), fixed_dt=dt, sample_times=samples,
            collapse_floor=floor,
        )
        if traj.escaped:
            result = float(traj.stats["escape_sign"]), None
        else:
            state = GridField(traj.u_samples[-1].copy(), grid)
            pt, w = decompose_state(
                model, state, model.symmetry_point(point.sigma0)
            )
            frame_mode = grid.shift_values(mode, pt.scalar - workspace.sigma0)
            value = float(grid.inner_values(w.values, frame_mode))
            result = (1.0 if value > 0.0 else -1.0), value
        solved[key] = result
        return result

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
            end_mid = coefficient_at_probe(samples, mid, stage)
            if end_mid[0] < 0:
                lo, end_lo = mid, end_mid
            else:
                hi, end_hi = mid, end_mid
        return lo, end_lo[1], hi, end_hi[1]

    def polish(samples, lo, v_lo, hi, v_hi, stage):
        """False position on a surviving bracket, v_lo < 0 < v_hi.

        The Anderson-Bjorck rule keeps both ends closing in.  Returns the
        root estimate and the chord slope of the bracket it started from.
        """
        slope = (v_hi - v_lo) / (hi - lo)
        beta = lo - v_lo / slope
        moved = 0.0
        while lo < beta < hi:
            sign, value = coefficient_at_probe(samples, beta, stage)
            if value is None:
                raise ConvergenceError(
                    f"the {stage} iterate {beta!r} escaped before "
                    f"t = {samples[-1]:.6g} inside a surviving bracket"
                )
            # When the same end moves twice in a row, scale down the value
            # of the end left behind.
            if sign < 0:
                scale = 1.0 - value / v_lo
                lo, v_lo = beta, value
                if moved < 0:
                    v_hi *= scale if scale > 0.0 else 0.5
            else:
                scale = 1.0 - value / v_hi
                hi, v_hi = beta, value
                if moved > 0:
                    v_lo *= scale if scale > 0.0 else 0.5
            moved = sign
            step = lo - v_lo * (hi - lo) / (v_hi - v_lo) - beta
            beta += step
            if abs(step) <= xtol:
                break
        return beta, slope

    # Predictor: bracket the short-probe root around the fixed-point value.
    stage = "short-probe bracketing"
    radius = max(bracket_factor * abs(point.correction), bracket_min)
    for _ in range(5):
        lo, hi = point.correction - radius, point.correction + radius
        end_lo = coefficient_at_probe(short_samples, lo, stage)
        end_hi = coefficient_at_probe(short_samples, hi, stage)
        if end_lo[0] < 0 < end_hi[0]:
            break
        radius *= 4.0
    else:
        raise ConvergenceError(
            "could not bracket the refined correction: the unstable "
            "coefficient does not change sign around the fixed-point value"
        )
    bracket = settle(short_samples, lo, end_lo, hi, end_hi,
                     "short-probe escape bisection")
    predictor, slope = polish(short_samples, *bracket, "short-probe polish")

    # Polish: step from the predictor across the full-probe root, then
    # narrow the bracket it makes.  An escaped run's coefficient grew to
    # order one; steps that do not cross grow until the budget runs out.
    stage = "full-probe bracketing"
    slope *= np.exp(growth * (probe_time - float(short_samples[-1])))
    near = predictor
    end_near = coefficient_at_probe(full_samples, near, stage)
    size = 1.0 if end_near[1] is None else abs(end_near[1])
    step = _MARCH_OVERSHOOT * size / slope
    while True:
        far = near - end_near[0] * step
        end_far = coefficient_at_probe(full_samples, far, stage)
        if end_far[0] != end_near[0]:
            break
        near, end_near = far, end_far
        step *= 4.0
    if end_near[0] < 0:
        ends = (near, end_near, far, end_far)
    else:
        ends = (far, end_far, near, end_near)
    lo, v_lo, hi, v_hi = settle(full_samples, *ends,
                                "full-probe escape bisection")
    polish(full_samples, lo, v_lo, hi, v_hi, "full-probe polish")
    # Inside the round-off floor the next estimate is as good as noise, so
    # the result is the solved coefficient closest to zero at the probe.
    _, beta_star = min(
        (abs(value), beta) for (n, beta), (_, value) in solved.items()
        if n == len(full_samples) and value is not None
    )

    return RefineResult(
        beta=float(beta_star),
        picard_beta=point.correction,
        evaluations=len(solved),
        bracket=float(hi - lo),
        probe_time=probe_time,
        dt=float(dt),
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
                      traj: FullTrajectory, *, delta: float,
                      alpha: float = 1.0) -> dict:
    """Reduced dynamics versus the extracted full solution.

    Returns the sup differences between (a) the chart path integrated from
    the effective velocity field driven by the extracted remainder and the
    extracted chart path, (b) the fixed-point chart path and the extracted
    one, and (c) the fixed-point remainder and the extracted remainder in
    the strong norm — together with the weighted decay margins and fitted
    envelope rate of the extracted remainder.

    The trajectory must be sampled on a prefix of the fixed point's mesh so
    every comparison is pointwise in time, never interpolated.
    """
    model = workspace.model
    grid = workspace.grid
    mesh = point.path.times
    m = traj.n_samples
    if m > len(mesh) or not np.array_equal(traj.times, mesh[:m]):
        raise ValueError(
            "trajectory samples must coincide with the fixed point's mesh"
        )

    extracted = extract_modulated(model, traj, sigma_guess=point.sigma0)

    # Effective chart dynamics driven by the extracted remainder (Heun on
    # the shared mesh).
    sigma_eff = np.empty(m)
    sigma_eff[0] = extracted.sigma[0]

    def velocity(s: float, w_values: np.ndarray) -> float:
        pt = model.symmetry_point(s)
        coeffs = solve_modulation(model, pt, GridField(w_values, grid))
        return float(model.trivialized_velocity(coeffs.a, pt)[0])

    for j in range(m - 1):
        h_t = extracted.times[j + 1] - extracted.times[j]
        v0 = velocity(sigma_eff[j], extracted.w[j])
        pred = sigma_eff[j] + h_t * v0
        v1 = velocity(pred, extracted.w[j + 1])
        sigma_eff[j + 1] = sigma_eff[j] + 0.5 * h_t * (v0 + v1)

    w_gap = grid.strong_norm_values(point.path.w[:m] - extracted.w)
    extracted_strong = extracted.w_strong_norms()
    envelope = delta / time_weight(extracted.times, alpha)

    fit_mask = (extracted.times >= 1.0) & (extracted.times <= 10.0)
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


def instability_witness(workspace: SolutionMapWorkspace, point: ManifoldPoint,
                        beta: float, offset: float, *, delta: float,
                        alpha: float = 1.0, dt: float = 1e-3,
                        t_max: float = 20.0,
                        window: tuple[float, float] = (1e-3, 1e-1)) -> WitnessReport:
    """Evolve the corrected state with an unstable-mode offset and fit growth.

    With a zero offset the trajectory should stay decaying for the whole
    horizon; any nonzero offset seeds the unstable channel, whose extracted
    coefficient is fitted with an exponential over the window where its
    magnitude lies inside ``window``.  The escape direction distinguishes
    blow-up (+1) from collapse toward zero (-1).

    Samples sit on the workspace mesh so the stepping — step size plus the
    clamps onto sample times — reproduces the discrete flow the refined
    coefficient was shot for; a different sampling pattern perturbs the
    discrete unstable channel at round-off size, which the flow amplifies
    exponentially into a spurious signal.
    """
    model = workspace.model
    grid = workspace.grid
    u0 = corrected_initial_state(workspace, point, beta, offset)
    samples = _mesh_samples_upto(workspace.times, t_max)
    traj = evolve_full(
        model, u0, float(samples[-1]), fixed_dt=dt, sample_times=samples,
        collapse_floor=_collapse_floor(model),
    )
    extracted = extract_modulated(
        model, traj, sigma_guess=point.sigma0, stop_on_failure=True
    )
    frame_modes = grid.shift_values(
        workspace.unstable_mode, extracted.sigma - workspace.sigma0
    )
    coeff = grid.inner_values(extracted.w, frame_modes)

    magnitude = np.abs(coeff)
    mask = (magnitude >= window[0]) & (magnitude <= window[1])
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
        coefficients=coeff,
        max_coefficient=float(np.max(magnitude)),
        max_remainder_margin=float(np.max(margins) / delta),
    )
