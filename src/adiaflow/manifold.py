"""Fixed-point construction of decaying trajectories and the correction map.

Given a remainder field eta carrying no component along the frame tangent or
the unstable mode, the solution map pushes a trial path through one round of
the frozen-frame integral equations:

* stable channels are integrated forward with exact per-interval decay
  factors and trapezoidal source quadrature,
* the unstable channel is integrated backward from the horizon, which
  selects the unique initial coefficient — the correction — for which the
  trajectory stays bounded instead of growing at the unstable rate,
* the tangent channel is eliminated by the chart constraint: at every
  sample the output remainder is exactly orthogonal to the moving-frame
  tangent, and the chart position is the integral of the modulation
  velocity.

The sources combine the quadratic remainder of the energy gradient, the
chart-velocity term, and the potential difference between the moving frame
and the frozen base point, so a fixed point of the map solves the full
modulated evolution.  Iterating from a propagated seed converges
geometrically (the map contracts on the admissible set for small enough
delta); the correction value at the fixed point is the graph map of the
local stable manifold evaluated at eta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import BallViolationError, ConvergenceError
from .grid import GridField, smooth_noise
from .modulation import frame_coefficient
from .paths import TrajectoryPath, path_distance, time_mesh, time_weight
from .spectral import SpectralData, project_stable, propagate_stable_batch

#: Input fields must be orthogonal to the tangent and unstable directions to
#: this weak-inner-product tolerance (scaled by the field size).
ORTHOGONALITY_TOL = 1e-10

#: ``random_admissible_path`` fills this fraction of the weighted decay set.
_PATH_MARGIN = 0.9


def default_speed_constant(model) -> float:
    """Admissible chart-speed constant c = c'(c_h + 1) with c' = 1."""
    return model.c_h + 1.0


@dataclass
class SolutionMapResult:
    """One application of the solution map.

    ``correction`` is the unstable coefficient at t = 0 selected by the
    backward integration; ``modulation`` holds the frame coefficient a(t) on
    the mesh and ``unstable_source`` the unstable component of the source
    term, kept for truncation bounds and forward-instability demonstrations.
    """

    path: TrajectoryPath
    correction: float
    modulation: np.ndarray = field(repr=False)
    unstable_source: np.ndarray = field(repr=False)
    tail_bound: float = 0.0


@dataclass
class ManifoldPoint:
    """A constructed point of the local stable manifold.

    ``correction`` is the graph-map value: the coefficient on the unstable
    mode that must accompany ``eta`` so the perturbation decays.  ``path``
    is the fixed-point trajectory itself, ``initial_state`` the full field
    at t = 0 (moving-frame profile plus remainder).
    """

    eta: GridField = field(repr=False)
    sigma0: float
    correction: float
    path: TrajectoryPath = field(repr=False)
    initial_state: GridField = field(repr=False)
    modulation: np.ndarray = field(repr=False)
    unstable_source: np.ndarray = field(repr=False)
    tail_bound: float
    distances: list
    contraction_ratios: list
    iterations: int


class SolutionMapWorkspace:
    """Precomputed frame, eigenbasis, mesh, and decay factors for the map.

    Building the workspace once and reusing it across applications keeps a
    single application down to a few matrix products; everything that
    depends only on the base point and the time mesh lives here.
    """

    def __init__(self, spectrum: SpectralData, times: np.ndarray | None = None):
        self.spectrum = spectrum
        self.model = spectrum.model
        self.grid = spectrum.grid
        self.times = time_mesh() if times is None else np.asarray(times, dtype=float)
        if self.times[0] != 0.0:
            raise ValueError("the time mesh must start at t = 0")
        self.sigma0 = spectrum.base_point

        self.stable_eigenvalues, self.stable_modes = spectrum.stable_basis
        self.unstable_mode = spectrum.unstable_mode
        self.unstable_eigenvalue = spectrum.unstable_eigenvalue
        zero_j = spectrum.zero_indices[0]
        self.zero_mode = spectrum.eigenvectors[:, zero_j]

        # Base fields, kept as rfft coefficients for batched frame translation.
        pulse_base = self.model.family(0.0).values
        self._pulse_hat = np.fft.rfft(pulse_base)
        self._tangent_hat = np.fft.rfft(self.model.family_tangent(0.0).values)
        self._second_hat = np.fft.rfft(self.model.family_second(0.0).values)
        self._f_frozen = self.grid.shift_values(pulse_base, self.sigma0)
        # The output chart path of the last application, its phase table and
        # its tangent frame: a Picard round's trial path is the previous
        # round's output, so its tangent frame is already built.
        self._carried = (None, None, None)

        self._dt = np.diff(self.times)
        self._stable_decay = np.exp(-np.outer(self._dt, self.stable_eigenvalues))
        self._unstable_decay = np.exp(self.unstable_eigenvalue * self._dt)

    @property
    def n_samples(self) -> int:
        return len(self.times)

    # -- one application of the map --------------------------------------------
    def apply_raw(self, eta_values: np.ndarray, sigma_trial: np.ndarray,
                  w_trial: np.ndarray) -> SolutionMapResult:
        """Push (sigma_trial, w_trial) through the map; no admissibility checks."""
        grid, h = self.grid, self.grid.spacing
        times, dt = self.times, self._dt
        m = self.n_samples

        carried_sigma, phases, tangent_trial = self._carried
        if not np.array_equal(sigma_trial, carried_sigma):
            phases = grid.shift_phases(sigma_trial)
            tangent_trial = grid.apply_phases(self._tangent_hat, phases)
        second_trial = grid.apply_phases(self._second_hat, phases)

        # Frame coefficient per sample; the chart moves at a * xi.
        modulation = frame_coefficient(grid, w_trial, tangent_trial,
                                       second_trial)
        del second_trial
        speed = modulation * self.model.xi
        sigma_out = self.sigma0 + cumulative_trapezoid(speed, times, initial=0.0)

        # Sources: quadratic remainder, chart-velocity term, and the potential
        # difference between the moving frame and the frozen base point.
        f_trial = grid.apply_phases(self._pulse_hat, phases)
        sources = (
            w_trial**2
            - modulation[:, None] * tangent_trial
            + 2.0 * (f_trial - self._f_frozen[None, :]) * w_trial
        )
        # Free the trial frames before the projections, to keep peak memory.
        del f_trial, tangent_trial, phases
        source_stable = h * (sources @ self.stable_modes)
        source_unstable = h * (sources @ self.unstable_mode)
        del sources

        # Forward integration of the stable channels (exact decay kernel,
        # trapezoidal sources).
        coeff = np.empty((m, len(self.stable_eigenvalues)))
        coeff[0] = h * (eta_values @ self.stable_modes)
        for j in range(m - 1):
            coeff[j + 1] = (
                self._stable_decay[j] * (coeff[j] + 0.5 * dt[j] * source_stable[j])
                + 0.5 * dt[j] * source_stable[j + 1]
            )

        # Backward integration of the unstable channel.  The seed freezes the
        # source beyond the horizon; the first entry is the correction.
        rate = self.unstable_eigenvalue
        branch = np.empty(m)
        branch[-1] = source_unstable[-1] / rate
        for j in range(m - 2, -1, -1):
            ed = self._unstable_decay[j]
            branch[j] = ed * branch[j + 1] - 0.5 * dt[j] * (
                source_unstable[j] + ed * source_unstable[j + 1]
            )
        tail_bound = float(
            np.max(np.abs(source_unstable))
            * np.exp(rate * (times[-1] - times[0]))
            / abs(rate)
        )

        # Tangent channel: slaved to the orthogonality constraint at the
        # output chart positions, making the constraint hold exactly.
        phases_out = grid.shift_phases(sigma_out)
        tangent_out = grid.apply_phases(self._tangent_hat, phases_out)
        self._carried = (sigma_out.copy(), phases_out, tangent_out)
        w_main = coeff @ self.stable_modes.T + branch[:, None] * self.unstable_mode
        overlap = grid.inner_values(self.zero_mode[None, :], tangent_out)
        if np.min(np.abs(overlap)) < 0.5:
            raise ConvergenceError(
                "chart position drifted too far from the base point for the "
                "tangent channel to be eliminated"
            )
        slaved = -grid.inner_values(w_main, tangent_out) / overlap
        w_out = w_main + slaved[:, None] * self.zero_mode[None, :]

        return SolutionMapResult(
            path=TrajectoryPath(times=times.copy(), sigma=sigma_out,
                                w=w_out, grid=grid),
            correction=float(branch[0]),
            modulation=modulation,
            unstable_source=source_unstable,
            tail_bound=tail_bound,
        )


def check_input_field(workspace: SolutionMapWorkspace, eta: GridField) -> None:
    """Require eta to carry no tangent or unstable component."""
    tangent = workspace.model.family_tangent(workspace.spectrum.base_point)
    tol = ORTHOGONALITY_TOL * max(1.0, eta.weak_norm())
    along_tangent = abs(eta.inner(tangent))
    along_unstable = abs(
        workspace.grid.inner_values(eta.values, workspace.unstable_mode)
    )
    if along_tangent > tol or along_unstable > tol:
        raise ValueError(
            "input field has components along the tangent or unstable "
            f"directions ({along_tangent:.2e}, {along_unstable:.2e}); project "
            "them out before constructing"
        )


def seed_path(workspace: SolutionMapWorkspace, eta: GridField) -> TrajectoryPath:
    """Initial trial: stable semigroup applied to eta, chart frozen."""
    w = propagate_stable_batch(workspace.spectrum, eta, workspace.times)
    sigma = np.full(workspace.n_samples, workspace.sigma0)
    return TrajectoryPath(times=workspace.times.copy(), sigma=sigma, w=w,
                          grid=workspace.grid)


def apply_solution_map(workspace: SolutionMapWorkspace, eta: GridField,
                       trial: TrajectoryPath | None = None, *,
                       delta: float, alpha: float = 1.0,
                       speed_constant: float) -> SolutionMapResult:
    """One checked application of the solution map.

    Verifies that eta is admissible input (orthogonal, strong norm at most
    delta) and that the output path lies in the weighted decay set for
    (delta, alpha) and the chart-speed constant; violations raise.
    """
    check_input_field(workspace, eta)
    sn = eta.strong_norm()
    if sn > delta:
        raise BallViolationError(
            f"input strong norm {sn:.3e} exceeds the admissible seed size "
            f"{delta:.3e}"
        )
    if trial is None:
        trial = seed_path(workspace, eta)
    result = workspace.apply_raw(eta.values, trial.sigma, trial.w)
    result.path.check_admissible(delta, alpha, speed_constant)
    return result


def construct_manifold_point(workspace: SolutionMapWorkspace, eta: GridField, *,
                             delta: float, alpha: float = 1.0,
                             speed_constant: float | None = None,
                             fixed_point_tol: float = 1e-10,
                             max_iter: int = 50,
                             initial_path: TrajectoryPath | None = None
                             ) -> ManifoldPoint:
    """Iterate the solution map to its fixed point and package the result.

    The iteration stops once successive paths differ by at most
    ``fixed_point_tol`` in the weighted path norm; each iterate is checked
    against the admissible set, so a delta that is too large fails loudly
    rather than silently leaving the contraction regime.  Without a
    ``speed_constant`` the admissible set uses ``default_speed_constant``.
    """
    c = default_speed_constant(workspace.model) if speed_constant is None \
        else speed_constant
    trial = seed_path(workspace, eta) if initial_path is None else initial_path
    distances: list[float] = []
    ratios: list[float] = []
    result = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        result = apply_solution_map(
            workspace, eta, trial, delta=delta, alpha=alpha,
            speed_constant=c,
        )
        d = path_distance(result.path, trial, alpha, c)
        distances.append(d)
        if len(distances) >= 2 and distances[-2] > 0.0:
            ratios.append(d / distances[-2])
        trial = result.path
        if d <= fixed_point_tol:
            converged = True
            break
        if len(distances) >= 4 and d > 4.0 * distances[0]:
            raise ConvergenceError(
                "solution map is expanding at this delta "
                f"(distance grew from {distances[0]:.3e} to {d:.3e})"
            )
    if not converged:
        raise ConvergenceError(
            f"no fixed point within {max_iter} rounds; last update "
            f"{distances[-1]:.3e} > {fixed_point_tol:.3e}"
        )
    initial_state = GridField(
        workspace._f_frozen + result.path.w[0], workspace.grid
    )
    return ManifoldPoint(
        eta=eta,
        sigma0=workspace.sigma0,
        correction=result.correction,
        path=result.path,
        initial_state=initial_state,
        modulation=result.modulation,
        unstable_source=result.unstable_source,
        tail_bound=result.tail_bound,
        distances=distances,
        contraction_ratios=ratios,
        iterations=iterations,
    )


def forward_unstable_coefficient(workspace: SolutionMapWorkspace,
                                 unstable_source: np.ndarray,
                                 initial_value: float) -> np.ndarray:
    """Forward time-marching of the unstable channel from a chosen start.

    Uses the same exact-kernel trapezoidal recursion as the backward pass,
    so starting from the backward-selected value reproduces the bounded
    branch, while any offset in the initial value grows exactly like
    exp(|unstable eigenvalue| t).  This is the mechanism that makes the
    correction necessary: it is the only initial coefficient without
    exponential growth.
    """
    times, dt = workspace.times, workspace._dt
    rate = -workspace.unstable_eigenvalue  # positive growth rate
    out = np.empty(len(times))
    out[0] = initial_value
    for j in range(len(times) - 1):
        grow = np.exp(rate * dt[j])
        out[j + 1] = grow * out[j] + 0.5 * dt[j] * (
            grow * unstable_source[j] + unstable_source[j + 1]
        )
    return out


def correction_scan(workspace: SolutionMapWorkspace, direction: GridField,
                    scales, *, delta: float, alpha: float = 1.0,
                    speed_constant: float | None = None,
                    fixed_point_tol: float = 1e-10,
                    max_iter: int = 50) -> dict:
    """Corrections along a ray of seed fields, with the quadratic diagnostics.

    The direction is normalized to unit strong norm, so ``scales`` are the
    seed sizes themselves.  Returns the corrections, the ratios
    |correction| / scale (which must shrink with the scale for a map that is
    quadratically tangent to zero), and the log-log slope, which needs at
    least two distinct scales.
    """
    scales = np.asarray(sorted(scales, reverse=True), dtype=float)
    if len(np.unique(scales)) < 2:
        raise ValueError("a log-log slope needs at least two distinct scales")
    unit = GridField(direction.values / direction.strong_norm(), direction.grid)
    corrections = []
    for s in scales:
        point = construct_manifold_point(
            workspace, GridField(s * unit.values, unit.grid),
            delta=delta, alpha=alpha, speed_constant=speed_constant,
            fixed_point_tol=fixed_point_tol, max_iter=max_iter,
        )
        corrections.append(point.correction)
    corrections = np.array(corrections)
    ratios = np.abs(corrections) / scales
    slope = float(np.polyfit(np.log(scales), np.log(np.abs(corrections)), 1)[0])
    return {
        "scales": scales,
        "corrections": corrections,
        "ratios": ratios,
        "loglog_slope": slope,
    }


def random_admissible_path(workspace: SolutionMapWorkspace, *, delta: float,
                           alpha: float = 1.0, speed_constant: float,
                           seed: int = 0) -> TrajectoryPath:
    """A smooth random path strictly inside the weighted decay set.

    Spatial content is three random low-frequency fields projected onto the
    stable range; time content is the decay envelope times slow modulation.
    The whole path is rescaled so its worst weighted remainder ratio equals
    ``_PATH_MARGIN``, and the chart speed is kept below the same fraction of
    its bound ``speed_constant``.
    """
    rng = np.random.default_rng(seed)
    grid = workspace.grid
    times = workspace.times
    envelope = 1.0 / time_weight(times, alpha)

    w = np.zeros((len(times), grid.n))
    for _ in range(3):
        smooth = smooth_noise(grid, rng, 3.0)
        fld = project_stable(workspace.spectrum, GridField(smooth, grid))
        fld_values = fld.values / fld.strong_norm()
        omega = rng.uniform(0.2, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.3, 1.0)
        profile = envelope * amp * np.cos(omega * times + phase)
        w += profile[:, None] * fld_values[None, :]
    worst = np.max(grid.strong_norm_values(w) / (delta * envelope))
    w *= _PATH_MARGIN / worst

    # Chart trajectory: slowly varying speed inside the admissible tube.
    base, wobble = rng.uniform(-0.45, 0.45), rng.uniform(0.0, 0.4)
    omega = rng.uniform(0.05, 0.2)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    speed = _PATH_MARGIN * speed_constant * delta * envelope * (
        base + wobble * np.cos(omega * times + phase)
    ) / max(abs(base) + wobble, 1.0)
    sigma = workspace.sigma0 + cumulative_trapezoid(speed, times, initial=0.0)

    path = TrajectoryPath(times=times.copy(), sigma=sigma, w=w, grid=grid)
    path.check_admissible(delta, alpha, speed_constant)
    return path


def measure_contraction(workspace: SolutionMapWorkspace, *, delta: float,
                        alpha: float = 1.0, speed_constant: float,
                        n_pairs: int = 10, seed: int = 5) -> dict:
    """Contraction factors of the map over random admissible path pairs.

    The seed field is irrelevant to differences of images (it enters the
    stable channels additively), so the zero field is used; each factor is
    the path distance of the two images over the distance of the inputs,
    in the path norm of ``speed_constant``.
    """
    c = speed_constant
    zero = np.zeros(workspace.grid.n)
    factors = []
    for k in range(n_pairs):
        p1 = random_admissible_path(
            workspace, delta=delta, alpha=alpha, speed_constant=c,
            seed=seed + 2 * k,
        )
        p2 = random_admissible_path(
            workspace, delta=delta, alpha=alpha, speed_constant=c,
            seed=seed + 2 * k + 1,
        )
        image1 = workspace.apply_raw(zero, p1.sigma, p1.w)
        image2 = workspace.apply_raw(zero, p2.sigma, p2.w)
        gap = path_distance(p1, p2, alpha, c)
        image_gap = path_distance(image1.path, image2.path, alpha, c)
        factors.append(image_gap / gap)
    factors = np.array(factors)
    return {
        "factors": factors,
        "max": float(np.max(factors)),
        "mean": float(np.mean(factors)),
    }


def measure_correction_lipschitz(workspace: SolutionMapWorkspace, *,
                                 delta: float, alpha: float = 1.0,
                                 n_pairs: int = 5, seed: int = 17,
                                 fixed_point_tol: float = 1e-10) -> dict:
    """Measured Lipschitz quotients of the correction map on the seed ball.

    Draws random smooth stable seed fields of strong norm up to 0.9 delta,
    constructs the correction at paired points, and reports
    max |correction difference| / strong(seed difference).  The
    quotient scales like delta for a quadratically tangent map, so the
    normalized column ``max / delta`` should be stable across delta.
    """
    rng = np.random.default_rng(seed)
    grid = workspace.grid
    quotients = []
    for _ in range(n_pairs):
        fields = []
        for _ in range(2):
            smooth = smooth_noise(grid, rng, 3.0)
            fld = project_stable(workspace.spectrum, GridField(smooth, grid))
            size = rng.uniform(0.3, 0.9) * delta
            fields.append(GridField(size * fld.values / fld.strong_norm(), grid))
        pts = [
            construct_manifold_point(
                workspace, f, delta=delta, alpha=alpha,
                fixed_point_tol=fixed_point_tol,
            )
            for f in fields
        ]
        gap = GridField(fields[0].values - fields[1].values, grid).strong_norm()
        quotients.append(abs(pts[0].correction - pts[1].correction) / gap)
    quotients = np.array(quotients)
    return {
        "quotients": quotients,
        "max": float(np.max(quotients)),
        "normalized": float(np.max(quotients) / delta),
    }
