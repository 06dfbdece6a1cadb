"""Experiment orchestration: assumption ledger, pipeline runs, artifacts.

Two entry points tie the library together.  ``run_assumption_ledger``
executes every structural assumption the construction rests on — operator
symmetry and boundedness, spectral classification, propagator decay, family
and frame regularity, operator and nonlinearity smallness — and reports the
measured constants.  ``run_full_pipeline`` chains ledger, fixed-point
construction, shooting refinement, full solve, reduced-versus-full
comparison, and the instability witness, writing every artifact into one
run directory.

Artifacts are deterministic by construction: seeded randomness, sorted JSON
keys, shortest round-trip float formatting, and no timestamps — identical
configuration must produce bit-identical bytes.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .errors import AdiaflowError, ClassificationError
from .grid import GridField, PeriodicGrid
from .manifold import (
    ManifoldPoint,
    SolutionMapWorkspace,
    construct_manifold_point,
    default_speed_constant,
    measure_contraction,
)
from .model import PulseModel
from .paths import time_mesh
from .presets import preset_field
from .reference import (
    FullTrajectory,
    compare_effective,
    corrected_initial_state,
    evolve_full,
    extract_modulated,
    instability_witness,
    refine_correction,
)
from .spectral import (
    SpectralData,
    assemble_operator,
    decompose,
    measure_propagator_constant,
    operator_norm_diagnostic,
    verify_operator_lipschitz,
)

#: Acceptance thresholds shared by the pipeline and the test suite.
CONTRACTION_BOUND = 0.5
AGREEMENT_BOUND = 5e-3
ENVELOPE_RATE_BOUND = -0.7
GROWTH_RATE_TOL = 0.19
QUIET_COEFFICIENT_BOUND = 1e-3


@dataclass
class Runtime:
    """Configured grid, model, spectrum, mesh, and solution-map workspace."""

    config: ExperimentConfig
    grid: PeriodicGrid
    model: PulseModel
    spectrum: SpectralData
    times: np.ndarray = field(repr=False)
    workspace: SolutionMapWorkspace = field(repr=False)


def build_runtime(cfg: ExperimentConfig) -> Runtime:
    """Assemble every long-lived object a run needs from the configuration."""
    cfg.validate()
    grid = PeriodicGrid(cfg.model.n_points, cfg.model.domain_half_length)
    model = PulseModel(grid, cfg.model.chart_radius, cfg.model.ball_radius)
    spectrum = decompose(
        model, model.origin,
        gap_threshold=cfg.spectral.gap_threshold,
        zero_tol=cfg.spectral.zero_tol,
    )
    times = time_mesh(
        cfg.manifold.mesh_dt_fine, cfg.manifold.mesh_t_uniform,
        cfg.manifold.mesh_ratio, cfg.manifold.horizon,
    )
    workspace = SolutionMapWorkspace(spectrum, times=times)
    return Runtime(
        config=cfg, grid=grid, model=model, spectrum=spectrum,
        times=times, workspace=workspace,
    )


@dataclass
class CheckResult:
    """One executed diagnostic with its traceability claim."""

    name: str
    claim: str
    passed: bool
    value: float | None
    bound: str
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "passed": bool(self.passed),
            "value": self.value,
            "bound": self.bound,
            "details": _jsonable(self.details),
        }


@dataclass
class LedgerReport:
    """Assumption diagnostics, measured constants, and the eigenvalue table."""

    checks: list
    constants: dict
    eigenvalue_table: list

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [check.to_dict() for check in self.checks],
            "constants": _jsonable(self.constants),
            "eigenvalue_table": _jsonable(self.eigenvalue_table),
        }


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(item) for item in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def write_json(path: str, payload: dict) -> None:
    """Write JSON with sorted keys and a trailing newline (deterministic)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(_jsonable(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _eigenvalue_table(spectrum: SpectralData, n_rows: int = 8) -> list:
    kinds = {}
    for idx in spectrum.unstable_indices:
        kinds[int(idx)] = "unstable"
    for idx in spectrum.zero_indices:
        kinds[int(idx)] = "zero"
    table = []
    for idx in range(min(n_rows, len(spectrum.eigenvalues))):
        table.append({
            "index": idx,
            "eigenvalue": float(spectrum.eigenvalues[idx]),
            "kind": kinds.get(idx, "stable"),
        })
    return table


def _raw_eigenvalue_table(model: PulseModel, n_rows: int = 8) -> list:
    """Eigenvalues without classification, for failure reports."""
    matrix = assemble_operator(model, model.origin)
    values = np.linalg.eigvalsh(matrix)
    return [
        {"index": idx, "eigenvalue": float(values[idx]), "kind": "unclassified"}
        for idx in range(min(n_rows, len(values)))
    ]


def _ledger_with_runtime(cfg: ExperimentConfig):
    """(LedgerReport, Runtime or None); classification failures are reported,
    not raised."""
    cfg.validate()
    try:
        runtime = build_runtime(cfg)
    except ClassificationError as err:
        grid = PeriodicGrid(cfg.model.n_points, cfg.model.domain_half_length)
        model = PulseModel(grid, cfg.model.chart_radius, cfg.model.ball_radius)
        check = CheckResult(
            name="spectral-classification",
            claim="discrete spectrum splits into one simple negative "
                  "eigenvalue, a one-dimensional symmetry kernel, and a "
                  "gapped stable rest",
            passed=False,
            value=None,
            bound="classification must succeed at the configured thresholds",
            details={"error": str(err)},
        )
        report = LedgerReport(
            checks=[check],
            constants={},
            eigenvalue_table=_raw_eigenvalue_table(model),
        )
        return report, None

    model, spectrum = runtime.model, runtime.spectrum
    grid = runtime.grid
    seeds = cfg.seeds
    sigma_samples = [-2.0, -0.7, 0.0, 0.9, 2.3]
    checks: list[CheckResult] = []

    # Operator symmetry: the assembled matrix is exactly symmetric.
    asym = 0.0
    for s in (0.0, 1.3):
        matrix = assemble_operator(model, model.symmetry_point(s))
        asym = max(asym, float(np.max(np.abs(matrix - matrix.T))))
    checks.append(CheckResult(
        name="operator-symmetry",
        claim="linearized operator is self-adjoint (assembled matrix is "
              "exactly symmetric)",
        passed=asym == 0.0,
        value=asym,
        bound="= 0",
    ))

    # Operator bound, uniform over the chart: weak(L v) <= c1 strong(v), and
    # the measured ratios are chart-independent by translation equivariance.
    c1 = operator_norm_diagnostic(spectrum)
    rng = np.random.default_rng(seeds.operator_probes)
    raw = rng.standard_normal((4, grid.n))
    probes = np.fft.irfft(
        np.fft.rfft(raw, axis=-1)
        * np.exp(-((grid.wavenumbers / 4.0) ** 2))[None, :],
        grid.n, axis=-1,
    )
    ratio_spread = 0.0
    base_ratios = None
    for s in sigma_samples:
        pt = model.symmetry_point(s)
        shifted = grid.shift_values(probes, s)
        ratios = np.array([
            grid.weak_norm_values(model.linearized_apply(
                pt, GridField(row.copy(), grid)).values)
            / grid.strong_norm_values(row)
            for row in shifted
        ])
        if base_ratios is None:
            base_ratios = ratios
        else:
            ratio_spread = max(
                ratio_spread, float(np.max(np.abs(ratios - base_ratios)))
            )
    checks.append(CheckResult(
        name="operator-bound",
        claim="linearized operator is bounded strong-to-weak, uniformly "
              "over the chart",
        passed=bool(np.isfinite(c1)) and ratio_spread <= 1e-8 * c1,
        value=c1,
        bound="finite, chart-uniform to relative 1e-8",
        details={"chart_ratio_spread": ratio_spread},
    ))

    # Spectral classification at the configured thresholds.
    gap = spectrum.spectral_gap
    e1 = spectrum.unstable_eigenvalue
    zero_eig = float(spectrum.eigenvalues[spectrum.zero_indices[0]])
    counts_ok = (
        len(spectrum.unstable_indices) == model.n_unstable
        and len(spectrum.zero_indices) == model.dim_sigma
    )
    checks.append(CheckResult(
        name="spectral-classification",
        claim="discrete spectrum splits into one simple negative "
              "eigenvalue, a one-dimensional symmetry kernel, and a "
              "gapped stable rest",
        passed=counts_ok and abs(e1 + 1.25) <= 5e-3
        and abs(zero_eig) <= cfg.spectral.zero_tol and gap >= 0.7,
        value=gap,
        bound="counts (1, 1); lowest eigenvalue -1.25 +- 5e-3; gap >= 0.7",
        details={
            "unstable_eigenvalue": e1,
            "zero_eigenvalue": zero_eig,
            "n_unstable": len(spectrum.unstable_indices),
            "n_zero": len(spectrum.zero_indices),
        },
    ))

    # The kernel eigenvector is the symmetry tangent.
    tangent = model.family_tangent(model.origin)
    overlap = abs(float(grid.inner_values(
        spectrum.eigenvectors[:, spectrum.zero_indices[0]], tangent.values
    )))
    checks.append(CheckResult(
        name="zero-mode-identity",
        claim="kernel eigenvector coincides with the symmetry tangent",
        passed=abs(1.0 - overlap) <= 1e-8,
        value=1.0 - overlap,
        bound="|1 - overlap| <= 1e-8",
    ))

    # The tangent is annihilated at every sampled chart point.
    annihilation = max(
        float(model.linearized_apply(
            model.symmetry_point(s), model.family_tangent(model.symmetry_point(s))
        ).weak_norm())
        for s in sigma_samples
    )
    checks.append(CheckResult(
        name="tangent-annihilation",
        claim="family tangent is annihilated by the linearized operator "
              "at every sampled chart point",
        passed=annihilation <= 5e-5,
        value=annihilation,
        bound="<= 5e-5",
    ))

    # Propagator decay on the stable range.
    c2, decay_rate = measure_propagator_constant(
        spectrum, seed=seeds.propagator
    )
    checks.append(CheckResult(
        name="propagator-decay",
        claim="semigroup restricted to the stable range decays at least "
              "like exp(-0.7 t) in the strong norm",
        passed=decay_rate <= ENVELOPE_RATE_BOUND,
        value=decay_rate,
        bound="fitted rate <= -0.7",
        details={"c2": c2},
    ))

    # Family regularity: exact base point, bounded derivatives.
    base_defect = float(np.max(np.abs(
        model.family(model.origin).values - model.profile.values
    )))
    c_f = model.family_bound()
    checks.append(CheckResult(
        name="family-regularity",
        claim="equilibrium family passes through the pulse and is twice "
              "differentiable along the chart with bounded derivatives",
        passed=base_defect == 0.0 and bool(np.isfinite(c_f)),
        value=c_f,
        bound="exact at the origin; bound finite",
        details={"origin_defect": base_defect},
    ))

    # Frame normalization and trivialization bound.
    frame_defect = max(
        abs(float(model.family_tangent(model.symmetry_point(s)).weak_norm()) - 1.0)
        for s in sigma_samples
    )
    frame_rate = float(model.frame_derivative(model.origin).weak_norm())
    checks.append(CheckResult(
        name="frame-normalization",
        claim="chart frame is orthonormal in the weak metric with a "
              "bounded flat trivialization",
        passed=frame_defect <= 1e-12 and frame_rate == 0.0,
        value=frame_defect,
        bound="|weak(tangent) - 1| <= 1e-12; frame derivative = 0",
        details={"c_h": model.c_h, "frame_derivative_norm": frame_rate},
    ))

    # Operator Lipschitz continuity in the chart point.
    pairs = [(0.0, 0.25), (0.0, 0.5), (1.0, 1.4), (-1.0, -0.6)]
    delta0_ratio = max(
        verify_operator_lipschitz(
            model, model.symmetry_point(a), model.symmetry_point(b),
            seed=seeds.operator_probes,
        )
        for a, b in pairs
    )
    slope_bound = 2.0 * model.max_profile_slope()
    checks.append(CheckResult(
        name="operator-lipschitz",
        claim="linearized operator is Lipschitz in the chart point as a "
              "strong-to-weak operator",
        passed=delta0_ratio <= 1.1 * slope_bound,
        value=delta0_ratio,
        bound="<= 1.1 x (twice the largest profile slope)",
        details={"slope_bound": slope_bound},
    ))

    # Nonlinearity: exactly quadratic, with its measured constant.
    rng = np.random.default_rng(seeds.modulation_probes)
    quad_defect = 0.0
    quad_constant = 0.0
    for _ in range(8):
        raw = rng.standard_normal(grid.n)
        smooth = np.fft.irfft(
            np.fft.rfft(raw) * np.exp(-((grid.wavenumbers / 4.0) ** 2)), grid.n
        )
        w_values = 0.3 * smooth / grid.strong_norm_values(smooth)
        w_field = GridField(w_values, grid)
        remainder = model.nonlinearity(model.origin, w_field)
        quad_defect = max(quad_defect, float(
            grid.weak_norm_values(remainder.values + w_values**2)
        ))
        quad_constant = max(
            quad_constant,
            float(remainder.weak_norm()) / w_field.strong_norm() ** 2,
        )
    checks.append(CheckResult(
        name="nonlinearity-quadratic",
        claim="gradient remainder at the family is exactly minus the "
              "squared perturbation",
        passed=quad_defect <= 1e-12,
        value=quad_defect,
        bound="<= 1e-12",
        details={"quadratic_constant": quad_constant},
    ))

    # Discrete stationarity of the sampled pulse.
    stationarity = float(model.gradient(model.profile).weak_norm())
    checks.append(CheckResult(
        name="stationarity-defect",
        claim="sampled pulse is stationary for the discrete energy gradient",
        passed=stationarity <= 1e-6,
        value=stationarity,
        bound="<= 1e-6",
    ))

    constants = {
        "c1": c1,
        "c2": c2,
        "c_f": c_f,
        "c_h": model.c_h,
        "xi": model.xi,
        "delta0_ratio": delta0_ratio,
        "spectral_gap": gap,
        "unstable_eigenvalue": e1,
        "zero_eigenvalue": zero_eig,
        "propagator_rate": decay_rate,
        "stationarity_defect": stationarity,
        "energy_at_pulse": model.energy(model.profile),
    }
    report = LedgerReport(
        checks=checks,
        constants=constants,
        eigenvalue_table=_eigenvalue_table(spectrum),
    )
    return report, runtime


def run_assumption_ledger(cfg: ExperimentConfig) -> LedgerReport:
    """Execute every structural assumption check and report constants."""
    report, _ = _ledger_with_runtime(cfg)
    return report


# --------------------------------------------------------------------------
# Trajectory artifacts
# --------------------------------------------------------------------------

def trajectory_rows(model: PulseModel, point_sigma0: float,
                    unstable_mode: np.ndarray,
                    traj: FullTrajectory) -> tuple[list, list]:
    """(header, rows) for the trajectory CSV.

    Columns: time, chart coordinate, strong norm of the remainder, unstable
    coefficient, energy, then the full state so any consumer can rebuild the
    exact discrete trajectory.  On an escaped trajectory only the
    decomposable prefix is emitted.
    """
    grid = model.grid
    extraction = extract_modulated(
        model, traj, sigma_guess=point_sigma0, stop_on_failure=True
    )
    m = extraction.n_samples
    frame_modes = grid.shift_values(
        unstable_mode, extraction.sigma - point_sigma0
    )
    coeff = grid.inner_values(extraction.w, frame_modes)
    strongs = extraction.w_strong_norms()
    energies = traj.energies(model)
    header = ["t", "sigma", "strong_norm_w", "unstable_coefficient", "energy"]
    header += [f"u_{k}" for k in range(grid.n)]
    rows = []
    for j in range(m):
        row = [traj.times[j], extraction.sigma[j], strongs[j],
               float(coeff[j]), float(energies[j])]
        row += [float(v) for v in traj.u_samples[j]]
        rows.append(row)
    return header, rows


def write_trajectory_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{value:.17g}" for value in row])


def write_field_csv(path: str, field: GridField) -> None:
    """Write a grid field as the two-column CSV the CLI reads back."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["x", "value"])
        for x, v in zip(field.grid.x, field.values):
            writer.writerow([f"{x:.17g}", f"{v:.17g}"])


def load_trajectory_csv(path: str, grid: PeriodicGrid) -> FullTrajectory:
    """Rebuild a FullTrajectory from a trajectory CSV (state columns)."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        try:
            first_state = header.index("u_0")
        except ValueError:
            raise ValueError(
                "trajectory file lacks state columns u_0.. and cannot be "
                "replayed"
            ) from None
        if len(header) - first_state != grid.n:
            raise ValueError(
                f"trajectory has {len(header) - first_state} state columns, "
                f"expected {grid.n}"
            )
        times, states = [], []
        for row in reader:
            times.append(float(row[0]))
            states.append(np.array([float(v) for v in row[first_state:]]))
    return FullTrajectory(
        times=np.array(times),
        u_samples=np.array(states),
        stats={"mode": "loaded", "escape_sign": 0, "escape_time": None},
    )


def point_payload(runtime: Runtime, preset: str, point: ManifoldPoint,
                  beta_star: float | None, refine_info: dict | None,
                  initial_values: np.ndarray) -> dict:
    """JSON payload describing one constructed (and possibly refined) point."""
    cfg = runtime.config
    speed = cfg.manifold.speed_prefactor * default_speed_constant(runtime.model)
    margins = point.path.admissibility_margins(
        cfg.manifold.delta, cfg.manifold.alpha, speed,
    )
    return {
        "preset": preset,
        "sigma0": point.sigma0,
        "delta": cfg.manifold.delta,
        "alpha": cfg.manifold.alpha,
        "beta": point.correction,
        "beta_star": beta_star,
        "refine": refine_info,
        "correction_strong_norm": abs(point.correction)
        * float(runtime.grid.strong_norm_values(runtime.workspace.unstable_mode)),
        "eta_strong_norm": point.eta.strong_norm(),
        "iterations": point.iterations,
        "distances": list(point.distances),
        "contraction_ratios": list(point.contraction_ratios),
        "tail_bound": point.tail_bound,
        "margins": margins,
        "mesh": {
            "dt_fine": cfg.manifold.mesh_dt_fine,
            "t_uniform": cfg.manifold.mesh_t_uniform,
            "ratio": cfg.manifold.mesh_ratio,
            "horizon": cfg.manifold.horizon,
        },
        "eta_values": point.eta.values,
        "initial_values": initial_values,
        "unstable_mode": runtime.workspace.unstable_mode,
    }


# --------------------------------------------------------------------------
# Full pipeline
# --------------------------------------------------------------------------

@dataclass
class PipelineReport:
    """Aggregated pipeline outcome; exit 0 pass, 1 criterion failure."""

    preset: str
    checks: list
    metrics: dict
    artifacts: list
    ledger_passed: bool

    @property
    def passed(self) -> bool:
        return self.ledger_passed and all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "passed": self.passed,
            "exit_code": self.exit_code,
            "ledger_passed": self.ledger_passed,
            "checks": [check.to_dict() for check in self.checks],
            "metrics": _jsonable(self.metrics),
            "artifacts": list(self.artifacts),
        }


def _samples_upto(times: np.ndarray, horizon: float) -> np.ndarray:
    return times[times <= horizon + 1e-12]


def run_full_pipeline(cfg: ExperimentConfig, eta_preset: str = "stable-bump",
                      out_dir: str = "runs/stable-bump") -> PipelineReport:
    """Ledger, construct, refine, solve, compare, witness; write artifacts.

    The run directory receives ``config.json``, ``ledger.json``,
    ``point.json``, ``traj.csv``, and ``report.json``.  Any criterion
    failure — including a failed assumption ledger or a non-contracting
    construction — is recorded as a failed check and aborts the remaining
    stages cleanly; the report is always written.
    """
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)
    artifacts = ["config.json", "ledger.json"]
    with open(os.path.join(out_dir, "config.json"), "w",
              encoding="utf-8", newline="\n") as handle:
        handle.write(cfg.to_json())
        handle.write("\n")

    ledger, runtime = _ledger_with_runtime(cfg)
    write_json(os.path.join(out_dir, "ledger.json"), ledger.to_dict())

    checks: list[CheckResult] = []
    metrics: dict = {"constants": ledger.constants}

    def finish() -> PipelineReport:
        report = PipelineReport(
            preset=eta_preset,
            checks=checks,
            metrics=metrics,
            artifacts=artifacts,
            ledger_passed=ledger.passed,
        )
        write_json(os.path.join(out_dir, "report.json"), report.to_dict())
        return report

    if runtime is None or not ledger.passed:
        return finish()

    model, grid, workspace = runtime.model, runtime.grid, runtime.workspace
    delta, alpha = cfg.manifold.delta, cfg.manifold.alpha
    speed = cfg.manifold.speed_prefactor * default_speed_constant(model)
    eta = preset_field(eta_preset, runtime.spectrum)
    degenerate = eta.strong_norm() == 0.0

    # Construction: Picard iteration of the solution map.
    try:
        point = construct_manifold_point(
            workspace, eta, delta=delta, alpha=alpha, speed_constant=speed,
            fixed_point_tol=cfg.manifold.fixed_point_tol,
            max_iter=cfg.manifold.max_iterations,
        )
    except AdiaflowError as err:
        checks.append(CheckResult(
            name="fixed-point-convergence",
            claim="solution map contracts to a fixed point at the "
                  "configured ball radius",
            passed=False,
            value=None,
            bound=f"convergence within {cfg.manifold.max_iterations} rounds",
            details={"error": str(err)},
        ))
        return finish()

    checks.append(CheckResult(
        name="fixed-point-convergence",
        claim="solution map contracts to a fixed point at the "
              "configured ball radius",
        passed=point.iterations <= cfg.manifold.max_iterations,
        value=float(point.iterations),
        bound=f"<= {cfg.manifold.max_iterations} rounds to "
              f"{cfg.manifold.fixed_point_tol:g}",
        details={
            "distances": list(point.distances),
            "ratios": list(point.contraction_ratios),
        },
    ))

    contraction = measure_contraction(
        workspace, delta=delta, alpha=alpha, speed_constant=speed,
        n_pairs=10, seed=cfg.seeds.contraction,
    )
    checks.append(CheckResult(
        name="contraction-factor",
        claim="solution map contracts trial-path pairs at the configured "
              "ball radius",
        passed=contraction["max"] <= CONTRACTION_BOUND,
        value=contraction["max"],
        bound=f"<= {CONTRACTION_BOUND}",
        details={"mean": contraction["mean"]},
    ))

    # Shooting refinement against the discrete full solver.
    refine = refine_correction(
        workspace, point,
        dt=cfg.reference.fixed_dt,
        probe_time=cfg.reference.refine_probe_time,
    )
    refine_info = refine.payload()
    initial_state = corrected_initial_state(workspace, point, refine.beta)
    write_json(
        os.path.join(out_dir, "point.json"),
        point_payload(runtime, eta_preset, point, refine.beta, refine_info,
                      initial_state.values),
    )
    artifacts.append("point.json")
    metrics["beta"] = point.correction
    metrics["beta_star"] = refine.beta
    metrics["refine_evaluations"] = refine.evaluations

    # Full solve on the mesh prefix, and the trajectory artifact.
    samples = _samples_upto(workspace.times, cfg.reference.compare_horizon)
    traj = evolve_full(
        model, initial_state, float(samples[-1]),
        fixed_dt=cfg.reference.fixed_dt, sample_times=samples,
        ceiling=cfg.reference.ceiling,
    )
    checks.append(CheckResult(
        name="full-solve-complete",
        claim="corrected initial state survives the comparison horizon "
              "without escaping",
        passed=not traj.escaped,
        value=float(traj.times[-1]),
        bound=f"reaches t = {float(samples[-1]):g}",
        details={"stats": dict(traj.stats)},
    ))
    if traj.escaped:
        return finish()

    energies = traj.energies(model)
    energy_increase = float(np.max(np.diff(energies)))
    checks.append(CheckResult(
        name="energy-dissipation",
        claim="discrete energy is nonincreasing along the full solve",
        passed=energy_increase <= 1e-12,
        value=energy_increase,
        bound="<= 1e-12 per sample step",
    ))

    header, rows = trajectory_rows(
        model, point.sigma0, workspace.unstable_mode, traj
    )
    write_trajectory_csv(os.path.join(out_dir, "traj.csv"), header, rows)
    artifacts.append("traj.csv")

    # Reduced-versus-full comparison.
    comparison = compare_effective(workspace, point, traj,
                                   delta=delta, alpha=alpha)
    metrics["comparison"] = comparison
    agreement = max(
        comparison["sup_sigma_effective"],
        comparison["sup_sigma_fixed_point"],
        comparison["sup_w_strong"],
    )
    checks.append(CheckResult(
        name="reduced-agreement",
        claim="fixed-point path and effective chart dynamics match the "
              "extracted full solution",
        passed=agreement <= AGREEMENT_BOUND,
        value=agreement,
        bound=f"sup differences <= {AGREEMENT_BOUND:g}",
        details={key: comparison[key] for key in (
            "sup_sigma_effective", "sup_sigma_fixed_point", "sup_w_strong",
        )},
    ))
    checks.append(CheckResult(
        name="remainder-envelope",
        claim="extracted remainder stays inside the weighted decay envelope",
        passed=comparison["decay_margin"] <= 1.0,
        value=comparison["decay_margin"],
        bound="<= 1",
    ))
    if degenerate:
        checks.append(CheckResult(
            name="envelope-rate",
            claim="extracted remainder decays exponentially over the fit "
                  "window",
            passed=True,
            value=None,
            bound="degenerate for a zero seed (nothing to fit)",
        ))
    else:
        checks.append(CheckResult(
            name="envelope-rate",
            claim="extracted remainder decays exponentially over the fit "
                  "window",
            passed=comparison["envelope_rate"] <= ENVELOPE_RATE_BOUND,
            value=comparison["envelope_rate"],
            bound=f"<= {ENVELOPE_RATE_BOUND}",
        ))

    # Instability witness: growth with an offset, quiet without one.
    offset = cfg.reference.witness_offset
    rate_target = -workspace.unstable_eigenvalue
    witness_metrics = {}
    if offset > 0.0:
        for sign in (+1.0, -1.0):
            label = "plus" if sign > 0 else "minus"
            report = instability_witness(
                workspace, point, refine.beta, sign * offset,
                delta=delta, alpha=alpha, dt=cfg.reference.fixed_dt,
                t_max=cfg.reference.witness_horizon,
            )
            witness_metrics[label] = {
                "rate": report.rate,
                "escape_sign": report.escape_sign,
                "escape_time": report.escape_time,
                "max_coefficient": report.max_coefficient,
            }
            rate_ok = (report.rate is not None
                       and abs(report.rate - rate_target) <= GROWTH_RATE_TOL)
            checks.append(CheckResult(
                name=f"instability-growth-{label}",
                claim="offset along the unstable mode grows at the "
                      "unstable eigenvalue's rate and escapes in the "
                      "offset's direction",
                passed=rate_ok and report.escape_sign == (1 if sign > 0 else -1),
                value=report.rate,
                bound=f"rate within {GROWTH_RATE_TOL} of {rate_target:.6f}; "
                      f"escape sign {'+1' if sign > 0 else '-1'}",
                details=witness_metrics[label],
            ))
    quiet = instability_witness(
        workspace, point, refine.beta, 0.0,
        delta=delta, alpha=alpha, dt=cfg.reference.fixed_dt,
        t_max=cfg.reference.witness_horizon,
    )
    witness_metrics["zero"] = {
        "rate": quiet.rate,
        "escape_sign": quiet.escape_sign,
        "max_coefficient": quiet.max_coefficient,
        "max_remainder_margin": quiet.max_remainder_margin,
    }
    checks.append(CheckResult(
        name="zero-offset-quiet",
        claim="with no offset the unstable coefficient never grows over "
              "the witness horizon",
        passed=quiet.escape_sign == 0 and quiet.rate is None
        and quiet.max_coefficient <= QUIET_COEFFICIENT_BOUND
        and quiet.max_remainder_margin <= 1.0,
        value=quiet.max_coefficient,
        bound=f"no escape; coefficient <= {QUIET_COEFFICIENT_BOUND:g}; "
              "remainder inside its envelope",
        details=witness_metrics["zero"],
    ))
    metrics["witness"] = witness_metrics

    return finish()
