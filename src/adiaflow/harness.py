"""Experiment orchestration: assumption ledger, pipeline runs, artifacts.

Two entry points tie the library together.  ``run_assumption_ledger``
executes every structural assumption the construction rests on — operator
symmetry and boundedness, spectral classification, propagator decay, family
and frame regularity, operator and nonlinearity smallness — and reports the
measured constants.  ``run_full_pipeline`` chains ledger, fixed-point
construction, shooting refinement, full solve, reduced-versus-full
comparison, and the instability witness, writing every artifact into one
run directory.  The config-bound stages below turn the configuration into
the arguments of those calls, for the pipeline and the command line alike.

Artifacts are deterministic by construction: seeded randomness, sorted JSON
keys, shortest round-trip float formatting, and no timestamps — identical
configuration must produce bit-identical bytes.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import ExperimentConfig
from .errors import AdiaflowError, ClassificationError, ConfigError
from .grid import GridField, PeriodicGrid, smooth_noise
from .manifold import (
    ManifoldPoint,
    SolutionMapWorkspace,
    construct_manifold_point,
    correction_scan,
    default_speed_constant,
    measure_contraction,
)
from .model import PulseModel
from .paths import TrajectoryPath, mesh_prefix, time_mesh
from .presets import preset_field
from .reference import (
    FullTrajectory,
    RefineResult,
    collapse_floor,
    compare_effective,
    corrected_initial_state,
    evolve_lanes,
    extract_modulated,
    instability_witnesses,
    refine_correction,
    unstable_coefficient,
    witness_report,
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
    """Configured grid, model, spectrum, and solution-map workspace; the
    configured time mesh is ``workspace.times``."""

    config: ExperimentConfig
    grid: PeriodicGrid
    model: PulseModel
    spectrum: SpectralData
    workspace: SolutionMapWorkspace = field(repr=False)


def build_model(cfg: ExperimentConfig) -> PulseModel:
    """The configured grid and pulse model (``model.grid`` is the grid)."""
    grid = PeriodicGrid(cfg.model.n_points, cfg.model.domain_half_length)
    return PulseModel(grid, cfg.model.chart_radius)


def config_mesh(cfg: ExperimentConfig) -> np.ndarray:
    """The configured time mesh of the fixed-point construction."""
    mf = cfg.manifold
    return time_mesh(mf.mesh_dt_fine, mf.mesh_t_uniform, mf.mesh_ratio,
                     mf.horizon)


def build_runtime(cfg: ExperimentConfig) -> Runtime:
    """Assemble every long-lived object a run needs from the configuration."""
    cfg.validate()
    model = build_model(cfg)
    spectrum = decompose(
        model, 0.0,
        gap_threshold=cfg.spectral.gap_threshold,
        zero_tol=cfg.spectral.zero_tol,
    )
    workspace = SolutionMapWorkspace(spectrum, times=config_mesh(cfg))
    return Runtime(
        config=cfg, grid=model.grid, model=model, spectrum=spectrum,
        workspace=workspace,
    )


# --------------------------------------------------------------------------
# Config-bound stages
# --------------------------------------------------------------------------

def speed_constant(cfg: ExperimentConfig, model: PulseModel) -> float:
    """Chart-speed constant of the admissible set: prefactor * (c_h + 1)."""
    return cfg.manifold.speed_prefactor * default_speed_constant(model)


def _picard_arguments(cfg: ExperimentConfig, model: PulseModel) -> dict:
    mf = cfg.manifold
    return dict(delta=mf.delta, alpha=mf.alpha,
                speed_constant=speed_constant(cfg, model),
                fixed_point_tol=mf.fixed_point_tol, max_iter=mf.max_iterations)


def construct_point(cfg: ExperimentConfig, workspace: SolutionMapWorkspace,
                    eta: GridField) -> ManifoldPoint:
    """The configured Picard construction over eta."""
    return construct_manifold_point(workspace, eta,
                                    **_picard_arguments(cfg, workspace.model))


def scan_corrections(cfg: ExperimentConfig, workspace: SolutionMapWorkspace,
                     direction: GridField, scales) -> dict:
    """``correction_scan`` with the configured Picard construction."""
    return correction_scan(workspace, direction, scales,
                           **_picard_arguments(cfg, workspace.model))


def refine_point(cfg: ExperimentConfig, workspace: SolutionMapWorkspace,
                 point: ManifoldPoint) -> RefineResult:
    """The configured shooting refinement of the point's correction."""
    return refine_correction(workspace, point, dt=cfg.reference.fixed_dt,
                             probe_time=cfg.reference.refine_probe_time,
                             ceiling=cfg.reference.ceiling)


def solve_fixed_step(cfg: ExperimentConfig, model: PulseModel, start,
                     samples: np.ndarray) -> FullTrajectory:
    """The configured fixed-step full solve, recorded at the mesh samples
    and ended by the configured ceiling or the witness's collapse floor.
    ``start`` is the initial values, or a configured fixed-step solve (such
    as the refinement's probe solve) to continue; one that cannot be
    continued to the samples is solved again from its t = 0 sample."""
    if isinstance(start, FullTrajectory) and not start.continues_to(samples):
        start = start.u_samples[0]
    return evolve_lanes(model, [start], dt=cfg.reference.fixed_dt,
                        sample_times=samples, ceiling=cfg.reference.ceiling,
                        collapse_floor=collapse_floor(model))[0]


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
            "details": jsonable(self.details),
        }


#: The claim of every check the ledger, the pipeline and ``compare`` report.
_CLAIMS = {
    "operator-symmetry": "linearized operator is self-adjoint (assembled "
                         "matrix is exactly symmetric)",
    "operator-bound": "linearized operator is bounded strong-to-weak, "
                      "uniformly over the chart",
    "spectral-classification": "discrete spectrum splits into one simple "
                               "negative eigenvalue, a one-dimensional "
                               "symmetry kernel, and a gapped stable rest",
    "zero-mode-identity": "kernel eigenvector coincides with the symmetry "
                          "tangent",
    "tangent-annihilation": "family tangent is annihilated by the linearized "
                            "operator at every sampled chart point",
    "propagator-decay": "semigroup restricted to the stable range decays at "
                        "least like exp(-0.7 t) in the strong norm",
    "family-regularity": "equilibrium family passes through the pulse and is "
                         "twice differentiable along the chart with bounded "
                         "derivatives",
    "frame-normalization": "chart frame is orthonormal in the weak metric "
                           "with a bounded flat trivialization",
    "operator-lipschitz": "linearized operator is Lipschitz in the chart "
                          "point as a strong-to-weak operator",
    "nonlinearity-quadratic": "gradient remainder at the family is exactly "
                              "minus the squared perturbation",
    "stationarity-defect": "sampled pulse is stationary for the discrete "
                           "energy gradient",
    "fixed-point-convergence": "solution map contracts to a fixed point at "
                               "the configured ball radius",
    "contraction-factor": "solution map contracts trial-path pairs at the "
                          "configured ball radius",
    "full-solve-complete": "corrected initial state survives the comparison "
                           "horizon without escaping",
    "energy-dissipation": "discrete energy is nonincreasing along the full "
                          "solve",
    "reduced-agreement": "fixed-point path and effective chart dynamics "
                         "match the extracted full solution",
    "remainder-envelope": "extracted remainder stays inside the weighted "
                          "decay envelope",
    "envelope-rate": "extracted remainder decays exponentially over the fit "
                     "window",
    **dict.fromkeys(
        ("instability-growth-plus", "instability-growth-minus"),
        "offset along the unstable mode grows at the unstable eigenvalue's "
        "rate and escapes in the offset's direction"),
    "zero-offset-quiet": "with no offset the unstable coefficient never "
                         "grows over the witness horizon",
}


def _check(name: str, passed: bool, value: float | None, bound: str,
           **details) -> CheckResult:
    """The check ``name`` with its claim from ``_CLAIMS``."""
    return CheckResult(name=name, claim=_CLAIMS[name], passed=passed,
                       value=value, bound=bound, details=details)


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
            "constants": jsonable(self.constants),
            "eigenvalue_table": jsonable(self.eigenvalue_table),
        }


def jsonable(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, dict):
        return {key: jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(item) for item in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def write_json(path: str, payload: dict) -> None:
    """Write JSON with sorted keys and a trailing newline (deterministic)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(jsonable(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")


def eigenvalue_table(spectrum: SpectralData, n_rows: int = 8) -> list:
    """The lowest ``n_rows`` eigenvalues with their classification."""
    kinds = {int(spectrum.unstable_indices[0]): "unstable",
             int(spectrum.zero_indices[0]): "zero"}
    table = []
    for idx in range(min(n_rows, len(spectrum.eigenvalues))):
        table.append({
            "index": idx,
            "eigenvalue": float(spectrum.eigenvalues[idx]),
            "kind": kinds.get(idx, "stable"),
        })
    return table


def spectral_constants(spectrum: SpectralData, propagator_seed: int) -> dict:
    """The measured constants of one spectrum: the strong-to-weak operator
    norm ``c1``, the stable propagator's envelope ``c2`` and fitted
    ``propagator_rate`` (probes seeded by ``propagator_seed``), the spectral
    gap, and the unstable and zero eigenvalues."""
    c2, rate = measure_propagator_constant(spectrum, seed=propagator_seed)
    return {
        "c1": operator_norm_diagnostic(spectrum),
        "c2": c2,
        "propagator_rate": rate,
        "spectral_gap": spectrum.spectral_gap,
        "unstable_eigenvalue": spectrum.unstable_eigenvalue,
        "zero_eigenvalue": float(
            spectrum.eigenvalues[spectrum.zero_indices[0]]),
    }


def _ledger_with_runtime(cfg: ExperimentConfig):
    """(LedgerReport, Runtime or None); a classification failure is
    reported, with the lowest eigenvalues it classified, not raised."""
    try:
        runtime = build_runtime(cfg)
    except ClassificationError as err:
        check = _check(
            "spectral-classification", False, None,
            "classification must succeed at the configured thresholds",
            error=str(err))
        table = [{"index": idx, "eigenvalue": float(value),
                  "kind": "unclassified"}
                 for idx, value in enumerate(err.eigenvalues[:8])]
        return LedgerReport([check], {}, table), None

    model, spectrum, grid = runtime.model, runtime.spectrum, runtime.grid
    seeds = cfg.seeds
    sigma_samples = [-2.0, -0.7, 0.0, 0.9, 2.3]
    constants = spectral_constants(spectrum, seeds.propagator)
    c1, gap = constants["c1"], constants["spectral_gap"]
    e1 = constants["unstable_eigenvalue"]
    zero_eig = constants["zero_eigenvalue"]

    asym = max(float(np.max(np.abs(matrix - matrix.T))) for matrix in (
        assemble_operator(model, s) for s in (0.0, 1.3)))

    # weak(L v) / strong(v) for 4 probes at each sampled chart point; by
    # translation equivariance every row matches the first.
    rng = np.random.default_rng(seeds.operator_probes)
    probes = np.array([smooth_noise(grid, rng, 4.0) for _ in range(4)])
    ratios = np.array([[
        grid.weak_norm_values(model.linearized_apply(
            s, GridField(row, grid)).values) / grid.strong_norm_values(row)
        for row in grid.shift_values(probes, s)
    ] for s in sigma_samples])
    ratio_spread = float(np.max(np.abs(ratios - ratios[0])))

    counts = (len(spectrum.unstable_indices), len(spectrum.zero_indices))
    tangents = {s: GridField(model.frame(s)[1], grid) for s in sigma_samples}
    overlap = abs(float(grid.inner_values(
        spectrum.eigenvectors[:, spectrum.zero_indices[0]],
        tangents[0.0].values,
    )))
    annihilation = max(
        float(model.linearized_apply(s, tangent).weak_norm())
        for s, tangent in tangents.items()
    )
    base_defect = float(np.max(np.abs(
        model.family(0.0).values - model.profile.values
    )))
    c_f = model.family_bound()
    frame_defect = max(
        abs(tangent.weak_norm() - 1.0) for tangent in tangents.values()
    )
    pairs = [(0.0, 0.25), (0.0, 0.5), (1.0, 1.4), (-1.0, -0.6)]
    delta0_ratio = max(
        verify_operator_lipschitz(model, a, b, seed=seeds.operator_probes)
        for a, b in pairs
    )
    slope_bound = 2.0 * model.max_profile_slope()

    # The nonlinearity at the family against -w^2, on 8 probes of strong
    # norm 0.3.
    rng = np.random.default_rng(seeds.modulation_probes)
    quad_defect = quad_constant = 0.0
    for _ in range(8):
        smooth = smooth_noise(grid, rng, 4.0)
        w = GridField(0.3 * smooth / grid.strong_norm_values(smooth), grid)
        remainder = model.nonlinearity(0.0, w)
        quad_defect = max(quad_defect, float(
            grid.weak_norm_values(remainder.values + w.values**2)))
        quad_constant = max(quad_constant, float(remainder.weak_norm())
                            / w.strong_norm() ** 2)
    stationarity = float(model.gradient(model.profile).weak_norm())

    constants.update(c_f=c_f, c_h=model.c_h, xi=model.xi,
                     delta0_ratio=delta0_ratio,
                     stationarity_defect=stationarity,
                     energy_at_pulse=model.energy(model.profile))
    return LedgerReport([
        _check("operator-symmetry", asym == 0.0, asym, "= 0"),
        _check("operator-bound",
               bool(np.isfinite(c1)) and ratio_spread <= 1e-8 * c1, c1,
               "finite, chart-uniform to relative 1e-8",
               chart_ratio_spread=ratio_spread),
        _check("spectral-classification",
               counts == (1, 1) and abs(e1 + 1.25) <= 5e-3
               and abs(zero_eig) <= cfg.spectral.zero_tol and gap >= 0.7,
               gap,
               "counts (1, 1); lowest eigenvalue -1.25 +- 5e-3; gap >= 0.7",
               unstable_eigenvalue=e1, zero_eigenvalue=zero_eig,
               n_unstable=counts[0], n_zero=counts[1]),
        _check("zero-mode-identity", abs(1.0 - overlap) <= 1e-8,
               1.0 - overlap, "|1 - overlap| <= 1e-8"),
        _check("tangent-annihilation", annihilation <= 5e-5, annihilation,
               "<= 5e-5"),
        _check("propagator-decay",
               constants["propagator_rate"] <= ENVELOPE_RATE_BOUND,
               constants["propagator_rate"], "fitted rate <= -0.7",
               c2=constants["c2"]),
        _check("family-regularity",
               base_defect == 0.0 and bool(np.isfinite(c_f)), c_f,
               "exact at the origin; bound finite", origin_defect=base_defect),
        _check("frame-normalization", frame_defect <= 1e-12, frame_defect,
               "|weak(tangent) - 1| <= 1e-12", c_h=model.c_h),
        _check("operator-lipschitz", delta0_ratio <= 1.1 * slope_bound,
               delta0_ratio, "<= 1.1 x (twice the largest profile slope)",
               slope_bound=slope_bound),
        _check("nonlinearity-quadratic", quad_defect <= 1e-12, quad_defect,
               "<= 1e-12", quadratic_constant=quad_constant),
        _check("stationarity-defect", stationarity <= 1e-6, stationarity,
               "<= 1e-6"),
    ], constants, eigenvalue_table(spectrum)), runtime


def run_assumption_ledger(cfg: ExperimentConfig) -> LedgerReport:
    """Execute every structural assumption check and report constants."""
    report, _ = _ledger_with_runtime(cfg)
    return report


def comparison_checks(comparison: dict, degenerate: bool) -> list:
    """The reduced-agreement, remainder-envelope and envelope-rate checks of
    one ``compare_effective`` result; a zero seed leaves no rate to fit."""
    sups = {key: comparison[key] for key in (
        "sup_sigma_effective", "sup_sigma_fixed_point", "sup_w_strong",
    )}
    agreement = max(sups.values())
    rate = None if degenerate else comparison["envelope_rate"]
    return [
        _check("reduced-agreement", agreement <= AGREEMENT_BOUND, agreement,
               f"sup differences <= {AGREEMENT_BOUND:g}", **sups),
        _check("remainder-envelope", comparison["decay_margin"] <= 1.0,
               comparison["decay_margin"], "<= 1"),
        _check("envelope-rate", degenerate or rate <= ENVELOPE_RATE_BOUND,
               rate, "degenerate for a zero seed (nothing to fit)"
               if degenerate else f"<= {ENVELOPE_RATE_BOUND}"),
    ]


# --------------------------------------------------------------------------
# File artifacts: each format is written and read here
# --------------------------------------------------------------------------

@contextlib.contextmanager
def _input_file(path: str, kind: str):
    """Turn a failure to open or parse the ``kind`` file at ``path`` inside
    the block into a one-line ConfigError."""
    try:
        yield
    except OSError as err:
        raise ConfigError(f"cannot read {kind} file: {err}") from err
    except KeyError as err:
        raise ConfigError(f"{kind} file lacks required key: {err}") from err
    except (ValueError, LookupError, TypeError, csv.Error) as err:
        raise ConfigError(f"malformed {kind} file {path!r}: {err}") from err


def _finite(values: np.ndarray, problem) -> np.ndarray:
    """``values``, refused with ConfigError(``problem(row)``) at the first
    entry of a vector, or row of a table, that is not finite."""
    finite = np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
    if not finite.all():
        raise ConfigError(problem(int(np.argmin(finite))))
    return values


def trajectory_rows(traj: FullTrajectory, extracted: TrajectoryPath,
                    energies: np.ndarray,
                    coefficients: np.ndarray) -> tuple[list, list]:
    """(header, rows) for the trajectory CSV of traj, its extraction, its
    sample energies and the extraction's moving-frame unstable coefficients
    (``unstable_coefficient``).

    Columns: time, chart coordinate, strong norm of the remainder, unstable
    coefficient, energy, then the full state so any consumer can rebuild the
    exact discrete trajectory.  Only the extracted prefix is emitted.
    """
    m = extracted.n_samples
    header = ["t", "sigma", "strong_norm_w", "unstable_coefficient", "energy"]
    header += [f"u_{k}" for k in range(extracted.grid.n)]
    rows = np.column_stack([
        traj.times[:m], extracted.sigma, extracted.w_strong_norms(),
        coefficients, energies[:m], traj.u_samples[:m],
    ]).tolist()
    return header, rows


def write_trajectory_csv(path: str, header: list, rows: list) -> None:
    """Write the trajectory table, every value as 17 significant digits;
    the bytes are those of ``csv.writer`` on the formatted values."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        line = ",".join(["%.17g"] * len(header)) + "\n"
        for row in rows:
            handle.write(line % tuple(row))


def load_trajectory_csv(path: str, grid: PeriodicGrid) -> FullTrajectory:
    """Rebuild a FullTrajectory from a trajectory CSV (state columns); a
    file that cannot be read or replayed on ``grid`` raises ConfigError."""
    with _input_file(path, "trajectory"), \
            open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        if "u_0" not in header:
            raise ConfigError(f"trajectory file {path!r} lacks state "
                              f"columns u_0.. and cannot be replayed")
        first_state = header.index("u_0")
        if len(header) - first_state != grid.n:
            raise ConfigError(
                f"trajectory file {path!r} has "
                f"{len(header) - first_state} state columns, the grid "
                f"has {grid.n} points"
            )
        samples = []
        for row in reader:
            if len(row) != len(header):
                raise ConfigError(
                    f"trajectory file {path!r} line {reader.line_num} "
                    f"has {len(row)} cells, the header has {len(header)}"
                )
            samples.append([float(row[0])]
                           + [float(v) for v in row[first_state:]])
    if not samples:
        raise ConfigError(f"trajectory file {path!r} has no samples")
    samples = _finite(np.array(samples), lambda row: (
        f"trajectory file {path!r} has a non-finite value in sample {row}"))
    return FullTrajectory(samples[:, 0].copy(),
                          np.ascontiguousarray(samples[:, 1:]),
                          {"escape_sign": 0, "escape_time": None})


def write_field_csv(path: str, field: GridField) -> None:
    """Write a grid field as the two-column CSV ``load_field_csv`` reads."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["x", "value"])
        for x, v in zip(field.grid.x, field.values):
            writer.writerow([f"{x:.17g}", f"{v:.17g}"])


def load_field_csv(path: str, grid: PeriodicGrid) -> GridField:
    """The grid field in an x,value CSV; a file that cannot be read, or has
    other than one finite value per grid point, raises ConfigError."""
    with _input_file(path, "field"), \
            open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["x", "value"]:
            raise ConfigError(
                f"field file {path!r} must have an 'x,value' header"
            )
        values = np.array([float(row[1]) for row in reader])
    if len(values) != grid.n:
        raise ConfigError(
            f"field file has {len(values)} rows, the grid has {grid.n} points"
        )
    return GridField(_finite(values, lambda row: (
        f"field file {path!r} has a non-finite value on line {row + 2}")),
        grid)


def point_payload(runtime: Runtime, preset: str, point: ManifoldPoint,
                  refine: RefineResult | None) -> dict:
    """JSON payload describing one constructed point, refined when
    ``refine`` is given; ``initial_values`` is the state to solve from."""
    cfg = runtime.config
    initial = point.initial_state if refine is None else \
        corrected_initial_state(runtime.workspace, point, refine.beta)
    margins = point.path.admissibility_margins(
        cfg.manifold.delta, cfg.manifold.alpha,
        speed_constant(cfg, runtime.model),
    )
    return {
        "preset": preset,
        "sigma0": point.sigma0,
        "manifold": asdict(cfg.manifold),
        "beta": point.correction,
        "beta_star": None if refine is None else refine.beta,
        "refine": None if refine is None else refine.payload(),
        "correction_strong_norm": abs(point.correction)
        * float(runtime.grid.strong_norm_values(runtime.workspace.unstable_mode)),
        "eta_strong_norm": point.eta.strong_norm(),
        "iterations": point.iterations,
        "distances": list(point.distances),
        "contraction_ratios": list(point.contraction_ratios),
        "tail_bound": point.tail_bound,
        "margins": margins,
        "eta_values": point.eta.values,
        "initial_values": initial.values,
        "unstable_mode": runtime.workspace.unstable_mode,
    }


def read_point(path: str, cfg: ExperimentConfig) -> dict:
    """The payload of a point file ``point_payload`` wrote, whose other
    entries ``point_entry`` reads.  The ``manifold`` section the point was
    constructed with replaces the configured one in ``cfg``."""
    with _input_file(path, "point"), open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
        cfg.manifold = ExperimentConfig.from_dict(
            {"manifold": payload["manifold"]}).manifold
    cfg.validate()
    return payload


def point_entry(path: str, payload: dict, key: str,
                size: int | None = None) -> np.ndarray:
    """Entry ``key`` of the point file at ``path``, read by ``read_point``,
    as finite floats: ``size`` of them, or one when ``size`` is None."""
    with _input_file(path, "point"):
        values = np.array(payload[key], dtype=float)
    if values.shape != (() if size is None else (size,)):
        raise ConfigError(
            f"point file has {values.size} {key} entries, " + (
                "one expected" if size is None else
                f"the configured grid has {size} points"))
    return _finite(values, lambda row: (
        f"point file {path!r} entry {key!r} has non-finite values"))


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
            "metrics": jsonable(self.metrics),
            "artifacts": list(self.artifacts),
        }


def run_full_pipeline(cfg: ExperimentConfig, eta_preset: str = "stable-bump",
                      out_dir: str = "runs/stable-bump") -> PipelineReport:
    """Ledger, construct, refine, solve, compare, witness; write artifacts.

    The run directory receives ``config.json``, ``ledger.json``,
    ``point.json``, ``traj.csv``, and ``report.json``.  Any criterion
    failure — including a failed assumption ledger, or a typed error inside
    a stage, recorded under the stage's name — is a failed check and aborts
    the remaining stages cleanly; the report is always written.
    """
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)
    artifacts = ["config.json", "ledger.json"]
    write_json(os.path.join(out_dir, "config.json"), cfg.to_dict())

    ledger, runtime = _ledger_with_runtime(cfg)
    write_json(os.path.join(out_dir, "ledger.json"), ledger.to_dict())

    checks: list[CheckResult] = []
    metrics: dict = {"constants": ledger.constants}
    if runtime is not None and ledger.passed:
        stage = None
        try:
            for stage in _pipeline_stages(runtime, eta_preset, out_dir,
                                          checks, metrics, artifacts):
                pass
        except AdiaflowError as err:
            checks.append(CheckResult(
                name=stage, claim=f"the {stage} stage runs to completion",
                passed=False, value=None, bound="completes without error",
                details={"error": str(err)},
            ))

    report = PipelineReport(preset=eta_preset, checks=checks, metrics=metrics,
                            artifacts=artifacts, ledger_passed=ledger.passed)
    write_json(os.path.join(out_dir, "report.json"), report.to_dict())
    return report


def _pipeline_stages(runtime: Runtime, eta_preset: str, out_dir: str,
                     checks: list, metrics: dict, artifacts: list):
    """The pipeline after the ledger: each stage appends its checks, metrics
    and artifacts.  Yields a stage's name before running it, so the caller
    can name the stage a typed error came from; returns early where a
    failed check leaves the later stages nothing to check."""
    cfg = runtime.config
    model, workspace = runtime.model, runtime.workspace
    delta, alpha = cfg.manifold.delta, cfg.manifold.alpha

    yield "construction"
    eta = preset_field(eta_preset, runtime.spectrum)
    degenerate = eta.strong_norm() == 0.0
    point = construct_point(cfg, workspace, eta)
    checks.append(_check(
        "fixed-point-convergence",
        point.iterations <= cfg.manifold.max_iterations,
        float(point.iterations), f"<= {cfg.manifold.max_iterations} rounds "
        f"to {cfg.manifold.fixed_point_tol:g}",
        distances=list(point.distances), ratios=list(point.contraction_ratios),
    ))

    yield "contraction"
    contraction = measure_contraction(
        workspace, delta=delta, alpha=alpha,
        speed_constant=speed_constant(cfg, model),
        n_pairs=10, seed=cfg.seeds.contraction,
    )
    checks.append(_check(
        "contraction-factor", contraction["max"] <= CONTRACTION_BOUND,
        contraction["max"], f"<= {CONTRACTION_BOUND}",
        mean=contraction["mean"],
    ))

    # Shooting refinement against the discrete full solver.
    yield "shooting"
    refine = refine_point(cfg, workspace, point)
    payload = point_payload(runtime, eta_preset, point, refine)
    write_json(os.path.join(out_dir, "point.json"), payload)
    artifacts.append("point.json")
    metrics["beta"] = point.correction
    metrics["beta_star"] = refine.beta
    metrics["refine_evaluations"] = refine.evaluations

    # The comparison solve continues the probe solve of beta*, which has
    # the same state, step, mesh clamps and escape checks.
    yield "full-solve"
    samples = mesh_prefix(workspace.times, cfg.reference.witness_horizon)
    traj = solve_fixed_step(cfg, model, refine.trajectory, samples)
    checks.append(_check(
        "full-solve-complete",
        not traj.escaped and bool(traj.times[-1] == samples[-1]),
        float(traj.times[-1]), f"reaches t = {float(samples[-1]):g}",
        stats=dict(traj.stats),
    ))
    if traj.escaped:
        return

    energies = traj.energies(model)
    energy_increase = float(np.max(np.diff(energies)))
    checks.append(_check(
        "energy-dissipation", energy_increase <= 1e-12, energy_increase,
        "<= 1e-12 per sample step",
    ))

    # The one decomposition of the solve, and the trajectory artifact.
    yield "extraction"
    extracted = extract_modulated(model, traj, sigma_guess=point.sigma0)
    coefficients = unstable_coefficient(workspace.grid,
                                        workspace.unstable_mode, point.sigma0,
                                        extracted.sigma, extracted.w)
    header, rows = trajectory_rows(traj, extracted, energies, coefficients)
    write_trajectory_csv(os.path.join(out_dir, "traj.csv"), header, rows)
    artifacts.append("traj.csv")

    yield "comparison"
    comparison = compare_effective(workspace, point, traj, extracted,
                                   delta=delta, alpha=alpha)
    metrics["comparison"] = comparison
    checks.extend(comparison_checks(comparison, degenerate))

    # Instability witness: growth with the offset of either sign, quiet
    # without one.  The comparison solve is the zero-offset witness solve:
    # same state, step, samples and escape checks.
    yield "witness"
    offset = cfg.reference.witness_offset
    rate_target = -workspace.unstable_eigenvalue
    witness_metrics = {}
    reports = instability_witnesses(
        workspace, point, refine.beta, [offset, -offset], delta=delta,
        alpha=alpha, dt=cfg.reference.fixed_dt,
        t_max=cfg.reference.witness_horizon, ceiling=cfg.reference.ceiling,
    )
    for sign, label, report in zip((1, -1), ("plus", "minus"), reports):
        witness_metrics[label] = {
            "rate": report.rate,
            "escape_sign": report.escape_sign,
            "escape_time": report.escape_time,
            "max_coefficient": report.max_coefficient,
        }
        rate_ok = (report.rate is not None
                   and abs(report.rate - rate_target) <= GROWTH_RATE_TOL)
        checks.append(_check(
            f"instability-growth-{label}",
            rate_ok and report.escape_sign == sign, report.rate,
            f"rate within {GROWTH_RATE_TOL} of {rate_target:.6f}; "
            f"escape sign {sign:+d}",
            **witness_metrics[label],
        ))
    quiet = witness_report(traj, extracted, coefficients, 0.0,
                           delta=delta, alpha=alpha)
    witness_metrics["zero"] = {
        "rate": quiet.rate,
        "escape_sign": quiet.escape_sign,
        "max_coefficient": quiet.max_coefficient,
        "max_remainder_margin": quiet.max_remainder_margin,
    }
    checks.append(_check(
        "zero-offset-quiet",
        quiet.escape_sign == 0 and quiet.rate is None
        and quiet.max_coefficient <= QUIET_COEFFICIENT_BOUND
        and quiet.max_remainder_margin <= 1.0,
        quiet.max_coefficient,
        f"no escape; coefficient <= {QUIET_COEFFICIENT_BOUND:g}; "
        "remainder inside its envelope",
        **witness_metrics["zero"],
    ))
    metrics["witness"] = witness_metrics
