"""Invariant-manifold construction and verification for a gradient-flow
pulse model.

The library builds the center-stable structure around an unstable pulse
equilibrium of the reaction-diffusion gradient flow u_t = u_xx - u + u^2:
spectral decomposition of the linearization, modulation (chart) dynamics,
a contraction-mapping construction of decaying trajectories with their
initial unstable-mode correction, and a full nonlinear solver that
cross-checks every reduced object.
"""

from .config import ExperimentConfig, load_config
from .errors import (
    AdiaflowError,
    AdmissibilityError,
    BallViolationError,
    ClassificationError,
    ConfigError,
    ConvergenceError,
)
from .grid import GridField, PeriodicGrid, zero_field
from .harness import (
    CheckResult,
    LedgerReport,
    PipelineReport,
    Runtime,
    build_runtime,
    run_assumption_ledger,
    run_full_pipeline,
)
from .manifold import (
    ManifoldPoint,
    SolutionMapWorkspace,
    apply_solution_map,
    beta_initial,
    construct_manifold_point,
    correction_scan,
    default_speed_constant,
    measure_contraction,
    measure_correction_lipschitz,
    random_admissible_path,
)
from .model import PulseModel, SymmetryPoint
from .modulation import (
    ModulationCoefficients,
    decompose_state,
    solve_modulation,
)
from .paths import TrajectoryPath, path_distance, path_norm, time_mesh, time_weight
from .presets import PRESET_NAMES, preset_field
from .reference import (
    FullTrajectory,
    RefineResult,
    WitnessReport,
    compare_effective,
    corrected_initial_state,
    evolve_full,
    extract_modulated,
    instability_witness,
    refine_correction,
)
from .spectral import (
    SpectralData,
    decompose,
    measure_propagator_constant,
    project_stable,
    propagate_stable_batch,
)

__version__ = "0.1.0"

__all__ = [
    "AdiaflowError",
    "AdmissibilityError",
    "BallViolationError",
    "CheckResult",
    "ClassificationError",
    "ConfigError",
    "ConvergenceError",
    "ExperimentConfig",
    "FullTrajectory",
    "GridField",
    "LedgerReport",
    "ManifoldPoint",
    "ModulationCoefficients",
    "PeriodicGrid",
    "PipelineReport",
    "PRESET_NAMES",
    "PulseModel",
    "RefineResult",
    "Runtime",
    "SolutionMapWorkspace",
    "SpectralData",
    "SymmetryPoint",
    "TrajectoryPath",
    "WitnessReport",
    "apply_solution_map",
    "beta_initial",
    "build_runtime",
    "compare_effective",
    "construct_manifold_point",
    "corrected_initial_state",
    "correction_scan",
    "decompose",
    "decompose_state",
    "default_speed_constant",
    "evolve_full",
    "extract_modulated",
    "instability_witness",
    "load_config",
    "measure_contraction",
    "measure_correction_lipschitz",
    "measure_propagator_constant",
    "path_distance",
    "path_norm",
    "preset_field",
    "project_stable",
    "propagate_stable_batch",
    "random_admissible_path",
    "refine_correction",
    "run_assumption_ledger",
    "run_full_pipeline",
    "solve_modulation",
    "time_mesh",
    "time_weight",
    "zero_field",
]
