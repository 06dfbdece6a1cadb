"""Typed run configuration with validation and lossless JSON round-trips.

One configuration object feeds every entry point: the model/grid sizes, the
spectral classification thresholds, the ball and mesh used by the fixed-point
construction, the full-solver controls, and the seeds for the randomized
diagnostics.  All defaults are embedded, so a run with no configuration file
is fully specified; a file (or ``section.key=value`` overrides) replaces
individual entries, each made and checked by the one function ``_entry``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError
from .grid import DEFAULT_HALF_LENGTH, DEFAULT_N_POINTS, PeriodicGrid
from .manifold import DEFAULT_FIXED_POINT_TOL, DEFAULT_MAX_ITERATIONS
from .model import PulseModel
from .reference import DT_FLOOR
from .spectral import DEFAULT_GAP_THRESHOLD, DEFAULT_ZERO_TOL

#: The largest grid a run may ask for.  The runtime holds the dense n x n
#: operator, its eigenvectors and their weak-normalized copies, and eigh
#: needs work space beside them: about seven n x n float64 arrays at the
#: peak, 0.94 GB at this size, and eigh's time grows as n^3.
_MAX_N_POINTS = 4096

#: The largest ball radius delta the contraction certificate covers.
DELTA_MAX = 0.05


@dataclass
class ModelSection:
    """Domain geometry and chart radius."""

    domain_half_length: float = DEFAULT_HALF_LENGTH
    n_points: int = DEFAULT_N_POINTS
    chart_radius: float = 5.0


@dataclass
class SpectralSection:
    """Eigenvalue classification thresholds."""

    gap_threshold: float = DEFAULT_GAP_THRESHOLD
    zero_tol: float = DEFAULT_ZERO_TOL


@dataclass
class ManifoldSection:
    """Ball radius (at most ``DELTA_MAX``), decay weight, Picard controls,
    and time mesh."""

    delta: float = 0.05
    alpha: float = 1.0
    fixed_point_tol: float = DEFAULT_FIXED_POINT_TOL
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    horizon: float = 30.0
    mesh_dt_fine: float = 0.02
    mesh_t_uniform: float = 4.0
    mesh_ratio: float = 1.06
    speed_prefactor: float = 1.0


@dataclass
class ReferenceSection:
    """Full-solver controls, the shooting probe time, and the witness's
    offset and horizon; the comparison solve is the zero-offset witness
    solve, so ``witness_horizon`` is its horizon too."""

    ceiling: float = 10.0
    fixed_dt: float = 1e-3
    refine_probe_time: float = 16.0
    witness_offset: float = 1e-3
    witness_horizon: float = 20.0


@dataclass
class SeedSection:
    """Seeds for the randomized probes of the ledger and the pipeline.  No
    code reads ``lipschitz`` (``measure_correction_lipschitz`` takes its own
    seed, 17); it stays so that configurations which set it still load."""

    propagator: int = 11
    operator_probes: int = 7
    contraction: int = 5
    lipschitz: int = 17
    modulation_probes: int = 23


_SECTION_TYPES = {
    "model": ModelSection,
    "spectral": SpectralSection,
    "manifold": ManifoldSection,
    "reference": ReferenceSection,
    "seeds": SeedSection,
}


@dataclass
class ExperimentConfig:
    """All run parameters, grouped by the module they control."""

    model: ModelSection = field(default_factory=ModelSection)
    spectral: SpectralSection = field(default_factory=SpectralSection)
    manifold: ManifoldSection = field(default_factory=ManifoldSection)
    reference: ReferenceSection = field(default_factory=ReferenceSection)
    seeds: SeedSection = field(default_factory=SeedSection)

    def validate(self) -> None:
        """Raise ConfigError on the first violated invariant.  Every entry
        is first held to the rule for entries from outside (``_entry``), so
        values set in code are refused as file entries are."""
        for section in _SECTION_TYPES:
            for key, value in vars(getattr(self, section)).items():
                _entry(section, key, value)
        m, s, mf, r = self.model, self.spectral, self.manifold, self.reference
        checks = [
            (m.domain_half_length > 0, "model.domain_half_length must be positive"),
            (m.n_points >= 16 and m.n_points % 2 == 0,
             "model.n_points must be an even integer >= 16"),
            (m.n_points <= _MAX_N_POINTS,
             f"model.n_points = {m.n_points} exceeds {_MAX_N_POINTS}: the "
             "dense n x n operator and its eigendecomposition take about "
             f"seven n x n float64 arrays, {56e-9 * m.n_points**2:.3g} GB "
             "at this size"),
            (m.chart_radius > 0, "model.chart_radius must be positive"),
            (s.gap_threshold > 0, "spectral.gap_threshold must be positive"),
            (s.zero_tol > 0, "spectral.zero_tol must be positive"),
            (mf.delta > 0, "manifold.delta must be positive"),
            (mf.delta <= DELTA_MAX,
             f"manifold.delta = {mf.delta:g} exceeds delta_max = "
             f"{DELTA_MAX:g}: the contraction certificate only covers balls "
             "up to delta_max, so larger requests are refused rather than "
             "run uncertified"),
            (mf.alpha >= 1.0, "manifold.alpha must be at least 1"),
            (mf.fixed_point_tol > 0, "manifold.fixed_point_tol must be positive"),
            (mf.max_iterations >= 1, "manifold.max_iterations must be at least 1"),
            (mf.mesh_dt_fine > 0, "manifold.mesh_dt_fine must be positive"),
            (0 < mf.mesh_t_uniform < mf.horizon,
             "manifold.mesh_t_uniform must lie strictly between 0 and the horizon"),
            (mf.mesh_ratio > 1.0, "manifold.mesh_ratio must exceed 1"),
            (mf.speed_prefactor > 0, "manifold.speed_prefactor must be positive"),
            (r.ceiling > 0, "reference.ceiling must be positive"),
            (r.fixed_dt >= DT_FLOOR, "reference.fixed_dt must be at least "
             f"{DT_FLOOR:g}, the solver's smallest step"),
            (r.witness_offset > 0, "reference.witness_offset must be positive"),
        ] + [  # a solve horizon below the first mesh step has no sample but 0
            (mf.mesh_dt_fine <= getattr(r, name) <= mf.horizon,
             f"reference.{name} = {getattr(r, name):g} must lie between the "
             f"first mesh step (manifold.mesh_dt_fine = {mf.mesh_dt_fine:g}) "
             f"and the mesh horizon ({mf.horizon:g})")
            for name in ("refine_probe_time", "witness_horizon")
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        try:  # the model refuses a grid too coarse to sample the pulse
            PulseModel(PeriodicGrid(m.n_points, m.domain_half_length))
        except ValueError as err:
            raise ConfigError(
                f"model.domain_half_length = {m.domain_half_length:g} is too "
                f"wide for model.n_points = {m.n_points}: {err}") from None
        for name in ("propagator", "operator_probes", "contraction",
                     "lipschitz", "modulation_probes"):
            if getattr(self.seeds, name) < 0:
                raise ConfigError(f"seeds.{name} must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build from nested dicts, rejecting unknown sections or keys."""
        if not isinstance(data, dict):
            raise ConfigError("configuration root must be a JSON object")
        unknown = set(data) - set(_SECTION_TYPES)
        if unknown:
            raise ConfigError(f"unknown configuration sections: {sorted(unknown)}")
        sections = {}
        for name, section_type in _SECTION_TYPES.items():
            entries = data.get(name, {})
            if not isinstance(entries, dict):
                raise ConfigError(f"section '{name}' must be a JSON object")
            sections[name] = section_type(**{
                key: _entry(name, key, value) for key, value in entries.items()
            })
        return cls(**sections)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid configuration JSON: {err}") from err
        return cls.from_dict(data)

    def set_option(self, assignment: str) -> None:
        """Apply one ``section.key=value`` override in place; the value is
        read as an integer or else a float, and checked as a file entry is."""
        head, sep, text = assignment.partition("=")
        section, dot, key = head.strip().partition(".")
        if not (sep and dot):
            raise ConfigError(
                f"override {assignment!r} is not of the form section.key=value"
            )
        try:
            value = int(text) if text.strip().lstrip("+-").isdigit() \
                else float(text)
        except ValueError:
            raise ConfigError(f"cannot parse {text!r} as a value for "
                              f"{head.strip()}") from None
        value = _entry(section, key, value)
        setattr(getattr(self, section), key, value)


def _entry(section: str, key: str, value) -> int | float:
    """The entry ``section.key`` made from a value given outside the program,
    in a configuration file or by ``set_option``.  Refused unless the entry
    exists and the value is a finite number, not a bool, and integral for an
    integer entry (``1024``, ``1024.0`` and ``1e3`` are all integral)."""
    section_type = _SECTION_TYPES.get(section)
    if section_type is None:
        raise ConfigError(f"unknown configuration section {section!r}")
    defaults = {item.name: item.default for item in fields(section_type)}
    if key not in defaults:
        raise ConfigError(f"section {section!r} has no key {key!r}")
    name = f"{section}.{key}"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    kind = type(defaults[key])
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if kind is int and not value.is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ConfigError(f"{name} must be a finite number, got "
                          f"{value!r}") from None


def load_config(path: str | None = None,
                overrides: list[str] | None = None) -> ExperimentConfig:
    """Defaults, optionally replaced by a JSON file and then by overrides."""
    if path is None:
        cfg = ExperimentConfig()
    else:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read configuration file: {err}") from err
        cfg = ExperimentConfig.from_json(text)
    for assignment in overrides or []:
        cfg.set_option(assignment)
    cfg.validate()
    return cfg
