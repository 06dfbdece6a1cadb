"""Typed run configuration with validation and lossless JSON round-trips.

One configuration object feeds every entry point: the model/grid sizes, the
spectral classification thresholds, the ball and mesh used by the fixed-point
construction, the full-solver controls, and the seeds for every randomized
diagnostic.  All defaults are embedded, so a run with no configuration file
is fully specified; a file (or ``section.key=value`` overrides) replaces
individual entries.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError


@dataclass
class ModelSection:
    """Domain geometry and chart/ball radii."""

    domain_half_length: float = 20.0
    n_points: int = 1024
    chart_radius: float = 5.0
    ball_radius: float = 0.5


@dataclass
class SpectralSection:
    """Eigenvalue classification thresholds."""

    gap_threshold: float = 0.1
    zero_tol: float = 5e-3


@dataclass
class ManifoldSection:
    """Ball radius, decay weight, Picard controls, and time mesh."""

    delta: float = 0.05
    delta_max: float = 0.05
    alpha: float = 1.0
    fixed_point_tol: float = 1e-10
    max_iterations: int = 30
    horizon: float = 30.0
    mesh_dt_fine: float = 0.02
    mesh_t_uniform: float = 4.0
    mesh_ratio: float = 1.06
    speed_prefactor: float = 1.0


@dataclass
class ReferenceSection:
    """Full-solver controls and comparison horizons."""

    ceiling: float = 10.0
    fixed_dt: float = 1e-3
    compare_horizon: float = 20.0
    refine_probe_time: float = 16.0
    witness_offset: float = 1e-3
    witness_horizon: float = 20.0


@dataclass
class SeedSection:
    """Seeds for every randomized probe, one per diagnostic."""

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
        """Raise ConfigError on the first violated invariant."""
        m, s, mf, r = self.model, self.spectral, self.manifold, self.reference
        checks = [
            (m.domain_half_length > 0, "model.domain_half_length must be positive"),
            (m.n_points >= 16 and m.n_points % 2 == 0,
             "model.n_points must be an even integer >= 16"),
            (m.chart_radius > 0, "model.chart_radius must be positive"),
            (m.ball_radius > 0, "model.ball_radius must be positive"),
            (s.gap_threshold > 0, "spectral.gap_threshold must be positive"),
            (s.zero_tol > 0, "spectral.zero_tol must be positive"),
            (mf.delta > 0, "manifold.delta must be positive"),
            (mf.alpha >= 1.0, "manifold.alpha must be at least 1"),
            (mf.fixed_point_tol > 0, "manifold.fixed_point_tol must be positive"),
            (mf.max_iterations >= 1, "manifold.max_iterations must be at least 1"),
            (mf.mesh_dt_fine > 0, "manifold.mesh_dt_fine must be positive"),
            (0 < mf.mesh_t_uniform < mf.horizon,
             "manifold.mesh_t_uniform must lie strictly between 0 and the horizon"),
            (mf.mesh_ratio > 1.0, "manifold.mesh_ratio must exceed 1"),
            (mf.speed_prefactor > 0, "manifold.speed_prefactor must be positive"),
            (r.ceiling > 0, "reference.ceiling must be positive"),
            (r.fixed_dt > 0, "reference.fixed_dt must be positive"),
            (0 < r.compare_horizon <= mf.horizon,
             "reference.compare_horizon must lie inside the mesh horizon"),
            (0 < r.refine_probe_time <= mf.horizon,
             "reference.refine_probe_time must lie inside the mesh horizon"),
            (r.witness_offset >= 0, "reference.witness_offset must be nonnegative"),
            (0 < r.witness_horizon <= mf.horizon,
             "reference.witness_horizon must lie inside the mesh horizon"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        if mf.delta > mf.delta_max:
            raise ConfigError(
                f"manifold.delta = {mf.delta:g} exceeds delta_max = "
                f"{mf.delta_max:g}: the contraction certificate only covers "
                "balls up to delta_max, so larger requests are refused "
                "rather than run uncertified"
            )
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
            known = {f.name: f.type for f in fields(section_type)}
            bad = set(entries) - set(known)
            if bad:
                raise ConfigError(
                    f"unknown keys in section '{name}': {sorted(bad)}"
                )
            coerced = {}
            for key, value in entries.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ConfigError(
                        f"{name}.{key} must be a number, got {value!r}"
                    )
                default = getattr(section_type(), key)
                coerced[key] = int(value) if isinstance(default, int) else float(value)
            sections[name] = section_type(**coerced)
        return cls(**sections)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid configuration JSON: {err}") from err
        return cls.from_dict(data)

    def set_option(self, assignment: str) -> None:
        """Apply one ``section.key=value`` override in place."""
        head, sep, raw = assignment.partition("=")
        if not sep:
            raise ConfigError(
                f"override {assignment!r} is not of the form section.key=value"
            )
        section_name, dot, key = head.strip().partition(".")
        if not dot or section_name not in _SECTION_TYPES:
            raise ConfigError(
                f"override target {head.strip()!r} is not a known section.key"
            )
        section = getattr(self, section_name)
        if not hasattr(section, key):
            raise ConfigError(
                f"section '{section_name}' has no key '{key}'"
            )
        default = getattr(_SECTION_TYPES[section_name](), key)
        try:
            value = int(raw) if isinstance(default, int) else float(raw)
        except ValueError as err:
            raise ConfigError(
                f"cannot parse {raw!r} as a value for {head.strip()}"
            ) from err
        setattr(section, key, value)


def load_config(path: str | None = None,
                overrides: list[str] | None = None) -> ExperimentConfig:
    """Defaults, optionally replaced by a JSON file and then by overrides."""
    if path is None:
        cfg = ExperimentConfig()
    else:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as err:
            raise ConfigError(f"cannot read configuration file: {err}") from err
        cfg = ExperimentConfig.from_json(text)
    for assignment in overrides or []:
        cfg.set_option(assignment)
    cfg.validate()
    return cfg
