"""Configuration validation, round-trips, overrides, and named presets."""

import numpy as np
import pytest

from adiaflow.config import ExperimentConfig, load_config
from adiaflow.errors import ConfigError
from adiaflow.presets import PRESET_NAMES, preset_field


def test_defaults_are_complete_and_valid(cfg):
    cfg.validate()
    assert cfg.model.n_points == 1024
    assert cfg.model.domain_half_length == 20.0
    assert cfg.manifold.delta == 0.05
    assert cfg.manifold.delta_max == 0.05
    assert cfg.manifold.alpha == 1.0
    assert cfg.manifold.horizon == 30.0
    assert cfg.reference.fixed_dt == 1e-3
    assert cfg.seeds.modulation_probes == 23


@pytest.mark.parametrize("assignment", [
    "manifold.delta=0.1",       # exceeds the certified delta_max
    "manifold.alpha=0.5",       # weight exponent below 1
    "model.n_points=17",        # odd grid size
    "manifold.mesh_ratio=1.0",  # geometric mesh must grow
    "reference.compare_horizon=99.0",  # beyond the mesh horizon
])
def test_validation_rejects_bad_values(assignment):
    config = ExperimentConfig()
    config.set_option(assignment)
    with pytest.raises(ConfigError):
        config.validate()


def test_oversized_ball_names_the_certified_limit():
    config = ExperimentConfig()
    config.manifold.delta = 0.1
    with pytest.raises(ConfigError, match="delta_max"):
        config.validate()


def test_dict_round_trip(cfg):
    rebuilt = ExperimentConfig.from_dict(cfg.to_dict())
    assert rebuilt == cfg


def test_json_round_trip(cfg):
    text = cfg.to_json()
    assert ExperimentConfig.from_json(text) == cfg
    assert ExperimentConfig.from_json(text).to_json() == text


def test_partial_dicts_fill_in_defaults():
    config = ExperimentConfig.from_dict({"manifold": {"delta": 0.02}})
    assert config.manifold.delta == 0.02
    assert config.model.n_points == 1024


@pytest.mark.parametrize("data", [
    {"nope": {}},
    {"model": {"zzz": 1}},
    {"model": {"n_points": True}},
    {"model": "not a table"},
    [1, 2, 3],
    {"reference": {"tol": 1e-9}},
])
def test_malformed_dicts_are_rejected(data):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(data)


def test_numeric_coercion_follows_the_field_type():
    config = ExperimentConfig.from_dict({
        "model": {"n_points": 2048.0},
        "manifold": {"delta": 1},
    })
    assert config.model.n_points == 2048
    assert isinstance(config.model.n_points, int)
    assert config.manifold.delta == 1.0
    assert isinstance(config.manifold.delta, float)


def test_set_option_applies_in_place():
    config = ExperimentConfig()
    config.set_option("manifold.delta=0.02")
    assert config.manifold.delta == 0.02
    config.set_option("seeds.contraction=9")
    assert config.seeds.contraction == 9


@pytest.mark.parametrize("assignment", [
    "nope",
    "blah.z=1",
    "model.zzz=3",
    "model.n_points=abc",
    "delta=0.1",
    "reference.tol=1e-9",
])
def test_set_option_rejects_malformed_overrides(assignment):
    config = ExperimentConfig()
    with pytest.raises(ConfigError):
        config.set_option(assignment)


def test_load_config_defaults_and_overrides():
    config = load_config(None, ["manifold.delta=0.02"])
    assert config.manifold.delta == 0.02
    with pytest.raises(ConfigError):
        load_config(None, ["manifold.delta=0.1"])


def test_load_config_from_file(tmp_path, cfg):
    path = tmp_path / "run.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    assert load_config(str(path)) == cfg
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


def test_bump_preset_is_normalized_and_stable(spectrum, grid, eta_bump):
    assert eta_bump.strong_norm() == pytest.approx(0.04, rel=1e-12)
    assert abs(grid.inner_values(eta_bump.values,
                                 spectrum.unstable_mode)) <= 1e-12
    assert abs(eta_bump.inner(spectrum.zero_mode_analytic)) <= 1e-12


def test_bump_preset_amplitude_rescales_the_same_direction(spectrum, eta_bump):
    small = preset_field("stable-bump", spectrum, amplitude=0.01)
    assert small.strong_norm() == pytest.approx(0.01, rel=1e-12)
    assert np.max(np.abs(4.0 * small.values - eta_bump.values)) <= 1e-14


def test_zero_preset_and_unknown_names(spectrum):
    assert not np.any(preset_field("zero", spectrum).values)
    assert set(PRESET_NAMES) == {"stable-bump", "zero"}
    with pytest.raises(ConfigError):
        preset_field("gaussian-train", spectrum)
