"""Configuration validation, round-trips, overrides, and named presets."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adiaflow.config import DELTA_MAX, ExperimentConfig, load_config
from adiaflow.errors import ConfigError
from adiaflow.grid import PeriodicGrid
from adiaflow.harness import build_model, write_json
from adiaflow.presets import PRESET_NAMES, preset_field


def test_defaults_are_complete_and_valid(cfg):
    cfg.validate()
    assert cfg.model.n_points == 512
    assert cfg.model.domain_half_length == 20.0
    assert cfg.manifold.delta == 0.05
    assert DELTA_MAX == 0.05
    assert cfg.manifold.alpha == 1.0
    assert cfg.manifold.horizon == 30.0
    assert cfg.reference.fixed_dt == 1e-3
    assert cfg.seeds.modulation_probes == 23


@pytest.mark.parametrize("assignment", [
    "manifold.delta=0.1",       # exceeds the certified delta_max
    "manifold.alpha=0.5",       # weight exponent below 1
    "model.n_points=17",        # odd grid size
    "manifold.mesh_ratio=1.0",  # geometric mesh must grow
    "reference.witness_horizon=99.0",  # beyond the mesh horizon
    # below the first mesh step (manifold.mesh_dt_fine = 0.02)
    "reference.witness_horizon=0.01",
    "reference.refine_probe_time=0.01",
    # below the solver's smallest step, 1e-12
    "reference.fixed_dt=1e-320",
    "reference.fixed_dt=5e-13",
    "reference.witness_offset=0",  # no offset leaves no growth to witness
])
def test_validation_rejects_bad_values(assignment):
    config = ExperimentConfig()
    config.set_option(assignment)
    with pytest.raises(ConfigError):
        config.validate()


def test_the_largest_grid_is_valid_and_the_next_is_refused():
    config = ExperimentConfig()
    config.set_option("model.n_points=4096")
    config.validate()
    config.set_option("model.n_points=4098")
    with pytest.raises(ConfigError, match="exceeds 4096: the dense n x n "
                       "operator and its eigendecomposition take about "
                       r"seven n x n float64 arrays, 0.94 GB at this size"):
        config.validate()


def test_the_grid_and_the_configuration_share_one_default():
    # Runs build their grid from the model section; the demos, the README
    # and the session fixtures call PeriodicGrid().  Both get one grid.
    assert build_model(ExperimentConfig()).grid == PeriodicGrid()


def test_oversized_ball_names_the_certified_limit():
    config = ExperimentConfig()
    config.manifold.delta = 0.1
    with pytest.raises(ConfigError, match="delta_max"):
        config.validate()


@pytest.mark.parametrize("assignments, message", [
    # nan fails every comparison; the refusal names the finite rule
    ([("manifold", "delta", float("nan"))],
     "manifold.delta must be a finite number"),
    ([("seeds", "contraction", float("nan"))],
     "seeds.contraction must be a finite number"),
    ([("reference", "ceiling", float("inf"))],
     "reference.ceiling must be a finite number"),
    ([("reference", "witness_offset", float("inf"))],
     "reference.witness_offset must be a finite number"),
], ids=["delta-nan", "contraction-nan", "ceiling-inf",
        "witness_offset-inf"])
def test_values_set_in_code_are_held_to_the_rule_for_files(assignments,
                                                            message):
    config = ExperimentConfig()
    for section, key, value in assignments:
        setattr(getattr(config, section), key, value)
    before = config.to_dict()
    with pytest.raises(ConfigError, match=message):
        config.validate()
    assert config.to_dict() == before


def test_dict_round_trip(cfg):
    rebuilt = ExperimentConfig.from_dict(cfg.to_dict())
    assert rebuilt == cfg


def test_json_round_trip(cfg, tmp_path):
    # The bytes of the pipeline's config.json read back to the same config,
    # which writes the same bytes again.
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    write_json(str(first), cfg.to_dict())
    text = first.read_text(encoding="utf-8")
    assert ExperimentConfig.from_json(text) == cfg
    write_json(str(second), ExperimentConfig.from_json(text).to_dict())
    assert second.read_bytes() == first.read_bytes()


def test_partial_dicts_fill_in_defaults():
    config = ExperimentConfig.from_dict({"manifold": {"delta": 0.02}})
    assert config.manifold.delta == 0.02
    assert config.model.n_points == ExperimentConfig().model.n_points


@pytest.mark.parametrize("data", [
    {"nope": {}},
    {"model": {"zzz": 1}},
    {"model": {"n_points": True}},
    {"model": "not a table"},
    [1, 2, 3],
    {"reference": {"tol": 1e-9}},
    {"model": {"n_points": 1024.7}},
    {"seeds": {"contraction": 5.9}},
    {"manifold": {"horizon": float("inf")}},
    {"manifold": {"delta": float("nan")}},
    {"reference": {"ceiling": 10**400}},
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
    "model.n_points=1024.7",
    "seeds.contraction=5.9",
    "manifold.horizon=inf",
    "manifold.delta=nan",
    "manifold.delta_max=nan",  # a key no longer in the configuration
    "reference.ceiling=Infinity",
    "model.n_points=True",
])
def test_set_option_rejects_malformed_overrides(assignment):
    config = ExperimentConfig()
    with pytest.raises(ConfigError):
        config.set_option(assignment)


ENTRIES = [(section.name, item.name)
           for section in dataclasses.fields(ExperimentConfig)
           for item in dataclasses.fields(section.default_factory())]


@settings(max_examples=300, deadline=None)
@given(entry=st.sampled_from(ENTRIES),
       value=st.one_of(st.integers(), st.floats(),
                       st.integers(-2**60, 2**60).map(float)))
@example(entry=("model", "n_points"), value=1024.7)
@example(entry=("model", "n_points"), value=1e3)
@example(entry=("seeds", "contraction"), value=5.9)
@example(entry=("manifold", "horizon"), value=float("inf"))
@example(entry=("manifold", "delta"), value=float("nan"))
@example(entry=("reference", "ceiling"), value=10**400)
def test_a_file_entry_and_the_same_override_agree(entry, value):
    """A value in a configuration file and the same value given to
    ``--set`` make the same configuration, or the same ConfigError."""
    section, key = entry

    def outcome(build):
        try:
            return build()
        except ConfigError as err:
            return f"ConfigError: {err}"

    def overridden():
        config = ExperimentConfig()
        config.set_option(f"{section}.{key}={value!r}")
        return config

    from_file = outcome(lambda: ExperimentConfig.from_json(
        json.dumps({section: {key: value}})))
    assert from_file == outcome(overridden)
    if not isinstance(from_file, str):
        assert type(getattr(getattr(from_file, section), key)) is type(
            getattr(getattr(ExperimentConfig(), section), key))


def test_integral_values_fill_integer_entries():
    config = ExperimentConfig()
    config.set_option("model.n_points=1e3")
    assert config.model.n_points == 1000
    assert isinstance(config.model.n_points, int)
    config.set_option("seeds.contraction=12345678901234567890123")
    assert config.seeds.contraction == 12345678901234567890123


def test_load_config_defaults_and_overrides():
    config = load_config(None, ["manifold.delta=0.02"])
    assert config.manifold.delta == 0.02
    with pytest.raises(ConfigError):
        load_config(None, ["manifold.delta=0.1"])


def test_load_config_from_file(tmp_path, cfg):
    path = tmp_path / "run.json"
    write_json(str(path), cfg.to_dict())
    assert load_config(str(path)) == cfg
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


def test_a_configuration_file_that_is_not_utf8_is_refused(tmp_path):
    path = tmp_path / "run.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match="cannot read configuration file"):
        load_config(str(path))


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
