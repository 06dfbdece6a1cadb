"""Assumption ledger, deterministic artifacts, and CSV round-trips."""

import csv
import json

import numpy as np
import pytest

from adiaflow.cli import main
from adiaflow.errors import ConfigError
from adiaflow.grid import GridField, PeriodicGrid
from adiaflow.harness import (
    build_runtime,
    load_trajectory_csv,
    point_payload,
    run_assumption_ledger,
    trajectory_rows,
    write_field_csv,
    write_json,
    write_trajectory_csv,
)
from adiaflow.paths import time_mesh
from adiaflow.reference import (
    corrected_initial_state,
    evolve_lanes,
    extract_modulated,
    unstable_coefficient,
)

LEDGER_CHECKS = {
    "operator-symmetry",
    "operator-bound",
    "spectral-classification",
    "zero-mode-identity",
    "tangent-annihilation",
    "propagator-decay",
    "family-regularity",
    "frame-normalization",
    "operator-lipschitz",
    "nonlinearity-quadratic",
    "stationarity-defect",
}

CONSTANT_KEYS = {
    "c1", "c2", "c_f", "c_h", "delta0_ratio", "energy_at_pulse",
    "propagator_rate", "spectral_gap", "stationarity_defect",
    "unstable_eigenvalue", "xi", "zero_eigenvalue",
}


@pytest.fixture(scope="module")
def ledger(cfg):
    return run_assumption_ledger(cfg)


def test_ledger_runs_every_check_and_passes(ledger):
    assert {check.name for check in ledger.checks} == LEDGER_CHECKS
    assert all(check.passed for check in ledger.checks)
    assert ledger.passed
    for check in ledger.checks:
        assert check.claim
        assert check.bound


def test_ledger_spot_values(ledger):
    by_name = {check.name: check for check in ledger.checks}
    assert by_name["operator-symmetry"].value == 0.0
    assert by_name["operator-bound"].value == pytest.approx(
        3706.4246396488834, rel=1e-9)
    assert by_name["spectral-classification"].value == pytest.approx(
        0.749999975266288, rel=1e-9)
    assert by_name["propagator-decay"].value == pytest.approx(
        -0.9319620783474747, abs=1e-9)
    assert by_name["family-regularity"].value == pytest.approx(
        5.187817523750103, rel=1e-9)
    assert by_name["operator-lipschitz"].value == pytest.approx(
        0.4777734422078162, rel=1e-9)
    assert by_name["tangent-annihilation"].value <= 1e-5


def test_ledger_constants(ledger):
    constants = ledger.constants
    assert set(constants) == CONSTANT_KEYS
    assert constants["xi"] == pytest.approx(np.sqrt(5.0 / 6.0), abs=1e-14)
    assert constants["c_h"] == constants["xi"]
    assert constants["energy_at_pulse"] == pytest.approx(1.2, abs=1e-12)
    assert constants["unstable_eigenvalue"] == pytest.approx(-1.25, abs=1e-10)
    assert abs(constants["zero_eigenvalue"]) <= 1e-10
    assert constants["spectral_gap"] == pytest.approx(0.75, abs=1e-6)
    assert constants["c2"] == pytest.approx(2.6048199748083665, rel=1e-9)


def test_ledger_eigenvalue_table(ledger):
    table = ledger.eigenvalue_table
    assert len(table) == 8
    for row in table:
        assert set(row) == {"index", "eigenvalue", "kind"}
    assert table[0]["kind"] == "unstable"
    assert table[0]["eigenvalue"] == pytest.approx(-1.25, abs=1e-10)
    assert table[1]["kind"] == "zero"
    assert all(row["kind"] == "stable" for row in table[2:])


def test_ledger_json_is_byte_deterministic(ledger, cfg, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    write_json(str(first), ledger.to_dict())
    write_json(str(second), run_assumption_ledger(cfg).to_dict())
    assert first.read_bytes() == second.read_bytes()


def test_a_failed_classification_is_one_failed_ledger_check(ledger, tmp_path,
                                                            capsys):
    out = tmp_path / "ledger.json"
    assert main(["--set", "spectral.zero_tol=1e-16", "ledger",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "ledger FAILED"
    report = json.loads(out.read_text(encoding="utf-8"))
    assert not report["passed"]
    check, = report["checks"]
    assert check["name"] == "spectral-classification"
    assert not check["passed"] and check["value"] is None
    assert check["details"]["error"]
    passing = {c.name: c.claim for c in ledger.checks}
    assert check["claim"] == passing["spectral-classification"]
    assert report["constants"] == {}
    table = report["eigenvalue_table"]
    assert [row["index"] for row in table] == list(range(8))
    assert {row["kind"] for row in table} == {"unclassified"}
    assert table[0]["eigenvalue"] == pytest.approx(-1.25, abs=1e-9)


def test_trajectory_csv_round_trip(model, grid, spectrum, workspace, tmp_path):
    e_s = spectrum.eigenvectors[:, spectrum.stable_indices[0]]
    u0 = GridField(model.profile.values + 0.005 * e_s, grid)
    traj = evolve_lanes(model, [u0.values], dt=1e-3,
                        sample_times=np.array([0.0, 0.05, 0.1]))[0]
    extracted = extract_modulated(model, traj, sigma_guess=0.0)
    coefficients = unstable_coefficient(grid, workspace.unstable_mode, 0.0,
                                        extracted.sigma, extracted.w)
    header, rows = trajectory_rows(traj, extracted, traj.energies(model),
                                   coefficients)
    assert header[:5] == ["t", "sigma", "strong_norm_w",
                          "unstable_coefficient", "energy"]
    assert len(header) == 5 + grid.n
    assert len(rows) == 3

    path = tmp_path / "traj.csv"
    write_trajectory_csv(str(path), header, rows)
    loaded = load_trajectory_csv(str(path), grid)
    assert np.array_equal(loaded.times, traj.times)
    assert np.array_equal(loaded.u_samples, traj.u_samples)

    with pytest.raises(ConfigError, match="1024 state columns"):
        load_trajectory_csv(str(path), PeriodicGrid(512))


def test_trajectory_csv_bytes_are_the_csv_writer_bytes(tmp_path):
    header = ["t", "sigma", "u_0", "u_1"]
    rows = [[0.0, -0.0, 5e-324, 1e300],
            [float("inf"), -float("inf"), 0.1, -1.0 / 3.0],
            [1e-3, 2.5e-17, -123456.78901234567, 7.0]]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(str(path), header, rows)
    expected = tmp_path / "expected.csv"
    with open(expected, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{value:.17g}" for value in row])
    assert path.read_bytes() == expected.read_bytes()
    assert b"inf,-inf" in path.read_bytes()


def test_field_csv_round_trip(grid, eta_bump, tmp_path):
    from adiaflow.cli import _load_field_csv

    path = tmp_path / "eta.csv"
    write_field_csv(str(path), eta_bump)
    first_line = path.read_text(encoding="utf-8").splitlines()[0]
    assert first_line == "x,value"
    loaded = _load_field_csv(str(path), grid)
    assert np.array_equal(loaded.values, eta_bump.values)


def test_runtime_assembly(cfg):
    runtime = build_runtime(cfg)
    assert runtime.grid.n == 1024
    assert np.array_equal(runtime.workspace.times, time_mesh())
    assert runtime.workspace.spectrum is runtime.spectrum
    assert runtime.model.grid is runtime.grid


def test_point_payload_fields(cfg, point_bump, refined_bump):
    runtime = build_runtime(cfg)
    payload = point_payload(runtime, "stable-bump", point_bump, None)
    assert set(payload) == {
        "preset", "sigma0", "manifold", "beta", "beta_star", "refine",
        "correction_strong_norm", "eta_strong_norm", "iterations",
        "distances", "contraction_ratios", "tail_bound", "margins",
        "eta_values", "initial_values", "unstable_mode",
    }
    assert payload["manifold"] == cfg.to_dict()["manifold"]
    assert payload["preset"] == "stable-bump"
    assert payload["beta"] == point_bump.correction
    assert payload["beta_star"] is None and payload["refine"] is None
    assert np.array_equal(payload["initial_values"],
                          point_bump.initial_state.values)
    refined = point_payload(runtime, "stable-bump", point_bump, refined_bump)
    assert refined["beta_star"] == refined_bump.beta
    assert refined["refine"] == refined_bump.payload()
    assert np.array_equal(refined["initial_values"], corrected_initial_state(
        runtime.workspace, point_bump, refined_bump.beta).values)
    assert payload["eta_strong_norm"] == pytest.approx(0.04, rel=1e-12)
    assert set(payload["margins"]) == {
        "w_margin", "sigma_dot_margin", "w_worst_time", "sigma_worst_time",
    }
