"""Command-line entry points, exercised in-process through main(argv)."""

import csv
import dataclasses
import json
import os

import pytest

from adiaflow.cli import main
from adiaflow.errors import ConvergenceError
from adiaflow.grid import GridField
from adiaflow.harness import construct_point, write_field_csv
from adiaflow.manifold import construct_manifold_point


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_malformed_override_is_a_configuration_error(capsys):
    assert main(["--set", "nope", "spectrum"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_oversized_delta_aborts_before_any_work(capsys):
    rc = main(["--set", "manifold.delta=0.1",
               "construct", "--eta", "stable-bump"])
    assert rc == 2
    assert "delta_max" in capsys.readouterr().err


def test_bad_field_header_is_a_configuration_error(tmp_path, capsys):
    bad = tmp_path / "state.csv"
    bad.write_text("time,value\n0.0,1.0\n", encoding="utf-8")
    assert main(["modulate", "--state", str(bad)]) == 2
    assert "x,value" in capsys.readouterr().err


def test_missing_field_file_is_a_configuration_error(tmp_path):
    assert main(["construct", "--eta", str(tmp_path / "no-such.csv")]) == 2


@pytest.mark.parametrize("argv, code", [
    (["spectrum", "--sigma", "4.8"], 0),
    (["spectrum", "--sigma", "7"], 2),
    (["spectrum", "--sigma", "-5.5"], 2),
    (["spectrum", "--sigma", "nan"], 2),
    (["modulate", "--sigma-guess", "6"], 2),
], ids=["sigma=4.8", "sigma=7", "sigma=-5.5", "sigma=nan", "sigma-guess=6"])
def test_chart_arguments_must_lie_inside_the_chart(argv, code, tmp_path,
                                                   capsys, model):
    if argv[0] == "modulate":
        state = tmp_path / "state.csv"
        write_field_csv(str(state), model.profile)
        argv = argv + ["--state", str(state)]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads(captured.out)["sigma"] == float(argv[2])
    else:
        assert "chart coordinate" in captured.err
        assert captured.out == ""


def test_spectrum_writes_the_table_and_reports_constants(tmp_path, capsys,
                                                          grid):
    out = tmp_path / "eig.csv"
    assert main(["spectrum", "--sigma", "0.0", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "sigma", "c1", "c2", "propagator_rate", "spectral_gap",
        "unstable_eigenvalue", "zero_eigenvalue", "delta0_ratio",
        "n_unstable", "n_zero",
    }
    assert payload["n_unstable"] == 1
    assert payload["n_zero"] == 1
    assert payload["unstable_eigenvalue"] == pytest.approx(-1.25, abs=1e-9)
    assert payload["spectral_gap"] == pytest.approx(0.75, abs=1e-6)
    assert payload["propagator_rate"] <= -0.7

    with open(out, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["index", "eigenvalue", "kind"]
    assert len(rows) == 1 + grid.n
    assert rows[1][2] == "unstable"
    assert float(rows[1][1]) == pytest.approx(-1.25, abs=1e-9)
    kinds = {row[2] for row in rows[1:]}
    assert kinds == {"unstable", "zero", "stable"}


def test_modulate_reports_the_chart_decomposition(tmp_path, capsys, model,
                                                  grid, spectrum):
    e_s = spectrum.eigenvectors[:, spectrum.stable_indices[0]]
    state = GridField(model.profile.values + 0.01 * e_s, grid)
    path = tmp_path / "state.csv"
    write_field_csv(str(path), state)
    assert main(["modulate", "--state", str(path), "--sigma-guess", "0.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["sigma"]) <= 1e-9
    assert payload["w_weak_norm"] == pytest.approx(0.01, rel=1e-9)
    assert payload["orthogonality_residual"] <= 1e-10
    assert set(payload) == {"sigma", "a", "abs_a", "orthogonality_residual",
                            "w_weak_norm", "w_strong_norm"}
    assert isinstance(payload["a"], float)
    assert payload["abs_a"] == abs(payload["a"])


def test_compare_checks_a_simulated_trajectory(tmp_path, capsys):
    point = tmp_path / "point.json"
    traj = tmp_path / "traj.csv"
    report = tmp_path / "report.json"
    assert main(["construct", "--eta", "stable-bump", "--out", str(point)]) == 0
    assert main(["simulate", "--init", str(point), "--T", "5",
                 "--out", str(traj)]) == 0
    capsys.readouterr()
    assert main(["compare", "--point", str(point), "--traj", str(traj),
                 "--out", str(report)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] and payload["exit_code"] == 0
    assert json.loads(report.read_text(encoding="utf-8")) == payload
    bounds = {check["name"]: check["bound"] for check in payload["checks"]}
    assert bounds == {
        "reduced-agreement": "sup differences <= 0.005",
        "remainder-envelope": "<= 1",
        "envelope-rate": "<= -0.7",
    }
    assert set(payload["checks"][0]["details"]) == {
        "sup_sigma_effective", "sup_sigma_fixed_point", "sup_w_strong",
    }


@pytest.mark.parametrize("init", ["preset", "point"])
def test_the_simulate_summary_is_the_last_row_of_its_file(init, tmp_path,
                                                          capsys):
    """The printed final values are the written file's last row bitwise,
    and ``n_rows`` its row count; the unrefined bump escapes before T."""
    source = "stable-bump"
    if init == "point":
        source = str(tmp_path / "point.json")
        assert main(["construct", "--eta", "stable-bump",
                     "--out", source]) == 0
    out = tmp_path / "traj.csv"
    capsys.readouterr()
    assert main(["simulate", "--init", source, "--no-refine",
                 "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    with open(out, encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert payload["escaped"] and payload["n_rows"] == len(rows) > 1
    for key in ("sigma", "strong_norm_w", "energy"):
        written = float(rows[-1][header.index(key)])
        assert payload[f"final_{key}"].hex() == written.hex()


def test_speed_prefactor_refuses_the_construction_as_the_pipeline_does(
        tmp_path, capsys):
    setting = ["--set", "manifold.speed_prefactor=5e-4"]
    point = tmp_path / "point.json"
    assert main(setting + ["construct", "--eta", "stable-bump",
                           "--out", str(point)]) == 1
    cli_error = capsys.readouterr().err
    assert "chart-speed bound violated at t = 0.0000" in cli_error
    assert not point.exists()

    run_dir = tmp_path / "run"
    assert main(setting + ["pipeline", "--out", str(run_dir)]) == 1
    assert "FAIL construction: n/a" in capsys.readouterr().out
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert [check["name"] for check in report["checks"]] == ["construction"]
    assert report["checks"][0]["details"]["error"] in cli_error


def test_speed_prefactor_sets_the_construct_command_speed_constant(
        tmp_path, capsys, workspace, eta_bump, model, point_bump):
    out = tmp_path / "point.json"
    assert main(["--set", "manifold.speed_prefactor=0.3", "construct",
                 "--eta", "stable-bump", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text(encoding="utf-8"))
    speed = 0.3 * (model.c_h + 1.0)
    reference = construct_manifold_point(
        workspace, eta_bump, delta=0.05, alpha=1.0, speed_constant=speed,
        fixed_point_tol=1e-10, max_iter=30,
    )
    assert payload["distances"] == pytest.approx(reference.distances,
                                                 rel=1e-6)
    # The speed constant weighs the chart term of the path distance.
    assert payload["distances"][-1] != pytest.approx(
        point_bump.distances[-1], rel=1e-3)
    margins = reference.path.admissibility_margins(0.05, 1.0, speed)
    assert payload["margins"]["sigma_dot_margin"] == pytest.approx(
        margins["sigma_dot_margin"], rel=1e-9)


def test_compare_rebuilds_the_point_with_its_own_manifold_section(
        tmp_path, capsys, monkeypatch):
    from adiaflow import cli

    point = tmp_path / "point.json"
    traj = tmp_path / "traj.csv"
    assert main(["--set", "manifold.speed_prefactor=0.3", "construct",
                 "--eta", "stable-bump", "--out", str(point)]) == 0
    payload = json.loads(point.read_text(encoding="utf-8"))
    assert payload["manifold"]["speed_prefactor"] == 0.3
    assert main(["simulate", "--init", str(point), "--T", "5",
                 "--out", str(traj)]) == 0
    rebuilt = []

    def recording(*args, **kwargs):
        rebuilt.append(construct_point(*args, **kwargs))
        return rebuilt[-1]

    monkeypatch.setattr(cli, "construct_point", recording)
    capsys.readouterr()
    assert main(["compare", "--point", str(point), "--traj", str(traj),
                 "--out", str(tmp_path / "report.json")]) == 0
    # Rebuilt at the point file's prefactor 0.3, not the default 1.
    assert rebuilt[0].distances == payload["distances"]
    assert rebuilt[0].distances[-1] == pytest.approx(1.317e-11, rel=1e-3)


def test_a_typed_error_in_a_stage_is_a_failed_check_of_that_stage(
        tmp_path, capsys, monkeypatch, no_child_process):
    from adiaflow import harness

    def failing(*args, **kwargs):
        raise ConvergenceError("no surviving coefficient")

    monkeypatch.setattr(harness, "refine_correction", failing)
    run_dir = tmp_path / "run"
    assert main(["pipeline", "--out", str(run_dir)]) == 1
    # The contraction worker was collected, its check first.
    no_child_process()
    printed = capsys.readouterr().out
    assert ("FAIL shooting: n/a (completes without error): no surviving "
            "coefficient") in printed
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert not report["passed"] and report["exit_code"] == 1
    assert [check["name"] for check in report["checks"]] == [
        "fixed-point-convergence", "contraction-factor", "shooting",
    ]
    shooting = report["checks"][-1]
    assert not shooting["passed"]
    assert shooting["details"]["error"] == "no surviving coefficient"
    assert report["artifacts"] == ["config.json", "ledger.json"]


#: The checks a serial run reports before a worker's failed stage.
_CHECKS_BEFORE = {
    "contraction": ["fixed-point-convergence"],
    "witness": ["fixed-point-convergence", "contraction-factor",
                "full-solve-complete", "energy-dissipation",
                "reduced-agreement", "remainder-envelope", "envelope-rate"],
}


@pytest.mark.parametrize("stage, name", [
    ("contraction", "measure_contraction"),
    ("witness", "instability_witnesses"),
])
def test_a_typed_error_in_a_worker_is_the_failed_check_of_its_stage(
        stage, name, tmp_path, capsys, monkeypatch, no_child_process):
    """The error is raised in the forked worker, patched in before the
    fork, and reported as the serial run (no ``os.fork``) reports it: the
    same report.json, and no artifact the serial run would not write."""
    from adiaflow import harness

    def failing(*args, **kwargs):
        raise ConvergenceError(f"no {stage} result")

    monkeypatch.setattr(harness, name, failing)
    written = {}
    for path in ("overlapped", "serial"):
        if path == "serial":
            monkeypatch.delattr(os, "fork")
        run_dir = tmp_path / path
        assert main(["pipeline", "--out", str(run_dir)]) == 1
        no_child_process()
        written[path] = {file.name: file.read_bytes()
                         for file in run_dir.iterdir()}
        trace = json.loads(written[path].pop("trace.json"))
        assert trace["workers"][-1]["stage"] == stage
        assert trace["workers"][-1]["overlapped"] == (
            path == "overlapped" and trace["blas"]["threads"] == 1)
    assert written["overlapped"] == written["serial"]
    report = json.loads(written["serial"]["report.json"])
    assert [check["name"] for check in report["checks"]] == \
        _CHECKS_BEFORE[stage] + [stage]
    assert report["checks"][-1]["details"]["error"] == f"no {stage} result"
    assert f"FAIL {stage}: n/a (completes without error)" in \
        capsys.readouterr().out
    assert report["artifacts"] == ["config.json", "ledger.json"] + (
        ["point.json", "traj.csv"] if stage == "witness" else [])
    assert sorted(written["serial"]) == sorted(report["artifacts"]
                                               + ["report.json"])


def test_a_horizon_below_the_first_mesh_step_is_refused_in_one_line(capsys):
    assert main(["--set", "reference.witness_horizon=0.01", "pipeline"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "configuration error: reference.witness_horizon = 0.01 must lie "
        "between the first mesh step (manifold.mesh_dt_fine = 0.02) and the "
        "mesh horizon (30)\n")


def test_a_solve_that_stops_short_fails_full_solve_complete(
        tmp_path, capsys, monkeypatch):
    from adiaflow import harness

    solve = harness.solve_fixed_step

    def short(cfg, model, start, samples):
        traj = solve(cfg, model, start, samples)
        kept = traj.times < samples[-1]
        return dataclasses.replace(traj, times=traj.times[kept],
                                   u_samples=traj.u_samples[kept])

    monkeypatch.setattr(harness, "solve_fixed_step", short)
    run_dir = tmp_path / "run"
    assert main(["--set", "reference.witness_horizon=2",
                 "pipeline", "--out", str(run_dir)]) == 1
    assert ("FAIL full-solve-complete: 1.98 (reaches t = 2)"
            in capsys.readouterr().out)


def test_a_comparison_solve_that_escapes_ends_the_pipeline_after_it(
        tmp_path, capsys, no_child_process):
    """A probe at t = 3 leaves beta* too rough to hold the unstable mode, so
    the comparison solve, which continues beta*'s probe solve, escapes
    after the last sample at 15.30: the pipeline stops there, with no
    trajectory to extract, compare or read a witness from."""
    run_dir = tmp_path / "run"
    assert main(["--set", "reference.refine_probe_time=3", "pipeline",
                 "--out", str(run_dir)]) == 1
    # The witness worker, started when shooting returned, was discarded.
    no_child_process()
    printed = capsys.readouterr().out
    assert "FAIL full-solve-complete: 15.3023 (reaches t = 19.2446)" in printed
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert not report["passed"] and report["exit_code"] == 1
    assert [check["name"] for check in report["checks"]] == [
        "fixed-point-convergence", "contraction-factor", "full-solve-complete",
    ]
    full = report["checks"][-1]
    assert not full["passed"]
    assert full["value"] == pytest.approx(15.3023, abs=1e-4)
    stats = full["details"]["stats"]
    assert stats["escape_sign"] == 1
    assert stats["escape_time"] == pytest.approx(15.949, abs=1e-3)
    assert report["artifacts"] == ["config.json", "ledger.json", "point.json"]
    assert not (run_dir / "traj.csv").exists()


def test_simulate_from_a_preset_continues_the_shooting_probe_solve(
        tmp_path, capsys, monkeypatch):
    """``simulate --init stable-bump`` shoots, then continues beta*'s probe
    solve as the pipeline's comparison solve does, so to the witness
    horizon it writes the pipeline's trajectory file byte for byte."""
    from adiaflow import cli
    from adiaflow.reference import FullTrajectory

    run_dir = tmp_path / "run"
    assert main(["pipeline", "--out", str(run_dir)]) == 0
    solve = cli.solve_fixed_step
    starts = []

    def recording(cfg, model, start, samples):
        starts.append(isinstance(start, FullTrajectory)
                      and start.continues_to(samples))
        return solve(cfg, model, start, samples)

    monkeypatch.setattr(cli, "solve_fixed_step", recording)
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--init", "stable-bump", "--T", "20",
                 "--out", str(out)]) == 0
    assert starts == [True]
    assert out.read_bytes() == (run_dir / "traj.csv").read_bytes()


def test_a_negative_horizon_is_a_configuration_error(capsys):
    assert main(["simulate", "--init", "zero", "--no-refine", "--T", "-1"]) == 2
    assert "T = -1 must be nonnegative" in capsys.readouterr().err


def test_a_horizon_past_the_mesh_is_refused_before_any_work(capsys,
                                                            monkeypatch):
    from adiaflow import cli

    monkeypatch.setattr(cli, "build_runtime",
                        lambda cfg: pytest.fail("the runtime was built"))
    assert main(["simulate", "--init", "stable-bump", "--T", "40"]) == 2
    _assert_refused_in_one_line(
        capsys, "requested horizon T = 40 exceeds the mesh horizon 30")


@pytest.mark.parametrize("scales, message", [
    ("0.02,0", "positive finite seed size"),
    ("0.02,-0.01", "positive finite seed size"),
    ("0.02,x", "malformed scales"),
    ("0.02", "at least two distinct scales"),
    ("0.02,0.02", "at least two distinct scales"),
    ("0.1,0.01",
     "scale 0.1 exceeds the admissible seed size manifold.delta = 0.05"),
])
def test_a_scale_that_is_no_seed_size_is_refused_before_any_work(
        capsys, monkeypatch, scales, message):
    from adiaflow import cli

    monkeypatch.setattr(cli, "build_runtime",
                        lambda cfg: pytest.fail("the runtime was built"))
    assert main(["scan-phi", "--direction", "stable-bump",
                 "--scales", scales]) == 2
    _assert_refused_in_one_line(capsys, message)


def _trajectory_text(times, n):
    header = ["t", "sigma", "strong_norm_w", "unstable_coefficient", "energy"]
    header += [f"u_{k}" for k in range(n)]
    rows = [[f"{t:.17g}"] + ["0"] * (len(header) - 1) for t in times]
    return "\n".join(",".join(row) for row in [header] + rows) + "\n"


# Each text is made for the configured grid size n, so that only the defect
# it carries is refused.
@pytest.mark.parametrize("name, text, message", [
    ("missing.csv", None, "cannot read trajectory file"),
    ("empty.csv", lambda n: "", "lacks state columns"),
    ("header.csv", lambda n: _trajectory_text([], n), "has no samples"),
    ("field.csv", lambda n: "x,value\n0.0,1.0\n", "lacks state columns"),
    ("cell.csv",
     lambda n: _trajectory_text([0.0], n).replace(",0\n", ",x\n"),
     "malformed trajectory file"),
    ("off-mesh.csv", lambda n: _trajectory_text([0.0, 0.013], n),
     "not sampled on a prefix of the point's time mesh"),
    ("nan.csv", lambda n: _trajectory_text([0.0, 0.02], n)[:-2] + "nan\n",
     "nan.csv' has a non-finite value in sample 1"),
], ids=["missing", "empty", "header-only", "x-value", "non-numeric",
        "off-mesh", "non-finite"])
def test_an_unusable_trajectory_file_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, cfg, name, text, message):
    from adiaflow import cli

    point = tmp_path / "point.json"
    point.write_text(json.dumps({"manifold": cfg.to_dict()["manifold"]}),
                     encoding="utf-8")
    traj = tmp_path / name
    if text is not None:
        traj.write_text(text(cfg.model.n_points), encoding="utf-8")
    monkeypatch.setattr(cli, "build_runtime",
                        lambda cfg: pytest.fail("the runtime was built"))
    assert main(["compare", "--point", str(point), "--traj", str(traj),
                 "--out", str(tmp_path / "report.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("configuration error: ")
    assert message in captured.err


def test_a_comparison_shorter_than_the_fit_window_fails_in_one_line(
        tmp_path, capsys):
    point = tmp_path / "point.json"
    traj = tmp_path / "traj.csv"
    assert main(["construct", "--eta", "stable-bump", "--out", str(point)]) == 0
    assert main(["simulate", "--init", str(point), "--T", "0.5",
                 "--out", str(traj)]) == 0
    capsys.readouterr()
    assert main(["compare", "--point", str(point), "--traj", str(traj),
                 "--out", str(tmp_path / "report.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the envelope fit window t in [1, 10] "
                            "holds 0 comparison samples, fewer than two\n")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--out", "{missing}/x.csv"],
    ["ledger", "--out", "{missing}/l.json"],
    ["scan-phi", "--direction", "stable-bump", "--scales", "0.02,0.01",
     "--out", "{missing}/s.csv"],
    ["pipeline", "--out", "{file}"],
], ids=["spectrum", "ledger", "scan-phi", "pipeline-over-a-file"])
def test_an_unwritable_output_is_an_input_error(tmp_path, capsys, argv):
    existing = tmp_path / "file"
    existing.write_text("", encoding="utf-8")
    argv = [arg.format(missing=tmp_path / "missing", file=existing)
            for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and err.count("\n") == 1


def test_a_failed_classification_stops_the_pipeline_after_the_ledger(
        tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["--set", "spectral.zero_tol=1e-16", "pipeline",
                 "--out", str(run_dir)]) == 1
    assert "FAIL assumption-ledger" in capsys.readouterr().out
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "config.json", "ledger.json", "report.json", "trace.json",
    ]
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert report["ledger_passed"] is False
    assert not report["passed"] and report["exit_code"] == 1
    assert report["checks"] == []
    assert report["artifacts"] == ["config.json", "ledger.json"]


def _assert_refused_in_one_line(capsys, message):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("configuration error: ")
    assert message in captured.err


FIELD_ARGUMENTS = [
    ["modulate", "--state", "{field}"],
    ["construct", "--eta", "{field}", "--out", "{out}"],
    ["scan-phi", "--direction", "{field}", "--scales", "0.02,0.01",
     "--out", "{out}"],
]


@pytest.mark.parametrize("argv", FIELD_ARGUMENTS,
                         ids=["modulate", "construct", "scan-phi"])
def test_a_field_file_with_a_non_finite_value_is_refused_in_one_line(
        tmp_path, capsys, model, argv):
    path = tmp_path / "field.csv"
    write_field_csv(str(path), model.profile)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[7] = lines[7].split(",")[0] + ",nan"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main([arg.format(field=path, out=tmp_path / "out")
                 for arg in argv]) == 2
    _assert_refused_in_one_line(
        capsys, f"field file {str(path)!r} has a non-finite value on line 8")


@pytest.mark.parametrize("command, key", [
    ("simulate", "initial_values"),
    ("compare", "eta_values"),
    # a manifold section written while delta_max was a configuration key
    ("simulate", "delta_max"),
    ("compare", "delta_max"),
])
def test_a_point_file_with_a_non_finite_entry_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, cfg, command, key):
    from adiaflow import cli

    values = [0.0] * cfg.model.n_points
    values[5] = float("nan")
    point = tmp_path / "point.json"
    payload = {
        "manifold": cfg.to_dict()["manifold"], "sigma0": 0.0,
        "initial_values": [0.0] * cfg.model.n_points,
        "unstable_mode": [0.0] * cfg.model.n_points,
    }
    if key == "delta_max":
        payload["manifold"][key] = 0.05
        message = (f"point file {str(point)!r} entry 'manifold': section "
                   f"'manifold' has no key 'delta_max'")
    else:
        payload[key] = values
        message = (f"point file {str(point)!r} entry {key!r} has non-finite "
                   f"values")
    point.write_text(json.dumps(payload), encoding="utf-8")
    traj = tmp_path / "traj.csv"
    traj.write_text(_trajectory_text([0.0], cfg.model.n_points),
                    encoding="utf-8")
    # compare reads the point after the trajectory, which needs the grid.
    monkeypatch.setattr(cli, "build_model" if command == "simulate"
                        else "build_runtime",
                        lambda cfg: pytest.fail("the work began"))
    argv = (["simulate", "--init", str(point), "--T", "1"]
            if command == "simulate" else
            ["compare", "--point", str(point), "--traj", str(traj)])
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    _assert_refused_in_one_line(capsys, message)


def test_a_point_file_with_a_list_for_sigma0_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, cfg):
    from adiaflow import cli

    zeros = [0.0] * cfg.model.n_points
    point = tmp_path / "point.json"
    point.write_text(json.dumps({
        "manifold": cfg.to_dict()["manifold"], "sigma0": [0.0, 1.0],
        "initial_values": zeros, "unstable_mode": zeros,
    }), encoding="utf-8")
    monkeypatch.setattr(cli, "build_model",
                        lambda cfg: pytest.fail("the work began"))
    assert main(["simulate", "--init", str(point), "--T", "1",
                 "--out", str(tmp_path / "out")]) == 2
    _assert_refused_in_one_line(
        capsys, f"point file {str(point)!r} has 2 sigma0 entries, one "
                "expected")


@pytest.mark.parametrize("drop, message", [
    (None, "point file {point!r} has 512 initial_values entries, the "
           "configured grid has {n} points"),
    ("manifold", "point file {point!r} lacks required key: 'manifold'"),
], ids=["512-point-grid", "no-manifold"])
def test_a_point_file_the_grid_cannot_use_is_refused_naming_the_file(
        tmp_path, capsys, monkeypatch, cfg, drop, message):
    from adiaflow import cli

    # The state entries of a point file written on a 512-point grid.
    zeros = [0.0] * 512
    payload = {"manifold": cfg.to_dict()["manifold"], "sigma0": 0.0,
               "initial_values": zeros, "unstable_mode": zeros}
    payload.pop(drop, None)
    point = tmp_path / "point.json"
    point.write_text(json.dumps(payload), encoding="utf-8")
    monkeypatch.setattr(cli, "build_model",
                        lambda cfg: pytest.fail("the work began"))
    assert main(["simulate", "--init", str(point), "--T", "1",
                 "--out", str(tmp_path / "out")]) == 2
    _assert_refused_in_one_line(capsys, message.format(
        point=str(point), n=cfg.model.n_points))


@pytest.mark.parametrize("argv", FIELD_ARGUMENTS[1:],
                         ids=["construct", "scan-phi"])
@pytest.mark.parametrize("channel", ["unstable", "tangent"])
def test_a_file_seed_outside_the_stable_range_is_refused_in_one_line(
        tmp_path, capsys, workspace, eta_bump, argv, channel):
    direction = workspace.unstable_mode if channel == "unstable" \
        else workspace.model.frame(0.0)[1]
    path = tmp_path / "seed.csv"
    write_field_csv(str(path), GridField(eta_bump.values + 1e-3 * direction,
                                         eta_bump.grid))
    assert main([arg.format(field=path, out=tmp_path / "out")
                 for arg in argv]) == 2
    _assert_refused_in_one_line(
        capsys, f"seed from {str(path)!r}: input field has components along "
                f"the tangent or unstable directions")


def test_a_fixed_step_below_the_solver_floor_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch):
    from adiaflow import cli

    for name in ("build_model", "build_runtime", "run_full_pipeline"):
        monkeypatch.setattr(cli, name,
                            lambda *args, **kwargs: pytest.fail("the work began"))
    argv = ["--set", "reference.fixed_dt=1e-320", "pipeline",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    _assert_refused_in_one_line(
        capsys, "reference.fixed_dt must be at least 1e-12, the solver's "
        "smallest step")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["--set", "manifold.horizon=inf", "simulate", "--init", "zero",
      "--no-refine", "--T", "1"],
     "manifold.horizon must be a finite number, got inf"),
    (["--set", "manifold.delta=nan", "construct", "--eta", "stable-bump"],
     "manifold.delta must be a finite number, got nan"),
    (["--config", "{n_points}", "spectrum"],
     "model.n_points must be an integer, got 1024.7"),
    (["--config", "{ceiling}", "ledger"],
     "reference.ceiling must be a finite number, got inf"),
], ids=["horizon-inf", "delta-nan", "file-n-points", "file-ceiling"])
def test_a_non_finite_or_non_integral_entry_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, argv, message):
    from adiaflow import cli

    files = {"n_points": '{"model": {"n_points": 1024.7}}',
             "ceiling": '{"reference": {"ceiling": Infinity}}'}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    for name in ("build_model", "build_runtime", "run_assumption_ledger"):
        monkeypatch.setattr(cli, name,
                            lambda cfg: pytest.fail("the work began"))
    argv = [arg.format(**{name: tmp_path / f"{name}.json"
                          for name in files}) for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    _assert_refused_in_one_line(capsys, message)


def test_a_grid_too_large_for_the_dense_operator_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch):
    from adiaflow import cli

    # Its dense operator alone would be 320 GB.
    for name in ("build_model", "build_runtime", "run_assumption_ledger"):
        monkeypatch.setattr(cli, name,
                            lambda cfg: pytest.fail("the work began"))
    assert main(["--set", "model.n_points=200000", "pipeline",
                 "--out", str(tmp_path / "out")]) == 2
    _assert_refused_in_one_line(
        capsys, "model.n_points = 200000 exceeds 4096: the dense n x n "
        "operator and its eigendecomposition take about seven n x n float64 "
        "arrays, 2.24e+03 GB at this size")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["spectrum"], ["ledger"], ["pipeline"],
    ["construct", "--eta", "stable-bump"],
    ["simulate", "--init", "zero", "--no-refine", "--T", "1"],
], ids=["spectrum", "ledger", "pipeline", "construct", "simulate"])
def test_a_domain_too_wide_to_sample_the_pulse_is_refused_in_one_line(
        tmp_path, capsys, cfg, argv):
    # At the default grid the spacing is hundreds of pulse widths: every
    # sample of the pulse slope is zero, so no unit tangent exists.
    n = cfg.model.n_points
    assert main(["--set", "model.domain_half_length=1e5"] + argv
                + ["--out", str(tmp_path / "out")]) == 2
    _assert_refused_in_one_line(
        capsys, f"model.domain_half_length = 100000 is too wide for "
        f"model.n_points = {n}: a grid spacing of {2e5 / n:g} cannot sample "
        f"the pulse: its sampled slope has weak norm 0")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["construct", "--eta", "{field}"],
     "seed from '{field}': input strong norm 2.000e-01 exceeds the "
     "admissible seed size 5.000e-02"),
    (["--set", "manifold.delta=0.03", "construct", "--eta", "stable-bump"],
     "seed from 'stable-bump': input strong norm 4.000e-02 exceeds the "
     "admissible seed size 3.000e-02"),
    (["--set", "manifold.delta=0.03", "simulate", "--init", "stable-bump",
      "--no-refine"],
     "seed from 'stable-bump': input strong norm 4.000e-02 exceeds the "
     "admissible seed size 3.000e-02"),
], ids=["construct-file", "construct-preset", "simulate-preset"])
def test_an_oversized_seed_is_refused_before_any_picard_round(
        tmp_path, capsys, monkeypatch, eta_bump, argv, message):
    from adiaflow.manifold import SolutionMapWorkspace

    path = tmp_path / "seed.csv"
    write_field_csv(str(path), GridField(5.0 * eta_bump.values, eta_bump.grid))
    monkeypatch.setattr(SolutionMapWorkspace, "apply_raw",
                        lambda *args: pytest.fail("a Picard round ran"))
    assert main([arg.format(field=path) for arg in argv]
                + ["--out", str(tmp_path / "out")]) == 2
    _assert_refused_in_one_line(capsys, message.format(field=path))


def test_a_scan_direction_is_not_held_to_the_seed_size(tmp_path, capsys,
                                                       eta_bump):
    # Directions are normalized: only the scaled seeds meet manifold.delta.
    path = tmp_path / "direction.csv"
    write_field_csv(str(path), GridField(5.0 * eta_bump.values, eta_bump.grid))
    assert main(["scan-phi", "--direction", str(path), "--scales",
                 "0.02,0.01", "--out", str(tmp_path / "scan.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["direction"] == "file"
