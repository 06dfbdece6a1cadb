"""Assumption ledger, deterministic artifacts, and CSV round-trips."""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from adiaflow import harness
from adiaflow.cli import main
from adiaflow.config import ExperimentConfig
from adiaflow.errors import ClassificationError, ConfigError, ConvergenceError
from adiaflow.grid import GridField, PeriodicGrid, blas_info
from adiaflow.harness import (
    build_model,
    build_runtime,
    eigenvalue_table,
    load_field_csv,
    load_trajectory_csv,
    point_payload,
    run_assumption_ledger,
    run_full_pipeline,
    scan_corrections,
    write_field_csv,
    write_json,
    write_trajectory_csv,
)
from adiaflow.paths import TrajectoryPath, time_mesh
from adiaflow.presets import preset_field
from adiaflow.reference import (
    FullTrajectory,
    corrected_initial_state,
    evolve_lanes,
    extract_modulated,
    unstable_coefficient,
)
from adiaflow.spectral import decompose

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
        246.16748282688997, rel=1e-9)
    assert by_name["spectral-classification"].value == pytest.approx(
        0.749999975266288, rel=1e-9)
    assert by_name["propagator-decay"].value == pytest.approx(
        -0.8399376870463342, abs=1e-9)
    assert by_name["family-regularity"].value == pytest.approx(
        5.187817523750103, rel=1e-9)
    assert by_name["operator-lipschitz"].value == pytest.approx(
        0.45904377387632433, rel=1e-9)
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
    assert constants["c2"] == pytest.approx(2.5243441153774238, rel=1e-9)


def test_ledger_eigenvalue_table(ledger):
    table = ledger.eigenvalue_table
    assert len(table) == 8
    for row in table:
        assert set(row) == {"index", "eigenvalue", "kind"}
    assert table[0]["kind"] == "unstable"
    assert table[0]["eigenvalue"] == pytest.approx(-1.25, abs=1e-10)
    assert table[1]["kind"] == "zero"
    assert all(row["kind"] == "stable" for row in table[2:])


def test_a_failed_classification_tabulates_the_eigenvalues_it_classified(
        model, monkeypatch):
    from adiaflow import harness
    from adiaflow.spectral import decompose

    with pytest.raises(ClassificationError) as excinfo:
        decompose(model, 0.0, zero_tol=1e-16)
    # No second operator assembly or eigendecomposition for the table.
    monkeypatch.setattr(harness, "assemble_operator",
                        lambda *args: pytest.fail("operator assembled again"))
    cfg = ExperimentConfig()
    cfg.spectral.zero_tol = 1e-16
    report = run_assumption_ledger(cfg)
    assert not report.passed
    assert report.eigenvalue_table == [
        {"index": idx, "eigenvalue": float(value), "kind": "unclassified"}
        for idx, value in enumerate(excinfo.value.eigenvalues[:8])
    ]


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


def test_a_pipeline_whose_classification_fails_times_only_its_runtime(
        tmp_path):
    # The runtime stage builds the spectrum; when it cannot be classified
    # the failure is the ledger's one failed check, and no ledger stage
    # runs.
    cfg = ExperimentConfig()
    cfg.spectral.zero_tol = 1e-16
    report = run_full_pipeline(cfg, "stable-bump", str(tmp_path))
    assert not report.passed and report.checks == []
    ledger = json.loads((tmp_path / "ledger.json").read_text())
    check, = ledger["checks"]
    assert check["name"] == "spectral-classification"
    assert not check["passed"]
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert [stage["stage"] for stage in trace["stages"]] == ["runtime"]


def test_trajectory_csv_round_trip(model, grid, spectrum, workspace, tmp_path):
    e_s = spectrum.eigenvectors[:, spectrum.stable_indices[0]]
    u0 = GridField(model.profile.values + 0.005 * e_s, grid)
    traj = evolve_lanes(model, [u0.values], dt=1e-3,
                        sample_times=np.array([0.0, 0.05, 0.1]))[0]
    extracted = extract_modulated(model, traj, sigma_guess=0.0)
    coefficients = unstable_coefficient(grid, workspace.unstable_mode, 0.0,
                                        extracted.sigma, extracted.w)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(str(path), traj, extracted, traj.energies(model),
                         coefficients)
    with open(path, encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header[:5] == ["t", "sigma", "strong_norm_w",
                          "unstable_coefficient", "energy"]
    assert len(header) == 5 + grid.n
    assert len(rows) == 3

    loaded = load_trajectory_csv(str(path), grid)
    assert np.array_equal(loaded.times, traj.times)
    assert np.array_equal(loaded.u_samples, traj.u_samples)

    with pytest.raises(ConfigError, match=f"{grid.n} state columns"):
        load_trajectory_csv(str(path), PeriodicGrid(2 * grid.n))


#: Floats whose 17-digit text is easy to get wrong: signed zeros and
#: infinities, the smallest subnormal, the largest magnitudes.
AWKWARD = [0.0, -0.0, 5e-324, 1e300, float("inf"), -float("inf"), 0.1,
           -1.0 / 3.0, 1e-3, 2.5e-17, -123456.78901234567, 7.0]


def _trajectory_table(path):
    """traj.csv of a made-up three-sample solve that holds AWKWARD."""
    grid = PeriodicGrid(16)
    rng = np.random.default_rng(0)
    times = np.array([0.0, float("inf"), 1e-3])
    u = rng.standard_normal((3, grid.n))
    u[:, :4] = np.reshape(AWKWARD, (3, 4))
    extracted = TrajectoryPath(times, [-0.0, -float("inf"), 2.5e-17],
                               rng.standard_normal((3, grid.n)), grid)
    energies = np.array([1e300, -1.0 / 3.0, 7.0])
    coefficients = np.array([5e-324, 0.1, -123456.78901234567])
    write_trajectory_csv(str(path), FullTrajectory(times, u), extracted,
                         energies, coefficients)
    header = ["t", "sigma", "strong_norm_w", "unstable_coefficient",
              "energy"] + [f"u_{k}" for k in range(grid.n)]
    return header, [[*cells, *state] for *cells, state in zip(
        times, extracted.sigma, extracted.w_strong_norms(), coefficients,
        energies, u)]


def _field_table(path):
    """A field holds finite values only: the finite ones of AWKWARD."""
    grid = PeriodicGrid(16)
    values = [v for v in AWKWARD if np.isfinite(v)]
    values += [1.5, -2.0, 3e-9, 42.0, -1e-300, 6.0]
    write_field_csv(str(path), GridField(values, grid))
    return ["x", "value"], list(zip(grid.x, values))


def _spectrum_table(path):
    """``spectrum --sigma 0.3 --out``: int, float and text columns."""
    assert main(["spectrum", "--sigma", "0.3", "--out", str(path)]) == 0
    cfg = ExperimentConfig()
    spectrum = decompose(build_model(cfg), 0.3,
                         gap_threshold=cfg.spectral.gap_threshold,
                         zero_tol=cfg.spectral.zero_tol)
    header = ["index", "eigenvalue", "kind"]
    return header, [[row[key] for key in header] for row in
                    eigenvalue_table(spectrum, len(spectrum.eigenvalues))]


def _scan_table(path):
    assert main(["scan-phi", "--direction", "stable-bump", "--scales",
                 "0.04,0.02", "--out", str(path)]) == 0
    cfg = ExperimentConfig()
    runtime = build_runtime(cfg)
    scan = scan_corrections(cfg, runtime.workspace,
                            preset_field("stable-bump", runtime.spectrum),
                            [0.04, 0.02])
    return ["scale", "correction", "ratio"], list(zip(
        scan["scales"], scan["corrections"], scan["ratios"]))


@pytest.mark.parametrize("table", [
    _trajectory_table, _field_table, _spectrum_table, _scan_table,
], ids=["traj.csv", "field", "spectrum", "scan-phi"])
def test_csv_bytes_are_the_csv_writer_bytes(table, tmp_path):
    """Every table the program writes, against ``csv.writer`` on its cells
    with each float as 17 significant digits; ints and text as they are."""
    path = tmp_path / "table.csv"
    header, rows = table(path)
    expected = tmp_path / "expected.csv"
    with open(expected, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{cell:.17g}" if isinstance(cell, float)
                             else cell for cell in row])
    assert rows and path.read_bytes() == expected.read_bytes()
    if table is _trajectory_table:
        assert b"inf,-inf" in path.read_bytes()


def test_json_bytes_are_the_json_bytes_of_plain_values(tmp_path):
    """numpy scalars, arrays and tuples are written as ``json.dump`` writes
    their Python values, with the artifacts' settings."""
    nan = float("nan")
    payload = {
        "float": np.float64(0.1), "int": np.int64(-7), "bool": np.bool_(True),
        "array": np.array([[1.0, -0.0], [nan, 1e300]]),
        "tuple": (np.float64(1.0 / 3.0), 2, "x"), "nan": nan, "zero": -0.0,
        "nested": {"b": [np.float32(0.5), np.bool_(False)], "a": None},
    }
    plain = {
        "float": 0.1, "int": -7, "bool": True,
        "array": [[1.0, -0.0], [nan, 1e300]],
        "tuple": [1.0 / 3.0, 2, "x"], "nan": nan, "zero": -0.0,
        "nested": {"b": [0.5, False], "a": None},
    }
    path, expected = tmp_path / "payload.json", tmp_path / "expected.json"
    write_json(str(path), payload)
    with open(expected, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(plain, handle, indent=2, sort_keys=True)
        handle.write("\n")
    assert path.read_bytes() == expected.read_bytes()
    assert b"NaN" in path.read_bytes() and b"-0.0" in path.read_bytes()
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(str(path), {"object": object()})


def test_field_csv_round_trip(grid, eta_bump, tmp_path):
    path = tmp_path / "eta.csv"
    write_field_csv(str(path), eta_bump)
    first_line = path.read_text(encoding="utf-8").splitlines()[0]
    assert first_line == "x,value"
    loaded = load_field_csv(str(path), grid)
    assert np.array_equal(loaded.values, eta_bump.values)


def test_runtime_assembly(cfg, grid):
    runtime = build_runtime(cfg)
    assert runtime.grid == grid
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


def _untimed(node):
    """A trace with every timing, a value under a key ending in ``_s``,
    replaced by None."""
    if isinstance(node, dict):
        return {key: None if key.endswith("_s") else _untimed(value)
                for key, value in node.items()}
    if isinstance(node, list):
        return [_untimed(item) for item in node]
    return node


def test_two_pipeline_runs_write_traces_that_differ_only_in_their_timings(
        tmp_path, no_child_process):
    traces, points = [], []
    for name in ("a", "b"):
        run_dir = tmp_path / name
        report = run_full_pipeline(ExperimentConfig(), "stable-bump",
                                   str(run_dir))
        assert report.passed and "trace.json" not in report.artifacts
        traces.append(json.loads((run_dir / "trace.json").read_text()))
        points.append(json.loads((run_dir / "point.json").read_text()))
    assert _untimed(traces[0]) == _untimed(traces[1])
    trace, point = traces[0], points[0]
    assert [stage["stage"] for stage in trace["stages"]] == [
        "runtime", "ledger", "construction", "contraction", "shooting",
        "full-solve", "extraction", "comparison", "witness"]
    walls = [stage["wall_s"] for stage in trace["stages"]]
    assert min(walls) > 0.0 and sum(walls) <= trace["total_s"]
    # The BLAS the run used, and its two workers, reaped by its end.
    assert trace["blas"] == blas_info()
    overlapped = hasattr(os, "fork") and blas_info()["threads"] == 1
    assert trace["workers"] == [
        {"stage": stage, "overlapped": overlapped,
         "worker_s": worker["worker_s"], "wait_s": worker["wait_s"]}
        for stage, worker in zip(("contraction", "witness"),
                                 trace["workers"])]
    assert all(worker["worker_s"] > 0.0 and worker["wait_s"] >= 0.0
               for worker in trace["workers"])
    no_child_process()
    # Shooting's record: every lane solve in solve order, the last full-probe
    # one beta*, and its bracket as point.json records it.
    shooting = trace["shooting"]
    solves = shooting["solves"]
    assert len(solves) == point["refine"]["evaluations"]
    assert solves[-1]["beta"] == point["beta_star"]
    assert solves[-1]["probe_time"] == point["refine"]["probe_time"]
    assert shooting["bracket"] == point["refine"]["bracket"]
    assert 0.0 < shooting["roundoff_floor"] < shooting["bracket"]


def _raising(error):
    raise error


def test_a_worker_runs_its_call_in_a_child_and_reports_it(no_child_process):
    record = []
    worker = harness._Worker(record, "stage", os.getpid)
    with worker:
        child = worker.result()
    assert (child != os.getpid()) == worker.overlapped
    assert record == [{"stage": "stage", "overlapped": worker.overlapped,
                       "worker_s": record[0]["worker_s"],
                       "wait_s": record[0]["wait_s"]}]
    # A typed error names the worker's stage; any other is raised as it is.
    with harness._Worker(record, "contraction", _raising,
                         ConvergenceError("no factor")) as worker:
        with pytest.raises(harness._WorkerError, match="no factor") as raised:
            worker.result()
    assert raised.value.stage == "contraction"
    with harness._Worker(record, "stage", _raising,
                         ValueError("not a typed error")) as worker:
        with pytest.raises(ValueError, match="not a typed error"):
            worker.result()
    no_child_process()


def test_a_worker_left_uncollected_is_killed_and_reaped(no_child_process):
    begun = time.perf_counter()
    with harness._Worker([], "stage", time.sleep, 60.0):
        pass
    assert time.perf_counter() - begun < 30.0
    no_child_process()


@pytest.mark.parametrize("fork", ["missing", "failing"])
def test_a_worker_that_cannot_fork_makes_the_plain_call(fork, monkeypatch,
                                                       no_child_process):
    def failing():
        raise OSError("no process to spare")

    if fork == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", failing)
    with harness._Worker([], "stage", os.getpid) as worker:
        assert not worker.overlapped
        assert worker.result() == os.getpid()
    no_child_process()


PIPELINE_ARTIFACTS = ("config.json", "ledger.json", "point.json", "traj.csv",
                      "report.json")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_the_serial_path_writes_the_overlapped_runs_artifacts(
        tmp_path, monkeypatch, no_child_process):
    """Without ``os.fork`` the contraction check and the witnesses are plain
    calls at their collection points, with the same bits."""
    written = {}
    for path in ("overlapped", "serial"):
        if path == "serial":
            monkeypatch.delattr(os, "fork")
        run_dir = tmp_path / path
        assert run_full_pipeline(ExperimentConfig(), "stable-bump",
                                 str(run_dir)).passed
        no_child_process()
        written[path] = [(run_dir / name).read_bytes()
                         for name in PIPELINE_ARTIFACTS]
        trace = json.loads((run_dir / "trace.json").read_text())
        assert [worker["overlapped"] for worker in trace["workers"]] == [
            path == "overlapped" and blas_info()["threads"] == 1] * 2
    assert written["overlapped"] == written["serial"]


def _fresh_interpreter(args, threads):
    """``python args`` in a fresh interpreter on this checkout's sources,
    with ``OPENBLAS_NUM_THREADS`` unset or set to ``threads``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


needs_openblas = pytest.mark.skipif(
    blas_info()["config"] is None,
    reason="numpy's BLAS has no OpenBLAS thread-count symbols")


@needs_openblas
def test_importing_the_package_sets_openblas_to_one_thread():
    """Before any other import of the program, and so before any eigh."""
    proc = _fresh_interpreter(
        ["-c", "import adiaflow, sys; "
               "print(sys.modules['adiaflow.grid'].blas_info()['threads'])"],
        "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


@needs_openblas
def test_the_pipeline_artifacts_do_not_depend_on_the_blas_threads(tmp_path):
    """One BLAS thread and two give eigh and the dense products other bits,
    so before the pin these runs differed in four of the five artifacts."""
    runs = {}
    for threads in (None, "1", "2"):
        run_dir = tmp_path / f"threads-{threads}"
        proc = _fresh_interpreter(
            ["-m", "adiaflow", "pipeline", "--out", str(run_dir)], threads)
        assert proc.returncode == 0, proc.stderr
        runs[threads] = [(run_dir / name).read_bytes()
                         for name in PIPELINE_ARTIFACTS]
    assert runs[None] == runs["1"] == runs["2"]
