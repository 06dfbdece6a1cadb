"""Acceptance gate: ten go/no-go checks, one printed verdict line each.

Every test computes its quantities fresh (reusing only the shared session
objects), prints a single PASS/FAIL line with the measured values, and
asserts the criterion.  The terminal summary repeats all verdict lines.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from adiaflow.grid import GridField, PeriodicGrid, zero_field
from adiaflow.manifold import (
    SolutionMapWorkspace,
    construct_manifold_point,
    correction_scan,
    default_speed_constant,
    measure_contraction,
    measure_correction_lipschitz,
)
from adiaflow.model import PulseModel
from adiaflow.modulation import solve_modulation
from adiaflow.paths import mesh_prefix, time_mesh
from adiaflow.reference import (
    collapse_floor,
    compare_effective,
    evolve_lanes,
    extract_modulated,
    instability_witnesses,
    refine_correction,
    unstable_coefficient,
    witness_report,
)
from adiaflow.spectral import decompose, measure_propagator_constant

DELTA = 0.05
ALPHA = 1.0


@pytest.fixture()
def report(request):
    def _report(num: int, passed: bool, text: str) -> None:
        line = f"{'PASS' if passed else 'FAIL'} criterion {num:02d}: {text}"
        print(line)
        request.config._criterion_lines.append(line)
        assert passed, line

    return _report


def _worst_orthogonality(model, grid, path, stride=5):
    worst = 0.0
    for j in range(0, path.n_samples, stride):
        tangent = model.frame(path.sigma[j])[1]
        worst = max(worst, abs(grid.inner_values(path.w[j], tangent)))
    return worst


def _modulation_quotients(n: int) -> np.ndarray:
    """Lipschitz quotients of the modulation solve over 100 Gaussian probes."""
    g = PeriodicGrid(n)
    m = PulseModel(g)
    rng = np.random.default_rng(23)
    quotients = []
    for _ in range(100):
        s_a, s_b = rng.uniform(-1.0, 1.0, 2)
        fields = []
        for _ in range(2):
            vals = np.zeros(g.n)
            for _ in range(2):
                center = rng.uniform(-3.0, 3.0)
                width = rng.uniform(0.7, 1.5)
                vals += rng.uniform(-1.0, 1.0) * np.exp(
                    -0.5 * ((g.x - center) / width) ** 2
                )
            size = rng.uniform(0.05, 0.3)
            fields.append(size * vals / g.strong_norm_values(vals))
        a_1 = solve_modulation(m, s_a, GridField(fields[0], g))
        a_2 = solve_modulation(m, s_b, GridField(fields[1], g))
        den = abs(s_a - s_b) + g.strong_norm_values(fields[0] - fields[1])
        quotients.append(abs(a_1 - a_2) / den)
    return np.array(quotients)


def test_criterion_01_pulse_stationarity(model, report):
    start = time.perf_counter()
    defect = model.gradient(model.profile).weak_norm()
    elapsed = time.perf_counter() - start
    passed = defect <= 1e-6 and elapsed < 1.0
    report(1, passed,
           f"stationarity defect {defect:.3e} <= 1e-6 "
           f"({elapsed * 1e3:.1f} ms)")


def test_criterion_02_spectral_classification(model, report):
    start = time.perf_counter()
    spectrum = decompose(model, 0.0)
    elapsed = time.perf_counter() - start
    ev = spectrum.eigenvalues
    targets_ok = (
        abs(ev[0] + 1.25) <= 5e-3
        and abs(ev[1]) <= 5e-3
        and abs(ev[2] - 0.75) <= 5e-3
        and bool(np.all(ev[3:] >= 0.745))
    )
    counts_ok = (len(spectrum.unstable_indices) == 1
                 and len(spectrum.zero_indices) == 1)
    passed = targets_ok and counts_ok and elapsed < 30.0
    report(2, passed,
           f"eigenvalues ({ev[0]:.6f}, {ev[1]:.2e}, {ev[2]:.6f}) within "
           f"5e-3 of (-1.25, 0, 0.75), rest >= 0.745, "
           f"decomposed in {elapsed:.2f} s")


def test_criterion_03_tangent_annihilation(model, report):
    worst = max(
        model.linearized_apply(s, GridField(model.frame(s)[1], model.grid))
        .weak_norm()
        for s in (-2.0, -0.7, 0.0, 1.1, 2.3)
    )
    passed = worst <= 5e-5
    report(3, passed,
           f"worst weak norm of L(sigma) tangent over 5 charts "
           f"{worst:.3e} <= 5e-5")


def test_criterion_04_modulation_consistency(model, grid, point_bump,
                                             traj_bump, extracted_bump,
                                             report):
    zero_exact = all(
        solve_modulation(model, s, zero_field(grid)) == 0.0
        for s in (0.0, 1.1)
    )
    worst_path = _worst_orthogonality(model, grid, point_bump.path)
    complete = extracted_bump.n_samples == traj_bump.n_samples
    worst_traj = _worst_orthogonality(model, grid, extracted_bump)
    q_coarse = _modulation_quotients(1024)
    q_fine = _modulation_quotients(2048)
    grid_gap = float(np.max(np.abs(q_coarse - q_fine)))
    passed = (zero_exact and complete and worst_path <= 1e-8
              and worst_traj <= 1e-8 and grid_gap <= 1e-10)
    report(4, passed,
           f"zero input -> exactly zero output: {zero_exact}; "
           f"orthogonality along fixed point {worst_path:.2e} and along "
           f"extracted trajectory {worst_traj:.2e} <= 1e-8; "
           f"quotients grid-independent to {grid_gap:.2e}")


def test_criterion_05_stable_decay(spectrum, report):
    c2, rate = measure_propagator_constant(spectrum)
    passed = rate <= -0.7 and np.isfinite(c2) and c2 > 0
    report(5, passed,
           f"fitted stable-range decay rate {rate:.4f} <= -0.7 "
           f"(envelope constant {c2:.3f})")


def test_criterion_06_contraction_and_construction(workspace, eta_bump,
                                                   report):
    start = time.perf_counter()
    contraction = measure_contraction(
        workspace, delta=DELTA, alpha=ALPHA,
        speed_constant=default_speed_constant(workspace.model),
        n_pairs=10, seed=5)
    point = construct_manifold_point(workspace, eta_bump, delta=DELTA,
                                     alpha=ALPHA, fixed_point_tol=1e-10,
                                     max_iter=30)
    elapsed = time.perf_counter() - start
    passed = (contraction["max"] <= 0.5 and point.iterations <= 30
              and point.distances[-1] <= 1e-10 and elapsed < 300.0)
    report(6, passed,
           f"contraction factor over 10 random pairs {contraction['max']:.4f} "
           f"<= 0.5; fixed point in {point.iterations} iterations to "
           f"{point.distances[-1]:.2e} ({elapsed:.1f} s)")


def test_criterion_07_reduced_matches_full(workspace, model, point_bump,
                                           refined_bump, traj_bump,
                                           extracted_bump, report):
    comp = compare_effective(workspace, point_bump, traj_bump,
                             extracted_bump, delta=DELTA, alpha=ALPHA)
    sups = (comp["sup_sigma_effective"], comp["sup_sigma_fixed_point"],
            comp["sup_w_strong"])

    refined_half = refine_correction(workspace, point_bump, dt=5e-4,
                                     probe_time=16.0)
    samples = mesh_prefix(workspace.times, 20.0)
    # Continue the probe solve of the refined coefficient to t = 20.
    traj_half, = evolve_lanes(
        model, [refined_half.trajectory], dt=5e-4,
        sample_times=samples, collapse_floor=collapse_floor(model),
    )
    comp_half = compare_effective(
        workspace, point_bump, traj_half,
        extract_modulated(model, traj_half, sigma_guess=point_bump.sigma0),
        delta=DELTA, alpha=ALPHA,
    )
    sups_half = (comp_half["sup_sigma_effective"],
                 comp_half["sup_sigma_fixed_point"],
                 comp_half["sup_w_strong"])
    halving_gap = abs(max(sups) - max(sups_half))

    passed = (max(sups) <= 5e-3 and max(sups_half) <= 5e-3
              and halving_gap <= 2.5e-3
              and comp["decay_margin"] <= 1.0
              and comp["envelope_rate"] <= -0.7)
    report(7, passed,
           f"sup gaps (chart effective {sups[0]:.2e}, chart fixed-point "
           f"{sups[1]:.2e}, remainder {sups[2]:.2e}) <= 5e-3, stable under "
           f"step halving (change {halving_gap:.2e} <= 2.5e-3); decay margin "
           f"{comp['decay_margin']:.3f} <= 1, envelope rate "
           f"{comp['envelope_rate']:.3f} <= -0.7")


def test_criterion_08_instability_witness(workspace, point_bump, refined_bump,
                                          traj_bump, extracted_bump, report):
    plus, minus = instability_witnesses(workspace, point_bump,
                                        refined_bump.beta, [+1e-3, -1e-3],
                                        delta=DELTA, t_max=20.0)
    # traj_bump is the zero-offset witness solve: same state, step and mesh
    # (test_witness_report_of_the_comparison_trajectory checks the reports).
    coefficients = unstable_coefficient(
        workspace.grid, workspace.unstable_mode, workspace.sigma0,
        extracted_bump.sigma, extracted_bump.w)
    stay = witness_report(traj_bump, extracted_bump, coefficients, 0.0,
                          delta=DELTA)
    rates_ok = all(
        wit.rate is not None and abs(wit.rate - 1.25) <= 0.19
        for wit in (plus, minus)
    )
    escapes_ok = {plus.escape_sign, minus.escape_sign} == {1, -1}
    stays_ok = (stay.escape_sign == 0 and stay.max_coefficient <= 1e-3
                and stay.max_remainder_margin <= 1.0)
    passed = rates_ok and escapes_ok and stays_ok
    report(8, passed,
           f"offset +-1e-3 escapes both ways with fitted rates "
           f"{plus.rate:.3f}/{minus.rate:.3f} within 1.25 +- 0.19; zero "
           f"offset stays (max coefficient {stay.max_coefficient:.2e}, "
           f"remainder margin {stay.max_remainder_margin:.3f})")


def test_criterion_09_quadratic_correction_scaling(workspace, spectrum,
                                                   eta_bump, report):
    scan = correction_scan(workspace, eta_bump, [0.04, 0.02, 0.01],
                           delta=DELTA)
    ratios_ok = bool(np.all(np.diff(scan["ratios"]) < 0))
    slope_ok = abs(scan["loglog_slope"] - 2.0) <= 0.2

    lip = measure_correction_lipschitz(workspace, delta=DELTA, n_pairs=20,
                                       seed=17)
    fine_workspace = SolutionMapWorkspace(
        spectrum, times=time_mesh(0.01, 4.0, 1.06, 30.0)
    )
    lip_fine = measure_correction_lipschitz(fine_workspace, delta=DELTA,
                                            n_pairs=20, seed=17)
    mesh_change = abs(lip_fine["max"] - lip["max"]) / lip["max"]
    passed = ratios_ok and slope_ok and mesh_change <= 0.05
    report(9, passed,
           f"correction ratios shrink with the seed scale, log-log slope "
           f"{scan['loglog_slope']:.4f} = 2 +- 0.2; Lipschitz constant over "
           f"20 pairs {lip['max']:.3e}, mesh-refinement change "
           f"{mesh_change:.2%} <= 5%")


def test_criterion_10_pipeline_determinism(tmp_path, report):
    artifacts = ["config.json", "ledger.json", "point.json", "traj.csv",
                 "report.json"]
    run_dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    codes = []
    for run_dir in run_dirs:
        proc = subprocess.run(
            [sys.executable, "-m", "adiaflow", "pipeline",
             "--preset", "stable-bump", "--out", str(run_dir)],
            capture_output=True, text=True, timeout=900,
        )
        codes.append(proc.returncode)
    present = all((d / name).is_file() for d in run_dirs for name in artifacts)
    identical = present and all(
        (run_dirs[0] / name).read_bytes() == (run_dirs[1] / name).read_bytes()
        for name in artifacts
    )
    passed_flag = False
    if present:
        payload = json.loads((run_dirs[0] / "report.json").read_text())
        passed_flag = payload.get("passed", False)
    passed = codes == [0, 0] and present and identical and passed_flag
    report(10, passed,
           f"pipeline exit codes {codes}; all {len(artifacts)} artifacts "
           f"present, byte-identical across independent runs: {identical}; "
           f"report verdict passed: {passed_flag}")
