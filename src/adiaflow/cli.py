"""Command-line entry points.

Every subcommand reads the same configuration (defaults, optionally a JSON
file via ``--config``, then ``--set section.key=value`` overrides) and
prints a JSON summary to stdout; file artifacts go wherever ``--out``
points.  Exit codes: 0 success, 1 criterion failure, 2 configuration or
input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .config import ExperimentConfig, load_config
from .errors import AdiaflowError, ConfigError
from .grid import GridField, PeriodicGrid
from .harness import (
    AGREEMENT_BOUND,
    CheckResult,
    ENVELOPE_RATE_BOUND,
    Runtime,
    _jsonable,
    build_runtime,
    load_trajectory_csv,
    point_payload,
    run_assumption_ledger,
    run_full_pipeline,
    trajectory_rows,
    write_json,
    write_trajectory_csv,
)
from .manifold import SolutionMapWorkspace, construct_manifold_point, correction_scan
from .model import PulseModel
from .modulation import decompose_state, solve_modulation
from .paths import time_mesh
from .presets import PRESET_NAMES, preset_field
from .reference import (
    compare_effective,
    corrected_initial_state,
    evolve_full,
    refine_correction,
)
from .spectral import decompose, measure_propagator_constant, \
    operator_norm_diagnostic, verify_operator_lipschitz


def _print_json(payload: dict) -> None:
    print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))


def _load_field_csv(path: str, grid: PeriodicGrid) -> GridField:
    """Read a grid field from a two-column CSV with an x,value header."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["x", "value"]:
                raise ConfigError(
                    f"field file {path!r} must have an 'x,value' header"
                )
            values = [float(row[1]) for row in reader]
    except OSError as err:
        raise ConfigError(f"cannot read field file: {err}") from err
    except (ValueError, IndexError) as err:
        raise ConfigError(f"malformed field file {path!r}: {err}") from err
    if len(values) != grid.n:
        raise ConfigError(
            f"field file has {len(values)} rows, the grid has {grid.n} points"
        )
    return GridField(np.array(values), grid)


def _eta_argument(spec: str, runtime: Runtime) -> tuple[str, GridField]:
    """Resolve an ``--eta``-style argument to (label, field)."""
    if spec in PRESET_NAMES:
        return spec, preset_field(spec, runtime.spectrum)
    return "file", _load_field_csv(spec, runtime.grid)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _cmd_spectrum(args, cfg: ExperimentConfig) -> int:
    grid = PeriodicGrid(cfg.model.n_points, cfg.model.domain_half_length)
    model = PulseModel(grid, cfg.model.chart_radius, cfg.model.ball_radius)
    sigma = model.symmetry_point(args.sigma)
    spectrum = decompose(
        model, sigma,
        gap_threshold=cfg.spectral.gap_threshold,
        zero_tol=cfg.spectral.zero_tol,
    )
    if args.out:
        kinds = {}
        for idx in spectrum.unstable_indices:
            kinds[int(idx)] = "unstable"
        for idx in spectrum.zero_indices:
            kinds[int(idx)] = "zero"
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["index", "eigenvalue", "kind"])
            for idx, value in enumerate(spectrum.eigenvalues):
                writer.writerow(
                    [idx, f"{value:.17g}", kinds.get(idx, "stable")]
                )
    c2, rate = measure_propagator_constant(
        spectrum, seed=cfg.seeds.propagator
    )
    near = model.symmetry_point(args.sigma + 0.3)
    _print_json({
        "sigma": args.sigma,
        "c1": operator_norm_diagnostic(spectrum),
        "c2": c2,
        "propagator_rate": rate,
        "spectral_gap": spectrum.spectral_gap,
        "unstable_eigenvalue": spectrum.unstable_eigenvalue,
        "zero_eigenvalue": float(
            spectrum.eigenvalues[spectrum.zero_indices[0]]
        ),
        "delta0_ratio": verify_operator_lipschitz(
            model, sigma, near, seed=cfg.seeds.operator_probes
        ),
        "n_unstable": len(spectrum.unstable_indices),
        "n_zero": len(spectrum.zero_indices),
    })
    return 0


def _cmd_modulate(args, cfg: ExperimentConfig) -> int:
    grid = PeriodicGrid(cfg.model.n_points, cfg.model.domain_half_length)
    model = PulseModel(grid, cfg.model.chart_radius, cfg.model.ball_radius)
    state = _load_field_csv(args.state, grid)
    point, remainder = decompose_state(
        model, state, model.symmetry_point(args.sigma_guess)
    )
    coeffs = solve_modulation(model, point, remainder)
    tangent = model.family_tangent(point)
    _print_json({
        "sigma": point.scalar,
        "a": coeffs.a,
        "abs_a": float(np.linalg.norm(coeffs.a)),
        "modulation_residual": coeffs.residual,
        "orthogonality_residual": abs(remainder.inner(tangent)),
        "w_weak_norm": remainder.weak_norm(),
        "w_strong_norm": remainder.strong_norm(),
    })
    return 0


def _cmd_construct(args, cfg: ExperimentConfig) -> int:
    if args.delta is not None:
        cfg.set_option(f"manifold.delta={args.delta}")
    if args.alpha is not None:
        cfg.set_option(f"manifold.alpha={args.alpha}")
    cfg.validate()
    runtime = build_runtime(cfg)
    label, eta = _eta_argument(args.eta, runtime)
    point = construct_manifold_point(
        runtime.workspace, eta,
        delta=cfg.manifold.delta, alpha=cfg.manifold.alpha,
        fixed_point_tol=cfg.manifold.fixed_point_tol,
        max_iter=cfg.manifold.max_iterations,
    )
    beta_star = None
    refine_info = None
    initial_values = point.initial_state.values
    if args.refine:
        refine = refine_correction(
            runtime.workspace, point,
            dt=cfg.reference.fixed_dt,
            probe_time=cfg.reference.refine_probe_time,
        )
        beta_star = refine.beta
        refine_info = refine.payload()
        initial_values = corrected_initial_state(
            runtime.workspace, point, refine.beta
        ).values
    payload = point_payload(
        runtime, label, point, beta_star, refine_info, initial_values
    )
    write_json(args.out, payload)
    summary = {key: payload[key] for key in (
        "beta", "beta_star", "correction_strong_norm", "eta_strong_norm",
        "iterations", "contraction_ratios", "margins", "tail_bound",
    )}
    summary["out"] = args.out
    _print_json(summary)
    return 0


def _cmd_scan_phi(args, cfg: ExperimentConfig) -> int:
    runtime = build_runtime(cfg)
    label, direction = _eta_argument(args.direction, runtime)
    if direction.strong_norm() == 0.0:
        raise ConfigError("scan direction must be a nonzero field")
    scales = [float(s) for s in args.scales.split(",") if s.strip()]
    if not scales:
        raise ConfigError("at least one scale is required")
    scan = correction_scan(
        runtime.workspace, direction, scales,
        delta=cfg.manifold.delta, alpha=cfg.manifold.alpha,
        fixed_point_tol=cfg.manifold.fixed_point_tol,
        max_iter=cfg.manifold.max_iterations,
    )
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["scale", "correction", "ratio"])
        for s, c, r in zip(scan["scales"], scan["corrections"], scan["ratios"]):
            writer.writerow([f"{s:.17g}", f"{c:.17g}", f"{r:.17g}"])
    _print_json({
        "direction": label,
        "loglog_slope": scan["loglog_slope"],
        "ratios": scan["ratios"],
        "out": args.out,
    })
    return 0


def _cmd_simulate(args, cfg: ExperimentConfig) -> int:
    grid = PeriodicGrid(cfg.model.n_points, cfg.model.domain_half_length)
    model = PulseModel(grid, cfg.model.chart_radius, cfg.model.ball_radius)

    if args.init in PRESET_NAMES:
        runtime = build_runtime(cfg)
        model, grid = runtime.model, runtime.grid
        eta = preset_field(args.init, runtime.spectrum)
        point = construct_manifold_point(
            runtime.workspace, eta,
            delta=cfg.manifold.delta, alpha=cfg.manifold.alpha,
            fixed_point_tol=cfg.manifold.fixed_point_tol,
            max_iter=cfg.manifold.max_iterations,
        )
        beta = point.correction
        if not args.no_refine:
            beta = refine_correction(
                runtime.workspace, point,
                dt=cfg.reference.fixed_dt,
                probe_time=cfg.reference.refine_probe_time,
            ).beta
        initial_values = corrected_initial_state(
            runtime.workspace, point, beta
        ).values
        sigma0 = point.sigma0
        unstable_mode = runtime.workspace.unstable_mode
        mesh = runtime.times
    else:
        try:
            with open(args.init, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read point file: {err}") from err
        try:
            initial_values = np.array(payload["initial_values"], dtype=float)
            unstable_mode = np.array(payload["unstable_mode"], dtype=float)
            sigma0 = float(payload["sigma0"])
            mesh_spec = payload["mesh"]
        except KeyError as err:
            raise ConfigError(f"point file lacks required key: {err}") from err
        if len(initial_values) != grid.n:
            raise ConfigError(
                f"point file has {len(initial_values)} state values, "
                f"the configured grid has {grid.n} points"
            )
        mesh = time_mesh(
            float(mesh_spec["dt_fine"]), float(mesh_spec["t_uniform"]),
            float(mesh_spec["ratio"]), float(mesh_spec["horizon"]),
        )

    if args.T > mesh[-1] + 1e-12:
        raise ConfigError(
            f"requested horizon T = {args.T:g} exceeds the mesh horizon "
            f"{mesh[-1]:g}"
        )
    samples = mesh[mesh <= args.T + 1e-12]
    traj = evolve_full(
        model, GridField(initial_values.copy(), grid), float(samples[-1]),
        fixed_dt=cfg.reference.fixed_dt, sample_times=samples,
        ceiling=cfg.reference.ceiling,
    )
    header, rows = trajectory_rows(model, sigma0, unstable_mode, traj)
    write_trajectory_csv(args.out, header, rows)
    last = rows[-1]
    _print_json({
        "init": args.init,
        "t_final": float(traj.times[-1]),
        "n_samples": traj.n_samples,
        "n_rows": len(rows),
        "escaped": traj.escaped,
        "escape_sign": traj.stats["escape_sign"],
        "escape_time": traj.stats["escape_time"],
        "final_sigma": last[1],
        "final_strong_norm_w": last[2],
        "final_energy": last[4],
        "out": args.out,
    })
    return 0


def _cmd_compare(args, cfg: ExperimentConfig) -> int:
    try:
        with open(args.point, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read point file: {err}") from err
    runtime = build_runtime(cfg)
    try:
        eta_values = np.array(payload["eta_values"], dtype=float)
        delta = float(payload["delta"])
        alpha = float(payload["alpha"])
        mesh_spec = payload["mesh"]
    except KeyError as err:
        raise ConfigError(f"point file lacks required key: {err}") from err
    if len(eta_values) != runtime.grid.n:
        raise ConfigError(
            f"point file has {len(eta_values)} seed values, the configured "
            f"grid has {runtime.grid.n} points"
        )
    mesh = time_mesh(
        float(mesh_spec["dt_fine"]), float(mesh_spec["t_uniform"]),
        float(mesh_spec["ratio"]), float(mesh_spec["horizon"]),
    )
    workspace = (
        runtime.workspace if np.array_equal(mesh, runtime.times)
        else SolutionMapWorkspace(runtime.spectrum, times=mesh)
    )
    point = construct_manifold_point(
        workspace, GridField(eta_values, runtime.grid),
        delta=delta, alpha=alpha,
        fixed_point_tol=cfg.manifold.fixed_point_tol,
        max_iter=cfg.manifold.max_iterations,
    )
    traj = load_trajectory_csv(args.traj, runtime.grid)
    comparison = compare_effective(workspace, point, traj,
                                   delta=delta, alpha=alpha)
    agreement = max(
        comparison["sup_sigma_effective"],
        comparison["sup_sigma_fixed_point"],
        comparison["sup_w_strong"],
    )
    degenerate = float(np.max(np.abs(eta_values))) == 0.0
    checks = [
        CheckResult(
            name="reduced-agreement",
            claim="fixed-point path and effective chart dynamics match the "
                  "extracted full solution",
            passed=agreement <= AGREEMENT_BOUND,
            value=agreement,
            bound=f"sup differences <= {AGREEMENT_BOUND:g}",
        ),
        CheckResult(
            name="remainder-envelope",
            claim="extracted remainder stays inside the weighted decay "
                  "envelope",
            passed=comparison["decay_margin"] <= 1.0,
            value=comparison["decay_margin"],
            bound="<= 1",
        ),
        CheckResult(
            name="envelope-rate",
            claim="extracted remainder decays exponentially over the fit "
                  "window",
            passed=True if degenerate
            else comparison["envelope_rate"] <= ENVELOPE_RATE_BOUND,
            value=None if degenerate else comparison["envelope_rate"],
            bound="degenerate for a zero seed" if degenerate
            else f"<= {ENVELOPE_RATE_BOUND}",
        ),
    ]
    passed = all(check.passed for check in checks)
    report = {
        "point": args.point,
        "traj": args.traj,
        "passed": passed,
        "exit_code": 0 if passed else 1,
        "checks": [check.to_dict() for check in checks],
        "metrics": comparison,
    }
    write_json(args.out, report)
    _print_json(report)
    return 0 if passed else 1


def _cmd_ledger(args, cfg: ExperimentConfig) -> int:
    report = run_assumption_ledger(cfg)
    if args.out:
        write_json(args.out, report.to_dict())
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        value = "n/a" if check.value is None else f"{check.value:.6g}"
        print(f"{status} {check.name}: {value} ({check.bound})")
    print("ledger " + ("PASSED" if report.passed else "FAILED"))
    return 0 if report.passed else 1


def _cmd_pipeline(args, cfg: ExperimentConfig) -> int:
    out_dir = args.out if args.out else f"runs/{args.preset}"
    report = run_full_pipeline(cfg, eta_preset=args.preset, out_dir=out_dir)
    if not report.ledger_passed:
        print("FAIL assumption-ledger (see ledger.json)")
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        value = "n/a" if check.value is None else f"{check.value:.6g}"
        print(f"{status} {check.name}: {value} ({check.bound})")
    print(f"pipeline {'PASSED' if report.passed else 'FAILED'}: "
          f"artifacts in {out_dir}")
    return report.exit_code


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiaflow",
        description="Invariant-manifold construction and verification for "
                    "a gradient-flow pulse model.",
    )
    parser.add_argument("--config", default=None,
                        help="JSON configuration file")
    parser.add_argument("--set", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", dest="overrides",
                        help="override one configuration entry (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and spectral constants")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--out", default=None, help="CSV of the eigenvalue table")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("modulate", help="decompose a state into chart "
                                        "point plus remainder")
    p.add_argument("--state", required=True, help="x,value CSV of the state")
    p.add_argument("--sigma-guess", type=float, default=0.0)
    p.set_defaults(func=_cmd_modulate)

    p = sub.add_parser("construct", help="fixed point of the solution map")
    p.add_argument("--eta", required=True,
                   help=f"x,value CSV or preset ({', '.join(PRESET_NAMES)})")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--refine", action="store_true",
                   help="also shoot the correction against the full solver")
    p.add_argument("--out", default="point.json")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("scan-phi", help="corrections along a ray of seeds")
    p.add_argument("--direction", required=True,
                   help=f"x,value CSV or preset ({', '.join(PRESET_NAMES)})")
    p.add_argument("--scales", required=True,
                   help="comma-separated seed sizes, e.g. 0.04,0.02,0.01")
    p.add_argument("--out", default="scan.csv")
    p.set_defaults(func=_cmd_scan_phi)

    p = sub.add_parser("simulate", help="full solve from a point or preset")
    p.add_argument("--init", required=True,
                   help=f"point.json or preset ({', '.join(PRESET_NAMES)})")
    p.add_argument("--T", type=float, default=30.0)
    p.add_argument("--no-refine", action="store_true",
                   help="skip shooting refinement for preset inits")
    p.add_argument("--out", default="traj.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="reduced dynamics versus a trajectory")
    p.add_argument("--point", required=True)
    p.add_argument("--traj", required=True)
    p.add_argument("--out", default="report.json")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("ledger", help="run every assumption diagnostic")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_ledger)

    p = sub.add_parser("pipeline", help="ledger, construct, solve, compare, "
                                        "witness; write all artifacts")
    p.add_argument("--preset", default="stable-bump", choices=PRESET_NAMES)
    p.add_argument("--out", default=None,
                   help="run directory (default runs/<preset>)")
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        return args.func(args, cfg)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except AdiaflowError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
